"""Transfer layer: datasets, engines, probing, metrics, supervision.

:class:`ModularTransferEngine` is the production data-plane of the
reproduction — it drives a :class:`repro.emulator.Testbed` with the
concurrency triples proposed by a controller (AutoMDT's policy, Marlin's
gradient-descent optimizers, or a static configuration) and records the
per-interval table the paper's figures are read from.
:class:`MonolithicController` adapts single-concurrency tools (Globus-style)
onto the same engine.  :class:`TransferSupervisor` wraps the engine with
stall detection, bounded retry/backoff and checkpoint-resume, and
:class:`GuardedController` keeps trained policies safe on inputs they never
saw in training (see :mod:`repro.emulator.faults` for the fault model).
"""

from repro.transfer.engine import (
    Controller,
    EngineConfig,
    ModularTransferEngine,
    Observation,
    TransferResult,
)
from repro.transfer.filelevel import FileLevelConfig, FileLevelEngine, FileLevelResult
from repro.transfer.files import Dataset, FileSpec
from repro.transfer.guarded import GuardedController
from repro.transfer.integrity import (
    ChunkJournal,
    DestinationLedger,
    IntegrityConfig,
    TransferManifest,
    VerifiedTransfer,
    VerifiedTransferResult,
    verify_artifacts,
)
from repro.transfer.metrics import FaultEvent, RecoveryRecord, TransferMetrics
from repro.transfer.monolithic import MonolithicController
from repro.transfer.probing import ThroughputProbe
from repro.transfer.rpc import BufferReportChannel
from repro.transfer.supervisor import (
    AttemptRecord,
    SupervisedTransferResult,
    SupervisorConfig,
    TransferCheckpoint,
    TransferSupervisor,
)

__all__ = [
    "Controller",
    "EngineConfig",
    "ModularTransferEngine",
    "Observation",
    "TransferResult",
    "Dataset",
    "FileSpec",
    "FileLevelConfig",
    "FileLevelEngine",
    "FileLevelResult",
    "TransferMetrics",
    "FaultEvent",
    "RecoveryRecord",
    "MonolithicController",
    "GuardedController",
    "ChunkJournal",
    "DestinationLedger",
    "IntegrityConfig",
    "TransferManifest",
    "VerifiedTransfer",
    "VerifiedTransferResult",
    "verify_artifacts",
    "ThroughputProbe",
    "BufferReportChannel",
    "AttemptRecord",
    "SupervisedTransferResult",
    "SupervisorConfig",
    "TransferCheckpoint",
    "TransferSupervisor",
]
