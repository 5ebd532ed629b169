"""Population-vectorized policy engine: stacked-K forward/backward/Adam.

``train_population(batched=True)`` fused the K member *simulators* into one
vectorized ``step_second`` (PR 8), leaving the neural side as K independent
batch-1 networks: every population step paid K·layers Python dispatches, and
every update re-walked K autograd graphs.  This module stores the whole
population's weights as stacked ``(K, in, out)`` / ``(K, out)`` arrays and
advances all members with **one ``np.matmul`` per layer** — forward,
hand-rolled backward, and a stacked-K Adam step.  It is the only Gaussian
PPO update: a lone :class:`~repro.core.ppo.PPOAgent` runs it on a K=1 stack
built at its first update.

Bit-identity contract (DESIGN §17)
----------------------------------
Results are bit-identical per member to the autograd update,
:func:`~repro.core.ppo.autograd_ppo_update` over the Gaussian policy's
terms (the test oracle), because every stacked operation is either

* elementwise (tanh, exp, clip, Adam's in-place update sequence) — batching
  does not change per-element float arithmetic, and neither does running
  Adam piece by piece over a block of member rows;
* a batched ``np.matmul`` over a leading stack axis, which numpy computes as
  the identical per-slice GEMM whatever the stack axis's stride
  (``np.einsum`` is *not* used: its different reduction order breaks
  bit-identity);
* a row-contiguous reduction (``sum``/``mean``/``std`` over the batch or
  feature axis), which performs the same pairwise accumulation per row as
  the member-local reduction.

The hand-rolled backward replays the scalar autograd engine's exact
gradient-accumulation order (the reversed depth-first topological order of
``Tensor.backward``): the PPO ratio accumulates its unclipped-surrogate
contribution before the clipped one; the clamped log-std accumulates its
log-prob, σ-path and entropy contributions in that order; each residual
block's input takes the skip contribution before the matmul path; and the
``z·z`` / ``diff·diff`` duplicate-parent nodes accumulate as ``t + t``.
Per-member gradient clipping reproduces ``clip_grad_norm``'s Python-float
norm accumulation in parameter order (policy then value, depth-first —
:meth:`PPOAgent.parameters <repro.core.ppo.PPOAgent.parameters>`), and
unclipped members are scaled by exactly 1.0 (a bitwise identity).

Storage is member-major: member ``i``'s P parameters are row ``i`` of one
``(K, P)`` buffer, and so are its two Adam moments, each in a buffer of its
own.  An update runs over *blocks* of consecutive active rows whose
parameters fit ``_BLOCK_BYTES`` (one member at the paper's hidden 256, up
to 94 members at hidden 24), so its gradients and epoch activations are
sized for one block, and a block's parameters and moments are row views,
not copies.  Partial populations (members that converged
and deactivated) are therefore never zero-masked — ``x + 0.0`` is not a
bitwise identity for ``-0.0`` — and never gathered: a run of consecutive
active rows is already a view.  Active members always share one Adam step
count (members deactivate monotonically and never rejoin), which the
engine asserts.

Member :class:`~repro.nn.module.Parameter` objects are rebound to row views
of the stacks, so per-member ``state_dict`` / ``load_state_dict`` /
checkpointing and the compiled inference plans (:mod:`repro.nn.plan`) keep
working unchanged and stay in sync with the stacked storage.  Of an engine
and its members, the owner holds the other strongly and the other links
back weakly (a population engine owns its members; a lone agent owns its
K=1 engine), so reference counting frees an engine with its last user.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.core.ppo import PPOAgent, PPOConfig, annealed_lr
from repro.nn.optim import adam_step
from repro.nn.plan import row_mean

__all__ = ["StackedPPOAgent"]

_LOG_2PI = math.log(2.0 * math.pi)
_ENTROPY_CONST = 0.5 + 0.5 * _LOG_2PI
#: Elements per Adam block: five float64 blocks (params, grads, both
#: moments, scratch) take 1.25 MB, so each block's 13 passes stay in L2.
_ADAM_BLOCK = 1 << 15
#: Parameter bytes per update block: rows of consecutive members whose
#: parameters fit take one block (at least one member), so an update's
#: gradients and activations are sized for one block, not for K members.
_BLOCK_BYTES = 1 << 22


def _ln_forward(x: np.ndarray, scale: np.ndarray, shift: np.ndarray, eps: float):
    """Stacked fused layernorm forward; returns (out, xhat, inv_std)."""
    mu = row_mean(x)
    centered = x - mu
    var = row_mean(centered * centered)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * scale[:, None, :] + shift[:, None, :], xhat, inv_std


def _ln_backward(grad: np.ndarray, scale: np.ndarray, xhat: np.ndarray,
                 inv_std: np.ndarray):
    """Stacked layernorm backward; returns (dx, dscale, dshift)."""
    dxhat = grad * scale[:, None, :]
    dx = (dxhat - row_mean(dxhat) - xhat * row_mean(dxhat * xhat)) * inv_std
    dscale = (grad * xhat).sum(axis=1)
    dshift = grad.sum(axis=1)
    return dx, dscale, dshift


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matmul over the stack axis (per-slice GEMM, bit-identical)."""
    return np.matmul(a, b)


def _mm_t(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Batched ``a^T @ b`` per stack slice via a transpose view, into ``out``."""
    np.matmul(a.transpose(0, 2, 1), b, out=out)


class StackedPPOAgent:
    """K :class:`PPOAgent` members sharing stacked parameter storage.

    Parameters
    ----------
    state_dim, action_dim, config:
        Forwarded to each member agent.
    rngs:
        One RNG seed/generator per member — exactly what the scalar
        population path passes to each ``PPOAgent``, so member init weight
        draws (and later action noise) replay the identical streams.
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        config: PPOConfig | None = None,
        *,
        rngs: Sequence,
    ) -> None:
        if not len(rngs):
            raise ValueError("StackedPPOAgent needs at least one member rng")
        members = [PPOAgent(state_dim, action_dim, config, rng=rng) for rng in rngs]
        self._bind(members, members, weakref.ref(self))

    @classmethod
    def from_agents(cls, agents: Sequence[PPOAgent]) -> StackedPPOAgent:
        """Stack existing agents — a lone :class:`PPOAgent`'s K=1 engine.

        The agents own the engine: each holds it, and it links back to
        them weakly.
        """
        stack = cls.__new__(cls)
        stack._bind(list(agents), [weakref.proxy(a) for a in agents], stack)
        return stack

    def _bind(self, agents: list[PPOAgent], members: list, link) -> None:
        """Move the agents' parameters into stacked storage.

        ``members`` is how the engine holds the agents and ``link`` how
        each agent holds the engine; one side of the pair is weak.
        """
        if any(a._stack is not None for a in agents):
            raise ValueError("an agent's parameters already live in a stacked engine")
        self.members = members
        self.k = len(agents)
        self.lr = self.config.learning_rate
        self._stack_parameters(agents)
        self._build_structure_index(agents[0])
        # np.zeros maps lazy zero pages; np.zeros_like would memset them.
        size = self._member_size
        self._flat_m = np.zeros((self.k, size))
        self._flat_v = np.zeros((self.k, size))
        self._block_rows = min(self.k, max(1, _BLOCK_BYTES // (8 * size)))
        self._flat_g = np.empty((self._block_rows, size))
        self._grad_views = self._segment_views(self._flat_g)
        self._adam_scratch = np.empty(min(self._flat_g.size, _ADAM_BLOCK))
        self._step_counts = np.zeros(self.k, dtype=np.int64)
        for row, agent in enumerate(agents):
            agent._stack_link, agent._row = link, row

    @property
    def config(self) -> PPOConfig:
        """The members' shared configuration (read at every update)."""
        return self.members[0].config

    # ------------------------------------------------------------ construction
    def _stack_parameters(self, agents: list[PPOAgent]) -> None:
        """Stack member params to (K, …) and rebind members to row views.

        Member ``i``'s parameters are the contiguous row ``i`` of one
        ``(K, P)`` buffer, and every (K, *shape) stack is a view of a
        column segment of it (outer stride P), so a block of consecutive
        rows is one contiguous slice: the Adam epoch runs its in-place op
        sequence over a block's parameters/moments in cache-sized pieces
        instead of 13 numpy calls per parameter — elementwise arithmetic
        is position-independent, so the fused sweep stays bit-identical.
        """
        param_lists = [a.parameters() for a in agents]
        n = len(param_lists[0])
        if any(len(lst) != n for lst in param_lists):
            raise ValueError("members disagree on parameter count")
        shapes: list[tuple[int, ...]] = []
        fordered: list[bool] = []
        for j in range(n):
            d = param_lists[0][j].data
            shape = d.shape
            if any(lst[j].data.shape != shape for lst in param_lists):
                raise ValueError(f"parameter {j} shape mismatch across members")
            # BLAS kernels pick different accumulation orders per memory
            # layout, so bit-identity demands each stacked row keep the
            # scalar array's exact strides.  orthogonal() leaves wide
            # (in < out) weights Fortran-ordered; store those segments
            # transposed and expose (K, in, out) views over them.
            fordered.append(
                d.ndim == 2
                and d.flags["F_CONTIGUOUS"]
                and not d.flags["C_CONTIGUOUS"]
            )
            shapes.append(shape)
        self._shapes = shapes
        self._fordered = fordered
        sizes = [int(np.prod(s)) if s else 1 for s in shapes]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self._member_size = int(self._offsets[-1])

        self._flat_params = np.empty((self.k, self._member_size))
        stacks = self._segment_views(self._flat_params)
        for j, stacked in enumerate(stacks):
            for i, lst in enumerate(param_lists):
                stacked[i] = lst[j].data
                # Row views: member state_dict/load_state_dict (in-place
                # writes) and inference plans stay synced with the stack.
                lst[j].data = stacked[i]
        self._params = stacks

    def _segment_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter (rows, *shape) views over a (rows, P) buffer.

        Fortran-ordered scalar weights get their segment stored transposed
        and exposed through ``transpose(0, 2, 1)`` so every row view has
        the scalar array's exact strides (see _stack_parameters).  Each
        view splits a column segment's contiguous axis, which reshape does
        without a copy.
        """
        rows = len(flat)
        views = []
        for a, b, shape, f in zip(
            self._offsets, self._offsets[1:], self._shapes, self._fordered
        ):
            if f:
                seg = flat[:, a:b].reshape((rows,) + shape[::-1])
                views.append(seg.transpose(0, 2, 1))
            else:
                views.append(flat[:, a:b].reshape((rows,) + shape))
        return views

    def _build_structure_index(self, member: PPOAgent) -> None:
        """Map network structure to update-order stack indices."""
        index_of = {id(p): j for j, p in enumerate(member.parameters())}

        def ix(param) -> int:
            return index_of[id(param)]

        pol, val = member.policy, member.value
        self._ix_log_std = ix(pol.log_std)
        self._ix_p_embed = (ix(pol.embed.weight), ix(pol.embed.bias))
        self._ix_p_blocks = [
            (
                ix(b.fc1.weight), ix(b.fc1.bias), ix(b.fc2.weight), ix(b.fc2.bias),
                ix(b.norm1.scale), ix(b.norm1.shift), ix(b.norm2.scale), ix(b.norm2.shift),
            )
            for b in pol.blocks
        ]
        self._ix_p_mean = (ix(pol.mean_head.weight), ix(pol.mean_head.bias))
        self._ix_v_embed = (ix(val.embed.weight), ix(val.embed.bias))
        self._ix_v_blocks = [
            (ix(b.fc1.weight), ix(b.fc1.bias), ix(b.fc2.weight), ix(b.fc2.bias))
            for b in val.trunk if hasattr(b, "fc1")
        ]
        self._ix_v_head = (ix(val.head.weight), ix(val.head.bias))
        self._ln_eps = pol.blocks[0].norm1.eps if len(self._ix_p_blocks) else 1e-5
        self._log_std_lo, self._log_std_hi = pol.log_std_range
        self._mean_span = float(pol.mean_span)
        self._mean_center = float(pol.mean_center)

    # ---------------------------------------------------------------- forward
    def _policy_forward(self, P: list[np.ndarray], x: np.ndarray, cache: dict | None):
        """Stacked policy trunk: states (A,B,S) → (mean (A,B,3), lsc (A,3)).

        When ``cache`` is a dict, stores every intermediate the backward
        pass needs.
        """
        ew, eb = self._ix_p_embed
        e1 = _mm(x, P[ew]) + P[eb][:, None, :]
        h = np.tanh(e1)
        if cache is not None:
            cache["x"] = x
            cache["h0"] = h
            cache["blocks"] = []
        for bix in self._ix_p_blocks:
            w1, b1, w2, b2, s1, sh1, s2, sh2 = bix
            a1 = _mm(h, P[w1]) + P[b1][:, None, :]
            n1, xhat1, inv1 = _ln_forward(a1, P[s1], P[sh1], self._ln_eps)
            mask = n1 > 0
            r = np.where(mask, n1, 0.0)
            a2 = _mm(r, P[w2]) + P[b2][:, None, :]
            n2, xhat2, inv2 = _ln_forward(a2, P[s2], P[sh2], self._ln_eps)
            h_out = h + n2
            if cache is not None:
                cache["blocks"].append(
                    {"h_in": h, "xhat1": xhat1, "inv1": inv1, "mask": mask,
                     "r": r, "xhat2": xhat2, "inv2": inv2}
                )
            h = h_out
        t2 = np.tanh(h)
        mw, mb = self._ix_p_mean
        mh = _mm(t2, P[mw]) + P[mb][:, None, :]
        th = np.tanh(mh)
        mean = th * self._mean_span + self._mean_center
        lsc = np.clip(P[self._ix_log_std], self._log_std_lo, self._log_std_hi)
        if cache is not None:
            cache["t2"] = t2
            cache["th"] = th
            cache["lsc_mask"] = (
                (P[self._ix_log_std] >= self._log_std_lo)
                & (P[self._ix_log_std] <= self._log_std_hi)
            )
        return mean, lsc

    def _value_forward(self, P: list[np.ndarray], x: np.ndarray, cache: dict | None):
        """Stacked value trunk: states (A,B,S) → values (A,B)."""
        ew, eb = self._ix_v_embed
        e1 = _mm(x, P[ew]) + P[eb][:, None, :]
        h = np.tanh(e1)
        if cache is not None:
            cache["t0"] = h
            cache["blocks"] = []
        for w1, b1, w2, b2 in self._ix_v_blocks:
            a1 = _mm(h, P[w1]) + P[b1][:, None, :]
            t1 = np.tanh(a1)
            a2 = _mm(t1, P[w2]) + P[b2][:, None, :]
            h_out = h + a2
            if cache is not None:
                cache["blocks"].append({"h_in": h, "t1": t1})
            h = h_out
        hw, hb = self._ix_v_head
        out = _mm(h, P[hw]) + P[hb][:, None, :]
        if cache is not None:
            cache["hN"] = h
        return out[:, :, 0]

    # ----------------------------------------------------------------- acting
    def act_all(
        self,
        states: np.ndarray,
        *,
        active=None,
        deterministic: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All members act on their own state: ``(K, S) → ((K, 3), (K,))``.

        Replays the scalar per-member draw order exactly: action noise is
        drawn from each *active* member's own RNG in ascending member
        order, one ``standard_normal(action_dim)`` call per member (none
        for inactive members or deterministic mode).  Inactive members'
        rows are computed but carry no side effects — callers ignore them,
        matching the scalar loop that skips those members entirely.
        """
        x = np.asarray(states, dtype=float)[:, None, :]
        mean_b, lsc = self._policy_forward(self._params, x, None)
        mean = mean_b[:, 0, :]
        if deterministic:
            actions = mean.copy()
        else:
            std = np.exp(lsc)
            noise = np.zeros_like(mean)
            indices = range(self.k) if active is None else np.flatnonzero(active)
            for i in indices:
                noise[i] = self.members[i].rng.standard_normal(mean.shape[-1:])
            actions = mean + std * noise
        std_lp = np.exp(lsc)
        z = (actions - mean) / std_lp
        per_dim = (z * z) * -0.5 - lsc - 0.5 * _LOG_2PI
        return actions, per_dim.sum(axis=-1)

    def set_lr_progress(self, fraction: float) -> None:
        """Linearly anneal the shared learning rate (the lone agent's formula)."""
        self.lr = annealed_lr(self.config, fraction)

    # ----------------------------------------------------------------- update
    def update_all(self, active_indices) -> list[dict[str, float]]:
        """One PPO update for every member in ``active_indices`` at once.

        Equivalent to calling ``members[i].update()`` for each active ``i``
        (same epochs, loss, gradient clipping, Adam arithmetic — see the
        module docstring's bit-identity argument), executed as stacked
        array programs at the shared learning rate.  Returns the per-member
        diagnostics dicts and emits the same ``ppo/<key>`` metric series
        the lone agents do.
        """
        idx = np.asarray(active_indices, dtype=np.int64)
        if idx.size == 0:
            return []
        transitions = sum(len(self.members[i].memory) for i in idx)
        with obs.span("ppo/update_all", members=int(idx.size), transitions=transitions):
            results = self.update_rows(idx, self.lr)
        for i, stats in zip(idx, results):
            self.members[i].record_update(stats)
        return results

    def update_rows(self, indices, lr: float) -> list[dict[str, float]]:
        """One PPO update of the members at ``indices``, Adam at ``lr``.

        The update of :func:`~repro.core.ppo.autograd_ppo_update`, bit for
        bit, over each member's stored rollout.  Runs of consecutive rows
        are cut into blocks of at most ``_block_rows``, and every epoch of
        a block runs on row views of the stacks (members are independent,
        so the order of blocks changes no bit).  Emits no telemetry;
        returns one diagnostics dict per row.
        """
        idx = np.asarray(indices, dtype=np.int64)
        counts = self._step_counts[idx]
        if not np.all(counts == counts[0]):
            raise RuntimeError(
                "active members have diverged Adam step counts; the stacked "
                "engine requires the monotone-deactivation population cadence"
            )
        batches = [self.members[i].memory.arrays() for i in idx]
        lengths = {b[0].shape[0] for b in batches}
        if len(lengths) != 1:
            raise RuntimeError(
                f"active members hold unequal rollout lengths {sorted(lengths)}"
            )
        step = int(counts[0])
        results: list[dict[str, float]] = []
        for start, end in self._blocks(idx):
            lo, hi = int(idx[start]), int(idx[end - 1]) + 1
            rollout = [np.stack([b[f] for b in batches[start:end]]) for f in range(4)]
            params = [p[lo:hi] for p in self._params]
            grads = [g[: hi - lo] for g in self._grad_views]
            flats = [
                buf.reshape(-1)
                for buf in (self._flat_params[lo:hi], self._flat_g[: hi - lo],
                            self._flat_m[lo:hi], self._flat_v[lo:hi])
            ]
            for epoch in range(self.config.update_epochs):
                stats = self._update_epoch(
                    params, *rollout, grads, *flats, step + epoch + 1, lr
                )
            results += [
                {key: float(col[row]) for key, col in stats.items()}
                for row in range(hi - lo)
            ]
        self._step_counts[idx] += self.config.update_epochs
        return results

    def _blocks(self, idx: np.ndarray):
        """Yield the ``(start, end)`` positions in ``idx`` of each update
        block: a run of consecutive rows, at most ``_block_rows`` long."""
        start = 0
        for end in range(1, idx.size + 1):
            if (end == idx.size or idx[end] != idx[end - 1] + 1
                    or end - start == self._block_rows):
                yield start, end
                start = end

    def _update_epoch(
        self,
        P: list[np.ndarray],
        states: np.ndarray,
        actions: np.ndarray,
        old_log_probs: np.ndarray,
        returns: np.ndarray,
        grad_views: list[np.ndarray],
        flat_p: np.ndarray,
        flat_g: np.ndarray,
        flat_m: np.ndarray,
        flat_v: np.ndarray,
        step_count: int,
        lr: float,
    ) -> dict[str, np.ndarray]:
        """One stacked epoch of a block: forward, loss, backward, clip, Adam.

        ``P`` and ``grad_views`` are the block's per-parameter stacks, and
        the ``flat_*`` arrays its contiguous parameter, gradient and moment
        rows, viewed as one 1-D array each.
        """
        cfg = self.config
        A, B = returns.shape
        inv_b = 1.0 / float(B)

        # ------------------------------------------------------------ forward
        pcache: dict = {}
        vcache: dict = {}
        mean, lsc = self._policy_forward(P, states, pcache)
        values = self._value_forward(P, states, vcache)
        std = np.exp(lsc)
        std_b = std[:, None, :]
        diff_a = actions - mean
        z = diff_a / std_b
        zz = z * z
        p3 = zz * -0.5 - lsc[:, None, :] - 0.5 * _LOG_2PI
        log_probs = p3.sum(axis=-1)
        entropy = (lsc + _ENTROPY_CONST).sum(axis=-1)

        advantages = returns - values
        if cfg.normalize_advantages and B > 1:
            advantages = (advantages - advantages.mean(axis=1, keepdims=True)) / (
                advantages.std(axis=1, keepdims=True) + 1e-8
            )

        d = log_probs - old_log_probs
        ratio = np.exp(d)
        surr1 = ratio * advantages
        clip_mask = (ratio >= 1.0 - cfg.clip_epsilon) & (ratio <= 1.0 + cfg.clip_epsilon)
        surr2 = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * advantages
        take_a = surr1 <= surr2
        mn = np.where(take_a, surr1, surr2)
        actor_loss = -(mn.sum(axis=1) * inv_b)
        diff_v = values - returns
        c1 = diff_v * diff_v
        critic_loss = (c1.sum(axis=1) * inv_b) * 0.5
        loss = (actor_loss + critic_loss * cfg.critic_coef) - entropy * cfg.entropy_coef

        # ----------------------------------------------------------- backward
        # Gradient flow replays the scalar engine's reversed depth-first
        # topological order; every accumulation below happens in the same
        # sequence (and with the same float expressions) as Tensor.backward.
        # Each gradient lands in its segment of the block's ``flat_g`` rows
        # so clip + Adam can run on one 1-D array (see adam_step below).
        grads = grad_views

        g_mn = np.full((A, B), -1.0 * inv_b)
        g_surr1 = g_mn * take_a
        g_surr2 = g_mn * ~take_a
        g_ratio = g_surr1 * advantages          # unclipped surrogate first,
        g_ratio = g_ratio + (g_surr2 * advantages) * clip_mask  # then the clip path
        g_d = g_ratio * ratio
        g_p3 = np.broadcast_to(g_d[:, :, None], p3.shape).copy()
        lsc_acc = (-g_p3).sum(axis=1)           # log-prob contribution
        g_zz = g_p3 * -0.5
        t_dup = g_zz * z
        g_z = t_dup + t_dup                     # duplicate-parent z·z
        g_diff_a = g_z / std_b
        g_mean = -g_diff_a

        # Policy mean head + trunk.
        mw, mb = self._ix_p_mean
        g_th = g_mean * self._mean_span
        g_mh = g_th * (1.0 - pcache["th"] ** 2)
        grads[mb][...] = g_mh.sum(axis=1)
        _mm_t(pcache["t2"], g_mh, grads[mw])
        g_t2 = _mm(g_mh, P[mw].transpose(0, 2, 1))
        g_h = g_t2 * (1.0 - pcache["t2"] ** 2)
        for bix, bc in zip(reversed(self._ix_p_blocks), reversed(pcache["blocks"])):
            w1, b1, w2, b2, s1, sh1, s2, sh2 = bix
            dx2, ds2, dsh2 = _ln_backward(g_h, P[s2], bc["xhat2"], bc["inv2"])
            grads[s2][...] = ds2
            grads[sh2][...] = dsh2
            grads[b2][...] = dx2.sum(axis=1)
            _mm_t(bc["r"], dx2, grads[w2])
            g_r = _mm(dx2, P[w2].transpose(0, 2, 1))
            g_n1 = g_r * bc["mask"]
            dx1, ds1, dsh1 = _ln_backward(g_n1, P[s1], bc["xhat1"], bc["inv1"])
            grads[s1][...] = ds1
            grads[sh1][...] = dsh1
            grads[b1][...] = dx1.sum(axis=1)
            _mm_t(bc["h_in"], dx1, grads[w1])
            # Skip contribution first, then the matmul path (scalar order).
            g_h = g_h + _mm(dx1, P[w1].transpose(0, 2, 1))
        ew, eb = self._ix_p_embed
        g_e1 = g_h * (1.0 - pcache["h0"] ** 2)
        grads[eb][...] = g_e1.sum(axis=1)
        _mm_t(pcache["x"], g_e1, grads[ew])

        # σ path into the clamped log-std (processed after the mean trunk).
        g_std = (((-g_z) * diff_a) / (std_b ** 2)).sum(axis=1)
        lsc_acc = lsc_acc + g_std * std

        # Critic subtree.
        g_c1 = np.full((A, B), ((1.0 * cfg.critic_coef) * 0.5) * inv_b)
        t_dup_v = g_c1 * diff_v
        g_values = t_dup_v + t_dup_v
        g_head = g_values[:, :, None]
        hw, hb = self._ix_v_head
        grads[hb][...] = g_head.sum(axis=1)
        _mm_t(vcache["hN"], g_head, grads[hw])
        g_h = _mm(g_head, P[hw].transpose(0, 2, 1))
        for bix, bc in zip(reversed(self._ix_v_blocks), reversed(vcache["blocks"])):
            w1, b1, w2, b2 = bix
            grads[b2][...] = g_h.sum(axis=1)
            _mm_t(bc["t1"], g_h, grads[w2])
            g_t1 = _mm(g_h, P[w2].transpose(0, 2, 1))
            g_a1 = g_t1 * (1.0 - bc["t1"] ** 2)
            grads[b1][...] = g_a1.sum(axis=1)
            _mm_t(bc["h_in"], g_a1, grads[w1])
            g_h = g_h + _mm(g_a1, P[w1].transpose(0, 2, 1))
        vew, veb = self._ix_v_embed
        g_e1v = g_h * (1.0 - vcache["t0"] ** 2)
        grads[veb][...] = g_e1v.sum(axis=1)
        _mm_t(states, g_e1v, grads[vew])

        # Entropy contribution last, then through the log-std clip mask.
        lsc_acc = lsc_acc + np.full((A, lsc.shape[-1]), -1.0 * cfg.entropy_coef)
        grads[self._ix_log_std][...] = lsc_acc * pcache["lsc_mask"]

        # ---------------------------------------------- clip_grad_norm + Adam
        self._clip_grad_norm(grads, cfg.max_grad_norm, A)
        # Adam's elementwise op sequence over the block's flat rows, one
        # ``_ADAM_BLOCK`` piece at a time: the same bits in every slot as one
        # call per parameter, with ~13 numpy dispatches per piece instead of
        # 13 per parameter, and each pass reads its piece from L2, not memory.
        scratch = self._adam_scratch
        for lo in range(0, flat_p.size, _ADAM_BLOCK):
            hi = lo + _ADAM_BLOCK
            adam_step(
                flat_p[lo:hi], flat_g[lo:hi], flat_m[lo:hi], flat_v[lo:hi],
                scratch[: flat_p.size - lo], step=step_count, lr=lr,
            )

        # -------------------------------------------------------- diagnostics
        return {
            "loss": loss,
            "actor_loss": actor_loss,
            "critic_loss": critic_loss,
            "entropy": entropy,
            "mean_ratio": ratio.mean(axis=1),
            "mean_return": returns.mean(axis=1),
            "approx_kl": np.mean(old_log_probs - log_probs, axis=1),
            "clip_fraction": np.mean(np.abs(ratio - 1.0) > cfg.clip_epsilon, axis=1),
        }

    def _clip_grad_norm(self, grads: list[np.ndarray], max_norm: float, rows: int) -> None:
        """Per-member global-norm clip, replaying the scalar float order.

        The norm accumulates ``float(np.dot(flat, flat))`` per parameter in
        parameter order (Python-float addition, like ``clip_grad_norm``);
        unclipped members scale by exactly 1.0 — a bitwise identity — so
        one in-place multiply serves the whole stack.
        """
        scale = np.ones(rows)
        any_clipped = False
        for row in range(rows):
            total = 0.0
            for g in grads:
                flat = g[row].ravel()
                total += float(np.dot(flat, flat))
            norm = float(np.sqrt(total))
            if norm > max_norm and norm > 0.0:
                scale[row] = max_norm / norm
                any_clipped = True
        if any_clipped:
            for g in grads:
                g *= scale.reshape((rows,) + (1,) * (g.ndim - 1))
