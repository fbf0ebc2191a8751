"""MadPipe phase 1 — memory-aware DP for non-contiguous allocations (§4.2).

The dynamic program allocates the chain back-to-front into stages.  All
processors are *normal* (one stage each) except one *special* processor
that may receive any number of stages.  The state is

``T(l, p, t_P, m_P, V)`` — the smallest achievable period for the first
``l`` layers on ``p`` remaining normal processors, given that the special
processor already carries compute load ``t_P`` and memory ``m_P``, and
that at least ``V`` seconds elapse between the end of ``F_l`` and the
start of ``B_l`` for one batch.

Memory is estimated against a *target* period ``T̂`` via the 1F1B\\*
analysis: a stage ``k..l`` whose forward→backward delay is ``V`` keeps
``g(k,l,V) = ⌈(V + U(k,l))/T̂⌉`` activation copies (``g − 1`` on the
special processor — a deliberate under-estimate, repaired by the phase-2
ILP).  Delays propagate through the group-rounding operator

``x ⊕ y = x + y``                     if ``⌈x/T̂⌉ = ⌈(x+y)/T̂⌉``
``x ⊕ y = T̂·⌈x/T̂⌉ + y``              otherwise.

Algorithm 1 then binary-searches the target ``T̂`` for
``min max(MadPipe-DP(T̂), T̂)``.

The continuous coordinates ``t_P``, ``m_P``, ``V`` are snapped to a
:class:`Discretization` grid (the paper uses 101 × 11 × 51 points).

Implementation
--------------
The DP is evaluated *iteratively* and *vectorized* — there is no Python
recursion and no ``sys.setrecursionlimit``.  Every transition moves to a
strictly smaller layer index ``l``, so the reachable state graph is
stratified by ``l``.  States are packed into a single integer key
``((((l·(P+1) + p)·n_t + it)·n_m + im)·n_v + iv`` and processed one
*level* (all states sharing ``l``) at a time.  Without the special
processor (``allow_special=False``, the contiguous restriction) every
state has ``it = im = 0``, so the key is packed with ``n_t = n_m = 1``:
the bitmap and the value table shrink to ``(L+1)·(P+1)·n_v`` entries.

Expanding a level evaluates every ``(state, k)`` candidate stage
``k..l``, but each float term of a candidate depends on one grid digit
of the state only: ``g``, ``mem(k,l,g)``, the two ``⊕`` roundings and
the child's ``iv2`` on ``iv``; ``t_P + U(k,l)``, its cap test and
``it2`` on ``it``; ``m_P + mem(k,l,g−1)``, its memory test and ``im2``
on ``(im, iv)``.  Each probe therefore builds small per-level *grid
tables* — ``n_v``, ``n_t`` and ``n_m·n_v`` rows, one column per ``k`` —
and a level's candidate matrices are row gathers by digit plus integer
adds of the packed child keys.  The tables evaluate every term with
the same operands in the same order as a per-candidate evaluation
(``V = iv·v_step`` from an integer ``iv``, and so on), so they hold the
very floats the naive recursion computes.  They depend on ``T̂``, the
cap and ``M``, so they are rebuilt per probe; only the
target-independent per-level constants may be shared by a warm
workspace (keyed by level and stride layout, so one workspace serves
both modes).  The tables stop at the last column under the period cap,
and the candidate matrices at the last column some table row admits
(under the cap and in memory): every candidate beyond is invalid for
every state.  The pruning counters still count all ``l`` columns.

1. a **downward reachability sweep** (``l = L … 1``) expands whole
   levels, applying the ``period_cap``/memory masks in bulk, and
   scatters the reachable children into one flat bitmap over the packed
   key space, so each level's sorted key array is a single
   ``flatnonzero`` (no sorting or dedup passes).  It keeps each level's
   expansion (bool masks and ``int32`` child keys while the key space
   fits) for the value sweep, up to ``_FORWARD_BUDGET`` bytes, and
   records whether a *terminal* is reachable: a level-0 child, or a
   ``p == 0`` state whose closing stage fits in memory.  T(root) is
   finite exactly when one is, so a probe without one (a *dead* probe)
   returns ``T = ∞`` here; its counters come from this sweep alone;
2. an **upward value sweep** (``l = 1 … L``) takes each reachable
   level's kept expansion (or re-expands a level past the budget),
   gathers child values by direct indexing into a dense value
   table over the packed key space (level 0 is prefilled closed-form;
   lower levels are solved first, so every lookup hits a written
   entry), and takes one ``argmin`` per level over ``k = l … 1`` of the
   better of the normal and special candidate, the normal one winning a
   tie.  That is the first minimum of the naive scan (``k`` descending,
   normal before special), so results are bit-identical to
   :func:`repro.algorithms.madpipe_dp_reference.madpipe_dp_reference`.

Only *reachable* grid states are ever touched, exactly as in the
memoized recursion; candidate stages whose load already exceeds a known
upper bound (``period_cap``) are pruned in bulk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.chain import Chain
from ..core.partition import Allocation, Partitioning, Stage
from ..core.platform import Platform
from ..warmstart import active_warm, chain_fingerprint

__all__ = [
    "Discretization",
    "DPAllocation",
    "madpipe_dp",
    "MadPipeDPResult",
    "algorithm1",
]

INF = float("inf")
_EPS = 1e-9

_NO_CHILD = -1  # decision sentinel: stage closes the chain (p == 0 base)
_NO_DEC = -2  # decision sentinel: state is infeasible

#: Byte budget for carrying discovery-pass expansions into the value
#: sweep: levels past the budget are simply re-expanded.  A default-grid
#: probe keeps at most ~33 MB; paper-grid probes on resnet101 would keep
#: up to ~240 MB, which this cap trades for some re-expansion.
_FORWARD_BUDGET = 64 << 20


@dataclass(frozen=True)
class Discretization:
    """Grid sizes for the continuous DP coordinates (paper §5.1)."""

    n_t: int = 101  # special-processor load, over [0, U(1,L)]
    n_m: int = 11  # special-processor memory, over [0, M]
    n_v: int = 51  # forward→backward delay, over [0, U(1,L) + ΣC]

    def __post_init__(self) -> None:
        if min(self.n_t, self.n_m, self.n_v) < 2:
            raise ValueError("each grid needs at least 2 points")

    @classmethod
    def paper(cls) -> "Discretization":
        """The granularity used in the paper's experiments."""
        return cls(101, 11, 51)

    @classmethod
    def default(cls) -> "Discretization":
        """A good speed/quality trade-off for pure-Python runs."""
        return cls(51, 11, 31)

    @classmethod
    def coarse(cls) -> "Discretization":
        """Fast grid for tests and wide parameter sweeps."""
        return cls(25, 7, 15)


@dataclass(frozen=True)
class DPAllocation:
    """Decisions of one DP solution: stages in chain order, each flagged
    normal (own GPU) or special (shared GPU)."""

    stages: tuple[Stage, ...]
    special: tuple[bool, ...]

    def to_allocation(self, platform: Platform) -> Allocation:
        """Materialize on a platform: normal stages take GPUs ``0, 1, …``
        in chain order; all special stages share GPU ``P − 1``."""
        procs = []
        normal = 0
        for is_special in self.special:
            if is_special:
                procs.append(platform.n_procs - 1)
            else:
                procs.append(normal)
                normal += 1
        if normal > platform.n_procs - 1 and any(self.special):
            raise ValueError("allocation uses more normal GPUs than available")
        if normal > platform.n_procs:
            raise ValueError("allocation uses more GPUs than available")
        return Allocation(Partitioning(self.stages), tuple(procs))

    @property
    def n_stages(self) -> int:
        return len(self.stages)


@dataclass
class MadPipeDPResult:
    """Result of one ``MadPipe-DP(T̂)`` evaluation."""

    target: float  # T̂ used for the memory estimates
    dp_period: float  # load-based period of the returned allocation (T)
    allocation: DPAllocation | None
    states: int = 0  # reachable (evaluated) grid states (diagnostics)
    wall_time_s: float = 0.0  # solver wall time (diagnostics)
    pruned_cap: int = 0  # candidates rejected by the period cap
    pruned_mem: int = 0  # candidates rejected by the memory check

    @property
    def effective_period(self) -> float:
        """max(T, T̂): a schedule needs T for load and T̂ for memory."""
        return max(self.dp_period, self.target)

    @property
    def feasible(self) -> bool:
        return self.allocation is not None


def _end(mask: np.ndarray) -> int:
    """One past the last ``True`` of a 1-D mask (1 when there is none)."""
    i = int(mask[::-1].argmax())
    return len(mask) - i if mask[-1 - i] else 1


class _LevelDP:
    """One MadPipe-DP(T̂) evaluation, batched level by level.

    Packed state key layout (most→least significant digit):
    ``l · S_l + p · S_p + it · S_t + im · S_m + iv``.  Without the special
    processor every state has ``it = im = 0``, so those two digits take
    one value each (``S_p = S_t = S_m = n_v``).
    """

    def __init__(
        self,
        chain: Chain,
        platform: Platform,
        target: float,
        grid: Discretization,
        period_cap: float,
        allow_special: bool,
        rows_cache: dict | None = None,
    ):
        self.L, self.P, self.M = chain.L, platform.n_procs, platform.memory
        self.beta = platform.bandwidth
        self.That = target
        self.cap = period_cap
        self.allow_special = allow_special

        t_max = chain.total_compute()
        v_max = t_max + chain.total_comm(self.beta)
        self.t_step = t_max / (grid.n_t - 1)
        self.m_step = self.M / (grid.n_m - 1)
        self.v_step = v_max / (grid.n_v - 1)
        self.it_top = grid.n_t - 1
        self.im_top = grid.n_m - 1
        self.iv_top = grid.n_v - 1

        # packed-key strides; n_t / n_m are the key digits' ranges
        self.n_t = grid.n_t if allow_special else 1
        self.n_m = grid.n_m if allow_special else 1
        self.S_m = grid.n_v
        self.S_t = self.n_m * self.S_m
        self.S_p = self.n_t * self.S_t
        self.S_l = (self.P + 1) * self.S_p
        # int32 keys halve the kept expansions and the gathers' traffic
        n_keys = (self.L + 1) * self.S_l
        self.key_dtype = np.int32 if n_keys <= np.iinfo(np.int32).max else np.int64

        self.cumU = chain._cum_u
        self.cumW = chain._cum_w
        self.cumA = chain._cum_a_in
        self.act = chain._act

        # per-level static candidate rows, index j = l - k (k descending);
        # pure functions of (chain, beta, strides), so a warm workspace may
        # share one dict across probes, searches, instances and both modes
        self._rows: dict[tuple, tuple] = {} if rows_cache is None else rows_cache
        # discovery's expansions, carried into reduce() while they fit
        self._fwd: dict[int, tuple] = {}
        self._fwd_bytes = 0
        self.forwarded = 0

        # per-level solved state: packed keys (sorted), values, decisions
        self.level_keys: list[np.ndarray | None] = [None] * (self.L + 1)
        self.level_vals: list[np.ndarray | None] = [None] * (self.L + 1)
        self.level_k: list[np.ndarray | None] = [None] * (self.L + 1)
        self.level_spec: list[np.ndarray | None] = [None] * (self.L + 1)
        self.level_child: list[np.ndarray | None] = [None] * (self.L + 1)

        self.states = 0
        self.pruned_cap = 0
        self.pruned_mem = 0

    # -- static per-level data ---------------------------------------------

    def _static_rows(self, l: int) -> tuple:
        """Candidate-stage constants for level ``l``: arrays over the cut
        layer ``k = l … 1`` (index ``j = l − k``).  Keyed by the stride
        layout too: ``kb`` holds packed keys."""
        rows = self._rows.get((l, self.S_l))
        if rows is not None:
            return rows
        # cumU[k-1], cumW[k-1], cumA[k-1] for k = l..1  →  reversed prefixes
        U = self.cumU[l] - self.cumU[l - 1 :: -1]
        dw3 = 3.0 * (self.cumW[l] - self.cumW[l - 1 :: -1])
        da = self.cumA[l] - self.cumA[l - 1 :: -1]
        a_in = self.act[: l][::-1].copy()  # a^{(k-1)}, zeroed at k == 1
        a_in[l - 1] = 0.0
        comm = 2.0 * a_in / self.beta
        b1 = 2.0 * a_in  # first-boundary buffers (k > 1 only)
        b2 = 2.0 * self.act[l] if l < self.L else 0.0
        local_n = np.maximum(U, comm)
        kb = np.arange(l - 1, -1, -1, dtype=self.key_dtype) * self.S_l  # (k-1)·S_l
        rows = (U, dw3, da, comm, b1, b2, local_n, kb)
        self._rows[(l, self.S_l)] = rows
        return rows

    # -- level expansion ----------------------------------------------------

    def _tables(self, l: int) -> tuple:
        """Per-probe grid tables for level ``l`` (see the module docstring):
        one row per grid digit value, one column per ``k = l … l − c + 1``,
        where ``c ≥ 1`` is one past the last column under the period cap
        (no candidate beyond it survives: ``t_P + U ≥ U``).

        Returns ``(cap_n, ok_n, kn, spec)``: the normal cap mask ``(c,)``;
        over ``iv``, the normal validity mask and ``(k−1)·S_l + iv2``; and
        ``spec`` (``None`` without the special processor) = ``(cap_s, kt,
        local_s, ok_s, kmv)`` — over ``it``, the cap mask, ``(k−1)·S_l +
        it2·S_t`` and ``max(t_P + U, C)``; over ``imv = im·S_m + iv``, the
        memory mask and ``im2·S_m + iv2``.
        """
        U, dw3, da, comm, b1, b2, _, kb = self._static_rows(l)
        That, cap, M = self.That, self.cap, self.M
        cap_n = U < cap  # also subsumes the naive loop's break condition
        c = _end(cap_n)
        U, dw3, da, comm, b1, kb, cap_n = (
            U[:c], dw3[:c], da[:c], comm[:c], b1[:c], kb[:c], cap_n[:c]
        )
        V = np.arange(self.S_m, dtype=np.int64) * self.v_step

        VU = V[:, None] + U[None, :]
        cVU = np.ceil(VU / That - 1e-9)
        g = np.maximum(cVU, 1.0)
        mem_g = dw3 + g * da
        mem_g += b1
        mem_g += b2

        # V2 = (V ⊕ U(k,l)) ⊕ C(k-1), elementwise group rounding
        cV = np.ceil(V / That - 1e-9)
        r1 = np.where(cV[:, None] == cVU, VU, That * cV[:, None] + U[None, :])
        cr1 = np.ceil(r1 / That - 1e-9)
        V2 = np.where(
            cr1 == np.ceil((r1 + comm) / That - 1e-9), r1 + comm, That * cr1 + comm
        )
        iv2 = np.minimum(np.ceil(V2 / self.v_step - 1e-9), self.iv_top)
        iv2 = iv2.astype(self.key_dtype)

        # normal processor: child (k-1, p-1, it, im, iv2)
        ok_n = cap_n & (mem_g <= M + _EPS)
        kn = kb + iv2
        if not self.allow_special:
            return cap_n, ok_n, kn, None

        # special processor: child (k-1, p, it2, im2, iv2)
        mem_gm1 = dw3 + (g - 1.0) * da
        mem_gm1 += b1
        mem_gm1 += b2
        t_P = np.arange(self.n_t, dtype=np.int64) * self.t_step
        t2 = t_P[:, None] + U[None, :]
        cap_s = t2 < cap
        it2 = np.minimum(np.ceil(t2 / self.t_step - 1e-9), self.it_top)
        kt = kb + it2.astype(self.key_dtype) * self.S_t
        local_s = np.maximum(t2, comm)
        m_P = np.arange(self.n_m, dtype=np.int64) * self.m_step
        m2 = m_P[:, None, None] + mem_gm1[None, :, :]  # (im, iv, k)
        ok_s = (m2 <= M + _EPS).reshape(self.S_t, c)
        im2 = np.minimum(np.ceil(m2 / self.m_step - 1e-9), self.im_top)
        kmv = (im2.astype(self.key_dtype) * self.S_m + iv2[None, :, :]).reshape(self.S_t, c)
        return cap_n, ok_n, kn, (cap_s, kt, local_s, ok_s, kmv)

    def _expand(self, l: int, keys: np.ndarray, count: bool = False) -> tuple:
        """Candidate generation for all ``p ≥ 1`` states of one level:
        validity masks and packed child keys shaped ``(n_states, J)``,
        ``k`` descending along axis 1, gathered row-wise from
        :meth:`_tables` by each state's grid digits.  Columns stop at the
        last ``k`` some table row admits (under the cap and in memory;
        ``J ≥ 1``): every candidate past it is invalid for every state.

        Returns ``(valid_n, child_n, valid_s, child_s, local_s)``; the
        special-processor entries are ``None`` when it is disabled, and
        ``local_s`` is its ``(n_t, J)`` table, gathered by ``it`` only
        where the values are needed.

        ``count=True`` accumulates the pruning counters over all ``l``
        columns, one per rejected ``(state, k, processor)`` candidate
        (only the discovery pass counts).
        """
        cap_n, ok_n, kn, spec = self._tables(l)
        iv = keys % self.S_m
        admit = ok_n.any(axis=0)
        if spec is not None:
            cap_s, kt, local_s, ok_s, kmv = spec
            it = (keys // self.S_t) % self.n_t
            admit |= cap_s.any(axis=0) & ok_s.any(axis=0)
        J = _end(admit)
        if count:
            n_cap = int(np.count_nonzero(cap_n))
            self.pruned_cap += len(keys) * (l - n_cap)
            hist_v = np.bincount(iv, minlength=self.S_m)
            self.pruned_mem += int(hist_v @ (n_cap - ok_n.sum(axis=1)))
            if spec is not None:
                n_cap_s = cap_s.sum(axis=1)
                hist_t = np.bincount(it, minlength=self.n_t)
                self.pruned_cap += int(hist_t @ (l - n_cap_s))
                self.pruned_mem += int(hist_t @ n_cap_s)
        low = keys % self.S_l  # p·S_p + it·S_t + im·S_m + iv

        # ndarray.take: ~15% faster than fancy indexing for these gathers
        valid_n = ok_n[:, :J].take(iv, axis=0)
        child_n = kn[:, :J].take(iv, axis=0)
        child_n += (low - iv - self.S_p)[:, None]  # + (p-1)·S_p + it·S_t + im·S_m
        if spec is None:
            return valid_n, child_n, None, None, None

        imv = keys % self.S_t
        valid_s = cap_s[:, :J].take(it, axis=0)
        valid_s &= ok_s[:, :J].take(imv, axis=0)
        child_s = kt[:, :J].take(it, axis=0)
        child_s += kmv[:, :J].take(imv, axis=0)
        child_s += (low - keys % self.S_p)[:, None]  # + p·S_p
        if count:
            self.pruned_mem -= int(np.count_nonzero(valid_s))
        return valid_n, child_n, valid_s, child_s, local_s[:, :J]

    def _base_p0(self, l: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values of the ``p == 0`` states of one level: all remaining
        layers become one stage on the special processor (none closes
        without it)."""
        if not self.allow_special:
            return np.full(len(keys), INF), np.zeros(len(keys), dtype=bool)
        V = (keys % self.S_m) * self.v_step
        t_P = ((keys // self.S_t) % self.n_t) * self.t_step
        m_P = ((keys // self.S_m) % self.n_m) * self.m_step
        U_1l = float(self.cumU[l])
        g = np.maximum(np.ceil((V + U_1l) / self.That - 1e-9), 1.0)
        m = 3.0 * float(self.cumW[l]) + (g - 1.0) * float(self.cumA[l])
        if l < self.L:
            m = m + 2.0 * float(self.act[l])
        feasible = m_P + m <= self.M + _EPS
        vals = np.where(feasible, U_1l + t_P, INF)
        return vals, feasible

    # -- passes -------------------------------------------------------------

    def discover(self, root: int) -> bool:
        """Downward sweep: compute the reachable state set of every level;
        return whether a terminal state is reachable.

        Reachability lives in one flat bitmap over the packed key space:
        valid child matrices are scattered wholesale (``seen[kids] =
        True`` dedups for free), and each level's sorted key array is a
        single ``flatnonzero`` over its segment of the bitmap — levels
        are processed in descending ``l``, so every parent has been
        expanded by the time a segment is read.

        Each level's expansion is kept for :meth:`reduce` while the kept
        arrays fit in ``_FORWARD_BUDGET`` bytes.  A terminal is a level-0
        child or a ``p == 0`` state that closes the chain; T(root) is
        finite exactly when one is reachable.
        """
        S_l = self.S_l
        seen = np.zeros((self.L + 1) * S_l, dtype=bool)
        seen[root] = True
        for l in range(self.L, 0, -1):
            keys = np.flatnonzero(seen[l * S_l : (l + 1) * S_l])
            if not len(keys):
                self.level_keys[l] = np.empty(0, dtype=np.int64)
                continue
            keys = keys + l * S_l  # sorted, deduped by construction
            self.level_keys[l] = keys
            self.states += len(keys)
            p = (keys // self.S_p) % (self.P + 1)
            keys_b = keys[p >= 1]
            if not len(keys_b):
                continue
            exp = self._expand(l, keys_b.astype(self.key_dtype), count=True)
            nbytes = sum(a.nbytes for a in exp if a is not None)
            if self._fwd_bytes + nbytes <= _FORWARD_BUDGET:
                self._fwd[l] = exp
                self._fwd_bytes += nbytes
            valid_n, child_n, valid_s, child_s, _ = exp
            # level-0 children land in the bitmap too, but their segment
            # is only read to find a terminal (T(0, ·) is closed-form in reduce())
            seen[child_n[valid_n]] = True
            if valid_s is not None:
                seen[child_s[valid_s]] = True
        return bool(seen[:S_l].any()) or self._closes()

    def _closes(self) -> bool:
        """Does some reachable ``p == 0`` state close the chain?  None
        can without the special processor."""
        if not self.allow_special:
            return False
        for l in range(1, self.L + 1):
            keys = self.level_keys[l]
            keys0 = keys[(keys // self.S_p) % (self.P + 1) == 0]
            if len(keys0) and self._base_p0(l, keys0)[1].any():
                return True
        return False

    def reduce(self) -> None:
        """Upward sweep: solve every reachable level bottom-up.

        Child values are gathered by direct indexing into a dense value
        table over the packed key space.  ``np.empty`` is safe: level 0
        is prefilled closed-form, every other child a level references
        was scattered during discovery (the expansion is deterministic,
        so a level re-expanded here gets discovery's validity masks), and
        lower levels are written before higher levels read them.
        """
        S_l, S_t, n_t = self.S_l, self.S_t, self.n_t
        dense = np.empty((self.L + 1) * S_l, dtype=float)
        # T(0, p, it, im, iv) = it · t_step — closing the chain leaves
        # only the special-processor load (same formula for every p/im/iv)
        dense[:S_l] = ((np.arange(S_l) // S_t) % n_t) * self.t_step
        for l in range(1, self.L + 1):
            keys = self.level_keys[l]
            if keys is None or not len(keys):
                self.level_keys[l] = np.empty(0, dtype=np.int64)
                self.level_vals[l] = np.empty(0, dtype=float)
                self.level_k[l] = np.empty(0, dtype=np.int64)
                self.level_spec[l] = np.empty(0, dtype=bool)
                self.level_child[l] = np.empty(0, dtype=np.int64)
                continue
            n = len(keys)
            vals = np.empty(n, dtype=float)
            best_k = np.full(n, _NO_DEC, dtype=np.int64)
            best_spec = np.zeros(n, dtype=bool)
            best_child = np.full(n, _NO_CHILD, dtype=np.int64)

            p = (keys // self.S_p) % (self.P + 1)
            mask0 = p == 0
            if mask0.any():
                v0, feas0 = self._base_p0(l, keys[mask0])
                vals[mask0] = v0
                idx0 = np.flatnonzero(mask0)
                best_k[idx0[feas0]] = 1
                best_spec[idx0[feas0]] = True
            maskB = ~mask0
            if maskB.any():
                keys_b = keys[maskB]
                exp = self._fwd.pop(l, None)
                if exp is None:
                    exp = self._expand(l, keys_b.astype(self.key_dtype))
                else:
                    self.forwarded += 1
                valid_n, child_n, valid_s, child_s, local_s = exp
                rows = np.arange(len(keys_b))
                local_n = self._static_rows(l)[6][: valid_n.shape[1]]
                cand = np.where(
                    valid_n, np.maximum(local_n[None, :], dense.take(child_n)), INF
                )
                best = cand
                if valid_s is not None:
                    local_s = local_s.take((keys_b // S_t) % n_t, axis=0)
                    cand_s = np.where(valid_s, np.maximum(local_s, dense.take(child_s)), INF)
                    # naive scan order: k desc, normal before special — its
                    # first minimum is the first minimum over k of
                    # min(normal, special), normal winning ties
                    best = np.minimum(cand, cand_s)
                jk = np.argmin(best, axis=1)
                bv = best[rows, jk]
                spec = cand[rows, jk] > bv
                child = child_n[rows, jk]
                if spec.any():
                    child[spec] = child_s[rows[spec], jk[spec]]
                vals[maskB] = bv
                idxB = np.flatnonzero(maskB)
                ok = bv < INF
                best_k[idxB[ok]] = (l - jk)[ok]
                best_spec[idxB[ok]] = spec[ok]
                best_child[idxB[ok]] = child[ok]

            self.level_vals[l] = vals
            self.level_k[l] = best_k
            self.level_spec[l] = best_spec
            self.level_child[l] = best_child
            dense[keys] = vals

    def solve(self, root: int) -> tuple[float, list[Stage], list[bool]]:
        if not self.discover(root):  # no terminal reachable: T(root) = ∞
            return INF, [], []
        self.reduce()
        S_l = self.S_l
        stages: list[Stage] = []
        special: list[bool] = []
        key = root
        period = INF
        first = True
        while True:
            l = int(key // S_l)
            if l == 0:
                break
            keys = self.level_keys[l]
            i = int(np.searchsorted(keys, key))
            if first:
                period = float(self.level_vals[l][i])
                first = False
                if period == INF:
                    break
            k = int(self.level_k[l][i])
            if k == _NO_DEC:
                break
            stages.append(Stage(k, l))
            special.append(bool(self.level_spec[l][i]))
            child = int(self.level_child[l][i])
            if child == _NO_CHILD:
                break
            key = child
        stages.reverse()
        special.reverse()
        return period, stages, special


def madpipe_dp(
    chain: Chain,
    platform: Platform,
    target: float,
    *,
    grid: Discretization | None = None,
    period_cap: float = INF,
    allow_special: bool = True,
    memory_headroom: float = 0.0,
    workspace: dict | None = None,
) -> MadPipeDPResult:
    """Evaluate ``MadPipe-DP(T̂)`` (§4.2.2).

    ``period_cap`` prunes candidate stages that cannot beat an incumbent
    period (the cap must over-estimate the optimum; ``inf`` disables).
    ``allow_special=False`` restricts the DP to contiguous allocations
    (ablation: memory-aware PipeDream).  ``memory_headroom`` reserves a
    fraction of each GPU (see
    :func:`repro.core.memory.effective_capacity`): the DP's memory masks
    and its memory grid both use the derated capacity, so phase 1 only
    proposes allocations that leave the requested margin.

    ``workspace`` (warm starts) shares the per-level candidate-stage
    constants across evaluations of the same (chain, P, β, grid), in
    either mode; the levels whose expansion the value sweep reuses are
    then counted as ``warm.dp_reuse``.  The result is bit-identical
    either way (exact reuse of deterministic intermediates; golden tests
    enforce it).
    """
    if target <= 0:
        raise ValueError("target period must be positive")
    grid = grid or Discretization.default()
    t0 = time.perf_counter()
    dp = _LevelDP(
        chain, platform.with_headroom(memory_headroom), target, grid,
        period_cap, allow_special,
        rows_cache=workspace,
    )
    # P-1 normal processors plus the special one; without the special
    # processor all P processors are normal.
    p0 = platform.n_procs - 1 if allow_special else platform.n_procs
    root = chain.L * dp.S_l + p0 * dp.S_p
    period, stages, special = dp.solve(root)
    wall = time.perf_counter() - t0
    if workspace is not None and dp.forwarded:
        obs.inc("warm.dp_reuse", dp.forwarded)
    if period == INF:
        return MadPipeDPResult(
            target,
            INF,
            None,
            states=dp.states,
            wall_time_s=wall,
            pruned_cap=dp.pruned_cap,
            pruned_mem=dp.pruned_mem,
        )
    return MadPipeDPResult(
        target,
        period,
        DPAllocation(tuple(stages), tuple(special)),
        states=dp.states,
        wall_time_s=wall,
        pruned_cap=dp.pruned_cap,
        pruned_mem=dp.pruned_mem,
    )


@dataclass
class Algorithm1Result:
    """Outcome of the T̂ binary search (phase 1 of MadPipe)."""

    period: float  # best max(T_i, T̂_i)
    target: float  # the T̂ achieving it
    allocation: DPAllocation | None
    history: list[tuple[float, float]] = field(default_factory=list)  # (T̂_i, T_i)
    states: int = 0  # reachable DP states, summed over probes
    wall_time_s: float = 0.0  # total phase-1 wall time
    pruned_cap: int = 0  # cap-pruned candidates, summed over probes
    pruned_mem: int = 0  # memory-pruned candidates, summed over probes

    @property
    def feasible(self) -> bool:
        return self.allocation is not None


def algorithm1(
    chain: Chain,
    platform: Platform,
    *,
    iterations: int = 10,
    grid: Discretization | None = None,
    allow_special: bool = True,
    memory_headroom: float = 0.0,
    dp=None,
) -> Algorithm1Result:
    """Algorithm 1: modified binary search over the target period T̂.

    For each probe, ``min(T, T̂)`` is a lower bound of the optimal
    ``T̂*`` and ``max(T, T̂)`` an upper bound; the next probe bisects.

    ``dp`` swaps the ``MadPipe-DP(T̂)`` evaluator (same signature and
    result type as :func:`madpipe_dp`) — used by the golden tests and
    benchmarks to drive the search with the reference implementation.
    A nonzero ``memory_headroom`` is forwarded to the evaluator (the
    kwarg is omitted at zero so headroom-unaware evaluators keep
    working).

    Under an active warm-start context (:mod:`repro.warmstart`) and the
    default evaluator, the whole search is memoized by exact instance
    key — MadPipe re-runs the identical contiguous search for its
    fallback and certification paths, and sweeps repeat searches across
    retries — and probes share the context's per-level DP workspace.
    Both reuse paths return bit-identical results to a cold search.
    """
    dp = dp or madpipe_dp
    dp_opts = {"memory_headroom": memory_headroom} if memory_headroom else {}
    warm = active_warm() if dp is madpipe_dp else None
    memo_key = None
    if warm is not None:
        g = grid or Discretization.default()
        fp = chain_fingerprint(chain)
        memo_key = (
            fp, platform.n_procs, platform.memory, platform.bandwidth,
            iterations, (g.n_t, g.n_m, g.n_v), allow_special,
            memory_headroom,
        )
        hit = warm.phase1.hit(memo_key)
        if hit is not None:
            obs.inc("warm.dp_reuse")
            obs.inc("warm.probes_saved", len(hit.history))
            return hit
        dp_opts["workspace"] = warm.dp_workspace(
            (fp, platform.n_procs, platform.bandwidth, g.n_t, g.n_m, g.n_v)
        )
    t0 = time.perf_counter()
    lb = chain.total_compute() / platform.n_procs
    ub = chain.total_compute() + chain.total_comm(platform.bandwidth)
    That = lb
    best = Algorithm1Result(INF, That, None)
    with obs.span(
        "madpipe.algorithm1", iterations=iterations, allow_special=allow_special
    ) as search_span:
        for _ in range(iterations):
            with obs.span("madpipe.dp", target=That) as probe_span:
                res = dp(
                    chain,
                    platform,
                    That,
                    grid=grid,
                    period_cap=min(best.period, ub * (1 + 1e-9))
                    if best.feasible
                    else INF,
                    allow_special=allow_special,
                    **dp_opts,
                )
                probe_span.set(
                    period=res.dp_period if res.dp_period != INF else None,
                    states=res.states,
                    pruned_cap=res.pruned_cap,
                    pruned_mem=res.pruned_mem,
                    feasible=res.feasible,
                )
            T = res.dp_period
            best.history.append((That, T))
            best.states += res.states
            best.pruned_cap += res.pruned_cap
            best.pruned_mem += res.pruned_mem
            if res.feasible and res.effective_period < best.period:
                best.period = res.effective_period
                best.target = That
                best.allocation = res.allocation
            lb = max(lb, min(T, That))
            ub = min(ub, max(T, That))
            if ub <= lb * (1 + 1e-9):
                That = ub
            else:
                That = (lb + ub) / 2
        search_span.set(
            period=best.period if best.period != INF else None,
            target=best.target,
            states=best.states,
            feasible=best.feasible,
        )
    best.wall_time_s = time.perf_counter() - t0
    obs.inc("dp.searches")
    obs.inc("dp.probes", len(best.history))
    obs.inc("dp.states", best.states)
    obs.inc("dp.pruned_cap", best.pruned_cap)
    obs.inc("dp.pruned_mem", best.pruned_mem)
    obs.inc("dp.wall_s", best.wall_time_s)
    if memo_key is not None:
        warm.phase1.put(memo_key, best)
    return best
