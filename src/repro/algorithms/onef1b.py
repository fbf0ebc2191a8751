"""1F1B\\* — optimal periodic pattern for a contiguous allocation (paper §4.1).

Given a contiguous partitioning and a feasible period ``T``, the algorithm
builds the pattern using the fewest active batches on every GPU among all
valid periodic patterns (Proposition 1):

1. communications are turned into pseudo-layers of duration
   ``C(l) = 2 a_l/β`` (forward half ``a_l/β``, backward half ``a_l/β``),
   giving at most ``2P − 1`` *items* on as many resources;
2. items are grouped from the back: a group absorbs preceding items while
   its total load stays ≤ ``T``;
3. each group is scheduled as a "V": forwards in chain order back-to-back,
   then backwards in reverse order back-to-back; groups are connected at
   the forward chain, and starting times ≥ ``T`` wrap (shift += 1).

A stage in group ``g`` stores exactly ``g`` activation copies, so the
minimal feasible period of a partitioning is the smallest ``T`` (at least
the bottleneck load) whose induced groups fit in memory everywhere.

The minimal-period search is the inner loop of every contiguous planner
(``pipedream``, ``best_contiguous``, MadPipe's contiguous fallback), so it
is implemented as a NumPy kernel: candidate periods come from prefix-sum
range sums, group assignment runs batched across *all* candidates at once,
and per-processor memory is evaluated vectorized from the chain's cached
prefix arrays.  The original pure-Python implementation is preserved in
:mod:`repro.algorithms.onef1b_reference` and golden tests pin the kernel
to it bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.chain import Chain
from ..obs.metrics import active_metrics
from ..obs.trace import active_trace
from ..core.partition import Allocation, Partitioning
from ..core.pattern import Op, PeriodicPattern, gpu, link
from ..core.platform import Platform
from ..warmstart import active_warm, chain_fingerprint

__all__ = [
    "GROUP_FIT_RTOL",
    "CANDIDATE_ATOL",
    "MEMORY_FIT_RTOL",
    "Item",
    "extended_items",
    "assign_groups",
    "assign_groups_kernel",
    "build_pattern",
    "min_feasible_period",
    "OneF1BResult",
]

# Feasibility tolerances, shared by the NumPy kernel and the reference
# implementation (onef1b_reference) so both make bit-identical decisions.
#: Relative slack when packing items into a group: a group fits in ``T``
#: when its load is ≤ ``T·(1 + GROUP_FIT_RTOL)``.
GROUP_FIT_RTOL = 1e-12
#: Absolute slack when generating candidate periods: a range sum counts as
#: a candidate when it is ≥ ``lower − CANDIDATE_ATOL``.
CANDIDATE_ATOL = 1e-15
#: Relative slack of the per-GPU memory check: a schedule fits when every
#: processor uses ≤ ``capacity·(1 + MEMORY_FIT_RTOL)`` bytes.
MEMORY_FIT_RTOL = 1e-9


@dataclass(frozen=True)
class Item:
    """One resource of the transformed chain: a compute stage or a
    communication boundary."""

    kind: str  # "stage" or "comm"
    index: int  # stage index, or boundary index (cut after stage `index`)
    u_f: float
    u_b: float

    @property
    def load(self) -> float:
        return self.u_f + self.u_b


def extended_items(
    chain: Chain, platform: Platform, allocation: Allocation
) -> list[Item]:
    """The ≤ 2N−1 items of the transformed chain (stages ∪ cut boundaries)."""
    items: list[Item] = []
    stages = allocation.stages
    for i, stage in enumerate(stages):
        items.append(
            Item("stage", i, stage.forward(chain), stage.backward(chain))
        )
        if i < len(stages) - 1 and allocation.procs[i] != allocation.procs[i + 1]:
            half = chain.activation(stage.end) / platform.bandwidth
            items.append(Item("comm", i, half, half))
    return items


def assign_groups_kernel(loads: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """Batched greedy grouping: group index per item for *every* period.

    ``loads`` has shape ``(n,)``; ``periods`` shape ``(m,)``.  Returns an
    ``(m, n)`` int array where row ``c`` equals the reference
    ``assign_groups(items, periods[c])``.  The scan walks the items once,
    back to front, carrying the per-period accumulator and group counter as
    vectors — each period's accumulation performs the exact float additions
    of the scalar loop, so rows are bit-identical to the reference.

    Raises ``ValueError`` when any single load exceeds the smallest
    period's threshold (the reference raises on that period too).
    """
    loads = np.asarray(loads, dtype=float)
    periods = np.atleast_1d(np.asarray(periods, dtype=float))
    n, m = loads.size, periods.size
    out = np.empty((m, n), dtype=np.int64)
    if n == 0:
        return out
    thresh = periods * (1 + GROUP_FIT_RTOL)
    if loads.max() > thresh.min():
        raise ValueError(
            f"item load {loads.max():.4g} exceeds period {periods.min():.4g}"
        )
    g = np.ones(m, dtype=np.int64)
    acc = np.zeros(m)
    for i in range(n - 1, -1, -1):
        # grown = acc + load is both the overflow test and (when it fits)
        # the new accumulator — exactly the scalar loop's additions
        grown = acc + loads[i]
        over = grown > thresh
        g += over
        acc = np.where(over, loads[i], grown)
        out[:, i] = g
    return out


def assign_groups(items: list[Item], period: float) -> list[int]:
    """Group index (1 = last group, as in the paper) per item.

    Built iteratively from the last item; a group absorbs earlier items
    while its total load stays ≤ ``period``.  Any single item with load
    > ``period`` makes the period infeasible (ValueError).
    """
    if not items:
        return []
    loads = np.fromiter((it.load for it in items), dtype=float, count=len(items))
    thresh = period * (1 + GROUP_FIT_RTOL)
    if loads.max() > thresh:
        # the backward scan of the reference hits the highest-index
        # oversized item first — report that one
        i = int(np.nonzero(loads > thresh)[0].max())
        raise ValueError(
            f"item {items[i].kind}{items[i].index} load {loads[i]:.4g} "
            f"exceeds period {period:.4g}"
        )
    row = assign_groups_kernel(loads, np.array([period]))[0]
    return [int(g) for g in row]


def build_pattern(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    period: float,
) -> PeriodicPattern:
    """Construct the 1F1B\\* pattern for a contiguous allocation.

    Raises ``ValueError`` when the period is below the bottleneck load.
    The caller is responsible for checking memory feasibility (see
    :func:`min_feasible_period`).
    """
    if not allocation.is_contiguous():
        raise ValueError("1F1B* requires a contiguous allocation")
    items = extended_items(chain, platform, allocation)
    groups = assign_groups(items, period)
    procs = allocation.procs

    def backward(pattern: PeriodicPattern, item: Item, t: float, shift: int) -> float:
        kind = "B" if item.kind == "stage" else "CB"
        pattern.add(Op(kind, item.index, _resource(item, procs), t, item.u_b, shift))
        return item.u_b

    return _lay_out_vs(allocation, period, items, groups, backward)


def _lay_out_vs(allocation: Allocation, period: float, items: list[Item],
                groups: list[int], backward) -> PeriodicPattern:
    """The pattern that schedules each group of ``items`` as a "V" (both
    contiguous families): forwards in chain order back-to-back, then
    backwards in reverse order at shift ``g − 1``; the next group's
    forwards connect right after this group's last forward.
    ``backward(pattern, item, t, shift)`` adds the item's backward op(s)
    starting at ``t`` and returns how far they advance the backward chain.
    """
    pattern = PeriodicPattern(allocation=allocation, period=period)
    procs = allocation.procs
    t = 0.0
    # walk groups from the front of the chain (largest group number first)
    i = 0
    while i < len(items):
        g = groups[i]
        j = i
        while j < len(items) and groups[j] == g:
            j += 1
        tf = t
        for item in items[i:j]:
            kind = "F" if item.kind == "stage" else "CF"
            pattern.add(
                Op(kind, item.index, _resource(item, procs), tf, item.u_f, 0)
            )
            tf += item.u_f
        tb = tf
        for item in reversed(items[i:j]):
            tb += backward(pattern, item, tb, g - 1)
        t = tf
        i = j
    pattern.normalize()
    return pattern


def _resource(item: Item, procs: tuple[int, ...]) -> tuple:
    if item.kind == "stage":
        return gpu(procs[item.index])
    return link(procs[item.index], procs[item.index + 1])


# small per-size cache for the hot enumeration loops (best_contiguous
# calls min_feasible_period thousands of times on tiny item counts)
_TRI_CACHE: dict[int, np.ndarray] = {}


def _upper_triangle(n: int) -> np.ndarray:
    tri = _TRI_CACHE.get(n)
    if tri is None:
        tri = np.arange(n) >= np.arange(n)[:, None]
        _TRI_CACHE[n] = tri
    return tri


@dataclass
class OneF1BResult:
    """Outcome of a contiguous minimal-feasible-period search, either
    family (``zero_bubble.ZeroBubbleResult`` is this class)."""

    period: float
    pattern: PeriodicPattern | None
    groups: dict[int, int]  # stage index -> group number
    memory: dict[int, float]  # processor -> bytes used (analytic, §4.2.1)


def min_feasible_period(
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    *,
    build: bool = True,
    memory_headroom: float = 0.0,
) -> OneF1BResult | None:
    """Smallest period at which the 1F1B\\* schedule of ``partitioning``
    fits in memory on every GPU; ``None`` if no period works.

    ``memory_headroom`` derates the capacity the schedule must fit into
    (see :func:`repro.core.memory.effective_capacity`); the reported
    per-GPU ``memory`` usage is unaffected.  Instrumented and memoized by
    :func:`_period_search` under the ``onef1b`` family name.
    """
    return _period_search(
        "onef1b", _min_feasible_period, build_pattern, chain, platform, partitioning,
        build=build, memory_headroom=memory_headroom,
    )


def _period_search(
    family: str,
    kernel,
    builder,
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    *,
    build: bool,
    memory_headroom: float,
    memo_tag: tuple = (),
) -> OneF1BResult | None:
    """Run one contiguous family's uninstrumented search on the
    headroom-derated platform: ``kernel(chain, platform, partitioning)``
    returns ``(period, stage groups, per-stage memory)`` or ``None``, and
    ``builder(chain, platform, allocation, period)`` constructs the
    pattern when ``build`` is set.

    Emits a ``<family>.period_search`` span and ``<family>.searches`` /
    ``.feasible`` counters only when tracing/metrics are active (this is
    the innermost loop of every contiguous planner).  Under an active
    warm-start context the search is memoized by exact instance key — it
    is a pure deterministic map, so a hit (``warm.<family>_hits``) is
    bit-identical to recomputing; ``memo_tag`` keeps other families'
    keys apart from 1F1B\\*'s.
    """
    warm = active_warm()
    memo_key = None
    if warm is not None:
        memo_key = (
            chain_fingerprint(chain), platform.n_procs, platform.memory,
            platform.bandwidth, memory_headroom,
            tuple((s.start, s.end) for s in partitioning.stages), build,
        ) + memo_tag
        hit = warm.onef1b.hit(memo_key)
        if hit is not None:
            reg = active_metrics()
            if reg is not None:
                reg.inc(f"warm.{family}_hits")
            return hit[0]
    platform = platform.with_headroom(memory_headroom)

    def search() -> OneF1BResult | None:
        found = kernel(chain, platform, partitioning)
        if found is None:
            return None
        T, stage_groups, mem = found
        pattern = (
            builder(chain, platform, Allocation.contiguous(partitioning), T)
            if build
            else None
        )
        # Allocation.contiguous puts stage i on processor i, so per-stage
        # memory is per-processor memory
        return OneF1BResult(
            period=T,
            pattern=pattern,
            groups={i: int(g) for i, g in enumerate(stage_groups)},
            memory={i: float(m) for i, m in enumerate(mem)},
        )

    tr = active_trace()
    reg = active_metrics()
    if reg is not None:
        reg.inc(f"{family}.searches")
    if tr is None:
        res = search()
    else:
        with tr.span(
            f"{family}.period_search", n_stages=partitioning.n_stages, build=build
        ) as sp:
            res = search()
            sp.set(
                feasible=res is not None,
                period=res.period if res is not None else None,
            )
    if res is not None and reg is not None:
        reg.inc(f"{family}.feasible")
    if memo_key is not None:
        warm.onef1b.put(memo_key, (res,))
    return res


def _stage_arrays(chain: Chain, platform: Platform, partitioning: Partitioning):
    """Per-stage arrays of a contiguous partitioning, the prologue both
    families' period searches share: ``(ends, u_f, u_b, comm, w3, abar,
    buf)`` — the stage loads, ``c_f + c_b`` of the cut boundary after
    each stage but the last, and the memory terms ``3W``, ``ā`` and the
    communication buffers.  Read from the chain's cached prefix arrays
    (O(1) per stage) in the float order of ``MemoryBreakdown``.
    """
    if partitioning.n_stages > platform.n_procs:
        raise ValueError("more stages than processors")
    n_stages = partitioning.n_stages
    ends = np.fromiter(
        (s.end for s in partitioning.stages), dtype=np.int64, count=n_stages
    )
    starts = np.empty(n_stages, dtype=np.int64)
    starts[0] = 1
    starts[1:] = ends[:-1] + 1
    half = chain.activation_values(ends[:-1]) / platform.bandwidth
    buf = np.where(starts > 1, 2.0 * chain.activation_values(starts - 1), 0.0)
    buf = buf + np.where(ends < chain.L, 2.0 * chain.activation_values(ends), 0.0)
    return (
        ends,
        chain.u_f_ranges(starts, ends),
        chain.u_b_ranges(starts, ends),
        half + half,
        3.0 * chain.weight_ranges(starts, ends),
        chain.stored_activation_ranges(starts, ends),
        buf,
    )


def _min_feasible_period(chain: Chain, platform: Platform, partitioning: Partitioning):
    """The uninstrumented search; see :func:`min_feasible_period` and
    :func:`_period_search`.

    Candidate periods are the group-structure breakpoints: sums of item
    loads over contiguous item ranges (grouping only changes there), plus
    the bottleneck lower bound.  Increasing T can only merge groups, so
    memory usage is non-increasing in T and the scan stops at the first
    feasible candidate.

    Vectorized: stage loads and memory terms come from
    :func:`_stage_arrays`, candidates from one masked 2-D ``cumsum``,
    group assignment from the batched kernel across all candidates, and
    memory feasibility from one array comparison — all with float
    arithmetic identical to
    :func:`repro.algorithms.onef1b_reference.min_feasible_period_reference`.

    Two early exits bracket the batched scan, both justified by memory
    monotonicity (greedy domination: raising ``T`` can only merge groups,
    so every stage's group count — hence every GPU's memory — is
    non-increasing in ``T``): if the smallest candidate fits, it is the
    answer; if the largest does not, none does.
    """
    ends, u_f, u_b, comm, w3, abar, buf = _stage_arrays(chain, platform, partitioning)
    n_stages = ends.size

    # item loads, interleaved [stage 0, comm 0, stage 1, …, stage S−1]:
    # a contiguous allocation has a comm boundary after every stage but the
    # last, matching extended_items order
    n_items = 2 * n_stages - 1
    loads = np.empty(n_items)
    loads[0::2] = u_f + u_b
    loads[1::2] = comm
    lower = float(loads.max())

    # candidate periods: contiguous range sums ≥ lower (± atol), plus
    # lower.  Row a of the masked cumsum accumulates loads[a:] with the
    # same left-to-right additions as a scalar loop (the leading zeros are
    # exact), so sums match the reference float-for-float.  Duplicates are
    # kept (sort only): rescanning an equal period cannot change the first
    # feasible value.
    tri = _upper_triangle(n_items)
    sums = np.cumsum(np.where(tri, loads, 0.0), axis=1)
    keep = tri & (sums >= lower - CANDIDATE_ATOL)
    periods = np.sort(np.concatenate(([lower], sums[keep])))

    # The smallest candidate can sit CANDIDATE_ATOL below the bottleneck
    # load; the reference then raises out of assign_groups while scanning
    # it — replicate that exactly (larger candidates can never raise).
    thresh0 = periods[0] * (1 + GROUP_FIT_RTOL)
    if loads.max() > thresh0:
        i = int(np.nonzero(loads > thresh0)[0].max())
        kind = "stage" if i % 2 == 0 else "comm"
        raise ValueError(
            f"item {kind}{i // 2} load {loads[i]:.4g} "
            f"exceeds period {float(periods[0]):.4g}"
        )

    # memory is evaluated in the breakdown's float order:
    # (weights + activations) + buffers
    cap = platform.memory * (1 + MEMORY_FIT_RTOL)

    # scalar single-candidate probe (same IEEE-double ops as the kernel)
    loads_l, w3_l, abar_l, buf_l = (
        loads.tolist(), w3.tolist(), abar.tolist(), buf.tolist()
    )

    def probe(T: float) -> tuple[bool, list[int]]:
        thresh = T * (1 + GROUP_FIT_RTOL)
        g, acc = 1, 0.0
        gs = [0] * n_stages
        for i in range(n_items - 1, -1, -1):
            grown = acc + loads_l[i]
            if grown > thresh:
                g += 1
                acc = loads_l[i]
            else:
                acc = grown
            if i % 2 == 0:
                gs[i // 2] = g
        ok = all(
            (w3_l[i] + gs[i] * abar_l[i]) + buf_l[i] <= cap
            for i in range(n_stages)
        )
        return ok, gs

    m = periods.size
    ok, gs = probe(float(periods[0]))
    if ok:
        k, stage_groups = 0, gs
    elif m == 1:
        return None
    else:
        ok, gs = probe(float(periods[-1]))
        if not ok:
            return None  # memory is monotone in T: nothing larger helps
        k, stage_groups = m - 1, gs
        if m > 2:
            # the boundary lies strictly inside: batch the interior scan
            rows = assign_groups_kernel(loads, periods[1:-1])[:, 0::2]
            mem = (w3 + rows * abar) + buf  # (m−2, n_stages)
            hits = np.nonzero((mem <= cap).all(axis=1))[0]
            if hits.size:
                j = int(hits[0])
                k, stage_groups = 1 + j, [int(g) for g in rows[j]]

    gs_arr = np.asarray(stage_groups, dtype=np.int64)
    return float(periods[k]), stage_groups, (w3 + gs_arr * abar) + buf
