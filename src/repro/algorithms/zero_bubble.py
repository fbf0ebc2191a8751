"""Zero-bubble B–W-split periodic patterns for contiguous allocations.

The classic 1F1B\\* construction treats a stage's backward as one
monolithic op of duration ``u_b``.  Splitting it — grad-input ``B``
(duration ``d_B``, on the critical path towards earlier stages) and
grad-weight ``W`` (duration ``d_W = u_b − d_B``, no downstream
dependents) — shortens the backward chain of every group "V" from
``Σ u_b`` to ``Σ d_B``, as in the zero-bubble schedulers (ZB-H1) and
2BP.  In the periodic model this means groups merge at smaller periods:
a stage in group ``g`` stores ``g`` activation copies, so at a tight
memory budget the split family reaches a *smaller feasible period* than
1F1B\\* by trading one boundary-sized grad-input buffer per stage
(``ĝ_s = a_end``, held from B start to W completion) for a whole
activation set (``ā_s``, typically ≫ ``ĝ_s``).

Construction (the ZB-H1-style ``auto_schedule`` analogue for periodic
patterns): items (stages ∪ cut boundaries) are grouped back-to-front
greedily on the *V-load* ``u_f + d_B`` under two fit conditions — the
group's V-load total fits in ``T``, and for every stage item ``i`` the
suffix ``Σ_{k∈group, k≥i} (u_f_k + d_B_k) + d_W_i ≤ T`` so that ``W_i``
placed immediately after ``B_i`` still clears the next period's
``F_i``.  Each group schedules forwards in chain order back-to-back,
then grad-input backwards in reverse order back-to-back, with ``W_i``
directly after ``B_i`` on the same GPU at the same shift.  Validity
follows the 1F1B\\* argument (cross-group backward slack is
``T − Σ_{k∈group} (u_f_k + d_B_k) ≥ 0``); every produced pattern also
passes the full analytic validator and the discrete-event certification
gate downstream.

The minimal-period search runs through the same instrumented, memoized
wrapper and per-stage array prologue as :func:`repro.algorithms.onef1b.
min_feasible_period`, and its result is the same record
(``ZeroBubbleResult`` is ``OneF1BResult``).  Candidate periods are the
greedy grouping's breakpoints — contiguous V-load range sums ``S(a, b)`` plus
``S(a, b) + d_W_a`` for stage-anchored ranges — and per-GPU memory
``(3W + g·ā) + buffers + ĝ`` is non-increasing in ``T``, so a binary
search over the sorted candidates finds the first feasible one.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..core.chain import Chain
from ..core.partition import Allocation, Partitioning
from ..core.pattern import B, CB, Op, PeriodicPattern, W, gpu, split_backward
from ..core.platform import Platform
from .onef1b import (
    GROUP_FIT_RTOL,
    MEMORY_FIT_RTOL,
    OneF1BResult,
    _lay_out_vs,
    _period_search,
    _resource,
    _stage_arrays,
    _upper_triangle,
    extended_items,
)

__all__ = [
    "SPLIT_FRACTION",
    "ZeroBubbleResult",
    "assign_groups_zb",
    "build_pattern_zb",
    "min_feasible_period_zb",
]

#: Default grad-input share of the backward: ``d_B = 0.5·u_b`` (the 2BP
#: measurement — grad-input and grad-weight costs are roughly equal).
SPLIT_FRACTION = 0.5


def assign_groups_zb(
    v_loads: list[float], d_ws: list[float], period: float
) -> list[int]:
    """Group index (1 = last group) per item, back-to-front greedy.

    A group absorbs earlier items while (a) its total V-load stays
    ≤ ``period`` and (b) for the item being added, the group's current
    V-load suffix plus the item's grad-weight tail stays ≤ ``period``
    (condition (b) is what lets ``W_i`` run right after ``B_i`` without
    colliding with the next period's ``F_i``).  A single item violating
    both as a singleton makes the period infeasible (``ValueError``).
    """
    n = len(v_loads)
    thresh = period * (1 + GROUP_FIT_RTOL)
    groups = [0] * n
    g, acc = 1, 0.0
    for i in range(n - 1, -1, -1):
        grown = acc + v_loads[i]
        if grown > thresh or grown + d_ws[i] > thresh:
            g += 1
            acc = v_loads[i]
            if acc > thresh or acc + d_ws[i] > thresh:
                raise ValueError(
                    f"item {i} load {acc + d_ws[i]:.4g} exceeds period {period:.4g}"
                )
        else:
            acc = grown
        groups[i] = g
    return groups


def build_pattern_zb(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    period: float,
    *,
    split_fraction: float = SPLIT_FRACTION,
) -> PeriodicPattern:
    """Construct the zero-bubble split-backward pattern for a contiguous
    allocation at ``period``.

    Raises ``ValueError`` when the period is below the bottleneck load.
    The caller is responsible for memory feasibility (see
    :func:`min_feasible_period_zb`).
    """
    if not allocation.is_contiguous():
        raise ValueError("zero-bubble construction requires a contiguous allocation")
    items = extended_items(chain, platform, allocation)
    # (d_B, d_W) per item: a comm boundary's whole backward is on the V
    splits = [
        split_backward(it.u_b, split_fraction) if it.kind == "stage" else (it.u_b, 0.0)
        for it in items
    ]
    groups = assign_groups_zb(
        [it.u_f + d_b for it, (d_b, _) in zip(items, splits)],
        [d_w for _, d_w in splits],
        period,
    )
    procs = allocation.procs

    def backward(pattern: PeriodicPattern, item, t: float, shift: int) -> float:
        # grad-input backwards run the V; each stage's grad-weight op
        # follows its B on the same GPU
        if item.kind != "stage":
            pattern.add(Op(CB, item.index, _resource(item, procs), t, item.u_b, shift))
            return item.u_b
        d_b, d_w = split_backward(item.u_b, split_fraction)
        res = gpu(procs[item.index])
        pattern.add(Op(B, item.index, res, t, d_b, shift))
        pattern.add(Op(W, item.index, res, t + d_b, d_w, shift))
        return d_b

    return _lay_out_vs(allocation, period, items, groups, backward)


#: The zero-bubble search returns the same four fields as 1F1B\\*'s.
ZeroBubbleResult = OneF1BResult


def min_feasible_period_zb(
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    *,
    build: bool = True,
    memory_headroom: float = 0.0,
    split_fraction: float = SPLIT_FRACTION,
) -> ZeroBubbleResult | None:
    """Smallest period at which the zero-bubble split-backward schedule of
    ``partitioning`` fits in memory on every GPU; ``None`` if none works.

    Shares :func:`repro.algorithms.onef1b.min_feasible_period`'s
    instrumented, memoized wrapper under the ``zero_bubble`` family name
    (``zero_bubble.*`` span and counters, family-tagged memo keys).
    """
    return _period_search(
        "zero_bubble",
        partial(_min_feasible_period_zb, split_fraction=split_fraction),
        partial(build_pattern_zb, split_fraction=split_fraction),
        chain, platform, partitioning,
        build=build, memory_headroom=memory_headroom,
        memo_tag=("zb", split_fraction),
    )


def _min_feasible_period_zb(
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    *,
    split_fraction: float,
):
    """The uninstrumented search; see :func:`min_feasible_period_zb`.

    Candidate periods are the grouping breakpoints: contiguous V-load
    range sums ``S(a, b)`` (group-extent conditions flip there) plus
    ``S(a, b) + d_W_a`` for stage-anchored ranges (the suffix-W
    conditions flip there), floored at the bottleneck lower bound
    ``max(u_f + u_b, c_f + c_b)``.  Larger ``T`` relaxes both greedy
    acceptance conditions, so groupings are nested and per-GPU memory is
    non-increasing in ``T`` — a binary search over the sorted candidates
    finds the smallest feasible one.
    """
    ends, u_f, u_b, comm, w3, abar, buf = _stage_arrays(chain, platform, partitioning)
    n_stages = ends.size

    # item arrays, interleaved [stage 0, comm 0, stage 1, …, stage S−1]
    n_items = 2 * n_stages - 1
    d_b_stage = split_fraction * u_b
    v = np.empty(n_items)
    v[0::2] = u_f + d_b_stage
    v[1::2] = comm
    d_w = np.zeros(n_items)
    d_w[0::2] = u_b - d_b_stage
    # bottleneck lower bound: the largest whole item load
    lower = float(np.concatenate((u_f + u_b, comm)).max())

    # candidate periods: V-load range sums and their +d_W_a variants
    tri = _upper_triangle(n_items)
    sums = np.cumsum(np.where(tri, v, 0.0), axis=1)
    with_w = sums + d_w[:, None]
    cands = np.concatenate((sums[tri], with_w[tri], [lower]))
    periods = np.unique(cands[cands >= lower])
    if periods.size == 0 or periods[0] != lower:
        periods = np.concatenate(([lower], periods))

    # memory terms per stage: (3W + g·ā) + buffers + ĝ, ĝ = a_end
    ghat = chain.activation_values(ends)
    cap = platform.memory * (1 + MEMORY_FIT_RTOL)

    v_l, d_w_l = v.tolist(), d_w.tolist()
    w3_l, abar_l, buf_l, ghat_l = (
        w3.tolist(), abar.tolist(), buf.tolist(), ghat.tolist()
    )

    def probe(T: float) -> tuple[bool, list[int]] | None:
        try:
            gs_items = assign_groups_zb(v_l, d_w_l, T)
        except ValueError:
            return None
        gs = gs_items[0::2]
        ok = all(
            (w3_l[i] + gs[i] * abar_l[i]) + buf_l[i] + ghat_l[i] <= cap
            for i in range(n_stages)
        )
        return ok, gs

    m = periods.size
    first = probe(float(periods[0]))
    if first is not None and first[0]:
        k, stage_groups = 0, first[1]
    else:
        last = probe(float(periods[-1]))
        if last is None or not last[0]:
            return None  # memory is monotone in T: nothing larger helps
        k, stage_groups = m - 1, last[1]
        lo, hi = 0, m - 1  # periods[lo] infeasible, periods[hi] feasible
        while hi - lo > 1:
            mid = (lo + hi) // 2
            got = probe(float(periods[mid]))
            if got is not None and got[0]:
                hi, (k, stage_groups) = mid, (mid, got[1])
            else:
                lo = mid

    gs_arr = np.asarray(stage_groups, dtype=np.int64)
    return float(periods[k]), stage_groups, (w3 + gs_arr * abar) + buf + ghat
