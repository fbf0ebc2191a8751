"""Phase-2 hot-path benchmark: fast period searches vs their references.

Three suites; the first two mirror ``bench_dp_hotpath.py``:

* **ilp** — :func:`repro.ilp.schedule_allocation` (skeleton reuse,
  gallop bracketing, LP jumps, feasibility-only probes) raced against
  :func:`repro.ilp.schedule_allocation_reference` (the pre-skeleton
  scratch-build bisection) on the paper's non-contiguous ResNet-50
  instances — every (P, bandwidth, grid, memory) sweep point whose
  phase-1 allocation actually uses the special processor.  The two
  searches certify to the same ``rel_tol`` band but take different
  probe trajectories, so periods are checked to tolerance, not bitwise.

* **onef1b** — :func:`repro.algorithms.onef1b.min_feasible_period` (the
  NumPy kernel) raced against the pure-Python reference over the
  brute-force contiguous enumeration (every partitioning of a ResNet-50
  prefix into ≤ P stages, the ``best_contiguous`` workload), with
  **bit-identical** periods enforced on all ~1800 partitionings.

* **madpipe** — cold end-to-end :func:`repro.api.plan` over the
  ``sweep-roomy`` grid of ``perfbench`` (resnet50 and inception, P ∈ {4,
  8}, 8–16 GB, 12 GB/s, coarse DP grid), with the MILP search stopped at
  the contiguous candidate's period (``cutoff``) and without it (a
  bench-local wrapper drops the argument).  Wall time and MILP busy time
  are reported per instance; the two plans must serialize
  byte-identically.

The measurement core is importable — ``scripts/bench_report.py`` uses it
to emit ``BENCH_phase2.json`` so later changes have a perf trajectory to
regress against.  Run standalone via the report script, or under pytest
(smoke mode) with the rest of the benchmark suite.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from itertools import combinations

from repro import api
from repro.algorithms.madpipe_dp import Discretization, algorithm1
from repro.algorithms.onef1b import min_feasible_period
from repro.algorithms.onef1b_reference import min_feasible_period_reference
from repro.core.partition import Partitioning
from repro.core.platform import Platform
from repro.experiments.scenarios import paper_chain
from repro.ilp import schedule_allocation, schedule_allocation_reference

GRIDS = {"coarse": Discretization.coarse, "default": Discretization.default}

#: Certification tolerance shared by both searches; their periods may
#: differ by up to (1 + REL_TOL)^2 − 1 ≈ 2·REL_TOL since each stops
#: anywhere inside its own band.
REL_TOL = 5e-3

# The ILP suite sweep: the paper's ResNet-50 experiment axes.  Only the
# points whose phase-1 allocation is non-contiguous reach the MILP.
ILP_PROCS = (4, 8)
ILP_BANDWIDTHS_GBPS = (5.0, 12.0, 25.0)
ILP_MEMORIES_GB = (6.0, 8.0, 12.0)

# The 1F1B* suite: exhaustive contiguous enumeration of a ResNet-50
# prefix (the full chain's C(38, ≤7) partitionings are out of reach for
# any implementation — the oracle itself caps at 12 layers).
ONEF1B_L = 12
ONEF1B_PROCS = 8
ONEF1B_MEMORIES_GB = (3.0, 4.0)
ONEF1B_BANDWIDTH_GBPS = 12.0

# The madpipe suite: perfbench's sweep-roomy grid.
MADPIPE_NETWORKS = ("resnet50", "inception")
MADPIPE_PROCS = (4, 8)
MADPIPE_MEMORIES_GB = (8.0, 10.0, 12.0, 14.0, 16.0)
MADPIPE_BANDWIDTH_GBPS = 12.0
MADPIPE_ILP_TIME_LIMIT = 600.0


def ilp_instances(
    *,
    network: str = "resnet50",
    procs: tuple[int, ...] = ILP_PROCS,
    bandwidths: tuple[float, ...] = ILP_BANDWIDTHS_GBPS,
    grids: tuple[str, ...] = ("coarse", "default"),
    memories: tuple[float, ...] = ILP_MEMORIES_GB,
):
    """Yield ``(meta, chain, platform, allocation)`` for every sweep point
    whose phase-1 allocation is non-contiguous (the MILP workload)."""
    chain = paper_chain(network)
    for P in procs:
        for bw in bandwidths:
            for grid_name in grids:
                grid = GRIDS[grid_name]()
                for mem in memories:
                    platform = Platform.of(P, mem, bw)
                    phase1 = algorithm1(chain, platform, grid=grid)
                    if not phase1.feasible:
                        continue
                    allocation = phase1.allocation.to_allocation(platform)
                    if allocation.is_contiguous():
                        continue
                    meta = {
                        "network": network,
                        "n_procs": P,
                        "bandwidth_gbps": bw,
                        "grid": grid_name,
                        "memory_gb": mem,
                        "procs_layout": list(allocation.procs),
                    }
                    yield meta, chain, platform, allocation


def bench_ilp_instance(meta, chain, platform, allocation) -> dict:
    """Race the fast period search against the reference bisection on one
    non-contiguous allocation; the certified periods must agree within
    the combined tolerance band."""
    t0 = time.perf_counter()
    fast = schedule_allocation(chain, platform, allocation, rel_tol=REL_TOL)
    t1 = time.perf_counter()
    ref = schedule_allocation_reference(chain, platform, allocation, rel_tol=REL_TOL)
    t2 = time.perf_counter()
    band = 1 + 2 * REL_TOL
    assert fast.feasible == ref.feasible, f"feasibility mismatch on {meta}"
    if fast.feasible:
        assert fast.period <= ref.period * band and ref.period <= fast.period * band, (
            f"period mismatch on {meta}: fast={fast.period} reference={ref.period}"
        )
    fast_t, ref_t = t1 - t0, t2 - t1
    return {
        **meta,
        "fast_s": fast_t,
        "fast_probes": len(fast.probes),
        "period": fast.period,
        "reference_s": ref_t,
        "reference_probes": len(ref.probes),
        "reference_period": ref.period,
        "speedup": ref_t / fast_t if fast_t > 0 else float("inf"),
    }


def run_ilp_bench(**kwargs) -> list[dict]:
    return [bench_ilp_instance(*inst) for inst in ilp_instances(**kwargs)]


def bench_onef1b_instance(
    memory_gb: float,
    *,
    network: str = "resnet50",
    L: int = ONEF1B_L,
    n_procs: int = ONEF1B_PROCS,
    bandwidth_gbps: float = ONEF1B_BANDWIDTH_GBPS,
) -> dict:
    """Time the full contiguous enumeration (every partitioning into ≤ P
    stages) for both implementations and enforce bit-identical answers."""
    chain = paper_chain(network).subchain(1, L)
    platform = Platform.of(n_procs, memory_gb, bandwidth_gbps)
    parts = [
        Partitioning.from_cuts(L, list(cuts))
        for n_cuts in range(0, n_procs)
        for cuts in combinations(range(1, L), n_cuts)
    ]

    t0 = time.perf_counter()
    fast = [min_feasible_period(chain, platform, p, build=False) for p in parts]
    t1 = time.perf_counter()
    ref = [
        min_feasible_period_reference(chain, platform, p, build=False)
        for p in parts
    ]
    t2 = time.perf_counter()

    for p, f, r in zip(parts, fast, ref):
        assert (f is None) == (r is None), f"feasibility mismatch on {p}"
        if f is not None:
            assert f.period == r.period and f.groups == r.groups, (
                f"kernel mismatch on {p}: fast={f.period} reference={r.period}"
            )
    fast_t, ref_t = t1 - t0, t2 - t1
    return {
        "network": network,
        "L": L,
        "n_procs": n_procs,
        "memory_gb": memory_gb,
        "bandwidth_gbps": bandwidth_gbps,
        "n_partitionings": len(parts),
        "n_feasible": sum(1 for f in fast if f is not None),
        "fast_s": fast_t,
        "reference_s": ref_t,
        "speedup": ref_t / fast_t if fast_t > 0 else float("inf"),
    }


def run_onef1b_bench(
    memories: tuple[float, ...] = ONEF1B_MEMORIES_GB, **kwargs
) -> list[dict]:
    return [bench_onef1b_instance(mem, **kwargs) for mem in memories]


@contextmanager
def _timed_milp(uncut: bool):
    """Time every MILP period search ``madpipe`` runs inside the block;
    ``uncut`` also drops its ``cutoff``, restoring the full search."""
    module = importlib.import_module("repro.algorithms.madpipe")
    search = module.schedule_allocation
    busy = [0.0]

    def timed(*args, **kwargs):
        if uncut:
            kwargs.pop("cutoff", None)
        t0 = time.perf_counter()
        try:
            return search(*args, **kwargs)
        finally:
            busy[0] += time.perf_counter() - t0

    module.schedule_allocation = timed
    try:
        yield busy
    finally:
        module.schedule_allocation = search


def bench_madpipe_instance(
    network: str, n_procs: int, memory_gb: float, *, cut_first: bool = False
) -> dict:
    """Plan one instance cut and uncut; the plans must be identical."""
    chain = paper_chain(network)
    platform = Platform.of(n_procs, memory_gb, MADPIPE_BANDWIDTH_GBPS)
    runs = {}
    for side in ("cut", "uncut") if cut_first else ("uncut", "cut"):
        with _timed_milp(uncut=side == "uncut") as busy:
            t0 = time.perf_counter()
            res = api.plan(
                chain, platform, grid=Discretization.coarse(),
                ilp_time_limit=MADPIPE_ILP_TIME_LIMIT,
            )
            runs[side] = (res, time.perf_counter() - t0, busy[0])
    (cut, cut_s, cut_milp), (uncut, uncut_s, uncut_milp) = runs["cut"], runs["uncut"]
    payload = json.dumps(cut.to_json(), sort_keys=True)
    assert payload == json.dumps(uncut.to_json(), sort_keys=True), (
        f"plan changed by the cutoff on {network} P{n_procs} {memory_gb:g} GB"
    )
    ilp = cut.raw.ilp
    return {
        "network": network,
        "n_procs": n_procs,
        "memory_gb": memory_gb,
        "bandwidth_gbps": MADPIPE_BANDWIDTH_GBPS,
        "ilp_status": None if ilp is None else ilp.status,
        "uncut_ilp_status": None if uncut.raw.ilp is None else uncut.raw.ilp.status,
        "milp_probes": 0 if ilp is None else ilp.timings["milp_probes"],
        "uncut_milp_probes": (
            0 if uncut.raw.ilp is None else uncut.raw.ilp.timings["milp_probes"]
        ),
        "period": cut.period,
        "fast_s": cut_s,
        "reference_s": uncut_s,
        "speedup": uncut_s / cut_s if cut_s > 0 else float("inf"),
        "milp_s": cut_milp,
        "uncut_milp_s": uncut_milp,
    }


def run_madpipe_bench(
    networks: tuple[str, ...] = MADPIPE_NETWORKS,
    procs: tuple[int, ...] = MADPIPE_PROCS,
    memories: tuple[float, ...] = MADPIPE_MEMORIES_GB,
) -> list[dict]:
    grid = [(net, P, mem) for net in networks for P in procs for mem in memories]
    # alternate which side runs first, so drift and cache warm-up favor neither
    return [
        bench_madpipe_instance(*inst, cut_first=i % 2 == 1)
        for i, inst in enumerate(grid)
    ]


def run_bench(*, smoke: bool = False) -> dict:
    """All three suites; ``smoke`` shrinks each to a single quick instance."""
    if smoke:
        ilp = [
            bench_ilp_instance(*inst)
            for inst in ilp_instances(
                procs=(4,), bandwidths=(25.0,), grids=("coarse",), memories=(6.0,)
            )
        ]
        onef1b = [bench_onef1b_instance(3.0, L=10)]
        madpipe = run_madpipe_bench(networks=("inception",), procs=(4,), memories=(8.0,))
    else:
        ilp = run_ilp_bench()
        onef1b = run_onef1b_bench()
        madpipe = run_madpipe_bench()
    return {"ilp": ilp, "onef1b": onef1b, "madpipe": madpipe}


def _aggregate(records: list[dict]) -> float:
    fast = sum(r["fast_s"] for r in records)
    ref = sum(r.get("reference_s", 0.0) for r in records)
    return ref / fast if fast > 0 else float("inf")


def render(result: dict) -> str:
    lines = ["ilp: schedule_allocation vs reference bisection"]
    lines.append(
        f"{'instance':>32} {'fast (s)':>9} {'ref (s)':>9} {'speedup':>8} "
        f"{'probes':>7} {'period':>8}"
    )
    for r in result["ilp"]:
        name = (
            f"P{r['n_procs']}/bw{r['bandwidth_gbps']:g}/"
            f"{r['grid']}/m{r['memory_gb']:g}"
        )
        lines.append(
            f"{name:>32} {r['fast_s']:9.3f} {r['reference_s']:9.3f} "
            f"{r['speedup']:7.2f}x {r['fast_probes']:3d}/{r['reference_probes']:<3d} "
            f"{r['period']:8.5f}"
        )
    if result["ilp"]:
        lines.append(f"aggregate ilp speedup: {_aggregate(result['ilp']):.2f}x")
    lines.append("")
    lines.append("onef1b: min_feasible_period over the contiguous enumeration")
    lines.append(
        f"{'instance':>32} {'fast (s)':>9} {'ref (s)':>9} {'speedup':>8} "
        f"{'parts':>7} {'feas':>6}"
    )
    for r in result["onef1b"]:
        name = f"{r['network']}[:{r['L']}] P{r['n_procs']}/m{r['memory_gb']:g}"
        lines.append(
            f"{name:>32} {r['fast_s']:9.3f} {r['reference_s']:9.3f} "
            f"{r['speedup']:7.2f}x {r['n_partitionings']:7d} {r['n_feasible']:6d}"
        )
    if result["onef1b"]:
        lines.append(
            f"aggregate onef1b speedup: {_aggregate(result['onef1b']):.2f}x"
        )
    lines.append("")
    lines.append("madpipe: cold api.plan, MILP cutoff vs uncut search (identical plans)")
    lines.append(
        f"{'instance':>32} {'cut (s)':>9} {'uncut (s)':>9} {'MILP cut':>9} "
        f"{'uncut':>7} {'probes':>7} {'status':>9}"
    )
    for r in result["madpipe"]:
        name = f"{r['network']} P{r['n_procs']}/m{r['memory_gb']:g}"
        lines.append(
            f"{name:>32} {r['fast_s']:9.3f} {r['reference_s']:9.3f} "
            f"{r['milp_s']:9.3f} {r['uncut_milp_s']:7.3f} "
            f"{r['milp_probes']:3d}/{r['uncut_milp_probes']:<3d} {r['ilp_status'] or '-':>9}"
        )
    if result["madpipe"]:
        milp = sum(r["milp_s"] for r in result["madpipe"])
        uncut = sum(r["uncut_milp_s"] for r in result["madpipe"])
        lines.append(
            f"aggregate madpipe speedup: {_aggregate(result['madpipe']):.2f}x wall, "
            f"{uncut / milp if milp > 0 else float('inf'):.2f}x MILP busy"
        )
    return "\n".join(lines)


def test_phase2_hotpath_smoke():
    """Smoke run so the benchmark harness itself cannot rot; asserts the
    implementations agree (done inside the bench helpers) and the 1F1B*
    kernel is not slower than the reference (the ILP race is too close
    to HiGHS run-to-run variance for a hard smoke assertion)."""
    result = run_bench(smoke=True)
    assert result["onef1b"][0]["speedup"] > 1.0
    for r in result["ilp"]:
        assert r["fast_probes"] <= r["reference_probes"]
    # the smoke instance's contiguous candidate wins: the cutoff ends the
    # MILP search (plan identity is asserted inside the bench)
    assert [r["ilp_status"] for r in result["madpipe"]] == ["cutoff"]
    print()
    print(render(result))
