"""DP hot-path benchmark: vectorized MadPipe-DP vs the naive reference.

Times :func:`repro.algorithms.madpipe_dp.algorithm1` (the T̂ binary
search, the hot path of every experiment) on the paper chains at the
three :class:`Discretization` presets, for both the vectorized solver
and the kept-for-reference recursive one, in both DP modes: phase 1
(``allow_special=True``) and the contiguous restriction
(``allow_special=False``) that MadPipe's fallback ladder runs.  It
asserts that both solvers return the identical search.  The
measurement core is importable — ``scripts/bench_report.py``
uses it to emit ``BENCH_dp.json`` so later changes have a perf
trajectory to regress against.

Run standalone via the report script, or under pytest (smoke mode: one
repeat, coarse + default grids) with the rest of the benchmark suite.
"""

from __future__ import annotations

import time

from repro.algorithms.madpipe_dp import Discretization, algorithm1, madpipe_dp
from repro.algorithms.madpipe_dp_reference import madpipe_dp_reference
from repro.core.platform import Platform
from repro.experiments.scenarios import paper_chain

GRIDS = {
    "coarse": Discretization.coarse,
    "default": Discretization.default,
    "paper": Discretization.paper,
}

# the benchmark platform: the paper's mid-size configuration
BENCH_PROCS = 4
BENCH_MEMORY_GB = 8.0
BENCH_BANDWIDTH_GBPS = 12.0


def bench_instance(
    network: str,
    grid_name: str,
    *,
    repeats: int = 3,
    iterations: int = 10,
    with_reference: bool = True,
    allow_special: bool = True,
) -> dict:
    """Time ``algorithm1`` on one paper chain at one grid preset, with or
    without the special processor.

    Returns a JSON-ready record with best-of-``repeats`` wall times for
    the fast solver (and, when ``with_reference``, the naive one plus
    their speedup ratio), the solved period, and DP diagnostics.
    """
    chain = paper_chain(network)
    platform = Platform.of(BENCH_PROCS, BENCH_MEMORY_GB, BENCH_BANDWIDTH_GBPS)
    grid = GRIDS[grid_name]()

    def measure(dp) -> tuple[float, object]:
        best, res = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = algorithm1(
                chain, platform, iterations=iterations, grid=grid, dp=dp,
                allow_special=allow_special,
            )
            best = min(best, time.perf_counter() - t0)
        return best, res

    fast_t, fast = measure(madpipe_dp)
    record = {
        "network": network,
        "L": chain.L,
        "grid": grid_name,
        "allow_special": allow_special,
        "n_procs": BENCH_PROCS,
        "memory_gb": BENCH_MEMORY_GB,
        "bandwidth_gbps": BENCH_BANDWIDTH_GBPS,
        "iterations": iterations,
        "repeats": repeats,
        "fast_s": fast_t,
        "period": fast.period,
        "states": fast.states,
        "pruned_cap": fast.pruned_cap,
        "pruned_mem": fast.pruned_mem,
    }
    if with_reference:
        ref_t, ref = measure(madpipe_dp_reference)
        assert (fast.period, fast.history, fast.states) == (
            ref.period, ref.history, ref.states
        ) and _decisions(fast) == _decisions(ref), (
            f"solver mismatch on {network}/{grid_name} "
            f"(allow_special={allow_special}): "
            f"fast={fast.period} reference={ref.period}"
        )
        record["reference_s"] = ref_t
        record["speedup"] = ref_t / fast_t if fast_t > 0 else float("inf")
    return record


def _decisions(res) -> tuple | None:
    alloc = res.allocation
    return None if alloc is None else (alloc.stages, alloc.special)


def run_bench(
    *,
    networks: tuple[str, ...] = ("resnet50", "resnet101"),
    grids: tuple[str, ...] = ("coarse", "default", "paper"),
    repeats: int = 3,
    iterations: int = 10,
    reference_grids: tuple[str, ...] = ("coarse", "default"),
) -> list[dict]:
    """The full hot-path sweep, one row per network, grid and DP mode
    (with and without the special processor).  The naive reference is
    only timed on the grids in ``reference_grids`` (it is ~10× slower;
    the paper grid ratio mirrors the default-grid one)."""
    return [
        bench_instance(
            network,
            grid_name,
            repeats=repeats,
            iterations=iterations,
            with_reference=grid_name in reference_grids,
            allow_special=allow_special,
        )
        for network in networks
        for grid_name in grids
        for allow_special in (True, False)
    ]


def render(records: list[dict]) -> str:
    lines = [
        f"{'network':>12} {'grid':>8} {'mode':>6} {'fast (s)':>9} "
        f"{'naive (s)':>10} {'speedup':>8} {'states':>9} {'period':>8}"
    ]
    for r in records:
        ref = f"{r['reference_s']:10.3f}" if "reference_s" in r else f"{'-':>10}"
        spd = f"{r['speedup']:7.1f}x" if "speedup" in r else f"{'-':>8}"
        mode = "full" if r["allow_special"] else "contig"
        lines.append(
            f"{r['network']:>12} {r['grid']:>8} {mode:>6} {r['fast_s']:9.3f} {ref} "
            f"{spd} {r['states']:9d} {r['period']:8.4f}"
        )
    return "\n".join(lines)


def test_dp_hotpath_smoke():
    """Smoke run (1 repeat, coarse grid, short search) in both modes so
    the benchmark harness itself cannot rot; asserts the solvers agree
    and, with the special processor, that the fast path is not slower
    than the naive one.  The contiguous restriction reaches a few
    hundred states per search here, too few for the vectorized levels
    to beat the recursion, so only its identity is asserted."""
    records = [
        bench_instance("resnet50", "coarse", repeats=1, iterations=4,
                       allow_special=allow_special)
        for allow_special in (True, False)
    ]
    assert records[0]["speedup"] > 1.0
    assert all(record["states"] > 0 for record in records)
    print()
    print(render(records))
