"""The repository's benchmark: cold planning, a warm sweep, a served stream.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan-tight --seed 1 --seconds 20 --trace 0

It imports the planner from ``src/`` of that checkout, builds the
workload's inputs from ``--seed``, measures for at least ``--seconds``,
checks every output, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``
(``{"name": {"value": …, "unit": …}}``).  ``--trace 0`` reports the
end-to-end metrics of an uninstrumented run; ``--trace 1`` repeats the
same amount of work under :class:`layers.LayerTrace` and reports the
per-layer metrics.  A failed check exits with status 1 after printing
the result; a checkout without ``src/repro`` exits with status 2.

Workloads (one process each, started with
``warmstart.reset_process_context()``; the machine this was sized on has
two cores, so each workload's load comes from one process and only
``serve-zipf`` adds a solver worker):

``plan-tight``
    Closed loop, one caller: cold ``api.plan`` (default grid and
    iterations, warm starts off) over seven tight-memory instances, each
    at 12 and 24 GB/s in a seeded order, whole passes until the time is
    up.  Phase 1 returns a contiguous allocation everywhere, so the MILP
    never runs and the DP does nearly all the work.  Chosen to expose
    the DP.
``sweep-roomy``
    One warm ``api.sweep`` (``n_workers=1``, in-process, coarse grid)
    over resnet50/inception × P∈{4,8} × M∈{8..16} GB at 12 GB/s, MadPipe
    only, repeated from an empty warm-start database until the time is
    up; the grid does not depend on the seed.  At roomy memory phase 1
    picks a special processor, so the phase-2 MILP does a large share of
    the work; the warm-start database and the sweep harness run only
    here.
``serve-zipf``
    Open loop into one ``api.serve(max_workers=1)`` on a fresh store,
    default (off) resilience, LRU of 8 plans over a pool of 16 specs
    (resnet50/inception, P∈{4,8}, tight and roomy memory, MadPipe in
    both schedule families plus PipeDream, coarse grid,
    ``iterations=8``): a start-up burst of one request per spec, then 40
    requests/s at seeded uniform offsets (a Poisson process conditioned
    on its count), each spec drawn by a Zipf law (s=1.1) whose ranks
    follow solve cost, the most expensive spec hottest.  Hits from both
    cache tiers sit beside misses that solve in the worker and append to
    the fsync'd store: the median measures the serve layer, the tail the
    solver.  The burst fixes the order in which the worker solves the
    pool; left to the seed, that order moved the tail and ``slo_share``
    by 20-60% between seeds.

End-to-end metrics (``--trace 0``), every one on every workload:

* ``setup_s`` — imports, chain builds and, for the service, its start
  with the worker spawn; the median of three set-ups (this process and
  two fresh ones);
* ``throughput_per_s`` — plans, swept instances or replies completed
  per second of the measured run;
* ``plan_s_geomean`` — geomean of per-instance solve wall time (for
  ``serve-zipf``: of the cold reference solve of each MadPipe spec in
  the pool; PipeDream's 10-40 ms solves would let timer noise dominate);
* ``latency_p50_ms`` / ``latency_tail_ms`` — per plan, swept instance or
  reply; on ``serve-zipf`` timed from the scheduled send time, and the
  tail is the highest percentile with ten replies beyond it (p98.8 of
  the 816 replies of a 20 s run); the closed loops time fewer than 100
  plans per run, so their tail is the slowest plan (p100);
* ``slo_share`` — share of attempts answered correctly within the
  workload's limit (10 s per plan, 5 s per swept instance, 100 ms per
  reply); failed and degraded answers count as misses;
* ``peak_rss_mb`` — peak resident memory of the benchmark process.

``period_geomean_s`` (geomean of the certified period over the distinct
instances; only a change in planner decisions moves it) and
``failed_share`` are reported with the per-layer metrics: both read the
same on most runs, and ``failed_share`` is 0.

Per-layer metrics (``--trace 1``): which end-to-end metric each should
move, on which workload, and where it should not move.

* ``madpipe_dp.search.{busy_s,share,calls,probes,states}`` (phase 1,
  ``allow_special=True``) — plan-tight throughput and plan_s_geomean
  (most), sweep-roomy throughput (partly), serve-zipf tail; not
  serve-zipf p50.
* ``madpipe_dp.contig.{busy_s,share,calls,win_ratio}`` (the contiguous
  restriction) — plan-tight throughput.
* ``ilp.{busy_s,share,calls,milp_probes,build_s,solve_s,timeouts,
  adopted_ratio,reach_share}`` — sweep-roomy throughput; not plan-tight
  (no calls).
* ``onef1b.busy_s``, ``zero_bubble.busy_s``,
  ``robust.certify.{busy_s,calls,quarantined}`` — under 1% of wall time
  everywhere: no gain to claim there.
* ``warmstart.{dp_reuse,probes_saved,skeleton_reuse,onef1b_hits,
  bracket_hits}`` and ``harness.overhead_s`` — sweep-roomy throughput;
  not plan-tight (warm starts off).
* ``serve.{fingerprint_us,cache_get_us,decode_us,store_put_ms}`` and
  ``serve.{hits_memory,hits_store,solves,coalesced}`` — serve-zipf p50
  and slo_share.
* ``serve.{solve_rtt_s,wait_s,gen_lag_ms}`` — serve-zipf tail.
* ``obs.trace_overhead`` — none.

``share`` is busy time over the traced run's wall time; ``win_ratio``
is the share of plans whose returned allocation is not phase 1's;
``adopted_ratio`` the share of feasible MILP patterns actually
returned; ``reach_share`` the share of MadPipe instances that reach the
MILP; ``harness.overhead_s`` the sweep wall time not spent inside
``madpipe``.  The service solves in its worker process, where no
wrapper reaches: ``serve.solve_rtt_s`` and ``serve.wait_s`` are the
median latencies of replies served from a fresh solve and of coalesced
ones; the solver split behind the pool is what ``plan-tight`` and
``sweep-roomy`` measure, and its ``win_ratio``, ``adopted_ratio`` and
``reach_share`` come from the cold reference solves of the pool.
``obs.trace_overhead`` is traced over untraced wall time (on
``serve-zipf``, whose wall time the arrival schedule fixes, the ratio
of median latencies).

Layer split measured when this benchmark was added (two-core x86-64
VM, ``--seconds 20``, seed 1, ``--trace 1``):

* ``plan-tight`` (14 plans, 27.6 s): ``madpipe_dp.search`` 87.5% (140
  probes, 11.8 M states), ``madpipe_dp.contig`` 10.4% (the contiguous
  candidate won 13 of 14 plans), ``ilp`` 0 calls, ``onef1b`` +
  ``zero_bubble`` + ``robust.certify`` 0.16%; trace overhead 1.03x.
* ``sweep-roomy`` (2 sweeps of 20, 30.3 s): ``ilp`` 55.1% (32 calls,
  170 MILP probes, 0 timeouts; 80% of instances reach the MILP, 62.5%
  of feasible MILP patterns adopted), ``madpipe_dp.search`` 32.0%,
  ``madpipe_dp.contig`` 12.2%, certification 0.3%, harness overhead
  0.05%; warm-start ``dp_reuse`` 23450, ``skeleton_reuse`` 8,
  ``probes_saved``/``onef1b_hits``/``bracket_hits`` 2 each; trace
  overhead 0.96x (within run-to-run noise).
* ``serve-zipf`` (816 replies): 471 memory hits, 146 store hits, 16
  solves, 183 coalesced; per request ``fingerprint`` 193 µs, cache get
  10 µs, ``from_json`` decode 408 µs, store append + fsync 2.6 ms per
  solved plan; median solve round trip 8.0 s and coalesced wait 2.6 s
  (the start-up burst queues behind one worker), generator lag 1.4 ms;
  trace overhead 0.99x (median latency).  On the pool's cold
  references, 82% of MadPipe specs reach the MILP.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: end-to-end metrics and their units
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "plan_s_geomean": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "slo_share": "ratio",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 3  # set-ups per run (this process + fresh ones); median reported


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(q * len(values)))
    return values[min(rank, len(values)) - 1]


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _setup_probe(args) -> float:
    """Set-up time of one fresh process running this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(wl, out, setup_s: float, seconds: float) -> dict:
    answered = [a.latency_s for a in out.attempts if a.latency_s is not None]
    good = sum(
        a.error is None and a.served_from != "degraded" and a.latency_s <= wl.slo_s
        for a in out.attempts
    )
    values = {
        "setup_s": setup_s,
        "throughput_per_s": len(answered) / out.wall_s,
        "plan_s_geomean": geomean(out.solve_s),
        "latency_p50_ms": statistics.median(answered) * 1e3 if answered else 0.0,
        "latency_tail_ms": percentile(answered, wl.tail_q(seconds)) * 1e3,
        "slo_share": _ratio(good, len(out.attempts)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}


def per_layer(trace, out, untraced) -> dict:
    """Every per-layer metric of one traced run (0 where a layer idles)."""
    wall = out.wall_s
    busy, calls, counts = trace.busy, trace.calls, trace.counts
    m: dict[str, tuple[float, str]] = {}

    def layer(name, *extra):
        m[f"{name}.busy_s"] = (busy[name], "s")
        if "share" in extra:
            m[f"{name}.share"] = (_ratio(busy[name], wall), "ratio")
        if "calls" in extra:
            m[f"{name}.calls"] = (calls[name], "count")

    layer("madpipe_dp.search", "share", "calls")
    m["madpipe_dp.search.probes"] = (counts["madpipe_dp.search.probes"], "count")
    m["madpipe_dp.search.states"] = (counts["madpipe_dp.search.states"], "count")
    layer("madpipe_dp.contig", "share", "calls")
    plans = [(p, r) for p, r in out.madpipe if r.allocation is not None]
    won = sum(
        not r.phase1.feasible or r.allocation != r.phase1.allocation.to_allocation(p)
        for p, r in plans
    )
    m["madpipe_dp.contig.win_ratio"] = (_ratio(won, len(plans)), "ratio")
    layer("ilp", "share", "calls")
    for k in ("milp_probes", "timeouts"):
        m[f"ilp.{k}"] = (counts[f"ilp.{k}"], "count")
    for k in ("build_s", "solve_s"):
        m[f"ilp.{k}"] = (counts[f"ilp.{k}"], "s")
    ilps = [r for _, r in out.madpipe if r.ilp is not None and r.ilp.feasible]
    adopted = sum(r.pattern is r.ilp.pattern for r in ilps)
    m["ilp.adopted_ratio"] = (_ratio(adopted, len(ilps)), "ratio")
    m["ilp.reach_share"] = (
        _ratio(out.counters.get("ilp.reach", 0), len(out.madpipe)), "ratio"
    )
    layer("onef1b")
    layer("zero_bubble")
    layer("robust.certify", "calls")
    m["robust.certify.quarantined"] = (counts["robust.certify.quarantined"], "count")
    for k in ("dp_reuse", "probes_saved", "skeleton_reuse", "onef1b_hits",
              "bracket_hits"):
        m[f"warmstart.{k}"] = (out.counters.get(f"warmstart.{k}", 0), "count")
    sweep_s = out.counters.get("sweep_s", 0.0)
    m["harness.overhead_s"] = (
        sweep_s - busy["harness.madpipe"] if sweep_s else 0.0, "s"
    )

    def mean_us(name):
        return _ratio(busy[name], calls[name]) * 1e6

    m["serve.fingerprint_us"] = (mean_us("serve.fingerprint"), "us")
    m["serve.cache_get_us"] = (mean_us("serve.cache_get"), "us")
    m["serve.decode_us"] = (mean_us("serve.decode"), "us")
    m["serve.store_put_ms"] = (mean_us("serve.store_put") / 1e3, "ms")
    served = [a.served_from for a in out.attempts]
    for tier, name in (("memory", "hits_memory"), ("store", "hits_store"),
                       ("solve", "solves"), ("coalesced", "coalesced")):
        m[f"serve.{name}"] = (served.count(tier), "count")

    def median_latency(tier):
        lat = [a.latency_s for a in out.attempts
               if a.served_from == tier and a.latency_s is not None]
        return statistics.median(lat) if lat else 0.0

    m["serve.solve_rtt_s"] = (median_latency("solve"), "s")
    m["serve.wait_s"] = (median_latency("coalesced"), "s")
    m["serve.gen_lag_ms"] = (
        statistics.fmean(out.gen_lag_s) * 1e3 if out.gen_lag_s else 0.0, "ms"
    )
    if out.gen_lag_s:  # open loop: wall time is fixed by the arrival schedule
        def p50(o):
            return statistics.median(a.latency_s for a in o.attempts
                                     if a.latency_s is not None)
        overhead = _ratio(p50(out), p50(untraced))
    else:
        overhead = _ratio(out.wall_s, untraced.wall_s)
    m["obs.trace_overhead"] = (overhead, "ratio")
    m["period_geomean_s"] = (geomean(out.periods.values()), "s")
    m["failed_share"] = (_ratio(out.failed, len(out.attempts)), "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy6/gpt8 instances: a seconds-long self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="run the set-up only and print its duration")
    parser.add_argument("--cold-shard", metavar="I/N",
                        help="sweep-roomy check: print the cold solves of "
                        "shard I of N as JSON")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no planner sources at {SRC}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from layers import LayerTrace
    from repro import warmstart

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    warmstart.reset_process_context()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    if args.cold_shard:
        index, count = map(int, args.cold_shard.split("/"))
        print(json.dumps(wl.cold_shard(index, count)))
        return 0
    wl.setup()
    own_setup = time.perf_counter() - t_start
    if args.setup_probe:
        print(own_setup)
        return 0
    setups = [own_setup]
    if not args.trace:  # the traced run reports no set-up time
        setups += [_setup_probe(args) for _ in range(SETUP_REPEATS - 1)]

    out = wl.measure(args.seconds)
    checked = [out]
    traced = None
    if args.trace:
        warmstart.reset_process_context()
        trace = LayerTrace()
        traced = wl.measure(args.seconds, trace, passes=out.passes)
        checked.append(traced)
    wl.check(checked)

    attempted = sum(len(o.attempts) for o in checked)
    failed = sum(o.failed for o in checked)
    for o in checked:
        for a in o.attempts:
            if a.error is not None:
                print(f"FAILED {args.workload} {a.key}: {a.error}")
    print(f"{args.workload}: {len(out.attempts)} attempts in {out.passes} "
          f"pass(es), {out.wall_s:.2f} s; latency tail = "
          f"p{100 * wl.tail_q(args.seconds):g}; set-ups "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    if traced is None:
        metrics = end_to_end(wl, out, statistics.median(setups), args.seconds)
    else:
        metrics = per_layer(trace, traced, out)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
