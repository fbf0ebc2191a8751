#!/usr/bin/env python
"""Run the hot-path benchmarks and record them to ``BENCH_*.json``.

The JSON files are the repo's performance trajectory: each entry of
``"runs"`` is one measurement of a fast path raced against its kept
reference implementation.  Subsequent performance PRs should re-run this
script and compare against the committed numbers before and after their
change.

* ``--suite dp`` → ``BENCH_dp.json`` via ``benchmarks/bench_dp_hotpath.py``
  (vectorized MadPipe-DP vs the naive recursion);
* ``--suite phase2`` → ``BENCH_phase2.json`` via
  ``benchmarks/bench_phase2_hotpath.py`` (ILP period search and the
  1F1B\\* kernel vs their references, and cold ``madpipe`` plans with
  and without the MILP cutoff);
* ``--suite obs`` → ``BENCH_obs.json`` via
  ``benchmarks/bench_obs_overhead.py`` (instrumentation cost of the
  observability layer in disabled/metrics/traced modes);
* ``--suite certify`` → ``BENCH_certify.json`` via
  ``benchmarks/bench_certify.py`` (cost of the discrete-event
  certification gate and the seeded robustness stress test);
* ``--suite warm`` → ``BENCH_warm.json`` via
  ``benchmarks/bench_warm_sweep.py`` (cold vs warm full-grid sweep wall
  time, probes saved by the warm-start database);
* ``--suite serve`` → ``BENCH_serve.json`` via
  ``benchmarks/bench_serve.py`` (plan-service QPS under a Zipf traffic
  replay vs naive serial ``api.plan``, hit/coalesce rates);
* ``--suite ingest`` → ``BENCH_ingest.json`` via
  ``benchmarks/bench_ingest.py`` (measured-profile ingestion +
  calibration throughput on clean vs damaged traces, byte-identity
  asserted before reporting);
* ``--suite zb`` → ``BENCH_zb.json`` via
  ``benchmarks/bench_zero_bubble.py`` (certified zero-bubble B/W-split
  periods vs 1F1B\\* on GPT-style chains under tight memory; a strict
  certified win on at least one budget is asserted before reporting);
* ``--suite chaos`` → ``BENCH_chaos.json`` via
  ``benchmarks/bench_chaos.py`` (seeded overload/failure soak of the
  plan service; all resilience invariants — bit-identity, certified
  degraded answers, full accounting, bounded recovery, clean store —
  are asserted before reporting);
* ``--suite all`` (default) → all of the above.

Usage::

    PYTHONPATH=src:benchmarks python scripts/bench_report.py [--smoke] [--suite dp|phase2|all]

``--smoke`` shrinks every suite to a single quick instance (used by CI
to keep the script from rotting).
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_mod
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "src"))

import bench_certify  # noqa: E402
import bench_chaos  # noqa: E402
import bench_dp_hotpath  # noqa: E402
import bench_ingest  # noqa: E402
import bench_obs_overhead  # noqa: E402
import bench_phase2_hotpath  # noqa: E402
import bench_serve  # noqa: E402
import bench_warm_sweep  # noqa: E402
import bench_zero_bubble  # noqa: E402


def _payload(smoke: bool, runs) -> dict:
    return {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "smoke": smoke,
        "python": platform_mod.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }


def _summarize(records: list[dict]) -> None:
    """Per-run speedup range plus the aggregate (total ref / total fast);
    tolerant of records without a reference measurement."""
    ratios = [r["speedup"] for r in records if "speedup" in r]
    fast = sum(r.get("fast_s", 0.0) for r in records)
    ref = sum(r.get("reference_s", 0.0) for r in records if "reference_s" in r)
    if ratios:
        agg = f", aggregate {ref / fast:.2f}x" if fast > 0 and ref > 0 else ""
        print(
            f"speedup vs reference: min {min(ratios):.2f}x "
            f"max {max(ratios):.2f}x{agg}"
        )


def run_dp(smoke: bool, out_dir: Path) -> None:
    if smoke:
        runs = bench_dp_hotpath.run_bench(
            networks=("resnet50",),
            grids=("coarse",),
            repeats=1,
            iterations=4,
            reference_grids=("coarse",),
        )
    else:
        runs = bench_dp_hotpath.run_bench()
    out = out_dir / "BENCH_dp.json"
    out.write_text(json.dumps(_payload(smoke, runs), indent=1) + "\n")
    print(bench_dp_hotpath.render(runs))
    _summarize(runs)
    print(f"wrote {out}\n")


def run_phase2(smoke: bool, out_dir: Path) -> None:
    result = bench_phase2_hotpath.run_bench(smoke=smoke)
    out = out_dir / "BENCH_phase2.json"
    out.write_text(json.dumps(_payload(smoke, result), indent=1) + "\n")
    print(bench_phase2_hotpath.render(result))
    for name in ("ilp", "onef1b", "madpipe"):
        print(f"{name}: ", end="")
        _summarize(result[name])
    print(f"wrote {out}\n")


def run_obs(smoke: bool, out_dir: Path) -> None:
    if smoke:
        runs = [
            bench_obs_overhead.bench_dp("toy8", repeats=1, iterations=4),
            bench_obs_overhead.bench_onef1b("toy8", calls=50, repeats=1),
        ]
    else:
        runs = bench_obs_overhead.bench_all()
    out = out_dir / "BENCH_obs.json"
    out.write_text(json.dumps(_payload(smoke, runs), indent=1) + "\n")
    for r in runs:
        print(
            f"{r['bench']:>8} {r['network']:>10}: disabled {r['disabled_s']:.4f}s"
            f" metrics {r['metrics_s']:.4f}s traced {r['traced_s']:.4f}s"
            f" (traced/disabled {r['overhead_traced']:.2f}x)"
        )
    print(f"wrote {out}\n")


def run_certify(smoke: bool, out_dir: Path) -> None:
    if smoke:
        runs = [
            bench_certify.bench_gate("toy8", repeats=1, iterations=4),
            bench_certify.bench_verify("toy8", calls=10, repeats=1, iterations=4),
            bench_certify.bench_robustness(
                "toy8", samples=8, repeats=1, iterations=4
            ),
        ]
    else:
        runs = bench_certify.bench_all()
    out = out_dir / "BENCH_certify.json"
    out.write_text(json.dumps(_payload(smoke, runs), indent=1) + "\n")
    for r in runs:
        if r["bench"] == "gate":
            print(
                f"    gate {r['network']:>10}: uncertified {r['uncertified_s']:.4f}s"
                f" certified {r['certified_s']:.4f}s"
                f" ({r['overhead_certified']:.2f}x)"
            )
        elif r["bench"] == "verify":
            print(
                f"  verify {r['network']:>10}: {r['per_call_s'] * 1e3:.2f}ms/call"
                f" ({r['periods_simulated']} periods simulated)"
            )
        else:
            print(
                f"  robust {r['network']:>10}: {r['total_s']:.4f}s for"
                f" {r['samples']} samples"
                f" ({r['per_sample_s'] * 1e3:.2f}ms/sample)"
            )
    print(f"wrote {out}\n")


def run_warm(smoke: bool, out_dir: Path) -> None:
    result = bench_warm_sweep.run_bench(smoke=smoke)
    out = out_dir / "BENCH_warm.json"
    out.write_text(json.dumps(_payload(smoke, result), indent=1) + "\n")
    print(bench_warm_sweep.render(result))
    print(f"wrote {out}\n")


def run_serve(smoke: bool, out_dir: Path) -> None:
    result = bench_serve.run_bench(smoke=smoke)
    out = out_dir / "BENCH_serve.json"
    out.write_text(json.dumps(_payload(smoke, result), indent=1) + "\n")
    print(bench_serve.render(result))
    print(f"wrote {out}\n")


def run_ingest(smoke: bool, out_dir: Path) -> None:
    result = bench_ingest.run_bench(smoke=smoke)
    out = out_dir / "BENCH_ingest.json"
    out.write_text(json.dumps(_payload(smoke, result), indent=1) + "\n")
    print(bench_ingest.render(result))
    print(f"wrote {out}\n")


def run_zb(smoke: bool, out_dir: Path) -> None:
    result = bench_zero_bubble.run_bench(smoke=smoke)
    out = out_dir / "BENCH_zb.json"
    out.write_text(json.dumps(_payload(smoke, result), indent=1) + "\n")
    print(bench_zero_bubble.render(result))
    print(f"wrote {out}\n")


def run_chaos(smoke: bool, out_dir: Path) -> None:
    result = bench_chaos.run_soak(smoke=smoke)
    out = out_dir / "BENCH_chaos.json"
    out.write_text(json.dumps(_payload(smoke, result), indent=1) + "\n")
    print(bench_chaos.render(result))
    print(f"wrote {out}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one quick instance per suite — just proves the harness works",
    )
    parser.add_argument(
        "--suite",
        choices=(
            "dp", "phase2", "obs", "certify", "warm", "serve", "ingest", "zb",
            "chaos", "all",
        ),
        default="all",
        help="which benchmark suite(s) to run",
    )
    parser.add_argument(
        "-o", "--out-dir", default=str(REPO_ROOT), help="directory for BENCH_*.json"
    )
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    if args.suite in ("dp", "all"):
        run_dp(args.smoke, out_dir)
    if args.suite in ("phase2", "all"):
        run_phase2(args.smoke, out_dir)
    if args.suite in ("obs", "all"):
        run_obs(args.smoke, out_dir)
    if args.suite in ("certify", "all"):
        run_certify(args.smoke, out_dir)
    if args.suite in ("warm", "all"):
        run_warm(args.smoke, out_dir)
    if args.suite in ("serve", "all"):
        run_serve(args.smoke, out_dir)
    if args.suite in ("ingest", "all"):
        run_ingest(args.smoke, out_dir)
    if args.suite in ("zb", "all"):
        run_zb(args.smoke, out_dir)
    if args.suite in ("chaos", "all"):
        run_chaos(args.smoke, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
