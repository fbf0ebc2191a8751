"""The benchmark's three workloads: seeded inputs, one measured run, checks.

Each workload class takes ``(seed, smoke)``, derives its inputs from the
seed (the sweep grid is the same for every seed), and offers

* ``setup()`` — the set-up a user pays before the first answer (chain
  builds; for the service also its start and worker-pool spawn);
* ``measure(seconds, trace=None, passes=None)`` — one measured run,
  returning an :class:`Outcome`; with a :class:`layers.LayerTrace` the
  timed region runs under it, and ``passes`` replays the amount of work
  of an earlier run so traced and untraced runs are comparable;
* ``check(outcomes)`` — the output checks, outside any timed region;
  every attempt that fails one gets an ``error``.

Which layer each workload stresses, and why, is in ``run.py``'s
docstring.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import api, warmstart
from repro.algorithms import Discretization
from repro.core.platform import Platform
from repro.experiments.scenarios import paper_chain
from repro.robust import certify_pattern

#: MILP budget per phase-2 probe.  No probe of these workloads comes near
#: it; a timed-out probe would make the period depend on machine speed.
ILP_TIME_LIMIT = 600.0

#: scratch space for plan stores, inside the checkout the benchmark runs in
TMP_ROOT = Path(__file__).resolve().parent.parent / ".perfbench_tmp"

#: statuses that count as a failed attempt (besides exceptions and checks)
FAIL_STATUSES = ("error", "solver_timeout")


@dataclass
class Attempt:
    """One planning attempt: its instance key, latency and answer."""

    key: tuple
    latency_s: float | None  # None when the attempt raised
    result: object = None  # PlanResult / RunResult / ServeReply
    error: str | None = None
    served_from: str = ""


@dataclass
class Outcome:
    """Everything one measured run produced."""

    attempts: list[Attempt] = field(default_factory=list)
    wall_s: float = 0.0
    passes: int = 0
    solve_s: list[float] = field(default_factory=list)  # per-instance solve wall
    periods: dict = field(default_factory=dict)  # instance key -> certified period
    madpipe: list = field(default_factory=list)  # (platform, MadPipeResult)
    counters: dict = field(default_factory=dict)  # workload-specific layer values
    gen_lag_s: list[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(a.error is not None for a in self.attempts)


def canonical(result) -> str:
    """The byte form two plans must share to count as identical."""
    return json.dumps(result.to_json(), sort_keys=True)


def certify_error(chain, platform, result) -> str | None:
    """Re-certify ``result``'s pattern through the discrete-event verifier
    and check that the period it reports is the pattern's own."""
    if result.status in FAIL_STATUSES:
        return f"status {result.status}"
    cert = certify_pattern(chain, platform, result.pattern, source="perfbench")
    if not cert.ok:
        return "re-certification failed: " + "; ".join(cert.violations[:1])
    if result.pattern is not None and result.pattern.period != result.period:
        return f"period {result.period!r} is not the pattern's {result.pattern.period!r}"
    return None


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _fail_all(outcome: Outcome, keys, exc: BaseException) -> None:
    for key in keys:
        outcome.attempts.append(
            Attempt(key, None, error=f"{type(exc).__name__}: {exc}")
        )


class PlanTight:
    """Closed loop, one caller: cold ``api.plan`` on tight-memory instances.

    Phase 1 returns a contiguous allocation on every instance, so the
    phase-2 MILP never runs and the DP does almost all of the work.  Each
    instance runs at 12 and at 24 GB/s, in an order the seed draws: a
    seeded choice of one bandwidth per instance made a run's work
    bimodal (the resnet101 DP takes ~12% longer at 24 GB/s).
    """

    name = "plan-tight"
    slo_s = 10.0  # a plan answered within 10 s counts for slo_share
    # (network, P, memory GB, schedule family); resnet101/8/6 (17.5 s, all
    # DP) is left out: at both bandwidths it alone would take 35 s
    INSTANCES = (
        ("resnet50", 8, 6.0, "1f1b"),
        ("resnet101", 4, 6.0, "1f1b"),
        ("inception", 8, 3.0, "1f1b"),
        ("inception", 8, 3.0, "zero_bubble"),
        ("inception", 4, 3.0, "1f1b"),
        ("gpt24", 8, 1.2, "1f1b"),
        ("gpt24", 8, 1.2, "zero_bubble"),
    )
    SMOKE = (
        ("toy6", 4, 1.0, "1f1b"),
        ("gpt8", 4, 0.5, "1f1b"),
        ("gpt8", 4, 0.5, "zero_bubble"),
    )

    def __init__(self, seed: int, smoke: bool = False):
        rng = _rng(seed, self.name)
        self.keys = [
            (net, p, m, bw, family)
            for net, p, m, family in (self.SMOKE if smoke else self.INSTANCES)
            for bw in (12.0, 24.0)
        ]
        rng.shuffle(self.keys)
        self.opts = {"ilp_time_limit": ILP_TIME_LIMIT}
        if smoke:
            self.opts.update(grid=Discretization.coarse(), iterations=4)

    def tail_q(self, seconds: float) -> float:
        return 1.0  # fewer than 20 plans per run: the slowest plan

    def setup(self) -> None:
        self.chains = {key[0]: paper_chain(key[0]) for key in self.keys}

    def _instance(self, key):
        net, p, m, bw, family = key
        return self.chains[net], Platform.of(p, m, bw), family

    def measure(self, seconds, trace=None, passes=None) -> Outcome:
        out = Outcome()
        with trace if trace is not None else nullcontext():
            t0 = time.perf_counter()
            while True:
                for key in self.keys:
                    chain, platform, family = self._instance(key)
                    gc.collect()  # no earlier plan's garbage in this one's time or peak
                    t = time.perf_counter()
                    try:
                        with warmstart.activate(False):
                            res = api.plan(chain, platform,
                                           schedule_family=family, **self.opts)
                    except Exception as exc:  # a failed attempt, counted
                        _fail_all(out, [key], exc)
                        continue
                    dt = time.perf_counter() - t
                    out.attempts.append(Attempt(key, dt, res))
                    out.solve_s.append(dt)
                out.passes += 1
                if (passes is None and time.perf_counter() - t0 >= seconds) or (
                    passes is not None and out.passes >= passes
                ):
                    break
            out.wall_s = time.perf_counter() - t0
        out.madpipe = [
            (self._instance(a.key)[1], a.result.raw)
            for a in out.attempts if a.result is not None
        ]
        out.counters["ilp.reach"] = sum(r.ilp is not None for _, r in out.madpipe)
        return out

    def check(self, outcomes: list[Outcome]) -> None:
        first: dict[tuple, str] = {}
        for out in outcomes:
            for a in out.attempts:
                if a.error is not None:
                    continue
                chain, platform, _ = self._instance(a.key)
                blob = canonical(a.result)
                if a.key not in first:
                    a.error = certify_error(chain, platform, a.result)
                    if a.error is None:
                        first[a.key] = blob
                        out.periods[a.key] = a.result.period
                elif blob != first[a.key]:
                    a.error = "plan differs from an earlier cold plan of the same instance"
                else:
                    out.periods[a.key] = a.result.period


class SweepRoomy:
    """One warm ``api.sweep`` (in-process) over a roomy-memory grid.

    At roomy memory phase 1 picks a special processor on most instances,
    so the phase-2 MILP carries a large share of the work; the warm-start
    database and the sweep harness run only here.  Bandwidth is fixed at
    12 GB/s: at 24 GB/s the MILP share and the warm-start reuse both
    drop.  The grid does not depend on the seed: a seeded axis order
    changed which instances reuse warm-start work and moved the median
    instance time by 14% between seeds.
    """

    name = "sweep-roomy"
    slo_s = 5.0
    NETWORKS, PROCS, MEMORIES = ("resnet50", "inception"), (4, 8), (8, 10, 12, 14, 16)
    SMOKE = ("toy6", "gpt8"), (2, 4), (1.0, 2.0)
    BANDWIDTH = 12.0

    #: processes the untimed cold check is split over
    CHECK_SHARDS = 2

    def __init__(self, seed: int, smoke: bool = False):
        self.seed, self.smoke = seed, smoke
        axes = self.SMOKE if smoke else (self.NETWORKS, self.PROCS, self.MEMORIES)
        self.spec = api.SweepSpec(*axes, (self.BANDWIDTH,), ("madpipe",))
        self.opts = dict(grid=Discretization.coarse(), ilp_time_limit=ILP_TIME_LIMIT)
        if smoke:
            self.opts["iterations"] = 4

    def tail_q(self, seconds: float) -> float:
        return 1.0

    def setup(self) -> None:
        for net in self.spec.networks:  # the sweep builds its own chains
            paper_chain(net)

    def keys(self):
        return [
            (net, p, float(m), self.BANDWIDTH, "madpipe")
            for net in self.spec.networks for p in self.spec.procs
            for m in self.spec.memories_gb
        ]

    def measure(self, seconds, trace=None, passes=None) -> Outcome:
        out = Outcome()
        sweep_s = 0.0
        warm: dict[str, int] = {}
        with trace if trace is not None else nullcontext():
            t0 = time.perf_counter()
            while True:
                warmstart.reset_process_context()  # each sweep starts cold
                gc.collect()
                t = time.perf_counter()
                try:
                    res = api.sweep(self.spec, warm_start=True, n_workers=1,
                                    **self.opts)
                except Exception as exc:
                    _fail_all(out, self.keys(), exc)
                else:
                    for r in res.results:
                        err = f"status {r.status}" if r.status in FAIL_STATUSES else None
                        out.attempts.append(Attempt(r.key, r.runtime_s, r, err))
                        out.solve_s.append(r.runtime_s)
                    for k, v in res.summary()["warm"].items():
                        warm[k] = warm.get(k, 0) + v
                sweep_s += time.perf_counter() - t
                out.passes += 1
                if (passes is None and time.perf_counter() - t0 >= seconds) or (
                    passes is not None and out.passes >= passes
                ):
                    break
            out.wall_s = time.perf_counter() - t0
        out.counters["sweep_s"] = sweep_s
        out.counters.update({f"warmstart.{k}": v for k, v in warm.items()})
        if trace is not None:
            out.madpipe = list(trace.madpipe_results)
            out.counters["ilp.reach"] = sum(r.ilp is not None for _, r in out.madpipe)
        return out

    def cold_shard(self, index: int, count: int) -> list:
        """Cold solves of every ``count``-th instance from ``index`` on:
        ``[status, dp_period, period, n_stages, error]`` each."""
        return [_cold_reference((*key[:4], self.opts))
                for key in self.keys()[index::count]]

    def _cold_references(self) -> dict:
        """Cold solves of every instance, split over ``CHECK_SHARDS`` child
        processes (nothing is timed here).  Plain child processes, each
        waited for: a multiprocessing pool would leave its resource
        tracker running past this process."""
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", self.name, "--seed", str(self.seed)]
        if self.smoke:
            cmd.append("--smoke")
        procs = []
        try:
            for i in range(self.CHECK_SHARDS):
                procs.append(subprocess.Popen(
                    cmd + ["--cold-shard", f"{i}/{self.CHECK_SHARDS}"],
                    stdout=subprocess.PIPE, text=True,
                ))
            shards = []
            for proc in procs:
                stdout, _ = proc.communicate(timeout=150)
                if proc.returncode != 0:
                    raise RuntimeError(f"cold check process exited with {proc.returncode}")
                shards.append(json.loads(stdout.strip().splitlines()[-1]))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        keys = self.keys()
        cold = {}
        for i, shard in enumerate(shards):
            cold.update(zip(keys[i::self.CHECK_SHARDS], map(tuple, shard)))
        return cold

    def check(self, outcomes: list[Outcome]) -> None:
        """Every warm result must equal a cold solve of its instance."""
        cold = self._cold_references()
        for out in outcomes:
            for a in out.attempts:
                if a.error is not None:
                    continue
                r = a.result
                status, dp_period, period, n_stages, err = cold[a.key]
                if err is not None:
                    a.error = "cold reference: " + err
                elif (r.status, r.dp_period, r.valid_period, r.n_stages) != (
                    status, dp_period, period, n_stages
                ):
                    a.error = (
                        f"warm result {(r.status, r.dp_period, r.valid_period)} "
                        f"!= cold {(status, dp_period, period)}"
                    )
                else:
                    out.periods[a.key] = period


def _cold_reference(args) -> tuple:
    """Cold solve and re-certification of one swept instance (runs in a
    child process): ``(status, dp_period, period, n_stages, error)``."""
    net, p, m, bw, opts = args
    chain, platform = paper_chain(net), Platform.of(p, m, bw)
    with warmstart.activate(False):
        ref = api.plan(chain, platform, **opts)
    n_stages = ref.raw.allocation.n_stages if ref.raw.allocation else 0
    return ref.status, ref.dp_period, ref.period, n_stages, certify_error(chain, platform, ref)


class ServeZipf:
    """Open loop into one ``api.serve`` with one solver worker process.

    A start-up burst of one request per pool spec is followed by requests
    at ``RATE`` per second, each picking its spec from a fixed-rank Zipf
    law over the pool (see :meth:`arrivals`); every arrival builds a
    fresh request, so fingerprinting is paid each time.
    The LRU holds fewer plans than the pool, so hits come from both cache
    tiers, while first requests solve in the worker and append to the
    fsync'd store.  Latency runs from each request's *scheduled* send
    time.  The median measures the serve layer, the tail the solver.
    """

    name = "serve-zipf"
    slo_s = 0.1  # replies answered correctly within 100 ms count for slo_share
    RATE = 40.0  # requests per second
    ZIPF_S = 1.1
    MEMORY_ENTRIES = 8
    # (network, P, memory GB, algorithm, family), hottest first; ranked by
    # cold solve time, the most expensive hottest, so the tail is the time
    # the worker takes to drain the start-up burst (≈ the pool's total
    # solve time) rather than which late specs a seed happens to draw early
    POOL = (
        ("resnet50", 8, 8.0, "madpipe", "1f1b"),
        ("resnet50", 4, 8.0, "madpipe", "1f1b"),
        ("resnet50", 4, 8.0, "madpipe", "zero_bubble"),
        ("inception", 4, 8.0, "madpipe", "zero_bubble"),
        ("resnet50", 8, 16.0, "madpipe", "1f1b"),
        ("inception", 4, 8.0, "madpipe", "1f1b"),
        ("inception", 8, 8.0, "madpipe", "1f1b"),
        ("resnet50", 4, 16.0, "madpipe", "zero_bubble"),
        ("resnet50", 4, 16.0, "madpipe", "1f1b"),
        ("inception", 8, 3.0, "madpipe", "1f1b"),
        ("inception", 8, 3.0, "madpipe", "zero_bubble"),
        ("resnet50", 8, 16.0, "pipedream", "1f1b"),
        ("resnet50", 4, 8.0, "pipedream", "1f1b"),
        ("resnet50", 4, 16.0, "pipedream", "1f1b"),
        ("inception", 8, 8.0, "pipedream", "1f1b"),
        ("inception", 4, 8.0, "pipedream", "1f1b"),
    )
    SMOKE = (
        ("toy6", 2, 1.0, "madpipe", "1f1b"),
        ("gpt8", 4, 1.0, "madpipe", "1f1b"),
        ("toy6", 4, 1.0, "pipedream", "1f1b"),
        ("gpt8", 4, 0.5, "madpipe", "zero_bubble"),
        ("gpt8", 2, 2.0, "madpipe", "1f1b"),
    )
    BANDWIDTH = 12.0

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.pool = self.SMOKE if smoke else self.POOL
        self.memory_entries = 2 if smoke else self.MEMORY_ENTRIES
        self.iterations = 4 if smoke else 8

    def tail_q(self, seconds: float) -> float:
        """The highest percentile with ten replies beyond it (p98.8 of the
        816 replies of a 20 s run)."""
        return max(0.5, 1.0 - 10.0 / len(self.arrivals(seconds)))

    def _opts(self, spec) -> dict:
        if spec[3] != "madpipe":
            return {}
        return dict(grid=Discretization.coarse(), iterations=self.iterations,
                    ilp_time_limit=ILP_TIME_LIMIT, schedule_family=spec[4])

    def arrivals(self, seconds: float) -> list[tuple[float, int]]:
        """Seeded (offset, pool index) pairs for one stream of ``seconds``.

        A start-up burst of one request per pool spec, in rank order,
        then a Poisson process conditioned on its count: ``RATE ·
        seconds`` arrivals at sorted uniform offsets.  The burst fixes
        the order in which the single worker solves the pool; left to
        the seed's first arrivals, that order moved the tail and
        ``slo_share`` by 20-60% between seeds.
        """
        rng = _rng(self.seed, self.name)
        n = max(1, round(self.RATE * seconds))
        offsets = sorted(rng.uniform(0.0, seconds) for _ in range(n))
        weights = [1.0 / (r + 1) ** self.ZIPF_S for r in range(len(self.pool))]
        burst = [(0.0, idx) for idx in range(len(self.pool))]
        return burst + list(zip(offsets, rng.choices(range(len(self.pool)), weights, k=n)))

    def setup(self) -> None:
        self.chains = {spec[0]: paper_chain(spec[0]) for spec in self.pool}
        asyncio.run(self._with_service(None))

    async def _with_service(self, body):
        """Start a service on a fresh store, spawn its solver process,
        run ``body(service)`` and shut everything down again."""
        TMP_ROOT.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=TMP_ROOT))
        try:
            service = api.serve(store=tmp / "plans.jsonl", max_workers=1,
                                memory_entries=self.memory_entries)
            try:
                # spawn the worker now, so the first miss does not pay for it
                await asyncio.get_running_loop().run_in_executor(
                    service._executor(), int
                )
                return None if body is None else await body(service)
            finally:
                if service._pool is not None:
                    # close() does not join the worker; wait for it to end
                    service._pool.shutdown(wait=True)
                await service.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                TMP_ROOT.rmdir()
            except OSError:  # another run's store is still there
                pass

    def measure(self, seconds, trace=None, passes=None) -> Outcome:
        schedule = self.arrivals(seconds)

        async def stream(service) -> Outcome:
            out = Outcome(passes=1)

            async def one(idx: int, due: float) -> None:
                spec = self.pool[idx]
                net, p, m, algorithm, _ = spec
                request = service.request(
                    self.chains[net], Platform.of(p, m, self.BANDWIDTH),
                    algorithm=algorithm, **self._opts(spec),
                )
                try:
                    reply = await service.handle(request)
                except Exception as exc:  # a failed attempt, counted
                    out.attempts.append(Attempt(
                        (idx,), None, error=f"{type(exc).__name__}: {exc}"))
                    return
                out.attempts.append(Attempt(
                    (idx,), time.perf_counter() - due, reply,
                    served_from=reply.served_from,
                ))

            with trace if trace is not None else nullcontext():
                tasks = []
                t0 = time.perf_counter()
                for offset, idx in schedule:
                    due = t0 + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    out.gen_lag_s.append(time.perf_counter() - due)
                    tasks.append(asyncio.create_task(one(idx, due)))
                await asyncio.gather(*tasks)
                out.wall_s = time.perf_counter() - t0
            return out

        return asyncio.run(self._with_service(stream))

    def check(self, outcomes: list[Outcome]) -> None:
        """Every reply must be byte-identical to a cold ``api.plan`` of its
        spec, whose pattern is re-certified."""
        refs, errs, solve_s, madpipe, periods = {}, {}, [], [], {}
        warmstart.reset_process_context()
        for idx, spec in enumerate(self.pool):
            net, p, m, algorithm, _ = spec
            chain, platform = self.chains[net], Platform.of(p, m, self.BANDWIDTH)
            gc.collect()
            t = time.perf_counter()
            with warmstart.activate(False):
                ref = api.plan(chain, platform, algorithm=algorithm, **self._opts(spec))
            dt = time.perf_counter() - t
            refs[idx] = canonical(ref)
            errs[idx] = certify_error(chain, platform, ref)
            periods[(idx,)] = ref.period
            if algorithm == "madpipe":  # PipeDream's 10-40 ms solves are timer noise
                solve_s.append(dt)
                madpipe.append((platform, ref.raw))
        for out in outcomes:
            out.solve_s, out.madpipe, out.periods = solve_s, madpipe, periods
            out.counters["ilp.reach"] = sum(r.ilp is not None for _, r in madpipe)
            for a in out.attempts:
                if a.error is not None:
                    continue
                idx = a.key[0]
                if errs[idx] is not None:
                    a.error = "cold reference: " + errs[idx]
                elif canonical(a.result.result) != refs[idx]:
                    a.error = f"reply for pool spec {idx} differs from cold api.plan"


WORKLOADS = {w.name: w for w in (PlanTight, SweepRoomy, ServeZipf)}
