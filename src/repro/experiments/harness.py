"""Experiment harness: run algorithms over scenario grids, cache results.

Every (network, P, M, β, algorithm) instance yields a :class:`RunResult`
with both the optimizer's own estimate (``dp_period``, the dashed lines
of Fig. 6) and the certified valid-schedule period (``valid_period``, the
solid lines), plus a ``status`` recording how the instance ended:

``ok``
    a certified schedule with no solver-budget trouble;
``degraded``
    a certified schedule, but the phase-2 MILP exhausted its time budget
    somewhere along the way (the period carries the contiguous fallback or
    an uncertified search outcome — valid, possibly improvable);
``solver_timeout``
    no schedule, and the failure is a time-limit hit rather than proven
    infeasibility (re-running with a larger budget may succeed);
``infeasible``
    certified: no valid schedule exists for the instance;
``error``
    the instance crashed or exceeded its deadline repeatedly and was
    recorded instead of re-raised (``on_exhausted="record"``), *or* its
    schedule failed the discrete-event certification gate and no
    certified fallback existed — the quarantined period is withheld
    (``valid_period = inf``), never recorded as valid.

Sweeps are built to *survive*:

* :func:`run_grid` fans uncached instances out over a
  ``ProcessPoolExecutor`` when ``n_workers > 1``, retries crashed or
  timed-out instances with exponential backoff and jitter
  (``max_retries``), restarts the pool after a hard worker death
  (``BrokenProcessPool``), enforces a per-instance deadline *inside*
  the worker (``instance_timeout``, SIGALRM), and flushes the cache on
  the way out even when interrupted — a sweep killed mid-run resumes
  from the cache and re-runs only missing (and, with
  ``retry_failed=True``, previously failed) instances;
* :class:`ResultCache` persists results to an *append-only* JSON-Lines
  file with fsync'd batched appends; legacy JSON-array caches are
  migrated atomically (temp file + rename), corrupt or truncated
  trailing lines are quarantined on load (the valid prefix is recovered
  and the dropped lines are logged and copied to a ``.quarantine``
  sidecar), and :func:`verify_cache` audits a cache file without
  touching it.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import obs, warmstart
from ..algorithms.madpipe import madpipe
from ..algorithms.madpipe_dp import Discretization
from ..algorithms.pipedream import pipedream
from ..core.chain import Chain
from ..core.platform import GB, GBPS, Platform
from ..robust import certify_pattern
from ..testing import faults
from .scenarios import paper_chain

__all__ = [
    "RunResult",
    "RESULT_STATUSES",
    "SweepInstanceError",
    "InstanceTimeoutError",
    "run_instance",
    "run_grid",
    "save_results",
    "load_results",
    "JsonlCache",
    "ResultCache",
    "verify_cache",
]

INF = float("inf")

log = logging.getLogger(__name__)

#: The failure taxonomy; ``RunResult.status`` is always one of these.
RESULT_STATUSES = ("ok", "degraded", "solver_timeout", "infeasible", "error")

#: Cached statuses that ``run_grid(..., retry_failed=True)`` re-runs.
RETRY_STATUSES = ("solver_timeout", "error")


class SweepInstanceError(Exception):
    """One grid instance kept failing after every retry.

    Deliberately *not* a ``RuntimeError``: the pool-unavailable fallback
    in :func:`run_grid` catches ``RuntimeError`` and must never swallow
    this.
    """

    def __init__(self, spec: tuple, attempts: int, cause: BaseException):
        super().__init__(
            f"sweep instance {spec!r} failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.spec = spec
        self.attempts = attempts
        self.cause = cause


class InstanceTimeoutError(RuntimeError):
    """A worker blew its per-instance deadline (``instance_timeout``)."""


@dataclass
class RunResult:
    """One algorithm run on one scenario."""

    network: str
    n_procs: int
    memory_gb: float
    bandwidth_gbps: float
    algorithm: str  # "pipedream" | "madpipe"
    dp_period: float  # the optimizer's internal estimate (dashed)
    valid_period: float  # certified schedule period (solid); inf if none
    n_stages: int
    runtime_s: float
    sequential: float  # U(1, L), for speedups
    status: str = "ok"  # one of RESULT_STATUSES
    failure: str | None = None  # human-readable reason when status != "ok"

    @property
    def feasible(self) -> bool:
        return self.valid_period != INF

    @property
    def speedup(self) -> float:
        return self.sequential / self.valid_period if self.feasible else 0.0

    @property
    def key(self) -> tuple:
        return (
            self.network,
            self.n_procs,
            self.memory_gb,
            self.bandwidth_gbps,
            self.algorithm,
        )


def run_instance(
    chain: Chain,
    platform: Platform,
    algorithm: str,
    *,
    network: str = "",
    grid: Discretization | None = None,
    iterations: int = 10,
    ilp_time_limit: float = 60.0,
    schedule_family: str = "1f1b",
) -> RunResult:
    """Run one algorithm on one (chain, platform) instance.

    ``schedule_family`` is a solver option like ``grid``/``iterations``:
    it selects the pattern family (1F1B or zero-bubble B/W split) but is
    not part of the instance's cache identity — sweeps of different
    families belong in different cache files.
    """
    t0 = time.perf_counter()
    status = "ok"
    failure: str | None = None
    with obs.span(
        "instance",
        network=network or chain.name,
        algorithm=algorithm,
        n_procs=platform.n_procs,
        memory_gb=platform.memory / GB,
        bandwidth_gbps=platform.bandwidth / GBPS,
    ) as inst_span:
        if algorithm == "pipedream":
            res = pipedream(chain, platform, schedule_family=schedule_family)
            dp, valid = res.dp_period, res.period
            n_stages = res.partitioning.n_stages if res.feasible else 0
            if not res.feasible:
                status, failure = (
                    "infeasible",
                    "pipedream found no memory-feasible schedule",
                )
            else:
                # certification gate: pipedream has no fallback schedule,
                # so a rejected pattern is quarantined as an error, never
                # recorded as a valid period
                cert = certify_pattern(
                    chain,
                    platform,
                    res.schedule.pattern if res.schedule is not None else None,
                    source=f"pipedream:{network or chain.name}",
                )
                if not cert.ok:
                    obs.inc("certify.quarantined")
                    valid = INF
                    status = "error"
                    failure = "certification failed: " + "; ".join(cert.violations)
        elif algorithm == "madpipe":
            res = madpipe(
                chain,
                platform,
                grid=grid,
                iterations=iterations,
                ilp_time_limit=ilp_time_limit,
                schedule_family=schedule_family,
            )
            dp, valid = res.dp_period, res.period
            n_stages = res.allocation.n_stages if res.allocation is not None else 0
            status = res.status
            if status != "ok":
                failure = "; ".join(res.notes) or None
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        inst_span.set(status=status, period=valid if valid != INF else None)
    obs.inc("sweep.instances")
    return RunResult(
        network=network or chain.name,
        n_procs=platform.n_procs,
        memory_gb=platform.memory / GB,
        bandwidth_gbps=platform.bandwidth / GBPS,
        algorithm=algorithm,
        dp_period=dp,
        valid_period=valid,
        n_stages=n_stages,
        runtime_s=time.perf_counter() - t0,
        sequential=chain.total_compute(),
        status=status,
        failure=failure,
    )


def _spec_key(spec: tuple) -> str:
    return "|".join(str(s) for s in spec)


@contextmanager
def _deadline(seconds: float | None, spec: tuple):
    """Enforce a wall-clock deadline inside the current (worker) process.

    On the POSIX main thread this uses ``SIGALRM``, so it interrupts even
    a HiGHS solve stuck inside C code between Python byte codes.  Off the
    main thread (the plan service's ``max_workers=0`` inline mode solves
    on the event loop's thread pool) a watchdog thread arms instead and
    delivers :class:`InstanceTimeoutError` asynchronously — that fires
    only between byte codes, so it cannot cut short a wedged C call, but
    it bounds every pure-Python solve instead of silently doing nothing.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if os.name == "posix" and threading.current_thread() is threading.main_thread():

        def _alarm(signum, frame):
            raise InstanceTimeoutError(
                f"instance {spec!r} exceeded its {seconds:g}s deadline"
            )

        old_handler = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
        return

    with _thread_deadline(seconds, spec):
        yield


@contextmanager
def _thread_deadline(seconds: float, spec: tuple):
    """Wall-clock deadline for non-main-thread callers.

    A watchdog thread waits ``seconds``; if the protected block is still
    running it schedules :class:`InstanceTimeoutError` in the target
    thread via ``PyThreadState_SetAsyncExc`` (the same mechanism behind
    ``KeyboardInterrupt`` delivery).  The exit path runs under a lock so
    the watchdog can never fire into code *after* the block; a pending
    async exception that did not surface in time is cancelled.
    """
    import ctypes

    tid = threading.get_ident()
    cancel = threading.Event()
    lock = threading.Lock()
    fired = False

    def _watchdog() -> None:
        nonlocal fired
        if cancel.wait(seconds):
            return
        with lock:
            if cancel.is_set():
                return
            fired = True
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(tid), ctypes.py_object(InstanceTimeoutError)
            )

    watchdog = threading.Thread(
        target=_watchdog, name="repro-deadline", daemon=True
    )
    watchdog.start()
    try:
        yield
    except InstanceTimeoutError as exc:
        if exc.args:
            raise
        raise InstanceTimeoutError(
            f"instance {spec!r} exceeded its {seconds:g}s deadline"
        ) from None
    finally:
        with lock:
            cancel.set()
            if fired and sys.exc_info()[0] is None:
                # the async exception is scheduled but has not surfaced
                # yet: withdraw it so it cannot detonate downstream
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(tid), None
                )
        watchdog.join(timeout=1.0)


def _run_spec(
    spec: tuple,
    grid: Discretization | None,
    iterations: int,
    ilp_time_limit: float,
    instance_timeout: float | None = None,
    observe: bool = False,
    warm_start: bool = False,
    schedule_family: str = "1f1b",
):
    """Worker entry point: rebuild the (cached-per-process) chain from the
    network name and run one instance.  Must stay module-level picklable.

    With ``observe=True`` the instance runs under a fresh trace + metrics
    registry and the return value is a ``(RunResult, counts, spans)``
    triple — plain dicts/lists so it pickles across the process pool and
    the parent can merge counters / append spans deterministically.

    With ``warm_start=True`` the instance solves against the per-process
    warm-start database (:mod:`repro.warmstart`) — shared across a serial
    sweep's instances, and per worker process under the pool.  With
    ``warm_start=False`` the database is explicitly masked, so cold
    sweeps stay cold even after warm ones ran in the same process.
    """
    network, p, m, b, algo = spec

    def _run() -> RunResult:
        with _deadline(instance_timeout, spec):
            # inside the deadline, so a "sleep" fault models a hung solve
            faults.fire("worker", key=_spec_key(spec))
            return run_instance(
                paper_chain(network),
                Platform.of(p, m, b),
                algo,
                network=network,
                grid=grid,
                iterations=iterations,
                ilp_time_limit=ilp_time_limit,
                schedule_family=schedule_family,
            )

    with warmstart.activate(warm_start):
        if not observe:
            return _run()
        trace = obs.Trace(_spec_key(spec))
        registry = obs.MetricsRegistry()
        with obs.use_trace(trace), obs.use_metrics(registry):
            result = _run()
        return result, registry.snapshot(), [s.to_dict() for s in trace.roots]


def _error_result(spec: tuple, exc: BaseException) -> RunResult:
    """Typed stand-in for an instance that exhausted its retries."""
    network, p, m, b, algo = spec
    status = "solver_timeout" if isinstance(exc, InstanceTimeoutError) else "error"
    return RunResult(
        network=network,
        n_procs=p,
        memory_gb=m,
        bandwidth_gbps=b,
        algorithm=algo,
        dp_period=INF,
        valid_period=INF,
        n_stages=0,
        runtime_s=0.0,
        sequential=0.0,
        status=status,
        failure=f"{type(exc).__name__}: {exc}",
    )


def run_grid(
    networks: tuple[str, ...],
    procs: tuple[int, ...],
    memories_gb: tuple[float, ...],
    bandwidths_gbps: tuple[float, ...],
    *,
    algorithms: tuple[str, ...] = ("pipedream", "madpipe"),
    grid: Discretization | None = None,
    iterations: int = 10,
    ilp_time_limit: float = 60.0,
    schedule_family: str = "1f1b",
    cache: "ResultCache | None" = None,
    verbose: bool = False,
    n_workers: int = 1,
    instance_timeout: float | None = None,
    max_retries: int = 2,
    retry_backoff_s: float = 1.0,
    retry_failed: bool = False,
    on_exhausted: str = "raise",
    trace_path: str | Path | None = None,
    warm_start: bool = False,
) -> list[RunResult]:
    """Run a full scenario grid, replaying cached instances if available.

    ``schedule_family`` selects the pattern family every instance builds
    (1F1B or the zero-bubble B/W split).  Like ``grid``/``iterations``
    it is a solver option, not part of the cache identity: sweeps of
    different families must use different cache files.

    ``n_workers > 1`` dispatches uncached instances to a process pool;
    results come back in the same deterministic (network, P, β, M,
    algorithm) order as the serial loop, and new results are written to
    ``cache`` as they complete so interrupted sweeps stay resumable.

    Resilience knobs:

    * ``instance_timeout`` — wall-clock deadline per instance, enforced
      with ``SIGALRM`` inside the worker;
    * ``max_retries`` — each crashed or timed-out instance is retried
      this many times, in rounds with exponential backoff and jitter; a
      hard worker death (``BrokenProcessPool``) restarts the pool and
      charges one attempt to every unfinished instance of the round;
    * ``on_exhausted`` — ``"raise"`` (default) raises
      :class:`SweepInstanceError` identifying the failing spec once its
      retries are spent; ``"record"`` stores a typed ``error`` /
      ``solver_timeout`` result instead and lets the sweep complete;
    * ``retry_failed`` — also re-run cached instances whose status is in
      :data:`RETRY_STATUSES` (the ``--resume`` semantics).

    Observability: with ``trace_path`` set (or a metrics registry
    installed via :func:`repro.obs.use_metrics`), every instance —
    serial or pooled — runs under its own trace + registry; counters are
    merged into the caller's registry as results return (deterministic:
    counter sums are order-independent), and each finished instance's
    spans are appended to ``trace_path`` as one JSON-Lines record
    ``{"spec": […], "spans": […]}``.  The trace file is opened once for
    the whole sweep (on the first record) and flushed per record, so a
    killed sweep keeps every finished instance's spans.  Spans of
    attempts that failed and were retried are dropped; a resumed sweep
    appends to the same file.

    ``warm_start=True`` solves instances against the per-process
    warm-start database (:mod:`repro.warmstart`): uncached instances are
    ordered so (network, P, β, algorithm) neighbors run consecutively at
    *descending* memory — infeasibility certificates transfer downward —
    and every solver layer reuses its neighbors' exact-key precomputation.
    Results are bit-identical to a cold sweep; only ``runtime_s`` and the
    ``warm.*`` counters differ.  The default stays cold for
    backward-compatible determinism of per-call counters; the
    :func:`repro.api.sweep` facade and the CLI default to warm.

    Duplicate specs (e.g. a grid with repeated memory values) are solved
    once and fanned out, counted as ``sweep.dedup_hits``.

    The cache is flushed on *every* exit path, including
    ``KeyboardInterrupt``, so completed instances are never lost.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if on_exhausted not in ("raise", "record"):
        raise ValueError('on_exhausted must be "raise" or "record"')
    specs: list[tuple] = [
        (network, p, float(m), float(b), algo)
        for network in networks
        for p in procs
        for b in bandwidths_gbps
        for m in memories_gb
        for algo in algorithms
    ]
    observe = trace_path is not None or obs.active_metrics() is not None
    out: list[RunResult | None] = [None] * len(specs)
    remaining: set[int] = set()
    primary: dict[tuple, int] = {}  # spec -> first index solving it
    dup_map: dict[int, list[int]] = {}  # primary index -> duplicate indices
    for i, spec in enumerate(specs):
        j = primary.setdefault(spec, i)
        if j != i:
            dup_map.setdefault(j, []).append(i)
            obs.inc("sweep.dedup_hits")
            continue
        hit = cache.get(spec) if cache is not None else None
        if hit is not None and not (retry_failed and hit.status in RETRY_STATUSES):
            out[i] = hit
            obs.inc("sweep.cache_hits")
        else:
            remaining.add(i)
    for j, dups in dup_map.items():  # fan cached primaries out right away
        if out[j] is not None:
            for i in dups:
                out[i] = out[j]

    attempts = dict.fromkeys(remaining, 0)
    n_recorded = 0
    trace_fh = None  # one handle for the sweep, opened on first record

    def unwrap(payload) -> RunResult:
        """Fold an observed worker's (result, counts, spans) triple back
        into the parent: merge counters, append the instance's spans."""
        nonlocal trace_fh
        if not observe or isinstance(payload, RunResult):
            return payload
        result, counts, spans = payload
        registry = obs.active_metrics()
        if registry is not None:
            registry.merge(counts)
        if trace_path is not None and spans:
            line = json.dumps({"spec": list(result.key), "spans": spans})
            if trace_fh is None:
                trace_fh = open(trace_path, "a")
            trace_fh.write(line + "\n")
            trace_fh.flush()
        return result

    def record(i: int, r: RunResult) -> None:
        nonlocal n_recorded
        out[i] = r
        if cache is not None:
            cache.put(r)
        n_recorded += 1
        if verbose:
            network, p, m, b, algo = specs[i]
            print(
                f"{network} P={p} M={m} beta={b} {algo}: "
                f"dp={r.dp_period:.4f} valid={r.valid_period:.4f} "
                f"[{r.status}] ({r.runtime_s:.1f}s)"
            )
        faults.fire("sweep_record", key=str(n_recorded))

    def finish(i: int, r: RunResult) -> None:
        record(i, r)
        remaining.discard(i)
        for j in dup_map.get(i, ()):  # duplicates share the result (no re-put:
            out[j] = r  # a second cache.put of the same key forces a rewrite)

    def fail(i: int, exc: BaseException) -> None:
        attempts[i] += 1
        if attempts[i] <= max_retries:
            obs.inc("sweep.retries")
            if verbose:
                print(
                    f"instance {specs[i]!r} failed "
                    f"({type(exc).__name__}: {exc}); "
                    f"retry {attempts[i]}/{max_retries}"
                )
            return
        if on_exhausted == "record":
            if verbose:
                print(f"instance {specs[i]!r} exhausted retries; recording error")
            finish(i, _error_result(specs[i], exc))
        else:
            raise SweepInstanceError(specs[i], attempts[i], exc) from exc

    pool_ok = n_workers > 1
    round_no = 0
    try:
        while remaining:
            if round_no > 0:  # back off with jitter before any retry round
                delay = min(retry_backoff_s * 2 ** (round_no - 1), 30.0)
                time.sleep(delay * (1.0 + 0.25 * random.random()))
            round_no += 1
            batch = sorted(remaining)
            if warm_start:
                # neighbor order: (network, P, β, algorithm) runs stay
                # consecutive with memory *descending*, so certified
                # infeasibility flows from roomy instances to tight ones
                batch.sort(
                    key=lambda i: (
                        specs[i][0], specs[i][1], specs[i][3], specs[i][4],
                        -specs[i][2], i,
                    )
                )
            if pool_ok and len(batch) > 1:
                try:
                    with ProcessPoolExecutor(max_workers=n_workers) as pool:
                        futures = {
                            pool.submit(
                                _run_spec,
                                specs[i],
                                grid,
                                iterations,
                                ilp_time_limit,
                                instance_timeout,
                                observe,
                                warm_start,
                                schedule_family,
                            ): i
                            for i in batch
                        }
                        for fut in as_completed(futures):
                            i = futures[fut]
                            try:
                                finish(i, unwrap(fut.result()))
                            except (BrokenProcessPool, KeyboardInterrupt, SystemExit):
                                raise
                            except SweepInstanceError:
                                raise
                            except Exception as exc:
                                fail(i, exc)
                except BrokenProcessPool as exc:
                    # a worker died hard (SIGKILL/os._exit): every
                    # unfinished instance of the round is charged one
                    # attempt, then the pool is rebuilt next round
                    obs.inc("sweep.pool_restarts")
                    if verbose:
                        print(f"process pool broke ({exc}); restarting")
                    for i in [j for j in batch if j in remaining]:
                        fail(i, exc)
                except (OSError, RuntimeError) as exc:  # pool unavailable → serial
                    if verbose:
                        print(f"process pool failed ({exc}); falling back to serial")
                    pool_ok = False
            else:
                for i in batch:
                    try:
                        finish(
                            i,
                            unwrap(
                                _run_spec(
                                    specs[i],
                                    grid,
                                    iterations,
                                    ilp_time_limit,
                                    instance_timeout,
                                    observe,
                                    warm_start,
                                    schedule_family,
                                )
                            ),
                        )
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except SweepInstanceError:
                        raise
                    except Exception as exc:
                        fail(i, exc)
    finally:
        try:
            if cache is not None:
                cache.flush()
        finally:
            if trace_fh is not None:
                trace_fh.close()
    return out


# ------------------------------------------------------------ serialization

#: Fields every cache record must carry (status/failure are optional for
#: records written before the failure taxonomy existed).
_CORE_FIELDS = (
    "network",
    "n_procs",
    "memory_gb",
    "bandwidth_gbps",
    "algorithm",
    "dp_period",
    "valid_period",
    "n_stages",
    "runtime_s",
    "sequential",
)
_FIELDS = _CORE_FIELDS + ("status", "failure")
#: Numeric fields; periods may be ``null`` (= inf), nothing may be NaN.
_NUMERIC_FIELDS = tuple(f for f in _CORE_FIELDS if f not in ("network", "algorithm"))


def _reject_nan(name: str) -> float:
    raise ValueError(f"non-finite JSON constant {name!r}")


def _record_from_dict(d: object) -> RunResult:
    """Strict-parse one serialized record; raises ``ValueError`` on any
    missing field, NaN/Infinity constant, wrong type or unknown status."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    missing = [f for f in _CORE_FIELDS if f not in d]
    if missing:
        raise ValueError(f"missing fields {missing}")
    d = {k: v for k, v in d.items() if k in _FIELDS}
    for k in _NUMERIC_FIELDS:
        v = d[k]
        if v is None and k in ("dp_period", "valid_period"):
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"field {k!r} must be a finite number, got {v!r}")
    for k in ("dp_period", "valid_period"):
        if d[k] is None:
            d[k] = INF
    d.setdefault("status", "ok" if d["valid_period"] != INF else "infeasible")
    d.setdefault("failure", None)
    if d["status"] not in RESULT_STATUSES:
        raise ValueError(f"unknown status {d['status']!r}")
    return RunResult(**d)


def _to_jsonable(r: RunResult) -> dict:
    d = asdict(r)
    for k in ("dp_period", "valid_period"):
        if d[k] == INF:
            d[k] = None
    return d


def _from_jsonable(d: dict) -> RunResult:
    return _record_from_dict(d)


def save_results(results: list[RunResult], path: str | Path) -> None:
    """Persist results as a JSON array (``inf`` encoded as ``null``).

    This is the legacy bulk format; :class:`ResultCache` writes JSONL.
    """
    payload = [_to_jsonable(r) for r in results]
    Path(path).write_text(json.dumps(payload, indent=1))


def load_results(path: str | Path) -> list[RunResult]:
    """Load results written by :func:`save_results` *or* by the JSONL
    :class:`ResultCache` — the format is sniffed from the first byte.

    Strict: a corrupt line, a NaN/Infinity constant or a malformed
    record raises ``ValueError`` naming the offending line, instead of
    propagating garbage into the figure generators.  Use
    :class:`ResultCache` (which quarantines and recovers) or
    :func:`verify_cache` for damaged files.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if not stripped:
        return []
    if stripped[0] == "[":
        payload = json.loads(text, parse_constant=_reject_nan)
        out = []
        for i, d in enumerate(payload):
            try:
                out.append(_record_from_dict(d))
            except ValueError as exc:
                raise ValueError(f"{path}: record {i}: {exc}") from exc
        return out
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(_record_from_dict(json.loads(line, parse_constant=_reject_nan)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: corrupt cache line: {exc}") from exc
    return out


# ------------------------------------------------------------------ cache


class JsonlCache:
    """Append-only JSONL cache with quarantine, repair and batched flushes.

    The hardened persistence core behind :class:`ResultCache` (sweep
    results keyed by scenario tuple) and the plan server's
    :class:`repro.serve.PlanStore` (plans keyed by request fingerprint).
    Subclasses define the record codec: :meth:`_encode` (record →
    JSON-ready dict), :meth:`_decode` (parsed dict → record, raising
    ``ValueError`` on anything malformed) and :meth:`_key` (record →
    hashable cache key).

    Each :meth:`put` buffers one record; buffers are appended to the file
    every ``flush_every`` inserts (and on :meth:`flush`/context exit) in
    a single fsync'd write, so inserting N results costs O(N) I/O and a
    killed process loses at most the unflushed buffer.

    Loading is *recovering*: corrupt, truncated or NaN-bearing lines are
    quarantined (logged, appended to a ``<name>.quarantine`` sidecar)
    and the valid remainder is kept; the first subsequent flush rewrites
    the file clean.  Duplicate keys resolve last-write-wins.  Concurrent
    processes may append to the same cache (each flush is one
    ``O_APPEND`` write); only migration/repair rewrites, which assumes a
    single writer.
    """

    def __init__(self, path: str | Path, *, flush_every: int = 1):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        self.flush_every = flush_every
        self._data: dict = {}
        self._pending: list = []
        self._legacy = False
        self._needs_rewrite = False
        self.quarantined: list[tuple[int, str, str]] = []  # (lineno, reason, line)
        if self.path.exists():
            self._load()

    # -- record codec (subclass responsibility) ----------------------------

    def _encode(self, record) -> dict:
        """JSON-ready dict for one record."""
        raise NotImplementedError

    def _decode(self, obj: dict):
        """Parse one record dict; must raise ``ValueError`` if malformed."""
        raise NotImplementedError

    def _key(self, record):
        """Hashable cache key of one record."""
        raise NotImplementedError

    def _load_legacy(self, text: str) -> bool:
        """Hook for pre-JSONL formats (first byte ``[``).  Return ``True``
        after populating ``_data`` to mark the file for atomic migration
        on the next flush; the base class knows no legacy format."""
        return False

    def _load(self) -> None:
        text = self.path.read_text()
        stripped = text.lstrip()
        if not stripped:
            return
        if stripped[0] == "[" and self._load_legacy(text):
            # legacy format: all-or-nothing (the atomic migration
            # guarantees we never see a half-written one)
            self._legacy = True
            return
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            try:
                r = self._decode(json.loads(line, parse_constant=_reject_nan))
            except ValueError as exc:
                self.quarantined.append((lineno, str(exc), line))
            else:
                self._data[self._key(r)] = r
        if self.quarantined:
            self._needs_rewrite = True
            self._write_quarantine()
            log.warning(
                "%s: dropped %d corrupt line(s) (%s); recovered %d record(s)",
                self.path,
                len(self.quarantined),
                "; ".join(f"line {n}: {why}" for n, why, _ in self.quarantined[:3]),
                len(self._data),
            )
        if not text.endswith("\n"):
            # torn final write: even if it parsed, normalize on next flush
            # rather than appending onto a line with no terminator
            self._needs_rewrite = True

    def _write_quarantine(self) -> None:
        sidecar = self.path.with_name(self.path.name + ".quarantine")
        try:
            with sidecar.open("a") as fh:
                for lineno, reason, line in self.quarantined:
                    fh.write(f"# line {lineno}: {reason}\n{line}\n")
        except OSError:  # read-only location: the log line above suffices
            pass

    def get(self, key):
        return self._data.get(key)

    def put(self, record) -> None:
        key = self._key(record)
        if key in self._data:
            # overwrite (e.g. a --resume re-run): appending would leave a
            # stale duplicate line, so force an atomic dedup rewrite
            self._needs_rewrite = True
        self._data[key] = record
        self._pending.append(record)
        if len(self._pending) >= self.flush_every:
            self.flush()

    def _rewrite_atomic(self) -> None:
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        with tmp.open("w") as fh:
            for r in self._data.values():
                fh.write(json.dumps(self._encode(r)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._legacy = False
        self._needs_rewrite = False

    def flush(self) -> None:
        """Write buffered records out (rewriting legacy/damaged files once).

        Pure reads never rewrite: migration and corruption repair happen
        only when there is something new to persist.
        """
        if self._pending:
            if self._legacy or self._needs_rewrite:
                self._rewrite_atomic()
            else:
                payload = "".join(
                    json.dumps(self._encode(r)) + "\n" for r in self._pending
                )
                with self.path.open("a") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
            self._pending.clear()
        fault = faults.fire("cache_flush", key=str(self.path))
        if fault is not None and fault.action == "truncate" and self.path.exists():
            size = self.path.stat().st_size
            os.truncate(self.path, max(0, size - int(fault.param)))

    def repair(self) -> bool:
        """Force a clean atomic rewrite: JSONL, deduplicated (last write
        wins), newline-terminated, corrupt lines dropped (they are
        already in the quarantine sidecar).  Returns ``False`` when
        there is nothing to write."""
        if not self._data:
            return False
        self._rewrite_atomic()
        self._pending.clear()
        return True

    def __enter__(self) -> "JsonlCache":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()

    def __len__(self) -> int:
        return len(self._data)


class ResultCache(JsonlCache):
    """Append-only JSONL instance cache keyed by scenario tuple.

    The :class:`JsonlCache` hardening applies: fsync'd batched appends,
    quarantine + recovery of corrupt lines, atomic dedup rewrites.  A
    cache file in the legacy :func:`save_results` JSON-array format is
    migrated to JSONL atomically (temp file + rename) on the first
    flush.
    """

    def _encode(self, record: RunResult) -> dict:
        return _to_jsonable(record)

    def _decode(self, obj: dict) -> RunResult:
        return _record_from_dict(obj)

    def _key(self, record: RunResult) -> tuple:
        return record.key

    def _load_legacy(self, text: str) -> bool:
        for r in load_results(self.path):
            self._data[r.key] = r
        return True


def verify_cache(path: str | Path) -> dict:
    """Audit a cache file without modifying it.

    Returns a report dict: ``format`` (``jsonl`` / ``legacy`` /
    ``empty`` / ``missing``), ``records`` (valid), ``corrupt`` (list of
    ``(lineno, reason)``), ``duplicate_keys``, ``statuses`` (histogram)
    and ``clean`` (no corruption, no duplicates, proper trailing
    newline).  Surfaced as ``repro cache verify``.
    """
    path = Path(path)
    report: dict = {
        "path": str(path),
        "format": "missing",
        "records": 0,
        "corrupt": [],
        "duplicate_keys": 0,
        "statuses": {},
        "clean": False,
    }
    if not path.exists():
        return report
    text = path.read_text()
    stripped = text.lstrip()
    if not stripped:
        report["format"] = "empty"
        report["clean"] = True
        return report
    keys: dict[tuple, int] = {}
    if stripped[0] == "[":
        report["format"] = "legacy"
        try:
            records = load_results(path)
        except ValueError as exc:
            report["corrupt"].append((0, str(exc)))
            records = []
        for r in records:
            keys[r.key] = keys.get(r.key, 0) + 1
            report["statuses"][r.status] = report["statuses"].get(r.status, 0) + 1
        report["records"] = len(records)
    else:
        report["format"] = "jsonl"
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            try:
                r = _record_from_dict(json.loads(line, parse_constant=_reject_nan))
            except ValueError as exc:
                report["corrupt"].append((lineno, str(exc)))
            else:
                keys[r.key] = keys.get(r.key, 0) + 1
                report["statuses"][r.status] = report["statuses"].get(r.status, 0) + 1
                report["records"] += 1
        if not text.endswith("\n"):
            report["corrupt"].append((text.count("\n") + 1, "missing trailing newline"))
    report["duplicate_keys"] = sum(n - 1 for n in keys.values())
    report["clean"] = not report["corrupt"] and report["duplicate_keys"] == 0
    return report
