"""Per-layer timing for the traced benchmark run.

The program under test carries no benchmark spans of its own, so the
traced run records them from here: :class:`LayerTrace` replaces, for the
duration of a ``with`` block, the public functions each layer's *caller*
binds, and puts every original back on exit.

Modules are reached through ``sys.modules``: ``repro.algorithms``
re-exports the ``madpipe`` function under the name of its own submodule,
so ``from repro.algorithms import madpipe`` yields the function and a
patch applied to it would change nothing.  Wrapped names, by the
caller that binds them, and the layer each is booked to:

* ``repro.algorithms.madpipe``: ``algorithm1`` → ``madpipe_dp.search``
  (phase 1, ``allow_special=True``) or ``madpipe_dp.contig`` (the
  contiguous restriction); ``schedule_allocation`` → ``ilp``;
  ``min_feasible_period`` → ``onef1b``; ``min_feasible_period_zb`` →
  ``zero_bubble``; ``certify_pattern`` → ``robust.certify``;
* ``repro.experiments.harness``: ``madpipe`` → ``harness.madpipe`` (one
  swept instance);
* ``repro.serve.service``: ``request_fingerprint`` → ``serve.fingerprint``;
* ``PlanCache.get`` / ``PlanCache.put`` → ``serve.cache_get`` /
  ``serve.cache_put``, ``PlanStore.put_plan`` → ``serve.store_put``,
  ``PlanResult.from_json`` → ``serve.decode``.

Only the calling process is traced: the plan service solves in a forked
worker, so its solver split is read from reply latencies grouped by
``served_from`` instead (see ``workloads.ServeZipf``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MADPIPE = "repro.algorithms.madpipe"
HARNESS = "repro.experiments.harness"
SERVICE = "repro.serve.service"


class LayerTrace:
    """Busy time, call counts and per-layer counters of one traced run."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.madpipe_results: list = []  # (platform, MadPipeResult) per swept instance
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, layer, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.busy[name] += time.perf_counter() - t0
                self.calls[name] += 1
            if after is not None:
                after(name, args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, layer, after=None) -> None:
        original = owner.__dict__[attr]  # the raw descriptor, restored verbatim
        if isinstance(original, classmethod):
            patched = classmethod(self._wrap(original.__func__, layer, after))
        else:
            patched = self._wrap(original, layer, after)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, patched)

    def _after_dp(self, name, args, res) -> None:
        self.counts[name + ".probes"] += len(res.history)
        self.counts[name + ".states"] += res.states

    def _after_ilp(self, name, args, res) -> None:
        t = res.timings
        self.counts["ilp.milp_probes"] += t["milp_probes"]
        self.counts["ilp.build_s"] += t["build_s"]
        self.counts["ilp.solve_s"] += t["solve_s"]
        self.counts["ilp.timeouts"] += t["milp_timeouts"]

    def _after_certify(self, name, args, cert) -> None:
        self.counts["robust.certify.quarantined"] += not cert.ok

    def _after_madpipe(self, name, args, res) -> None:
        self.madpipe_results.append((args[1], res))

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        from repro.api import PlanResult
        from repro.serve.store import PlanCache, PlanStore

        madpipe = sys.modules[MADPIPE]

        def dp_layer(args, kwargs):
            if kwargs.get("allow_special", True):
                return "madpipe_dp.search"
            return "madpipe_dp.contig"

        try:
            self._patch(madpipe, "algorithm1", dp_layer, self._after_dp)
            self._patch(madpipe, "schedule_allocation", "ilp", self._after_ilp)
            self._patch(madpipe, "min_feasible_period", "onef1b")
            self._patch(madpipe, "min_feasible_period_zb", "zero_bubble")
            self._patch(madpipe, "certify_pattern", "robust.certify",
                        self._after_certify)
            self._patch(sys.modules[HARNESS], "madpipe", "harness.madpipe",
                        self._after_madpipe)
            self._patch(sys.modules[SERVICE], "request_fingerprint",
                        "serve.fingerprint")
            self._patch(PlanCache, "get", "serve.cache_get")
            self._patch(PlanCache, "put", "serve.cache_put")
            self._patch(PlanStore, "put_plan", "serve.store_put")
            self._patch(PlanResult, "from_json", "serve.decode")
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
