"""Golden and property tests for the phase-2 fast paths (PR 2).

The vectorized 1F1B\\* kernel must be *bit-identical* to
``onef1b_reference`` (periods, group assignments, memory maps, even the
error messages); the skeleton-reuse ILP path must reproduce the
from-scratch probe trajectory exactly; and the fast period search must
agree with the reference bisection to within the certification band.
"""

import importlib
import json
import random

import pytest

from repro import api, obs
from repro.algorithms.bruteforce import best_contiguous, best_special
from repro.algorithms.madpipe_dp import Discretization
from repro.algorithms.onef1b import (
    CANDIDATE_ATOL,
    GROUP_FIT_RTOL,
    Item,
    assign_groups,
    extended_items,
    min_feasible_period,
)
from repro.algorithms.onef1b_reference import (
    assign_groups_reference,
    min_feasible_period_reference,
)
from repro.core import Allocation, Partitioning, Platform
from repro.core.memory import stage_memory
from repro.ilp import schedule_allocation, schedule_allocation_reference
from repro.cli import main as cli_main
from repro.models import random_chain, uniform_chain
from repro.profiling import save_chain
from repro.testing import Fault, faults

MB = float(2**20)


def _random_partitionings(L, rng, k):
    parts = [Partitioning.from_cuts(L, [])]
    for _ in range(k):
        n_cuts = rng.randint(1, min(4, L - 1))
        cuts = sorted(rng.sample(range(1, L), n_cuts))
        parts.append(Partitioning.from_cuts(L, cuts))
    return parts


class TestOneF1BGolden:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_kernel_matches_reference_randomized(self, seed):
        """Vectorized 1F1B* vs the scalar reference: identical periods,
        groups, and per-processor memory, bit for bit."""
        rng = random.Random(seed)
        chain = random_chain(10, seed=seed, decay=0.3)
        checked = 0
        for mem_gb in (0.4, 1.0, 4.0):
            plat = Platform.of(5, mem_gb, 12)
            for part in _random_partitionings(10, rng, 12):
                fast = min_feasible_period(chain, plat, part, build=False)
                ref = min_feasible_period_reference(chain, plat, part, build=False)
                if ref is None:
                    assert fast is None
                    continue
                assert fast is not None
                assert fast.period == ref.period  # bit-identical
                assert fast.groups == ref.groups
                assert fast.memory == ref.memory
                checked += 1
        assert checked > 5  # the sweep must exercise feasible cases

    def test_assign_groups_matches_reference(self):
        rng = random.Random(7)
        for _ in range(50):
            items = [
                Item(
                    "stage" if i % 2 == 0 else "comm",
                    i // 2,
                    rng.uniform(0.01, 0.5),
                    rng.uniform(0.01, 0.5),
                )
                for i in range(rng.randint(1, 12))
            ]
            period = max(it.load for it in items) * rng.uniform(1.0, 3.0)
            assert assign_groups(items, period) == assign_groups_reference(
                items, period
            )

    def test_error_messages_match(self):
        chain = uniform_chain(4, u_f=1.0, u_b=2.0, weights=MB, activation=MB)
        plat = Platform.of(2, 64.0, 12)
        part = Partitioning.from_cuts(4, [2])
        items = extended_items(chain, plat, Allocation.contiguous(part))
        with pytest.raises(ValueError) as fast_err:
            assign_groups(items, 0.5)
        with pytest.raises(ValueError) as ref_err:
            assign_groups_reference(items, 0.5)
        assert str(fast_err.value) == str(ref_err.value)

    def test_group_fit_tolerance_boundary(self):
        """Loads overshooting the period by less than GROUP_FIT_RTOL must
        still pack into one group, in kernel and reference alike."""
        eps_in = GROUP_FIT_RTOL / 4
        eps_out = 1e-9
        inside = [Item("stage", 0, 0.25, 0.25), Item("stage", 1, 0.25, 0.25 * (1 + eps_in))]
        outside = [Item("stage", 0, 0.25, 0.25), Item("stage", 1, 0.25, 0.25 * (1 + eps_out))]
        for items in (inside, outside):
            assert assign_groups(items, 1.0) == assign_groups_reference(items, 1.0)
        # within tolerance: one group; beyond: the earlier item spills
        assert assign_groups(inside, 1.0) == [1, 1]
        assert assign_groups(outside, 1.0) == [2, 1]

    def test_tolerance_constants_ordering(self):
        assert 0 < CANDIDATE_ATOL < GROUP_FIT_RTOL


class TestOneF1BProperties:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_memory_non_increasing_in_period(self, seed):
        """Prop: growing T never increases any processor's 1F1B* memory
        (the greedy group counts are monotone non-increasing in T)."""
        chain = random_chain(8, seed=seed, decay=0.3)
        plat = Platform.of(4, 64.0, 12)
        alloc = Allocation.contiguous(Partitioning.from_cuts(8, [2, 4, 6]))
        items = extended_items(chain, plat, alloc)
        base = sum(it.load for it in items) / len(items)
        bottleneck = max(it.load for it in items)
        prev = None
        for scale in (1.0, 1.3, 1.7, 2.5, 4.0, 8.0):
            period = max(bottleneck, base * scale)
            groups = assign_groups(items, period)
            mem = [
                stage_memory(chain, stage.start, stage.end, groups[2 * i])
                for i, stage in enumerate(alloc.stages)
            ]
            if prev is not None:
                assert all(m <= p + 1e-12 for m, p in zip(mem, prev))
            prev = mem


class TestIlpFastPath:
    @pytest.fixture
    def noncontig(self):
        chain = uniform_chain(8, u_f=1.0, u_b=2.0, weights=MB, activation=64 * MB)
        alloc = Allocation(Partitioning.from_cuts(8, [2, 6]), (0, 1, 0))
        return chain, Platform.of(2, 4.0, 12), alloc

    def test_skeleton_reuse_is_bit_identical(self, noncontig):
        """Cached-skeleton probes must retrace the from-scratch search:
        same period, same probe count, same probe outcomes."""
        chain, plat, alloc = noncontig
        reuse = schedule_allocation(chain, plat, alloc)
        scratch = schedule_allocation(chain, plat, alloc, reuse_skeleton=False)
        assert reuse.period == scratch.period
        assert reuse.probes == scratch.probes

    def test_fast_agrees_with_reference_bisection(self, noncontig):
        """Both searches certify to rel_tol, so they agree within the
        combined band (trajectories differ by design)."""
        chain, plat, alloc = noncontig
        rel_tol = 5e-3
        fast = schedule_allocation(chain, plat, alloc, rel_tol=rel_tol)
        ref = schedule_allocation_reference(chain, plat, alloc, rel_tol=rel_tol)
        assert fast.feasible and ref.feasible
        assert fast.period <= ref.period * (1 + 2 * rel_tol) + 1e-12
        assert ref.period <= fast.period * (1 + 2 * rel_tol) + 1e-12

    def test_trace_carries_timings(self, noncontig):
        chain, plat, alloc = noncontig
        res = schedule_allocation(chain, plat, alloc)
        t = res.timings
        assert t["milp_probes"] == len(res.probes) > 0
        assert t["solve_s"] > 0.0
        assert all(p.kind in ("milp", "lp") for p in res.trace)  # no cutoff given


def _sig(trace):
    return [(p.period, p.feasible, p.kind, p.status) for p in trace]


class TestIlpCutoff:
    """``schedule_allocation(cutoff=C)``: certified infeasibility at ``C``
    ends the search; any other outcome leaves the uncut search intact."""

    @pytest.fixture
    def tight(self):
        # lower bound 12 is infeasible; the uncut search certifies 15 and
        # 17.93 infeasible and settles at 18.02
        chain = uniform_chain(8, u_f=1.0, u_b=2.0, weights=MB, activation=64 * MB)
        alloc = Allocation(Partitioning.from_cuts(8, [2, 6]), (0, 1, 0))
        plat = Platform.of(2, 0.75, 12)
        return chain, plat, alloc, schedule_allocation(chain, plat, alloc)

    def test_cutoff_below_lower_bound_solves_nothing(self, tight):
        chain, plat, alloc, _ = tight
        lower = alloc.period_lower_bound(chain, plat)
        res = schedule_allocation(chain, plat, alloc, cutoff=lower * 0.99)
        assert res.status == "cutoff" and not res.feasible
        assert res.trace == [] and res.timings["milp_probes"] == 0

    def test_infeasible_at_cutoff_stops_the_search(self, tight):
        chain, plat, alloc, uncut = tight
        assert uncut.status == "ok" and uncut.period > 16.0
        tr, reg = obs.Trace(), obs.MetricsRegistry()
        with obs.use_trace(tr), obs.use_metrics(reg):
            res = schedule_allocation(chain, plat, alloc, cutoff=16.0)
        assert res.status == "cutoff" and res.pattern is None
        assert reg.snapshot()["ilp.cutoffs"] == 1
        assert [s.attrs["cutoff"] for s in tr.find("ilp.search")] == [16.0]
        cut = [p for p in res.trace if p.kind == "cutoff"]
        assert [(p.period, p.feasible, p.status) for p in cut] == [(16.0, False, "infeasible")]
        assert _sig(res.trace) == _sig(uncut.trace[:1]) + _sig(cut)
        assert res.timings["milp_probes"] == 2  # lower bound + cutoff

    def test_feasible_at_cutoff_leaves_the_search_unchanged(self, tight):
        chain, plat, alloc, uncut = tight
        res = schedule_allocation(chain, plat, alloc, cutoff=uncut.period)
        assert [p.feasible for p in res.trace if p.kind == "cutoff"] == [True]
        assert _sig(p for p in res.trace if p.kind != "cutoff") == _sig(uncut.trace)
        assert (res.period, res.status) == (uncut.period, uncut.status)
        assert res.timings["milp_probes"] == uncut.timings["milp_probes"] + 1

    @pytest.mark.faultinject
    def test_timeout_at_cutoff_runs_the_full_search(self, tight, tmp_path):
        chain, plat, alloc, uncut = tight
        faults.install(
            [Fault(site="milp_solve", action="timeout", key="T=16", times=1)], tmp_path
        )
        try:
            res = schedule_allocation(chain, plat, alloc, cutoff=16.0)
        finally:
            faults.clear()
        assert [p.status for p in res.trace if p.kind == "cutoff"] == ["timeout"]
        assert _sig(p for p in res.trace if p.kind != "cutoff") == _sig(uncut.trace)
        # the discarded probe never taints the search status
        assert (res.period, res.status) == (uncut.period, "ok")
        assert res.timings["milp_timeouts"] == 1


class TestMadPipeCutoffPlanIdentity:
    """The MILP cutoff changes no plan: ``api.plan`` with ``madpipe``'s
    cutoff dropped (the uncut search) serializes byte-identically."""

    # (random_chain seed, memory GB) × family: non-contiguous phase-1
    # allocations where the cutoff ends the MILP (below and above its
    # lower bound) and where the MILP's plan wins
    CASES = [(0, 1.5), (1, 0.6), (3, 1.0), (3, 1.5)]

    def _plan(self, seed, mem, family):
        res = api.plan(
            random_chain(12, seed=seed, decay=0.2), Platform.of(4, mem, 12),
            schedule_family=family, grid=Discretization.coarse(), iterations=6,
            ilp_time_limit=15,
        )
        return res, json.dumps(res.to_json(), sort_keys=True)

    def test_plans_identical_with_and_without_cutoff(self, monkeypatch):
        cut = {
            (seed, mem, fam): self._plan(seed, mem, fam)
            for seed, mem in self.CASES for fam in ("1f1b", "zero_bubble")
        }
        module = importlib.import_module("repro.algorithms.madpipe")
        search = module.schedule_allocation

        def uncut_search(*args, cutoff=None, **kwargs):
            return search(*args, **kwargs)

        monkeypatch.setattr(module, "schedule_allocation", uncut_search)
        outcomes = set()
        for key, (res, payload) in cut.items():
            ref, ref_payload = self._plan(*key)
            assert payload == ref_payload, key
            ilp = res.raw.ilp
            assert ilp is not None and ref.raw.ilp is not None, key  # non-contiguous
            if ilp.status == "cutoff":
                assert ref.raw.ilp.status != "cutoff"
                assert any("at or below the contiguous candidate" in n for n in res.raw.notes)
                outcomes.add("cutoff_milp" if ilp.trace else "cutoff_bound")
            if ilp.pattern is not None and res.raw.pattern is ilp.pattern:
                outcomes.add("milp_won")
        assert outcomes == {"cutoff_milp", "cutoff_bound", "milp_won"}


def test_schedule_stats_reports_cutoff(tmp_path, capsys):
    profile = tmp_path / "chain.json"
    save_chain(random_chain(12, seed=3, decay=0.2), profile)
    rc = cli_main(
        [
            "schedule", str(profile), "-p", "4", "-m", "1", "-b", "12",
            "--grid", "coarse", "--iterations", "6", "--stats",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "search status: cutoff" in out and "result status: ok" in out
    assert "at or below the contiguous candidate's period" in out
    assert "could not schedule" not in out


class TestBruteForceMemo:
    def test_best_special_memoizes_contiguous_variants(self):
        chain = random_chain(5, seed=2, decay=0.2)
        plat = Platform.of(3, 1.0, 12)
        oracle = best_special(chain, plat, ilp_time_limit=5)
        # duplicate layouts are skipped and contiguous variants share one
        # 1F1B* solve, so strictly fewer searches than allocations
        assert 0 < oracle.solver_calls < oracle.evaluated
        contig = best_contiguous(chain, plat)
        assert contig.solver_calls == contig.evaluated
        if oracle.feasible and contig.feasible:
            assert oracle.period <= contig.period * (1 + 1e-9)
