"""Zero-bubble B/W-split schedule family: registry, builder, memory, wins.

Covers the op-kind registry surface, the split-backward helper, validity
of the zero-bubble contiguous construction (analytic *and* executed
through the discrete-event verifier), the split-backward memory model
against its closed forms, the family dispatch through
``madpipe``/``pipedream``/``api.plan``, and the headline claim: under
tight memory on a deep uniform chain the certified zero-bubble period is
strictly below 1F1B\\*'s.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import api, obs, warmstart
from repro.algorithms import Discretization
from repro.algorithms.madpipe import madpipe
from repro.algorithms.onef1b import min_feasible_period
from repro.algorithms.zero_bubble import (
    SPLIT_FRACTION,
    assign_groups_zb,
    min_feasible_period_zb,
)
from repro.core.partition import Partitioning
from repro.core.pattern import OP_KINDS, B, F, W, is_comm, is_compute, split_backward
from repro.core.platform import Platform
from repro.models import random_chain
from repro.models.synthetic import uniform_chain
from repro.sim import verify_pattern
from repro.testing import Fault, faults

GB = float(2**30)


# ------------------------------------------------------------ registry


class TestOpKindRegistry:
    def test_registry_entries(self):
        assert set(OP_KINDS) == {"F", "B", "W", "CF", "CB"}
        for kind, meta in OP_KINDS.items():
            assert meta.name == kind
            assert meta.category in ("compute", "comm")
            assert meta.glyph and meta.description

    def test_predicates_partition_kinds(self):
        for kind in OP_KINDS:
            assert is_compute(kind) != is_comm(kind)
        assert all(is_compute(k) for k in (F, B, W))
        assert all(is_comm(k) for k in ("CF", "CB"))

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            is_compute("X")


class TestSplitBackward:
    def test_halves_sum_to_whole(self):
        d_b, d_w = split_backward(2.0)
        assert d_b == pytest.approx(2.0 * SPLIT_FRACTION)
        assert d_b + d_w == pytest.approx(2.0)

    @pytest.mark.parametrize("fraction", (0.0, 1.0, -0.5, 1.5))
    def test_degenerate_fraction_rejected(self, fraction):
        with pytest.raises(ValueError):
            split_backward(1.0, fraction=fraction)


# ------------------------------------------------------------ builder


def even_partition(L: int, P: int) -> Partitioning:
    per = L // P
    return Partitioning.from_cuts(L, [per * i for i in range(1, P)])


@pytest.fixture(scope="module")
def zb_planned():
    """A verified zero-bubble schedule on a tight-memory uniform chain."""
    chain = uniform_chain(24, name="zb24")
    platform = Platform.of(4, 0.05, 1.0)
    res = min_feasible_period_zb(chain, platform, even_partition(24, 4))
    assert res is not None and res.pattern is not None
    return chain, platform, res


class TestZeroBubbleBuilder:
    def test_pattern_has_w_per_stage(self, zb_planned):
        chain, platform, res = zb_planned
        n = res.pattern.allocation.n_stages
        assert sum(1 for k in res.pattern.ops if k[0] == "W") == n
        assert sum(1 for k in res.pattern.ops if k[0] == "B") == n

    def test_pattern_verifies_end_to_end(self, zb_planned):
        chain, platform, res = zb_planned
        report = verify_pattern(chain, platform, res.pattern)
        assert not report.violations

    def test_w_follows_b_same_resource(self, zb_planned):
        """W runs back-to-back after its B on the same GPU: the unrolled
        gap ``(h_W − h_B)·T + t_W − t_B`` is exactly ``d_B`` (normalize()
        may wrap W into the next period, bumping its shift)."""
        chain, platform, res = zb_planned
        T = res.pattern.period
        for (kind, i), op in res.pattern.ops.items():
            if kind != "W":
                continue
            b = res.pattern.ops[("B", i)]
            assert op.resource == b.resource
            gap = (op.shift - b.shift) * T + op.start - b.start
            assert gap == pytest.approx(b.duration)

    def test_analytic_memory_bounds_exact_peaks(self, zb_planned):
        """The search's conservative per-GPU bound must dominate the
        pattern's exact event-based peaks (so search-feasible implies
        certification-feasible)."""
        chain, platform, res = zb_planned
        exact = res.pattern.memory_peaks(chain)
        for p, peak in exact.items():
            assert peak <= res.memory[p] * (1 + 1e-9)
            assert peak <= platform.memory * (1 + 1e-9)

    def test_infeasible_memory_returns_none(self):
        chain = uniform_chain(24, name="zb24tight")
        platform = Platform.of(4, 0.001, 1.0)
        assert min_feasible_period_zb(chain, platform, even_partition(24, 4)) is None

    def test_group_assignment_rejects_oversized_item(self):
        with pytest.raises(ValueError):
            assign_groups_zb([3.0, 1.0], [2.0, 0.5], 4.0)  # 3 + 2 > 4


class TestGradBufferClosedForm:
    def test_active_grad_batches_matches_op_times(self, zb_planned):
        """Closed form: a split stage holds exactly one grad-input buffer
        between B's start and W's end (mod T), zero elsewhere — the
        builder always emits W back-to-back with B on the same shift."""
        chain, platform, res = zb_planned
        pattern = res.pattern
        T = pattern.period
        for (kind, i), w in pattern.ops.items():
            if kind != "W":
                continue
            b = pattern.ops[("B", i)]
            held = b.duration + w.duration  # B start -> W end, mod T
            for k in range(40):
                tau = (k / 40.0) * T
                inside = (tau - b.start) % T < held
                assert pattern.active_grad_batches(i, tau) == (1 if inside else 0)

    def test_non_split_stage_holds_no_grad_buffer(self, uniform8, roomy4):
        sched = min_feasible_period(
            uniform8, roomy4, even_partition(uniform8.L, roomy4.n_procs)
        )
        assert sched is not None
        for i in range(sched.pattern.allocation.n_stages):
            assert sched.pattern.active_grad_batches(i, 0.0) == 0


# ------------------------------------------------------------ the win


class TestZeroBubbleWin:
    def test_strictly_better_under_tight_memory(self):
        """On a deep uniform chain with activation-dominated memory the
        split family merges groups earlier and drops strictly below the
        1F1B* period on the same partitioning."""
        chain = uniform_chain(24, name="win24")
        platform = Platform.of(4, 0.05, 1.0)
        part = even_partition(24, 4)
        base = min_feasible_period(chain, platform, part)
        zb = min_feasible_period_zb(chain, platform, part)
        assert base is not None and zb is not None
        assert zb.period < base.period - 1e-12
        # both certified-valid, not just analytically feasible
        verify_pattern(chain, platform, base.pattern)
        verify_pattern(chain, platform, zb.pattern)

    def test_never_worse_than_onef1b_lower_bound(self):
        """The split family can't beat the V-load lower bound: with roomy
        memory both families sit on it."""
        chain = uniform_chain(8, name="lb8")
        platform = Platform.of(4, 8.0, 12.0)
        part = even_partition(8, 4)
        base = min_feasible_period(chain, platform, part)
        zb = min_feasible_period_zb(chain, platform, part)
        assert base is not None and zb is not None
        assert zb.period == pytest.approx(base.period)


# ------------------------------------------------------------ dispatch


class TestFamilyDispatch:
    def test_madpipe_family_validation(self, uniform8, roomy4):
        from repro.algorithms.madpipe import madpipe

        with pytest.raises(ValueError, match="schedule family"):
            madpipe(uniform8, roomy4, schedule_family="interleaved")

    def test_pipedream_zero_bubble(self, uniform8, roomy4):
        from repro.algorithms.pipedream import pipedream

        res = pipedream(uniform8, roomy4, schedule_family="zero_bubble")
        assert res.feasible
        assert any(k[0] == "W" for k in res.schedule.pattern.ops)
        with pytest.raises(ValueError, match="schedule family"):
            pipedream(uniform8, roomy4, schedule_family="nope")

    def test_plan_zero_bubble_certified(self, uniform8, roomy4):
        res = api.plan(
            uniform8, roomy4, schedule_family="zero_bubble", iterations=4
        )
        assert res.schedule_family == "zero_bubble"
        assert res.feasible and res.certificate is not None and res.certificate.ok
        assert any(k[0] == "W" for k in res.pattern.ops)

    def test_plan_unknown_family_rejected(self, uniform8, roomy4):
        with pytest.raises(ValueError, match="schedule family"):
            api.plan(uniform8, roomy4, schedule_family="zb")

    def test_plan_gpipe_rejects_nondefault_family(self, uniform8, roomy4):
        with pytest.raises(ValueError, match="gpipe"):
            api.plan(
                uniform8, roomy4, algorithm="gpipe", schedule_family="zero_bubble"
            )

    def test_default_family_keyword_is_identity(self, uniform8, roomy4):
        a = api.plan(uniform8, roomy4, iterations=4)
        b = api.plan(uniform8, roomy4, iterations=4, schedule_family="1f1b")
        assert a.to_json() == b.to_json()


# ------------------------------------------------------------ fallbacks


def has_w_ops(pattern) -> bool:
    return any(kind == W for kind, _ in pattern.ops)


class TestZeroBubbleFallbacks:
    """MadPipe's certified contiguous fallbacks stay in the zero-bubble
    family."""

    @pytest.fixture(autouse=True)
    def _clean_state(self):
        faults.clear()
        warmstart.reset_process_context()
        yield
        faults.clear()
        warmstart.reset_process_context()

    @pytest.mark.faultinject
    def test_ilp_timeout_gives_certified_contiguous_plan(self, tmp_path):
        chain = random_chain(12, seed=7, decay=0.2)
        faults.install([Fault(site="milp_solve", action="timeout", times=-1)], tmp_path)
        res = madpipe(
            chain, Platform.of(4, 0.8, 12), grid=Discretization.coarse(),
            iterations=6, ilp_time_limit=15, schedule_family="zero_bubble",
        )
        assert res.status == "degraded"
        assert res.allocation.is_contiguous()
        assert res.certificate is not None and res.certificate.ok
        assert has_w_ops(res.pattern)

    @pytest.mark.faultinject
    def test_quarantine_gives_certified_contiguous_plan(self, tmp_path):
        mb = float(2**20)
        chain = uniform_chain(8, u_f=1.0, u_b=2.0, weights=1 * mb, activation=2 * mb)
        faults.install(
            [Fault(site="sim_verify", action="fail", key="madpipe:", times=1)],
            tmp_path,
        )
        res = madpipe(
            chain, Platform(n_procs=4, memory=64 * mb, bandwidth=100 * mb),
            iterations=6, schedule_family="zero_bubble",
        )
        assert res.status == "degraded"
        assert res.allocation.is_contiguous()
        assert res.certificate.ok and res.certificate.mode == "fallback"
        assert has_w_ops(res.pattern)

    def test_warm_sweep_matches_cold(self):
        spec = ("toy5", 2, (0.25, 0.5, 1.0), 12.0, ("madpipe", "pipedream"))
        opts = dict(
            grid=Discretization.coarse(), iterations=4, ilp_time_limit=10.0,
            schedule_family="zero_bubble",
        )
        warm = api.sweep(spec, **opts)
        warmstart.reset_process_context()
        cold = api.sweep(spec, warm_start=False, **opts)
        assert warm.metrics.get("zero_bubble.searches", 0) > 0
        assert warm.metrics.get("warm.zero_bubble_hits", 0) > 0
        assert [dataclasses.replace(r, runtime_s=0.0) for r in warm.results] == [
            dataclasses.replace(r, runtime_s=0.0) for r in cold.results
        ]

    def test_warm_memo_keeps_families_apart(self):
        """One warm context answers a 1F1B* and a zero-bubble search of
        the same partitioning with each family's own result."""
        chain = uniform_chain(24, name="win24")
        platform = Platform.of(4, 0.05, 1.0)
        part = even_partition(24, 4)
        cold = (
            min_feasible_period(chain, platform, part),
            min_feasible_period_zb(chain, platform, part),
        )
        registry = obs.MetricsRegistry()
        with warmstart.activate(True), obs.use_metrics(registry):
            first = (
                min_feasible_period(chain, platform, part),
                min_feasible_period_zb(chain, platform, part),
            )
            again = (
                min_feasible_period(chain, platform, part),
                min_feasible_period_zb(chain, platform, part),
            )
        assert again[0] is first[0] and again[1] is first[1]  # memo hits
        for warm, ref in zip(first, cold):
            assert warm.period == ref.period
            assert warm.groups == ref.groups and warm.memory == ref.memory
        assert first[1].period < first[0].period
        assert not has_w_ops(first[0].pattern) and has_w_ops(first[1].pattern)
        snap = registry.snapshot()
        assert snap["warm.onef1b_hits"] == 1
        assert snap["warm.zero_bubble_hits"] == 1


# ------------------------------------------------------------ gpt chains


class TestGptScenarios:
    def test_gpt_chain_is_uniform(self):
        from repro.experiments.scenarios import paper_chain

        c = paper_chain("gpt24")
        assert c.L == 24 and c.name == "gpt24"
        u_f = {round(c.u_f(i), 12) for i in range(1, 25)}
        w = {c.weight(i) for i in range(1, 25)}
        assert len(u_f) == 1 and len(w) == 1

    def test_gpt_name_validation(self):
        from repro.experiments.scenarios import paper_chain

        with pytest.raises(ValueError, match="gpt"):
            paper_chain("gptx")
        with pytest.raises(ValueError, match="depth"):
            paper_chain("gpt999")

    def test_gpt_zero_bubble_win_deep_pipeline(self):
        """The acceptance instance: gpt24 at P=8 under ~1 GB/GPU."""
        from repro.experiments.scenarios import paper_chain

        chain = paper_chain("gpt24")
        platform = Platform.of(8, 1.0, 12.0)
        part = even_partition(24, 8)
        base = min_feasible_period(chain, platform, part)
        zb = min_feasible_period_zb(chain, platform, part)
        assert base is not None and zb is not None
        assert zb.period < base.period - 1e-9


def test_period_monotone_in_split_fraction():
    """Sanity: the period search is well-defined for non-default splits."""
    chain = uniform_chain(12, name="frac12")
    platform = Platform.of(4, 0.05, 1.0)
    part = even_partition(12, 4)
    periods = []
    for frac in (0.3, 0.5, 0.7):
        res = min_feasible_period_zb(
            chain, platform, part, split_fraction=frac
        )
        assert res is not None
        verify_pattern(chain, platform, res.pattern)
        periods.append(res.period)
    assert all(math.isfinite(p) for p in periods)
