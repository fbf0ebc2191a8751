"""MadPipe — the complete two-phase algorithm (paper §4).

Phase 1 (:func:`repro.algorithms.madpipe_dp.algorithm1`) builds a
non-contiguous allocation with one special processor by binary-searching
the target period of the memory-aware dynamic program.

Phase 2 schedules the resulting stage partition exactly, in the
requested schedule family (1F1B\\* or the zero-bubble B–W split):

* contiguous allocations go through the family's optimal contiguous
  construction;
* non-contiguous allocations go through the family's periodic-pattern
  MILP (:mod:`repro.ilp`) with the paper's one-minute budget per probe.

Because the DP's special-processor memory is a deliberate
*under*-estimate (§4.2.1), the ILP can need a much larger period than
phase 1 promised, or run out of budget.  One ladder of contiguous
schedules in the same family repairs both: rung 1 is the allocation's
own contiguous restriction (when it has at most one stage per GPU), the
ILP-timeout fallback; rung 2 is the contiguous-restriction DP
(MadPipe-DP without the special processor: every state has ``t_P =
m_P = 0``, so the DP packs keys over ``(l, p, V)`` only), run at most
once per call.  Rung 2 is also a candidate, returned when it beats the
phase-1 schedule (``contiguous_fallback=False`` gives the strict
phase-1+ILP behaviour), and a pattern that fails the certification gate
is replaced by the first rung whose own pattern certifies.

On a non-contiguous allocation the candidate is scheduled *before* the
MILP and its period is the MILP search's ``cutoff``: once the MILP
certifies that no pattern reaches it, the candidate wins whatever the
rest of the search would find, so the search stops there.  The plan is
the one the uncut search would give; ties still go to the MILP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .. import obs
from ..core.chain import Chain
from ..core.partition import Allocation, Partitioning
from ..core.pattern import PeriodicPattern
from ..core.platform import Platform
from ..ilp.solver import ILPScheduleResult, schedule_allocation
from ..robust.certify import Certificate, certify_pattern
from .madpipe_dp import Algorithm1Result, Discretization, algorithm1
from .onef1b import min_feasible_period
from .zero_bubble import FAMILY_NAMES, SCHEDULE_FAMILIES, min_feasible_period_zb

__all__ = ["SCHEDULE_FAMILIES", "MadPipeResult", "madpipe"]

INF = float("inf")


@dataclass
class MadPipeResult:
    """Full MadPipe outcome.

    ``dp_period`` is phase 1's estimate (the dashed line of Fig. 6);
    ``period`` is the certified valid-schedule period (the solid line).
    ``ilp`` carries the phase-2 period search (probe trace and timings)
    whenever the phase-1 allocation went through the scheduling MILP.

    ``status`` classifies the outcome: ``ok`` (certified schedule, clean
    search), ``degraded`` (the schedule is valid, but the MILP exhausted
    its time budget somewhere — the period carries the certified
    contiguous fallback or an uncertified search result, and may be
    improvable with a larger ``ilp_time_limit`` — *or* the chosen pattern
    failed certification and was quarantined in favour of the certified
    contiguous fallback), ``solver_timeout`` (no schedule found *and* the failure
    was the solver budget, not proven infeasibility), ``infeasible``
    (certified: nothing fits), ``error`` (the chosen pattern failed
    certification and no fallback could be certified either — the
    quarantined pattern is withheld, never returned).

    ``certificate`` is the discrete-event certificate of the *returned*
    pattern (``None`` only with ``certify=False``); when a quarantine
    happened, ``certificate.quarantined`` carries the rejected
    pattern's violation report.
    """

    phase1: Algorithm1Result
    allocation: Allocation | None
    pattern: PeriodicPattern | None
    period: float = INF
    notes: list[str] = field(default_factory=list)
    ilp: ILPScheduleResult | None = None
    status: str = "ok"
    certificate: Certificate | None = None

    @property
    def dp_period(self) -> float:
        return self.phase1.period

    @property
    def feasible(self) -> bool:
        return self.pattern is not None


def madpipe(
    chain: Chain,
    platform: Platform,
    *,
    iterations: int = 10,
    grid: Discretization | None = None,
    ilp_time_limit: float = 60.0,
    allow_special: bool = True,
    contiguous_fallback: bool = True,
    memory_headroom: float = 0.0,
    certify: bool = True,
    schedule_family: str = "1f1b",
) -> MadPipeResult:
    """Run the complete MadPipe pipeline on one (chain, platform) instance.

    ``memory_headroom`` makes every planning layer (DP, MILP memory rows,
    contiguous search) fit its schedule into ``memory · (1 − headroom)`` per GPU;
    certification still measures margins against the full capacity.
    ``certify=True`` (the default) runs the returned pattern through the
    discrete-event certification gate: a pattern that fails is
    quarantined — with its violation report on
    ``result.certificate.quarantined`` — and replaced by the certified
    contiguous fallback, never silently returned.

    ``schedule_family`` selects the pattern family phase 2 constructs and
    certifies: ``"1f1b"`` (the paper's monolithic backward, default) or
    ``"zero_bubble"`` (split-backward F/B/W patterns — the contiguous
    builder and MILP formulation of
    :mod:`repro.algorithms.zero_bubble` / :mod:`repro.ilp`).
    """
    if schedule_family not in SCHEDULE_FAMILIES:
        raise ValueError(
            f"unknown schedule family {schedule_family!r}; "
            f"expected one of {SCHEDULE_FAMILIES}"
        )
    with obs.span(
        "madpipe", n_procs=platform.n_procs, chain=chain.name, L=chain.L
    ) as run_span:
        with obs.span("madpipe.phase1"):
            phase1 = algorithm1(
                chain,
                platform,
                iterations=iterations,
                grid=grid,
                allow_special=allow_special,
                memory_headroom=memory_headroom,
            )
        ladder = _Ladder(
            chain, platform, schedule_family, iterations, grid, memory_headroom,
            # without the special processor, phase 1 is rung 2's DP run
            contiguous=None if allow_special else phase1,
        )
        result = MadPipeResult(phase1=phase1, allocation=None, pattern=None)

        if phase1.feasible:
            allocation = phase1.allocation.to_allocation(platform)
            if allocation.is_contiguous():
                # the family's contiguous construction is optimal for
                # contiguous allocations — no ILP needed
                sched = ladder.schedule(allocation.partitioning, "phase1")
                if sched is not None:
                    _adopt(result, allocation, sched,
                           f"phase-1 contiguous allocation via {ladder.name}")
                else:
                    result.notes.append(f"{ladder.name} infeasible for phase-1 allocation")
            else:
                # rung 2 first: its period is the MILP search's cutoff
                candidate = ladder.candidate if contiguous_fallback and allow_special else None
                with obs.span("madpipe.phase2", kind="ilp"):
                    ilp = schedule_allocation(
                        chain, platform, allocation,
                        time_limit=ilp_time_limit,
                        memory_headroom=memory_headroom,
                        schedule_family=schedule_family,
                        cutoff=INF if candidate is None else candidate.period,
                    )
                result.ilp = ilp
                if ilp.feasible:
                    _adopt(result, allocation, ilp,
                           "phase-1 non-contiguous allocation via ILP")
                elif ilp.status == "cutoff":
                    result.notes.append(
                        "ILP certified no pattern at or below the contiguous "
                        "candidate's period"
                    )
                else:
                    result.notes.append(
                        f"ILP could not schedule phase-1 allocation ({ilp.status})"
                    )
                    part = ladder.restriction(allocation)
                    if ilp.status == "timeout" and part is not None:
                        # the MILP ran out of budget without proving
                        # anything: rung 1 instead of reporting infeasible
                        obs.inc("madpipe.ilp_fallbacks")
                        sched = ladder.schedule(part, "ilp_timeout")
                        if sched is not None:
                            _adopt(
                                result, Allocation.contiguous(part), sched,
                                "ILP time budget exhausted; fell back to the "
                                f"certified {ladder.name} contiguous restriction",
                            )
        else:
            result.notes.append("phase 1 found no memory-feasible allocation")

        if contiguous_fallback and allow_special:
            # rung 2 as a candidate: the DP's memory model is exact for the
            # contiguous construction, so this estimate is reliable; keep
            # it when it beats the phase-1 schedule
            sched = ladder.candidate
            if sched is not None and sched.period < result.period:
                _adopt(result, Allocation.contiguous(ladder.contiguous_dp), sched,
                       "contiguous memory-aware candidate won")

        # classify the outcome: any phase-2 budget hit taints the result
        ilp_status = result.ilp.status if result.ilp is not None else None
        if result.pattern is None:
            result.status = "solver_timeout" if ilp_status == "timeout" else "infeasible"
        else:
            result.status = "degraded" if ilp_status in ("timeout", "degraded") else "ok"

        # mandatory certification gate: the chosen pattern is executed
        # through the discrete-event verifier before being returned; a
        # failure quarantines it in favour of the ladder's first
        # certified rung (never a silent invalid plan)
        if certify:
            _certification_gate(result, ladder)

        run_span.set(
            status=result.status,
            period=result.period if result.period != INF else None,
        )
    obs.inc("madpipe.runs")
    obs.inc(f"madpipe.status.{result.status}")
    return result


def _adopt(result: MadPipeResult, allocation: Allocation, sched, note: str) -> None:
    """Make ``sched`` (a contiguous-search or ILP result) the plan."""
    result.allocation = allocation
    result.pattern = sched.pattern
    result.period = sched.period
    result.notes.append(note)


class _Ladder:
    """The certified-fallback ladder of one :func:`madpipe` call (see the
    module docstring): partitionings to the family's contiguous schedules."""

    def __init__(
        self, chain, platform, family, iterations, grid, memory_headroom, contiguous
    ):
        self.search = (
            min_feasible_period_zb if family == "zero_bubble" else min_feasible_period
        )
        self.name = FAMILY_NAMES[family]
        self.chain, self.platform = chain, platform
        self.iterations, self.grid = iterations, grid
        self.memory_headroom = memory_headroom
        self._contiguous: Algorithm1Result | None = contiguous

    def schedule(self, part: Partitioning, kind: str):
        """The family's minimal-period contiguous schedule of ``part``."""
        with obs.span("madpipe.phase2", kind=kind):
            return self.search(
                self.chain, self.platform, part,
                memory_headroom=self.memory_headroom,
            )

    def restriction(self, allocation: Allocation | None) -> Partitioning | None:
        """Rung 1: ``allocation``'s own partitioning, one stage per GPU."""
        if allocation is not None and allocation.n_stages <= self.platform.n_procs:
            return allocation.partitioning
        return None

    @cached_property
    def contiguous_dp(self) -> Partitioning | None:
        """Rung 2: the partitioning of the contiguous-restriction DP."""
        contig = self._contiguous
        if contig is None:
            with obs.span("madpipe.contiguous_fallback"):
                contig = algorithm1(
                    self.chain,
                    self.platform,
                    iterations=self.iterations,
                    grid=self.grid,
                    allow_special=False,
                    memory_headroom=self.memory_headroom,
                )
        if contig.feasible:
            return contig.allocation.to_allocation(self.platform).partitioning
        return None

    @cached_property
    def candidate(self):
        """Rung 2's schedule, the contiguous candidate (``None`` when the
        DP or the schedule is infeasible)."""
        part = self.contiguous_dp
        return self.schedule(part, "candidate") if part is not None else None

    def rungs(self, allocation: Allocation | None):
        """The distinct fallback partitionings for ``allocation``, in
        order; rung 2's DP only runs if the caller gets that far."""
        own = self.restriction(allocation)
        if own is not None:
            yield own
        dp = self.contiguous_dp
        if dp is not None and dp != own:
            yield dp


def _certification_gate(result: MadPipeResult, ladder: _Ladder) -> None:
    """Certify ``result.pattern`` in place; quarantine + degrade on failure.

    On failure the ladder's rungs are tried in order; each fallback
    pattern must itself pass certification before it replaces the
    quarantined one, and when none does the result carries no plan.
    """
    chain, platform = ladder.chain, ladder.platform
    cert = certify_pattern(
        chain, platform, result.pattern, source=f"madpipe:{chain.name}"
    )
    if cert.ok:
        result.certificate = cert
        return

    obs.inc("certify.quarantined")
    result.notes.append(
        f"certification failed for the chosen pattern; quarantined "
        f"({cert.violations[0] if cert.violations else 'no violation detail'})"
    )
    for part in ladder.rungs(result.allocation):
        sched = ladder.schedule(part, "quarantine")
        if sched is None:
            continue
        fb_cert = certify_pattern(
            chain, platform, sched.pattern,
            source=f"madpipe.fallback:{chain.name}",
        )
        if not fb_cert.ok:
            result.notes.append(f"{ladder.name} fallback failed certification too")
            continue
        obs.inc("certify.fallbacks")
        fb_cert.mode = "fallback"
        fb_cert.quarantined = cert
        _adopt(result, Allocation.contiguous(part), sched,
               f"replaced by the certified {ladder.name} contiguous fallback")
        result.status = "degraded"
        result.certificate = fb_cert
        return
    # nothing certifiable: withhold the quarantined pattern entirely
    result.allocation = None
    result.pattern = None
    result.period = INF
    result.status = "error"
    result.certificate = cert
