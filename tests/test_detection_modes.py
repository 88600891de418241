"""Detection-mode semantics: bus snooping vs oracle observation.

Solution 1's failure detection relies on *observing* the presumed
main's sends.  On a bus every member physically sees every frame
(``snoop``); on point-to-point links nobody does, and the paper says
proper detection there "is similar to a Byzantine agreement problem".
The executive models that gap: ``snoop`` only counts bus frames as
observable, ``oracle`` idealizes an agreement substrate.  These tests
pin the consequences down, including on the paper's Figure 8 chain
architecture (multi-hop routing through P2).
"""

import pytest

from repro.core.solution1 import schedule_solution1
from repro.core.validate import certify_fault_tolerance
from repro.paper.examples import (
    figure8_problem,
    second_example_problem,
)
from repro.sim import FailureScenario, simulate


@pytest.fixture(scope="module")
def sol1_on_p2p():
    """Solution 1 scheduled on the fully connected architecture —
    the combination the paper advises against."""
    return schedule_solution1(second_example_problem(failures=1)).schedule


class TestOracleOnPointToPoint:
    def test_failure_free_with_oracle(self, sol1_on_p2p):
        trace = simulate(sol1_on_p2p, detection="oracle")
        assert trace.completed
        assert trace.detections == []

    @pytest.mark.parametrize("victim", ["P1", "P2", "P3"])
    def test_crash_covered_with_oracle(self, sol1_on_p2p, victim):
        """With an idealized agreement substrate, Solution 1 works on
        point-to-point links too."""
        trace = simulate(
            sol1_on_p2p,
            FailureScenario.crash(victim, at=2.0),
            detection="oracle",
        )
        assert trace.completed, victim

    def test_default_detection_on_p2p_is_oracle(self, sol1_on_p2p):
        """Auto mode picks oracle when there is no bus to snoop."""
        trace = simulate(sol1_on_p2p, FailureScenario.crash("P2", at=2.0))
        assert trace.completed


class TestSnoopRequiresABus:
    def test_snoop_on_p2p_may_strand_consumers(self, sol1_on_p2p):
        """Forcing snoop semantics without a bus: watchdogs never
        observe remote frames, so they take over even when the main is
        healthy — wasteful duplicates — and, when a main really dies,
        consumers can still be served.  The important invariant is
        that outputs survive; the redundant traffic is the cost the
        paper's architecture-matching rule avoids."""
        healthy = simulate(sol1_on_p2p, detection="snoop")
        assert healthy.completed
        crashed = simulate(
            sol1_on_p2p, FailureScenario.crash("P2", at=2.0), detection="snoop"
        )
        assert crashed.completed

    def test_snoop_on_bus_observes(self, bus_solution1):
        trace = simulate(bus_solution1.schedule, detection="snoop")
        assert trace.completed
        assert trace.detections == []


class TestFigure8Chain:
    """The routed architecture of Figure 8 (P1 - P2 - P3)."""

    @pytest.fixture(scope="class")
    def chain_schedule(self):
        return schedule_solution1(figure8_problem(failures=1)).schedule

    def test_schedules_with_multi_hop_comms(self, chain_schedule):
        # Some dependency must be relayed over two links.
        assert chain_schedule.makespan > 0
        links_used = {slot.link for slot in chain_schedule.comms}
        assert links_used <= {"L1.2", "L2.3"}

    def test_certifier_flags_the_relay(self, chain_schedule):
        """P2 is an articulation point of the chain: the certifier
        decides whether this particular schedule survives its death
        (replicas may or may not be segment-local), and the simulator
        must agree either way."""
        report = certify_fault_tolerance(chain_schedule)
        verdicts = {
            frozenset(o.failed): o.ok for o in report.outcomes if o.failed
        }
        for victim in ("P1", "P2", "P3"):
            trace = simulate(
                chain_schedule,
                FailureScenario.dead_from_start(victim),
                detection="oracle",
            )
            assert trace.completed == verdicts[frozenset({victim})], victim


def _with_minimal_deadlines(built):
    """A frozen copy of ``built`` whose ladder deadlines are the
    zero-margin :func:`~repro.core.timeouts.minimal_timeout_table`.

    The copy is built through the public API: a frozen schedule keeps
    its compiled executive plan, ladders included, so editing a copy's
    timeout table in place would not reach the simulator.
    """
    from dataclasses import replace

    from repro.core.schedule import Schedule
    from repro.core.timeouts import minimal_timeout_table

    minimal = minimal_timeout_table(built)
    schedule = Schedule(built.problem, built.semantics)
    for replica in built.all_replicas():
        schedule.add_replica(replica)
    for slot in built.comms:
        schedule.add_comm(slot)
    for entry in built.timeouts:
        schedule.add_timeout(
            replace(
                entry,
                deadline=minimal[
                    (entry.op, entry.dependency, entry.watcher, entry.rank)
                ],
            )
        )
    return schedule.freeze()


class TestTimeoutLadderEdgeCases:
    """Edge cases of the ``core/timeouts.py`` ladders under the
    executive: coalesced skips that re-arm the next rung, rungs whose
    watcher is itself dead, and deadline-equal observation ties."""

    @pytest.fixture(scope="class")
    def ladder_schedule(self):
        """A K=2 bus schedule with multi-rung ladders (the ROADMAP
        fixture problem: 10 ops, 4 processors, seed 0)."""
        from repro.graphs.generators import random_bus_problem

        problem = random_bus_problem(
            operations=10, processors=4, failures=2, seed=0
        )
        return schedule_solution1(problem).schedule

    def test_rearm_after_coalesced_skip(self, ladder_schedule):
        """Once a candidate is flagged dead for one dependency, later
        rungs watching the same candidate are skipped *without
        waiting* (coalesced) — and the skip must re-arm the next rung,
        so the surviving candidate's takeover still happens."""
        trace = simulate(
            ladder_schedule, FailureScenario.crash("P4", at=2.031)
        )
        assert trace.completed
        # P4 was declared faulty by some surviving watcher...
        assert any(d.suspect == "P4" for d in trace.detections)
        # ...but only through real ladder expiries: every further rung
        # on P4 coalesces into the existing flag instead of timing out
        # again for the same (watcher, op) pair.
        seen = set()
        for detection in trace.detections:
            key = (detection.watcher, detection.suspect, detection.op)
            assert key not in seen, f"duplicate declaration {key}"
            seen.add(key)
        # The re-armed rungs produced actual takeover traffic.
        assert trace.takeover_frames()
        assert any(f.delivered for f in trace.takeover_frames())

    def test_dead_watcher_stands_down_silently(self, ladder_schedule):
        """A watcher that dies mid-ladder must neither declare
        suspects nor dispatch takeovers after its death — its rungs
        terminate at the next alive-check, in deadline order."""
        death = 10.0
        trace = simulate(
            ladder_schedule, FailureScenario.crash("P2", at=death)
        )
        assert trace.completed
        assert not [
            d for d in trace.detections
            if d.watcher == "P2" and d.time > death
        ], "a dead watcher declared a suspect"
        assert not [
            f for f in trace.frames
            if f.sender == "P2" and f.start > death
        ], "a dead watcher dispatched a frame"

    def test_minimal_deadlines_tie_with_observation(self, ladder_schedule):
        """Ladder deadlines recomputed with *zero* drain margin can tie
        exactly with the watched frame's static end date.  The
        DEADLINE_SLACK tie-break must hand the race to the observation:
        a failure-free run under the minimal table sees no spurious
        detection and no takeover traffic."""
        tight = _with_minimal_deadlines(ladder_schedule)
        # The simulator runs the zero-margin ladders, not the original.
        assert tight.executive_plan.ladders != (
            ladder_schedule.executive_plan.ladders
        )
        trace = simulate(tight)
        assert trace.completed
        assert trace.detections == []
        assert trace.takeover_frames() == []

    def test_minimal_deadlines_still_cover_takeover(self, ladder_schedule):
        """The same zero-margin table must stay *sound*: a real crash
        is still detected and the takeover still delivers."""
        tight = _with_minimal_deadlines(ladder_schedule)
        trace = simulate(tight, FailureScenario.crash("P1", at=1.0))
        assert trace.completed
        assert any(d.suspect == "P1" for d in trace.detections)
