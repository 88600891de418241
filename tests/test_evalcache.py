"""Tests for the incremental placement-evaluation cache (repro.core.evalcache).

Three families:

* the *identity property* — cached and uncached runs must produce
  bitwise-identical schedules (same decision log, same makespan) on
  the paper examples and on a spread of random problems, for the
  append-only heuristics and their insertion variants;
* *soundness of the read and write sets* — every cache hit equals a
  fresh evaluation at that moment, every frontier a commit moves is in
  the write set derived from its placements and slots, and an
  evaluation writes nothing;
* *invalidation unit tests* — after each commit kind (placement, comm
  slot, timeout) exactly the entries whose read set overlaps the
  written resources are dropped.
"""

import pytest

from repro.core.evalcache import EvaluationCache, commit_writes
from repro.core.insertion import (
    InsertionSolution1Scheduler,
    InsertionSolution2Scheduler,
    InsertionSyndexScheduler,
)
from repro.core.schedule import CommSlot, ReplicaPlacement
from repro.core.solution1 import Solution1Scheduler
from repro.core.solution2 import Solution2Scheduler
from repro.core.syndex import SyndexScheduler
from repro.graphs.generators import (
    layered,
    random_bus_problem,
    random_p2p_problem,
)
from repro.obs import instrumented
from repro.paper import examples

SCHEDULERS = (SyndexScheduler, Solution1Scheduler, Solution2Scheduler)

#: The insertion variants: their ``earliest_start`` reads private
#: per-processor busy lists that only the ``("proc", p)`` key covers.
INSERTION_SCHEDULERS = (
    InsertionSyndexScheduler,
    InsertionSolution1Scheduler,
    InsertionSolution2Scheduler,
)

ALL_SCHEDULERS = SCHEDULERS + INSERTION_SCHEDULERS


def _run(scheduler_class, problem, cache: bool, seed=None):
    kwargs = {"use_eval_cache": cache}
    if seed is not None:
        kwargs["seed"] = seed
    return scheduler_class(problem, **kwargs).run()


def _assert_identical(scheduler_class, problem, seed=None):
    uncached = _run(scheduler_class, problem, cache=False, seed=seed)
    cached = _run(scheduler_class, problem, cache=True, seed=seed)
    assert cached.makespan == uncached.makespan
    assert cached.decisions == uncached.decisions


def _battery():
    """Random problems on bus and p2p networks, each at K=1 and K=2."""
    for case in range(6):
        for make in (random_bus_problem, random_p2p_problem):
            for failures in (1, 2):
                yield make(
                    operations=10 + 2 * case,
                    processors=3 + case % 3,
                    failures=failures,
                    seed=case,
                ), case


class TestCachedUncachedIdentity:
    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_paper_first_example(self, scheduler_class):
        _assert_identical(
            scheduler_class, examples.first_example_problem(failures=1)
        )

    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_paper_second_example(self, scheduler_class):
        _assert_identical(
            scheduler_class, examples.second_example_problem(failures=1)
        )

    @pytest.mark.parametrize("case", range(21))
    def test_random_problems(self, case):
        """>= 20 random (problem, scheduler, seed) combinations."""
        scheduler_class = SCHEDULERS[case % len(SCHEDULERS)]
        make = random_bus_problem if case % 2 else random_p2p_problem
        problem = make(
            operations=10 + case,
            processors=3 + case % 3,
            failures=1 + case % 2,
            seed=case,
        )
        _assert_identical(scheduler_class, problem, seed=case * 7)

    @pytest.mark.parametrize("scheduler_class", INSERTION_SCHEDULERS)
    def test_insertion_variants_on_random_problems(self, scheduler_class):
        for problem, case in _battery():
            _assert_identical(scheduler_class, problem, seed=case * 7)

    def test_large_layered_p2p(self):
        """The bench-scenario shape (scaled down for test runtime)."""
        from repro.graphs.architecture import fully_connected_architecture
        from repro.graphs.generators import random_problem

        architecture = fully_connected_architecture(
            [f"P{i + 1}" for i in range(6)], name="p2p6"
        )
        problem = random_problem(
            layered(6, 5, seed=5), architecture, failures=1, seed=5
        )
        _assert_identical(Solution1Scheduler, problem, seed=11)

    def test_nonzero_hit_rate_and_obs_counters(self):
        problem = random_p2p_problem(operations=18, processors=5, seed=2)
        with instrumented() as obs:
            scheduler = Solution1Scheduler(problem, seed=3)
            scheduler.run()
        assert scheduler.eval_cache.hit_rate > 0.0
        assert obs.registry.counter_value("evalcache.hits") == \
            scheduler.eval_cache.hits
        assert obs.registry.counter_value("evalcache.misses") == \
            scheduler.eval_cache.misses
        assert obs.registry.counter_value("evalcache.invalidated") == \
            scheduler.eval_cache.invalidated
        # pressure.evals counts only the evaluations actually computed.
        assert obs.registry.counter_value("pressure.evals") == \
            scheduler.eval_cache.misses

    def test_escape_hatch_disables_cache(self):
        problem = examples.first_example_problem(failures=1)
        scheduler = Solution1Scheduler(problem, use_eval_cache=False)
        scheduler.run()
        assert scheduler.eval_cache is None


def _frontiers(scheduler):
    """Every frontier an evaluation may read, including the insertion
    variants' private busy-interval lists."""
    state = scheduler.state
    busy = getattr(scheduler, "_busy", {})
    return (
        dict(state.proc_free),
        dict(state.link_free),
        {proc: list(intervals) for proc, intervals in busy.items()},
    )


def _full_state(scheduler):
    state = scheduler.state
    return _frontiers(scheduler) + (
        dict(state.dep_arrival),
        dict(state.replica_end),
    )


class _HitAudit:
    """Checks that every cache hit equals a fresh evaluation, read set
    included."""

    def _evaluate_cached(self, op, proc):
        hits = self.eval_cache.hits
        evaluation = super()._evaluate_cached(op, proc)
        if self.eval_cache.hits > hits:
            links = set()
            fresh = self.evaluate_placement(op, proc, links)
            assert evaluation == fresh, (op, proc)
            assert self.eval_cache.reads_of(op, proc) == frozenset(
                [("proc", proc)] + [("link", link) for link in links]
            ), (op, proc)
            self.audited_hits += 1
        return evaluation


class _CommitAudit:
    """Checks that every frontier a commit moves is in its write set."""

    def commit(self, op, kept):
        procs_before, links_before, busy_before = _frontiers(self)
        placements, comms = super().commit(op, kept)
        procs_after, links_after, busy_after = _frontiers(self)
        moved = {
            ("proc", proc) for proc in procs_after
            if procs_after[proc] != procs_before.get(proc)
        }
        moved.update(
            ("proc", proc) for proc in busy_after
            if busy_after[proc] != busy_before.get(proc)
        )
        moved.update(
            ("link", link) for link in links_after
            if links_after[link] != links_before.get(link)
        )
        assert moved, op
        assert moved <= commit_writes(placements, comms), op
        return placements, comms


class _PureEvaluationAudit:
    """Checks that an evaluation leaves the committed state untouched
    and reports the links it read."""

    def evaluate_placement(self, op, proc, links):
        before = _full_state(self)
        evaluation = super().evaluate_placement(op, proc, links)
        assert _full_state(self) == before, (op, proc)
        assert links <= set(self.state.link_free), (op, proc)
        return evaluation


def _audited(mixin, scheduler_class):
    return type(
        f"{mixin.__name__}{scheduler_class.__name__}",
        (mixin, scheduler_class),
        {"audited_hits": 0},
    )


class TestReadWriteSoundness:
    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_every_hit_equals_a_fresh_evaluation(self, scheduler_class):
        audited = _audited(_HitAudit, scheduler_class)
        hits = 0
        for problem, case in _battery():
            scheduler = audited(problem, seed=case)
            scheduler.run()
            hits += scheduler.audited_hits
        assert hits > 0

    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_commit_moves_only_its_write_set(self, scheduler_class):
        audited = _audited(_CommitAudit, scheduler_class)
        for problem, case in _battery():
            audited(problem, seed=case).run()

    @pytest.mark.parametrize("scheduler_class", ALL_SCHEDULERS)
    def test_evaluation_writes_nothing(self, scheduler_class):
        audited = _audited(_PureEvaluationAudit, scheduler_class)
        for problem, case in _battery():
            audited(problem, seed=case).run()


def _placement(op, proc, end):
    return ReplicaPlacement(op=op, processor=proc, start=0.0, end=end)


def _slot(dep, sender, dest, link, end):
    return CommSlot(
        dependency=dep, sender=sender, destinations=(dest,), link=link,
        start=0.0, end=end,
    )


class TestInvalidation:
    def test_placement_commit_invalidates_proc_and_replica_readers(self):
        cache = EvaluationCache()
        cache.store("a", "P1", "eval-a", {("proc", "P1")})
        cache.store("b", "P2", "eval-b", {("proc", "P2")})
        # An entry on P1 that would find a replica there: every (op, P1)
        # entry reads P1's frontier, which the placement moves.
        cache.store("c", "P1", "eval-c", {("proc", "P1"), ("link", "L12")})

        # A placement commit: replica of x lands on P1.
        dropped = cache.invalidate(
            commit_writes([_placement("x", "P1", 3.0)], [])
        )

        assert dropped == 2
        assert cache.lookup("b", "P2") == "eval-b"
        assert cache.lookup("a", "P1") is None
        assert cache.lookup("c", "P1") is None

    def test_comm_slot_commit_invalidates_link_and_arrival_readers(self):
        cache = EvaluationCache()
        dep = ("x", "y")
        cache.store("a", "P3", "eval-a", {("proc", "P3"), ("link", "L12")})
        # The only readers of dep's arrival are the entries of y itself.
        cache.store("y", "P2", "eval-y2", {("proc", "P2"), ("link", "L12")})
        cache.store("y", "P4", "eval-y4", {("proc", "P4")})
        cache.store("c", "P1", "eval-c", {("proc", "P1")})

        # Committing y: the frame occupies L12 and delivers on P2.
        written = commit_writes(
            [_placement("y", "P2", 5.0)], [_slot(dep, "P1", "P2", "L12", 4.0)]
        )
        assert written == {("proc", "P2"), ("link", "L12")}
        dropped = cache.invalidate(written)
        cache.drop_op("y")

        assert dropped == 2  # the link reader and y's entry on P2
        assert cache.entries_for("y") == []
        assert cache.lookup("c", "P1") == "eval-c"
        assert cache.lookup("a", "P3") is None

    def test_timeout_computation_invalidates_nothing(self):
        """Finalize (timeout-table) never touches the timeline state."""
        snapshots = []

        class Probe(Solution1Scheduler):
            def finalize(self, schedule):
                snapshots.append(_full_state(self))
                super().finalize(schedule)
                snapshots.append(_full_state(self))

        scheduler = Probe(examples.first_example_problem(failures=1))
        result = scheduler.run()
        assert result.schedule.timeouts
        before, after = snapshots
        assert before == after

    def test_missing_key_reads_are_dependencies(self):
        """An entry that found no replica of x on P2 depends on that
        absence: creating the replica places x on P2, which writes the
        ``("proc", "P2")`` key every entry on P2 reads."""
        cache = EvaluationCache()
        cache.store("a", "P2", "eval-a", {("proc", "P2")})
        cache.invalidate(commit_writes([_placement("x", "P2", 1.0)], []))
        assert cache.lookup("a", "P2") is None

    def test_drop_op_retires_all_entries_of_operation(self):
        cache = EvaluationCache()
        cache.store("a", "P1", "e1", {("proc", "P1")})
        cache.store("a", "P2", "e2", {("proc", "P2")})
        cache.store("b", "P1", "e3", {("proc", "P1")})
        cache.drop_op("a")
        assert cache.entries_for("a") == []
        assert cache.lookup("b", "P1") == "e3"

    def test_hit_miss_counters(self):
        cache = EvaluationCache()
        assert cache.lookup("a", "P1") is None
        cache.store("a", "P1", "e1", set())
        assert cache.lookup("a", "P1") == "e1"
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
