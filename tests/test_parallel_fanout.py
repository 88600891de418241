"""Determinism of the process-parallel seed exploration under any
``jobs`` value.

The acceptance contract of the ``--jobs N`` flag: seed exploration
returns *bit-identical* results however many worker processes run it
— same winner, same decision log.
"""

from repro.core.list_scheduler import best_over_seeds, explore_seeds
from repro.core.solution1 import Solution1Scheduler
from repro.paper import examples


class TestSeedExploration:
    def test_explore_seeds_identical_across_jobs(self):
        problem = examples.first_example_problem(failures=1)
        seeds = [None, 1, 2, 3, 4]
        serial = explore_seeds(Solution1Scheduler, problem, seeds, jobs=1)
        fanned = explore_seeds(Solution1Scheduler, problem, seeds, jobs=3)
        assert [r.makespan for r in serial] == [r.makespan for r in fanned]
        for a, b in zip(serial, fanned):
            assert a.decisions == b.decisions

    def test_best_over_seeds_identical_winner(self):
        problem = examples.second_example_problem(failures=1)
        serial = best_over_seeds(
            Solution1Scheduler, problem, attempts=6, jobs=1
        )
        fanned = best_over_seeds(
            Solution1Scheduler, problem, attempts=6, jobs=2
        )
        assert serial.makespan == fanned.makespan
        assert serial.decisions == fanned.decisions

    def test_scheduler_kwargs_reach_workers(self):
        problem = examples.first_example_problem(failures=1)
        results = explore_seeds(
            Solution1Scheduler, problem, [1, 2], jobs=2,
            use_eval_cache=False,
        )
        baseline = explore_seeds(
            Solution1Scheduler, problem, [1, 2], jobs=1,
        )
        assert [r.makespan for r in results] == \
            [r.makespan for r in baseline]

