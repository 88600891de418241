"""Exact availability rests on the prover's leaves, checked pointwise.

:func:`repro.sim.availability.exact_availability` sums leaf-cell
volumes of the prover's region sweep over every crash subset of every
size, including subsets beyond ``K`` that no proof sweeps.  The check
below draws seeded crash vectors in ``[0, H]^S`` (``H`` the failure-free
response) for every subset ``S`` and asserts that each lies in exactly
one leaf and that the leaf's verdict equals the simulator's.

:func:`disagreements` is also the larger differential CI runs on a
4-processor K=2 bus schedule.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.lint.proof import compile_automaton
from repro.lint.proof.verifier import sweep_regions
from repro.sim import Crash, FailureScenario, simulate

#: Sampled crash vectors per non-empty subset (tier-1 speed).
VECTORS = 60


def _contains(cell, point) -> bool:
    return all(lo <= x < hi for (lo, hi), x in zip(cell, point))


def disagreements(schedule, vectors_per_subset: int):
    """``(checked, wrong)``: the crash vectors checked against the
    simulator, and those whose leaf verdict it contradicts.  Every
    subset of every size gets ``vectors_per_subset`` seeded vectors
    (the empty one gets its one failure-free run)."""
    auto = compile_automaton(schedule)
    horizon = simulate(schedule).response_time
    rng = random.Random(0)
    checked, wrong = 0, []
    for size in range(len(auto.processors) + 1):
        for subset in itertools.combinations(auto.processors, size):
            leaves = [
                (cell, not run.missing_outputs)
                for cell, run in sweep_regions(auto, subset, math.inf)
            ]
            for _ in range(vectors_per_subset if subset else 1):
                point = tuple(rng.uniform(0.0, horizon) for _ in subset)
                owners = [ok for cell, ok in leaves if _contains(cell, point)]
                assert len(owners) == 1, (subset, point, len(owners))
                scenario = FailureScenario(
                    crashes=tuple(map(Crash, subset, point))
                )
                checked += 1
                if simulate(schedule, scenario).completed != owners[0]:
                    wrong.append(dict(zip(subset, point)))
    return checked, wrong


@pytest.mark.parametrize(
    "fixture", ["bus_solution1", "bus_baseline", "p2p_solution2"],
    ids=["fig17-solution1", "bus-baseline", "fig22-solution2"],
)
def test_every_leaf_verdict_matches_the_simulator(fixture, request):
    schedule = request.getfixturevalue(fixture).schedule
    checked, wrong = disagreements(schedule, VECTORS)
    assert checked == 1 + 7 * VECTORS
    assert not wrong, wrong
