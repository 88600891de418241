"""The region sweep's leaves partition each crash subset's date space.

A proof is sound only if the sweep's leaves cover ``[0, ∞)^S`` of every
swept crash subset ``S`` exactly once and each leaf's verdict holds at
every crash vector inside it.  The tests below draw the leaf cells of
every subset the proof sweeps from the prover's own region stream
(``verifier.sweep_regions``) and check, on a seeded battery, that

* the leaves of one subset are pairwise disjoint, and
* every sampled crash vector lies in exactly one leaf, where a fresh
  run from scratch (``run_outcome``) returns that leaf's outcome: its
  verdict, and the starved pairs, races, observes and productions
  behind it.

The samples take, on every axis, each date the leaves are cut at and
the next float above it (the two sides of the cut), 0 (dead from the
start) and a random date in every static event window.
"""

from __future__ import annotations

import itertools
import math
import random
from pathlib import Path

import pytest

from repro.core import schedule_solution1, schedule_solution2
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.lint.proof import compile_automaton, prove_delivery, verifier
from repro.obs.campaign import load_reproducer, problem_from_spec

FIXTURE = Path(__file__).parent / "fixtures" / "roadmap_delivery_gap.json"


def _gap_problem():
    return problem_from_spec(load_reproducer(FIXTURE)["problem"])


#: (label, problem factory, scheduler).
BATTERY = [
    ("gap", _gap_problem, schedule_solution1),
    ("bus12k2-s1", lambda: random_bus_problem(
        operations=12, processors=4, failures=2, seed=1), schedule_solution1),
    ("bus20k1-s1", lambda: random_bus_problem(
        operations=20, processors=5, failures=1, seed=1), schedule_solution1),
    ("p2p10k1-s2", lambda: random_p2p_problem(
        operations=10, processors=4, failures=1, seed=2), schedule_solution2),
]

#: Sampled crash vectors per swept subset, beyond one per cut date.
RANDOM_SAMPLES = 40


def _leaves(schedule, auto):
    """``subset -> [(cell, outcome)]`` for every subset the proof sweeps:
    each ≤K subset that is neither a superset of a refuted one (pruned)
    nor dead by certificate (refuted without a run)."""
    # No K+1 probe: it stops at its first refutation, so its sweeps are
    # partial by design.
    proof = prove_delivery(schedule, probe_beyond=False)
    assert proof.verdict in ("SAFE", "UNSAFE")
    refuted = [set(cx.subset) for cx in proof.counterexamples]
    reaches = verifier._reaches_output(auto)
    leaves = {}
    for subset in itertools.chain.from_iterable(
        itertools.combinations(auto.processors, size)
        for size in range(proof.failures + 1)
    ):
        if any(root < set(subset) for root in refuted):
            continue
        if verifier._dead_certificate(auto, subset, reaches) is not None:
            continue
        cells = leaves[subset] = []
        for cell, run in verifier.sweep_regions(auto, subset, math.inf):
            assert cell is not None, subset
            # The run is valid until the next leaf is drawn.
            cells.append((cell, run.outcome()))
    assert sum(len(cells) for cells in leaves.values()) == proof.evaluations
    return leaves


def _contains(cell, point) -> bool:
    return all(lo <= x < hi for (lo, hi), x in zip(cell, point))


def _disjoint(a, b) -> bool:
    return any(
        hi_a <= lo_b or hi_b <= lo_a
        for (lo_a, hi_a), (lo_b, hi_b) in zip(a, b)
    )


def _samples(cells, boundaries, rng):
    """Crash vectors: on each axis in turn every date of its pool, the
    other axes drawn from their own pools; then random vectors over the
    pools.  An axis's pool holds each date its leaves are cut at and
    the float above it, 0, and a random date in every static event
    window and past the last one."""
    edges = list(boundaries) + [2.0 * boundaries[-1] + 1.0]
    pools = []
    for axis in range(len(cells[0])):
        # A cell edge is the float just above a guard date.
        cuts = {
            edge
            for cell in cells
            for edge in cell[axis]
            if 0.0 < edge < math.inf
        }
        dates = {math.nextafter(edge, -math.inf) for edge in cuts}
        spread = {rng.uniform(a, b) for a, b in zip(edges, edges[1:])}
        pools.append(sorted(cuts | dates | spread | {0.0}))
    for axis, pool in enumerate(pools):
        for value in pool:
            yield tuple(
                value if other == axis else rng.choice(pools[other])
                for other in range(len(pools))
            )
    for _ in range(RANDOM_SAMPLES):
        yield tuple(rng.choice(pool) for pool in pools)


@pytest.mark.parametrize(
    "factory, scheduler", [b[1:] for b in BATTERY], ids=[b[0] for b in BATTERY]
)
def test_leaves_partition_every_subset(factory, scheduler):
    schedule = scheduler(factory()).schedule
    auto = compile_automaton(schedule)
    leaves = _leaves(schedule, auto)
    rng = random.Random(0)
    checked = 0
    for subset, cells in sorted(leaves.items()):
        ordered = sorted(cells, key=lambda leaf: leaf[0])
        for index, (cell, _outcome) in enumerate(ordered):
            assert all(lo < hi for lo, hi in cell), (subset, cell)
            for other, _ in ordered[index + 1:]:
                assert _disjoint(cell, other), (subset, cell, other)
        if not subset:
            assert len(cells) == 1
            continue
        for point in _samples(
            [cell for cell, _outcome in cells], auto.boundaries, rng
        ):
            owners = [out for cell, out in cells if _contains(cell, point)]
            assert len(owners) == 1, (subset, point, len(owners))
            crashes = dict(zip(subset, point))
            fresh = verifier.run_outcome(auto, crashes)
            assert fresh.ok == owners[0].ok, (subset, crashes)
            assert fresh == owners[0], (subset, crashes)
            checked += 1
    assert checked > 0
