"""The prover's resumed runs and the kernel checkpoints behind them.

The region sweep runs each cell it split off from the latest checkpoint
the splitting run took before the cell's question, instead of from
date 0.  That is sound only if a resumed run is the run a fresh start
would have made: the tests below run every resumed run of a seeded
battery again from scratch, at the same crash dates, and compare
everything the proof reads.  The kernel's own ``checkpoint``/``restore`` is checked on random
callback-only programs.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import schedule_solution1, schedule_solution2
from repro.graphs.generators import random_bus_problem, random_p2p_problem
from repro.lint.proof import prove_delivery, verifier
from repro.obs.campaign import load_reproducer, problem_from_spec
from repro.sim.engine import Simulator

FIXTURE = Path(__file__).parent / "fixtures" / "roadmap_delivery_gap.json"


def _gap_problem():
    return problem_from_spec(load_reproducer(FIXTURE)["problem"])


#: (label, problem factory, scheduler).
BATTERY = [
    ("s1-bus-k1", lambda: random_bus_problem(
        operations=10, processors=4, failures=1, seed=3), schedule_solution1),
    ("s1-bus-k2", lambda: random_bus_problem(
        operations=8, processors=4, failures=2, seed=2), schedule_solution1),
    ("s2-p2p-k1", lambda: random_p2p_problem(
        operations=8, processors=4, failures=1, seed=9), schedule_solution2),
    ("gap", _gap_problem, schedule_solution1),
]


def _fingerprint(run) -> tuple:
    """Everything a finished run tells the proof, and its kernel state."""
    return (
        list(run.decisions.items()),
        run.missing_outputs,  # the verdict
        list(run.delivery_source.items()),
        list(run.observed.items()),
        run.sim.now,
        run.sim.checkpoint()[2],  # the sequence position: same pushes
    )


@pytest.mark.parametrize(
    "factory, scheduler", [b[1:] for b in BATTERY], ids=[b[0] for b in BATTERY]
)
def test_every_resumed_run_equals_a_fresh_run(monkeypatch, factory, scheduler):
    schedule = scheduler(factory()).schedule
    execute = verifier._AbstractRun.execute
    compared = []

    def checked(run, checkpoints_from=math.inf):
        before = run.sim.steps
        taken = execute(run, checkpoints_from)
        if checkpoints_from != math.inf:  # a sweep run
            fresh = verifier._AbstractRun(run.auto, dict(run.crashes))
            execute(fresh)
            resumed = run.sim.steps - before < fresh.sim.steps
            compared.append((resumed, dict(run.crashes)))
            assert _fingerprint(run) == _fingerprint(fresh), compared[-1]
            assert run.outcome() == fresh.outcome()
        return taken

    monkeypatch.setattr(verifier._AbstractRun, "execute", checked)
    prove_delivery(schedule)
    resumed = sum(1 for was_resumed, _crashes in compared if was_resumed)
    assert 0 < resumed < len(compared)


# ----------------------------------------------------------------------
# Simulator.checkpoint / restore on callback-only programs
# ----------------------------------------------------------------------
#: A program: initial ``(date, label)`` entries, and for each label the
#: ``(delay, child)`` entries its callback schedules.  Children have
#: larger labels, so every program ends.
programs = st.integers(min_value=1, max_value=12).flatmap(
    lambda size: st.tuples(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                st.integers(min_value=0, max_value=size - 1),
            ),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                    st.integers(min_value=1, max_value=size),
                ),
                max_size=3,
            ),
            min_size=size,
            max_size=size,
        ),
    )
)


def _load(program, log, halt_at=None):
    """A simulator holding ``program``; each callback appends its
    ``(time, label)`` to ``log`` and halts the run after entry
    ``halt_at``."""
    initial, children = program
    sim = Simulator()

    def step(label, _unused):
        log.append((sim.now, label))
        for delay, offset in children[label] if label < len(children) else ():
            sim.at(sim.now + delay, step, label + offset, None)
        if len(log) == halt_at:
            sim.halt()

    for date, label in initial:
        sim.at(date, step, label, None)
    return sim


@settings(max_examples=60, deadline=None)
@given(program=programs, fraction=st.floats(min_value=0.0, max_value=1.0))
def test_restore_at_step_k_continues_the_uninterrupted_log(program, fraction):
    reference = []
    _load(program, reference).run()
    halt_at = int(fraction * len(reference))
    log = []
    sim = _load(program, log, halt_at=halt_at)
    sim.run()
    if halt_at:
        assert log == reference[:halt_at]
    checkpoint = sim.checkpoint()
    prefix = list(log)
    sim.run()
    assert log == reference  # a halted run carries on where it stopped
    for _ in range(2):  # a checkpoint stays valid for another restore
        sim.restore(checkpoint)
        log[:] = prefix
        sim.run()
        assert log == reference
