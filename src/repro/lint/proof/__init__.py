"""``repro.lint.proof`` — a sound static delivery verifier.

The campaign layer (:mod:`repro.obs.campaign`) checks the paper's
tolerance claim *dynamically*: it samples ≤K crash scenarios and runs
each through the simulator.  This package checks the same claim
*statically*: :func:`compile_automaton` extracts, from a frozen
schedule, an explicit **delivery automaton** — per dependency, the
statically scheduled sender replicas, their routes, the timeout-ladder
rungs that can re-arm a takeover, and the one-shot stand-down edges of
the Solution-1 protocol — and :func:`prove_delivery` then verifies,
for **every** crash subset of at most K processors and **every**
distinguishable crash-date region, that every expected output is still
produced.  The result is either a machine-checkable proof artifact
(``repro.lint.proof/1``, per-dependency witness chains) or a concrete
counterexample exported as a campaign-replayable
``repro.obs.campaign.reproducer/1`` JSON.

Soundness comes from exactness rather than abstraction: the verifier
performs a guard-recording abstract interpretation of the automaton
whose branch structure mirrors the executive's protocol semantics, and
partitions each crashed processor's crash date into maximal intervals
on which no recorded guard flips — so one evaluation decides a whole
(processor, window)-class region, and the union of regions covers the
entire ≤K scenario space.  The abstract runs execute on the
discrete-event kernel of :mod:`repro.sim.engine`; nothing else in
:mod:`repro.sim` (executive, network, fault model) is imported.

The FT4xx rule pack (:mod:`repro.lint.proof.rules`) surfaces the
verdict through the ordinary lint pipeline, and ``repro prove`` /
``repro certify --prove`` expose it on the command line.
"""

from .automaton import DeliveryAutomaton, compile_automaton
from .model import (
    PROOF_SCHEMA_ID,
    Counterexample,
    DependencyWitness,
    ProofResult,
    counterexample_reproducer,
    load_proof,
    save_proof,
)
from .verifier import check_scenario, prove_delivery

__all__ = [
    "PROOF_SCHEMA_ID",
    "Counterexample",
    "DeliveryAutomaton",
    "DependencyWitness",
    "ProofResult",
    "check_scenario",
    "compile_automaton",
    "counterexample_reproducer",
    "load_proof",
    "prove_delivery",
    "save_proof",
]
