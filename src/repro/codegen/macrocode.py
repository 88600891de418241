"""Executive macro-code: AAA's second step, made concrete.

After the adequation, AAA "produces automatically a real-time
distributed executive" (Section 4.1): per processor, a loop-forever
program whose body is the static sequence of macro-instructions the
schedule prescribes — SynDEx emits these as m4 macros that expand to
target-specific code.  This module generates the same structure from a
:class:`~repro.core.schedule.Schedule`:

* one :class:`ExecutiveProgram` per processor, with the computation
  sequence (``EXEC`` instructions, blocking ``RECV`` for remote
  inputs) and the communication sequence (``SEND`` at the planned
  dates, plus — for Solution 1 — one ``WATCHDOG`` per backup message,
  carrying its statically computed deadline ladder in rank order);
* the semantics of these instructions is exactly what
  :mod:`repro.sim.executive` executes, and the remote inputs,
  destinations and ladders come from the same compiled
  :attr:`~repro.core.schedule.Schedule.executive_plan` (whose op rows
  give each processor's static sequence); the generator
  exists so users can *read* (and port) the executive.

The textual rendering (:func:`render_program`) is deliberately close
to SynDEx's macro style.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.schedule import Schedule

__all__ = [
    "Instruction",
    "Opcode",
    "ExecutiveProgram",
    "generate_executive",
    "render_program",
    "render_executive",
]


class Opcode(enum.Enum):
    """The executive's macro-instruction set."""

    #: Block until a remote input arrives (first copy wins).
    RECV = "RECV"
    #: Run one operation replica on the computation unit.
    EXEC = "EXEC"
    #: Emit one frame at its planned release date.
    SEND = "SEND"
    #: Solution-1 backup watchdog: monitor a message, take over on
    #: timeout (carries the deadline ladder).
    WATCHDOG = "WATCHDOG"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Instruction:
    """One macro-instruction of an executive program.

    ``args`` is opcode-specific:

    * ``RECV``: dependency, expected arrival date;
    * ``EXEC``: operation, replica index, planned start/end;
    * ``SEND``: dependency, destinations, link, planned release;
    * ``WATCHDOG``: dependency, candidate ladder [(candidate,
      deadline), ...], destinations to serve on take-over.
    """

    opcode: Opcode
    args: Tuple

    def render(self) -> str:
        if self.opcode is Opcode.RECV:
            dep, date = self.args
            return f"RECV     {dep[0]}->{dep[1]}  (by {date:g})"
        if self.opcode is Opcode.EXEC:
            op, replica, start, end = self.args
            role = "main" if replica == 0 else f"backup{replica}"
            return f"EXEC     {op}  [{start:g}, {end:g}]  ({role})"
        if self.opcode is Opcode.SEND:
            dep, dests, link, release = self.args
            targets = ",".join(dests)
            return (
                f"SEND     {dep[0]}->{dep[1]}  to {targets} on {link} "
                f"(release {release:g})"
            )
        if self.opcode is Opcode.WATCHDOG:
            dep, ladder, dests = self.args
            steps = "; ".join(f"{cand}@{deadline:g}" for cand, deadline in ladder)
            targets = ",".join(dests)
            return (
                f"WATCHDOG {dep[0]}->{dep[1]}  ladder [{steps}]  "
                f"takeover to {targets}"
            )
        raise AssertionError(self.opcode)  # pragma: no cover


@dataclass
class ExecutiveProgram:
    """The per-processor executive: two synchronized sequences."""

    processor: str
    computation: List[Instruction] = field(default_factory=list)
    communication: List[Instruction] = field(default_factory=list)

    @property
    def instruction_count(self) -> int:
        return len(self.computation) + len(self.communication)

    def instructions(self, opcode: Opcode) -> List[Instruction]:
        return [
            ins
            for ins in self.computation + self.communication
            if ins.opcode is opcode
        ]


def generate_executive(schedule: Schedule) -> Dict[str, ExecutiveProgram]:
    """Generate one :class:`ExecutiveProgram` per processor."""
    plan = schedule.executive_plan
    programs = {proc: ExecutiveProgram(proc) for proc in plan.timelines}

    # Computation sequences: static order, with blocking RECVs for the
    # inputs that are not produced locally.
    for proc, program in programs.items():
        for row in plan.timelines[proc]:
            op, placement = row.op, row.placement
            for pred in row.predecessors:
                if proc in plan.destinations[(pred, op)]:
                    arrivals = [
                        slot.end
                        for slot in schedule.comms_for_dependency((pred, op))
                        if proc in slot.destinations
                    ]
                    expected = min(arrivals) if arrivals else placement.start
                    program.computation.append(
                        Instruction(Opcode.RECV, ((pred, op), expected))
                    )
            program.computation.append(
                Instruction(
                    Opcode.EXEC,
                    (op, placement.replica, placement.start, placement.end),
                )
            )

    # Communication sequences: planned SENDs (hop-0 frames) in release
    # order, per sender.
    sends: Dict[str, List[Instruction]] = {proc: [] for proc in programs}
    for slot in schedule.comms:
        if slot.hop != 0:
            continue  # relay hops belong to the routing layer
        sends[slot.sender].append(
            Instruction(
                Opcode.SEND,
                (slot.dependency, slot.destinations, slot.link, slot.start),
            )
        )
    for proc, instructions in sends.items():
        instructions.sort(key=lambda ins: (ins.args[3], ins.args[0]))
        programs[proc].communication.extend(instructions)

    # Solution-1 watchdogs: one per (backup, outgoing message).
    for (op, dep, watcher), rungs in sorted(plan.ladders.items()):
        if not rungs:
            continue
        ladder = tuple((rung.candidate, rung.deadline) for rung in rungs)
        dests = tuple(d for d in plan.destinations[dep] if d != watcher)
        programs[watcher].communication.append(
            Instruction(Opcode.WATCHDOG, (dep, ladder, dests))
        )

    return programs


def render_program(program: ExecutiveProgram) -> str:
    """Pretty-print one processor's executive."""
    lines = [f"executive for {program.processor}:"]
    lines.append("  computation unit (loop forever):")
    if program.computation:
        for instruction in program.computation:
            lines.append(f"    {instruction.render()}")
    else:
        lines.append("    (idle)")
    lines.append("  communication unit(s):")
    if program.communication:
        for instruction in program.communication:
            lines.append(f"    {instruction.render()}")
    else:
        lines.append("    (idle)")
    return "\n".join(lines)


def render_executive(schedule: Schedule) -> str:
    """Pretty-print the whole distributed executive."""
    programs = generate_executive(schedule)
    blocks = [
        f"{schedule.semantics.value} executive, "
        f"{sum(p.instruction_count for p in programs.values())} "
        f"macro-instructions"
    ]
    for proc in schedule.problem.architecture.processor_names:
        blocks.append(render_program(programs[proc]))
    return "\n\n".join(blocks)
