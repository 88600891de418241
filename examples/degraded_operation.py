#!/usr/bin/env python3
"""The life of a failure: Figure 18's story, end to end.

This example follows one permanent processor failure through every
layer of the library, on the paper's own bus example:

1. the fault-free plan (Figure 17) and its generated executive
   macro-code, including the OpComm watchdog ladders;
2. the *transient* iteration — the crash happens mid-iteration,
   backups time out and take over (Figure 18(a));
3. the *subsequent* iterations — fail flags are set, nobody waits
   anymore (Figure 18(b) simulated);
4. the *static* subsequent schedule — the degraded plan itself, with
   fewer inter-processor communications (Section 6.4's claim);
5. the throughput view — what the failure does to the minimum
   sustainable period;
6. the availability view — what all of this buys over the baseline,
   computed exactly from the prover's crash-date regions.

Run:  python examples/degraded_operation.py
"""

from repro import paper, schedule_baseline, schedule_solution1
from repro.analysis import (
    min_period,
    render_schedule,
    render_trace,
    worst_degraded_min_period,
)
from repro.analysis.trace_stats import detection_stats, takeover_lag
from repro.codegen import render_executive
from repro.core import degraded_schedule
from repro.sim import FailureScenario, simulate, transient_then_steady
from repro.sim.availability import exact_availability
from repro.sim.values import reference_outputs

VICTIM = "P2"
CRASH_AT = 3.0


def main() -> None:
    problem = paper.first_example_problem(failures=1)
    result = schedule_solution1(problem)
    schedule = result.schedule

    # ------------------------------------------------------------------
    # 1. The plan and its executive
    # ------------------------------------------------------------------
    print("=" * 72)
    print("1. fault-free plan (Figure 17) and generated executive")
    print("=" * 72)
    print(render_schedule(schedule))
    print()
    print(render_executive(schedule))
    print()

    # ------------------------------------------------------------------
    # 2. The transient iteration
    # ------------------------------------------------------------------
    print("=" * 72)
    print(f"2. transient iteration: {VICTIM} crashes at t={CRASH_AT}")
    print("=" * 72)
    scenario = FailureScenario.crash(VICTIM, CRASH_AT)
    transient = simulate(schedule, scenario)
    print(render_trace(transient))
    print()
    for stats in detection_stats(transient, scenario):
        print(
            f"detection latency: first {stats.first_latency:.2f}, "
            f"last {stats.last_latency:.2f} after the crash "
            f"({stats.detection_count} watchdog verdict(s))"
        )
    print(f"first take-over frame lands {takeover_lag(transient, CRASH_AT):.2f} "
          f"after the crash")
    oracle = reference_outputs(problem.algorithm)
    assert transient.output_values == oracle, "outputs must stay correct"
    print("output values: identical to the failure-free oracle")
    print()

    # ------------------------------------------------------------------
    # 3. Subsequent iterations
    # ------------------------------------------------------------------
    print("=" * 72)
    print("3. subsequent iterations (fail flags carried)")
    print("=" * 72)
    run = transient_then_steady(schedule, VICTIM, CRASH_AT, steady_iterations=2)
    healthy = simulate(schedule)
    print(f"failure-free response : {healthy.response_time:g}")
    for index, trace in enumerate(run.iterations):
        kind = "transient " if index == 0 else "subsequent"
        print(
            f"iteration {index} ({kind}): response {trace.response_time:g}, "
            f"{len(trace.detections)} detections"
        )
    print()

    # ------------------------------------------------------------------
    # 4. The degraded static schedule
    # ------------------------------------------------------------------
    print("=" * 72)
    print("4. the static subsequent schedule (Figure 18(b))")
    print("=" * 72)
    degraded = degraded_schedule(schedule, {VICTIM})
    print(render_schedule(degraded))
    print(
        f"inter-processor frames: {degraded.inter_processor_message_count()} "
        f"(fault-free plan: {schedule.inter_processor_message_count()}) — "
        f"Section 6.4's 'fewer communications after a failure'"
    )
    print()

    # ------------------------------------------------------------------
    # 5. Throughput
    # ------------------------------------------------------------------
    print("=" * 72)
    print("5. throughput: minimum sustainable period")
    print("=" * 72)
    print(f"fault-free (pipelined)   : {min_period(schedule):g}")
    print(f"after {VICTIM} died       : {min_period(degraded):g}")
    print(
        f"worst over all K=1 cases : "
        f"{worst_degraded_min_period(schedule):g}"
    )
    print()

    # ------------------------------------------------------------------
    # 6. Availability
    # ------------------------------------------------------------------
    print("=" * 72)
    print("6. availability (exact, p = 0.1 per processor/iteration)")
    print("=" * 72)
    baseline = schedule_baseline(problem)
    for name, sched in (("baseline", baseline.schedule), ("solution1", schedule)):
        print(f"{name:10s}: {exact_availability(sched, 0.1)}")


if __name__ == "__main__":
    main()
