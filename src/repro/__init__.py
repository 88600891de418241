"""repro: fault-tolerant static scheduling for real-time distributed
embedded systems.

A from-scratch reproduction of

    A. Girault, C. Lavarenne, M. Sighireanu, Y. Sorel,
    "Fault-Tolerant Static Scheduling for Real-Time Distributed
    Embedded Systems", ICDCS 2001 (INRIA RR-4006).

The public API re-exports the main entry points:

* problem modelling: :class:`AlgorithmGraph`, :class:`Architecture`,
  :class:`ExecutionTable`, :class:`CommunicationTable`,
  :class:`Problem`;
* the three schedulers: :func:`schedule_baseline` (plain SynDEx),
  :func:`schedule_solution1` (bus-oriented, time-redundant comms),
  :func:`schedule_solution2` (point-to-point, replicated comms);
* validation: :mod:`repro.core.validate`;
* static analysis: :mod:`repro.lint` (rule-based problem and schedule
  lints with stable ``FTxxx`` IDs and text/JSON/SARIF output);
* simulation: :mod:`repro.sim`;
* reporting: :mod:`repro.analysis`.

Quickstart::

    from repro import paper, schedule_solution1

    problem = paper.first_example_problem(failures=1)
    result = schedule_solution1(problem)
    print(result.schedule.makespan)
"""

from . import paper
from .graphs import (
    INFINITY,
    AlgorithmGraph,
    Architecture,
    CommunicationTable,
    ExecutionTable,
    InfeasibleProblemError,
    Problem,
    bus_architecture,
    fully_connected_architecture,
)
from .core import (
    Schedule,
    ScheduleResult,
    ScheduleSemantics,
    Solution1Scheduler,
    Solution2Scheduler,
    SyndexScheduler,
    schedule_baseline,
    schedule_solution1,
    schedule_solution2,
)
from .lint import (
    Diagnostic,
    LintConfig,
    LintReport,
    Severity,
    lint_problem,
    lint_schedule,
)
from .tolerance import EPSILON, approx_eq, approx_ge, approx_le

__version__ = "1.0.0"

__all__ = [
    "paper",
    "INFINITY",
    "AlgorithmGraph",
    "Architecture",
    "CommunicationTable",
    "ExecutionTable",
    "InfeasibleProblemError",
    "Problem",
    "bus_architecture",
    "fully_connected_architecture",
    "Schedule",
    "ScheduleResult",
    "ScheduleSemantics",
    "Solution1Scheduler",
    "Solution2Scheduler",
    "SyndexScheduler",
    "schedule_baseline",
    "schedule_solution1",
    "schedule_solution2",
    "Diagnostic",
    "LintConfig",
    "LintReport",
    "Severity",
    "lint_problem",
    "lint_schedule",
    "EPSILON",
    "approx_eq",
    "approx_ge",
    "approx_le",
    "__version__",
]
