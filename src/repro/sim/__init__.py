"""Discrete-event simulation of schedules under processor failures.

The re-exports load their module on first use, so importing one module
of the package (the prover imports only :mod:`repro.sim.protocol` and
:mod:`repro.sim.engine`) loads no other.
"""

#: Submodule -> the public names it defines, in ``__all__`` order.
_EXPORTS = {
    "engine": ["SimulationError", "Simulator"],
    "executive": ["ExecutiveRuntime"],
    "faults": ["Crash", "FailureScenario", "LinkCrash"],
    "runner": [
        "FailureFreePrefix", "SimulationRun", "simulate", "simulate_sequence",
        "transient_then_steady",
    ],
    "trace": ["DetectionRecord", "ExecutionRecord", "FrameRecord", "IterationTrace"],
    "montecarlo": ["AvailabilityEstimate", "estimate_availability"],
    "pipeline": ["PipelineResult", "simulate_pipelined"],
    "values": ["compute_value", "reference_outputs", "sample_input"],
    "verify": ["TraceReport", "TraceViolation", "verify_trace"],
}
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_LAZY)


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(f".{module_name}", __name__), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
