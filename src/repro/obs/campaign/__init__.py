"""repro.obs.campaign — systematic fault-injection campaigns.

The runtime-side counterpart of :mod:`repro.obs.bench`: where the
bench subsystem tracks the *scheduler's* numbers across commits, a
campaign checks the *schedule's* central claim — "tolerates up to K
failures" — by enumerating the crash-scenario space (critical
instants, ≤K subsets, random strata; see :mod:`.space`), executing
every equivalence class through the executive (:mod:`.executor`),
diagnosing each failure as the trace differ's account against the
failure-free run — the value that never reached a survivor, what each
of its replicas did, and the fate of every ladder rung guarding it
(:mod:`.diagnose`) — and reporting coverage (:mod:`.report`).  CLI: ``repro campaign run`` / ``repro campaign
report``.
"""

from .diagnose import Diagnosis, diagnose
from .executor import execute_scenario, minimize_scenario, run_campaign
from .model import (
    REPRODUCER_SCHEMA_ID,
    SCHEMA_ID,
    CampaignResult,
    CampaignScenario,
    ScenarioOutcome,
    class_key,
    load_campaigns,
    load_reproducer,
    make_reproducer,
    problem_from_spec,
    render_class_key,
    save_campaigns,
    save_reproducer,
    scenario_from_dict,
    scenario_to_dict,
    window_index,
)
from .report import render_html_page, render_text
from .space import EPSILON, CampaignSpace, enumerate_space

__all__ = [
    "SCHEMA_ID",
    "REPRODUCER_SCHEMA_ID",
    "EPSILON",
    "CampaignResult",
    "CampaignScenario",
    "CampaignSpace",
    "Diagnosis",
    "ScenarioOutcome",
    "class_key",
    "diagnose",
    "enumerate_space",
    "execute_scenario",
    "load_campaigns",
    "load_reproducer",
    "make_reproducer",
    "minimize_scenario",
    "problem_from_spec",
    "render_class_key",
    "render_html_page",
    "render_text",
    "run_campaign",
    "save_campaigns",
    "save_reproducer",
    "scenario_from_dict",
    "scenario_to_dict",
    "window_index",
]
