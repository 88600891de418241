"""Rule-registry invariants: stable IDs, docs/registry bijection.

Lint rule IDs are a public contract — suppressions, CI baselines and
SARIF uploads all refer to them — so this file pins them:

* every ID is unique, well-formed, and *stays* in the frozen set below
  (extending the set is fine, renumbering is not, and an ID is dropped
  only by retiring it for good);
* every registered rule appears in the ``docs/lint.md`` reference
  tables with the same severity, and vice versa — the docs can never
  drift from the registry.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.lint import all_rules
from repro.lint.registry import Scope

DOCS = Path(__file__).parent.parent / "docs" / "lint.md"

#: Every rule ID ever shipped.  IDs are never reused or renumbered:
#: extending this set is the only allowed change.
SHIPPED_IDS = {
    "FT101", "FT102", "FT103", "FT104", "FT105", "FT106", "FT107", "FT108",
    "FT201", "FT202", "FT203", "FT204", "FT205", "FT206", "FT207", "FT208",
    "FT209", "FT210", "FT211", "FT212", "FT213", "FT214", "FT215", "FT216",
    "FT301",
    "FT401", "FT402", "FT403", "FT404",
}

#: Shipped IDs that are no longer registered.  A retired ID is never
#: reused, and ``--suppress`` still accepts it (unknown IDs are ignored).
#: FT216 (delivery-gap) was a plan heuristic, not a proof, beside
#: FT401; FT403 (stand-down-races-lost-frame) could no longer fire
#: since a watcher stands down only on a completed frame.
RETIRED_IDS = {"FT216", "FT403"}


def _documented_rules():
    """``{id: (name, severity)}`` parsed from the docs/lint.md tables."""
    rows = {}
    for line in DOCS.read_text().splitlines():
        match = re.match(
            r"\|\s*(FT\d{3})\s*\|\s*([A-Za-z0-9-]+)\s*\|\s*"
            r"(error|warning|info)\s*\|",
            line,
        )
        if match:
            rows[match.group(1)] = (match.group(2), match.group(3))
    return rows


class TestRegistry:
    def test_ids_unique_and_well_formed(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        for rule in rules:
            assert re.fullmatch(r"FT\d{3}", rule.id), rule.id
            assert rule.name and rule.summary
            assert rule.scope in (Scope.PROBLEM, Scope.SCHEDULE)

    def test_ids_are_stable(self):
        """No shipped ID may disappear unless it is retired; new IDs
        must extend the frozen set here (in the same change that
        documents them)."""
        assert RETIRED_IDS <= SHIPPED_IDS
        registered = {rule.id for rule in all_rules()}
        assert registered == SHIPPED_IDS - RETIRED_IDS, (
            f"missing: {sorted(SHIPPED_IDS - RETIRED_IDS - registered)}; "
            f"undeclared new: {sorted(registered - SHIPPED_IDS)}"
        )

    def test_id_prefix_matches_scope(self):
        """FT1xx inspect problems; every other family inspects
        schedules (FT3xx via the decision log, FT4xx via the proof)."""
        for rule in all_rules():
            expected = (
                Scope.PROBLEM if rule.id.startswith("FT1") else Scope.SCHEDULE
            )
            assert rule.scope is expected, rule.id


class TestDocsBijection:
    def test_every_rule_documented(self):
        documented = _documented_rules()
        for rule in all_rules():
            assert rule.id in documented, (
                f"{rule.id} ({rule.name}) is registered but missing from "
                "docs/lint.md"
            )
            doc_name, doc_severity = documented[rule.id]
            assert doc_name == rule.name, (
                f"{rule.id}: docs name {doc_name!r} != registry {rule.name!r}"
            )
            assert doc_severity == rule.severity.value, (
                f"{rule.id}: docs severity {doc_severity!r} != registry "
                f"{rule.severity.value!r}"
            )

    def test_every_documented_rule_registered(self):
        registered = {rule.id for rule in all_rules()}
        for rule_id in _documented_rules():
            assert rule_id in registered, (
                f"docs/lint.md documents {rule_id} but the registry does "
                "not know it"
            )
