"""Schema stamping and validation shared by every JSON artifact.

Every machine-readable artifact the project persists carries a
versioned ``schema`` field (``repro.obs.campaign/1``,
``repro.lint.proof/1``, ``repro.obs.causal/1``, ``repro.obs.ledger/1``,
...).  Four subsystems grew four hand-rolled
validators with four error spellings; this module is the one shared
implementation, so an unknown schema version or a missing required
field fails with the *same* message everywhere:

* ``not a JSON object`` — the payload is not a mapping at all;
* ``expected schema 'X/1', got 'Y'`` — wrong or unknown version;
* ``missing required field 'name'`` — a structurally required key is
  absent.

:func:`validate_stamp` raises :class:`ValueError` listing every
problem.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

__all__ = ["stamp", "validate_stamp"]


def stamp(schema_id: str, payload: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """A new dict carrying the ``schema`` stamp plus ``payload``.

    The stamp comes first, so the schema line leads the serialized
    artifact even without ``sort_keys``.
    """
    data: Dict[str, Any] = {"schema": schema_id}
    if payload:
        data.update(payload)
    return data


def validate_stamp(
    data: Any,
    schema_id: str,
    required: Sequence[str] = (),
    where: str = "",
) -> Mapping[str, Any]:
    """Raise :class:`ValueError` unless ``data`` is a valid artifact.

    ``where`` (typically the file path) prefixes the message.  Returns
    ``data`` itself so loaders can validate-and-bind in one line.
    """
    if not isinstance(data, Mapping):
        problems = ["not a JSON object"]
    else:
        problems = []
        found = data.get("schema")
        if found != schema_id:
            problems.append(f"expected schema {schema_id!r}, got {found!r}")
        problems.extend(
            f"missing required field {name!r}"
            for name in required if name not in data
        )
    if problems:
        prefix = f"{where}: " if where else ""
        raise ValueError(prefix + "; ".join(problems))
    return data
