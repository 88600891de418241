"""Where a run happened: one environment fingerprint for every artifact.

Every persisted observability artifact — campaign results, proof
artifacts, ledger and bench records — stamps the *same* fingerprint,
so any two of them can answer "were these taken on comparable
machines?" with plain equality.

Timings are only comparable between matching fingerprints; the record
comparator warns — never gates — when fingerprints differ.
"""

from __future__ import annotations

import platform
import subprocess
import time
from typing import Any, Dict

__all__ = ["environment_fingerprint", "utc_now"]


def _git_commit() -> str:
    """The current commit hash, or "unknown" outside a git checkout."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = output.stdout.strip()
    return commit if output.returncode == 0 and commit else "unknown"


def environment_fingerprint() -> Dict[str, Any]:
    """Where an artifact was produced: platform, python, commit."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def utc_now() -> str:
    """The artifact timestamp: seconds-precision UTC ISO-8601."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
