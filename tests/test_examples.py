"""Example-script smoke tests: every shipped example must actually run.

The slow DRL examples are exercised through their underlying library
functions elsewhere (tests/test_integration.py, benchmarks/); here we run
the fast ones end-to-end as real subprocesses, so import errors, stale
APIs, or broken __main__ blocks in `examples/` fail CI.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "custom_market.py",
    "multi_msp_competition.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{script} produced no output"


def test_quickstart_reports_equilibrium():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "25.34" in result.stdout  # the paper-anchored price


def test_all_examples_present():
    """The README promises five runnable examples."""
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts >= {
        "quickstart.py",
        "train_drl_pricing.py",
        "cost_sweep.py",
        "custom_market.py",
        "multi_msp_competition.py",
    }
