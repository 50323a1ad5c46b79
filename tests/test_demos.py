"""Smoke tests: the fast demos run to their last line.

``acceleration_study.py`` and ``dual_regime_sweep.py`` take tens of seconds
and are left to be run by hand.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo, last_words",
    [
        ("parameter_recipes.py", "use moderate hand-picked (r, s) for actual runs."),
        ("lasso_vs_baseline.py", "masks absolute steps"),
    ],
)
def test_demo_runs_to_its_last_line(demo, last_words, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert capsys.readouterr().out.rstrip().endswith(last_words)
