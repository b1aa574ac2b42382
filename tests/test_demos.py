"""Every script under demos/ runs to completion in a fresh interpreter, and
README's "A 60-second tour" block in this one, with every Python warning (a
numpy RuntimeWarning, say) raised as an error."""

import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

ROOT = pathlib.Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error")
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_demos_found():
    assert len(DEMOS) == 6


def test_readme_tour_runs_and_its_comments_hold():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^## A 60-second tour\n+```python\n(.*?)^```", readme, re.M | re.S)[1]
    scope = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), scope)
    # the bounds as the block's comment shows them, "..." for the digits it leaves out
    shown = re.search(r"^# (PenaltyBounds\(.*\))$", code, re.M)[1]
    pattern = re.escape(shown).replace(re.escape("..."), r"\d*")
    assert re.fullmatch(pattern, repr(scope["penalty_bounds"](scope["pen"])))
    assert round(scope["lam_star"], 1) == 8.9
    profiles = scope["profiles"]
    first, last = (p.minima[p.global_index][0] for p in (profiles[0], profiles[-1]))
    assert first == pytest.approx(3.0) and last == pytest.approx(0.02, abs=0.005)
    assert scope["result"].converged
