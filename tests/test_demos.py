"""Every demo script, and the README quick start, runs to completion.

Each demo runs with ``-W error::RuntimeWarning``, the warning filter the
test suite itself runs under, which a subprocess does not inherit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = os.environ | {"PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_quick_start_runs(capsys):
    # The first python block under "## Quick start"; it writes no files.
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    di, ti, dc, defaulted = capsys.readouterr().out.split()
    assert 0.0 <= float(di) <= float(ti) <= 1.0
    assert 0.0 <= float(dc) <= 1.0 and int(defaulted) >= 1
    assert namespace["shortfall"].shape == (1000,)
