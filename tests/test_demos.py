"""Smoke test: every demo script, and the README's Library example, runs to
completion against the library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # tmp_path as cwd keeps any file a demo saves out of the checkout
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    proc = _run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = _run(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    auc, ap = map(float, proc.stdout.split())
    assert 0.5 < auc <= 1.0 and 0.0 < ap <= 1.0
