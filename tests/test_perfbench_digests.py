"""The benchmark's recorded output digests, checked in the test suite.

Each perfbench workload runs one CLI call at the default seed (42), through
perfbench's own input maker, call runner and digest check, so any change
to the bytes of ``scores.csv``, ``metrics.json``, ``trials.jsonl`` or
``final_metrics.json`` fails here. The digests hold only where they were
recorded: the test is skipped unless Python, numpy, scipy, the BLAS and
the machine type match ``perfbench/digests.json`` (the CPU count may
differ).
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402

_RECORDED = json.loads(run.DIGESTS.read_text())["environment"]
_HERE = run.environment()
_DIFFERENT = sorted(key for key in _RECORDED.keys() | _HERE.keys()
                    if key != "nproc" and _RECORDED.get(key) != _HERE.get(key))

pytestmark = pytest.mark.skipif(
    bool(_DIFFERENT),
    reason=f"environment differs from the recorded digests in {_DIFFERENT}")


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_output_matches_recorded_digests(name, tmp_path):
    w = run.WORKLOADS[name]
    expected = run.expected_digests(w, run.DEFAULT_SEED)
    assert expected, f"no recorded digests for {name}"
    run.make_inputs(w, run.DEFAULT_SEED, tmp_path / "inputs")
    call = run.run_call(w, tmp_path / "inputs", tmp_path / "out", False,
                        run.child_env(), run.RUN_DEADLINE_S)
    run.check_digests(call, expected)
    assert call["ok"], call.get("error")
