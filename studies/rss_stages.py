"""Where the resident memory of one ``msde run`` or ``msde tune`` call peaks,
stage by stage.

Makes a perfbench workload's inputs (``perfbench/workloads.py``, seed 42)
in a temporary directory, then runs the workload's command (``msde run``
or ``msde tune``, with its flags) on them once in a fresh
interpreter whose ``PYTHONPATH`` is ``--src`` alone, with BLAS pinned to
one thread as perfbench pins it. In that child every function in
``STAGES`` found in the loaded ``msde`` modules is wrapped, by monkeypatching
alone (nothing in ``msde`` records anything), so that after each call
returns it prints the process's peak RSS so far (``ru_maxrss``) and its
current RSS (``/proc/self/statm``, Linux only), in MB. A stage whose line
raises the peak is where the peak sits; nested calls are indented under
the call that made them. Functions a checkout lacks are skipped, so two
checkouts can be compared:

    python studies/rss_stages.py --workload run-noshift --src ../parent/src
    python studies/rss_stages.py --workload run-noshift --src src
    python studies/rss_stages.py --workload tune-d32 --src src

pytest does not collect this directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, function): the pipeline's public steps, in the order a run
# reaches them, and inside score_shifted the private scoring cores and
# the blocked Mahalanobis solve (one line per call, not per block).
STAGES = (
    ("msde.data", "load_rows"),
    ("msde.data", "load_labels"),
    ("msde.data", "fit_standardizer"),
    ("msde.data", "apply_standardizer"),
    ("msde.weights", "prepare_weights"),
    ("msde.scoring", "prepare_rows"),
    ("msde.shift", "prepare_joint"),
    ("msde.shift", "joint_shift"),
    ("msde.scoring", "_fit_pca"),
    ("msde.scoring", "_rotate"),
    ("msde.scoring", "_fit_gaussian"),
    ("msde.scoring", "_mahalanobis"),
    ("msde.scoring", "fit_pca"),
    ("msde.scoring", "project"),
    ("msde.scoring", "fit_gaussian"),
    ("msde.scoring", "mahalanobis"),
    ("msde.scoring", "normalize_scores"),
    ("msde.metrics", "evaluate"),
    ("msde.scoring", "score_shifted"),
    ("msde.scoring", "score_rows"),
    ("msde.tune", "random_search"),
    ("msde.data", "save_scores"),
)


def _rss_mb() -> tuple[float, float]:
    """(peak, current) resident set size of this process in MB."""
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open("/proc/self/statm") as fh:
        resident_pages = int(fh.read().split()[1])
    return peak, resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _child(argv: list[str]) -> int:
    """Wrap every stage in every msde module that binds it, then run ``argv``."""
    import msde.cli

    depth = [0]

    def report(name: str) -> None:
        peak, current = _rss_mb()
        print(f"{peak:10.1f} {current:10.1f}  {'  ' * depth[0]}{name}", flush=True)

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                report(name)
        return wrapper

    for module_name, func_name in STAGES:
        original = getattr(sys.modules.get(module_name), func_name, None)
        if original is None:
            continue
        wrapper = wrap(f"{module_name.removeprefix('msde.')}.{func_name}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "msde" or mod_name.startswith("msde.")):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    print(f"{'peak_mb':>10} {'rss_mb':>10}  after", flush=True)
    report("import msde.cli")
    code = msde.cli.main(argv)
    report(f"msde {argv[0]} (exit {code})")
    return code


def _make_inputs(name: str, out: Path) -> None:
    """Write the workload's seed-42 inputs from a process of their own: a
    child made while this process held them would start from its peak RSS."""
    script = ("import sys; from pathlib import Path; from workloads import "
              "DEFAULT_SEED, WORKLOADS, make_inputs; "
              "make_inputs(WORKLOADS[sys.argv[1]], DEFAULT_SEED, Path(sys.argv[2]))")
    subprocess.run([sys.executable, "-c", script, name, str(out)], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "perfbench")})


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="run-noshift")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the directory holding the msde package to measure")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp) / "inputs", Path(tmp) / "out"
        _make_inputs(args.workload, inputs)
        env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve()),
               **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}}
        print(f"{args.workload}: {workload.n_train}x{workload.dim} train, "
              f"{workload.n_test_normal}+{workload.n_test_anomalous} test, "
              f"msde from {args.src}", flush=True)
        return subprocess.run([sys.executable, __file__, "--child",
                               *workload.argv(inputs, out)], env=env).returncode


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(_child(sys.argv[2:]))
    sys.exit(main())
