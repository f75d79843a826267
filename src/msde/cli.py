"""Command-line entry point: run, synth, tune, eval.

Each command's flags come from the dataclass fields it reads: ``run``
takes every config key, ``tune`` the ones its ``SearchSpace`` does not
sample, ``synth`` the ``SyntheticSpec`` fields. Flags must be spelled in
full. Every run and tune writes a resolved-config echo (the settings it
used, tune's seed and trial count, the msde, numpy and scipy versions,
input digests) sufficient to reproduce it byte for byte, plus the BLAS
numpy and scipy were built with and the ``OPENBLAS_NUM_THREADS`` the
process saw, which can change the last bits. Errors print one
machine-parsable line ``MSDE-ERR <module>: detail`` and map to exit codes
1 (usage), 2 (data), 3 (numeric).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import scipy

from . import __version__
from .config import (
    CONFIG_FIELD_TYPES,
    MsdeConfig,
    build_config,
    config_echo,
    external_key,
    parse_config_file,
)
from .data import (
    SyntheticSpec,
    default_row_ids,
    generate_synthetic,
    join_labels,
    load_labels,
    load_rows,
    load_scores,
    save_scores,
    write_lines,
)
from .exceptions import ConfigError, MetricError, MsdeError
from .metrics import evaluate, metrics_json
from .scoring import score_rows
from .tune import DEFAULT_TRIALS, SearchSpace, random_search

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

# The config keys (and their types) each command reads: tune samples the
# SearchSpace fields in every trial, so it takes only the others.
_SAMPLED_KEYS = {f.name for f in dataclasses.fields(SearchSpace)}
_CONFIG_KEYS = {
    "run": CONFIG_FIELD_TYPES,
    "tune": {k: t for k, t in CONFIG_FIELD_TYPES.items() if k not in _SAMPLED_KEYS},
}
_SYNTH_TYPES = get_type_hints(SyntheticSpec)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors and use 1 for usage. Abbreviated flags are refused, so a
    prefix can never select a different setting. Leftover arguments are
    reported by the chosen command's parser (``commands``), so the usage
    printed is that command's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.commands: dict[str, argparse.ArgumentParser] = {}

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            command = self.commands.get(getattr(parsed, "command", None), self)
            command.error(f"unrecognized arguments: {' '.join(extras)}")
        return parsed

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"MSDE-ERR cli: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``, so a bad value is a usage error."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return parse


def _add_field_flags(p: argparse.ArgumentParser, types: dict[str, type],
                     groups=None) -> None:
    """One kebab-case flag per field, default None (unset), added to
    ``groups[field]`` (a mutually exclusive group) when there is one."""
    groups = groups or {}
    for key, typ in types.items():
        flag = "--" + external_key(key).replace("_", "-")
        groups.get(key, p).add_argument(flag, dest=key, type=typ)


def _add_pipeline_parser(sub, command: str, help: str) -> argparse.ArgumentParser:
    """A command over a train/test pair: its inputs, ``--out``, ``--config``
    and one flag per config key it reads; ``run`` also takes ``--no-shift``,
    which cannot be given with ``--max-iters``."""
    p = sub.add_parser(command, help=help)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--labels", required=True,
                   help="sidecar row_id,label CSV for the test set")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="flat key=value config file")
    groups = {}
    if command == "run":
        groups["max_iters"] = p.add_mutually_exclusive_group()
        groups["max_iters"].add_argument(
            "--no-shift", dest="max_iters", action="store_const", const=0,
            help="baseline mode: alias for --max-iters 0")
    _add_field_flags(p, _CONFIG_KEYS[command], groups)
    return p


def _build_parser() -> _Parser:
    parser = _Parser(prog="msde", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    run = _add_pipeline_parser(sub, "run", "score a train/test pair")
    run.add_argument("--dump-weights", action="store_true",
                     help="also write the density weights of both shift runs")

    synth = sub.add_parser("synth", help="write a synthetic blob dataset")
    synth.add_argument("--out", required=True)
    _add_field_flags(synth, _SYNTH_TYPES)
    synth.add_argument("--seed", type=_int_at_least(0), default=0)

    tune = _add_pipeline_parser(sub, "tune",
                                "random search under the zero-leakage protocol")
    tune.add_argument("--trials", type=_int_at_least(1), default=DEFAULT_TRIALS)
    tune.add_argument("--seed", type=_int_at_least(0), default=0)

    ev = sub.add_parser("eval", help="recompute metrics from a scores CSV")
    ev.add_argument("--scores", required=True)
    ev.add_argument("--labels", help="sidecar replacing the scores file's labels; "
                    "its ids must be exactly the scores file's")
    return parser


def _given(args: argparse.Namespace, keys) -> dict:
    """The flags among ``keys`` that were passed on the command line."""
    return {key: v for key in keys if (v := getattr(args, key)) is not None}


def _prepare(args: argparse.Namespace, load):
    """Resolve the command's config keys, ``load(args)`` its inputs, create
    ``--out``."""
    keys = _CONFIG_KEYS[args.command]
    file_values = parse_config_file(args.config) if args.config else {}
    unread = [external_key(k) for k in file_values if k not in keys]
    if unread:
        raise ConfigError(f"{args.config}: msde {args.command} does not take "
                          f"{', '.join(unread)}")
    config = build_config(file_values, _given(args, keys))
    if getattr(args, "dump_weights", False) and config.shift.max_iters == 0:
        raise ConfigError("--dump-weights writes the shift runs' weights, "
                          "but max_iters is 0, so nothing shifts")
    inputs = load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, inputs, out


def _load_rows(args: argparse.Namespace):
    """The train then test rows in one array (``load_rows``), the train row
    count, and the test rows' ids and sidecar labels."""
    rows, n_train = load_rows(args.train, args.test)
    test_ids = default_row_ids(len(rows) - n_train, "test")
    return rows, n_train, test_ids, join_labels(test_ids, load_labels(args.labels))


def _blas(module) -> str:
    """The BLAS name and version ``module`` was built with, from its
    build config; ``unknown`` where the config lacks one."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # no mode= before numpy 1.25 and scipy 1.11
        blas = {}
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def _write_echo(args: argparse.Namespace, config: MsdeConfig, out: Path, **extra) -> None:
    """The settings the command read, ``extra`` ones, versions, the BLAS
    builds and thread setting, input digests."""
    flat = config.flat()
    settings = {name: flat[name] for name in map(external_key, _CONFIG_KEYS[args.command])}
    inputs = {"train": args.train, "test": args.test, "labels": args.labels}
    versions = {"msde": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
                "numpy.blas": _blas(np), "scipy.blas": _blas(scipy)}
    env = {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}
    write_lines(out / "config_echo.txt",
                config_echo({**settings, **extra}, inputs, versions, env))


def _trace_lines(report):
    for name, trace in (("solo", report.solo_trace), ("joint", report.joint_trace)):
        if trace is None:
            continue
        for i, delta in enumerate(trace.deltas, start=1):
            yield f"{name} iteration {i} delta {delta:.17g}"
        yield (f"{name} converged {str(trace.converged).lower()} "
               f"after {trace.iterations_run} iterations")


def _dump_weights(path: Path, row_ids, weights) -> None:
    write_lines(path, ["row_id,weight",
                       *(f"{rid},{w:.17g}" for rid, w in zip(row_ids, weights.weights))])


def _cmd_run(args: argparse.Namespace) -> int:
    config, (rows, n_train, test_ids, labels), out = _prepare(args, _load_rows)
    report = score_rows(rows, n_train, test_ids, labels, config)
    save_scores(report, out / "scores.csv")
    if args.dump_weights:
        train_ids = default_row_ids(n_train, "train")
        _dump_weights(out / "weights_train.csv", train_ids, report.solo_weights)
        union_ids = [f"train:{r}" for r in train_ids] + \
                    [f"test:{r}" for r in test_ids]
        _dump_weights(out / "weights_joint.csv", union_ids, report.joint_weights)
    _write_echo(args, config, out)
    write_lines(out / "shift_trace.log", _trace_lines(report))
    if report.metrics is None:
        raise MetricError("test labels contain a single class; no metrics")
    write_lines(out / "metrics.json", [metrics_json(report.metrics)])
    print(metrics_json(report.metrics))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(**_given(args, _SYNTH_TYPES))
    rows, n_train, test_ids, labels = generate_synthetic(spec, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "train.npy", rows[:n_train], allow_pickle=False)
    np.save(out / "test.npy", rows[n_train:], allow_pickle=False)
    # the ids `run` and `tune` assign on load (_load_rows)
    write_lines(out / "labels.csv", ["row_id,label", *(
        f"{rid},{int(lab)}" for rid, lab in zip(test_ids, labels))])
    print(f"wrote train.npy test.npy labels.csv to {out}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    config, (rows, n_train, test_ids, labels), out = _prepare(args, _load_rows)
    best, records, final_metrics = random_search(
        rows, n_train, test_ids, labels, SearchSpace(), n_trials=args.trials,
        seed=args.seed, base_config=config,
    )
    write_lines(out / "trials.jsonl", [
        *(json.dumps({
            "trial_index": rec.trial_index,
            "params": dataclasses.asdict(rec.params),
            "val_auc": rec.val_auc,
            "val_ap": rec.val_ap,
            "seed": rec.seed,
        }) for rec in records),
        json.dumps({
            "summary": True,
            "best_trial": best.trial_index,
            "final_auc": final_metrics.auc,
            "final_ap": final_metrics.ap,
        }),
    ])
    write_lines(out / "trials.csv", [
        "trial_index,k,eta,max_iters,tol,t_nbd,val_auc,val_ap,seed",
        *(f"{rec.trial_index},{rec.params.k},{rec.params.eta:.17g},"
          f"{rec.params.max_iters},{rec.params.tol:.17g},{rec.params.t_nbd},"
          f"{rec.val_auc:.17g},{rec.val_ap:.17g},{rec.seed}" for rec in records),
    ])
    write_lines(out / "best_params.json",
                [json.dumps(dataclasses.asdict(best.params), indent=2)])
    write_lines(out / "final_metrics.json", [metrics_json(final_metrics)])
    _write_echo(args, config, out, seed=args.seed, trials=args.trials)
    print(metrics_json(final_metrics))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    row_ids, labels, raw, _ = load_scores(args.scores)
    if args.labels:
        labels = join_labels(row_ids, load_labels(args.labels))
    result = evaluate(raw, labels)
    print(metrics_json(result))
    return 0


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("MSDE_LOG", "warn").lower())
    if level is None:
        print("MSDE-ERR cli: MSDE_LOG must be one of error/warn/info/debug",
              file=sys.stderr)
        return 1
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "synth": _cmd_synth,
                "tune": _cmd_tune, "eval": _cmd_eval}
    try:
        return handlers[args.command](args)
    except MsdeError as exc:
        print(f"MSDE-ERR {exc.module}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"MSDE-ERR data_io: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
