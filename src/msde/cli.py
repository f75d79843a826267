"""Command-line entry point: run, synth, tune, eval.

Every run and tune writes a resolved-config echo (all settings, tune's
seed and trial count, input digests) sufficient to reproduce it byte for
byte. Errors print one machine-parsable line ``MSDE-ERR <module>: detail``
and map to exit codes 1 (usage), 2 (data), 3 (numeric).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .config import (
    CONFIG_FIELD_TYPES,
    MsdeConfig,
    build_config,
    config_echo,
    external_key,
    parse_config_file,
)
from .data import (
    DatasetSplit,
    SyntheticSpec,
    attach_labels,
    generate_synthetic,
    load_embeddings,
    load_labels,
    load_scores,
    save_embeddings,
    save_scores,
)
from .exceptions import ConfigError, MetricError, MsdeError
from .metrics import evaluate, metrics_json
from .scoring import score_pipeline
from .tune import DEFAULT_TRIALS, SearchSpace, random_search

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors and use 1 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"MSDE-ERR cli: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--no-shift", action="store_true",
                   help="baseline mode: alias for --max-iters 0")
    for key, typ in CONFIG_FIELD_TYPES.items():
        flag = external_key(key).replace("_", "-")
        if typ is bool:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--" + flag, dest=key, action="store_const", const=True,
                               default=None)
            group.add_argument("--no-" + flag, dest=key,
                               action="store_const", const=False, default=None)
        else:
            p.add_argument("--" + flag, dest=key, type=typ, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="msde", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[], help="score a train/test pair")
    run.add_argument("--train", required=True)
    run.add_argument("--test", required=True)
    run.add_argument("--labels", help="sidecar row_id,label CSV for the test set")
    run.add_argument("--out", required=True)
    run.add_argument("--dump-weights", action="store_true",
                     help="also write the density weights of both shift runs")
    _add_config_flags(run)

    synth = sub.add_parser("synth", help="write a synthetic blob dataset")
    synth.add_argument("--out", required=True)
    synth.add_argument("--dim", type=int, default=SyntheticSpec.dim)
    synth.add_argument("--n-train", type=int, default=SyntheticSpec.n_train)
    synth.add_argument("--n-test-normal", type=int, default=SyntheticSpec.n_test_normal)
    synth.add_argument("--n-test-anomalous", type=int,
                       default=SyntheticSpec.n_test_anomalous)
    synth.add_argument("--anomaly-offset", type=float,
                       default=SyntheticSpec.anomaly_offset)
    synth.add_argument("--noise-scale", type=float, default=SyntheticSpec.noise_scale)
    synth.add_argument("--seed", type=int, default=0)

    tune = sub.add_parser("tune", help="random search under the zero-leakage protocol")
    tune.add_argument("--train", required=True)
    tune.add_argument("--test", required=True)
    tune.add_argument("--labels")
    tune.add_argument("--out", required=True)
    tune.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    tune.add_argument("--seed", type=int, default=0)
    _add_config_flags(tune)

    ev = sub.add_parser("eval", help="recompute metrics from a scores CSV")
    ev.add_argument("--scores", required=True)
    ev.add_argument("--labels", help="optional sidecar overriding the CSV labels")
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    values = {key: v for key in CONFIG_FIELD_TYPES
              if (v := getattr(args, key, None)) is not None}
    if getattr(args, "no_shift", False):
        values["max_iters"] = 0
    return values


def _resolve_config(args: argparse.Namespace) -> MsdeConfig:
    layers = []
    if getattr(args, "config", None):
        layers.append(parse_config_file(args.config))
    layers.append(_flag_overrides(args))
    return build_config(*layers)


def _load_split(args: argparse.Namespace) -> DatasetSplit:
    # distinct id prefixes keep train/test ids unique when mixed (tuning
    # builds validation sets out of rows from both)
    train = load_embeddings(args.train, id_prefix="train")
    test = load_embeddings(args.test, id_prefix="test")
    if train.dim != test.dim:
        raise ConfigError(
            f"train dim {train.dim} != test dim {test.dim}", module="data_io"
        )
    if args.labels:
        test = attach_labels(test, load_labels(args.labels))
    if test.labels is None:
        raise ConfigError(
            "test labels are required; pass --labels", module="data_io"
        )
    return DatasetSplit(train=train, test=test)


def _write_trace(path: Path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, trace in (("solo", report.solo_trace), ("joint", report.joint_trace)):
            if trace is None:
                continue
            for i, delta in enumerate(trace.deltas, start=1):
                fh.write(f"{name} iteration {i} delta {delta:.17g}\n")
            fh.write(f"{name} converged {str(trace.converged).lower()} "
                     f"after {trace.iterations_run} iterations\n")


def _dump_weights(path: Path, row_ids, weights) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("row_id,weight\n")
        for rid, w in zip(row_ids, weights.weights):
            fh.write(f"{rid},{w:.17g}\n")


def _cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    split = _load_split(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    report = score_pipeline(split, config)
    save_scores(report, out / "scores.csv")
    if args.dump_weights:
        if report.solo_weights is not None:
            _dump_weights(out / "weights_train.csv", split.train.row_ids,
                          report.solo_weights)
        if report.joint_weights is not None:
            union_ids = [f"train:{r}" for r in split.train.row_ids] + \
                        [f"test:{r}" for r in split.test.row_ids]
            _dump_weights(out / "weights_joint.csv", union_ids,
                          report.joint_weights)
    if report.metrics is None:
        raise MetricError("test labels contain a single class; no metrics")
    (out / "metrics.json").write_text(metrics_json(report.metrics) + "\n")
    inputs = {"train": args.train, "test": args.test}
    if args.labels:
        inputs["labels"] = args.labels
    (out / "config_echo.txt").write_text(config_echo(config.flat(), inputs))
    _write_trace(out / "shift_trace.log", report)
    print(metrics_json(report.metrics))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.n_test_anomalous < 1:
        raise ConfigError("n_test_anomalous must be >= 1 (evaluation needs positives)")
    spec = SyntheticSpec(
        dim=args.dim,
        n_train=args.n_train,
        n_test_normal=args.n_test_normal,
        n_test_anomalous=args.n_test_anomalous,
        anomaly_offset=args.anomaly_offset,
        noise_scale=args.noise_scale,
    )
    split = generate_synthetic(spec, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_embeddings(split.train, out / "train.npy")
    save_embeddings(split.test, out / "test.npy")
    # Sidecar ids must match what `run`/`tune` will assign on load.
    reloaded_ids = [f"test_{i:06d}" for i in range(split.test.n_samples)]
    with open(out / "labels.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("row_id,label\n")
        for rid, lab in zip(reloaded_ids, split.test.labels):
            fh.write(f"{rid},{int(lab)}\n")
    print(f"wrote train.npy test.npy labels.csv to {out}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    split = _load_split(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    best, records, final_metrics = random_search(
        split, SearchSpace(), n_trials=args.trials, seed=args.seed,
        base_config=config,
    )
    with open(out / "trials.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "trial_index": rec.trial_index,
                "params": dataclasses.asdict(rec.params),
                "val_auc": rec.val_auc,
                "val_ap": rec.val_ap,
                "seed": rec.seed,
            }) + "\n")
        fh.write(json.dumps({
            "summary": True,
            "best_trial": best.trial_index,
            "final_auc": final_metrics.auc,
            "final_ap": final_metrics.ap,
        }) + "\n")
    with open(out / "trials.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial_index,k,eta,max_iters,tol,t_nbd,val_auc,val_ap,seed\n")
        for rec in records:
            p = rec.params
            fh.write(f"{rec.trial_index},{p.k},{p.eta:.17g},{p.max_iters},"
                     f"{p.tol:.17g},{p.t_nbd},{rec.val_auc:.17g},"
                     f"{rec.val_ap:.17g},{rec.seed}\n")
    (out / "best_params.json").write_text(
        json.dumps(dataclasses.asdict(best.params), indent=2) + "\n"
    )
    (out / "final_metrics.json").write_text(metrics_json(final_metrics) + "\n")
    inputs = {"train": args.train, "test": args.test}
    if args.labels:
        inputs["labels"] = args.labels
    settings = {**config.flat(), "seed": args.seed, "trials": args.trials}
    (out / "config_echo.txt").write_text(config_echo(settings, inputs))
    print(metrics_json(final_metrics))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    row_ids, labels, raw, _ = load_scores(args.scores)
    if args.labels:
        mapping = load_labels(args.labels)
        missing = [r for r in row_ids if r not in mapping]
        if missing:
            raise MetricError(f"label file missing id {missing[0]!r}")
        labels = [mapping[r] for r in row_ids]
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
