"""CLI surface: subcommands, outputs, determinism, exit codes, config."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msde.cli import main
from msde.config import CONFIG_FIELD_TYPES, build_config, parse_config_file
from msde.exceptions import ConfigError


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--dim", "6", "--n-train", "60",
                 "--n-test-normal", "20", "--n-test-anomalous", "20",
                 "--anomaly-offset", "4.0", "--seed", "3"]) == 0
    return out


# Flags of settings removed from `msde run` and the config file, each with
# the value it once took: two that no paper setting, demo or test used, and
# --seed, which run never read (tune and synth have their own --seed).
REMOVED_FLAGS = {"--fit-on-joint": (), "--static-graph": (), "--seed": ("3",)}


def _run_args(synth_dir, out, extra=()):
    return ["run",
            "--train", str(synth_dir / "train.npy"),
            "--test", str(synth_dir / "test.npy"),
            "--labels", str(synth_dir / "labels.csv"),
            "--out", str(out),
            "--k", "10", "--t-nbd", "10", "--k-umap", "10",
            "--max-iters", "3", "--pca-dim", "6", *extra]


class TestSynth:
    def test_writes_three_loadable_files(self, synth_dir):
        assert (synth_dir / "train.npy").exists()
        assert (synth_dir / "test.npy").exists()
        labels = (synth_dir / "labels.csv").read_text().splitlines()
        assert labels[0] == "row_id,label"
        assert len(labels) == 41

    def test_seed_changes_output(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out, seed in ((a, "1"), (b, "2"), (c, "1")):
            assert main(["synth", "--out", str(out), "--seed", seed]) == 0
        assert (a / "train.npy").read_bytes() == (c / "train.npy").read_bytes()
        assert (a / "train.npy").read_bytes() != (b / "train.npy").read_bytes()

    def test_zero_anomalies_refused(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "x"),
                     "--n-test-anomalous", "0"])
        assert code == 1


class TestRun:
    def test_outputs_and_exit_zero(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_run_args(synth_dir, out)) == 0
        for name in ("scores.csv", "metrics.json", "config_echo.txt",
                     "shift_trace.log"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"auc", "ap", "n_pos", "n_neg"}
        assert metrics["auc"] > 0.9
        echo = (out / "config_echo.txt").read_text()
        assert "seed = " not in echo and "sha256" in echo
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == metrics

    def test_byte_identical_reruns(self, synth_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(_run_args(synth_dir, a)) == 0
        assert main(_run_args(synth_dir, b)) == 0
        assert (a / "scores.csv").read_bytes() == (b / "scores.csv").read_bytes()

    def test_threads_do_not_change_scores(self, synth_dir, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t4"
        assert main(_run_args(synth_dir, a, ("--threads", "1"))) == 0
        assert main(_run_args(synth_dir, b, ("--threads", "4"))) == 0
        assert (a / "scores.csv").read_bytes() == (b / "scores.csv").read_bytes()

    def test_no_shift_flag_is_max_iters_zero(self, synth_dir, tmp_path):
        a, b = tmp_path / "ns", tmp_path / "mi0"
        assert main(_run_args(synth_dir, a, ("--no-shift",))) == 0
        assert main(_run_args(synth_dir, b, ("--max-iters", "0"))) == 0
        assert (a / "scores.csv").read_bytes() == (b / "scores.csv").read_bytes()

    def test_dim_mismatch_exits_nonzero_with_both_dims(self, synth_dir,
                                                       tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--dim", "4"]) == 0
        code = main(["run", "--train", str(synth_dir / "train.npy"),
                     "--test", str(other / "test.npy"),
                     "--labels", str(other / "labels.csv"),
                     "--out", str(tmp_path / "x")])
        assert code != 0
        err = capsys.readouterr().err
        assert "MSDE-ERR" in err and "6" in err and "4" in err

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main(["run", "--train", str(tmp_path / "nope.npy"),
                     "--test", str(tmp_path / "nope.npy"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "MSDE-ERR" in capsys.readouterr().err

    def test_dump_weights_flag(self, synth_dir, tmp_path):
        out = tmp_path / "dw"
        assert main(_run_args(synth_dir, out, ("--dump-weights",))) == 0
        train_lines = (out / "weights_train.csv").read_text().splitlines()
        joint_lines = (out / "weights_joint.csv").read_text().splitlines()
        assert train_lines[0] == "row_id,weight"
        assert len(train_lines) == 61  # header + 60 train rows
        assert len(joint_lines) == 101  # header + 60 train + 40 test rows
        assert joint_lines[1].startswith("train:train_000000,")
        assert float(train_lines[1].split(",")[1]) >= 0.0

    def test_config_file_applied_and_flags_override(self, synth_dir, tmp_path):
        cfg = tmp_path / "msde.cfg"
        cfg.write_text("k = 10\nt_nbd = 10\nk_umap = 10\n"
                       "max_iters = 2\npca_dim = 6\n")
        out_file = tmp_path / "file_only"
        out_flag = tmp_path / "flag_wins"
        base = ["run", "--train", str(synth_dir / "train.npy"),
                "--test", str(synth_dir / "test.npy"),
                "--labels", str(synth_dir / "labels.csv"),
                "--config", str(cfg)]
        assert main(base + ["--out", str(out_file)]) == 0
        assert main(base + ["--out", str(out_flag), "--max-iters", "3"]) == 0
        echo_file = (out_file / "config_echo.txt").read_text()
        echo_flag = (out_flag / "config_echo.txt").read_text()
        assert "max_iters = 2" in echo_file
        assert "max_iters = 3" in echo_flag


class TestEval:
    def test_recomputed_metrics_match_run(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_run_args(synth_dir, out)) == 0
        run_metrics = json.loads((out / "metrics.json").read_text())
        capsys.readouterr()
        assert main(["eval", "--scores", str(out / "scores.csv")]) == 0
        eval_metrics = json.loads(capsys.readouterr().out)
        assert eval_metrics == run_metrics

    def test_perfect_separation_csv(self, tmp_path, capsys):
        p = tmp_path / "scores.csv"
        p.write_text("row_id,label,raw_score,normalized_score\n"
                     "a,0,0.1,0.2\nb,0,0.2,0.3\nc,1,0.8,0.8\nd,1,0.9,0.9\n")
        assert main(["eval", "--scores", str(p)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["auc"] == 1.0

    def test_all_zero_labels_is_eval_error(self, tmp_path, capsys):
        p = tmp_path / "scores.csv"
        p.write_text("row_id,label,raw_score,normalized_score\n"
                     "a,0,0.1,0.2\nb,0,0.2,0.3\n")
        code = main(["eval", "--scores", str(p)])
        assert code == 2
        assert "MSDE-ERR eval" in capsys.readouterr().err


class TestTuneCommand:
    def test_five_trials_jsonl_and_rerun_identical(self, synth_dir, tmp_path):
        a, b = tmp_path / "ta", tmp_path / "tb"
        args = ["tune", "--train", str(synth_dir / "train.npy"),
                "--test", str(synth_dir / "test.npy"),
                "--labels", str(synth_dir / "labels.csv"),
                "--trials", "5", "--seed", "11", "--pca-dim", "6"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        lines_a = (a / "trials.jsonl").read_text().splitlines()
        assert len(lines_a) == 6  # five records plus summary
        records = [json.loads(line) for line in lines_a[:-1]]
        assert [r["trial_index"] for r in records] == list(range(5))
        summary = json.loads(lines_a[-1])
        assert summary["summary"] is True
        assert (a / "trials.jsonl").read_bytes() == (b / "trials.jsonl").read_bytes()
        assert (a / "best_params.json").exists()
        assert (a / "final_metrics.json").exists()
        echo = (a / "config_echo.txt").read_text().splitlines()
        assert "seed = 11" in echo and "trials = 5" in echo
        table = (a / "trials.csv").read_text().splitlines()
        assert table[0] == "trial_index,k,eta,max_iters,tol,t_nbd,val_auc,val_ap,seed"
        assert len(table) == 6
        for line, rec in zip(table[1:], records):
            cells = line.split(",")
            assert int(cells[0]) == rec["trial_index"]
            assert float(cells[6]) == rec["val_auc"]

    def test_validation_ids_cannot_collide_across_roles(self, tmp_path):
        # regression: train and test rows share positional indices on disk;
        # the role prefixes keep the tuning validation set's ids unique
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--dim", "8",
                     "--n-train", "250", "--n-test-normal", "60",
                     "--n-test-anomalous", "60", "--seed", "5"]) == 0
        code = main(["tune", "--train", str(data / "train.npy"),
                     "--test", str(data / "test.npy"),
                     "--labels", str(data / "labels.csv"),
                     "--out", str(tmp_path / "study"),
                     "--trials", "2", "--seed", "2", "--pca-dim", "8"])
        assert code == 0

    def test_default_trials_is_eighty(self):
        from msde.tune import DEFAULT_TRIALS
        assert DEFAULT_TRIALS == 80
        import argparse
        from msde.cli import _build_parser
        parser = _build_parser()
        ns = parser.parse_args(["tune", "--train", "x", "--test", "y",
                                "--out", "z"])
        assert ns.trials == 80
        assert isinstance(ns, argparse.Namespace)


class TestConfigParsing:
    def test_parse_and_build(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nk = 12\neta = 0.2\nlambda = 1e-3\n"
                     "standardize = false\n")
        values = parse_config_file(p)
        cfg = build_config(values)
        assert cfg.shift.k == 12
        assert cfg.shift.eta == 0.2
        assert cfg.lam == 1e-3
        assert cfg.standardize is False

    def test_unknown_key_rejected(self, tmp_path):
        # Settings that were removed are unknown keys like any other.
        p = tmp_path / "c.cfg"
        keys = ["bogus"] + [flag[2:].replace("-", "_") for flag in REMOVED_FLAGS]
        for key in keys:
            p.write_text(f"{key} = true\n")
            with pytest.raises(ConfigError):
                parse_config_file(p)
            with pytest.raises(ConfigError):
                build_config({key: True})

    @pytest.mark.parametrize("flag", list(REMOVED_FLAGS))
    def test_removed_flag_is_usage_error(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--train", "x", "--test", "y", "--out", str(tmp_path),
                  flag, *REMOVED_FLAGS[flag]])
        assert exc.value.code == 1
        assert "MSDE-ERR cli:" in capsys.readouterr().err

    def test_one_flag_per_config_key(self):
        from msde.cli import _build_parser
        ns = _build_parser().parse_args(["run", "--train", "x", "--test", "y",
                                         "--out", "z"])
        other = {"command", "train", "test", "labels", "out", "dump_weights",
                 "config", "no_shift"}
        assert set(vars(ns)) - other == set(CONFIG_FIELD_TYPES)
        assert len(build_config().flat()) == len(CONFIG_FIELD_TYPES) == 10

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("k = 1\nk = 2\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_defaults_are_table_values(self):
        cfg = build_config()
        flat = cfg.flat()
        assert flat["k"] == 50
        assert flat["eta"] == 0.33
        assert flat["max_iters"] == 8
        assert flat["tol"] == 0.01
        assert flat["t_nbd"] == 70
        assert flat["k_umap"] == 15
        assert flat["pca_dim"] == 256
        assert flat["lambda"] == 1e-4

    def test_bad_value_is_config_error(self):
        with pytest.raises(ConfigError):
            build_config({"eta": 2.0})

    @pytest.mark.parametrize("line", ["k = 20.0", "threads = 2.0",
                                      "pca_dim = 2.5", "standardize = 1",
                                      "max_iters = true", 'k = "20"'])
    def test_value_of_wrong_type_is_config_error(self, line, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError):
            build_config(parse_config_file(p))

    def test_int_for_float_key_stored_as_float(self):
        cfg = build_config({"eta": 1, "lambda": 2})
        assert type(cfg.shift.eta) is float and cfg.shift.eta == 1.0
        assert type(cfg.lam) is float and cfg.lam == 2.0

    def test_wrong_type_in_config_file_exits_one(self, synth_dir, tmp_path,
                                                 capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("k = 20.0\n")
        code = main(["run", "--train", str(synth_dir / "train.npy"),
                     "--test", str(synth_dir / "test.npy"),
                     "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert code == 1
        assert "MSDE-ERR cli:" in capsys.readouterr().err

    def test_usage_error_exit_code_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing required flags
        assert exc.value.code == 1
        assert "MSDE-ERR cli" in capsys.readouterr().err

    def test_bad_log_level_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("MSDE_LOG", "loud")
        assert main(["eval", "--scores", "x"]) == 1
        assert "MSDE_LOG" in capsys.readouterr().err

    def test_exit_code_taxonomy(self):
        from msde.exceptions import (ConfigError, LoadError, MetricError,
                                     NumericError)
        assert ConfigError("x").exit_code == 1
        assert LoadError("x").exit_code == 2
        assert MetricError("x").exit_code == 2
        assert NumericError("x").exit_code == 3


def test_cli_import_skips_unused_scipy_subpackages():
    # The CLI needs scipy.linalg, scipy.sparse and scipy.special only;
    # scipy.stats and scipy.spatial each cost a large share of start-up.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import msde.cli, sys; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.spatial') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
