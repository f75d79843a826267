"""CLI surface: subcommands, outputs, determinism, exit codes, config."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy

from msde import __version__
from msde.cli import main
from msde.config import CONFIG_FIELD_TYPES, build_config, parse_config_file
from msde.exceptions import ConfigError
from msde.tune import SearchSpace

SAMPLED_KEYS = {f.name for f in fields(SearchSpace)}


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--dim", "6", "--n-train", "60",
                 "--n-test-normal", "20", "--n-test-anomalous", "20",
                 "--anomaly-offset", "4.0", "--seed", "3"]) == 0
    return out


# Flags of settings removed from `msde run` and the config file, each with
# the value it once took: four that no paper setting, demo or test used
# (standardization is always on), and --seed, which run never read (tune
# and synth have their own --seed).
REMOVED_FLAGS = {"--fit-on-joint": (), "--static-graph": (), "--standardize": (),
                 "--no-standardize": (), "--seed": ("3",)}


def _run_args(synth_dir, out, extra=(), max_iters="3"):
    return ["run",
            "--train", str(synth_dir / "train.npy"),
            "--test", str(synth_dir / "test.npy"),
            "--labels", str(synth_dir / "labels.csv"),
            "--out", str(out),
            "--k", "10", "--t-nbd", "10", "--k-umap", "10",
            *(("--max-iters", max_iters) if max_iters is not None else ()),
            "--pca-dim", "6", *extra]


def _with_labels(argv):
    """``argv`` split, with the ``--labels`` that run and tune require."""
    command, *rest = argv.split()
    labels = ["--labels", "l"] if command in ("run", "tune") else []
    return [command, *labels, *rest]


def _tune_args(synth_dir, out, extra=()):
    return ["tune",
            "--train", str(synth_dir / "train.npy"),
            "--test", str(synth_dir / "test.npy"),
            "--labels", str(synth_dir / "labels.csv"),
            "--out", str(out),
            "--trials", "2", "--seed", "1", "--pca-dim", "6", *extra]


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

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "x"), "--seed", "-1"])
        assert exc.value.code == 1
        assert "MSDE-ERR cli: argument --seed" in capsys.readouterr().err

    def test_zero_anomalies_refused(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "x"),
                     "--n-test-anomalous", "0"])
        assert code == 1

    @pytest.mark.parametrize("offset", ["inf", "nan"])
    def test_non_finite_anomaly_offset_is_usage_error(self, offset, tmp_path,
                                                      capsys):
        code = main(["synth", "--out", str(tmp_path / "x"),
                     "--anomaly-offset", offset])
        assert code == 1
        err = capsys.readouterr().err
        assert "MSDE-ERR cli: synthetic spec: anomaly_offset must be finite" in err
        assert not (tmp_path / "x").exists()


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
        for line in (f'version.msde = "{__version__}"',
                     f'version.numpy = "{np.__version__}"',
                     f'version.scipy = "{scipy.__version__}"'):
            assert line in echo.splitlines()
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == metrics

    def test_echo_records_the_blas_builds_and_thread_setting(self, synth_dir,
                                                             tmp_path, monkeypatch):
        def blas(module):
            found = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f'{found["name"]} {found["version"]}'

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert main(_run_args(synth_dir, tmp_path / "set")) == 0
        echo = (tmp_path / "set" / "config_echo.txt").read_text().splitlines()
        for line in (f'version.numpy.blas = "{blas(np)}"',
                     f'version.scipy.blas = "{blas(scipy)}"',
                     'env.OPENBLAS_NUM_THREADS = "1"'):
            assert line in echo
        scores = (tmp_path / "set" / "scores.csv").read_bytes()

        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        monkeypatch.setattr(np, "show_config", lambda mode: {})
        monkeypatch.setattr(scipy, "show_config",
                            lambda mode: {"Build Dependencies": {"blas": {"name": "x"}}})
        assert main(_run_args(synth_dir, tmp_path / "unset")) == 0
        echo = (tmp_path / "unset" / "config_echo.txt").read_text().splitlines()
        for line in ('version.numpy.blas = "unknown unknown"',
                     'version.scipy.blas = "x unknown"',
                     'env.OPENBLAS_NUM_THREADS = "unset"'):
            assert line in echo
        # The records stay out of the digested outputs.
        assert (tmp_path / "unset" / "scores.csv").read_bytes() == scores

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
        assert main(_run_args(synth_dir, a, ("--no-shift",), max_iters=None)) == 0
        assert main(_run_args(synth_dir, b, max_iters="0")) == 0
        assert (a / "scores.csv").read_bytes() == (b / "scores.csv").read_bytes()

    @pytest.mark.parametrize("flags", [("--no-shift", "--max-iters", "3"),
                                       ("--max-iters", "3", "--no-shift")],
                             ids=["no-shift-first", "max-iters-first"])
    def test_no_shift_with_max_iters_is_usage_error(self, flags, synth_dir,
                                                    tmp_path, capsys):
        # Both set max_iters, so neither order may let the last one win.
        out = tmp_path / "both"
        with pytest.raises(SystemExit) as exc:
            main(_run_args(synth_dir, out, flags, max_iters=None))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "MSDE-ERR cli:" in err and "not allowed with" in err
        assert not out.exists()

    def test_no_shift_overrides_config_file_max_iters(self, synth_dir, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_iters = 3\n")
        a, b = tmp_path / "file", tmp_path / "flag"
        assert main(_run_args(synth_dir, a, ("--config", str(cfg), "--no-shift"),
                              max_iters=None)) == 0
        assert main(_run_args(synth_dir, b, ("--no-shift",), max_iters=None)) == 0
        assert (a / "scores.csv").read_bytes() == (b / "scores.csv").read_bytes()
        assert "max_iters = 0" in (a / "config_echo.txt").read_text().splitlines()

    def test_no_shift_run_holds_its_input_rows_once(self, tmp_path, peak_bytes):
        # The input files are read into the one array that is standardized
        # and scored; the fit centers its rows in place and writes the
        # projections into them. The peak is those rows plus
        # fit_standardizer's std over one 64-column slice of the train rows
        # (about 1.23x the input bytes in all). A std over all columns at
        # once, with its n_train x d transient, reads about 1.83x, and a
        # second copy of the rows, such as a loaded split kept beside that
        # array, adds 1x.
        rng = np.random.default_rng(12)
        train, test = rng.normal(size=(4000, 256)), rng.normal(size=(1000, 256))
        test[500:, 0] += 3.0
        np.save(tmp_path / "train.npy", train)
        np.save(tmp_path / "test.npy", test)
        (tmp_path / "labels.csv").write_text("row_id,label\n" + "".join(
            f"test_{i:06d},{int(i >= 500)}\n" for i in range(1000)))
        input_bytes = train.nbytes + test.nbytes
        del train, test
        out = tmp_path / "out"
        peak = peak_bytes(main, ["run", "--train", str(tmp_path / "train.npy"),
                                 "--test", str(tmp_path / "test.npy"),
                                 "--labels", str(tmp_path / "labels.csv"),
                                 "--out", str(out), "--no-shift", "--pca-dim", "64"])
        assert (out / "metrics.json").exists()
        assert peak < 1.4 * input_bytes, peak / input_bytes

    def test_dim_mismatch_exits_nonzero_with_both_dims(self, synth_dir,
                                                       tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--dim", "4"]) == 0
        code = main(["run", "--train", str(synth_dir / "train.npy"),
                     "--test", str(other / "test.npy"),
                     "--labels", str(other / "labels.csv"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "MSDE-ERR" in err and "6" in err and "4" in err

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main(["run", "--train", str(tmp_path / "nope.npy"),
                     "--test", str(tmp_path / "nope.npy"),
                     "--labels", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "MSDE-ERR" in capsys.readouterr().err

    def test_no_shift_writes_two_zero_iteration_traces(self, synth_dir, tmp_path):
        out = tmp_path / "ns"
        assert main(_run_args(synth_dir, out, ("--no-shift",), max_iters=None)) == 0
        assert (out / "shift_trace.log").read_text().splitlines() == [
            "solo converged false after 0 iterations",
            "joint converged false after 0 iterations",
        ]

    def test_single_class_labels_still_write_echo_and_trace(self, synth_dir,
                                                             tmp_path, capsys):
        labels = tmp_path / "all_anomalous.csv"
        labels.write_text(
            "row_id,label\n" + "".join(f"test_{i:06d},1\n" for i in range(40)))
        out = tmp_path / "one_class"
        args = _run_args(synth_dir, out)
        args[args.index("--labels") + 1] = str(labels)
        with pytest.warns(UserWarning, match="single class"):
            code = main(args)
        assert code == 2
        assert "MSDE-ERR eval" in capsys.readouterr().err
        for name in ("scores.csv", "config_echo.txt", "shift_trace.log"):
            assert (out / name).exists(), name
        assert not (out / "metrics.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_infinite_lambda_is_usage_error(self, source, synth_dir, tmp_path,
                                            capsys):
        extra = ["--lambda", "inf"]
        if source == "config":
            cfg = tmp_path / "c.cfg"
            cfg.write_text("lambda = inf\n")
            extra = ["--config", str(cfg)]
        assert main(_run_args(synth_dir, tmp_path / "r", extra)) == 1
        assert "MSDE-ERR cli: lambda must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("how", ["no-shift", "max-iters", "config"])
    def test_dump_weights_without_a_shift_is_usage_error(self, how, synth_dir,
                                                         tmp_path, capsys):
        # No shift run means no weights to write: refused before any input
        # is read or --out is made.
        extra, max_iters = ["--dump-weights"], None
        if how == "no-shift":
            extra.append("--no-shift")
        elif how == "max-iters":
            max_iters = "0"
        else:
            cfg = tmp_path / "c.cfg"
            cfg.write_text("max_iters = 0\n")
            extra += ["--config", str(cfg)]
        out = tmp_path / "dw"
        assert main(_run_args(synth_dir, out, extra, max_iters=max_iters)) == 1
        assert "MSDE-ERR cli: --dump-weights" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_repeated_row_id_is_data_error(self, sidecar, tmp_path, capsys):
        # counted once per row, `a` would make n_pos 2 against one real row
        scores = tmp_path / "scores.csv"
        scores.write_text("row_id,label,raw_score,normalized_score\n"
                          "a,1,0.9,0.9\na,0,0.1,0.2\nb,0,0.2,0.3\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("row_id,label\na,1\nb,0\n")
        args = ["eval", "--scores", str(scores)]
        code = main(args + ["--labels", str(labels)] if sidecar else args)
        assert code == 2
        assert capsys.readouterr().err == (
            f"MSDE-ERR data_io: {scores}: line 3: duplicate row id 'a'\n")

    @pytest.mark.parametrize("case", ["unknown", "missing"])
    def test_sidecar_ids_must_match_scores(self, case, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("row_id,label,raw_score,normalized_score\n"
                          "a,0,0.1,0.2\nb,1,0.9,0.9\n")
        rows = {"unknown": "a,0\nb,1\nc,1\n", "missing": "a,0\n"}[case]
        labels = tmp_path / "labels.csv"
        labels.write_text("row_id,label\n" + rows)
        code = main(["eval", "--scores", str(scores), "--labels", str(labels)])
        assert code == 2
        assert "MSDE-ERR data_io: label file " in capsys.readouterr().err


class TestMalformedInputs:
    """Every malformed input file is a data error: exit 2 and one
    ``MSDE-ERR data_io`` line."""

    @staticmethod
    def _assert_data_error(code, err):
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("MSDE-ERR data_io: ")

    def test_record_array_npy(self, synth_dir, tmp_path, capsys):
        train = tmp_path / "train.npy"
        np.save(train, np.zeros((30, 2), dtype=[("a", "<f8"), ("b", "<f8")]))
        args = _run_args(synth_dir, tmp_path / "o")
        args[args.index("--train") + 1] = str(train)
        self._assert_data_error(main(args), capsys.readouterr().err)

    @pytest.mark.parametrize("target", ["train", "labels", "scores"])
    def test_non_utf8_csv(self, target, synth_dir, tmp_path, capsys):
        bad = tmp_path / f"{target}.csv"
        if target == "train":
            bad.write_bytes("f\u00e9,x\n1,2\n".encode("latin-1"))
            args = _run_args(synth_dir, tmp_path / "o")
            args[args.index("--train") + 1] = str(bad)
        elif target == "labels":
            bad.write_bytes("row_id,label\ntest_00000\u00e9,1\n".encode("latin-1"))
            args = _run_args(synth_dir, tmp_path / "o")
            args[args.index("--labels") + 1] = str(bad)
        else:
            bad.write_bytes("row_id,label,raw_score,normalized_score\n"
                            "\u00e9,0,0.1,0.2\n".encode("latin-1"))
            args = ["eval", "--scores", str(bad)]
        self._assert_data_error(main(args), capsys.readouterr().err)

    @pytest.mark.parametrize("target", ["train", "test"])
    def test_non_finite_npy_value_names_its_file(self, target, synth_dir,
                                                 tmp_path, capsys):
        values = np.load(synth_dir / f"{target}.npy")
        values[3, 2] = np.nan
        bad = tmp_path / f"{target}.npy"
        np.save(bad, values)
        args = _run_args(synth_dir, tmp_path / "o")
        args[args.index(f"--{target}") + 1] = str(bad)
        code = main(args)
        err = capsys.readouterr().err
        self._assert_data_error(code, err)
        assert f"MSDE-ERR data_io: {bad}: non-finite value at row 3, column 2" in err

    def test_utf8_bom_scores_file(self, tmp_path, capsys):
        p = tmp_path / "scores.csv"
        p.write_bytes(b"\xef\xbb\xbfrow_id,label,raw_score,normalized_score\n"
                      b"a,0,0.1,0.2\nb,1,0.9,0.9\n")
        assert main(["eval", "--scores", str(p)]) == 0
        assert json.loads(capsys.readouterr().out)["auc"] == 1.0

    def test_dtype_numpy_cannot_parse_safely(self, synth_dir, tmp_path):
        # numpy's dtype parser dies of SIGFPE on 'M8[s/0]'; msde must refuse
        # the header before building any dtype. A subprocess keeps a crash
        # from ending the whole pytest run.
        header = b"{'descr': 'M8[s/0]', 'fortran_order': False, 'shape': (1, 1), }"
        header += b" " * (117 - len(header)) + b"\n"
        train = tmp_path / "train.npy"
        train.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                          + header + bytes(8))
        args = _run_args(synth_dir, tmp_path / "o")
        args[args.index("--train") + 1] = str(train)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "msde.cli", *args], env=env,
                              capture_output=True, text=True)
        self._assert_data_error(done.returncode, done.stderr)
        assert "dtype 'M8[s/0]' unsupported" in done.stderr


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
        assert not {line.split(" = ")[0] for line in echo} & SAMPLED_KEYS
        table = (a / "trials.csv").read_text().splitlines()
        assert table[0] == "trial_index,k,eta,max_iters,tol,t_nbd,val_auc,val_ap,seed"
        assert len(table) == 6
        for line, rec in zip(table[1:], records):
            cells = line.split(",")
            assert int(cells[0]) == rec["trial_index"]
            assert float(cells[6]) == rec["val_auc"]

    def test_unsampled_flag_reaches_every_trial(self, synth_dir, tmp_path):
        a, b = tmp_path / "default", tmp_path / "k_umap5"
        assert main(_tune_args(synth_dir, a)) == 0
        assert main(_tune_args(synth_dir, b, ("--k-umap", "5"))) == 0
        lines = (b / "trials.jsonl").read_text().splitlines()[:-1]
        assert all(json.loads(line)["params"]["k_umap"] == 5 for line in lines)
        assert (a / "trials.jsonl").read_bytes() != (b / "trials.jsonl").read_bytes()
        assert "k_umap = 5" in (b / "config_echo.txt").read_text().splitlines()

    @pytest.mark.parametrize("flag", ["--k 10", "--eta 0.1", "--max-iters 3",
                                      "--tol 0.01", "--t-nbd 10", "--no-shift"])
    def test_sampled_setting_flag_is_usage_error(self, flag, synth_dir, tmp_path,
                                                 capsys):
        with pytest.raises(SystemExit) as exc:
            main(_tune_args(synth_dir, tmp_path / "t", flag.split()))
        assert exc.value.code == 1
        assert "MSDE-ERR cli:" in capsys.readouterr().err

    def test_sampled_key_in_config_file_exits_one(self, synth_dir, tmp_path,
                                                  capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("k = 10\n")
        code = main(_tune_args(synth_dir, tmp_path / "t", ("--config", str(cfg))))
        assert code == 1
        assert "MSDE-ERR cli:" in capsys.readouterr().err

    def test_validation_ids_cannot_collide_across_roles(self, tmp_path):
        # regression: train and test rows share positional indices on disk;
        # the validation set mixes rows of both and must keep them apart
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

    def test_tune_holds_its_input_rows_once(self, tmp_path, peak_bytes):
        # Tune reads its input files into one array, as run does, and
        # gathers the trials' rows and then the final rows from it. The
        # peak of this one-trial study reads about 7.8x the input bytes;
        # loading the files into a split of their own and copying its
        # partitions out again, as tune once did, read about 8.8x.
        rng = np.random.default_rng(12)
        train, test = rng.normal(size=(600, 256)), rng.normal(size=(200, 256))
        test[100:, 0] += 3.0
        np.save(tmp_path / "train.npy", train)
        np.save(tmp_path / "test.npy", test)
        (tmp_path / "labels.csv").write_text("row_id,label\n" + "".join(
            f"test_{i:06d},{int(i >= 100)}\n" for i in range(200)))
        input_bytes = train.nbytes + test.nbytes
        del train, test
        out = tmp_path / "out"
        peak = peak_bytes(main, ["tune", "--train", str(tmp_path / "train.npy"),
                                 "--test", str(tmp_path / "test.npy"),
                                 "--labels", str(tmp_path / "labels.csv"),
                                 "--out", str(out), "--trials", "1", "--pca-dim", "32"])
        assert (out / "final_metrics.json").exists()
        assert peak < 8.3 * input_bytes, peak / input_bytes

    def test_no_normal_test_rows_exits_two_before_any_trial(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        np.save(tmp_path / "train.npy", rng.normal(size=(60, 4)))
        np.save(tmp_path / "test.npy", rng.normal(size=(20, 4)) + 4.0)
        (tmp_path / "labels.csv").write_text(
            "row_id,label\n" + "".join(f"test_{i:06d},1\n" for i in range(20)))
        out = tmp_path / "study"
        code = main(["tune", "--train", str(tmp_path / "train.npy"),
                     "--test", str(tmp_path / "test.npy"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--out", str(out), "--trials", "2", "--pca-dim", "4"])
        assert code == 2
        assert "MSDE-ERR tune:" in capsys.readouterr().err
        assert not (out / "trials.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--seed -3", "--trials 0", "--trials x"])
    def test_out_of_range_count_is_usage_error(self, flag, synth_dir, tmp_path,
                                               capsys):
        with pytest.raises(SystemExit) as exc:
            main(_tune_args(synth_dir, tmp_path / "t", flag.split()))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"MSDE-ERR cli: argument {flag.split()[0]}: expected an integer" in err
        assert not (tmp_path / "t").exists()

    def test_default_trials_is_eighty(self):
        from msde.tune import DEFAULT_TRIALS
        assert DEFAULT_TRIALS == 80
        import argparse
        from msde.cli import _build_parser
        parser = _build_parser()
        ns = parser.parse_args(["tune", "--train", "x", "--test", "y",
                                "--labels", "l", "--out", "z"])
        assert ns.trials == 80
        assert isinstance(ns, argparse.Namespace)


class TestConfigParsing:
    def test_parse_and_build(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nk = 12\neta = 0.2\nlambda = 1e-3\n")
        values = parse_config_file(p)
        cfg = build_config(values)
        assert cfg.shift.k == 12
        assert cfg.shift.eta == 0.2
        assert cfg.lam == 1e-3

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
            main(["run", "--train", "x", "--test", "y", "--labels", "l",
                  "--out", str(tmp_path), flag, *REMOVED_FLAGS[flag]])
        assert exc.value.code == 1
        assert "MSDE-ERR cli:" in capsys.readouterr().err

    def test_one_flag_per_config_key(self):
        # run takes every config key; tune takes the ones it does not sample
        from msde.cli import _build_parser
        common = {"command", "train", "test", "labels", "out", "config"}
        for command, other, keys in (
            ("run", {"dump_weights"}, set(CONFIG_FIELD_TYPES)),
            ("tune", {"trials", "seed"}, set(CONFIG_FIELD_TYPES) - SAMPLED_KEYS),
        ):
            ns = _build_parser().parse_args([command, "--train", "x", "--test", "y",
                                             "--labels", "l", "--out", "z"])
            assert set(vars(ns)) - common - other == keys, command
        assert len(build_config().flat()) == len(CONFIG_FIELD_TYPES) == 9
        assert len(set(CONFIG_FIELD_TYPES) - SAMPLED_KEYS) == 4
        assert set(CONFIG_FIELD_TYPES.values()) == {int, float}

    @pytest.mark.parametrize("argv", [
        "run --train x --test y --out z --max 2",
        "run --train x --test y --out z --pca 6",
        "tune --train x --test y --out z --tri 5",
        "synth --out z --n-test-anom 5",
        "eval --sco x",
    ])
    def test_abbreviated_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_with_labels(argv))
        assert exc.value.code == 1
        assert "MSDE-ERR cli:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "tune --train x --test y --out z --k 10",
        "run --train x --test y --out z --max 2",
    ])
    def test_leftover_argument_prints_command_usage(self, argv, capsys):
        command, *_, flag, value = argv.split()
        with pytest.raises(SystemExit) as exc:
            main(_with_labels(argv))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: msde {command} ")
        assert f"MSDE-ERR cli: unrecognized arguments: {flag} {value}\n" in err

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
                                      "pca_dim = 2.5", "tol = true",
                                      "max_iters = true", 'k = "20"'])
    def test_value_of_wrong_type_is_config_error(self, line, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(line + "\n")
        with pytest.raises(ConfigError):
            build_config(parse_config_file(p))

    def test_file_values_read_as_field_type(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("k = 12\neta = 1\n")
        values = parse_config_file(p)
        assert values == {"k": 12, "eta": 1.0}
        assert type(values["eta"]) is float

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
                     "--labels", str(synth_dir / "labels.csv"),
                     "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert code == 1
        assert "MSDE-ERR cli:" in capsys.readouterr().err

    def test_usage_error_exit_code_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing required flags
        assert exc.value.code == 1
        assert "MSDE-ERR cli" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "tune"])
    def test_missing_labels_is_usage_error(self, command, synth_dir, tmp_path,
                                           capsys):
        args = {"run": _run_args, "tune": _tune_args}[command](synth_dir,
                                                              tmp_path / "o")
        del args[args.index("--labels"):args.index("--labels") + 2]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 1
        assert ("MSDE-ERR cli: the following arguments are required: --labels\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

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
    # The CLI needs scipy.linalg and scipy.sparse only; scipy.stats and
    # scipy.spatial each cost a large share of start-up, and scipy.special
    # 40–70 ms and 3.6–3.8 MB for the one logistic map msde computes itself.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import msde.cli, sys; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.spatial', "
            "'scipy.special') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
