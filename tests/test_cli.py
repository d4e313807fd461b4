"""End-to-end tests of the command line: exit codes, files, reproducibility.

Commands run in-process through ``main(argv)`` against temp directories, so
every test asserts on real files and captured output. Values in CSV outputs
must equal in-process API results exactly (repr round-trip); text output
rounds to 4 decimals.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spmd.theory
from idx_files import save_idx_images, save_idx_labels, write_digit_set
from spmd.cli import (
    ConfigError,
    build_binary_dataset,
    build_multiclass_dataset,
    main,
    make_train_config,
    resolve_config,
)
from spmd.data import (MNIST_FILES, MulticlassDataset, load_idx, reshape_samples,
                       save_dataset, select_binary, synth_blobs)
from spmd.multiclass import ovo_train
from spmd.margins import summarize_scores
from spmd.theory import BoundReport
from spmd.trainer import apply_bias, decision_scores, load_model

SYNTH = {"source": "synth", "shape": [2, 2], "n_per_class": 10,
         "margin": 3.0, "noise": 0.2, "seed": 0}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"method": "spmd-r1", "lambda": 5.0, "dataset": dict(SYNTH)}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def minimal(**over):
    raw = {"method": "spmd-r1", "dataset": dict(SYNTH)}
    raw.update(over)
    return raw


def test_import_loads_no_scipy():
    # numpy is the only linear-algebra dependency; scipy would also bring a
    # second BLAS whose threads compete with numpy's
    src = os.path.dirname(os.path.dirname(spmd.__file__))
    code = ("import sys, spmd, spmd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestResolveConfig:
    def test_defaults_filled(self):
        cfg = resolve_config(minimal())
        assert cfg["mu1"] == 1.0 and cfg["mu2"] == 1.0
        assert cfg["lambda"] == 1.0
        assert cfg["epsilon"] == 1e-2
        assert cfg["qp_tol"] == 1e-8
        assert cfg["max_outer"] == 50
        assert cfg["bias_feature"] is False
        assert "workers" not in cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field.*'lamda'"):
            resolve_config(minimal(lamda=1.0))

    def test_workers_field_exits_2(self, tmp_path, capsys):
        # pairs always train one at a time, so a worker count changes nothing
        cfg = write_config(tmp_path, workers=1)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown config field(s): ['workers']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["mu1", "mu2", "lambda", "epsilon", "qp_tol"])
    def test_numeric_fields_checked(self, key):
        with pytest.raises(ConfigError, match=f"'{key}' must be a number"):
            resolve_config(minimal(**{key: "big"}))

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="'mu1' must be a number"):
            resolve_config(minimal(mu1=True))

    def test_negative_mu_rejected(self):
        with pytest.raises(ConfigError, match="'mu1'/'mu2' must be >= 0"):
            resolve_config(minimal(mu2=-0.5))

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ConfigError, match="'lambda' must be > 0"):
            resolve_config(minimal(**{"lambda": 0}))

    def test_integer_fields_checked(self):
        with pytest.raises(ConfigError, match="'max_outer' must be an integer"):
            resolve_config(minimal(max_outer=2.5))
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            resolve_config(minimal(seed="0"))

    def test_ranks_must_be_positive_ints(self):
        with pytest.raises(ConfigError, match="'ranks' must be a list"):
            resolve_config(minimal(ranks=[2, 0]))
        with pytest.raises(ConfigError, match="'ranks' must be a list"):
            resolve_config(minimal(ranks="2"))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="'method' must be one of"):
            resolve_config(minimal(method="deep-net"))

    def test_methods_list_for_bench(self):
        with pytest.raises(ConfigError, match="'methods' must be a non-empty list"):
            resolve_config(minimal(methods=[]), need_method=False,
                           need_methods=True)
        with pytest.raises(ConfigError, match="entry 'dnn' must be one of"):
            resolve_config(minimal(methods=["svm", "dnn"]), need_method=False,
                           need_methods=True)

    def test_dataset_required(self):
        with pytest.raises(ConfigError, match="'dataset' must be an object"):
            resolve_config({"method": "svm"})

    def test_unknown_dataset_source(self):
        with pytest.raises(ConfigError, match="'dataset.source' must be one of"):
            resolve_config(minimal(dataset={"source": "csv"}))

    def test_unknown_dataset_field(self):
        ds = dict(SYNTH, rows=3)
        with pytest.raises(ConfigError, match="unknown dataset field.*'rows'"):
            resolve_config(minimal(dataset=ds))

    def test_synth_shape_validated(self):
        ds = dict(SYNTH, shape=[2, 0])
        with pytest.raises(ConfigError, match="'dataset.shape'"):
            resolve_config(minimal(dataset=ds))

    def test_synth_margin_validated(self):
        ds = dict(SYNTH, margin=-1.0)
        with pytest.raises(ConfigError, match="'dataset.margin'"):
            resolve_config(minimal(dataset=ds))

    @pytest.mark.parametrize("field,value", [
        ("test_n_per_class", "x"), ("test_n_per_class", 2.5),
        ("test_n_per_class", -3), ("test_n_per_class", True),
        ("margin", [1]), ("margin", None), ("margin", "x"), ("margin", True),
        ("margin", 10 ** 400),
        ("noise", [1]), ("noise", None), ("noise", "x"), ("noise", "0.5"),
        ("n_per_class", True), ("shape", [2, True]), ("reshape", [4, True]),
        ("seed", True),
    ])
    def test_synth_field_errors_exit_2(self, tmp_path, capsys, field, value):
        # every synth field is checked before any compute; a bool is
        # neither an integer nor a number
        cfg = write_config(tmp_path, dataset=dict(SYNTH, **{field: value}))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"'dataset.{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_idx_requires_paths_and_classes(self):
        ds = {"source": "idx", "images": "im", "labels": "lb", "classes": [3]}
        with pytest.raises(ConfigError, match="'dataset.classes'"):
            resolve_config(minimal(dataset=ds))

    @pytest.mark.parametrize("command,classes", [
        ("train", [1, 1]), ("bench", [0, 0, 1]), ("bench", [2, 0, 2]),
    ])
    def test_idx_classes_must_differ(self, tmp_path, capsys, command, classes):
        # a repeated class would have its rows gathered twice
        ds = {"source": "idx", "images": "im", "labels": "lb", "classes": classes}
        cfg = write_config(tmp_path, methods=["spmd-r1"], dataset=ds)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert ("'dataset.classes' must be a list of >= 2 distinct"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("source,field,value", [
        ("idx", "test_images", 5), ("idx", "test_labels", ["lb"]),
        ("dir", "test_path", 5), ("dir", "test_path", {"p": 1}),
    ])
    def test_test_set_paths_must_be_strings(self, tmp_path, capsys, source,
                                            field, value):
        if source == "idx":
            ds = {"source": "idx", "images": "im", "labels": "lb",
                  "classes": [0, 1], "test_images": "ti", "test_labels": "tl"}
        else:
            ds = {"source": "dir", "path": "p"}
        ds[field] = value
        cfg = write_config(tmp_path, dataset=ds)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"'dataset.{field}' must be a path string"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("given", ["test_images", "test_labels"])
    def test_idx_test_paths_given_together(self, tmp_path, capsys, given):
        # one of the pair alone would quietly train with no test split
        ds = {"source": "idx", "images": "im", "labels": "lb",
              "classes": [0, 1], given: "x"}
        cfg = write_config(tmp_path, dataset=ds)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert ("'dataset.test_images' and 'dataset.test_labels' must be given "
                "together" in capsys.readouterr().err)

    def test_reshape_validated(self):
        ds = dict(SYNTH, reshape=[4, "x"])
        with pytest.raises(ConfigError, match="'dataset.reshape'"):
            resolve_config(minimal(dataset=ds))


class TestMethodRanks:
    """make_train_config applies the trainer's rank rules to each method."""

    @staticmethod
    def ranks(method, ranks, dims, **over):
        cfg = resolve_config(minimal(method=method, ranks=ranks, **over))
        return make_train_config(cfg, method, dims).ranks

    def rejects(self, method, ranks, dims, match="field 'ranks'", **over):
        with pytest.raises(ConfigError, match=match):
            self.ranks(method, ranks, dims, **over)

    def test_vector_methods_need_no_ranks(self):
        assert self.ranks("svm", [], (4,)) == []
        assert self.ranks("lmdm", [1], (4,)) == [1]
        self.rejects("svm", [2], (4,))
        self.rejects("lmdm", [1, 1], (4,))

    def test_rank_one_accepts_all_ones(self):
        assert self.ranks("spmd-r1", [1, 1], (3, 4)) == [1, 1]
        assert self.ranks("stm", [1], (3, 4)) == [1]
        assert self.ranks("stm", [], (3, 4)) == []
        self.rejects("stm", [2], (3, 4))
        self.rejects("spmd-r1", [1, 1, 1], (3, 4))

    def test_cp_needs_single_rank(self):
        assert self.ranks("spmd-cp", [3], (3, 4)) == [3]
        self.rejects("spmd-cp", [], (3, 4))
        self.rejects("spmd-cp", [2, 2], (3, 4))

    def test_tucker_needs_rank_per_mode(self):
        assert self.ranks("spmd-tucker", [2, 3], (3, 4)) == [2, 3]
        self.rejects("spmd-tucker", [2], (3, 4))

    def test_tucker_rank_at_most_its_mode_size(self):
        assert self.ranks("spmd-tucker", [3, 4], (3, 4)) == [3, 4]
        self.rejects("spmd-tucker", [4, 2], (3, 4),
                     match="tucker rank 4 of mode 1 exceeds its size 3")
        # train checks the biased shape, whose mode 1 is one larger
        assert self.ranks("spmd-tucker", [4, 2], (3, 4),
                          bias_feature=True) == [4, 2]
        self.rejects("spmd-tucker", [5, 2], (3, 4), bias_feature=True,
                     match="tucker rank 5 of mode 1 exceeds its size 4")


class TestMakeTrainConfig:
    def test_baselines_zero_margin_terms(self):
        cfg = resolve_config(minimal(method="svm", mu1=2.0, mu2=3.0))
        tc = make_train_config(cfg, "svm", (4,))
        assert tc.kind == "vector" and tc.mu1 == 0.0 and tc.mu2 == 0.0
        tc = make_train_config(cfg, "stm", (2, 2))
        assert tc.kind == "rank1" and tc.mu1 == 0.0 and tc.mu2 == 0.0

    def test_margin_methods_keep_mus(self):
        cfg = resolve_config(minimal(method="lmdm", mu1=2.0, mu2=3.0))
        tc = make_train_config(cfg, "lmdm", (4,))
        assert tc.kind == "vector" and tc.mu1 == 2.0 and tc.mu2 == 3.0

    def test_field_name_mapping(self):
        cfg = resolve_config(minimal(**{"lambda": 7.0, "epsilon": 1e-3,
                                        "ranks": [2, 2]}, method="spmd-tucker"))
        tc = make_train_config(cfg, "spmd-tucker", (2, 2))
        assert tc.lam == 7.0 and tc.tol == 1e-3
        assert tc.kind == "tucker" and tc.ranks == [2, 2]


class TestTrainCommand:
    def test_minimal_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        for name in ["model.spmd", "report.csv", "blocks.csv",
                     "summary.txt", "run.json"]:
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "method          spmd-r1" in stdout
        assert "model written to" in stdout

    def test_separable_data_reaches_full_accuracy(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["train", "--config", cfg, "--out", str(out)])
        summary = (out / "summary.txt").read_text()
        assert "train_accuracy  1.0000" in summary
        assert "cap_hits        0" in summary

    def test_rerun_byte_identical_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "blocks.csv").read_bytes() == (out2 / "blocks.csv").read_bytes()

    def test_wrong_tucker_rank_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, method="spmd-tucker", ranks=[2])
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "'ranks'" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["train", "--config", missing]) == 2
        assert "config file not found" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path, monkeypatch):
        # the BLAS thread count can change a model's last bits, so run.json
        # records what sets it
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        cfg = write_config(tmp_path, seed=0)
        out = tmp_path / "out"
        main(["train", "--config", cfg, "--out", str(out), "--seed", "9"])
        payload = json.loads((out / "run.json").read_text())
        assert payload["config"]["seed"] == 9
        assert payload["command"] == "train"
        assert payload["blas"] == {"OPENBLAS_NUM_THREADS": "1",
                                   "OMP_NUM_THREADS": None,
                                   "MKL_NUM_THREADS": "2",
                                   "cpu_count": os.cpu_count()}

    def test_run_json_reproduces_run(self, tmp_path):
        cfg = write_config(tmp_path, mu1=0.5, seed=3)
        out1 = tmp_path / "one"
        main(["train", "--config", cfg, "--out", str(out1)])
        payload = json.loads((out1 / "run.json").read_text())
        # the resolved config is itself a valid config file
        replay = tmp_path / "replay.json"
        resolved = {k: v for k, v in payload["config"].items() if v is not None
                    or k in ("method",)}
        resolved.pop("out_dir", None)
        resolved.pop("methods", None)
        replay.write_text(json.dumps(resolved))
        out2 = tmp_path / "two"
        assert main(["train", "--config", str(replay), "--out", str(out2)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_default_out_dir_under_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg]) == 0
        assert (tmp_path / "runs" / "train" / "model.spmd").exists()

    def test_test_split_reported(self, tmp_path):
        ds = dict(SYNTH, test_n_per_class=5)
        cfg = write_config(tmp_path, dataset=ds)
        out = tmp_path / "out"
        main(["train", "--config", cfg, "--out", str(out)])
        assert "test_accuracy" in (out / "summary.txt").read_text()

    def test_synth_test_rows_share_training_centres(self, tmp_path):
        # held-out rows come from the training draw, so a separable config
        # scores well on them (a second draw would move the class centres)
        ds = dict(SYNTH, shape=[4, 4], margin=2.0, noise=0.5, test_n_per_class=50)
        cfg = write_config(tmp_path, dataset=ds)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        line = next(x for x in (out / "summary.txt").read_text().splitlines()
                    if x.startswith("test_accuracy"))
        assert float(line.split()[1]) > 0.9


class TestEvalCommand:
    def train_once(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "trained"
        main(["train", "--config", cfg, "--out", str(out)])
        return cfg, str(out / "model.spmd")

    def test_model_on_own_training_set(self, tmp_path, capsys):
        cfg, model = self.train_once(tmp_path)
        out = tmp_path / "eval"
        assert main(["eval", "--config", cfg, "--model", model,
                     "--out", str(out)]) == 0
        assert "accuracy        1.0000" in capsys.readouterr().out

    def test_csv_matches_api_exactly(self, tmp_path):
        cfg, model_path = self.train_once(tmp_path)
        out = tmp_path / "eval"
        main(["eval", "--config", cfg, "--model", model_path, "--out", str(out)])
        header, row = (out / "eval.csv").read_text().strip().split("\n")
        assert header == "n,accuracy,gamma_m,gamma_v"
        n, acc, gm, gv = row.split(",")
        resolved = resolve_config(json.loads(Path(cfg).read_text()))
        data, _ = build_binary_dataset(resolved["dataset"])
        model = load_model(model_path)
        scores = decision_scores(model, data.samples, data.dims)
        summ = summarize_scores(scores, data.labels)
        want_acc = float(np.mean(np.where(scores >= 0, 1.0, -1.0) == data.labels))
        assert int(n) == len(data)
        assert float(acc) == want_acc
        assert float(gm) == summ.mean
        assert float(gv) == summ.variance

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        cfg, model = self.train_once(tmp_path)
        other = write_config(tmp_path, name="other.json",
                             dataset=dict(SYNTH, shape=[4, 1]))
        assert main(["eval", "--config", other, "--model", model]) == 2
        assert "does not match model shape" in capsys.readouterr().err

    @pytest.mark.parametrize("eval_method", [None, "spmd-r1"])
    def test_vector_model_flattens_by_model_kind(self, tmp_path, capsys,
                                                 eval_method):
        # the model, not the eval config's method, says the data is flattened
        dataset = dict(SYNTH, shape=[3, 3])
        cfg = write_config(tmp_path, method="svm", dataset=dataset)
        trained = tmp_path / "trained"
        assert main(["train", "--config", cfg, "--out", str(trained)]) == 0
        raw = {"dataset": dataset}
        if eval_method is not None:
            raw["method"] = eval_method
        eval_cfg = tmp_path / "eval.json"
        eval_cfg.write_text(json.dumps(raw))
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(eval_cfg), "--model",
                     str(trained / "model.spmd"), "--out", str(out)]) == 0
        assert "accuracy        1.0000" in capsys.readouterr().out

    def test_missing_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["eval", "--config", cfg, "--model",
                     str(tmp_path / "none.spmd")]) == 2
        assert "model file not found" in capsys.readouterr().err

    def test_corrupt_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad.spmd"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["eval", "--config", cfg, "--model", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_seed_flag_exits_2(self, tmp_path, capsys):
        # eval trains nothing, so a training seed has nothing to override
        cfg, model = self.train_once(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--config", cfg, "--model", model,
                  "--out", str(tmp_path / "o"), "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestBenchCommand:
    def bench_config(self, tmp_path, **over):
        ds = {"source": "synth", "shape": [2, 2], "n_per_class": 8,
              "margin": 3.0, "noise": 0.2, "seed": 0, "n_classes": 3,
              "test_n_per_class": 4}
        cfg = {"methods": ["svm", "spmd-r1"], "lambda": 5.0, "dataset": ds}
        cfg.update(over)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_three_class_table_layout(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bench.csv").read_text().strip().split("\n")
        assert lines[0] == ("method,class_a,class_b,n_train,n_test,accuracy,"
                            "iterations,cap_hits")
        assert len(lines) == 1 + 2 * (3 + 1)  # per method: 3 pairs + mean row
        assert sum(1 for ln in lines if ",mean," in ln) == 2
        rows = [ln.split(",") for ln in lines[1:]]
        assert all(r[7] == "0" for r in rows if r[1] != "mean")
        assert all(r[6] == r[7] == "" for r in rows if r[1] == "mean")
        table = capsys.readouterr().out
        assert "svm" in table and "spmd-r1" in table
        assert table.split("\n")[0].split()[-3:] == ["iters", "cap_hits", "wall_ms"]
        assert (out / "bench.txt").exists()
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings) == {"svm", "spmd-r1"}

    def test_each_pair_view_built_once_per_method(self, tmp_path, monkeypatch):
        calls = []
        view = MulticlassDataset.binary_view

        def counted(self, a, b):
            calls.append((a, b))
            return view(self, a, b)

        monkeypatch.setattr(MulticlassDataset, "binary_view", counted)
        cfg = self.bench_config(tmp_path)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        pairs = [(0, 1), (0, 2), (1, 2)]
        assert sorted(calls) == sorted(pairs * 2)  # two methods
        rows = [ln.split(",") for ln in
                (out / "bench.csv").read_text().strip().split("\n")[1:]]
        assert [r[3] for r in rows if r[1] != "mean"] == ["16"] * 6

    def test_rerun_reproduces_csv(self, tmp_path):
        cfg = self.bench_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["bench", "--config", cfg, "--out", str(out1)])
        main(["bench", "--config", cfg, "--out", str(out2)])
        assert (out1 / "bench.csv").read_bytes() == (out2 / "bench.csv").read_bytes()

    def test_workers_flag_exits_2(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", cfg, "--out", str(tmp_path / "o"),
                  "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.bench_config(tmp_path, seed=0)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
        assert json.loads((out / "run.json").read_text())["config"]["seed"] == 9

    def test_synth_test_rows_share_training_centres(self, tmp_path):
        cfg = self.bench_config(tmp_path, methods=["spmd-r1"])
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in
                (out / "bench.csv").read_text().strip().split("\n")[1:]]
        assert rows and all(float(r[5]) > 0.9 for r in rows)

    def test_bias_feature_scores_augmented_test_rows(self, tmp_path):
        cfg = self.bench_config(tmp_path, bias_feature=True)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in
                (out / "bench.csv").read_text().strip().split("\n")[1:]]
        got = {(r[0], int(r[1]), int(r[2])): float(r[5])
               for r in rows if r[1] != "mean"}
        resolved = resolve_config(json.loads(Path(cfg).read_text()),
                                  need_method=False, need_methods=True)
        train_multi, test_multi = build_multiclass_dataset(resolved["dataset"])
        want = {}
        for method in resolved["methods"]:
            mtrain, mtest = train_multi, test_multi
            if method == "svm":
                mtrain, mtest = (reshape_samples(d, [4]) for d in (mtrain, mtest))
            tc = make_train_config(resolved, method, mtrain.dims)
            ensemble = ovo_train(mtrain, tc)
            for (a, b), model in ensemble.models.items():
                rows_ab = apply_bias(mtest.binary_view(a, b))
                scores = decision_scores(model, rows_ab.samples, rows_ab.dims)
                want[(method, a, b)] = float(np.mean(
                    np.where(scores >= 0, 1.0, -1.0) == rows_ab.labels))
        assert got == want

    def test_test_rows_default_to_n_per_class(self, tmp_path):
        cfg = json.loads(Path(self.bench_config(tmp_path)).read_text())
        del cfg["dataset"]["test_n_per_class"]
        resolved = resolve_config(cfg, need_method=False, need_methods=True)
        train_multi, test_multi = build_multiclass_dataset(resolved["dataset"])
        assert len(test_multi) == len(train_multi) == 3 * 8

    def test_zero_test_rows_exits_2(self, tmp_path, capsys):
        # bench scores every pair on test rows; 0 used to read as "as many
        # as n_per_class" and every pair reported n_test 2 * n_per_class
        ds = {"source": "synth", "shape": [2, 2], "n_per_class": 10,
              "margin": 3.0, "noise": 0.2, "seed": 0, "n_classes": 3,
              "test_n_per_class": 0}
        cfg = self.bench_config(tmp_path, dataset=ds)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert "'dataset.test_n_per_class'" in capsys.readouterr().err
        assert not (out / "bench.csv").exists()

    def test_empty_method_list_exits_2(self, tmp_path, capsys):
        cfg = self.bench_config(tmp_path, methods=[])
        assert main(["bench", "--config", cfg]) == 2
        assert "'methods'" in capsys.readouterr().err

    def test_dir_source_exits_2(self, tmp_path, capsys):
        save_dataset(str(tmp_path / "ds"), synth_blobs((2, 2), 4, seed=1))
        cfg = self.bench_config(tmp_path, dataset={"source": "dir",
                                                   "path": str(tmp_path / "ds")})
        assert main(["bench", "--config", cfg]) == 2
        assert "bench supports dataset sources" in capsys.readouterr().err

    def test_reshape_applies_to_train_and_test_rows(self, tmp_path):
        cfg = json.loads(Path(self.bench_config(tmp_path)).read_text())
        cfg["dataset"]["reshape"] = [4, 1]
        resolved = resolve_config(cfg, need_method=False, need_methods=True)
        train_multi, test_multi = build_multiclass_dataset(resolved["dataset"])
        assert train_multi.dims == test_multi.dims == (4, 1)
        path = tmp_path / "reshaped.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0


class TestCheckCommand:
    def test_scope_filters_to_norm_inequality(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", "--scope", "lemma1", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "lemma1     1000/1000 checks passed" in stdout
        assert "theorem" not in stdout
        lines = (out / "bound_report.csv").read_text().strip().split("\n")
        assert len(lines) == 1001
        assert all(ln.startswith("lemma1,") for ln in lines[1:])

    def test_capacity_scope_single_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", "--scope", "lemma2", "--out", str(out)]) == 0
        lines = (out / "bound_report.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("lemma2,rademacher_bound,")
        assert lines[1].endswith(",PASS")

    def test_injected_fault_exits_1(self, tmp_path, capsys, monkeypatch):
        failing = BoundReport.make("descent_certificate[injected]", 0.0, 1e-3)
        monkeypatch.setattr(spmd.theory, "theorem2_sweep",
                            lambda n_runs, seed: [failing])
        out = tmp_path / "out"
        code = main(["check", "--scope", "theorem2", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "check failure: 1 hard check(s) failed" in captured.err
        assert "FAIL descent_certificate[injected]" in captured.out
        report = (out / "bound_report.csv").read_text()
        assert "descent_certificate[injected]" in report
        assert ",FAIL" in report

    def test_unknown_scope_exits_2(self, tmp_path, capsys):
        assert main(["check", "--scope", "lemma9"]) == 2
        assert "--scope must be one of" in capsys.readouterr().err

    def test_default_sweep_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        for scope in ("lemma1", "lemma2", "theorem1", "theorem2"):
            assert f"{scope:<10}" in stdout
        report = (out / "bound_report.csv").read_text()
        assert ",FAIL" not in report


class TestIdxSource:
    def write_idx_fixture(self, root, n_per_class=6):
        rng = np.random.default_rng(0)
        n = 2 * n_per_class
        images = np.zeros((n, 2, 2), dtype=np.uint8)
        labels = np.zeros(n, dtype=np.uint8)
        # class 1 bright in one corner, class 0 in the other
        for i in range(n):
            cls = i % 2
            labels[i] = cls
            base = rng.integers(0, 40, size=(2, 2))
            base[cls, cls] = 200 + rng.integers(0, 40)
            images[i] = base
        save_idx_images(str(root / "im.idx"), images)
        save_idx_labels(str(root / "lb.idx"), labels)

    def idx_config(self, tmp_path, images, labels, **ds_over):
        ds = {"source": "idx", "images": images, "labels": labels,
              "classes": [0, 1], "per_class": 4, "seed": 0}
        ds.update(ds_over)
        cfg = {"method": "spmd-r1", "lambda": 5.0, "dataset": ds}
        path = tmp_path / "idx.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_absolute_paths_train(self, tmp_path):
        self.write_idx_fixture(tmp_path)
        cfg = self.idx_config(tmp_path, str(tmp_path / "im.idx"),
                              str(tmp_path / "lb.idx"))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "model.spmd").exists()

    def test_relative_paths_resolve_via_data_dir(self, tmp_path, monkeypatch):
        ddir = tmp_path / "datasets"
        ddir.mkdir()
        self.write_idx_fixture(ddir)
        monkeypatch.setenv("SPMD_DATA_DIR", str(ddir))
        monkeypatch.chdir(tmp_path)  # names don't exist relative to cwd
        cfg = self.idx_config(tmp_path, "im.idx", "lb.idx")
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0

    def test_missing_idx_file_exits_2(self, tmp_path, capsys):
        cfg = self.idx_config(tmp_path, str(tmp_path / "gone.idx"),
                              str(tmp_path / "gone2.idx"))
        assert main(["train", "--config", cfg]) == 2
        assert "dataset file missing" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["images", "labels", "test_images",
                                       "test_labels"])
    def test_missing_file_named_by_its_field(self, tmp_path, capsys, field):
        self.write_idx_fixture(tmp_path)
        paths = {"images": str(tmp_path / "im.idx"), "labels": str(tmp_path / "lb.idx"),
                 "test_images": str(tmp_path / "im.idx"),
                 "test_labels": str(tmp_path / "lb.idx")}
        paths[field] = str(tmp_path / "gone.idx")
        cfg = self.idx_config(tmp_path, **paths)
        assert main(["train", "--config", cfg]) == 2
        assert f"field 'dataset.{field}'" in capsys.readouterr().err

    def test_inputs_checked_before_any_read(self, tmp_path, capsys):
        # a held-out file that is missing is a config error even when the
        # training images, read first, are not an IDX file at all
        self.write_idx_fixture(tmp_path)
        (tmp_path / "junk.idx").write_bytes(b"JUNKJUNK")
        cfg = self.idx_config(tmp_path, str(tmp_path / "junk.idx"),
                              str(tmp_path / "lb.idx"),
                              test_images=str(tmp_path / "im.idx"),
                              test_labels=str(tmp_path / "gone.idx"))
        assert main(["train", "--config", cfg]) == 2
        assert "field 'dataset.test_labels'" in capsys.readouterr().err

    @pytest.mark.parametrize("auto", ["images", "labels"])
    def test_auto_stands_for_its_own_field_only(self, tmp_path, monkeypatch, auto):
        # the standard files hold other pixels and another label order than
        # im.idx/lb.idx, so the training rows show which file each field read
        self.write_idx_fixture(tmp_path)
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        rng = np.random.default_rng(1)
        for key, name in MNIST_FILES.items():
            if key.endswith("images"):
                save_idx_images(str(mnist / name),
                                rng.integers(0, 256, size=(12, 2, 2)))
            else:
                save_idx_labels(str(mnist / name), np.arange(12) // 6)
        monkeypatch.setenv("SPMD_DATA_DIR", str(mnist))
        paths = {"images": str(tmp_path / "im.idx"), "labels": str(tmp_path / "lb.idx")}
        ds = dict(paths, **{auto: "auto"}, source="idx", classes=[0, 1], per_class=4)
        paths[auto] = str(mnist / MNIST_FILES[f"train_{auto}"])
        train_set, test_set = build_binary_dataset(
            resolve_config(minimal(dataset=ds))["dataset"])
        want = select_binary(load_idx(paths["images"], paths["labels"]), 0, 1, 4, 0)
        np.testing.assert_array_equal(train_set.samples, want.samples)
        np.testing.assert_array_equal(train_set.labels, want.labels)
        assert test_set is None

    def test_auto_needs_only_the_standard_files_it_names(self, tmp_path,
                                                         monkeypatch, capsys):
        # the data root holds the two training files and no held-out pair
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        self.write_idx_fixture(mnist)
        (mnist / "im.idx").rename(mnist / MNIST_FILES["train_images"])
        (mnist / "lb.idx").rename(mnist / MNIST_FILES["train_labels"])
        monkeypatch.setenv("SPMD_DATA_DIR", str(mnist))
        out = tmp_path / "out"
        cfg = self.idx_config(tmp_path, "auto", "auto")
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "model.spmd").exists()
        cfg = self.idx_config(tmp_path, "auto", "auto", test_images="auto",
                              test_labels="auto")
        assert main(["train", "--config", cfg]) == 2
        assert "field 'dataset.test_images' is 'auto'" in capsys.readouterr().err

    def test_insufficient_samples_exit_3(self, tmp_path, capsys):
        self.write_idx_fixture(tmp_path, n_per_class=2)
        cfg = self.idx_config(tmp_path, str(tmp_path / "im.idx"),
                              str(tmp_path / "lb.idx"), per_class=50)
        assert main(["train", "--config", cfg]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_reshape_through_cli(self, tmp_path):
        self.write_idx_fixture(tmp_path)
        cfg = self.idx_config(tmp_path, str(tmp_path / "im.idx"),
                              str(tmp_path / "lb.idx"), reshape=[4])
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        model = load_model(str(out / "model.spmd"))
        assert model.shape == (4,)


class TestDirSource:
    def config(self, tmp_path, **ds_over):
        for name, seed in (("train", 3), ("test", 4)):
            save_dataset(str(tmp_path / name),
                         synth_blobs((2, 2), 6, margin=3.0, noise=0.2, seed=seed))
        ds = {"source": "dir", "path": str(tmp_path / "train"),
              "test_path": str(tmp_path / "test")}
        ds.update(ds_over)
        return write_config(tmp_path, dataset=ds)

    def test_held_out_directory_scored(self, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--config", self.config(tmp_path),
                     "--out", str(out)]) == 0
        assert "test_accuracy" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("field", ["path", "test_path"])
    def test_missing_directory_exits_2_naming_its_field(self, tmp_path, capsys,
                                                        field):
        cfg = self.config(tmp_path, **{field: str(tmp_path / "gone")})
        assert main(["train", "--config", cfg]) == 2
        assert f"field 'dataset.{field}'" in capsys.readouterr().err


class TestMnistShapedPipeline:
    """Criterion 8's pipeline on 28x28 IDX files under the standard names,
    found through "auto": the 45-pair bench, a [7, 4, 7, 4] Tucker reshape
    and a held-out pair. The files hold the procedural seven-segment digit
    set of ``idx_files``, a synthetic stand-in for handwritten digits, 60
    per class in each split; criterion 8's floors stay tied to real MNIST."""

    @pytest.fixture(scope="class")
    def digit_files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("digits")
        write_digit_set(root, per_class=60, seed=0)
        return root

    @pytest.fixture
    def mnist_dir(self, digit_files, monkeypatch):
        monkeypatch.setenv("SPMD_DATA_DIR", str(digit_files))
        return digit_files

    @staticmethod
    def auto_dataset(classes, **over):
        ds = {"source": "idx", "images": "auto", "labels": "auto",
              "test_images": "auto", "test_labels": "auto",
              "classes": classes, "per_class": 10, "test_per_class": 10}
        ds.update(over)
        return ds

    def test_bench_all_45_pairs(self, tmp_path, mnist_dir):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"methods": ["spmd-r1"],
                                   "dataset": self.auto_dataset(list(range(10)))}))
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "bench.csv").read_text().strip().split("\n")[1:]
        pairs = [r for r in rows if ",mean," not in r]
        assert len(pairs) == 45
        assert len(rows) == 46

    def test_train_tucker_on_reshaped_digits(self, tmp_path, mnist_dir):
        cfg = write_config(tmp_path, method="spmd-tucker", ranks=[4, 4, 4, 4],
                           dataset=self.auto_dataset([0, 1], reshape=[7, 4, 7, 4]))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert load_model(str(out / "model.spmd")).shape == (7, 4, 7, 4)

    def test_held_out_pair_three_eight(self, tmp_path, mnist_dir):
        # 3 and 8 differ in two strokes. Over generator seeds 0-7, rank-1
        # at this size scored 0.91-0.96 held out and took 6-9 sweeps.
        cfg = write_config(tmp_path, **{"lambda": 1.0},
                           dataset=self.auto_dataset([3, 8], per_class=50,
                                                     test_per_class=50))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        summary = dict(line.split(None, 1)
                       for line in (out / "summary.txt").read_text().splitlines())
        assert float(summary["test_accuracy"]) >= 0.85
        assert int(summary["iterations"]) > 2


class TestReadmeConfigs:
    """Every JSON config under README's "CLI usage" is a valid config."""

    @staticmethod
    def blocks():
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        usage = readme.split("\n## CLI usage\n", 1)[1].split("\n## ", 1)[0]
        return [json.loads(b.split("\n```", 1)[0])
                for b in usage.split("```json\n")[1:]]

    def test_every_example_resolves_and_its_method_trains(self):
        blocks = self.blocks()
        assert len(blocks) >= 3
        for block in blocks:
            cfg = resolve_config(block, need_method="method" in block,
                                 need_methods="methods" in block)
            if "method" in block:
                ds = cfg["dataset"]
                dims = tuple(ds.get("reshape") or ds["shape"])
                if block["method"] in ("svm", "lmdm"):
                    dims = (int(np.prod(dims)),)
                make_train_config(cfg, block["method"], dims)

    def test_synth_train_example_runs(self, tmp_path):
        block, = [b for b in self.blocks()
                  if "method" in b and b["dataset"]["source"] == "synth"]
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(block))
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
