"""Command-line entry point: train, eval, bench, and check.

Configs are JSON files validated exhaustively before any compute. Every run
writes ``run.json`` with the fully resolved config. CSV outputs hold full-
precision values (repr round-trip); human-readable text rounds to 4
decimals. Timing lands in text summaries and timings.json only, keeping
the CSVs byte-identical across reruns of the same config.

Exit codes: 0 success, 1 check failure, 2 config/validation error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import theory
from .data import (_split_per_class, data_dir, find_mnist, load_dataset,
                   load_idx, reshape_samples, select_binary, select_multiclass,
                   synth_blobs, synth_multiclass)
from .margins import summarize_scores
from .multiclass import ovo_train, pairwise_accuracy
from .trainer import (TrainConfig, TrainingError, _mode_ranks, load_model,
                      predict, save_model, train)

METHODS = ("svm", "lmdm", "stm", "spmd-r1", "spmd-cp", "spmd-tucker")

_METHOD_KIND = {
    "svm": "vector",
    "lmdm": "vector",
    "stm": "rank1",
    "spmd-r1": "rank1",
    "spmd-cp": "cp",
    "spmd-tucker": "tucker",
}
_ZERO_MU = {"svm", "stm"}


class ConfigError(ValueError):
    """Invalid config or arguments; maps to exit code 2."""


class CheckFailure(RuntimeError):
    """A theory check failed; maps to exit code 1."""


# --- config schema -----------------------------------------------------------

_TOP_DEFAULTS = {
    "method": None,
    "methods": None,
    "ranks": [],
    "mu1": 1.0,
    "mu2": 1.0,
    "lambda": 1.0,
    "epsilon": 1e-2,
    "qp_tol": 1e-8,
    "max_outer": 50,
    "seed": 0,
    "bias_feature": False,
    "out_dir": None,
    "dataset": None,
}

_DATASET_KEYS = {
    "synth": {"source", "shape", "n_per_class", "margin", "noise", "seed",
              "test_n_per_class", "n_classes", "reshape"},
    "idx": {"source", "images", "labels", "classes", "per_class", "seed",
            "test_images", "test_labels", "test_per_class", "reshape"},
    "dir": {"source", "path", "test_path", "reshape"},
}


def _need(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A JSON number that is a finite float; ``true``/``false`` are not numbers."""
    if _is_int(x):
        return abs(x) <= sys.float_info.max
    return isinstance(x, float) and math.isfinite(x)


def _is_dims(x) -> bool:
    """A non-empty list of positive integers (a shape)."""
    return (isinstance(x, list) and len(x) >= 1
            and all(_is_int(d) and d >= 1 for d in x))


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    _need(isinstance(raw, dict), "config root must be a JSON object")
    return raw


def resolve_config(raw: dict, need_method=True, need_methods=False) -> dict:
    """Fill defaults and validate every field; raises ConfigError naming it."""
    unknown = set(raw) - set(_TOP_DEFAULTS)
    _need(not unknown, f"unknown config field(s): {sorted(unknown)}")
    cfg = dict(_TOP_DEFAULTS)
    cfg.update(raw)

    for key in ("mu1", "mu2", "lambda", "epsilon", "qp_tol"):
        _need(_is_number(cfg[key]), f"field '{key}' must be a number")
        cfg[key] = float(cfg[key])
    _need(cfg["mu1"] >= 0 and cfg["mu2"] >= 0, "fields 'mu1'/'mu2' must be >= 0")
    _need(cfg["lambda"] > 0, "field 'lambda' must be > 0")
    _need(cfg["epsilon"] > 0, "field 'epsilon' must be > 0")
    _need(cfg["qp_tol"] > 0, "field 'qp_tol' must be > 0")
    for key in ("max_outer", "seed"):
        _need(_is_int(cfg[key]), f"field '{key}' must be an integer")
    _need(cfg["max_outer"] >= 1, "field 'max_outer' must be >= 1")
    _need(isinstance(cfg["bias_feature"], bool), "field 'bias_feature' must be boolean")
    _need(isinstance(cfg["ranks"], list) and
          all(_is_int(r) and r >= 1 for r in cfg["ranks"]),
          "field 'ranks' must be a list of integers >= 1")

    if need_method:
        _need(cfg["method"] in METHODS,
              f"field 'method' must be one of {list(METHODS)}, got {cfg['method']!r}")
    if need_methods:
        _need(isinstance(cfg["methods"], list) and len(cfg["methods"]) > 0,
              "field 'methods' must be a non-empty list")
        for m in cfg["methods"]:
            _need(m in METHODS,
                  f"field 'methods' entry {m!r} must be one of {list(METHODS)}")

    _need(isinstance(cfg["dataset"], dict), "field 'dataset' must be an object")
    ds = dict(cfg["dataset"])
    src = ds.get("source")
    _need(src in _DATASET_KEYS,
          f"field 'dataset.source' must be one of {sorted(_DATASET_KEYS)}, got {src!r}")
    unknown = set(ds) - _DATASET_KEYS[src]
    _need(not unknown, f"unknown dataset field(s) for source {src!r}: {sorted(unknown)}")

    if src == "synth":
        _need(_is_dims(ds.get("shape")),
              "field 'dataset.shape' must be a list of positive integers")
        _need(_is_int(ds.get("n_per_class")) and ds["n_per_class"] >= 1,
              "field 'dataset.n_per_class' must be a positive integer")
        if ds.get("test_n_per_class") is not None:
            _need(_is_int(ds["test_n_per_class"]) and ds["test_n_per_class"] >= 0,
                  "field 'dataset.test_n_per_class' must be an integer >= 0")
        ds.setdefault("margin", 1.5)
        ds.setdefault("noise", 0.5)
        _need(_is_number(ds["margin"]) and ds["margin"] > 0,
              "field 'dataset.margin' must be a number > 0")
        _need(_is_number(ds["noise"]) and ds["noise"] >= 0,
              "field 'dataset.noise' must be a number >= 0")
        if ds.get("n_classes") is not None:
            _need(_is_int(ds["n_classes"]) and ds["n_classes"] >= 2,
                  "field 'dataset.n_classes' must be an integer >= 2")
    elif src == "idx":
        for key in ("images", "labels"):
            _need(isinstance(ds.get(key), str),
                  f"field 'dataset.{key}' must be a path string")
        for key in ("test_images", "test_labels"):
            _need(ds.get(key) is None or isinstance(ds[key], str),
                  f"field 'dataset.{key}' must be a path string")
        _need((ds.get("test_images") is None) == (ds.get("test_labels") is None),
              "fields 'dataset.test_images' and 'dataset.test_labels' must be "
              "given together")
        classes = ds.get("classes")
        _need(isinstance(classes, list) and len(classes) >= 2 and
              all(_is_int(c) for c in classes) and len(set(classes)) == len(classes),
              "field 'dataset.classes' must be a list of >= 2 distinct integer labels")
        if ds.get("per_class") is not None:
            _need(_is_int(ds["per_class"]) and ds["per_class"] >= 1,
                  "field 'dataset.per_class' must be a positive integer")
        if ds.get("test_per_class") is not None:
            _need(_is_int(ds["test_per_class"]) and ds["test_per_class"] >= 1,
                  "field 'dataset.test_per_class' must be a positive integer")
    else:
        _need(isinstance(ds.get("path"), str), "field 'dataset.path' must be a path string")
        _need(ds.get("test_path") is None or isinstance(ds["test_path"], str),
              "field 'dataset.test_path' must be a path string")

    ds.setdefault("seed", 0)
    _need(_is_int(ds["seed"]), "field 'dataset.seed' must be an integer")
    if ds.get("reshape") is not None:
        _need(_is_dims(ds["reshape"]),
              "field 'dataset.reshape' must be a list of positive integers")
    cfg["dataset"] = ds
    return cfg


# --- dataset construction ----------------------------------------------------


def _dataset_paths(ds: dict) -> dict:
    """Resolve and check every input the dataset section names, by field.

    ``"auto"`` stands for that one IDX field's standard MNIST file. Any
    other path is taken as given when absolute or present relative to the
    working directory, else under the data root. Nothing is read here, so a
    missing input, held-out or not, exits 2 naming its field before any load.
    """
    is_dir = ds["source"] == "dir"
    what, exists = ("directory", os.path.isdir) if is_dir else ("file", os.path.isfile)
    keys = (("path", "test_path") if is_dir
            else ("images", "labels", "test_images", "test_labels"))
    paths = {}
    for key in (k for k in keys if ds.get(k) is not None):
        p = ds[key]
        if p == "auto" and not is_dir:
            p = find_mnist().get(key if key.startswith("test_") else f"train_{key}")
            _need(p is not None,
                  f"field 'dataset.{key}' is 'auto' but its standard IDX file "
                  f"was not found under {data_dir()!r} (set SPMD_DATA_DIR)")
        elif not (os.path.isabs(p) or os.path.exists(p)):
            p = os.path.join(data_dir(), p)
        _need(exists(p), f"field 'dataset.{key}': dataset {what} missing: {p}")
        paths[key] = p
    return paths


def _idx_sets(ds: dict, select):
    """(train, test-or-None): ``select(raw, per_class, seed)`` on each IDX pair."""
    paths = _dataset_paths(ds)
    train_set = select(load_idx(paths["images"], paths["labels"]),
                       ds.get("per_class"), ds["seed"])
    if "test_images" not in paths:
        return train_set, None
    return train_set, select(load_idx(paths["test_images"], paths["test_labels"]),
                             ds.get("test_per_class"), ds["seed"] + 1)


def build_binary_dataset(ds: dict):
    """(train, test-or-None) LabeledDatasets from a dataset section."""
    src = ds["source"]
    if src == "synth":
        _need(ds.get("n_classes") in (None, 2),
              "binary commands need a 2-class dataset (drop 'n_classes')")
        n_train, n_test = ds["n_per_class"], ds.get("test_n_per_class") or 0
        drawn = synth_blobs(ds["shape"], n_train + n_test, ds["margin"],
                            ds["noise"], ds["seed"])
        train_set, test_set = drawn, None
        if n_test:
            train, test = _split_per_class(2, n_train, n_test)
            train_set, test_set = drawn.subset(train), drawn.subset(test)
    elif src == "idx":
        _need(len(ds["classes"]) == 2,
              "field 'dataset.classes' must name exactly 2 classes for binary runs")
        a, b = ds["classes"]
        train_set, test_set = _idx_sets(
            ds, lambda raw, n, seed: select_binary(raw, a, b, n, seed))
    else:
        paths = _dataset_paths(ds)
        train_set = load_dataset(paths["path"])
        test_set = (load_dataset(paths["test_path"]) if "test_path" in paths
                    else None)
    if ds.get("reshape"):
        train_set = reshape_samples(train_set, ds["reshape"])
        if test_set is not None:
            test_set = reshape_samples(test_set, ds["reshape"])
    return train_set, test_set


def build_multiclass_dataset(ds: dict):
    """(train, test) MulticlassDatasets for bench."""
    src = ds["source"]
    if src == "synth":
        k = ds.get("n_classes") or 3
        n_train = ds["n_per_class"]
        n_test = ds.get("test_n_per_class")
        if n_test is None:
            n_test = n_train
        _need(n_test >= 1, "field 'dataset.test_n_per_class' must be at least 1 "
                           "for bench, which scores every pair on test rows")
        drawn = synth_multiclass(ds["shape"], k, n_train + n_test,
                                 ds["margin"], ds["noise"], ds["seed"])
        train, test = _split_per_class(k, n_train, n_test)
        train_set, test_set = drawn.subset(train), drawn.subset(test)
    elif src == "idx":
        _need(ds.get("test_images") is not None,
              "bench needs 'dataset.test_images'/'test_labels' for idx sources")
        train_set, test_set = _idx_sets(
            ds, lambda raw, n, seed: select_multiclass(raw, ds["classes"], n, seed))
    else:
        raise ConfigError("bench supports dataset sources 'synth' and 'idx'")
    if ds.get("reshape"):
        train_set = reshape_samples(train_set, ds["reshape"])
        test_set = reshape_samples(test_set, ds["reshape"])
    return train_set, test_set


def make_train_config(cfg: dict, method: str, dims: tuple) -> TrainConfig:
    kind, ranks = _METHOD_KIND[method], list(cfg["ranks"])
    if cfg["bias_feature"]:  # train checks the ranks on the biased shape
        dims = (dims[0] + 1,) + tuple(dims[1:])
    try:
        _mode_ranks(kind, ranks, dims)
    except ValueError as e:
        raise ConfigError(f"field 'ranks' for method {method!r}: {e}")
    zero = method in _ZERO_MU
    return TrainConfig(
        kind=kind,
        ranks=ranks,
        mu1=0.0 if zero else cfg["mu1"],
        mu2=0.0 if zero else cfg["mu2"],
        lam=cfg["lambda"],
        tol=cfg["epsilon"],
        max_outer=cfg["max_outer"],
        qp_tol=cfg["qp_tol"],
        seed=cfg["seed"],
        bias_feature=cfg["bias_feature"],
    )


def _flatten_for(flat: bool, data):
    """Flat samples for vector-space methods and order-1 models; else as is."""
    if flat and data is not None and len(data.dims) > 1:
        return reshape_samples(data, [int(np.prod(data.dims))])
    return data


# --- output helpers -----------------------------------------------------------


def _fmt_full(x) -> str:
    """Full-precision CSV cell: repr for floats (round-trip exact)."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt_full(c) for c in row) + "\n")


def write_run_json(out_dir: str, command: str, resolved: dict, extra: dict | None = None):
    # BLAS may split a product differently across threads, so results are
    # bit-reproducible only at the same BLAS thread count; record what sets it
    blas = {var: os.environ.get(var) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    blas["cpu_count"] = os.cpu_count()
    payload = {
        "blas": blas,
        "command": command,
        "config": resolved,
        "version": __version__,
    }
    if extra:
        payload.update(extra)
    with open(os.path.join(out_dir, "run.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=str)


def _out_dir(args, cfg, command: str) -> str:
    out = args.out or (cfg.get("out_dir") if cfg else None) or os.path.join("runs", command)
    os.makedirs(out, exist_ok=True)
    return out


# --- commands ------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = resolve_config(load_config(args.config))
    if args.seed is not None:
        cfg["seed"] = args.seed
    method = cfg["method"]
    train_set, test_set = build_binary_dataset(cfg["dataset"])
    flat = _METHOD_KIND[method] == "vector"
    train_set, test_set = _flatten_for(flat, train_set), _flatten_for(flat, test_set)
    tc = make_train_config(cfg, method, train_set.dims)
    out = _out_dir(args, cfg, "train")

    t0 = time.perf_counter()
    model, report = train(train_set, tc)
    wall = time.perf_counter() - t0

    model_path = os.path.join(out, "model.spmd")
    save_model(model_path, model)
    write_csv(os.path.join(out, "report.csv"),
              ["iteration", "objective", "gamma_m", "gamma_v", "rel_change"],
              [[h["iteration"], h["objective"], h["gamma_m"], h["gamma_v"],
                h["rel_change"]] for h in report.history])
    write_csv(os.path.join(out, "blocks.csv"),
              ["step", "block", "objective", "weight_norm"],
              [[i, lab, obj, nrm] for i, (lab, obj, nrm) in enumerate(
                  zip(report.block_labels, report.objectives, report.weight_norms))])

    labels, _ = predict(model, train_set.samples, train_set.dims)
    acc = float(np.mean(labels == train_set.labels))
    lines = [
        f"method          {method}",
        f"kind            {model.kind}",
        f"shape           {'x'.join(map(str, train_set.dims))}",
        f"n_train         {len(train_set)}",
        f"converged       {report.converged}",
        f"iterations      {report.iterations}",
        f"cap_hits        {report.cap_hits}",
        f"objective       {report.final_objective:.4f}",
        f"gamma_m         {report.gamma_m:.4f}",
        f"gamma_v         {report.gamma_v:.4f}",
        f"train_accuracy  {acc:.4f}",
        f"wall_ms         {wall * 1e3:.1f}",
    ]
    if test_set is not None:
        tlabels, _ = predict(model, test_set.samples, test_set.dims)
        tacc = float(np.mean(tlabels == test_set.labels))
        lines.append(f"test_accuracy   {tacc:.4f}")
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(out, "summary.txt"), "w") as f:
        f.write(summary)
    write_run_json(out, "train", cfg, {"wall_time_s": wall,
                                       "model_file": model_path})
    print(summary, end="")
    print(f"model written to {model_path}")
    return 0


def cmd_eval(args) -> int:
    try:
        model = load_model(args.model)
    except FileNotFoundError:
        raise ConfigError(f"model file not found: {args.model}")
    except ValueError as e:
        raise ConfigError(str(e))
    cfg = resolve_config(load_config(args.config), need_method=False)
    data, _ = build_binary_dataset(cfg["dataset"])
    data = _flatten_for(len(model.shape) == 1, data)
    try:
        labels, scores = predict(model, data.samples, data.dims)
    except ValueError as e:
        raise ConfigError(f"dataset: {e}")
    summ = summarize_scores(scores, data.labels)
    acc = float(np.mean(labels == data.labels))
    out = _out_dir(args, cfg, "eval")
    write_csv(os.path.join(out, "eval.csv"),
              ["n", "accuracy", "gamma_m", "gamma_v"],
              [[len(data), acc, summ.mean, summ.variance]])
    write_run_json(out, "eval", cfg, {"model_file": args.model})
    print(f"n               {len(data)}")
    print(f"accuracy        {acc:.4f}")
    print(f"gamma_m         {summ.mean:.4f}")
    print(f"gamma_v         {summ.variance:.4f}")
    return 0


def cmd_bench(args) -> int:
    cfg = resolve_config(load_config(args.config), need_method=False,
                         need_methods=True)
    if args.seed is not None:
        cfg["seed"] = args.seed
    train_multi, test_multi = build_multiclass_dataset(cfg["dataset"])
    out = _out_dir(args, cfg, "bench")

    rows, text_rows, timings = [], [], {}
    for method in cfg["methods"]:
        flat = _METHOD_KIND[method] == "vector"
        mtrain, mtest = _flatten_for(flat, train_multi), _flatten_for(flat, test_multi)
        tc = make_train_config(cfg, method, mtrain.dims)
        t0 = time.perf_counter()
        ensemble = ovo_train(mtrain, tc)
        acc_rows, mean_acc = pairwise_accuracy(ensemble, mtest)
        wall = time.perf_counter() - t0
        timings[method] = {"total_s": wall}
        for r in acc_rows:
            pair = r["pair"]
            rep = ensemble.reports[pair]
            rows.append([method, pair[0], pair[1], rep.n_train, r["n_test"],
                         r["accuracy"], rep.iterations, rep.cap_hits])
            text_rows.append((method, f"{pair[0]}v{pair[1]}", rep.n_train,
                              r["n_test"], r["accuracy"], rep.iterations,
                              rep.cap_hits, rep.wall_time * 1e3))
        rows.append([method, "mean", "", "", "", mean_acc, "", ""])
        text_rows.append((method, "mean", "", "", mean_acc, "", "", wall * 1e3))

    write_csv(os.path.join(out, "bench.csv"),
              ["method", "class_a", "class_b", "n_train", "n_test", "accuracy",
               "iterations", "cap_hits"], rows)
    with open(os.path.join(out, "timings.json"), "w") as f:
        json.dump(timings, f, indent=2, sort_keys=True)

    header = f"{'method':<12} {'pair':>6} {'n_tr':>6} {'n_te':>6} {'accuracy':>9} {'iters':>6} {'cap_hits':>8} {'wall_ms':>9}"
    lines = [header, "-" * len(header)]
    for method, pair, ntr, nte, acc, iters, caps, ms in text_rows:
        lines.append(f"{method:<12} {pair:>6} {str(ntr):>6} {str(nte):>6} "
                     f"{acc:>9.4f} {str(iters):>6} {str(caps):>8} {ms:>9.1f}")
    table = "\n".join(lines) + "\n"
    with open(os.path.join(out, "bench.txt"), "w") as f:
        f.write(table)
    write_run_json(out, "bench", cfg)
    print(table, end="")
    return 0


def cmd_check(args) -> int:
    scope = args.scope or "all"
    known = ("all", "lemma1", "lemma2", "theorem1", "theorem2")
    if scope not in known:
        raise ConfigError(f"--scope must be one of {known}, got {scope!r}")
    seed = args.seed if args.seed is not None else 0
    out = _out_dir(args, None, "check")

    reports = []  # (scope, BoundReport, hard)
    if scope in ("all", "lemma1"):
        for rep in theory.lemma1_sweep(1000, seed=seed):
            reports.append(("lemma1", rep, True))
    if scope in ("all", "lemma2"):
        reports.append(("lemma2", theory.lemma2_check(seed=seed), True))
    if scope in ("all", "theorem1"):
        for rep in theory.theorem1_sweep(20, seed=seed):
            reports.append(("theorem1", rep, True))
        for rep in theory.cantelli_sweep(50, seed=seed):
            reports.append(("theorem1", rep, theory.cantelli_is_hard(rep)))
    if scope in ("all", "theorem2"):
        for rep in theory.theorem2_sweep(12, seed=seed):
            reports.append(("theorem2", rep, True))

    rows = []
    failures = 0
    for scope_name, rep, hard in reports:
        status = "PASS" if rep.holds else ("FAIL" if hard else "WARN")
        if status == "FAIL":
            failures += 1
        rows.append([scope_name, rep.name, rep.bound_value,
                     "" if rep.empirical_value is None else rep.empirical_value,
                     status])
    write_csv(os.path.join(out, "bound_report.csv"),
              ["scope", "name", "bound", "empirical", "status"], rows)

    by_scope = {}
    for scope_name, rep, hard in reports:
        s = by_scope.setdefault(scope_name, [0, 0])
        s[0] += 1
        s[1] += int(rep.holds)
    for scope_name, (total, held) in sorted(by_scope.items()):
        print(f"{scope_name:<10} {held}/{total} checks passed")
    worst = [r for r in rows if r[4] == "FAIL"][:5]
    for r in worst:
        print(f"FAIL {r[1]}: empirical {r[3]} > bound {r[2]}")
    print(f"bound report written to {os.path.join(out, 'bound_report.csv')}")
    if failures:
        raise CheckFailure(f"{failures} hard check(s) failed")
    return 0


# --- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spmd",
        description="Margin-distribution tensor classifiers: train, eval, "
                    "bench, and theory checks.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", help="output directory (overrides config)")

    sp = sub.add_parser("train", help="train one binary model")
    common(sp)
    sp.add_argument("--seed", type=int, help="seed override")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    common(sp)
    sp.add_argument("--model", required=True, help="model file from train")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("bench", help="one-vs-one benchmark over methods")
    common(sp)
    sp.add_argument("--seed", type=int, help="seed override")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("check", help="run the theory-check sweeps")
    sp.add_argument("--scope", help="all | lemma1 | lemma2 | theorem1 | theorem2")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--seed", type=int, help="sweep seed")
    sp.set_defaults(fn=cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CheckFailure as e:
        print(f"check failure: {e}", file=sys.stderr)
        return 1
    except (TrainingError, np.linalg.LinAlgError, ValueError, OSError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
