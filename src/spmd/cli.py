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
from .tensor import _dims, _integer, _real
from .trainer import (TrainConfig, TrainingError, _check_setting, check_config,
                      load_model, predict, save_model, train)

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

# config field -> the TrainConfig setting whose rule it follows
_SETTING_FIELDS = {"mu1": "mu1", "mu2": "mu2", "lambda": "lam", "epsilon": "tol",
                   "qp_tol": "qp_tol", "max_outer": "max_outer", "seed": "seed"}

_TRAIN_DEFAULTS = TrainConfig()
_TOP_DEFAULTS = {
    "method": None, "methods": None, "out_dir": None, "dataset": None,
    "ranks": _TRAIN_DEFAULTS.ranks, "bias_feature": _TRAIN_DEFAULTS.bias_feature,
    **{key: getattr(_TRAIN_DEFAULTS, s) for key, s in _SETTING_FIELDS.items()},
}

# dataset source -> its input path fields; those named test_* are optional
_PATH_FIELDS = {"synth": (), "idx": ("images", "labels", "test_images", "test_labels"),
                "dir": ("path", "test_path")}

_DATASET_KEYS = {
    "synth": {"source", "shape", "n_per_class", "margin", "noise", "seed",
              "test_n_per_class", "n_classes", "reshape"},
    "idx": {"source", "classes", "per_class", "seed", "test_per_class", "reshape",
            *_PATH_FIELDS["idx"]},
    "dir": {"source", "reshape", *_PATH_FIELDS["dir"]},
}

# optional dataset integer field (absent or null: its default) -> least value
_DATASET_INTS = {"test_n_per_class": 0, "n_classes": 2, "per_class": 1,
                 "test_per_class": 1}


def _need(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check(rule, *args) -> None:
    """Run the package rule ``rule(*args)``; its ValueError becomes a ConfigError."""
    try:
        rule(*args)
    except ValueError as e:
        raise ConfigError(str(e)) from None


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

    for key, setting in _SETTING_FIELDS.items():
        _check(_check_setting, setting, cfg[key], f"field '{key}'")
        cfg[key] = type(_TOP_DEFAULTS[key])(cfg[key])  # as its default: float or int
    _need(isinstance(cfg["bias_feature"], bool), "field 'bias_feature' must be boolean")
    _need(cfg["out_dir"] is None or isinstance(cfg["out_dir"], str),
          "field 'out_dir' must be a path string or null")
    _need(isinstance(cfg["ranks"], list), "field 'ranks' must be a list")
    for i, r in enumerate(cfg["ranks"]):
        _check(_integer, r, 1, f"field 'ranks[{i}]'")

    if need_method:
        _need(cfg["method"] in METHODS,
              f"field 'method' must be one of {list(METHODS)}, got {cfg['method']!r}")
    if need_methods:
        _need(isinstance(cfg["methods"], list) and len(cfg["methods"]) > 0,
              "field 'methods' must be a non-empty list")
        for m in cfg["methods"]:
            _need(m in METHODS,
                  f"field 'methods' entry {m!r} must be one of {list(METHODS)}")
            _need(cfg["methods"].count(m) == 1, f"field 'methods' repeats entry {m!r}")

    _need(isinstance(cfg["dataset"], dict), "field 'dataset' must be an object")
    ds = dict(cfg["dataset"])
    src = ds.get("source")
    _need(src in _DATASET_KEYS,
          f"field 'dataset.source' must be one of {sorted(_DATASET_KEYS)}, got {src!r}")
    unknown = set(ds) - _DATASET_KEYS[src]
    _need(not unknown, f"unknown dataset field(s) for source {src!r}: {sorted(unknown)}")
    for key in _PATH_FIELDS[src]:
        _need(isinstance(ds.get(key), str)
              or (key.startswith("test_") and ds.get(key) is None),
              f"field 'dataset.{key}' must be a path string")

    if src == "synth":
        _check(_dims, ds.get("shape"), "field 'dataset.shape'")
        _check(_integer, ds.get("n_per_class"), 1, "field 'dataset.n_per_class'")
        ds.setdefault("margin", 1.5)
        ds.setdefault("noise", 0.5)
        for key, rule in (("margin", "positive"), ("noise", "nonnegative")):
            _check(_real, ds[key], rule, f"field 'dataset.{key}'")
    elif src == "idx":
        _need((ds.get("test_images") is None) == (ds.get("test_labels") is None),
              "fields 'dataset.test_images' and 'dataset.test_labels' must be "
              "given together")
        classes = ds.get("classes")
        need = "field 'dataset.classes' must be a list of >= 2 distinct labels"
        _need(isinstance(classes, list), need)
        for i, c in enumerate(classes):
            _check(_integer, c, 0, f"field 'dataset.classes[{i}]'")
        _need(len(classes) >= 2 and len(set(classes)) == len(classes), need)

    for key, low in _DATASET_INTS.items():
        if ds.get(key) is not None:
            _check(_integer, ds[key], low, f"field 'dataset.{key}'")
    ds.setdefault("seed", 0)
    _check(_integer, ds["seed"], 0, "field 'dataset.seed'")
    if ds.get("reshape") is not None:
        _check(_dims, ds["reshape"], "field 'dataset.reshape'")
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
    paths = {}
    for key in (k for k in _PATH_FIELDS[ds["source"]] if ds.get(k) is not None):
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


def _split(drawn, n_classes: int, n_train: int, n_test: int):
    """(train, test-or-None): each class's first n_train drawn rows, then n_test."""
    if not n_test:
        return drawn, None
    train, test = _split_per_class(n_classes, n_train, n_test)
    return drawn.subset(train), drawn.subset(test)


def _reshaped(ds: dict, *sets):
    """The sets (None stays None) in the dataset section's ``reshape`` dims, if
    any; a size the sets do not have, known only once loaded, is a config error."""
    dims = ds.get("reshape")
    try:
        return tuple(reshape_samples(s, dims) if dims and s is not None else s
                     for s in sets)
    except ValueError as e:
        raise ConfigError(f"field 'dataset.reshape': {e}") from None


def build_binary_dataset(ds: dict):
    """(train, test-or-None) LabeledDatasets from a dataset section."""
    src = ds["source"]
    if src == "synth":
        _need(ds.get("n_classes") in (None, 2),
              "binary commands need a 2-class dataset (drop 'n_classes')")
        n_train, n_test = ds["n_per_class"], ds.get("test_n_per_class") or 0
        train_set, test_set = _split(
            synth_blobs(ds["shape"], n_train + n_test, ds["margin"], ds["noise"],
                        ds["seed"]), 2, n_train, n_test)
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
    return _reshaped(ds, train_set, test_set)


def build_multiclass_dataset(ds: dict):
    """(train, test) MulticlassDatasets for bench."""
    src = ds["source"]
    if src == "synth":
        k = ds.get("n_classes") or 3
        n_train = ds["n_per_class"]
        n_test = ds.get("test_n_per_class")
        n_test = n_train if n_test is None else n_test
        _need(n_test >= 1, "field 'dataset.test_n_per_class' must be at least 1 "
                           "for bench, which scores every pair on test rows")
        train_set, test_set = _split(
            synth_multiclass(ds["shape"], k, n_train + n_test, ds["margin"],
                             ds["noise"], ds["seed"]), k, n_train, n_test)
    elif src == "idx":
        _need(ds.get("test_images") is not None,
              "bench needs 'dataset.test_images'/'test_labels' for idx sources")
        train_set, test_set = _idx_sets(
            ds, lambda raw, n, seed: select_multiclass(raw, ds["classes"], n, seed))
    else:
        raise ConfigError("bench supports dataset sources 'synth' and 'idx'")
    return _reshaped(ds, train_set, test_set)


def make_train_config(cfg: dict, method: str, dims: tuple) -> TrainConfig:
    """The method's TrainConfig, checked by :func:`check_config` for ``dims``."""
    settings = {setting: cfg[key] for key, setting in _SETTING_FIELDS.items()}
    if method in _ZERO_MU:
        settings.update(mu1=0.0, mu2=0.0)
    tc = TrainConfig(kind=_METHOD_KIND[method], ranks=list(cfg["ranks"]),
                     bias_feature=cfg["bias_feature"], **settings)
    try:
        check_config(tc, dims)
    except ValueError as e:
        raise ConfigError(f"field 'ranks' for method {method!r}: {e}")
    return tc


# --- output helpers -----------------------------------------------------------


def write_csv(path: str, header: list, rows: list) -> None:
    """One ``str`` per cell: a float's (or np.float64's) str is its repr."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(c) for c in row) + "\n")


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
        f"shape           {'x'.join(map(str, model.input_shape))}",
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
    # every method's config is checked before any output or training
    configs = {m: make_train_config(cfg, m, train_multi.dims) for m in cfg["methods"]}
    out = _out_dir(args, cfg, "bench")

    rows, timings = [], {}  # bench.csv's columns, then wall ms for bench.txt
    for method, tc in configs.items():
        t0 = time.perf_counter()
        ensemble = ovo_train(train_multi, tc)
        acc_rows, mean_acc = pairwise_accuracy(ensemble, test_multi)
        wall = time.perf_counter() - t0
        timings[method] = {"total_s": wall}
        for r in acc_rows:
            rep = ensemble.reports[r["pair"]]
            rows.append([method, *r["pair"], rep.n_train, r["n_test"], r["accuracy"],
                         rep.iterations, rep.cap_hits, rep.wall_time * 1e3])
        rows.append([method, "mean", "", "", "", mean_acc, "", "", wall * 1e3])

    write_csv(os.path.join(out, "bench.csv"),
              ["method", "class_a", "class_b", "n_train", "n_test", "accuracy",
               "iterations", "cap_hits"], [row[:-1] for row in rows])
    with open(os.path.join(out, "timings.json"), "w") as f:
        json.dump(timings, f, indent=2, sort_keys=True)

    header = f"{'method':<12} {'pair':>6} {'n_tr':>6} {'n_te':>6} {'accuracy':>9} {'iters':>6} {'cap_hits':>8} {'wall_ms':>9}"
    lines = [header, "-" * len(header)]
    for method, a, b, ntr, nte, acc, iters, caps, ms in rows:
        pair = f"{a}v{b}" if b != "" else a
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

    reports = []  # (scope, BoundReport); each sweep runs at its default size
    if scope in ("all", "lemma1"):
        reports += [("lemma1", rep) for rep in theory.lemma1_sweep(seed=seed)]
    if scope in ("all", "lemma2"):
        reports.append(("lemma2", theory.lemma2_check(seed=seed)))
    if scope in ("all", "theorem1"):
        reports += [("theorem1", rep) for rep in theory.theorem1_sweep(seed=seed)]
        reports += [("theorem1", rep) for rep in theory.cantelli_sweep(seed=seed)]
    if scope in ("all", "theorem2"):
        reports += [("theorem2", rep) for rep in theory.theorem2_sweep(seed=seed)]

    rows = [[scope_name, rep.name, rep.bound_value,
             "" if rep.empirical_value is None else rep.empirical_value,
             "PASS" if rep.holds else "FAIL"] for scope_name, rep in reports]
    write_csv(os.path.join(out, "bound_report.csv"),
              ["scope", "name", "bound", "empirical", "status"], rows)

    by_scope = {}
    for scope_name, rep in reports:
        s = by_scope.setdefault(scope_name, [0, 0])
        s[0] += 1
        s[1] += int(rep.holds)
    for scope_name, (total, held) in sorted(by_scope.items()):
        print(f"{scope_name:<10} {held}/{total} checks passed")
    failed = [r for r in rows if r[4] == "FAIL"]
    for r in failed[:5]:
        print(f"FAIL {r[1]}: empirical {r[3]} > bound {r[2]}")
    print(f"bound report written to {os.path.join(out, 'bound_report.csv')}")
    if failed:
        raise CheckFailure(f"{len(failed)} check(s) failed")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None:
        try:
            _integer(args.seed, 0, "argument --seed")
        except ValueError as e:
            parser.error(str(e))
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
