"""Which spmd functions the traced run wraps, and the per-layer metrics.

Each layer is an ``spmd`` module. Its spans are named ``<module>.<function>``
and wrap that module's public functions where callers look them up, so the
trainer's private helpers (the inline mode-feature whitening) show up as
``trainer`` self time.

``PER_LAYER`` is the metric list ``BENCHMARK.json`` declares; every traced
run reports all of them, with 0 for a layer the workload does not reach.
"""

from __future__ import annotations

import statistics

from tracer import self_times

LAYERS = ("qp", "trainer", "tensor", "margins", "data", "multiclass", "theory",
          "cli")

PER_LAYER = [
    ("qp.assemble_s", "s"), ("qp.assemble_calls", "count"),
    ("qp.h_bytes", "B"), ("qp.recover_s", "s"),
    ("qp.solve_s", "s"), ("qp.solve_calls", "count"), ("qp.passes", "count"),
    ("qp.passes_per_solve", "count"), ("qp.coord_steps", "count"),
    ("qp.cap_hits", "count"), ("qp.kkt_residual_max", "1"),
    ("qp.ridge_events", "count"), ("qp.dual_n_mean", "count"),
    ("qp.self_s", "s"),
    ("trainer.train_s", "s"), ("trainer.block_update_s", "s"),
    ("trainer.psd_root_s", "s"), ("trainer.core_features_s", "s"),
    ("trainer.primal_objective_s", "s"), ("trainer.decision_scores_s", "s"),
    ("trainer.self_s", "s"), ("trainer.sweeps", "count"),
    ("trainer.block_updates", "count"), ("trainer.clamp_events", "count"),
    ("trainer.objective", "1"),
    ("tensor.reconstruct_s", "s"), ("tensor.reconstruct_calls", "count"),
    ("tensor.kron_s", "s"), ("tensor.self_s", "s"),
    ("margins.summarize_s", "s"), ("margins.calls", "count"),
    ("margins.self_s", "s"),
    ("data.synth_s", "s"), ("data.binary_view_s", "s"),
    ("data.binary_view_calls", "count"), ("data.bytes", "B"),
    ("data.self_s", "s"),
    ("multiclass.ovo_train_s", "s"), ("multiclass.pair_train_s", "s"),
    ("multiclass.pairwise_accuracy_s", "s"), ("multiclass.pool_util", "ratio"),
    ("multiclass.scaling_eff", "ratio"), ("multiclass.pair_fit_p50_s", "s"),
    ("multiclass.pair_fit_p75_s", "s"), ("multiclass.self_s", "s"),
    ("theory.lemma1_s", "s"), ("theory.lemma2_s", "s"),
    ("theory.theorem1_s", "s"), ("theory.cantelli_s", "s"),
    ("theory.theorem2_s", "s"), ("theory.checks", "count"),
    ("theory.checks_failed", "count"), ("theory.self_s", "s"),
    ("cli.main_s", "s"), ("cli.self_s", "s"),
    ("harness.job_traced_s", "s"), ("harness.job_untraced_s", "s"),
    ("harness.remainder_s", "s"), ("harness.overhead_s", "s"),
    ("harness.spans", "count"),
]


def _solved(span, sol):
    span.attrs["n"] = int(sol.alpha.size)
    span.attrs["passes"] = int(sol.iterations)
    span.attrs["kkt"] = float(sol.kkt_residual)
    span.attrs["capped"] = not sol.converged
    return sol


def _trained(span, result):
    _, report = result
    span.attrs["sweeps"] = report.iterations
    span.attrs["updates"] = len(report.objectives) - 1
    span.attrs["clamp"] = report.clamp_events
    span.attrs["objective"] = report.final_objective
    return result


def _sized(span, data):
    span.attrs["bytes"] = int(data.samples.nbytes)
    return data


def install(tracer, spmd) -> None:
    """Wrap every traced spmd function; ``tracer.restore()`` undoes it."""
    mods = {"qp": spmd.qp, "trainer": spmd.trainer, "tensor": spmd.tensor,
            "margins": spmd.margins, "data": spmd.data,
            "multiclass": spmd.multiclass, "theory": spmd.theory,
            "cli": spmd.cli}

    def assembled(span, result):
        problem, recover, info = result
        span.attrs["n"] = problem.n
        span.attrs["ridge"] = bool(info["ridge_added"])
        return problem, tracer.traced(recover, "qp.recover"), info

    targets = [
        ("qp", "assemble_dual", assembled), ("qp", "solve_box_qp", _solved),
        ("trainer", "train", _trained), ("trainer", "block_update", None),
        ("trainer", "psd_root", None), ("trainer", "core_features", None),
        ("trainer", "primal_objective", None),
        ("trainer", "decision_scores", None),
        ("tensor", "tucker_reconstruct", None),
        ("tensor", "cp_reconstruct", None), ("tensor", "kron_chain", None),
        ("tensor", "khatri_rao", None),
        ("margins", "summarize_scores", None),
        ("margins", "signed_margins", None),
        ("data", "synth_blobs", _sized), ("data", "synth_multiclass", _sized),
        ("multiclass", "ovo_train", None),
        ("multiclass", "pairwise_accuracy", None),
        ("theory", "lemma1_sweep", None), ("theory", "lemma2_check", None),
        ("theory", "theorem1_sweep", None), ("theory", "cantelli_sweep", None),
        ("theory", "theorem2_sweep", None),
        ("cli", "main", None),
    ]
    for layer, fn, hook in targets:
        tracer.wrap(mods[layer], fn, f"{layer}.{fn}", hook)
    tracer.wrap(spmd.data.MulticlassDataset, "binary_view", "data.binary_view",
                _sized)


def layer_metrics(spans, setup_spans, extra: dict) -> dict:
    """Per-layer metric values from one traced job's spans.

    Self times cover the job's spans only, so with the root's remainder
    they add up to the traced job time (when nothing runs on worker
    threads). ``data.synth_s`` and ``data.bytes`` also count the traced
    set-up, where the workload's inputs are generated. ``extra`` carries
    what spans cannot: the untraced job time, the theory check counts, the
    per-pair fit quantiles, the pool size and ``multiclass.scaling_eff``.
    """
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def count(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()))

    solves = by_name.get("qp.solve_box_qp", [])
    assemblies = by_name.get("qp.assemble_dual", [])
    trains = by_name.get("trainer.train", [])
    ovo_ids = {s.id for s in by_name.get("multiclass.ovo_train", ())}
    ovo_wall = total("multiclass.ovo_train")
    pair_train = sum(s.duration for s in trains if s.parent in ovo_ids)
    passes = attr_sum("qp.solve_box_qp", "passes")
    workers = extra.get("workers", 0)
    synth = [s for s in list(setup_spans) + list(spans)
             if s.name in ("data.synth_blobs", "data.synth_multiclass")]

    m = {
        "qp.assemble_s": total("qp.assemble_dual"),
        "qp.assemble_calls": len(assemblies),
        "qp.h_bytes": sum(8 * s.attrs["n"] ** 2 for s in assemblies),
        "qp.recover_s": total("qp.recover"),
        "qp.solve_s": total("qp.solve_box_qp"),
        "qp.solve_calls": len(solves),
        "qp.passes": passes,
        "qp.passes_per_solve": passes / len(solves) if solves else 0.0,
        "qp.coord_steps": sum(s.attrs["passes"] * s.attrs["n"] for s in solves),
        "qp.cap_hits": sum(int(s.attrs["capped"]) for s in solves),
        "qp.kkt_residual_max": max((s.attrs["kkt"] for s in solves), default=0.0),
        "qp.ridge_events": sum(int(s.attrs["ridge"]) for s in assemblies),
        "qp.dual_n_mean": (statistics.fmean(s.attrs["n"] for s in solves)
                           if solves else 0.0),
        "trainer.train_s": total("trainer.train"),
        "trainer.block_update_s": total("trainer.block_update"),
        "trainer.psd_root_s": total("trainer.psd_root"),
        "trainer.core_features_s": total("trainer.core_features"),
        "trainer.primal_objective_s": total("trainer.primal_objective"),
        "trainer.decision_scores_s": total("trainer.decision_scores"),
        "trainer.sweeps": attr_sum("trainer.train", "sweeps"),
        "trainer.block_updates": attr_sum("trainer.train", "updates"),
        "trainer.clamp_events": attr_sum("trainer.train", "clamp"),
        "trainer.objective": (statistics.fmean(s.attrs["objective"] for s in trains)
                              if trains else 0.0),
        "tensor.reconstruct_s": total("tensor.tucker_reconstruct",
                                      "tensor.cp_reconstruct"),
        "tensor.reconstruct_calls": count("tensor.tucker_reconstruct",
                                          "tensor.cp_reconstruct"),
        "tensor.kron_s": total("tensor.kron_chain", "tensor.khatri_rao"),
        "margins.summarize_s": total("margins.summarize_scores",
                                     "margins.signed_margins"),
        "margins.calls": count("margins.summarize_scores", "margins.signed_margins"),
        "data.synth_s": sum(s.duration for s in synth),
        "data.binary_view_s": total("data.binary_view"),
        "data.binary_view_calls": count("data.binary_view"),
        "data.bytes": sum(s.attrs["bytes"]
                          for s in synth + by_name.get("data.binary_view", [])),
        "multiclass.ovo_train_s": ovo_wall,
        "multiclass.pair_train_s": pair_train,
        "multiclass.pairwise_accuracy_s": total("multiclass.pairwise_accuracy"),
        "multiclass.pool_util": (pair_train / (ovo_wall * workers)
                                 if ovo_wall and workers else 0.0),
        "multiclass.scaling_eff": extra.get("scaling_eff", 0.0),
        "multiclass.pair_fit_p50_s": extra.get("pair_fit_p50_s", 0.0),
        "multiclass.pair_fit_p75_s": extra.get("pair_fit_p75_s", 0.0),
        "theory.lemma1_s": total("theory.lemma1_sweep"),
        "theory.lemma2_s": total("theory.lemma2_check"),
        "theory.theorem1_s": total("theory.theorem1_sweep"),
        "theory.cantelli_s": total("theory.cantelli_sweep"),
        "theory.theorem2_s": total("theory.theorem2_sweep"),
        "theory.checks": extra.get("checks", 0),
        "theory.checks_failed": extra.get("checks_failed", 0),
        "cli.main_s": total("cli.main"),
        "harness.job_traced_s": total("harness.job"),
        "harness.job_untraced_s": extra["job_untraced_s"],
        "harness.remainder_s": sum(selfs[s.id] for s in by_name.get("harness.job", ())),
        "harness.overhead_s": total("harness.job") - extra["job_untraced_s"],
        "harness.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    return m
