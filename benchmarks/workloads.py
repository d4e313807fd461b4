"""The four workloads: input generation (set-up) and one job.

Set-up returns the run's list of job inputs, made only from the workload
parameters and ``--seed``; a job handles one of them. Every call into spmd
goes through a module attribute (``spmd.trainer.train``, not a name bound
at import), so the traced run's wrappers see it.

The training reports themselves are captured by ``run.py`` at every lookup
site of ``train``, so trainings made inside ``spmd check`` are counted too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import spmd.cli
import spmd.data
import spmd.multiclass
import spmd.trainer


@dataclass
class JobResult:
    accuracy: float                 # held-out accuracy (mean over draws/pairs)
    digest_parts: list = field(default_factory=list)
    checks: int = 0                 # theory checks run (check-sweep)
    checks_failed: int = 0          # FAIL rows
    exit_code: int = 0              # spmd check's return code
    certified: bool = True          # trainings need the descent certificate


def draw_seed(seed: int, k: int) -> int:
    """Data seed of draw ``k`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(k)]).generate_state(1)[0])


def _config(train: dict, seed: int):
    return spmd.trainer.TrainConfig(**train, seed=seed)


# --- binary: tucker-qp, rank1-wide -------------------------------------------------


def setup_binary(p: dict, seed: int, scratch: str) -> list:
    """One synth_blobs call per draw, split into train and held-out rows.

    Train and held-out samples come from the same draw (same class
    centres); the rows of each class are split, first n_train_per_class
    to training.
    """
    ntr, nte = p["n_train_per_class"], p["n_test_per_class"]
    per = ntr + nte
    out = []
    for k in range(p["draws"]):
        s = draw_seed(seed, k)
        d = spmd.data.synth_blobs(p["shape"], per, margin=p["margin"],
                                  noise=p["noise"], seed=s)
        train = d.subset(np.r_[0:ntr, per:per + ntr])
        test = d.subset(np.r_[ntr:per, per + ntr:2 * per])
        if p["reshape"]:
            train = spmd.data.reshape_samples(train, p["reshape"])
            test = spmd.data.reshape_samples(test, p["reshape"])
        out.append((s, train, test))
    return out


def job_binary(inp, p: dict, workers=None) -> JobResult:
    """Train on one draw and score its held-out rows."""
    s, train, test = inp
    model, _ = spmd.trainer.train(train, _config(p["train"], s))
    scores = spmd.trainer.decision_scores(model, test.samples, test.dims)
    return JobResult(float(np.mean(np.where(scores >= 0.0, 1.0, -1.0) == test.labels)))


# --- ovo-10class ---------------------------------------------------------------------


def setup_ovo(p: dict, seed: int, scratch: str) -> list:
    """One synth_multiclass call; each class's rows split train/held-out."""
    ntr, nte = p["n_train_per_class"], p["n_test_per_class"]
    per = ntr + nte
    d = spmd.data.synth_multiclass(p["shape"], p["classes"], per,
                                   margin=p["margin"], noise=p["noise"], seed=seed)
    starts = np.arange(p["classes"]) * per
    tr = np.concatenate([np.arange(s, s + ntr) for s in starts])
    te = np.concatenate([np.arange(s + ntr, s + per) for s in starts])
    mk = spmd.data.MulticlassDataset
    return [(seed, mk(d.samples[tr], d.dims, d.labels[tr]),
             mk(d.samples[te], d.dims, d.labels[te]))]


def job_ovo(inp, p: dict, workers=None) -> JobResult:
    seed, train, test = inp
    ens = spmd.multiclass.ovo_train(train, _config(p["train"], seed),
                                    workers=workers or p["workers"])
    rows, mean = spmd.multiclass.pairwise_accuracy(ens, test)
    return JobResult(mean, [(r["pair"], r["accuracy"]) for r in rows])


# --- check-sweep ---------------------------------------------------------------------


def setup_check(p: dict, seed: int, scratch: str) -> list:
    """The sweeps make their own inputs; set-up picks seeds and a directory."""
    out = os.path.join(scratch, f"check-{os.getpid()}")
    return [(draw_seed(seed, k) % 2**31, out) for k in range(p["sweeps"])]


def job_check(inp, p: dict, workers=None) -> JobResult:
    """One ``spmd check`` sweep in-process.

    Held-out accuracy is that of theorem1's models (one minus their mean
    held-out 0-1 loss). A FAIL row is a failed operation; the trainings
    are certified by the sweep's own theorem2 rows, as in ``spmd check``.
    """
    sweep_seed, out_dir = inp
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["check", "--seed", str(sweep_seed), "--out", out_dir]
    if p["scope"] != "all":
        argv += ["--scope", p["scope"]]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = spmd.cli.main(argv)
    with open(os.path.join(out_dir, "bound_report.csv"), "rb") as f:
        blob = f.read()
    shutil.rmtree(out_dir, ignore_errors=True)
    rows = list(csv.DictReader(io.StringIO(blob.decode())))
    losses = [float(r["empirical"]) for r in rows
              if r["name"] == "generalization_bound"]
    return JobResult(1.0 - float(np.mean(losses)) if losses else 0.0,
                     [hashlib.sha256(blob).hexdigest()], checks=len(rows),
                     checks_failed=sum(r["status"] == "FAIL" for r in rows),
                     exit_code=code, certified=False)


WORKLOADS = {
    "tucker-qp": (setup_binary, job_binary),
    "rank1-wide": (setup_binary, job_binary),
    "ovo-10class": (setup_ovo, job_ovo),
    "check-sweep": (setup_check, job_check),
}
