"""Benchmark harness for spmd: one workload, one seed, one process.

    python3 benchmarks/run.py --workload rank1-wide --seed 0 --seconds 15 --trace 0

Run from the repository root; spmd is imported from ``src/`` there. With
``--trace 0`` the workload's job is repeated, untraced, for about
``--seconds`` seconds and the end-to-end metrics are reported. With
``--trace 1`` the job runs once untraced and once with a span around every
public spmd function (see layers.py), and the per-layer metrics are
reported. Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A result file with provenance (and, traced, the span list) is
written under ``.bench_out/``. The exit code is 1 when an output check
fails and 2 when the spmd sources are missing.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

E2E = [("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"),
       ("test_acc", "ratio")]
SETUP_REPEATS = 5
CAP_WARNING = "coordinate descent stopped"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    with open(os.path.join(HERE, "workloads.json")) as f:
        table = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(table))
    p.add_argument("--seed", type=int, help="default: the workload's default_seed")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced inputs (the workload's smoke overrides)")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                   help="directory for result files")
    args = p.parse_args(argv)
    spec = table[args.workload]
    if args.seed is None:
        args.seed = spec["default_seed"]
    return args, spec


def import_spmd():
    """Import spmd from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spmd", "__init__.py")):
        print(f"benchmark: no spmd sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import spmd
    import spmd.cli  # noqa: F401  (loads every spmd module before patching)

    if os.path.dirname(os.path.abspath(spmd.__file__)) != os.path.join(SRC, "spmd"):
        print(f"benchmark: spmd imported from {spmd.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return spmd


@dataclass
class Outcome:
    """One job: its time, result and the trainings it made."""

    index: int              # position of the job's input in the run's list
    seconds: float
    result: object          # workloads.JobResult
    reports: list           # TrainReport of every training the job made
    cap_hits: int           # "coordinate descent stopped" warnings

    @property
    def attempted(self) -> int:
        updates = sum(len(r.objectives) - 1 for r in self.reports)
        return updates + self.result.checks

    @property
    def failed(self) -> int:
        return self.cap_hits + self.result.checks_failed

    def digest(self) -> str:
        """Objectives, accuracies and check report, independent of call order."""
        runs = sorted([r.seed, r.n_train, [float(j).hex() for j in r.objectives]]
                      for r in self.reports)
        blob = json.dumps([runs, repr(self.result.accuracy),
                           repr(self.result.digest_parts)])
        return hashlib.sha256(blob.encode()).hexdigest()


class Runner:
    """Runs jobs of one workload and captures every training report."""

    def __init__(self, spmd, job, params, patcher):
        self.job, self.params = job, params
        self._reports = []
        self._lock = threading.Lock()
        self.capture = patcher

        def capturing(train):
            def wrapper(*args, **kwargs):
                model, report = train(*args, **kwargs)
                with self._lock:
                    self._reports.append(report)
                return model, report
            return wrapper

        self.capture.replace(spmd.trainer, "train", capturing)

    def run(self, index, inp, params=None, workers=None) -> Outcome:
        self._reports = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = time.perf_counter()
            result = self.job(inp, params or self.params, workers)
            dt = time.perf_counter() - t
        caps = sum(str(w.message).startswith(CAP_WARNING) for w in caught)
        return Outcome(index, dt, result, self._reports, caps)

    def run_pass(self, inputs, params=None, workers=None, tracer=None):
        """Every job of the list once; returns (outcomes, wall seconds)."""
        root = tracer.span("harness.job") if tracer else contextlib.nullcontext()
        t = time.perf_counter()
        with root:
            outcomes = [self.run(i, inp, params, workers)
                        for i, inp in enumerate(inputs)]
        return outcomes, time.perf_counter() - t


def check(outcomes, spmd, floor, accuracy) -> list[str]:
    """Problems with the outputs; empty when every check passes."""
    problems = []
    if not accuracy > floor:
        problems.append(f"test_acc {accuracy} not above floor {floor}")
    digests = {}
    for o in outcomes:
        if o.result.certified:
            bad = sum(not spmd.theory.descent_certificate(r) for r in o.reports)
            if bad:
                problems.append(f"{bad} training(s) fail the descent certificate")
        # spmd check returns 1 exactly when it wrote FAIL rows
        if o.result.exit_code != (1 if o.result.checks_failed else 0):
            problems.append(f"spmd check returned {o.result.exit_code} with "
                            f"{o.result.checks_failed} FAIL row(s)")
        digests.setdefault(o.index, set()).add(o.digest())
    if any(len(d) > 1 for d in digests.values()):
        problems.append("repeats of one job gave different outputs")
    return sorted(set(problems))


def provenance(args, params, spmd) -> dict:
    import numpy as np
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "spmd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "params": params,
        "git_commit": commit, "source_sha256": src.hexdigest(),
        "spmd": spmd.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    spmd = import_spmd()
    sys.path.insert(0, HERE)
    import layers
    import workloads
    from tracer import Patcher, Tracer, spans_as_records

    imported = time.perf_counter() - _START
    params = dict(spec["params"])
    if args.smoke:
        params.update(spec["smoke"])
    os.makedirs(args.out, exist_ok=True)
    setup, job = workloads.WORKLOADS[args.workload]
    runner = Runner(spmd, job, params, Patcher("spmd"))
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"provenance": provenance(args, params, spmd)}

    def warm_up():
        """One job on smoke-sized inputs, so lazy loading is not timed."""
        if not args.smoke:
            small = {**params, **spec["smoke"]}
            runner.run(0, setup(small, args.seed, args.out)[0], small)

    try:
        if args.trace:
            setup_tracer = Tracer("spmd")
            layers.install(setup_tracer, spmd)
            try:
                inputs = setup(params, args.seed, args.out)
            finally:
                setup_tracer.restore()
            warm_up()
            outcomes, untraced_s = runner.run_pass(inputs)
            first = list(outcomes)
            extra = {"job_untraced_s": untraced_s}
            workers = params.get("workers")
            if workers:
                fits = [r.wall_time for o in outcomes for r in o.reports]
                _, p50, p75 = statistics.quantiles(fits, n=4, method="inclusive")
                single, single_s = runner.run_pass(inputs, workers=1)
                outcomes += single
                extra.update(workers=workers,
                             scaling_eff=single_s / (workers * untraced_s),
                             pair_fit_p50_s=p50, pair_fit_p75_s=p75)
            tracer = Tracer("spmd")
            layers.install(tracer, spmd)
            try:
                traced, _ = runner.run_pass(inputs, tracer=tracer)
            finally:
                tracer.restore()
            outcomes += traced
            extra.update(checks=sum(o.result.checks for o in traced),
                         checks_failed=sum(o.result.checks_failed for o in traced))
            values = layers.layer_metrics(tracer.spans, setup_tracer.spans, extra)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in layers.PER_LAYER}
            origin = setup_tracer.spans[0].start if setup_tracer.spans else _START
            with open(stem + "-spans.json", "w") as f:
                json.dump(spans_as_records(setup_tracer.spans + tracer.spans, origin), f)
        else:
            gen = []
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                inputs = setup(params, args.seed, args.out)
                gen.append(time.perf_counter() - t)
            setup_s = imported + statistics.median(gen)
            warm_up()
            # whole passes over the job list until the next would overrun
            first, elapsed = runner.run_pass(inputs)
            outcomes, passes = list(first), 1
            while elapsed * (passes + 1) / passes <= args.seconds:
                more, wall = runner.run_pass(inputs)
                outcomes += more
                elapsed += wall
                passes += 1
            times = [o.seconds for o in outcomes]
            values = {
                "setup_s": setup_s,
                "job_s": statistics.median(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "test_acc": statistics.fmean(o.result.accuracy for o in first),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
            record["samples"] = {"job_s": times, "setup_generate_s": gen,
                                 "setup_import_s": imported}
    finally:
        runner.capture.restore()

    accuracy = statistics.fmean(o.result.accuracy for o in first)
    floor = spec["smoke_min_test_acc" if args.smoke else "min_test_acc"]
    problems = check(outcomes, spmd, floor, accuracy)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digest = hashlib.sha256("".join(o.digest() for o in first).encode()).hexdigest()
    record.update(metrics=metrics, attempted=attempted, failed=failed,
                  problems=problems, digest=digest)
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, default=str)

    prov = record["provenance"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"commit {prov['git_commit']} src {prov['source_sha256'][:12]}")
    print(f"numpy {prov['numpy']} scipy {prov['scipy']} nproc {prov['nproc']} "
          f"blas_env {json.dumps({k: v for k, v in prov['blas_env'].items() if v})}")
    if not args.trace:
        print(f"job samples {len(outcomes)}")
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:<22.10g} {m['unit']}")
    print(f"fail_rate {failed}/{attempted} (capped solves and failed checks "
          f"over block solves and checks); digest {record['digest'][:16]}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
