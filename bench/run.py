"""Benchmark of kraus-witness: one workload, one run, one JSON result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are blp-revival, field-scan and cli-suite (see README.md here).
The run imports the package from the checkout's ``src/`` and refuses to run
against any other copy.  One process drives one closed loop with one task
in flight; BLAS threads are pinned to 1 here and in every child process.

``--trace 0`` repeats whole passes of the workload until S seconds have
gone by and reports the end-to-end metrics, each call's time scaled by a
yardstick read right before and after it (see yardstick.py).  ``--trace 1``
runs a traced pass between two untraced ones, all in process, and reports
per-layer metrics, the traced over untraced wall time among them.  Either way every
output is checked (outside the timed region) and the last line of standard
output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("call_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The run cannot produce a result (missing package, broken probe)."""


@dataclass
class Pass:
    wall: float
    call_walls: list[float]
    outputs: list[object]
    scan_calls: int = 0
    errors: dict[int, str] = field(default_factory=dict)
    # yardstick readings before each call and after the last, when taken
    marks: list[float] = field(default_factory=list)


def scaled(walls: list[float], marks: list[float], nominal: float) -> list[float]:
    """Each wall time times the nominal yardstick time over the mean of the
    readings taken right before and right after it."""
    return [w * nominal / (0.5 * (a + b)) for w, a, b in zip(walls, marks, marks[1:])]


def import_package():
    """Import kraus_witness from the checkout's src/ and nowhere else."""
    if not (SRC / "kraus_witness" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import kraus_witness
    import kraus_witness.cli  # noqa: F401

    path = Path(kraus_witness.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise BenchError(f"kraus_witness imported from {path}, not from {SRC}")
    return kraus_witness


def run_pass(
    tasks, pass_dir: Path, in_process: bool, tracer=None,
    mark: Callable[[], float] | None = None,
) -> Pass:
    """Run every task once, in order; only the calls themselves are timed.
    With ``mark``, the yardstick is read before each call and after the last."""
    pass_dir.mkdir(parents=True)
    raws, walls, scans, errors, marks = [], [], 0, {}, []
    for i, task in enumerate(tasks):
        if mark is not None:
            marks.append(mark())
        before = tracer.calls["witnesses.scan_G"] if tracer is not None else 0
        t0 = time.perf_counter()
        try:
            raws.append(task.invoke(pass_dir, in_process))
        except Exception as exc:  # a failed task is counted, the run goes on
            raws.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        if tracer is not None and task.lags:
            scans += tracer.calls["witnesses.scan_G"] - before
    if mark is not None:
        marks.append(mark())
    outputs = []
    for i, (task, raw) in enumerate(zip(tasks, raws)):
        try:
            outputs.append(None if i in errors else task.collect(raw, pass_dir))
        except Exception as exc:
            outputs.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(pass_dir)
    return Pass(sum(walls), walls, outputs, scans, errors, marks)


def check_passes(tasks, passes: list[Pass]) -> list[str]:
    """Failure messages over every task of every pass; each distinct output
    goes through its check (and the oracle) once."""
    failures, verdicts = [], {}
    for n, run in enumerate(passes):
        for i, task in enumerate(tasks):
            message = run.errors.get(i)
            if message is None:
                key = (i, run.outputs[i])
                if key not in verdicts:
                    try:
                        verdicts[key] = task.check(run.outputs[i])
                    except Exception as exc:
                        verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
                message = verdicts[key]
            if message is not None:
                failures.append(f"pass {n} {task.label}: {message}")
    return failures


def measure_setup(workload: str, seed: int, env: dict[str, str]) -> list[dict]:
    """Fresh-interpreter set-up, SETUP_SAMPLES times after one warm-up that
    lets the bytecode cache fill, with the child-process yardstick read
    before each sample and after the last."""
    import yardstick

    samples, marks = [], []
    for i in range(SETUP_SAMPLES + 1):
        if i:
            marks.append(yardstick.time_process(env, ROOT, SETUP_TIMEOUT_S))
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        path = Path(report["package_path"]).resolve()
        if SRC.resolve() not in path.parents:
            raise BenchError(f"set-up probe imported kraus_witness from {path}")
        report["setup_s"] = report["ready"] - start
        if i:
            samples.append(report)
    marks.append(yardstick.time_process(env, ROOT, SETUP_TIMEOUT_S))
    raw = [s["setup_s"] for s in samples]
    for sample, value in zip(samples, scaled(raw, marks, yardstick.NOMINAL_PROCESS_S)):
        sample["raw_setup_s"], sample["setup_s"] = sample["setup_s"], value
    return samples


def provenance(kw, seed: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            names = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "package_path": str(Path(kw.__file__).resolve().parent),
    }


def timed_run(workload: str, tasks, seconds: float, work: Path) -> tuple[list[Pass], dict]:
    import yardstick

    # the CLI suite's work happens in child processes, and so does its
    # yardstick; the rest in this one
    in_process = workload != "cli-suite"
    if in_process:
        mark, nominal = yardstick.time_burst, yardstick.NOMINAL_BURST_S
    else:
        def mark() -> float:
            return yardstick.time_process(dict(os.environ), ROOT)

        nominal = yardstick.NOMINAL_PROCESS_S
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(tasks, work / f"pass-{len(passes)}", in_process, mark=mark))
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    # each task's median over the run of its yardstick-scaled call times
    per_task = [
        statistics.median(calls)
        for calls in zip(*(scaled(p.call_walls, p.marks, nominal) for p in passes))
    ]
    wall = sum(per_task)
    metrics = {
        "wall_s": wall,
        "ops_per_s": sum(t.ops for t in tasks) / wall,
        "call_p50_s": statistics.median(per_task),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "raw.wall_s": sum(statistics.median(c) for c in zip(*(p.call_walls for p in passes))),
        "raw.yardstick_s": statistics.median(m for p in passes for m in p.marks),
        "yardstick.nominal_s": nominal,
    }
    return passes, metrics


def traced_run(tasks, work: Path) -> tuple[list[Pass], dict]:
    from tracing import Tracer, instrument, layer_metrics

    # untraced passes on both sides of the traced one, so that warm-up and
    # drift do not land on one side of the overhead ratio
    before = run_pass(tasks, work / "pass-before", in_process=True)
    tracer = Tracer()
    with instrument(tracer):
        traced = run_pass(tasks, work / "pass-traced", in_process=True, tracer=tracer)
    after = run_pass(tasks, work / "pass-after", in_process=True)
    plain = min(before.wall, after.wall)
    metrics = layer_metrics(tracer, traced.scan_calls, sum(t.lags for t in tasks))
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.untraced_wall_s"] = plain
    metrics["trace.overhead_ratio"] = traced.wall / plain
    return [before, traced, after], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("KRAUS_WITNESS_TOL", None)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    try:
        kw = import_package()
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    tasks = workloads.build(args.workload, args.seed, kw, SRC)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            passes, metrics = traced_run(tasks, work)
        else:
            passes, metrics = timed_run(args.workload, tasks, args.seconds, work)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        setup = measure_setup(args.workload, args.seed, env)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    if args.trace:
        metrics["cli.import.numpy_s"] = statistics.median(s["numpy_s"] for s in setup)
        metrics["cli.import.package_s"] = statistics.median(s["package_s"] for s in setup)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        metrics["raw.setup_s"] = statistics.median(s["raw_setup_s"] for s in setup)
        units = dict(END_TO_END)
    failures = check_passes(tasks, passes)
    attempted = len(tasks) * len(passes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  tasks per pass {len(tasks)}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':<36} {len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} tasks)")
    if not args.trace:
        print(f"  unscaled: wall_s {metrics['raw.wall_s']:.6g} s, setup_s "
              f"{metrics['raw.setup_s']:.6g} s; yardstick median "
              f"{metrics['raw.yardstick_s']:.6g} s, nominal {metrics['yardstick.nominal_s']:.6g} s")
    walls = sorted(p.wall for p in passes)
    print(f"  pass wall s (unscaled): min {walls[0]:.6g}  median {statistics.median(walls):.6g}  "
          f"max {walls[-1]:.6g}")
    for i, task in enumerate(tasks):
        calls = [p.call_walls[i] for p in passes]
        print(f"  task {task.label:<31} {min(calls):>14.6g} s fastest, "
              f"{statistics.median(calls):.6g} s median, unscaled ({task.ops} ops)")
    if args.trace:
        _compare_counts(args.workload, metrics, tracing.EXACT)
    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(kw, args.seed), sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _compare_counts(workload: str, metrics: dict, exact: tuple[str, ...]) -> None:
    """Print how the exact counts compare with those recorded in baseline.json."""
    recorded = json.loads((HERE / "baseline.json").read_text())["exact_counts"][workload]
    changed = [
        f"{name} {recorded[name]} -> {metrics[name]}"
        for name in exact
        if name in recorded and recorded[name] != metrics[name]
    ]
    print("exact counts: " + ("same as baseline.json" if not changed else "; ".join(changed)))


if __name__ == "__main__":
    sys.exit(main())
