"""Benchmark for diffcoh: the CLI run in process on generated fixtures.

    python3 perfbench/run.py --workload group-complex --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout.  One process, one thread, one client in a closed
loop: each job starts when the previous one has returned.  A round is
one pass over the workload's job list (see ``workloads.py``); rounds
repeat until the next one would end after ``--seconds``.  Every report
is parsed and checked against ``reference.py``.

With ``--trace 0`` the last line of output is a JSON object whose
metrics are the end-to-end ones.  Times are wall times rescaled by the
speed probe (``probe.py``) to a fixed reference speed of the machine:

* ``round_s``: median over rounds of the summed job times of a round;
* ``round_s_hi``: the highest percentile of round times with at least
  ten rounds beyond it, or the slowest round when there are fewer than
  eleven rounds (the number of rounds is printed above the result);
* ``max_job_s``: median over rounds of the slowest job of the round;
* ``peak_rss_mb``: peak resident memory of this process;
* ``setup_s``: median of several set-ups, each a fresh import of
  ``diffcoh`` plus generating and writing the workload's fixtures;
* ``pass_share``: jobs whose result matched the reference, divided by
  jobs attempted (one minus the failure share; it is never zero).

With ``--trace 1`` untraced and traced rounds alternate, no probe runs,
and the metrics are the per-layer ones of ``spans.layer_metrics``:
counts and ratios from the first traced round, which repeat exactly for
a seed, and times in wall seconds as medians over traced rounds.
Scalar operation counts come from one extra round, because counting
them slows the scalar-heavy layers up to 3x.  ``trace.overhead`` is the
median traced round over the median untraced round.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
SETUPS = 15

sys.path.insert(0, HERE)
import probe  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import ``diffcoh.cli`` afresh from this checkout's ``src``; returns
    its ``main``."""
    for name in [n for n in sys.modules if n == "diffcoh" or n.startswith("diffcoh.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import diffcoh.cli

    if not os.path.abspath(diffcoh.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"diffcoh was imported from {diffcoh.cli.__file__}, not {SRC}")
    return diffcoh.cli.main


def write_fixtures(workload: str, seed: int) -> tuple[dict[str, str], list]:
    """Generate and write the workload's fixtures; returns (name ->
    path relative to the working directory, jobs)."""
    fixtures, jobs = workloads.build(workload, seed)
    written = workloads.write(fixtures, os.path.join(WORKDIR, workload))
    return {k: os.path.relpath(p) for k, p in written.items()}, jobs


def remove_workdir() -> None:
    shutil.rmtree(WORKDIR, ignore_errors=True)


def call(main, job, paths: dict[str, str]) -> tuple[object, str]:
    """Run one job through the CLI entry point; returns (exit code or
    the exception it raised, stdout)."""
    argv = [paths[job.fixture] if a == "{fixture}" else a for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", "json"])
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


class Round:
    def __init__(self) -> None:
        self.wall = 0.0
        self.job_seconds: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.report_bytes = 0

    @property
    def seconds(self) -> float:
        return sum(self.job_seconds)


def run_round(main, jobs, paths, frozen, speed: probe.SpeedProbe | None = None) -> Round:
    """One pass over the jobs; job times are rescaled by ``speed`` when
    given, wall seconds otherwise."""
    r = Round()
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        code, text = call(main, job, paths)
        t1 = time.perf_counter()
        r.job_seconds.append(speed.scaled(t0, t1) if speed else t1 - t0)
        r.report_bytes += len(text.encode("utf-8"))
        bad = reference.problems(job.name, code, text, frozen)
        r.failed += bool(bad)
        r.failures += [f"{job.name}: {p}" for p in bad]
    r.wall = time.perf_counter() - start
    print(f"round {r.seconds:.4f} s ({r.wall:.4f} s wall): " + ", ".join(
        f"{job.name} {t:.4f}" for job, t in zip(jobs, r.job_seconds)))
    return r


def high_percentile(values: list[float]) -> float:
    """The highest order statistic with at least ten values beyond it;
    the largest value when there are fewer than eleven."""
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1]


def timed_rounds(workload: str, seed: int, frozen: dict, seconds: float):
    """Set up ``SETUPS`` times, then run rounds until the next would end
    after ``seconds``; every time is rescaled by the speed probe."""
    with probe.SpeedProbe() as speed:
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            main = import_program()
            paths, jobs = write_fixtures(workload, seed)
            setups.append(speed.scaled(t0, time.perf_counter()))
            gc.collect()  # free the previous import now, not at a GC of the rounds
        deadline = time.perf_counter() + seconds
        rounds: list[Round] = []
        while True:
            rounds.append(run_round(main, jobs, paths, frozen, speed))
            if time.perf_counter() + max(r.wall for r in rounds) > deadline:
                break
    attempted = sum(len(r.job_seconds) for r in rounds)
    times = [r.seconds for r in rounds]
    print(f"rounds: {len(rounds)}; round_s_hi is the "
          + ("slowest round" if len(rounds) < 11 else "value with ten rounds above it"))
    return rounds, {
        "round_s": (statistics.median(times), "s"),
        "round_s_hi": (high_percentile(times), "s"),
        "max_job_s": (statistics.median(max(r.job_seconds) for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "pass_share": ((attempted - sum(r.failed for r in rounds)) / attempted, "ratio"),
    }


def traced_rounds(workload: str, seed: int, frozen: dict, seconds: float):
    """Alternate untraced and traced rounds until the next pair would end
    after ``seconds`` (at least one of each), then run one round that
    also counts scalar operations, which is too slow to time layers by."""
    main = import_program()
    paths, jobs = write_fixtures(workload, seed)
    deadline = time.perf_counter() + seconds
    tracer = spans.Tracer()

    def traced_round(count_scalars: bool) -> Round:
        tracer.reset()
        tracer.install(count_scalars)
        try:
            return run_round(tracer.wrap("cli.main", main), jobs, paths, frozen)
        finally:
            tracer.uninstall()

    plain: list[Round] = []
    traced: list[Round] = []
    per_round: list[dict] = []
    while True:
        plain.append(run_round(main, jobs, paths, frozen))
        traced.append(traced_round(False))
        per_round.append(spans.layer_metrics(tracer, traced[-1].report_bytes))
        if time.perf_counter() + plain[-1].wall + traced[-1].wall > deadline:
            break
    counting = traced_round(True)
    counts = spans.layer_metrics(tracer, counting.report_bytes)
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_round)
        elif name.startswith("scalars."):
            value = counts[name][0]
        metrics[name] = (value, unit)
    overhead = statistics.median(r.seconds for r in traced) / statistics.median(
        r.seconds for r in plain
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced, 1 counting scalar operations")
    return plain + traced + [counting], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    frozen = reference.load()
    measure = traced_rounds if args.trace else timed_rounds
    try:
        rounds, metrics = measure(args.workload, args.seed, frozen, args.seconds)
    finally:
        remove_workdir()

    for failure in sorted({f for r in rounds for f in r.failures}):
        print(f"FAILED {failure}")
    print("waiting: none; one thread runs every job, so no layer waits on another")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    failed = sum(r.failed for r in rounds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(r.job_seconds) for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
