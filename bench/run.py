"""Benchmark for rankgrowth: seeded workloads timed end to end and per layer.

Usage, from the root of a rankgrowth checkout:

    python3 bench/run.py --workload count-sweep --seed 1 --seconds 30 --trace 0

One process, one client, no threads: problems are solved one after the
other (a closed loop) in whole passes over the workload, until at least
``--seconds`` have passed and at least 100 solves were made.  Every
outcome is checked against the brute-force answers in ``reference.py``.

Times are wall seconds rescaled to a fixed host speed.  On a shared host
the speed of a core swings by up to 1.8x for seconds or minutes at a
time, so a fixed pure-Python kernel is timed just before and just after
every solve (and around set-up), and the solve's wall time is multiplied
by CALIBRATION_S over the kernel's mean time.  The unscaled medians are
printed on a side line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
untraced pass and one pass with the hooks of ``hooks.py`` installed, and
prints the per-layer totals of the traced pass and the tracing overhead.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import time

perf = time.perf_counter

# the kernel's time in the fast phase of a 2-vCPU x86 host (Python 3.11)
CALIBRATION_S = 0.0003


def calibration_s() -> float:
    """Wall time of a fixed dict-and-tuple kernel, a probe of host speed."""
    t0 = perf()
    d = {}
    for i in range(1500):
        key = (i % 17, i % 5)
        d[key] = d.get(key, 0) + i * i % 7
    return perf() - t0


CALIBRATION_BEFORE_SETUP = calibration_s()
T_START = perf()  # set-up time runs from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from hooks import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
MIN_SOLVES = 100  # so that at least ten solves lie beyond p90
SETUP_PROBES = 6  # extra fresh processes that only set up, for the setup_s median


def import_program():
    """Import rankgrowth from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "rankgrowth", "__init__.py")):
        raise SystemExit(f"error: no rankgrowth sources under {SRC}")
    sys.path.insert(0, SRC)
    import rankgrowth

    if not os.path.abspath(rankgrowth.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported rankgrowth from {rankgrowth.__file__}")


class Tally:
    """Outcomes of the solves of one or more passes."""

    def __init__(self):
        self.wall = []  # seconds as measured
        self.scaled = []  # seconds rescaled to the calibration speed
        self.attempted = 0
        self.failed = 0
        self.certified = 0
        self.results = 0
        self.first_error = None
        self.reference = {}  # name -> {"times": [...], "words": n, "status": s}

    def record(self, problem, wall, scaled, outcome, error, certified):
        self.wall.append(wall)
        self.scaled.append(scaled)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.first_error = self.first_error or f"{problem.name}: {error}"
        if certified is not None:
            self.results += 1
            self.certified += certified
        if problem.reference:
            entry = self.reference.setdefault(problem.name, {"times": []})
            entry["times"].append(scaled)
            entry["words"] = len(outcome.table.values) if outcome is not None else None
            entry["status"] = outcome.status if outcome is not None else "failed"


def run_pass(problems, tally, tracer=None):
    for problem in problems:
        before = calibration_s()
        t0 = perf()
        try:
            outcome = problem.solve()
        except Exception as exc:  # noqa: BLE001 - an unexpected raise is a failed solve
            wall = perf() - t0
            outcome, certified = None, None
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            wall = perf() - t0
            certified, error = problem.judge(outcome)
        after = calibration_s()
        if tracer is not None:
            tracer.drain()
        scaled = wall * 2 * CALIBRATION_S / (before + after)
        tally.record(problem, wall, scaled, outcome, error, certified)


def p90(times):
    return statistics.quantiles(times, n=10)[-1]


def setup_probe_seconds(workload, seed):
    """Set-up time of fresh processes that import, generate and construct only."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        problems = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_wall = perf() - T_START
        calibration = (CALIBRATION_BEFORE_SETUP + calibration_s()) / 2
        setup_s = setup_wall * CALIBRATION_S / calibration
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, tally = traced(problems)
        else:
            metrics, tally = untraced(problems, args.seconds)
            setups = [setup_s] + setup_probe_seconds(args.workload, args.seed)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    print(
        f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"workload={args.workload} seed={args.seed} trace={args.trace}"
    )
    for name, entry in tally.reference.items():
        times = entry["times"]
        print(
            f"reference {name}: solve_s_p50={statistics.median(times)} "
            f"solves={len(times)} words={entry['words']} status={entry['status']}"
        )
    if tally.first_error:
        print(f"first failure: {tally.first_error}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())
                },
            }
        )
    )
    return 0


def untraced(problems, seconds):
    tally = Tally()
    start = perf()
    while perf() - start < seconds or len(tally.scaled) < MIN_SOLVES:
        run_pass(problems, tally)
    times = tally.scaled
    p50_s, p90_s = statistics.median(times), p90(times)
    print(
        f"solve_s_p50 samples={len(times)} "
        f"(unscaled {statistics.median(tally.wall)})"
    )
    print(
        f"solve_s_p90 samples={len(times)} beyond={sum(t > p90_s for t in times)} "
        f"(unscaled {p90(tally.wall)})"
    )
    certified = tally.certified / tally.results if tally.results else 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "solves_per_s": (len(times) / sum(times), "1/s"),
        "solve_s_p50": (p50_s, "s"),
        "solve_s_p90": (p90_s, "s"),
        "certified_frac": (certified, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, tally


def traced(problems):
    """One untraced pass, then one traced pass whose per-layer totals are reported."""
    tally = Tally()
    run_pass(problems, tally)
    untraced_n = len(tally.scaled)
    tracer = Tracer()
    tracer.install()
    try:
        run_pass(problems, tally, tracer)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print("missing hooks (their metrics read 0): " + " ".join(tracer.missing))
    wall, scaled = tally.wall[untraced_n:], tally.scaled[untraced_n:]
    metrics = tracer.metrics(scale=sum(scaled) / sum(wall), solve_s=sum(scaled))
    untraced_p50 = statistics.median(tally.scaled[:untraced_n])
    overhead = statistics.median(scaled) / untraced_p50 - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, tally


if __name__ == "__main__":
    sys.exit(main())
