"""shearfield benchmark: seeded workloads through the real CLI.

    python3 bench/run.py --workload grid --seed 1 --seconds 28 --trace 0

Run from the repository root; the package is imported from `src/` with
`PYTHONPATH=src`, nothing is installed.  Every job runs sequentially, one
process at a time.

--trace 0 measures the end-to-end metrics:
  setup_s       median time for a fresh interpreter to import shearfield.cli
  wall_s        time of one pass over the job list, each job a fresh CLI
                process (start and import included): the sum of the jobs'
                median times
  compute_s     the same through cli.run in one warm process
  success_rate  share of attempted jobs that passed every check
  peak_rss_mb   largest max-RSS of any fresh job process (os.wait4)
The three times are scaled to a reference machine speed: each job run or
probe is multiplied by (CALIBRATION_REF_S / k) ** CALIBRATION_ELASTICITY,
where k is the median time of the calibration_kernel runs within NEAR_S of
it, timed throughout the same window (see Speed).  The unscaled medians
are printed as "raw_s".
--trace 1 runs the same jobs in process, untraced and under the boundary
tracer (tracer.py), and reports the per-layer metrics instead (unscaled).

The measured window of --seconds is shared between the kinds of run
(calibration, set-up probes, fresh-process jobs, in-process jobs),
interleaved job by job (see interleave).  An untimed warm-up pass per
worker comes before it.  The run pins itself and its children to one CPU.
The last stdout line is the JSON result; the line before it holds the
environment, pass counts, unscaled times, per-job medians and failure
reasons.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks            # noqa: E402
import tracer            # noqa: E402
import workloads         # noqa: E402

LAUNCH = "import sys; from shearfield.cli import run; sys.exit(run(sys.argv[1:]))"
IMPORTTIME_PROBES = 3
JOB_TIMEOUT_S = 120.0
# share of the window each kind of run gets; the machine's speed drifts
# over seconds, so every kind is spread over the whole window
SHARES = {0: {"calibrate": 0.1, "setup": 0.15, "wall": 0.45, "compute": 0.3},
          1: {"plain": 0.4, "traced": 0.6}}
# A calibration_kernel time on the machine the baseline was taken on (its
# runs there took 0.02 s to 0.045 s as the machine drifted).  It only fixes
# the scale of the reported times; never change it.
CALIBRATION_REF_S = 0.04
NEAR_S = 3.0    # calibration samples this close to a timing scale it
# How far the program's times move, in log, when the kernel's move: the
# least-squares slope of log job time on log kernel time (same job, kernel
# runs within NEAR_S), 0.54 to 0.63 for set-up probes, fresh jobs and
# in-process jobs over 30 runs on the baseline machine.  The kernel swings
# about twice as far as the program, so scaling by its full ratio
# (exponent 1) would overcorrect.  Like CALIBRATION_REF_S, never change it.
CALIBRATION_ELASTICITY = 0.55


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_fresh(cmd, scratch: Path, timeout=JOB_TIMEOUT_S):
    """Run cmd as a fresh process: (seconds, rc, stdout, stderr, maxrss KiB)."""
    with open(scratch / "stdout", "w+") as out, \
            open(scratch / "stderr", "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:           # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return seconds, proc.returncode, out.read(), err.read(), usage.ru_maxrss


@dataclass(frozen=True)
class _Point:
    num: int
    den: int


def calibration_kernel() -> float:
    """Time a fixed pure-Python workload of the kind the package does:
    exact rational arithmetic, frozen dataclasses as dictionary keys,
    integer gcds and float division."""
    t0 = perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 6000):
        acc += Fraction(i % 17, i % 13 + 1)
        p = _Point(i % 97, i % 89 + 1)
        seen[p] = math.gcd(p.num, p.den) + p.num / p.den
    return perf_counter() - t0


class Speed:
    """Calibration samples over time, and the factor that scales a timing
    to the reference speed from the samples taken around it."""

    def __init__(self):
        self.samples = []           # (perf_counter at the end, seconds)

    def sample(self):
        seconds = calibration_kernel()
        self.samples.append((perf_counter(), seconds))

    def factor(self, start: float, end: float) -> float:
        near = [s for t, s in self.samples
                if start - NEAR_S <= t <= end + NEAR_S]
        if len(near) < 3:
            mid = 0.5 * (start + end)
            near = [s for _, s in sorted(self.samples,
                                         key=lambda ts: abs(ts[0] - mid))[:3]]
        return ((CALIBRATION_REF_S / statistics.median(near))
                ** CALIBRATION_ELASTICITY)


def setup_probe(scratch: Path) -> float:
    seconds, rc, _, err, _ = run_fresh(
        [sys.executable, "-c", "import shearfield.cli"], scratch)
    if rc != 0:
        raise BenchError(f"cannot import shearfield.cli: {err.strip()}")
    return seconds


def importtime_probe(scratch: Path) -> dict:
    """Self import time in seconds, summed per top-level package."""
    _, rc, _, err, _ = run_fresh(
        [sys.executable, "-X", "importtime", "-c", "import shearfield.cli"],
        scratch)
    if rc != 0:
        raise BenchError("cannot import shearfield.cli")
    totals = {"scipy": 0.0, "numpy": 0.0, "shearfield": 0.0}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue            # the column header
        root = name.strip().split(".")[0]
        if root in totals:
            totals[root] += int(own) / 1e6
    return totals


class Worker:
    """A warm in-process runner (worker.py), traced or not."""

    def __init__(self, traced: bool):
        cmd = [sys.executable, str(BENCH / "worker.py")]
        if traced:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        if not self._read().get("ready"):
            raise BenchError("worker did not start")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise BenchError(f"worker exited early with code "
                             f"{self.proc.returncode}")
        return json.loads(line)

    def run(self, jobs) -> dict:
        self.proc.stdin.write(json.dumps({"jobs": [list(j.argv) for j in jobs]})
                              + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """Bookkeeping of one benchmark run: checks, failures, timings."""

    def __init__(self, workload, reference, seed):
        self.workload, self.reference, self.seed = workload, reference, seed
        self.attempted = 0
        self.failures = []
        self.job_seconds = {}       # (kind, job name) -> [seconds]
        self.job_spans = {}         # (kind, job name) -> [(start, end)]
        self.probes = {}            # kind of probe -> count
        self.raw_seconds = {}       # timings before calibration

    def record(self, kind, job, seconds, span, rc, out, err):
        """Check one job's run; span is when it ran, on perf_counter."""
        self.attempted += 1
        self.job_seconds.setdefault((kind, job.name), []).append(seconds)
        self.job_spans.setdefault((kind, job.name), []).append(span)
        reason = checks.check_job(job, self.workload, self.reference,
                                  self.seed, rc, out, err)
        if reason is not None:
            self.failures.append(f"{kind} {job.name}: {reason}")

    def in_process(self, kind, worker, jobs=None) -> dict:
        """Run `jobs` (by default the whole job list) in the worker."""
        jobs = self.workload.jobs if jobs is None else jobs
        start = perf_counter()
        reply = worker.run(jobs)
        span = (start, perf_counter())
        for i, job in enumerate(jobs):
            self.record(kind, job, reply["seconds"][i], span, reply["rc"][i],
                        reply["out"][i], reply["err"][i])
        return reply

    def pass_time(self, kind, speed: Speed | None = None) -> float:
        """Time of one pass of one kind over the job list: the sum over
        jobs of each job's median time, each run scaled to the reference
        speed when `speed` is given.  A burst of machine noise during one
        job then moves only that job's sample, not a whole pass."""
        total = 0.0
        for job in self.workload.jobs:
            times = self.job_seconds[(kind, job.name)]
            if speed is not None:
                spans = self.job_spans[(kind, job.name)]
                times = [t * speed.factor(*sp) for t, sp in zip(times, spans)]
            total += statistics.median(times)
        return total


def interleave(window: float, shares: dict, steps: dict,
               fillers=()) -> None:
    """Run the steps of each kind until the window is spent.

    steps[kind] is a cycle of calls, taken in turn.  The next call always
    goes to the kind furthest behind its share of the time, so every kind
    samples the whole window and the same stretches of machine time.  A
    call runs again only while its last run still fits in what is left of
    the window; every call runs at least once.  The window ends early once
    only the kinds in `fillers` have a call that fits.
    """
    used = dict.fromkeys(shares, 0.0)
    pos = dict.fromkeys(shares, 0)          # next call of each kind
    cost = {k: [None] * len(steps[k]) for k in shares}  # last run of each call
    start = perf_counter()
    while True:
        left = window - (perf_counter() - start)
        ready = [k for k in shares
                 if cost[k][pos[k]] is None or cost[k][pos[k]] <= left]
        if all(k in fillers for k in ready):
            return
        kind = min(ready, key=lambda k: used[k] / shares[k])
        t0 = perf_counter()
        steps[kind][pos[kind]]()
        dt = perf_counter() - t0
        used[kind] += dt
        cost[kind][pos[kind]] = dt
        pos[kind] = (pos[kind] + 1) % len(steps[kind])


def measure_end_to_end(run: Run, window: float, scratch: Path) -> dict:
    rss = [0]
    worker = Worker(traced=False)
    try:
        # the worker's import and warm-up pass also warm the file cache
        # and the bytecode cache the set-up probes read
        run.in_process("warmup", worker)
        setup, speed = [], Speed()      # setup: (seconds, span)

        def fresh(job):
            start = perf_counter()
            seconds, rc, out, err, maxrss = run_fresh(
                [sys.executable, "-c", LAUNCH, *job.argv], scratch)
            run.record("wall", job, seconds, (start, perf_counter()),
                       rc, out, err)
            rss.append(maxrss)

        def probe():
            start = perf_counter()
            seconds = setup_probe(scratch)
            setup.append((seconds, (start, perf_counter())))

        steps = {"calibrate": [speed.sample],
                 "setup": [probe],
                 "wall": [functools.partial(fresh, j) for j in run.workload.jobs],
                 "compute": [functools.partial(run.in_process, "compute",
                                               worker, (j,))
                             for j in run.workload.jobs]}
        interleave(window, SHARES[0], steps, fillers={"calibrate"})
    finally:
        worker.close()
    run.probes.update(setup=len(setup), calibrate=len(speed.samples))
    run.raw_seconds = {
        "setup_s": statistics.median(t for t, _ in setup),
        "wall_s": run.pass_time("wall"),
        "compute_s": run.pass_time("compute"),
        "calibration_s": statistics.median(t for _, t in speed.samples)}
    # times at the reference speed: the shared machine's speed drifts by
    # over 2x within minutes, and the calibration kernel drifts with it
    return {
        "setup_s": (statistics.median(t * speed.factor(*sp) for t, sp in setup),
                    "s"),
        "wall_s": (run.pass_time("wall", speed), "s"),
        "compute_s": (run.pass_time("compute", speed), "s"),
        "success_rate": (1.0 - len(run.failures) / run.attempted, "ratio"),
        "peak_rss_mb": (max(rss) / 1024.0, "MiB"),
    }


def measure_layers(run: Run, window: float, scratch: Path) -> dict:
    snaps = []
    workers = {"plain": Worker(traced=False)}
    try:
        workers["traced"] = Worker(traced=True)
        for kind, worker in workers.items():
            run.in_process(f"warmup-{kind}", worker)
        probes = [importtime_probe(scratch) for _ in range(IMPORTTIME_PROBES)]

        def traced_pass():
            reply = run.in_process("traced", workers["traced"])
            snaps.append(tracer.layer_metrics(reply["trace"]))

        steps = {"plain": [lambda: run.in_process("plain", workers["plain"])],
                 "traced": [traced_pass]}
        interleave(window, SHARES[1], steps)
    finally:
        for worker in workers.values():
            worker.close()
    plain, traced = run.pass_time("plain"), run.pass_time("traced")
    run.probes["importtime"] = len(probes)
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    # counts repeat exactly from pass to pass; times are medians
    metrics = {name: (statistics.median(s[name] for s in snaps)
                      if units[name] == "s" else snaps[-1][name])
               for name in snaps[-1]}
    for pkg in ("scipy", "numpy", "shearfield"):
        metrics[f"setup.{pkg}_s"] = statistics.median(p[pkg] for p in probes)
    metrics["trace.compute_s"] = traced
    metrics["trace.overhead"] = traced / plain
    return {name: (metrics[name], unit) for name, unit, _ in tracer.PER_LAYER}


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind through the finally blocks: workers and children
    # are stopped and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for this process and every child: migrations between CPUs
    # widen the spread of repeated timings
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "shearfield" / "cli.py").is_file():
        print("bench: no shearfield sources under src/; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    scratch = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        workload = workloads.build(args.workload, args.seed, scratch)
        run = Run(workload, reference, args.seed)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(run, args.seconds, scratch)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    medians = {f"{kind}/{name}": statistics.median(v)
               for (kind, name), v in run.job_seconds.items()}
    passes = {}
    for (kind, _), v in run.job_seconds.items():
        passes[kind] = max(passes.get(kind, 0), len(v))
    passes.update(run.probes)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": environment(),
                      "passes": passes, "raw_s": run.raw_seconds,
                      "job_median_s": medians,
                      "failures": run.failures[:20]}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
