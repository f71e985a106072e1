"""ffvar benchmark: runs one workload for a fixed time and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs in a fresh interpreter (``python -m ffvar.cli ...`` or the
``charsums`` driver) with ``PYTHONPATH=src``, ``FFVAR_CACHE_DIR`` removed,
one BLAS thread and its own empty working directory.  Resources are taken per
child from ``os.wait4``.  Each output is checked against ``golden/``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with times
scaled to a reference machine speed by a calibration run timed before each
iteration (``CALIBRATION_CODE``); ``--trace 1``
alternates untraced iterations with traced ones (``tracer.py``) and prints the
per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checker import Golden, self_test
from workloads import WORKLOADS, Command

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARD_LIMIT_S = 150.0  # stop starting commands after this; the run must end by 180 s
MIN_ITERATIONS = 3
BLAS_THREADS = 1
SETUP_CODE = "import ffvar.cli; ffvar.cli.build_parser()"
# A fixed mix of interpreter start-up, numpy import, Python integer and dict
# work and numpy array work, independent of ffvar.  The machine's speed drifts
# by up to 1.5-2x over tens of seconds, and the program's times follow it, so
# each run times this code between iterations and scales its times to the
# speed at which it takes REFERENCE_CALIBRATION_S.  Changing either value
# changes every time metric.
CALIBRATION_CODE = """
import numpy as np
total = 0
for i in range(300_000):
    total += i * i % 7
counts = {}
for i in range(100_000):
    counts[i % 4099] = counts.get(i % 4099, 0) + i
a = np.arange(100_000, dtype=np.int64)
for _ in range(20):
    a = (a * 31 + 7) % 1_000_003
"""
REFERENCE_CALIBRATION_S = 0.25
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer metric suffix -> tracer field; "s" is inclusive time
SPAN_STATS = {"self_s": "self_s", "s": "total_s", "calls": "calls", "items": "items",
              "bytes": "bytes"}


class BenchmarkError(Exception):
    """The run cannot produce a result."""


@dataclass
class Iteration:
    """One pass over a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    units: int = 0
    spans: list[dict] = field(default_factory=list)  # tracer reports, traced runs only


class Runner:
    """Runs commands hermetically and checks their outputs."""

    def __init__(self, work: Path, golden: Golden | None, deadline: float):
        self.work = work
        self.golden = golden
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.max_rel_gap = 0.0
        self._runs = 0
        env = {k: v for k, v in os.environ.items()
               if k not in ("FFVAR_CACHE_DIR", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
        self.env = env

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.deadline

    def _spawn(self, argv: list[str], rundir: Path):
        """(wall seconds, rusage, exit code, stdout, stderr) of one child."""
        self.env["TMPDIR"] = str(rundir)
        with open(rundir / "stdout", "wb") as out, open(rundir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=rundir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline + 20 - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage, proc.returncode,
                (rundir / "stdout").read_text(), (rundir / "stderr").read_text())

    def _rundir(self) -> Path:
        self._runs += 1
        rundir = self.work / f"run{self._runs}"
        rundir.mkdir()
        return rundir

    def time_code(self, what: str, code: str) -> float:
        """Wall time of a fresh interpreter running `code`.  A failure fails
        the whole run."""
        rundir = self._rundir()
        try:
            wall, _, rc, _, err = self._spawn([sys.executable, "-c", code], rundir)
        finally:
            shutil.rmtree(rundir)
        if rc:
            raise BenchmarkError(f"{what} exited with code {rc}: {err.strip()[-200:]}")
        return wall

    def setup(self) -> float:
        """Wall time of a fresh interpreter importing the CLI and building its parser."""
        return self.time_code("set-up", SETUP_CODE)

    def calibrate(self) -> float:
        return self.time_code("calibration", CALIBRATION_CODE)

    def execute(self, cmd: Command, traced: bool = False):
        """(wall seconds, rusage, exit code, stdout, stderr, tracer report or
        None) of one command in a fresh working directory."""
        rundir = self._rundir()
        try:
            args = list(cmd.args)
            if cmd.kind == "verify":
                args += ["--cache-dir", str(rundir / "cache")]
            if traced:
                program = "charsums" if cmd.kind == "charsums" else "ffvar"
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(rundir / "trace.json"),
                        program, *args]
            elif cmd.kind == "charsums":
                argv = [sys.executable, str(BENCH_DIR / "charsums.py"), *args]
            else:
                argv = [sys.executable, "-m", "ffvar.cli", *args]
            result = self._spawn(argv, rundir)
            trace = rundir / "trace.json"
            report = json.loads(trace.read_text()) if traced and trace.exists() else None
        finally:
            shutil.rmtree(rundir)
        return (*result, report)

    def command(self, cmd: Command, it: Iteration, traced: bool) -> None:
        wall, usage, rc, out, err, report = self.execute(cmd, traced)
        reason = self.golden.check(cmd, rc, out)
        if reason is not None and err.strip():
            reason += f" (stderr: {err.strip().splitlines()[-1][:200]})"
        self._record(cmd.key, reason)
        if report is not None:
            it.spans.append(report)
        it.wall_s += wall
        it.cpu_s += usage.ru_utime + usage.ru_stime
        it.peak_rss_mb = max(it.peak_rss_mb, usage.ru_maxrss / 1024)  # Linux: KiB
        if reason is None:
            it.units += _units(cmd, out)
            if cmd.kind == "variance":
                self.max_rel_gap = max(self.max_rel_gap, _max_rel_gap(out))

    def iteration(self, commands: list[Command], traced: bool = False) -> Iteration | None:
        """One pass over the commands, or None when the run's time limit cut it
        short."""
        it = Iteration()
        for cmd in commands:
            if self.out_of_time():
                return None
            self.command(cmd, it, traced)
        return it

    def _record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"perfbench: FAILED {what}: {reason}", file=sys.stderr)


def _units(cmd: Command, out: str) -> int:
    """Work units in a correct output: variance rows, passed suites, or
    (Q, N) reports."""
    lines = out.splitlines()
    if cmd.kind == "variance":
        return len(lines) - 1
    return len(lines)


def _max_rel_gap(csv: str) -> float:
    lines = csv.splitlines()
    header = lines[0].split(",")
    direct, gap = header.index("variance_direct"), header.index("abs_gap")
    worst = 0.0
    for line in lines[1:]:
        cells = line.split(",")
        if cells[gap]:
            worst = max(worst, float(cells[gap]) / max(1.0, abs(float(cells[direct]))))
    return worst


def _keep_going(cycles: list[float], started: float, seconds: float, runner: Runner,
                minimum: int) -> bool:
    """Whether to start another cycle, given the durations of those done."""
    if runner.out_of_time():
        return False
    if len(cycles) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(cycles) <= seconds


def end_to_end(runner: Runner, commands: list[Command], seconds: float, names: list[str]):
    runner.setup()  # warm-up: bytecode compilation and file cache
    runner.calibrate()
    cycles: list[tuple[float, float, Iteration]] = []  # (set-up, calibration, iteration)
    durations: list[float] = []
    started = time.perf_counter()
    while _keep_going(durations, started, seconds, runner, MIN_ITERATIONS):
        cycle_start = time.perf_counter()
        setup, calibration = runner.setup(), runner.calibrate()
        it = runner.iteration(commands)
        if it is None:
            break
        cycles.append((setup, calibration, it))
        durations.append(time.perf_counter() - cycle_start)
    if not cycles:
        raise BenchmarkError(f"no iteration finished within {HARD_LIMIT_S:.0f} s")

    def scaled(times: list[float]) -> float:
        """Median of one time per cycle, each divided by its own cycle's
        calibration time and given in reference seconds."""
        return statistics.median(
            t * REFERENCE_CALIBRATION_S / cal for t, (_, cal, _) in zip(times, cycles)
        )

    walls = [it.wall_s for _, _, it in cycles]
    values = {
        "wall_s": scaled(walls),
        "cpu_s": scaled([it.cpu_s for _, _, it in cycles]),
        "peak_rss_mb": statistics.median(it.peak_rss_mb for _, _, it in cycles),
        "work_per_s": statistics.median(
            it.units * cal / (it.wall_s * REFERENCE_CALIBRATION_S) for _, cal, it in cycles
        ),
        "setup_s": scaled([setup for setup, _, _ in cycles]),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    info = (f"{len(cycles)} iterations, measured wall median {statistics.median(walls):.3f} s "
            f"min {min(walls):.3f} s max {max(walls):.3f} s; set-up median "
            f"{statistics.median(s for s, _, _ in cycles):.3f} s; calibration median "
            f"{statistics.median(c for _, c, _ in cycles):.3f} s")
    return {name: values[name] for name in names}, info


def traced(runner: Runner, commands: list[Command], seconds: float, names: list[str],
           trace_file: Path):
    runner.setup()  # warm-up
    plain: list[Iteration] = []
    traced_its: list[Iteration] = []
    started = time.perf_counter()
    pairs: list[float] = []
    while _keep_going(pairs, started, seconds, runner, 1):
        pair = runner.iteration(commands), runner.iteration(commands, traced=True)
        if None in pair:
            break
        plain.append(pair[0])
        traced_its.append(pair[1])
        pairs.append(pair[0].wall_s + pair[1].wall_s)
    if not pairs:
        raise BenchmarkError(f"no iteration pair finished within {HARD_LIMIT_S:.0f} s")
    n = len(traced_its)
    spans: dict[str, dict[str, float]] = {}
    covered = phi_total = 0.0
    for it in traced_its:
        for report in it.spans:
            covered += report["covered_s"]
            phi_total += report["phi_total"]
            for label, stats in report["spans"].items():
                acc = spans.setdefault(label, dict.fromkeys(stats, 0))
                for key, value in stats.items():
                    acc[key] += value
    traced_wall = sum(i.wall_s for i in traced_its)
    special = {
        "characters.phi_total": phi_total / n,
        "variance.max_rel_gap": runner.max_rel_gap,
        "trace.coverage": covered / traced_wall,
        "trace.overhead": statistics.median(i.wall_s for i in traced_its)
        / statistics.median(i.wall_s for i in plain) - 1.0,
    }

    def value(name: str) -> float:
        if name in special:
            return special[name]
        label, stat = name.rsplit(".", 1)
        got = spans.get(label, {})
        if stat == "hit_ratio":
            return got["hits"] / got["calls"] if got.get("calls") else 0.0
        key = SPAN_STATS[stat]  # a stat name BENCHMARK.json may use
        return got.get(key, 0) / n

    trace_file.write_text(json.dumps({"traced_iterations": n, "spans": spans}, indent=1))
    top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    info = (f"{len(plain)} untraced + {n} traced iterations; top self time per iteration: "
            + ", ".join(f"{label} {stats['self_s'] / n:.3f} s" for label, stats in top))
    return {name: value(name) for name in names}, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ffvar" / "cli.py").is_file():
        print(f"perfbench: no ffvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = Golden()
    wrong = self_test(golden)
    if wrong:
        print(f"perfbench: checker self-test mishandled {wrong}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = WORKLOADS[args.workload](args.seed)
    runner = Runner(work, golden, started + HARD_LIMIT_S)
    try:
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        names = [m["name"] for m in wanted]
        if args.trace:
            trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
            values, info = traced(runner, commands, args.seconds, names, trace_file)
        else:
            values, info = end_to_end(runner, commands, args.seconds, names)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench: {args.workload} seed {args.seed}: {info}")
    print(f"perfbench: nproc {len(os.sched_getaffinity(0))}, numpy {metadata.version('numpy')}, "
          f"BLAS threads {BLAS_THREADS}, python {sys.version.split()[0]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
