"""Benchmark of the psde command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in ``workloads.py``.  The seed makes each
workload's config; the program under test is ``src/psde`` of the checkout,
run as ``python -m psde.cli`` with ``PYTHONPATH=src``.  Thread counts are
pinned to 1 (``PSDE_THREADS`` and the BLAS/OpenMP pools).

``--trace 0`` (end-to-end run): a closed loop with one client.  One parent
process runs the workload's subcommands one after another, each in a fresh
process, and repeats that sequence until ``--seconds`` is used up (at least
twice).  Before that it times ``psde validate`` on the config several times:
interpreter start, imports, schema validation and model build, which every
invocation pays.  Metrics, each a median over the repetitions:

* ``wall_s``: wall time of one repetition's invocations;
* ``setup_s``: wall time of ``psde validate`` in a fresh process;
* ``path_steps_per_s``: n_paths * n_steps of the workload's main ensemble
  over the wall time of the subcommand that simulates it (``density``, or
  ``malliavin`` positivity on ``pathwise``);
* ``peak_rss_mb``: the highest peak resident memory of a repetition's
  invocations, from ``os.wait4`` of each child (not RUSAGE_CHILDREN, a
  high-water mark over every child reaped so far).

Wall times are speed-normalised.  On a shared 2-vCPU host the same work
runs 1.4-2x slower for stretches of seconds to minutes, which moved raw
medians by up to 28% between runs.  So the parent and its children are
pinned to one CPU, a fixed calibration kernel is timed between consecutive
invocations on that CPU, and each invocation's wall time is scaled by
CALIBRATION_REFERENCE_S over the mean of the calibrations before and after
it: the wall time the invocation would take at the reference speed.  Raw
wall times and the speed factor are printed above the result line, with the
per-subcommand times and ``fail_ratio``.

``--trace 1`` (layer run): the same workload replayed in this process
through ``psde.cli.main``, alternating untraced and traced repetitions; the
tracer (``tracer.py``) wraps the package's public functions from outside.
It reports per-layer counts and times, each layer's self time, and the
tracing overhead against the untraced repetitions; spans are written to
``.perfbench/traces/`` at the end.  End-to-end numbers come only from
``--trace 0``.

Every invocation must exit 0 and pass the invariant checks of
``workloads.py``, and every repetition must write the same bytes as the
first; each failed invocation counts in ``failed``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from workloads import (
    N_STEPS,
    THREAD_ENV,
    WORKLOADS,
    Workload,
    check_outputs,
    check_picard_matches_per_step,
    output_digests,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_REPETITIONS = 2
TRACE_STARTUP_REPEATS = 3
# calibration kernel time at the reference speed (its fast-state time on the
# 2-vCPU Xeon box the baseline was measured on)
CALIBRATION_REFERENCE_S = 0.014
CALIBRATION_REPEATS = 5


@dataclass
class Invocation:
    wall_s: float
    speed: float  # CALIBRATION_REFERENCE_S over the calibration time around it
    peak_rss_mb: float

    @property
    def normalised_s(self) -> float:
        return self.wall_s * self.speed


class SpeedProbe:
    """Times a fixed kernel as a measure of the CPU's current speed: the mix
    psde runs, interpreter loops, small-array numpy and strided column
    updates of a matrix larger than L2 (as in the Malliavin field)."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 4000)
        self._field = np.zeros((1001, 1001))
        self.last = self.measure()

    def _kernel(self) -> float:
        np, x, field = self._np, self._x, self._field
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(100):
            np.maximum.accumulate(np.sin(x) * 0.5 + x)
        for k in range(0, 1000, 4):
            field[: k + 1, k + 1] = field[: k + 1, k] * 0.5 + 1.0
        return time.perf_counter() - start

    def measure(self) -> float:
        return min(self._kernel() for _ in range(CALIBRATION_REPEATS))

    def speed_since_last(self) -> float:
        """Speed factor for the work done since the previous measurement."""
        before, self.last = self.last, self.measure()
        return CALIBRATION_REFERENCE_S / (0.5 * (before + self.last))


class Run:
    """One benchmark run: the workload's config and the failure tally."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config(seed), indent=2))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict = {}
        self.reference: dict[str, dict[str, str]] = {}  # command -> digests of its first run
        self.probe = SpeedProbe()

    def argv(self, command: str, out_dir: Path) -> list[str]:
        return [command, "--config", str(self.config_path), "--out", str(out_dir), "--quiet"]

    def spawn(self, command: str, out_dir: Path) -> Invocation:
        """One CLI invocation in a fresh process, timed from spawn to reap."""
        out_dir.mkdir(parents=True)
        with open(out_dir.parent / f"{out_dir.name}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "psde.cli", *self.argv(command, out_dir)],
                env=self.env,
                cwd=self.work,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        speed = self.probe.speed_since_last()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.verify(command, out_dir, proc.returncode)
        return Invocation(wall, speed, usage.ru_maxrss / 1024.0)

    def verify(self, command: str, out_dir: Path, code: int) -> None:
        """Exit code, then invariant checks on the first output of each
        command and byte identity with it for every later one."""
        self.attempted += 1
        if code != 0:
            stderr = out_dir.parent / f"{out_dir.name}.stderr"
            detail = stderr.read_text().strip()[-300:] if stderr.exists() else ""
            self.failures.append(f"{command}: exit code {code} {detail}")
            return
        digests = output_digests(out_dir)
        if command not in self.reference:
            self.reference[command] = digests
            problems = check_outputs(self.workload, command, out_dir, self.notes)
            if command == "density" and self.workload.scheme == "picard" and not problems:
                problems = check_picard_matches_per_step(self.workload, self.seed, out_dir, SRC)
        elif digests != self.reference[command]:
            differing = sorted(k for k in digests.keys() | self.reference[command].keys()
                               if digests.get(k) != self.reference[command].get(k))
            problems = [f"{command}: rerun wrote different bytes in {differing}"]
        else:
            problems = []
            shutil.rmtree(out_dir)
        if problems:
            self.failures.append("; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def _timing_line(name: str, values: list[float], unit: str = "s") -> str:
    return (f"  {name:<22} {median(values):.6g} {unit}  median of {len(values)}"
            f" (min {min(values):.6g}, max {max(values):.6g})")


def run_end_to_end(run: Run, seconds: float) -> dict[str, float]:
    w = run.workload
    setup = [run.spawn("validate", run.work / f"setup{k}") for k in range(SETUP_REPEATS)]
    repetitions: list[dict[str, Invocation]] = []
    begin = time.perf_counter()
    while True:
        rep_dir = run.work / f"rep{len(repetitions)}"
        repetitions.append({c: run.spawn(c, rep_dir / c) for c in w.commands})
        elapsed = time.perf_counter() - begin
        if len(repetitions) >= MIN_REPETITIONS and elapsed * (1 + 1 / len(repetitions)) > seconds:
            break
    walls = [sum(inv.normalised_s for inv in rep.values()) for rep in repetitions]
    per_command = {c: [rep[c].normalised_s for rep in repetitions] for c in w.commands}
    rss = [max(inv.peak_rss_mb for inv in rep.values()) for rep in repetitions]
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(inv.normalised_s for inv in setup),
        "path_steps_per_s": w.n_paths * N_STEPS / median(per_command[w.throughput_command]),
        "peak_rss_mb": median(rss),
    }
    invocations = setup + [inv for rep in repetitions for inv in rep.values()]
    print(f"closed loop, 1 client: {len(repetitions)} repetitions of {' + '.join(w.commands)}"
          f" in {time.perf_counter() - begin:.1f} s; times below are speed-normalised")
    print(_timing_line("setup_s", [inv.normalised_s for inv in setup]))
    for command, values in per_command.items():
        print(_timing_line(command.replace("-", "_") + "_s", values))
    print(_timing_line("wall_s", walls))
    print(f"  {'path_steps_per_s':<22} {metrics['path_steps_per_s']:.6g} 1/s"
          f"  ({w.n_paths} paths x {N_STEPS} steps / median {w.throughput_command} time)")
    print(_timing_line("peak_rss_mb", rss, "MB"))
    print(_timing_line("raw wall", [sum(inv.wall_s for inv in rep.values()) for rep in repetitions]))
    print(_timing_line("speed factor", [inv.speed for inv in invocations], "x"))
    return metrics


def run_layers(run: Run, seconds: float) -> dict[str, float]:
    w = run.workload
    startup = median([run.spawn("validate", run.work / f"startup{k}").wall_s
                       for k in range(TRACE_STARTUP_REPEATS)])
    subprocess_wall = sum(run.spawn(c, run.work / "subprocess" / c).wall_s for c in w.commands)

    sys.path.insert(0, str(SRC))
    import psde.cli as cli
    from tracer import Tracer

    def replay(label: str, tracer: Tracer | None) -> float:
        """The workload's commands through ``cli.main``; returns their summed time."""
        total = 0.0
        for command in w.commands:
            out_dir = run.work / label / command
            argv = run.argv(command, out_dir)
            start = time.perf_counter()
            try:
                code = tracer.invoke(cli.main, argv) if tracer else cli.main(argv)
            except Exception as exc:  # a crash inside the package is a failed invocation
                code = f"{type(exc).__name__}: {exc}"
            total += time.perf_counter() - start
            run.verify(command, out_dir, code)
        return total

    def traced_replay() -> None:
        tracer = Tracer(run_id=f"{w.name}-seed{run.seed}-rep{len(traced)}")
        undo = tracer.patch()
        try:
            traced.append(replay(f"traced{len(traced)}", tracer))
        finally:
            Tracer.unpatch(undo)
        layer_metrics.append(tracer.metrics())
        spans.extend(tracer.spans)
        missing.update(tracer.missing)

    def untraced_replay() -> None:
        untraced.append(replay(f"untraced{len(untraced)}", None))

    replay("warmup", None)
    untraced, traced, layer_metrics, spans, missing = [], [], [], [], set()
    begin = time.perf_counter()
    while True:
        # alternate which side goes first, so neither always runs on a fresh heap
        pair = (traced_replay, untraced_replay) if len(traced) % 2 == 0 else (untraced_replay, traced_replay)
        for step in pair:
            step()
        elapsed = time.perf_counter() - begin
        if elapsed * (1 + 1 / len(traced)) > seconds:
            break

    metrics = {name: median([m[name] for m in layer_metrics]) for name in layer_metrics[0]}
    metrics["trace.untraced_inprocess_s"] = median(untraced)
    metrics["trace.traced_inprocess_s"] = median(traced)
    metrics["trace.overhead_ratio"] = median(traced) / median(untraced) - 1.0
    metrics["trace.subprocess_wall_s"] = subprocess_wall
    metrics["trace.startup_s"] = startup
    metrics["trace.accounted_ratio"] = metrics["trace.layers_sum_s"] / (
        subprocess_wall - len(w.commands) * startup
    )
    trace_path = write_spans(spans, w.name, run.seed)

    print(f"layer trace: {len(traced)} traced and {len(untraced)} untraced in-process repetitions"
          f" of {' + '.join(w.commands)}; spans in {trace_path.relative_to(ROOT)}")
    if missing:
        print(f"  not found in the package, so not traced: {', '.join(sorted(missing))}")
    for name in sorted(n for n in metrics if n.endswith(".self_s")):
        print(f"  {name:<28} {metrics[name]:.6g} s")
    print(f"  layers sum {metrics['trace.layers_sum_s']:.6g} s against untraced subprocess wall"
          f" {subprocess_wall:.6g} s less {len(w.commands)} x startup {startup:.6g} s:"
          f" accounted ratio {metrics['trace.accounted_ratio']:.4f},"
          f" tracing overhead {100 * metrics['trace.overhead_ratio']:.1f}%")
    return metrics


def write_spans(spans: list[tuple], workload: str, seed: int) -> Path:
    out = ROOT / ".perfbench" / "traces" / f"{workload}-seed{seed}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "parent", "run", "name", "start", "end")
    with open(out, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "psde" / "cli.py").is_file():
        print(f"no psde package under {SRC}: run from the root of a psde checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # before numpy is imported here, and inherited by every CLI process
    os.environ.update(THREAD_ENV)
    # one CPU for this process and its children, so the speed probe measures
    # the CPU the invocations run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    w = WORKLOADS[args.workload]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench"))
    try:
        run = Run(w, args.seed, work)
        print(f"psde benchmark: workload {w.name}, seed {args.seed} (sim seed {w.sim_seed(args.seed)}),"
              f" {args.seconds:g} s, trace {args.trace}")
        measured = (run_layers if args.trace else run_end_to_end)(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, value in sorted(run.notes.items()):
        print(f"  recorded, not gated: {key} = {value}")
    print(f"  {'fail_ratio':<22} {run.failed / run.attempted:.6g}  ({run.failed} of {run.attempted} invocations)")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    absent = [m["name"] for m in wanted if m["name"] not in measured]
    if absent:
        print(f"benchmark does not produce {absent}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
