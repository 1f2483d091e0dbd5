"""Compare the CLI runs of two psde source trees byte for byte.

Usage::

    python tools/byte_identity.py PARENT_SRC CHANGE_SRC [--seeds 3 5]

Each source tree is a directory holding the ``psde`` package (a checkout's
``src``).  Every subcommand runs as ``python -m psde.cli COMMAND --config
config.json --out out --quiet`` with ``PYTHONPATH`` set to one tree, in a
fresh working directory, on the config of each benchmark workload of
``perfbench/workloads.py`` at each seed and on ``demos/config.example.json``.
The two trees' runs of one invocation go side by side, one process each,
single-threaded (the workloads' ``THREAD_ENV``).  For each invocation it
compares the exit code, stdout, stderr (with the tree's path written as
``<src>``) and the bytes of every file under ``out``, prints what differs,
and exits 1 if anything does, else 0.

Those configs all succeed, so a fixed list of failing (config, command)
cases (``FAILING``) runs after them and is compared the same way: exit
code 3 with ``SimulationAborted``, ``NoConvergenceError`` or
``FloatingPointError``, and 2 with ``REJECT_RHO``.  Some of them also
print numpy's overflow warnings, which name a source line, so a change that
moves such a line differs there.  Argparse's usage errors are left out:
their text is argparse's, not psde's, and a change to the parser's options
rewrites it on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import THREAD_ENV, WORKLOADS  # noqa: E402

COMMANDS = ("validate", "simulate", "constants", "density", "malliavin", "picard-compare", "lamperti-check")
EXAMPLE_CONFIG = ROOT / "demos" / "config.example.json"


def _failing_config(model: dict, alpha: float, beta: float, x0: float, **sim) -> dict:
    return {
        "model": model,
        "params": {"alpha": alpha, "beta": beta},
        "sim": {"x0": x0, "horizon": 1.0, "n_steps": 100, "seed": 7, **sim},
        "analysis": {"n_paths": 10, "bin_widths": [0.1]},
    }


def _constants(b: float, sigma: float) -> dict:
    return {"b": {"kind": "constant", "value": b}, "sigma": {"kind": "constant", "value": sigma}}


# (name, config, commands) of runs that fail, with the error each command raises
FAILING = [
    # SimulationAborted at step 80: the path leaves the floats
    ("overflow", _failing_config(_constants(1e308, 1.0), 0.0, 0.0, 1e308),
     ("simulate", "density", "malliavin", "picard-compare")),
    # NoConvergenceError: one Picard pass per window cannot reach the tolerance
    ("picard-one-pass", _failing_config({"preset": "smooth-generic"}, 0.4, 0.3, 0.5, scheme="picard",
                                        picard_outer_iters=1), ("simulate", "density", "picard-compare")),
    # REJECT_RHO: rho = 1
    ("rho-one", _failing_config({"preset": "unit"}, 0.5, 0.5, 0.0), ("validate",)),
    # FloatingPointError: the H-norm of sigma = 1e200 is not a float
    ("h-norm-overflow", _failing_config(_constants(0.0, 1e200), 0.3, 0.0, 0.0), ("malliavin",)),
]


def cases(seeds: list[int]) -> list[tuple[str, dict, tuple[str, ...]]]:
    """(name, config, commands) of every workload at every seed and of the
    example config, each with every command, then the failing cases."""
    found = [(f"{name}@{seed}", w.config(seed)) for name, w in WORKLOADS.items() for seed in seeds]
    found.append(("config.example", json.loads(EXAMPLE_CONFIG.read_text())))
    return [(name, config, COMMANDS) for name, config in found] + FAILING


def start(src: Path, config: dict, command: str, work: Path) -> subprocess.Popen:
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(config))
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "psde.cli", command, "--config", "config.json", "--out", "out", "--quiet"]
    return subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def outcome(src: Path, proc: subprocess.Popen, work: Path) -> dict:
    """Exit code, normalised stdout and stderr, and the bytes of each output file."""
    stdout, stderr = proc.communicate()
    prefix = str(src).encode()
    out = work / "out"
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return {
        "exit code": proc.returncode,
        "stdout": stdout.replace(prefix, b"<src>"),
        "stderr": stderr.replace(prefix, b"<src>"),
        "files": files,
    }


def differences(parent: dict, change: dict) -> list[str]:
    found = [key for key in ("exit code", "stdout", "stderr") if parent[key] != change[key]]
    for name in sorted(set(parent["files"]) | set(change["files"])):
        if parent["files"].get(name) != change["files"].get(name):
            found.append(f"file {name}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 5], help="workload seeds (default 3 5)")
    args = parser.parse_args(argv)
    trees = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in trees:
        if not (src / "psde" / "__init__.py").is_file():
            parser.error(f"{src} holds no psde package")
    n_runs = n_diff = 0
    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        for case, config, commands in cases(args.seeds):
            for command in commands:
                began = time.perf_counter()
                works = [Path(tmp, side, case, command) for side in ("parent", "change")]
                procs = [start(src, config, command, work) for src, work in zip(trees, works)]
                parent, change = (outcome(src, p, w) for src, p, w in zip(trees, procs, works))
                found = differences(parent, change)
                n_runs += 1
                n_diff += bool(found)
                status = "DIFFERS: " + ", ".join(found) if found else "same"
                print(
                    f"{case:24} {command:15} exit {parent['exit code']}/{change['exit code']} "
                    f"{len(parent['files'])} files {time.perf_counter() - began:6.1f} s  {status}",
                    flush=True,
                )
    print(f"{n_runs} invocations, {n_diff} differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
