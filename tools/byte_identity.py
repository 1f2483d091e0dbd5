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


def cases(seeds: list[int]) -> list[tuple[str, dict]]:
    """(name, config) of every workload at every seed, then the example config."""
    found = [(f"{name}@{seed}", w.config(seed)) for name, w in WORKLOADS.items() for seed in seeds]
    return found + [("config.example", json.loads(EXAMPLE_CONFIG.read_text()))]


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
        for case, config in cases(args.seeds):
            for command in COMMANDS:
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
