"""Record the benchmark's end-to-end metrics in one BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_21.json [--root DIR]

Runs `perfbench/run.py --trace 0 --seconds 5` five times on each of the
workloads four-facet, wide and atlas at seeds 0 and 7919, taking the cases
in turn so that a drift of the machine's speed spreads over all of them.
It runs the checkout at --root (default: the repository holding this
script) and reads each run's last stdout line, the JSON result, and the
CPU time (user plus system) that the run and the processes it waited for
spent.  Any run that is not correct or has failed requests stops the
recording, and nothing is written.  The file holds, per workload and
seed, every run's value of every end-to-end metric and its cpu_s in run
order, so that a bimodal metric shows its clusters and whether its modes
come from CPU work, and their median, minimum and maximum, with the run
count, the seconds per run, the Python version, the CPU count and the
tree measured (see _tree).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("four-facet", "wide", "atlas")
SEEDS = (0, 7919)
RUNS = 5
SECONDS = 5.0
# what the benchmark runs, so what the tree id covers
CODE_PATHS = ("src", "perfbench", "pyproject.toml")
# run.py's first line names the interpreter and the CPU count of the child
HEADER = re.compile(r"^workload \S+\s+seed \S+\s+python (\S+)\s+cpus (\d+)")


class RunFailed(Exception):
    """A run whose output cannot be recorded."""


def parse_run(text: str) -> tuple:
    """(python version, CPU count, metrics) of one run.py stdout.

    metrics maps each end-to-end metric to its {"value", "unit"}.
    RunFailed when the output has no header or JSON result, or when the
    run is not correct or has failed requests.
    """
    lines = text.strip().splitlines()
    header = HEADER.match(lines[0]) if lines else None
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as err:
        raise RunFailed(f"no JSON result line: {err}") from err
    if header is None or not isinstance(result, dict) or "metrics" not in result:
        raise RunFailed("not the output of perfbench/run.py --trace 0")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(
            f"correct {result.get('correct')}, failed {result.get('failed')}"
            f" of {result.get('attempted')}"
        )
    return header.group(1), int(header.group(2)), result["metrics"]


def summarize(outputs: dict) -> dict:
    """The recorded figures of the runs, keyed (workload, seed), each run a
    (stdout text, CPU seconds) pair.

    Per case and metric, cpu_s included: its unit, each run's value in run
    order, and the median, minimum and maximum over the runs.  Also the
    Python version and CPU count the runs report, which must agree across
    runs.  RunFailed on any run parse_run refuses.
    """
    machines = set()
    workloads: dict = {}
    for (workload, seed), runs in outputs.items():
        values: dict = {}
        units: dict = {"cpu_s": "s"}
        for text, cpu_s in runs:
            python, cpus, metrics = parse_run(text)
            machines.add((python, cpus))
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            values.setdefault("cpu_s", []).append(cpu_s)
        workloads.setdefault(workload, {})[str(seed)] = {
            name: {
                "unit": units[name],
                "values": got,
                "median": statistics.median(got),
                "min": min(got),
                "max": max(got),
            }
            for name, got in values.items()
        }
    if len(machines) != 1:
        raise RunFailed(f"runs disagree on python and CPU count: {sorted(machines)}")
    ((python, cpus),) = machines
    return {"python": python, "cpus": cpus, "workloads": workloads}


def _children_cpu_s() -> float:
    """User plus system seconds of the waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=True).stdout


def _tree(root: Path) -> dict:
    """The measured tree: the checked-out commit, and the sha256 of
    `git diff --binary --full-index <commit> -- src perfbench pyproject.toml`
    when that diff is not empty (else null).  Once the changes are committed
    as C, `git diff --binary --full-index <commit> C -- ...` hashes the same.
    RunFailed on untracked files under those paths, which no diff covers."""
    untracked = _git(root, "ls-files", "--others", "--exclude-standard", "--", *CODE_PATHS)
    if untracked:
        raise RunFailed(f"untracked files in the measured tree: {untracked.decode().split()}")
    commit = _git(root, "rev-parse", "HEAD").decode().strip()
    diff = _git(root, "diff", "--binary", "--full-index", commit, "--", *CODE_PATHS)
    return {"commit": commit, "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    try:
        tree = _tree(root)
    except (RunFailed, subprocess.CalledProcessError) as err:
        print(f"bench_record: {err}", file=sys.stderr)
        return 1
    outputs: dict = {(w, s): [] for w in WORKLOADS for s in SEEDS}
    for run in range(RUNS):
        for workload, seed in outputs:
            cpu_before = _children_cpu_s()
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SECONDS), "--trace", "0"],
                cwd=root, capture_output=True, text=True,
            )
            cpu_s = _children_cpu_s() - cpu_before
            try:
                if done.returncode != 0:
                    raise RunFailed(f"run.py exited {done.returncode}: {done.stderr.strip()}")
                parse_run(done.stdout)  # stop at the first bad run
            except RunFailed as err:
                print(f"bench_record: {workload} seed {seed}: {err}", file=sys.stderr)
                return 1
            outputs[workload, seed].append((done.stdout, cpu_s))
            print(f"run {run + 1}/{RUNS}: {workload} seed {seed}", file=sys.stderr)
    try:
        summary = summarize(outputs)
    except RunFailed as err:
        print(f"bench_record: {err}", file=sys.stderr)
        return 1
    record = {**tree, "runs": RUNS, "seconds": SECONDS, **summary}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
