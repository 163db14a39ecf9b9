"""Record the benchmark's end-to-end metrics in one BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_21.json [--root DIR] [--against REV]

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

With --against REV the record is paired: the files of commit REV of the
same repository are extracted into a temporary directory (git archive,
local git only, so nothing is left in the repository to prune if the
recording is killed), and each of ten pairs runs every case on both
trees, the tree that runs first alternating from pair to pair.  The
record then also holds REV's runs under "against" and a "paired"
section (see paired).
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
import tempfile
from pathlib import Path

WORKLOADS = ("four-facet", "wide", "atlas")
SEEDS = (0, 7919)
RUNS = 5
# pairs per case of a paired record: the least count the claim rule reads
PAIRS = 10
SECONDS = 5.0
# an atlas run is in the slow mode when its pass_s exceeds the fastest
# atlas pass_s of its tree and seed by more than this factor; a process
# runs the atlas pass in about 0.15 s or about 0.22 s, for reasons outside
# the call graph
MODE_SPLIT = 1.25
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


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def modes(pass_s: list) -> list:
    """Each atlas run's mode, "fast" or "slow", by MODE_SPLIT."""
    fastest = min(pass_s)
    return ["slow" if value > MODE_SPLIT * fastest else "fast" for value in pass_s]


def paired(change: list, against: list, first: list, better: dict, workload: str) -> dict:
    """The paired summary of one case.

    change and against are the two trees' runs in pair order, each a
    (stdout text, CPU seconds) pair, first names the tree that ran first
    in each pair, and better maps each metric to "lower" or "higher".
    Per metric, cpu_s included: the ratio change / against of each pair,
    their median and quartiles, the win count (pairs where the change is
    strictly better; a tie counts for neither tree) and each tree's own
    median and quartiles, so the claim rule can set the gap between the
    medians against the spread of the parent's runs.  For atlas, each
    run's mode per tree.  RunFailed on a run parse_run refuses, or on a
    metric of the parent that reads 0.
    """
    values = {"change": {}, "against": {}}
    for tree, runs in (("change", change), ("against", against)):
        for text, cpu_s in runs:
            for name, metric in {**parse_run(text)[2], "cpu_s": {"value": cpu_s}}.items():
                values[tree].setdefault(name, []).append(metric["value"])
    metrics = {}
    for name, got in values["change"].items():
        base = values["against"][name]
        if not all(base):
            raise RunFailed(f"{name} of the parent reads 0, so it has no ratio")
        sign = 1 if better[name] == "lower" else -1
        ratios = [c / a for c, a in zip(got, base)]
        metrics[name] = {
            "better": better[name],
            "ratios": ratios,
            **_quartiles(ratios),
            "wins": sum(sign * (a - c) > 0 for c, a in zip(got, base)),
            "change": _quartiles(got),
            "against": _quartiles(base),
        }
    out = {"pairs": len(first), "first": first, "metrics": metrics}
    if workload == "atlas":
        out["modes"] = {tree: modes(values[tree]["pass_s"]) for tree in values}
    return out


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


def _checkout(root: Path, rev: str, dest: Path) -> str:
    """Extract the files of commit rev of the repository at root into
    dest, and return the commit's id."""
    commit = _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    archive = _git(root, "archive", "--format=tar", commit)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _run(root: Path, workload: str, seed: int) -> tuple:
    """(stdout, CPU seconds) of one run.py --trace 0 in the checkout at
    root; RunFailed unless it exits 0 with output parse_run accepts."""
    cpu_before = _children_cpu_s()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    cpu_s = _children_cpu_s() - cpu_before
    if done.returncode != 0:
        raise RunFailed(f"run.py exited {done.returncode}: {done.stderr.strip()}")
    parse_run(done.stdout)  # stop at the first bad run
    return done.stdout, cpu_s


def firsts(pairs: int) -> list:
    """The tree that runs first in each pair: the change, then the parent,
    and so on in turn."""
    return ["change" if i % 2 == 0 else "against" for i in range(pairs)]


def _record_paired(root: Path, against: Path) -> dict:
    """The runs and the paired sections of a record against the tree at
    against; RunFailed on the first bad run."""
    cases = [(w, s) for w in WORKLOADS for s in SEEDS]
    outputs = {"change": {case: [] for case in cases}, "against": {case: [] for case in cases}}
    order = firsts(PAIRS)
    for i, first in enumerate(order):
        for workload, seed in cases:
            for tree in (first, "against" if first == "change" else "change"):
                try:
                    run = _run(root if tree == "change" else against, workload, seed)
                except RunFailed as err:
                    raise RunFailed(f"{tree} {workload} seed {seed}: {err}") from err
                outputs[tree][workload, seed].append(run)
                print(f"pair {i + 1}/{PAIRS}: {tree} {workload} seed {seed}", file=sys.stderr)
    better = {m["name"]: m["better"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]}
    better["cpu_s"] = "lower"
    change, base = summarize(outputs["change"]), summarize(outputs["against"])
    if (change["python"], change["cpus"]) != (base["python"], base["cpus"]):
        raise RunFailed("the two trees' runs disagree on python and CPU count")
    pairs: dict = {}
    for workload, seed in cases:
        pairs.setdefault(workload, {})[str(seed)] = paired(
            outputs["change"][workload, seed], outputs["against"][workload, seed], order, better, workload
        )
    return {**change, "against": {"workloads": base["workloads"]}, "paired": pairs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--against", metavar="REV", help="a commit to pair every run with")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    try:
        tree = _tree(root)
        if args.against:
            with tempfile.TemporaryDirectory(prefix="bench_against_") as scratch:
                commit = _checkout(root, args.against, Path(scratch))
                record = _record_paired(root, Path(scratch))
            record["against"]["commit"] = commit
            record = {**tree, "runs": PAIRS, "seconds": SECONDS, **record}
        else:
            outputs: dict = {(w, s): [] for w in WORKLOADS for s in SEEDS}
            for run in range(RUNS):
                for workload, seed in outputs:
                    try:
                        outputs[workload, seed].append(_run(root, workload, seed))
                    except RunFailed as err:
                        raise RunFailed(f"{workload} seed {seed}: {err}") from err
                    print(f"run {run + 1}/{RUNS}: {workload} seed {seed}", file=sys.stderr)
            record = {**tree, "runs": RUNS, "seconds": SECONDS, **summarize(outputs)}
    except (RunFailed, subprocess.CalledProcessError) as err:
        print(f"bench_record: {err}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
