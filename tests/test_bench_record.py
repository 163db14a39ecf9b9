"""tools/bench_record.py summarizes run.py outputs; no benchmark is started here."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def run_output(setup_s, pass_s, correct=True, failed=0, python="3.11.7", cpus=2):
    """The stdout of one run.py --trace 0, cut to its header and result lines."""
    result = {
        "correct": correct,
        "attempted": 400,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
        },
    }
    return "\n".join([
        f"workload four-facet  seed 0  python {python}  cpus {cpus}  requests 408  "
        "requests sha256 0123456789abcdef",
        "passes 31.00  generate_s 0.05  digest checked",
        f"  setup_s                              {setup_s:.6g} s",
        json.dumps(result),
    ]) + "\n"


def test_median_min_max_per_case_and_metric():
    outputs = {
        ("four-facet", 0): [(run_output(0.010, 0.15), 6.1), (run_output(0.012, 0.14), 6.4),
                            (run_output(0.011, 0.17), 5.9)],
        ("wide", 7919): [(run_output(0.009, 0.04), 5.5), (run_output(0.013, 0.05), 5.3)],
        # a pass time with two modes per process: the run values show both,
        # and the CPU seconds show whether the slow mode is CPU work
        ("atlas", 0): [(run_output(0.010, p), c) for p, c in
                       ((0.151, 6.0), (0.223, 6.1), (0.148, 5.8), (0.219, 6.2), (0.152, 6.0))],
    }
    got = bench_record.summarize(outputs)
    assert got["python"] == "3.11.7" and got["cpus"] == 2
    assert got["workloads"]["four-facet"]["0"] == {
        "setup_s": {"unit": "s", "values": [0.010, 0.012, 0.011],
                    "median": 0.011, "min": 0.010, "max": 0.012},
        "pass_s": {"unit": "s", "values": [0.15, 0.14, 0.17],
                   "median": 0.15, "min": 0.14, "max": 0.17},
        "cpu_s": {"unit": "s", "values": [6.1, 6.4, 5.9],
                  "median": 6.1, "min": 5.9, "max": 6.4},
    }
    assert got["workloads"]["wide"]["7919"]["setup_s"] == {
        "unit": "s", "values": [0.009, 0.013], "median": 0.011, "min": 0.009, "max": 0.013,
    }
    assert got["workloads"]["wide"]["7919"]["cpu_s"] == {
        "unit": "s", "values": [5.5, 5.3], "median": 5.4, "min": 5.3, "max": 5.5,
    }
    assert got["workloads"]["atlas"]["0"]["pass_s"] == {
        "unit": "s", "values": [0.151, 0.223, 0.148, 0.219, 0.152],
        "median": 0.152, "min": 0.148, "max": 0.223,
    }
    assert got["workloads"]["atlas"]["0"]["cpu_s"] == {
        "unit": "s", "values": [6.0, 6.1, 5.8, 6.2, 6.0],
        "median": 6.0, "min": 5.8, "max": 6.2,
    }


@pytest.mark.parametrize("text, message", [
    (run_output(0.01, 0.1, correct=False), "correct False"),
    (run_output(0.01, 0.1, failed=3), "failed 3 of 400"),
    ("workload four-facet  seed 0  python 3.11.7  cpus 2\nTraceback ...\n", "no JSON result"),
    ("", "no JSON result"),
    ('{"correct": true, "failed": 0, "metrics": {}}\n', "not the output of perfbench/run.py"),
], ids=["not-correct", "failed-requests", "crashed", "empty", "no-header"])
def test_a_bad_run_is_refused(text, message):
    outputs = {("atlas", 0): [(run_output(0.01, 0.1), 5.0), (text, 5.0)]}
    with pytest.raises(bench_record.RunFailed, match=message):
        bench_record.summarize(outputs)


def test_runs_on_different_machines_are_refused():
    outputs = {("atlas", 0): [(run_output(0.01, 0.1), 5.0), (run_output(0.01, 0.1, cpus=4), 5.0)]}
    with pytest.raises(bench_record.RunFailed, match="disagree"):
        bench_record.summarize(outputs)


def test_tree_names_the_commit_and_the_uncommitted_diff(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c",
                               "user.email=t@t", *args], check=True, capture_output=True).stdout
    git("init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    git("add", ".")
    git("commit", "-qm", "base")
    base = git("rev-parse", "HEAD").decode().strip()
    assert bench_record._tree(tmp_path) == {"commit": base, "diff_sha256": None}

    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    (tmp_path / "notes.txt").write_text("outside the measured paths\n")
    dirty = bench_record._tree(tmp_path)
    git("commit", "-qam", "change")
    diff = git("diff", "--binary", "--full-index", base, "HEAD", "--", *bench_record.CODE_PATHS)
    assert dirty == {"commit": base, "diff_sha256": hashlib.sha256(diff).hexdigest()}

    (tmp_path / "src" / "new.py").write_text("")
    with pytest.raises(bench_record.RunFailed, match="untracked"):
        bench_record._tree(tmp_path)


def test_pairs_alternate_which_tree_runs_first():
    assert bench_record.firsts(4) == ["change", "against", "change", "against"]
    assert bench_record.PAIRS >= 10


def test_paired_summary():
    better = {"setup_s": "lower", "pass_s": "lower", "cpu_s": "lower"}
    # four pairs: the change wins pass_s in three and ties one, and loses
    # setup_s in one; the parent's atlas runs fall in both modes
    change = [(run_output(0.010, p), c) for p, c in ((0.15, 6.0), (0.13, 5.0), (0.15, 6.6), (0.16, 6.0))]
    against = [(run_output(s, p), c) for s, p, c in
               ((0.010, 0.15, 6.0), (0.008, 0.15, 6.0), (0.010, 0.20, 6.0), (0.010, 0.20, 6.0))]
    first = bench_record.firsts(4)
    got = bench_record.paired(change, against, first, better, "atlas")
    assert got["pairs"] == 4 and got["first"] == first
    assert got["modes"] == {"change": ["fast"] * 4, "against": ["fast", "fast", "slow", "slow"]}
    pass_s = got["metrics"]["pass_s"]
    assert pass_s["better"] == "lower"
    assert pass_s["ratios"] == pytest.approx([1.0, 0.13 / 0.15, 0.75, 0.8])
    assert (pass_s["median"], pass_s["q1"], pass_s["q3"]) == pytest.approx(((0.8 + 0.13 / 0.15) / 2, 0.7875, 0.9))
    assert pass_s["wins"] == 3
    assert pass_s["change"] == pytest.approx({"median": 0.15, "q1": 0.145, "q3": 0.1525})
    assert pass_s["against"] == pytest.approx({"median": 0.175, "q1": 0.15, "q3": 0.2})
    setup_s = got["metrics"]["setup_s"]
    assert setup_s["ratios"] == pytest.approx([1.0, 1.25, 1.0, 1.0]) and setup_s["wins"] == 0
    cpu_s = got["metrics"]["cpu_s"]
    assert cpu_s["ratios"] == pytest.approx([1.0, 5 / 6, 1.1, 1.0]) and cpu_s["wins"] == 1
    # a metric where higher is better wins the other way, and only atlas has modes
    better["pass_s"] = "higher"
    got = bench_record.paired(change, against, first, better, "wide")
    assert got["metrics"]["pass_s"]["wins"] == 0 and "modes" not in got


def test_a_parent_metric_of_zero_is_refused():
    better = {"setup_s": "lower", "pass_s": "lower", "cpu_s": "lower"}
    runs = [(run_output(0.01, 0.1), 5.0), (run_output(0.01, 0.1), 5.0)]
    zero = [(run_output(0.01, 0.0), 5.0), (run_output(0.01, 0.1), 5.0)]
    with pytest.raises(bench_record.RunFailed, match="pass_s of the parent reads 0"):
        bench_record.paired(runs, zero, bench_record.firsts(2), better, "four-facet")


def test_checkout_extracts_the_commit(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "dest"
    repo.mkdir()
    dest.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c",
                               "user.email=t@t", *args], check=True, capture_output=True).stdout
    git("init", "-q")
    (repo / "m.py").write_text("x = 1\n")
    git("add", ".")
    git("commit", "-qm", "base")
    base = git("rev-parse", "HEAD").decode().strip()
    (repo / "m.py").write_text("x = 2\n")
    git("commit", "-qam", "change")
    assert bench_record._checkout(repo, "HEAD~1", dest) == base
    assert (dest / "m.py").read_text() == "x = 1\n"
    assert not (dest / ".git").exists()
    assert git("worktree", "list").decode().count("\n") == 1
