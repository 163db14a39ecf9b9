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
