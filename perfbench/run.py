"""convexcodes benchmark: one seeded workload per call, checked and timed.

    python3 perfbench/run.py --workload four-facet|wide|atlas --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/ without installing it.  Set-up is timed in fresh interpreters, the
workload runs in one more (one process, one thread), and the last line
printed is the JSON result.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones.  Details and metric definitions are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

WORKLOADS = ("four-facet", "wide", "atlas")
SETUP_PROBES = 9
DEADLINE_S = 170.0
END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("pass_s", "s"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONNOUSERSITE"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env.pop("PYTHONSTARTUP", None)
    return env


def _setup_seconds(env, deadline) -> list:
    """Set-up times scaled to the nominal machine; the first probe only fills the bytecode cache."""
    out = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        seconds, kernel = (float(x) for x in done.stdout.split())
        out.append(seconds * calibrate.NOMINAL_S / kernel)
    return out[1:]


def _unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "convexcodes" / "__init__.py").is_file():
        print(f"perfbench: no convexcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = out_dir / f"result-{stem}.json"
    spans_path = out_dir / f"spans-{stem}.jsonl"
    result_path.unlink(missing_ok=True)
    env = _child_env()

    try:
        setup = _setup_seconds(env, deadline) if args.trace == "0" else []
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
             str(args.seconds), args.trace, str(result_path), str(spans_path)],
            env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    if args.trace == "0":
        result["setup_s"] = statistics.median(setup)
        result["setup_samples"] = setup
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": value, "unit": _unit_of(name)}
                   for name, value in result["layers"].items()}
    result_path.write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  python {result['python']}  "
          f"cpus {result['cpus']}  requests {result['requests']}  "
          f"requests sha256 {result['requests_sha256'][:16]}")
    print(f"passes {result['passes']:.2f}  generate_s {result['generate_s']:.2f}  "
          f"digest {'checked' if result['digest_recorded'] else 'not recorded for this seed'}")
    raw = result["raw"]
    print(f"calibration kernel {result['kernel_ms']:.3f} ms (nominal {1e3 * calibrate.NOMINAL_S:g}), "
          f"times below are scaled by {result['speed']:.4f}; unscaled: "
          f"requests_per_s {raw['requests_per_s']:.4g}  latency_p50_ms {raw['latency_p50_ms']:.4g}  "
          f"latency_tail_ms {raw['latency_tail_ms']:.4g}  pass_s {raw['pass_s']:.4g}")
    print(f"failed_ratio {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})  correct {result['correct']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"latency tail: p{result['tail_percentile']:.2f} of {result['latency_samples']} "
          f"per-request medians")
    print("branch mix: " + json.dumps(result["branch_mix"]))
    print("construction mix: " + json.dumps(result["construction_mix"]))
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
