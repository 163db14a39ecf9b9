"""Record the output digests that the benchmark's output gate compares against.

    python3 perfbench/record.py [SEED ...]

Runs one pass of every workload per seed (default: seeds 0-9 and the
held-out seed) and writes perfbench/expected.json: per workload and seed,
the sha256 of the request list and one 8-hex digest per request output.  Record only at a
commit whose outputs are known to be right: afterwards any change to a
verdict, certificate text, realization JSON or atlas CSV byte shows up as
failed requests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [*range(10), gen.HELD_OUT_SEED]
    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    out_dir = run.ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    for workload in run.WORKLOADS:
        for seed in seeds:
            result_path = out_dir / f"record-{workload}-{seed}.json"
            subprocess.run(
                [sys.executable, str(HERE / "child.py"), workload, str(seed), "0", "0",
                 str(result_path), str(out_dir / "unused-spans.jsonl")],
                env=run._child_env(), cwd=run.ROOT, check=True,
            )
            result = json.loads(result_path.read_text())
            others = [p for p in result["problems"] if "recorded" not in p]  # stale digests
            if others:
                print(f"{workload} seed {seed}: not recorded, outputs fail checks:", *others,
                      sep="\n  ", file=sys.stderr)
                return 1
            expected.setdefault(workload, {})[str(seed)] = {
                "requests_sha256": result["requests_sha256"],
                "outputs": result["digests"],
            }
            print(f"{workload} seed {seed}: {result['requests']} digests")
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
