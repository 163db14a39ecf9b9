"""One benchmark run inside a fresh interpreter: generate, execute, check, time.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE RESULT_JSON SPANS_JSONL

Requests run closed loop, one at a time, pass after pass over the seeded
request list until SECONDS have elapsed (at least one whole pass).  Each
request's latency is the median of its passes, scaled (except on atlas)
to the nominal machine speed measured by the calibration kernel, see
calibrate.py.  With TRACE=1 the first half of the time runs untraced and
the second half traced, whole passes only, so the per-layer numbers are
per pass and the overhead of tracing is the difference between the
halves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

# one kernel timing at a time: right after a request, never several in a
# row, because repeated timings run warm and read up to 1.5x faster
KERNEL_EVERY_S = 0.25
# Atlas's multi-second canonicalize loops do not follow the kernel: when it
# ran 1.6x faster they ran about 1.25x faster, and scaling widened the
# ten-seed spread of atlas's pass time from 16% to 28%.
UNSCALED = ("atlas",)
REQUEST_LIMIT_S = 15.0
EXIT_BY_VERDICT = {"CONVEX": 0, "NONCONVEX": 1, "UNKNOWN": 2}
BUILDER_FAMILIES = ("PoFChain1D", "L18", "L21", "L22", "DisconnectedGlue")
COVERAGE = {
    "four-facet": ("TheoremNoLocalObstruction", "L24MinimalPoFSprocket", "Sprocket", "UNKNOWN"),
    "wide": ("UNKNOWN", "DisconnectedDecomposition"),
    "atlas": (),
}
BRANCHES = (
    "MaxIntersectionComplete", "LocalObstruction", "Sprocket", "TheoremNoLocalObstruction",
    "L24MinimalPoFConvex", "L24MinimalPoFSprocket", "NoTwoSimplexNerve",
    "DisconnectedDecomposition", "IndeterminateContractibility", "none",
)


def _verdict_ok(expected: str, got: str) -> bool:
    return got != expected[1:] if expected.startswith("!") else got == expected


class Run:
    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        started = time.perf_counter()
        self.requests = gen.GENERATORS[workload](seed)
        self.generate_s = time.perf_counter() - started
        # imported only once the requests exist, which gen.py builds without it
        import convexcodes
        import convexcodes.cli

        self.cc = convexcodes
        self.cli = convexcodes.cli
        # checker calls go to the originals, so they never show up in spans
        self.check_minimal_code = convexcodes.minimal_code
        self.check_is_sprocket = convexcodes.is_sprocket
        self.check_verify = convexcodes.verify_realization
        convexcodes.decide(convexcodes.parse_code(gen.GOLDEN[0][1]))  # lazy tables
        self.parsed = [
            convexcodes.parse_code(r["code"]) if "code" in r else None for r in self.requests
        ]
        recorded = json.loads((HERE / "expected.json").read_text()).get(workload, {}).get(str(seed))
        self.expected = None
        self.problems = []
        if recorded is not None:
            if recorded["requests_sha256"] == gen.requests_digest(self.requests):
                self.expected = recorded["outputs"].split()
            else:
                self.problems.append("recorded digests are for another request list; re-record them")
        self.golden = {name: (verdict, cert) for name, _t, verdict, cert in gen.GOLDEN}
        self.readme = {tuple(argv): (status, out) for argv, status, out in gen.README_EXAMPLES}
        self.tracer = tracing.Tracer() if trace else None
        self.first_output = {}
        self.bad = set()
        self.branch = {}
        self.row_branches = Counter()
        self.tags = {}
        self.decided = {}
        self.attempted = 0
        self.failed = 0
        # after the first pass, so that allocator state left by later passes does not count
        self.peak_rss_mb = None

    # -- executing -------------------------------------------------------

    def execute(self, i):
        req = self.requests[i]
        op = req["op"]
        if op == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = self.cli.main(list(req["argv"]))
                except SystemExit as exc:
                    status = exc.code
            return status, out.getvalue(), err.getvalue()
        if op == "analyze":
            return self.cc.analyze(self.parsed[i], budget=gen.SPROCKET_BUDGET)
        if op == "decide":
            return self.cc.decide(self.parsed[i], budget=gen.SPROCKET_BUDGET)
        rows, skipped = self.cc.atlas_rows(req["neurons"], req["facets"])
        buf = io.StringIO()
        self.cc.write_atlas_csv(rows, buf, skipped=skipped)
        return rows, skipped, buf.getvalue()

    def output_text(self, i, result) -> str:
        op = self.requests[i]["op"]
        if op == "cli":
            status, out, err = result
            return f"exit {status}\n{out}\0{err}"
        if op == "analyze":
            texts = "\n".join(c.text() for c in result.certificates)
            return json.dumps(result.to_json(), sort_keys=True) + "\n" + texts
        if op == "decide":
            verdict, certs = result
            return "\n".join([verdict.value] + [c.text() for c in certs]
                             + [json.dumps([c.to_json() for c in certs], sort_keys=True)])
        return result[2]

    # -- checking --------------------------------------------------------

    def check(self, i, result) -> list:
        """Problems with the first output of request i (empty when correct)."""
        req = self.requests[i]
        op = req["op"]
        if op == "cli":
            return self._check_cli(req, *result)
        if op == "atlas":
            rows, skipped, csv_text = result
            self.decided[i] = (sum(r.verdict != "UNKNOWN" for r in rows), len(rows))
            self.row_branches.update(r.certificate or "UNKNOWN" for r in rows)
            problems = []
            if len(rows) != req["rows"] or skipped:
                problems.append(f"atlas {req['neurons']}x{req['facets']}: {len(rows)} rows, "
                                f"{skipped} skipped, want {req['rows']}")
            if len(set(r.code for r in rows)) != len(rows) or not csv_text.startswith("code,"):
                problems.append("atlas CSV malformed")
            return problems
        if op == "analyze":
            verdict, certs = result.verdict, result.certificates
            minimal = gen.code_text(result.minimal_code or ())
        else:
            verdict, certs = result
            facets = [frozenset(f) for f in req["facets"]]
            minimal = gen.code_text(self.check_minimal_code(facets).codewords)
        kind = certs[0].kind if certs else "UNKNOWN"
        self.branch[i] = kind
        self.decided[i] = (int(verdict.value != "UNKNOWN"), 1)
        problems = []
        if minimal != req["minimal"]:
            problems.append(f"minimal code {minimal} != oracle {req['minimal']}")
        if kind == "LocalObstruction":
            problems.append("local obstruction on a code containing its minimal code")
        if req["expect"] and kind != req["expect"]:
            problems.append(f"branch {kind}, the pipeline order forces {req['expect']}")
        for cert in certs:
            if cert.candidate is not None and not self.check_is_sprocket(self.parsed[i], cert.candidate)[0]:
                problems.append("sprocket certificate does not replay")
        if op == "analyze" and result.realization is not None:
            self.tags[i] = result.realization["construction"]
            realization = self.cc.realization_from_json(result.realization)
            if not self.check_verify(realization, self.parsed[i])[0]:
                problems.append("realization JSON does not verify")
        return [f"{req['code']}: {p}" for p in problems]

    def _check_cli(self, req, status, out, err) -> list:
        argv = req["argv"]
        name = req["golden"]
        verdict, cert = self.golden[name]
        label = f"{name} {argv[0]}"
        problems = []
        want = self.readme.get(tuple(argv))
        if want is not None and (status, out) != want:
            problems.append(f"{label}: README example output changed")
        if argv[0] == "decide":
            lines = out.splitlines()
            got = lines[0] if lines else ""
            if not _verdict_ok(verdict, got) or status != EXIT_BY_VERDICT.get(got):
                problems.append(f"{label}: verdict {got} exit {status}, want {verdict}")
            elif cert is not None and (len(lines) < 2 or lines[1].strip() != cert):
                problems.append(f"{label}: certificate {lines[1:2]}, want {cert}")
        elif argv[0] == "analyze":
            doc = json.loads(out)
            if not _verdict_ok(verdict, doc["verdict"]) or status != EXIT_BY_VERDICT[doc["verdict"]]:
                problems.append(f"{label}: verdict {doc['verdict']} exit {status}, want {verdict}")
        elif argv[0] == "realize":
            if verdict == "CONVEX":
                if status not in (0, 3) or (status == 0 and "construction" not in json.loads(out)):
                    problems.append(f"{label}: exit {status}")
            elif status == 0:
                problems.append(f"{label}: realized a code that is not CONVEX")
        elif status != 0 or not out.startswith("facets ("):
            problems.append(f"{label}: exit {status}")
        return problems

    def record(self, i, result, elapsed) -> None:
        self.attempted += 1
        if isinstance(result, BaseException):
            text = "exception " + "".join(traceback.format_exception_only(type(result), result))
            problems = [f"request {i}: {text.strip()}"]
        else:
            text = self.output_text(i, result)
            problems = []
        if i not in self.first_output:
            self.first_output[i] = text
            if not problems:
                try:
                    problems = self.check(i, result)
                except Exception as exc:  # malformed output fails the request, not the run
                    problems = [f"request {i}: checking the output raised {exc!r}"]
            digest = hashlib.sha256(text.encode()).hexdigest()[:8]
            if self.expected is not None and self.expected[i] != digest:
                problems.append(f"request {i}: output digest {digest}, recorded {self.expected[i]}")
            if problems:
                self.bad.add(i)
        elif text != self.first_output[i]:
            problems.append(f"request {i}: output differs between passes")
        if elapsed > REQUEST_LIMIT_S:
            problems.append(f"request {i}: {elapsed:.1f} s over the {REQUEST_LIMIT_S} s limit")
        if problems or i in self.bad:
            self.failed += 1
        self.problems.extend(problems)

    # -- timing ----------------------------------------------------------

    def phase(self, seconds, whole_passes) -> tuple:
        """Closed loop over the requests: (samples per request, passes, kernel samples).

        The calibration kernel runs between requests every KERNEL_EVERY_S.
        """
        samples = [[] for _ in self.requests]
        kernel = [calibrate.kernel_seconds()]
        last_kernel = time.perf_counter()
        deadline = last_kernel + seconds
        done = 0
        while True:
            for i in range(len(self.requests)):
                if self.tracer is not None:
                    self.tracer.request = i
                if time.perf_counter() - last_kernel > KERNEL_EVERY_S:
                    kernel.append(calibrate.kernel_seconds())
                    last_kernel = time.perf_counter()
                start = time.perf_counter()
                try:
                    result = self.execute(i)
                except Exception as exc:  # a failing request is counted, not fatal
                    result = exc
                elapsed = time.perf_counter() - start
                samples[i].append(elapsed)
                self.record(i, result, elapsed)
                if not whole_passes and done >= 1 and time.perf_counter() >= deadline:
                    return samples, done + (i + 1) / len(self.requests), kernel
            done += 1
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() >= deadline:
                return samples, done, kernel

    def coverage_problems(self) -> list:
        if self.seed not in (gen.DEFAULT_SEED, gen.HELD_OUT_SEED):
            return []
        reached = set(self.branch.values())
        missing = [k for k in COVERAGE[self.workload] if k not in reached]
        if self.workload == "four-facet":
            tags = list(self.tags.values())
            missing += [f for f in BUILDER_FAMILIES if not any(t.startswith(f) for t in tags)]
        if self.workload == "wide" and not any(r.get("large_link") for r in self.requests):
            missing.append("a link on more than 4 vertices")
        return [f"seed {self.seed} does not reach {m}" for m in missing]


def _latency_stats(samples, speed) -> dict:
    """Latency figures over per-request medians, scaled by the speed multiplier."""
    per_request = sorted(speed * statistics.median(s) for s in samples if s)
    n = len(per_request)
    if n > 10:
        tail, percentile = per_request[n - 11], 100.0 * (n - 10) / n
    else:
        tail, percentile = per_request[-1], 100.0
    return {
        "pass_s": sum(per_request),
        "requests_per_s": n / sum(per_request),
        "latency_p50_ms": 1e3 * statistics.median(per_request),
        "latency_tail_ms": 1e3 * tail,
        "tail_percentile": percentile,
        "latency_samples": n,
    }


def _layer_metrics(summary, passes, speed, overhead, spans) -> dict:
    total, calls, outcomes = summary["total"], summary["calls"], summary["outcomes"]

    def per(x):
        return x / passes

    def per_s(seconds):
        return speed * seconds / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.main_ms": 1e3 * speed * ratio(total["cli.main"], calls["cli.main"]),
        "decider.analyze_s": per_s(total["decider.analyze"]),
        "decider.decide_s": per_s(total["decider.decide"]),
        "decider.decide_calls": per(calls["decider.decide"]),
        "decider.decide_self_s": per_s(summary["self_by_name"]["decider.decide"]),
    }
    for kind in BRANCHES:
        m[f"decider.branch.{kind}"] = per(outcomes[f"decider.decide.{kind}"])
    m.update({
        "topology.classify_s": per_s(total["topology.nerve"] + total["topology.classify_small_complex"]),
        "topology.classify_calls": per(calls["topology.classify_small_complex"]),
        "topology.minimal_code_s": per_s(total["topology.minimal_code"]),
        "topology.minimal_code_calls": per(calls["topology.minimal_code"]),
        "topology.link_s": per_s(total["topology.has_local_obstruction"] + total["topology.mandatory_faces"]),
        "topology.link_calls": per(calls["topology.has_local_obstruction"] + calls["topology.mandatory_faces"]),
        "wheels.find_sprocket_s": per_s(total["wheels.find_sprocket"]),
        "wheels.find_sprocket_calls": per(calls["wheels.find_sprocket"]),
        "wheels.sprocket_found_ratio": ratio(outcomes["wheels.find_sprocket.found"], calls["wheels.find_sprocket"]),
        "codes.canonicalize_s": per_s(total["codes.canonicalize"]),
        "codes.canonicalize_calls": per(calls["codes.canonicalize"]),
        "atlas.enumerate_s": per_s(total["atlas.enumerate_facet_antichains"]),
        "atlas.families": per(outcomes["atlas.enumerate_facet_antichains.items"]),
        "realize.build_s": per_s(total["realize.build_realization"]),
        "realize.covered_ratio": ratio(outcomes["realize.build_realization.covered"],
                                       calls["realize.build_realization"]),
        "realize.verify_s": per_s(total["realize.verify_realization"]),
        "realize.verify_calls": per(calls["realize.verify_realization"]),
    })
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = per_s(summary["self"][layer])
    m["trace.overhead_ratio"] = overhead
    m["trace.spans_per_pass"] = per(spans)
    return m


def main(argv) -> int:
    workload, seed, seconds, trace, result_path, spans_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    run = Run(workload, seed, trace)
    if trace:
        samples, passes, kernel = run.phase(seconds / 2, whole_passes=True)
        run.tracer.install()
        traced, traced_passes, traced_kernel = run.phase(seconds / 2, whole_passes=True)
    else:
        samples, passes, kernel = run.phase(seconds, whole_passes=False)
    scaled = workload not in UNSCALED
    speed = calibrate.speed(kernel) if scaled else 1.0
    stats = _latency_stats(samples, speed)
    decided = list(run.decided.values())
    problems = run.problems + run.coverage_problems()
    result = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "requests": len(run.requests),
        "requests_sha256": gen.requests_digest(run.requests),
        "generate_s": run.generate_s,
        "passes": passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": not problems,
        "problems": problems[:20],
        "digests": " ".join(
            hashlib.sha256(run.first_output[i].encode()).hexdigest()[:8]
            for i in range(len(run.requests))
        ),
        "digest_recorded": run.expected is not None,
        "branch_mix": dict(sorted((Counter(run.branch.values()) + run.row_branches).items())),
        "construction_mix": dict(sorted(Counter(run.tags.values()).items())),
        "decided_share": sum(d for d, _ in decided) / sum(n for _, n in decided),
        "peak_rss_mb": run.peak_rss_mb,
        "kernel_ms": 1e3 * statistics.median(kernel),
        "speed": speed,
        "raw": _latency_stats(samples, 1.0),
        **stats,
    }
    if trace:
        traced_speed = calibrate.speed(traced_kernel) if scaled else 1.0
        overhead = _latency_stats(traced, traced_speed)["pass_s"] / stats["pass_s"] - 1.0
        result["layers"] = _layer_metrics(
            run.tracer.summary(), traced_passes, traced_speed, overhead, len(run.tracer.spans),
        )
        run.tracer.write(spans_path)
    Path(result_path).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
