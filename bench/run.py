"""lagneed benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py --workload deep-1d --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the library is imported from ``src``.
Each workload runs as a closed loop with one client in fresh worker
processes (worker.py), with the BLAS thread variables fixed before numpy is
imported.  Workload names and metric names and units come from
BENCHMARK.json at the root.

--trace 0 prints the end-to-end metrics: setup_s is the median over several
cold set-ups, each in its own process; the other metrics come from one
worker that sets up and then runs ops for --seconds, stopping after a whole
cycle of ops.  --trace 1 runs a fixed number of ops (--seconds is not used)
twice, each time in a fresh worker with the tracer installed, prints the
per-layer metrics of the first, and fails the run if a work count differs
between the two.  --smoke runs every workload briefly both ways and checks
that every named metric appears with a unit and that no op fails.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it is the full run record; it is also
written to bench/out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 170.0

# Cold set-ups per run (the main worker's own set-up is one of them) and
# ops per traced run.  deep-1d's set-up takes seconds, the others' far less.
SETUP_SAMPLES = {"deep-1d": 5, "wide-3d": 9, "norms-2d": 9, "cli-report-1d": 7}
TRACE_OPS = {"deep-1d": 20, "wide-3d": 4, "norms-2d": 2, "cli-report-1d": 3}

COUNT_SUFFIXES = (".calls", ".cold_calls", ".values", ".points", "_bytes", ".max_n")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in its own process group; return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies_ms: list[float]):
    """The highest percentile with at least ten samples beyond it.

    Left out (None) when that percentile would not exceed the median.
    """
    n = len(latencies_ms)
    if n < 20:
        return None
    return {"value": sorted(latencies_ms)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def measure(name: str, seed: int, seconds: float, setup_samples: int, deadline: float):
    """Untraced run: end-to-end metrics and the run record."""
    base = ["--workload", name, "--seed", str(seed)]
    probes = [worker(base + ["--mode", "setup"] + (["--gates"] if i == 0 else []), deadline)
              for i in range(setup_samples - 1)]
    main = worker(base + ["--mode", "run", "--seconds", repr(seconds)], deadline)
    lat_ms = [v * 1e3 for v in main["latencies_s"]]
    if not lat_ms:
        raise BenchError("no op completed")
    setups = [p["setup_s"] for p in probes] + [main["setup_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat_ms) / main["wall_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    health = dict(main["health"])
    for p in probes:
        for key, val in p["health"].items():
            health[key] = max(health.get(key, 0.0), val)
    record = {
        "setup_samples_s": setups,
        "op_p50_samples": len(lat_ms),
        "op_tail_ms": tail(lat_ms),
        "loop_wall_s": main["wall_s"],
        "health": health,
        "unmeasured": sorted(set(main["unmeasured"]).intersection(
            *(p["unmeasured"] for p in probes))),
    }
    gate_failures = [msg for p in probes for msg in p["gate_failures"]]
    return metrics, main, gate_failures, record


def measure_traced(name: str, seed: int, ops: int, deadline: float):
    """Traced run, twice: per-layer metrics, overhead and the count check."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}-seed{seed}.json"
    base = ["--workload", name, "--seed", str(seed), "--mode", "trace", "--ops", str(ops)]
    first = worker(base + ["--spans", str(spans)], deadline)
    second = worker(base, deadline)
    a, b = first["layers"], second["layers"]
    mismatch = {key: [a.get(key), b.get(key)] for key in sorted(set(a) | set(b))
                if key.endswith(COUNT_SUFFIXES) and a.get(key) != b.get(key)}
    metrics = {**a, **first["health"]}
    overhead = None
    if first["traced_p50_ms"] is not None and first["untraced_p50_ms"] is not None:
        overhead = first["traced_p50_ms"] - first["untraced_p50_ms"]
    record = {
        "traced_ops": ops,
        "traced_p50_ms": first["traced_p50_ms"],
        "untraced_p50_ms": first["untraced_p50_ms"],
        "tracing_overhead_ms": overhead,
        "count_mismatch": mismatch,
        "absent": sorted(set(first["absent"]) | set(first["broken_counts"])),
        "spans_file": str(spans.relative_to(ROOT)),
        "health": first["health"],
        "unmeasured": first["unmeasured"],
        "layers": a,
    }
    main = dict(first)
    main["attempted"] = first["attempted"] + second["attempted"]
    main["failures"] = {**{f"a{k}": v for k, v in first["failures"].items()},
                        **{f"b{k}": v for k, v in second["failures"].items()}}
    gate_failures = first["gate_failures"] + second["gate_failures"]
    gate_failures += [f"count {key} differs between two traced runs: {v}"
                      for key, v in mismatch.items()]
    return metrics, main, gate_failures, record


def evaluate(spec: dict, name: str, seed: int, seconds: float, trace: int,
             setup_samples: int, trace_ops: int):
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        values, main, gate_failures, record = measure_traced(name, seed, trace_ops, deadline)
    else:
        values, main, gate_failures, record = measure(name, seed, seconds, setup_samples,
                                                      deadline)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    attempted, failed = main["attempted"], len(main["failures"])
    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "python": platform.python_version(), **main["versions"],
        "commit": git_commit(),
        "metrics": metrics,
        "missing_metrics": [m["name"] for m in wanted if m["name"] not in values],
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "failures": dict(list(main["failures"].items())[:20]),
        "gate_failures": gate_failures,
        **record,
    }
    result = {"correct": failed == 0 and not gate_failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result, record


def print_run(result: dict, record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"blas_threads={record['blas_threads']} nproc={record['nproc']} "
          f"error_rate={record['error_rate']:.6g} ({record['failed']}/{record['attempted']})")
    for name, m in result["metrics"].items():
        print(f"#   {name:<40} {m['value']:.6g} {m['unit']}")
    if record.get("op_tail_ms"):
        t = record["op_tail_ms"]
        print(f"#   {'op_tail_ms':<40} {t['value']:.6g} ms (p{t['percentile']:.4g} of "
              f"{t['samples']} ops)")
    if record.get("tracing_overhead_ms") is not None:
        print(f"#   {'tracing_overhead_ms':<40} {record['tracing_overhead_ms']:.6g} ms")
    for msg in list(record["failures"].values())[:5] + record["gate_failures"]:
        print(f"#   FAIL {msg}")


def smoke(spec: dict) -> int:
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, record = evaluate(spec, w["name"], seed=0, seconds=1.0, trace=trace,
                                      setup_samples=2, trace_ops=1)
            print_run(result, record)
            problems += [f"{w['name']} trace={trace}: metric {name} missing"
                         for name in record["missing_metrics"]]
            if record["error_rate"] != 0 or not result["correct"]:
                problems.append(f"{w['name']} trace={trace}: "
                                f"error_rate {record['error_rate']}, correct {result['correct']}")
    for msg in problems:
        print(f"smoke: {msg}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lagneed" / "__init__.py").is_file():
        print(f"no lagneed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(spec)
    if args.workload not in SETUP_SAMPLES or args.seed < 0:
        print(f"--workload must be one of {sorted(SETUP_SAMPLES)} and --seed >= 0",
              file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        result, record = evaluate(spec, args.workload, args.seed, seconds, args.trace,
                                  SETUP_SAMPLES[args.workload], TRACE_OPS[args.workload])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_run(result, record)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
