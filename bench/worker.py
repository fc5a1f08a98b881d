"""Run one lagneed benchmark workload in a fresh process.

run.py starts this script with PYTHONPATH pointing at the checkout's
``src`` and the BLAS thread variables already set, so they hold before numpy
is imported.  Modes:

  setup  time one cold set-up; with --gates also check the set-up gates
  run    set up, then run ops in a closed loop (one client) for --seconds
  trace  set up and run --ops ops with the library's public functions
         wrapped by the tracer, then the same ops again unwrapped, so the
         difference of the two median latencies is the tracing overhead

The last line of stdout is one JSON object with the results.  The library
is always called through module attributes (``L.analyze``), never through
names bound here, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent

# Correctness gates; the first two are the acceptance tolerances of the
# library's own test suite.
RECON_TOL = 1e-9
PARSEVAL_TOL = 1e-10
MOMENT_TOL = 1e-10
WIDTH_TOL = 50.0

INTEGRATION_LEVEL = 4
CELLS = 20
# Acceptance criterion 8: (space, (s, rho, p, q)).  The Besov set comes
# second so that a traced run of two ops covers both spaces.
PARAM_SETS = (
    ("F", (0.0, 0.0, 2.0, 2.0)),
    ("B", (0.0, 0.0, 3.0, math.inf)),
    ("F", (1.0, 1.0, 2.0, 2.0)),
    ("F", (0.5, 0.5, 1.5, 1.0)),
)
# Numeric health figures, recorded and never gated as regressions.  A
# workload that does not produce one reports it as 0 and lists it as
# unmeasured in the run record.
HEALTH_KEYS = (
    "quadrature.moment_rel_err_max",
    "needlets.recon_err_max",
    "needlets.parseval_err_max",
    "cutoffs.partition_residual_max",
    "spaces.equivalence_width_max",
)
REPORT_CONFIG = "alpha=0.5\nd=1\nJ=3\ntight=true\ntrials=20\nseed={seed}\n"
# Every report suite but nikolskii.  Its verdict fits a growth exponent to
# the largest of ten seeded random trials and fails on about one config
# seed in thirteen (23 of seeds 0-299: weighted exponent 0.37-0.38 against
# 0.25 + 0.1), so a seeded op would fail by the seed, not by the code.
REPORT_SUITES = "kernel-decay,lower-bound,equivalence,frame-verify"


# Bound in main(), after the trace mode has timed the first import.
L = np = None


class Workload:
    # The timed loop ends only after a whole number of cycles of ops, so
    # every run sees the same mix of ops.
    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.health: dict[str, float] = {}

    def note(self, key: str, value) -> None:
        self.health[key] = max(self.health.get(key, 0.0), float(value))

    def system_gates(self, system) -> list[str]:
        """Moment exactness of the largest rule and the partition residual."""
        n = system.grids[-1].n_j
        bad = []
        for a in system.alpha:
            rule = L.gauss_laguerre(n, a)
            err = float(np.max(L.quadrature.moment_relative_errors(rule, 2 * n - 1)))
            self.note("quadrature.moment_rel_err_max", err)
            if not err < MOMENT_TOL:
                bad.append(f"moment error {err:.3e} of the n={n} alpha={a} rule")
        ts = np.geomspace(1.0, 4.0 ** system.J, 2001)
        self.note("cutoffs.partition_residual_max", system.pair.partition_residual(ts))
        return bad

    def gates(self) -> list[str]:
        return self.system_gates(self.system)

    def finish(self) -> dict[int, str]:
        """End-of-run gates: op index -> failure message."""
        return {}


class Transform(Workload):
    """Analyze plus synthesize round trips of seeded random functions."""

    def __init__(self, seed, J, d, alpha, tight, degree):
        super().__init__(seed)
        self.J, self.d, self.alpha, self.tight, self.degree = J, d, alpha, tight, degree

    def setup(self):
        pair = L.make_dual_pair(L.frame_default(), tight=self.tight)
        self.system = L.build_system(self.J, self.d, self.alpha, pair)

    def make_input(self, k):
        return L.CoeffFn.random(self.alpha, self.degree, seed=[self.seed, k])

    def op(self, f):
        coeffs = L.analyze(self.system, f)
        return coeffs, L.synthesize(self.system, coeffs)

    def check(self, f, out):
        coeffs, g = out
        nrm = f.norm2()
        sl = (slice(0, self.degree + 1),) * self.d
        bad = []
        recon = float(np.max(np.abs(g.coeffs[sl] - f.coeffs))) / nrm
        self.note("needlets.recon_err_max", recon)
        if not recon < RECON_TOL:
            bad.append(f"reconstruction error {recon:.3e}")
        if self.tight:
            par = abs(coeffs.total_energy() - nrm ** 2) / nrm ** 2
            self.note("needlets.parseval_err_max", par)
            if not par < PARSEVAL_TOL:
                bad.append(f"Parseval error {par:.3e}")
        return bad


class Norms(Workload):
    """Equivalence rows (sequence vs continuous norm) plus a 2-D maximal function."""

    # Two rows per parameter set per cycle, so the bracket-width gate at the
    # end of every run compares at least two functions.
    cycle = 2 * len(PARAM_SETS)

    def setup(self):
        self.system = L.build_system(3, 2, [0.5, 0.5],
                                     L.make_dual_pair(L.frame_default(), tight=True))
        corpus = L.spaces.make_test_corpus(self.system, seed=self.seed)
        # Only the corpus members with every coefficient up to the top degree
        # set: single-degree spikes skip most bands and cost about half as
        # much, which would make the median depend on how many ops a run fits.
        full = max(np.count_nonzero(f.coeffs) for f in corpus)
        self.corpus = [f for f in corpus if np.count_nonzero(f.coeffs) == full]
        s = self.system
        L.cubature_grid(INTEGRATION_LEVEL, s.d, s.alpha, s.delta, s.c_star)
        self.ratios: dict[int, list[tuple[int, float]]] = {}

    def make_input(self, k):
        rng = np.random.default_rng([self.seed, k])
        breaks = [np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 0.5, CELLS))))
                  for _ in range(2)]
        cells = L.PiecewiseCellFn(breaks, rng.uniform(0.0, 1.0, (CELLS, CELLS)), [0.5, 0.5])
        return k, self.corpus[k % len(self.corpus)], cells

    def op(self, inp):
        s = self.system
        k, f, cells = inp
        space, vals = PARAM_SETS[k % len(PARAM_SETS)]
        params = L.NormParams(*vals)
        coeffs = L.analyze(s, f)
        if space == "F":
            seq = L.f_norm_seq(coeffs, params, s)
            cont = L.F_norm_cont(f, params, s, INTEGRATION_LEVEL)
        else:
            seq = L.b_norm_seq(coeffs, params, s)
            cont = L.B_norm_cont(f, params, s, INTEGRATION_LEVEL)
        return coeffs, seq, cont, L.maximal_fn(cells, 1.0)

    def check(self, inp, out):
        k, f, cells = inp
        coeffs, seq, cont, mx = out
        bad = []
        if math.isfinite(seq) and math.isfinite(cont) and seq > 0.0 and cont > 0.0:
            self.ratios.setdefault(k % len(PARAM_SETS), []).append((k, cont / seq))
        else:
            bad.append(f"norms not finite and positive: seq={seq} cont={cont}")
        nrm2 = f.norm2() ** 2
        self.note("needlets.parseval_err_max", abs(coeffs.total_energy() - nrm2) / nrm2)
        # The single-cell box is one of the boxes, so M_1 f >= |f| cell-wise.
        v = np.abs(cells.values)
        if not (np.all(np.isfinite(mx.values)) and np.all(mx.values >= v * (1 - 1e-12))):
            bad.append("maximal function not finite or below |f|")
        return bad

    def finish(self):
        failed = {}
        for which, rows in sorted(self.ratios.items()):
            ratios = [r for _, r in rows]
            width = max(ratios) / min(ratios)
            self.note("spaces.equivalence_width_max", width)
            if not width <= WIDTH_TOL:
                failed.update({k: f"param set {which}: bracket width {width:.3g}"
                               for k, _ in rows})
        return failed


class CliReport(Workload):
    """``lagneed report`` on a 1-D config into a fresh directory per op."""

    CANONICAL_SKIP = "meta.sidecar.json"
    in_process = False  # the traced run calls lagneed.cli.main in process

    def __init__(self, seed):
        super().__init__(seed)
        self.work = BENCH / "work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "report.cfg"
        self.config.write_text(REPORT_CONFIG.format(seed=seed), encoding="utf-8")
        self.first = None

    # Subprocesses get no timeout: with one, Popen.wait polls in steps of up
    # to 50 ms, which quantises the timings.  run.py kills the whole process
    # group at its deadline instead.
    def setup(self):
        subprocess.run([sys.executable, "-c", "import lagneed.cli"], check=True)

    def gates(self):
        from lagneed import cli

        return self.system_gates(cli.system_from_config(cli.load_config(str(self.config))))

    def make_input(self, k):
        return self.work / f"op{k}"

    def op(self, out):
        argv = ["report", "--config", str(self.config), "--only", REPORT_SUITES,
                "--out", str(out)]
        if self.in_process:
            from lagneed import cli

            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        return subprocess.run([sys.executable, "-m", "lagneed", *argv],
                              stdout=subprocess.DEVNULL).returncode

    def check(self, out, rc):
        bad = [] if rc == 0 else [f"exit code {rc}"]
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        bad += [f"suite {name} failed" for name, suite in sorted(summary["suites"].items())
                if suite.get("pass") is not True]
        frame = json.loads((out / "frame_verify.json").read_text(encoding="utf-8"))
        self.note("needlets.recon_err_max", frame["reconstruction_max_err"])
        self.note("needlets.parseval_err_max", frame["parseval_max_err"])
        self.note("spaces.equivalence_width_max", summary["suites"]["equivalence"]["width"])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                 if p.name != self.CANONICAL_SKIP}
        if self.first is None:
            self.first = files
        elif files != self.first:
            diff = sorted(n for n in set(files) | set(self.first)
                          if files.get(n) != self.first.get(n))
            bad.append(f"artifacts differ from the first op: {diff}")
        shutil.rmtree(out)
        return bad

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()


def make_workload(name: str, seed: int) -> Workload:
    if name == "deep-1d":
        return Transform(seed, J=5, d=1, alpha=[0.5], tight=True, degree=256)
    if name == "wide-3d":
        return Transform(seed, J=3, d=3, alpha=[0.0, 0.5, 1.0], tight=False, degree=16)
    if name == "norms-2d":
        return Norms(seed)
    if name == "cli-report-1d":
        return CliReport(seed)
    raise SystemExit(f"unknown workload {name!r}")


def run_ops(wl: Workload, done, cycle=1, tracer=None):
    """Closed loop: op k+1 starts when op k has finished and been checked.

    done(k, elapsed_s) is asked after every whole cycle of ops.  Returns the
    op latencies, the failures by op index, the op count and the loop time.
    """
    latencies, failures, k = [], {}, 0
    start = time.perf_counter()
    while True:
        try:
            inp = wl.make_input(k)
            if tracer is not None:
                tracer.op = k
            t = time.perf_counter()
            out = wl.op(inp) if tracer is None else tracer.span("op", wl.op, inp)
            latencies.append(time.perf_counter() - t)
            bad = wl.check(inp, out)
        except Exception as exc:  # an op that raises counts as failed
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            failures[k] = "; ".join(bad)
        k += 1
        if k % cycle == 0 and done(k, time.perf_counter() - start):
            return latencies, failures, k, time.perf_counter() - start


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def p50_ms(latencies):
    return statistics.median(latencies) * 1e3 if latencies else None


def timed_setup(wl: Workload) -> float:
    t = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--ops", type=int, default=1)
    ap.add_argument("--gates", action="store_true")
    ap.add_argument("--spans", default=None, help="trace mode: write spans here")
    args = ap.parse_args(argv)

    global L, np
    result: dict = {}
    t = time.perf_counter()
    import lagneed.cli
    result["import_s"] = time.perf_counter() - t
    import numpy as np
    L = lagneed
    wl = make_workload(args.workload, args.seed)
    failures: dict = {}
    gate_failures: list[str] = []
    try:
        if args.mode == "setup":
            result["setup_s"] = timed_setup(wl)
            if args.gates:
                gate_failures = wl.gates()
        elif args.mode == "run":
            result["setup_s"] = timed_setup(wl)
            lat, failures, attempted, wall = run_ops(
                wl, lambda k, elapsed: elapsed >= args.seconds, wl.cycle)
            failures.update(wl.finish())
            result.update(latencies_s=lat, attempted=attempted, wall_s=wall)
        else:
            from tracer import Tracer  # imports numpy, so only after the timed import

            wl.in_process = True
            tracer = Tracer()
            tracer.install()
            tracer.op = "setup"
            tracer.span("setup", wl.setup)
            lat_t, failures, attempted, _ = run_ops(wl, lambda k, _: k >= args.ops,
                                                   tracer=tracer)
            tracer.uninstall()
            lat_u, fail_u, attempted_u, _ = run_ops(wl, lambda k, _: k >= args.ops)
            failures.update({f"untraced {k}": msg for k, msg in fail_u.items()})
            failures.update(wl.finish())
            gate_failures = wl.gates()
            layers = tracer.summary()
            layers["cli.import_s"] = result["import_s"]
            if "cli.main.self_s" in layers:
                layers["cli.self_s"] = layers.pop("cli.main.self_s")
            result.update(
                layers=layers, absent=tracer.absent,
                broken_counts=sorted(tracer.broken),
                attempted=attempted + attempted_u,
                traced_p50_ms=p50_ms(lat_t), untraced_p50_ms=p50_ms(lat_u))
            if args.spans:
                tracer.dump(args.spans)
    finally:
        if isinstance(wl, CliReport):
            wl.close()
    result.update(
        failures={str(k): v for k, v in failures.items()},
        gate_failures=gate_failures,
        health={key: wl.health.get(key, 0.0) for key in HEALTH_KEYS},
        unmeasured=[key for key in HEALTH_KEYS if key not in wl.health],
        peak_rss_mb=peak_rss_mb(),
        versions={"numpy": importlib.metadata.version("numpy"),
                  "scipy": importlib.metadata.version("scipy")})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
