"""Command-line front end: rule and grid generation, kernel diagnostics,
frame verification, transforms, norm computation, and bundled reports.

Each diagnostic suite is one function in ``SUITES``: ``report`` runs them
into a bundle, one file per suite, and a stand-alone diagnostic runs one
from its flags and writes the bytes of that suite's bundle file.

Conventions: exit 0 on success, 1 on a numeric-tolerance failure or
computation defect (with machine-readable JSON on stderr, naming the failed
suites for a failed verdict), 2 on usage errors.  JSON output is canonical
(sorted keys, %.17g floats) so identical configurations and seeds produce
byte-identical artifacts; wall-clock metadata only ever goes to a sidecar
file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .cutoffs import CutoffPair, CutoffSpec, frame_alt, frame_default, make_cutoff, make_dual_pair
from .kernels import kernel_decay_profile, lambda_kernel, lower_bound_check
from .needlets import CoeffFn, NeedletCoeffs, _frame_operator, analyze, build_system, synthesize
from .quadrature import cubature_grid, gauss_laguerre
from .spaces import (B_norm_cont, F_norm_cont, NormParams, b_norm_seq,
                     equivalence_report, f_norm_seq, make_test_corpus,
                     nikolskii_report)

RECON_TOL = 1e-9
PARSEVAL_TOL = 1e-10

CONFIG_DEFAULTS = {
    "alpha": [0.0],
    "d": 1,
    "J": 2,
    "delta": 0.03,
    "c_star": 1.0,
    "cutoff": "frame_default",
    "tight": False,
    "seed": 0,
    "trials": 20,
    "sigma": 6.0,
}

def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys and %.17g float formatting."""

    def render(o) -> str:
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: str(kv[0]))
            return "{" + ",".join(json.dumps(str(k)) + ":" + render(v) for k, v in items) + "}"
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            v = float(o)
            if math.isnan(v):
                return '"nan"'
            if math.isinf(v):
                return '"inf"' if v > 0 else '"-inf"'
            return f"{v:.17g}"
        if o is None:
            return "null"
        return json.dumps(str(o))

    return render(obj)


def _fail(message: str, code: int = 1) -> int:
    sys.stderr.write(canonical_json({"error": message, "code": code}) + "\n")
    return code


def parse_config_text(text: str) -> dict:
    """Parse flat key=value configuration text, each value typed like its default."""
    cfg = dict(CONFIG_DEFAULTS)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise ValueError(f"line {ln}: unknown configuration key {key!r}")
        default = CONFIG_DEFAULTS[key]
        if isinstance(default, bool):  # before int: bool is a subclass of int
            if val.lower() not in ("true", "false", "0", "1"):
                raise ValueError(f"line {ln}: boolean key {key!r} got {val!r}")
            cfg[key] = val.lower() in ("true", "1")
        elif isinstance(default, list):
            cfg[key] = [float(v) for v in val.split(",") if v.strip() != ""]
        else:
            cfg[key] = type(default)(val)
    if cfg["trials"] < 1:
        raise ValueError("trials must be at least 1")
    return cfg


def render_config_text(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, bool):
            out = "true" if val else "false"
        elif isinstance(val, list):
            out = ",".join(f"{v:.17g}" for v in val)
        elif isinstance(val, float):
            out = f"{val:.17g}"
        else:
            out = str(val)
        lines.append(f"{key}={out}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def parse_cutoff(spec: str) -> CutoffSpec:
    """Cut-off specification strings: frame_default, frame_alt, type_a:k=v,..., type_b:k=v,..."""
    if spec == "frame_default":
        return frame_default()
    if spec == "frame_alt":
        return frame_alt()
    kind, colon, body = spec.partition(":")
    if colon and kind.strip() in ("type_a", "type_b"):
        items = (item.partition("=") for item in body.split(",") if item)
        return make_cutoff(kind.strip(), **{k.strip(): float(v) for k, _, v in items})
    raise ValueError(f"unrecognized cutoff specification {spec!r}")


def pair_from_config(cfg: dict) -> CutoffPair:
    return make_dual_pair(parse_cutoff(cfg["cutoff"]), tight=bool(cfg["tight"]))


def system_from_config(cfg: dict, pair: CutoffPair | None = None):
    """The configured system, with the configured cut-off pair unless one is given."""
    return build_system(int(cfg["J"]), int(cfg["d"]), cfg["alpha"],
                        pair_from_config(cfg) if pair is None else pair,
                        float(cfg["delta"]), float(cfg["c_star"]))


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([header, *rows])
    return buf.getvalue()


# ---------------------------------------------------------------- commands


def cmd_quadrature(args) -> int:
    rule = gauss_laguerre(args.n, args.alpha)
    if not np.isfinite(rule.cub_coeffs).all():
        raise ValueError(f"no Gauss-Laguerre rule for n={rule.n}, alpha={rule.alpha}: "
                         "its cubature coefficients overflow")
    if args.format == "json":
        payload = {"n": rule.n, "alpha": rule.alpha,
                   "nodes": list(rule.nodes),
                   "log_weights": list(rule.log_weights),
                   "cub_coeffs": list(rule.cub_coeffs)}
        _write(args.out, canonical_json(payload))
    else:
        rows = [(nu + 1, f"{t:.17g}", f"{lw:.17g}", f"{c:.17g}")
                for nu, (t, lw, c) in enumerate(zip(rule.nodes, rule.log_weights,
                                                    rule.cub_coeffs))]
        _write(args.out, _csv_text(["nu", "t", "log_w", "c"], rows))
    return 0


def cmd_grid(args) -> int:
    alpha = [float(v) for v in args.alpha.split(",")]
    grid = cubature_grid(args.j, args.d, alpha, args.delta, args.c_star)
    points = grid.points()  # refuses a grid above the point cap before the boxes
    boxes = [[list(map(float, (grid.axis_breaks[ax][g], grid.axis_breaks[ax][g + 1])))
              for ax, g in enumerate(np.unravel_index(i, (grid.n_j,) * grid.d))]
             for i in range(grid.point_count)]
    payload = {
        "j": grid.j, "d": grid.d, "alpha": list(grid.alpha.alpha),
        "n_j": grid.n_j, "delta": grid.delta, "c_star": grid.c_star,
        "points": [list(p) for p in points],
        "coeffs": list(grid.coeffs()),
        "tile_boxes": boxes,
        "tile_measures": list(grid.tile_measures()),
    }
    _write(args.out, canonical_json(payload))
    return 0


def cmd_kernel_eval(args) -> int:
    a_hat = parse_cutoff(args.cutoff)
    alpha = [float(v) for v in args.alpha.split(",")]
    xs = [float(v) for v in args.x.split(",")]
    points = [[float(v) for v in chunk.split(",")]
              for chunk in args.points.split(";") if chunk]
    vals = [lambda_kernel(args.n, alpha, a_hat, xs, p) for p in points]
    payload = {"n": args.n, "alpha": alpha, "cutoff": a_hat.describe(),
               "x": xs, "points": points, "values": vals}
    _write(args.out, canonical_json(payload))
    return 0


def _coeff_fn_from_file(path: str) -> CoeffFn:
    with open(path, "r", encoding="utf-8") as fh:
        return CoeffFn.from_json_dict(json.load(fh))


def _needlet_coeffs_to_payload(coeffs: NeedletCoeffs) -> dict:
    return {
        "system_hash": coeffs.system_hash,
        "levels": [
            {"j": j, "shape": list(lv.shape),
             "re": list(lv.real.reshape(-1)), "im": list(lv.imag.reshape(-1))}
            for j, lv in enumerate(coeffs.levels)
        ],
    }


def _level_part(item: dict, key: str, j: int) -> np.ndarray:
    """A level's "re" or "im" values; a null (numpy would read NaN) or an object is malformed."""
    part = np.asarray(item[key], dtype=object)
    if not all(isinstance(v, (int, float, str)) for v in part.flat):
        raise ValueError(f"level {j}: {key!r} holds an entry that is not a number")
    return part.astype(float)


def _needlet_coeffs_from_payload(data: dict) -> NeedletCoeffs:
    if not isinstance(data, dict):
        raise ValueError("needlet coefficient data must be a JSON object")
    levels = []
    try:
        for item in data["levels"]:
            shape = tuple(int(v) for v in item["shape"])
            re, im = (_level_part(item, key, len(levels)) for key in ("re", "im"))
            levels.append((re + 1j * im).reshape(shape))
        if not any(lv.imag.any() for lv in levels):  # real data stays float64
            levels = [lv.real.copy() for lv in levels]
        return NeedletCoeffs(tuple(levels), data["system_hash"])
    except KeyError as exc:
        raise ValueError(f"needlet coefficient data lacks the key {exc}") from None
    except TypeError as exc:  # a value of the wrong JSON type, such as "levels": 5
        raise ValueError(f"malformed needlet coefficient data: {exc}") from None


def _needlet_coeffs_csv(system, coeffs: NeedletCoeffs) -> str:
    rows = []
    for j, lv in enumerate(coeffs.levels):
        grid = system.grids[j]
        for flat, val in enumerate(lv.reshape(-1)):
            gamma = np.unravel_index(flat, lv.shape)
            xi = [f"{grid.axis_xi[ax][g]:.17g}" for ax, g in enumerate(gamma)]
            rows.append([j, flat, *xi, f"{val.real:.17g}", f"{val.imag:.17g}"])
    d = system.d
    header = ["level", "node_index"] + [f"xi_{ax + 1}" for ax in range(d)] + ["re", "im"]
    return _csv_text(header, rows)


def cmd_transform(args) -> int:
    system = system_from_config(load_config(args.system))
    if args.direction == "analyze":
        f = _coeff_fn_from_file(args.input)
        coeffs = analyze(system, f)
        if args.format == "csv":
            _write(args.out, _needlet_coeffs_csv(system, coeffs))
        else:
            _write(args.out, canonical_json(_needlet_coeffs_to_payload(coeffs)))
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            coeffs = _needlet_coeffs_from_payload(json.load(fh))
        g = synthesize(system, coeffs)
        _write(args.out, canonical_json(g.to_json_dict()))
    return 0


def _parse_q(text: str) -> float:
    return math.inf if text.lower() in ("inf", "infinity") else float(text)


def cmd_norms(args) -> int:
    params = NormParams(args.s, args.rho, _parse_q(args.p), _parse_q(args.q))
    system = system_from_config(load_config(args.system))
    f = _coeff_fn_from_file(args.input)

    def seq_for(coeffs):
        if args.space == "f-seq":
            return f_norm_seq(coeffs, params, system)
        return b_norm_seq(coeffs, params, system)

    per_level = []
    if args.space in ("f-seq", "b-seq"):
        coeffs = analyze(system, f)
        value = seq_for(coeffs)
        empty = np.zeros((0,) * system.d, dtype=f.coeffs.dtype)
        for j in range(coeffs.level_count):  # level j's box alone, every other level 0
            only = NeedletCoeffs(tuple(box if k == j else empty
                                       for k, box in enumerate(coeffs._boxes)),
                                 coeffs.system_hash, coeffs._level_shapes())
            per_level.append(seq_for(only))
    elif args.space == "F-cont":
        value = F_norm_cont(f, params, system, system.J + 1)
    else:
        value = B_norm_cont(f, params, system, system.J + 1)
    payload = {"space": args.space, "norm": value, "per_level": per_level,
               "params": {"s": params.s, "rho": params.rho, "p": params.p,
                          "q": params.q}}
    _write(args.out, canonical_json(payload))
    return 0


# ---------------------------------------------------------------- suites
#
# A suite is (cfg, **options) -> (pass, summary fields, (bundle file name,
# artifact text)); its keyword defaults are the settings `report` runs it with.


def _kernel_decay(cfg: dict, n_list=(64, 256)):
    a_hat = parse_cutoff(cfg["cutoff"])
    rows, fitted = [], {}
    for n in n_list:
        prof = kernel_decay_profile(n, cfg["alpha"][:1], a_hat, sigma=cfg["sigma"])
        fitted[str(n)] = prof["fitted_c"]
        for sep, nv, bv in zip(prof["separation"], prof["normalized_value"],
                               prof["bound_value"]):
            rows.append((n, f"{cfg['sigma']:.17g}", f"{sep:.17g}",
                         f"{nv:.17g}", f"{bv:.17g}", f"{prof['fitted_c']:.17g}"))
    cs = list(fitted.values())
    text = _csv_text(["n", "sigma", "separation", "normalized_value", "bound_value",
                      "fitted_c"], rows)
    return (max(cs) / min(cs) < 2.0,
            {"fitted_c": fitted, "tolerance": "fitted constant ratio < 2 across n"},
            ("kernel_decay.csv", text))


def _lower_bound(cfg: dict, n_list=(64, 256), delta: float = 0.5):
    a_hat, alpha = parse_cutoff(cfg["cutoff"]), cfg["alpha"][0]
    minima = {str(n): lower_bound_check(n, [alpha], a_hat, delta=delta)["minimum"]
              for n in n_list}
    vals = list(minima.values())
    payload = {"alpha": alpha, "delta": delta, "cutoff": a_hat.describe(), "minima": minima}
    return (min(vals) > 0.0 and max(vals) / min(vals) < 2.0,
            {"minima": minima, "tolerance": "positive minima, ratio < 2"},
            ("lower_bound.json", canonical_json(payload)))


def _nikolskii(cfg: dict):
    rep = nikolskii_report(cfg["alpha"][:1], n_set=(16, 64))
    ok = (rep["exponent_plain"] <= rep["theory_exponent_plain"] + 0.1
          and rep["exponent_weighted"] <= rep["theory_exponent_weighted"] + 0.1)
    figures = {key: rep[key] for key in ("exponent_plain", "exponent_weighted",
                                         "theory_exponent_plain", "theory_exponent_weighted")}
    return (ok, {**figures, "tolerance": "measured exponent <= theory + 0.1"},
            ("nikolskii.json", canonical_json(rep)))


def _equivalence(cfg: dict, params=NormParams(0.0, 0.0, 2.0, 2.0), space: str = "F",
                 count: int = 10, max_width: float = 50.0):
    system = system_from_config(cfg)
    corpus = make_test_corpus(system, count=count, seed=int(cfg["seed"]))
    rep = equivalence_report(system, params, corpus, space=space)
    rows = [(r["function_id"], f"{r['cont_norm']:.17g}", f"{r['seq_norm']:.17g}",
             f"{r['ratio']:.17g}") for r in rep["rows"]]
    return (rep["width"] <= max_width,
            {"width": rep["width"], "tolerance": f"ratio bracket width <= {max_width:g}"},
            ("equivalence.csv", _csv_text(["function_id", "cont_norm", "seq_norm", "ratio"],
                                          rows)))


def _frame_verify(cfg: dict, corrupt: bool = False):
    pair = pair_from_config(cfg)
    if corrupt:
        bad = parse_cutoff(cfg["cutoff"])
        wrecked = make_cutoff("raw", fn=lambda t: 1.3 * np.asarray(bad(t)),
                              support=bad.support, name="corrupted")
        pair = CutoffPair(pair.a_hat, wrecked, tight=False)
    system = system_from_config(cfg, pair)
    # R - I: its largest row 2-norm is the sup of max|Rf - f| / ||f||_2, and for a
    # tight pair, where R is the frame operator S, its eigenvalues are eig(S) - 1
    defect = _frame_operator(system, system.pair.b_hat)
    np.fill_diagonal(defect, defect.diagonal() - 1.0)
    recon_max = float(np.linalg.norm(defect, axis=1).max())
    config = {key: cfg[key] for key in ("J", "d", "alpha", "delta", "c_star", "cutoff", "tight")}
    report = {"config": config, "degree": system.exact_degree(),
              "reconstruction_max_err": recon_max, "tight": system.pair.tight}
    if system.pair.tight:
        report["parseval_max_err"] = float(np.abs(np.linalg.eigvalsh(defect)).max())
    report["pass"] = recon_max < RECON_TOL and report.get("parseval_max_err", 0) < PARSEVAL_TOL
    return (report["pass"], {"reconstruction_max_err": recon_max,
                             "tolerance": f"reconstruction < {RECON_TOL:g}"},
            ("frame_verify.json", canonical_json(report)))


SUITES = {"kernel-decay": _kernel_decay, "lower-bound": _lower_bound,
          "nikolskii": _nikolskii, "equivalence": _equivalence,
          "frame-verify": _frame_verify}


def _verdict(failed) -> int:
    """0 when no suite failed, else 1 with the failed suites named on stderr."""
    return _fail("failed suites: " + ",".join(failed)) if failed else 0


def _run_suite(name: str, out: str | None, cfg: dict, **options) -> int:
    """Run one suite stand-alone: its artifact goes to out, its verdict to the exit code."""
    ok, _, (_, text) = SUITES[name](cfg, **options)
    _write(out, text)
    return _verdict([] if ok else [name])


def _parse_n_list(text: str) -> list[int]:
    """The --n-list values; the ratio gates compare across n, so two distinct n are needed."""
    n_list = [int(v) for v in text.split(",")]
    if len(set(n_list)) < 2:
        raise ValueError(f"--n-list needs at least two distinct values, got {text!r}")
    return n_list


def cmd_kernel_decay(args) -> int:
    cfg = dict(CONFIG_DEFAULTS, alpha=[args.alpha], sigma=args.sigma, cutoff=args.cutoff)
    return _run_suite("kernel-decay", args.out, cfg, n_list=_parse_n_list(args.n_list))


def cmd_lower_bound(args) -> int:
    cfg = dict(CONFIG_DEFAULTS, alpha=[args.alpha], cutoff=args.cutoff)
    return _run_suite("lower-bound", args.out, cfg, n_list=_parse_n_list(args.n_list),
                      delta=args.delta)


def cmd_frame_verify(args) -> int:
    cfg = dict(CONFIG_DEFAULTS, J=args.J, d=args.d,
               alpha=[float(v) for v in args.alpha.split(",")], delta=args.delta, tight=args.tight)
    return _run_suite("frame-verify", args.out, cfg, corrupt=args.corrupt)


def cmd_equivalence_report(args) -> int:
    cfg = load_config(args.config)
    params = NormParams(args.s, args.rho, _parse_q(args.p), _parse_q(args.q))
    return _run_suite("equivalence", args.out, cfg, params=params, space=args.space,
                      count=20, max_width=args.max_width)


def cmd_report(args) -> int:
    cfg = load_config(args.config)
    only = args.only.split(",") if args.only else list(SUITES)
    for name in only:
        if name not in SUITES:
            return _fail(f"unknown suite {name!r}; choose from {tuple(SUITES)}", 2)
    out_dir = args.out or os.path.join(
        os.environ.get("LAGNEED_CACHE_DIR", "."), "lagneed-report")
    os.makedirs(out_dir, exist_ok=True)

    summary = {}
    for name, suite in SUITES.items():
        if name in only:
            ok, fields, (file_name, text) = suite(cfg)
            _write(os.path.join(out_dir, file_name), text)
            summary[name] = {"pass": ok, **fields}
    failed = [name for name, fields in summary.items() if not fields["pass"]]

    _write(os.path.join(out_dir, "config.resolved"), render_config_text(cfg))
    _write(os.path.join(out_dir, "summary.json"),
           canonical_json({"suites": summary, "exit_status": int(bool(failed))}))
    _write(os.path.join(out_dir, "meta.sidecar.json"),
           json.dumps({"timestamp": time.time(), "version": __version__}))
    sys.stdout.write(canonical_json({"out_dir": out_dir, "suites": summary}) + "\n")
    return _verdict(failed)


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors reach main() as ValueError, so they exit 2
    with the same JSON line on stderr as every other usage error."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lagneed",
        description="Laguerre needlet frames: quadrature, kernels, transforms, norms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quadrature", help="emit a Gauss-Laguerre rule")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_quadrature)

    p = sub.add_parser("grid", help="emit a level-j cubature grid")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--alpha", required=True, help="comma-separated per-axis values")
    p.add_argument("--delta", type=float, default=0.03)
    p.add_argument("--c-star", dest="c_star", type=float, default=1.0)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("kernel-eval", help="evaluate the localized kernel on points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--cutoff", default="frame_default")
    p.add_argument("--x", required=True, help="first argument, comma-separated")
    p.add_argument("--points", required=True,
                   help="semicolon-separated second arguments")
    p.set_defaults(func=cmd_kernel_eval)

    p = sub.add_parser("kernel-decay", help="off-diagonal decay diagnostics (CSV)")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=6.0)
    p.add_argument("--n-list", dest="n_list", default="64,256")
    p.add_argument("--cutoff", default="frame_default")
    p.set_defaults(func=cmd_kernel_decay)

    p = sub.add_parser("lower-bound", help="on-diagonal lower-bound sweep")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--n-list", dest="n_list", default="64,256")
    p.add_argument("--cutoff", default="frame_default")
    p.set_defaults(func=cmd_lower_bound)

    p = sub.add_parser("frame-verify", help="reconstruction and Parseval checks")
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--alpha", required=True)
    p.add_argument("--delta", type=float, default=0.03)
    p.add_argument("--tight", action="store_true")
    p.add_argument("--corrupt", action="store_true",
                   help="deliberately break the synthesis cut-off (negative control)")
    p.set_defaults(func=cmd_frame_verify)

    p = sub.add_parser("transform", help="needlet analysis / synthesis")
    p.add_argument("direction", choices=("analyze", "synthesize"))
    p.add_argument("--system", required=True, help="system config file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("norms", help="sequence / continuous norms of a coefficient file")
    p.add_argument("--space", choices=("f-seq", "b-seq", "F-cont", "B-cont"),
                   required=True)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--p", default="2")
    p.add_argument("--q", default="2")
    p.add_argument("--system", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("equivalence-report", help="continuous vs sequence norm ratios")
    p.add_argument("--config", required=True)
    p.add_argument("--space", choices=("F", "B"), default="F",
                   help="F: Triebel-Lizorkin norms (p < inf), B: Besov norms")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--p", default="2")
    p.add_argument("--q", default="2")
    p.add_argument("--max-width", dest="max_width", type=float, default=50.0)
    p.set_defaults(func=cmd_equivalence_report)

    p = sub.add_parser("report", help="run the diagnostic suites into a bundle")
    p.add_argument("--config", required=True)
    p.add_argument("--only", default=None, help="comma-separated suite names")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, ResourceWarning) as exc:
        return _fail(str(exc), 2)
    except ArithmeticError as exc:
        return _fail(str(exc), 1)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
