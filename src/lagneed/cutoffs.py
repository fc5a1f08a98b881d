"""Admissible cut-off functions and dual / tight pairs for band decompositions.

A cut-off is a compactly supported C-infinity function on [0, inf) built from
the standard mollifier exp(-1/t).  Two families are provided:

* ``type_a``: equal to 1 on [0, 1], supported in [0, 1+v];
* ``type_b``: supported in [u, 1+v] with 0 < u < 1, rising and falling over
  configurable ramp widths.

``make_dual_pair`` turns a frame-grade cut-off (support inside [1/4, 4],
bounded away from zero on [1/3, 3]) into a pair (a, b) whose dilates by
powers of 4 form an exact partition of unity on [1, inf), or into the tight
normalization with b = a >= 0 and squared partition of unity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from ._jets import jet_div, jet_mul, jet_rescale_arg, jet_sqrt, smoothstep_jet

__all__ = [
    "CutoffSpec",
    "CutoffPair",
    "make_cutoff",
    "make_dual_pair",
    "frame_default",
    "frame_alt",
]

DEFAULT_ORDER = 12


def _smoothstep(u):
    """Vectorized s(u) = m(u)/(m(u)+m(1-u)) with m(t)=exp(-1/t) for t>0."""
    u = np.asarray(u, dtype=float)
    lo = u <= 0.0
    hi = u >= 1.0
    mid = ~(lo | hi)
    out = np.where(hi, 1.0, 0.0)
    if np.any(mid):
        um = u[mid]
        a = np.exp(-1.0 / um)
        b = np.exp(-1.0 / (1.0 - um))
        out[mid] = a / (a + b)
    return out


class CutoffSpec:
    """A smooth cut-off with closed-form values and Taylor-jet derivatives."""

    def __init__(self, kind, params, support, value_fn, jet_fn, *,
                 nonneg=True, max_order=DEFAULT_ORDER):
        self.kind = kind
        self.params = dict(params)
        self.support = (float(support[0]), float(support[1]))
        self.nonneg = bool(nonneg)
        self.max_order = int(max_order)
        self._value_fn = value_fn
        self._jet_fn = jet_fn

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        vals = self._value_fn(t_arr)
        if np.ndim(t) == 0:
            return float(vals)
        return vals

    def jet(self, t: float, order: int | None = None) -> np.ndarray:
        """Taylor coefficients [f, f', f''/2!, ...] at t, length order+1."""
        k = self.max_order if order is None else int(order)
        if k > self.max_order:
            raise ValueError(f"jet order {k} exceeds available order {self.max_order}")
        return self._jet_fn(float(t), k)

    def derivative(self, t: float, order: int = 1) -> float:
        return float(self.jet(t, order)[order] * math.factorial(order))

    def describe(self) -> str:
        items = ",".join(
            f"{k}={v:.17g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(self.params.items()))
        return f"{self.kind}({items})"

    def __repr__(self):
        return f"CutoffSpec<{self.describe()}, supp={self.support}>"


def make_cutoff(kind: str, **params) -> CutoffSpec:
    """Build an admissible cut-off of the requested kind.

    kind="type_a": params v (>0).  Equal to 1 on [0,1], falls to 0 over [1, 1+v].
    kind="type_b": params u, v and optional ramp widths rise, fall.
        Rises from 0 at u over [u, u+rise], falls to 0 over [1+v-fall, 1+v].
    kind="raw": params fn (callable), support=(lo, hi); optional jet_fn, name.
        Without jet_fn, derivatives come from central finite differences.
    A parameter name the kind does not read is an error.
    """
    names = {"type_a": {"v"}, "type_b": {"u", "v", "rise", "fall"},
             "raw": {"fn", "support", "name", "jet_fn", "nonneg"}}
    if kind not in names:
        raise ValueError(f"unknown cut-off kind {kind!r}")
    unknown = sorted(set(params) - names[kind])
    if unknown:
        raise ValueError(f"cut-off kind {kind!r} has no parameter {', '.join(unknown)}")
    if kind == "type_a":
        v = float(params.get("v", 1.0))
        if v <= 0.0:
            raise ValueError("type_a requires v > 0")

        def value(t):
            return np.where(t < 0.0, 0.0, 1.0 - _smoothstep((t - 1.0) / v))

        def jet(t, k):
            out = -jet_rescale_arg(smoothstep_jet((t - 1.0) / v, k), 1.0 / v)
            out[0] += 1.0
            return out

        return CutoffSpec("type_a", {"v": v}, (0.0, 1.0 + v), value, jet)

    if kind == "type_b":
        u = float(params.get("u", 0.25))
        v = float(params.get("v", 3.0))
        if not (0.0 < u < 1.0) or v <= 0.0:
            raise ValueError("type_b requires 0 < u < 1 and v > 0")
        rise = float(params.get("rise", min(1.0 / 12.0, (1.0 - u) / 2.0)))
        fall = float(params.get("fall", min(1.0, v / 2.0)))
        if rise <= 0.0 or fall <= 0.0 or u + rise >= 1.0 + v - fall:
            raise ValueError("type_b ramps must be positive and non-overlapping")
        fall_start = 1.0 + v - fall

        def value(t):
            return _smoothstep((t - u) / rise) * (1.0 - _smoothstep((t - fall_start) / fall))

        def jet(t, k):
            up = jet_rescale_arg(smoothstep_jet((t - u) / rise, k), 1.0 / rise)
            dn = -jet_rescale_arg(smoothstep_jet((t - fall_start) / fall, k), 1.0 / fall)
            dn[0] += 1.0
            return jet_mul(up, dn)

        return CutoffSpec("type_b", {"u": u, "v": v, "rise": rise, "fall": fall},
                          (u, 1.0 + v), value, jet)

    # kind == "raw"
    fn = params["fn"]
    support = params["support"]
    name = params.get("name", "anonymous")
    jet_fn = params.get("jet_fn")

    def value(t):
        return np.asarray(fn(t), dtype=float)

    if jet_fn is None:
        def jet(t, k, _fn=fn):
            # finite-difference fallback; adequate for diagnostics only
            out = np.zeros(k + 1)
            out[0] = float(_fn(t))
            h = 1e-3
            for order in range(1, k + 1):
                pts = np.arange(-order, order + 1)
                w = _fd_weights(pts, order)
                out[order] = float(np.dot(w, [_fn(t + p * h) for p in pts])) / (
                    h ** order * math.factorial(order))
            return out
    else:
        jet = jet_fn

    return CutoffSpec("raw", {"name": name}, support, value, jet,
                      nonneg=bool(params.get("nonneg", False)))


def _fd_weights(points: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the given derivative order on integer points."""
    n = len(points)
    A = np.vander(points, n, increasing=True).T.astype(float)
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(A, rhs)


def frame_default() -> CutoffSpec:
    """Frame-grade cut-off: supp [1/4, 4], identically 1 on [1/3, 3]."""
    return make_cutoff("type_b", u=0.25, v=3.0, rise=1.0 / 12.0, fall=1.0)


def frame_alt() -> CutoffSpec:
    """A second admissible cut-off with different ramps, for swap tests."""
    return make_cutoff("type_b", u=0.25, v=2.9, rise=0.1, fall=1.1)


@dataclass
class CutoffPair:
    """Dual pair (a, b) with sum_m conj(a(4^-m t)) b(4^-m t) = 1 on [1, inf)."""

    a_hat: CutoffSpec
    b_hat: CutoffSpec
    tight: bool = False

    def describe(self) -> str:
        tag = "tight" if self.tight else "dual"
        return f"{tag}[{self.a_hat.describe()}|{self.b_hat.describe()}]"

    def partition_residual(self, t):
        """max |sum_m conj(a(4^-m t)) b(4^-m t) - 1|, m = 0..39, over the given t >= 1."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        acc = np.zeros_like(t)
        for m in range(40):
            tm = t / 4.0 ** m
            acc += np.conj(self.a_hat(tm)) * self.b_hat(tm)
        return float(np.max(np.abs(acc - 1.0)))


def _dilation_hits(spec: CutoffSpec, t: float):
    """Integer m with 4^m * t inside the open support of spec."""
    lo, hi = spec.support
    if t <= 0.0:
        return []
    m_lo = math.floor(math.log(lo / t, 4.0)) if lo > 0 else -60
    m_hi = math.ceil(math.log(hi / t, 4.0))
    return [m for m in range(m_lo - 1, m_hi + 2) if lo < (4.0 ** m) * t < hi]


def _dilation_sum_sq(spec: CutoffSpec, t):
    """D(t) = sum_{m in Z} a(4^m t)^2, vectorized (finitely many terms)."""
    t = np.asarray(t, dtype=float)
    lo, hi = spec.support
    pos = t[t > 0.0]
    if pos.size == 0:
        return np.zeros_like(t)
    m_lo = math.floor(math.log(lo / float(np.max(pos)), 4.0)) - 1
    m_hi = math.ceil(math.log(hi / float(np.min(pos)), 4.0)) + 1
    acc = np.zeros_like(t)
    for m in range(m_lo, m_hi + 1):
        vals = spec(np.where(t > 0.0, t * 4.0 ** m, -1.0))
        acc += np.square(vals)
    return acc


def _dilation_sum_sq_jet(spec: CutoffSpec, t: float, order: int) -> np.ndarray:
    acc = np.zeros(order + 1)
    for m in _dilation_hits(spec, t):
        s = 4.0 ** m
        aj = spec.jet(s * t, order)
        acc += jet_rescale_arg(jet_mul(aj, aj), s)
    return acc


def make_dual_pair(a_hat: CutoffSpec, tight: bool = False) -> CutoffPair:
    """Construct the dual (or tight) companion of a frame-grade cut-off.

    Requires supp a inside [1/4, 4], |a| > 0 on [1/3, 3], and
    D(t) = sum_m a(4^m t)^2 > 0 on one dilation period.  The returned pair
    satisfies the partition of unity on [1, inf) exactly by construction.
    """
    lo, hi = a_hat.support
    if lo < 0.25 - 1e-12 or hi > 4.0 + 1e-12:
        raise ValueError(f"support {a_hat.support} not inside [1/4, 4]")
    probe = np.linspace(1.0 / 3.0, 3.0, 2001)
    amin = float(np.min(np.abs(a_hat(probe))))
    if amin <= 0.0:
        raise ValueError("cut-off vanishes on [1/3, 3]; not frame-grade")
    period = np.linspace(1.0, 4.0, 4001)
    dvals = _dilation_sum_sq(a_hat, period)
    i_bad = int(np.argmin(dvals))
    if dvals[i_bad] <= 0.0:
        raise ValueError(f"dilation sum vanishes at t={period[i_bad]:.6g}")
    if tight and not a_hat.nonneg:
        raise ValueError("tight normalization requires a nonnegative cut-off")

    # already self-dual (a^2 partition): keep b = a and flag tight
    if not tight and a_hat.nonneg and abs(float(np.max(dvals)) - 1.0) < 1e-12 \
            and abs(float(np.min(dvals)) - 1.0) < 1e-12:
        return CutoffPair(a_hat, a_hat, tight=True)

    # the companion is a / sqrt(D) (tight, on both sides) or b = a / D (dual)
    root, jet_root = (np.sqrt, jet_sqrt) if tight else (lambda d: d, lambda d: d)
    sup = a_hat.support

    def value(t, _a=a_hat):
        t = np.asarray(t, dtype=float)
        inside = (t > sup[0]) & (t < sup[1])
        d = _dilation_sum_sq(_a, np.where(inside, t, 1.0))
        return np.where(inside, _a(t) / root(d), 0.0)

    def jet(t, k, _a=a_hat):
        if not (sup[0] < t < sup[1]):
            return np.zeros(k + 1)
        return jet_div(_a.jet(t, k), jet_root(_dilation_sum_sq_jet(_a, t, k)))

    companion = CutoffSpec(("tight_of_" if tight else "dual_of_") + a_hat.kind, a_hat.params,
                           sup, value, jet, nonneg=a_hat.nonneg, max_order=a_hat.max_order)
    return CutoffPair(companion if tight else a_hat, companion, tight=tight)
