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

The paper asks of a cut-off only that it be C-infinity with the stated
support, and every consumer (the filters, the companions, the partition
residual and the frame operator) reads only its values, so a cut-off is its
vectorized value function, its support and its parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

__all__ = [
    "CutoffSpec",
    "CutoffPair",
    "make_cutoff",
    "make_dual_pair",
    "frame_default",
    "frame_alt",
]


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
    """A smooth cut-off, known by its closed-form values on [0, inf)."""

    def __init__(self, kind, params, support, value_fn, *, nonneg=True):
        self.kind = kind
        self.params = dict(params)
        self.support = (float(support[0]), float(support[1]))
        self.nonneg = bool(nonneg)
        self._value_fn = value_fn

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        vals = self._value_fn(t_arr)
        if np.ndim(t) == 0:
            return float(vals)
        return vals

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
    kind="raw": params fn (callable), support=(lo, hi); optional name, nonneg.
    A parameter name the kind does not read is an error.
    """
    names = {"type_a": {"v"}, "type_b": {"u", "v", "rise", "fall"},
             "raw": {"fn", "support", "name", "nonneg"}}
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

        return CutoffSpec("type_a", {"v": v}, (0.0, 1.0 + v), value)

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

        return CutoffSpec("type_b", {"u": u, "v": v, "rise": rise, "fall": fall},
                          (u, 1.0 + v), value)

    # kind == "raw"
    fn = params["fn"]
    support = params["support"]
    name = params.get("name", "anonymous")

    def value(t):
        return np.asarray(fn(t), dtype=float)

    return CutoffSpec("raw", {"name": name}, support, value,
                      nonneg=bool(params.get("nonneg", False)))


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
    root = np.sqrt if tight else (lambda d: d)
    sup = a_hat.support

    def value(t, _a=a_hat):
        t = np.asarray(t, dtype=float)
        inside = (t > sup[0]) & (t < sup[1])
        d = _dilation_sum_sq(_a, np.where(inside, t, 1.0))
        return np.where(inside, _a(t) / root(d), 0.0)

    companion = CutoffSpec(("tight_of_" if tight else "dual_of_") + a_hat.kind, a_hat.params,
                           sup, value, nonneg=a_hat.nonneg)
    return CutoffPair(companion if tight else a_hat, companion, tight=tight)
