"""Localized kernels built from cut-off filtered Laguerre expansions.

Each kernel at one point pair is one filtered sum, sum_m w_m * (degree-m
kernel at (x, y)), written once in ``_filtered_sum``: ``lambda_kernel``
(w_m = a(m/n), n >= 1), its x-derivative ``lambda_deriv``, and the level
kernel of ``evaluate_needlet``.  ``lambda_tilde`` and ``lambda_star`` follow
from ``lambda_kernel`` by exact pointwise relations to the families L and M.
``lambda_kernel_profile`` is the vectorized univariate path of the
off-diagonal decay diagnostic; the other diagnostic measures the on-diagonal
lower bound.
"""

from __future__ import annotations

import math

import numpy as np

from .cutoffs import CutoffSpec
from .special import (as_alpha, laguerre_fn_batch, total_degree_grid, _cached, _fold,
                      _kernel_table, _outer)
from .quadrature import _axis_W

__all__ = [
    "lambda_kernel",
    "lambda_tilde",
    "lambda_star",
    "lambda_deriv",
    "kernel_decay_profile",
    "lower_bound_check",
]


def _level_scale(j: int) -> int:
    """Dilation 4^(j-1) of the level-j filters; 0 at level 0, whose filter is
    the degree-0 projector (see ``cutoff_weights``)."""
    if j < 0:
        raise ValueError("level must be nonnegative")
    return 4 ** (j - 1) if j >= 1 else 0


def _top_degree(a_hat: CutoffSpec, scale: float) -> int:
    """Largest degree the filter a(./scale) can touch: floor(scale * sup supp)."""
    return int(math.floor(a_hat.support[1] * scale))


def cutoff_weights(a_hat: CutoffSpec, scale: float, top: int | None = None) -> np.ndarray:
    """Filter weights a(m/scale) for m = 0..top, zero above the filter's top
    degree floor(scale * sup supp), which is also the default top.

    Scale 0 stands for level 0: the degree-0 projector (1, 0, ..., 0).
    """
    if scale < 0.0:
        raise ValueError("scale must be nonnegative")
    deg = _top_degree(a_hat, scale)
    w = np.zeros((deg if top is None else top) + 1)
    m = np.arange(min(deg + 1, len(w)))
    w[: len(m)] = a_hat(m / scale) if scale else 1.0
    return w


def _cached_weights(a_hat: CutoffSpec, scale: float) -> np.ndarray:
    """Read-only ``cutoff_weights`` up to the filter's top degree, kept in the registry
    so a is evaluated once per scale."""
    return _cached(("filter-weights", a_hat, scale), lambda: cutoff_weights(a_hat, scale))


def _filter_band(a_hat: CutoffSpec, scale: float) -> tuple[int, int]:
    """First and last degree m with a(m/scale) != 0, (1, 0) if none; kept in the registry."""
    def make():
        live = np.flatnonzero(_cached_weights(a_hat, scale))
        return (int(live[0]), int(live[-1])) if live.size else (1, 0)

    return _cached(("filter-band", a_hat, scale), make)


def _filter_degrees(block: np.ndarray, a_hat: CutoffSpec, scale: float,
                    degrees: np.ndarray | None = None, corner: int = 0) -> np.ndarray:
    """block * a(|nu|/scale) for a coefficient block whose first entry has total degree
    ``corner``; ``degrees`` is the block's total-degree grid counted from that entry,
    built here when None."""
    grid = total_degree_grid(block.shape) if degrees is None else degrees
    return block * _degree_weights(a_hat, scale, grid, corner)


def _degree_weights(a_hat: CutoffSpec, scale: float, degrees: np.ndarray,
                    corner: int = 0) -> np.ndarray:
    """a(|nu|/scale) as a new array on a block with the total-degree grid ``degrees``,
    counted from its first entry, whose total degree is ``corner``; the degrees past
    the filter's top read 0."""
    w = _cached_weights(a_hat, scale)
    past = corner + sum(degrees.shape) - degrees.ndim + 1 - len(w)  # degrees past the top
    return np.concatenate((w, np.zeros(max(0, past))))[corner:][degrees]


def _point(x, d):
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.size != d:
        raise ValueError(f"expected a point of dimension {d}, got {pt.size}")
    return pt


def _kernel_weights(a_hat: CutoffSpec, n: int) -> np.ndarray:
    """Weights a(m/n) of the public kernels, where a(m/0) is undefined."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return cutoff_weights(a_hat, n)


def _filtered_sum(w: np.ndarray, alpha, x, y, deriv_axis: int | None = None) -> float:
    """sum_m w[m] * (degree-m kernel at (x, y)), degrees 0..len(w)-1; see
    ``special._kernel_table`` for the derivative axis."""
    return float(math.fsum(w * _kernel_table(len(w) - 1, alpha, x, y, deriv_axis)))


def lambda_kernel(n: int, alpha, a_hat: CutoffSpec, x, y) -> float:
    """Filtered kernel sum_m a(m/n) * (degree-m projector at (x, y))."""
    return _filtered_sum(_kernel_weights(a_hat, n), alpha, x, y)


def lambda_kernel_profile(n: int, alpha, a_hat: CutoffSpec, x0: float, ys) -> np.ndarray:
    """Univariate kernel values against many second arguments at once."""
    av = as_alpha(alpha)
    if av.d != 1:
        raise ValueError("profile evaluation is univariate")
    w = _kernel_weights(a_hat, n)
    ys = np.asarray(ys, dtype=float)
    # one recurrence over x0 and the ys, since at these sizes a call costs per step, not
    # per point; the ys' rows are copied out, as BLAS sums a strided vector in another order
    rows = laguerre_fn_batch(len(w) - 1, av[0], np.append(float(x0), ys), "F")
    fy = np.ascontiguousarray(rows[:, 1:]).reshape(len(w), *ys.shape)
    return (w * rows[:, 0]) @ fy


def lambda_tilde(n: int, alpha, a_hat: CutoffSpec, x, y) -> float:
    """Filtered kernel for the unweighted half-line family (L).

    Evaluated through the exact relation to ``lambda_kernel``:
    2^(-d) * Lambda(sqrt x, sqrt y) * prod (x_i y_i)^(alpha_i / 2).
    Requires strictly positive coordinates when any alpha_i > 0.
    """
    av = as_alpha(alpha)
    xs, ys = _point(x, av.d), _point(y, av.d)
    if np.any(xs < 0.0) or np.any(ys < 0.0):
        raise ValueError("points must be nonnegative")
    a_arr = np.asarray(av.alpha)
    base = lambda_kernel(n, av, a_hat, np.sqrt(xs), np.sqrt(ys))
    factor = float(np.prod(xs ** (0.5 * a_arr)) * np.prod(ys ** (0.5 * a_arr)))
    return 0.5 ** av.d * base * factor


def lambda_star(n: int, alpha, a_hat: CutoffSpec, x, y) -> float:
    """Filtered kernel for the square-root-substituted family (M):
    Lambda(x, y) * prod (x_i y_i)^(alpha_i + 1/2)."""
    av = as_alpha(alpha)
    xs, ys = _point(x, av.d), _point(y, av.d)
    a_arr = np.asarray(av.alpha)
    base = lambda_kernel(n, av, a_hat, xs, ys)
    factor = float(np.prod((xs * ys) ** (a_arr + 0.5)))
    return base * factor


def lambda_deriv(n: int, alpha, a_hat: CutoffSpec, x, y, r: int) -> float:
    """Partial derivative of lambda_kernel in the r-th coordinate of x (1-based)."""
    av = as_alpha(alpha)
    if not 1 <= r <= av.d:
        raise ValueError(f"axis {r} out of range for dimension {av.d}")
    return _filtered_sum(_kernel_weights(a_hat, n), av, x, y, deriv_axis=r - 1)


def kernel_decay_profile(n: int, alpha, a_hat: CutoffSpec, sigma: float = 6.0) -> dict:
    """Measure normalized off-diagonal decay of the univariate kernel at x0 = 1.

    For separations h the normalized value is
    |Lambda_n(x0, x0+h)| sqrt(W(n;x0) W(n;x0+h)) / n^(1/2); the fitted
    constant is the max of normalized * (1 + sqrt(n) h)^sigma over the
    profile, so the fitted envelope dominates every measured point.

    The separations are log-spaced in the scale-invariant variable
    u = sqrt(n) h over [1/4, 12]; in that window the dimensionless profile
    has converged in n and the fitted constant is n-stable.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    av = as_alpha(alpha)
    if av.d != 1:
        raise ValueError("decay profile is a univariate diagnostic")
    x0 = 1.0
    seps = np.geomspace(0.25, 12.0, 60) / math.sqrt(n)
    ys = x0 + seps
    vals = lambda_kernel_profile(n, av, a_hat, x0, ys)
    w_x0 = _axis_W(n, av[0], np.array([x0]))
    w_ys = _axis_W(n, av[0], ys)
    normalized = np.abs(vals) * np.sqrt(w_x0 * w_ys) / math.sqrt(n)
    growth = (1.0 + math.sqrt(n) * seps) ** sigma
    fitted_c = float(np.max(normalized * growth))
    return {
        "n": n,
        "sigma": float(sigma),
        "x0": float(x0),
        "separation": seps,
        "normalized_value": normalized,
        "bound_value": fitted_c / growth,
        "fitted_c": fitted_c,
    }


def lower_bound_check(n: int, alpha, a_hat: CutoffSpec, delta: float = 0.5,
                      points_per_axis: int | None = None) -> dict:
    """Minimum of the normalized on-diagonal energy over [0, sqrt((4-d)n)]^d.

    The quantity is sum_m |a(m/n)|^2 F_m(x,x) * W(n;x) / n^(d/2); the frame
    lower bound predicts a positive, n-stable minimum.  The degree-filtered
    block of |a|^2 is folded into per-axis tables of F_k(x_i)^2.
    """
    av = as_alpha(alpha)
    if delta <= 0.0 or delta >= 4.0:
        raise ValueError("delta must lie in (0, 4)")
    if av.d > 2:
        # the filtered block holds (M+1)^d entries with M about 4n
        raise NotImplementedError("lower-bound sweep implemented for d <= 2")
    M = _top_degree(a_hat, n)
    upper = math.sqrt((4.0 - delta) * n)
    if points_per_axis is None:
        points_per_axis = max(200, int(12 * n ** 0.5)) if av.d == 1 else 48
    xs = np.linspace(0.0, upper, points_per_axis)
    w2 = np.square(_filter_degrees(np.ones((M + 1,) * av.d), a_hat, n))
    diag = _fold(w2, [np.square(laguerre_fn_batch(M, a, xs, "F")) for a in av])
    wts = _outer([_axis_W(n, a, xs) for a in av])
    vals = diag * wts / math.sqrt(n) ** av.d
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    return {"n": n, "delta": float(delta), "minimum": float(vals[idx]),
            "argmin": tuple(float(xs[i]) for i in idx), "values": vals, "grid": xs}
