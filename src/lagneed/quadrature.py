"""Gauss-Laguerre quadrature, Christoffel functions, and the exponentially
rescaled tensor cubature on the positive orthant with its level grids and
tiles.

Nodes are eigenvalues of the symmetric tridiagonal Jacobi matrix, polished
by a few Newton steps whose derivative comes from the same-alpha identity
t L_n' = n L_n - (n+a) L_{n-1}, so one streaming pass of the damped
recurrence gives both factors.  Cubature coefficients come from the
Christoffel sum of damped orthonormal values, accumulated row by row, which
neither overflows nor underflows; classical Gauss weights are kept in log
form.  Rules and grids are kept in bounded caches; their arrays are
read-only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .special import AlphaVector, as_alpha, _damped_rows, _outer

__all__ = [
    "QuadratureRule",
    "CubatureGrid",
    "Tile",
    "gauss_laguerre",
    "christoffel",
    "level_node_count",
    "cubature_grid",
    "cubature_integrate",
    "weight_W",
    "tile_measure",
    "calibrate_c_star",
]

GRID_POINT_CAP = 10_000_000


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Laguerre rule for weight t^alpha e^(-t), plus rescaled data.

    nodes      : zeros of the degree-n Laguerre polynomial, increasing
    log_weights: log of the classical Gauss weights
    cub_coeffs : c_nu = (1/2) * weight * exp(node); O(1)-sized, stored directly
    sqrt_nodes : square roots of the nodes (cubature abscissae)
    """

    n: int
    alpha: float
    nodes: np.ndarray
    log_weights: np.ndarray
    cub_coeffs: np.ndarray
    sqrt_nodes: np.ndarray


def _newton_polish(n: int, alpha: float, t: np.ndarray, sweeps: int = 3) -> np.ndarray:
    """Refine Laguerre zeros: t <- t + t q_n / (sqrt(n(n+a)) q_{n-1} - n q_n).

    This is the exact Newton step -L_n / L_n' with t L_n' = n L_n - (n+a) L_{n-1},
    written in the damped orthonormal values q_{n-1}, q_n: the last two rows
    of one same-alpha pass, so only O(n) values are held at a time.
    """
    root = math.sqrt(n * (n + alpha))
    for _ in range(sweeps):
        qd, qn = deque(_damped_rows(n, alpha, t), maxlen=2)
        step = t * qn / (root * qd - n * qn)
        t_new = t + step
        if np.max(np.abs(step) / np.maximum(t, 1e-300)) < 1e-15:
            t = t_new
            break
        t = t_new
    return t


@lru_cache(maxsize=256)
def _gauss_laguerre_cached(n: int, alpha: float) -> QuadratureRule:
    diag = 2.0 * np.arange(n) + alpha + 1.0
    k = np.arange(1, n, dtype=float)
    off = np.sqrt(k * (k + alpha))
    try:
        nodes = eigh_tridiagonal(diag, off, eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defect path
        raise ArithmeticError(f"tridiagonal eigensolver failed for n={n}: {exc}")
    nodes = np.sort(nodes)
    nodes = _newton_polish(n, alpha, nodes)
    if not np.all(np.diff(nodes) > 0.0) or nodes[0] <= 0.0:
        raise ArithmeticError(f"eigensolver produced invalid nodes for n={n}, alpha={alpha}")

    log_lam, lam_exp = christoffel(n, alpha, nodes)
    arrays = (nodes, log_lam, 0.5 * lam_exp, np.sqrt(nodes))
    for a in arrays:
        a.flags.writeable = False
    return QuadratureRule(n, float(alpha), *arrays)


def gauss_laguerre(n: int, alpha: float) -> QuadratureRule:
    """Gauss-Laguerre rule with n nodes for weight t^alpha e^(-t)."""
    if n < 1:
        raise ValueError("node count must be at least 1")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    return _gauss_laguerre_cached(int(n), float(alpha))


def christoffel(n: int, alpha: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel function of the first n orthonormal Laguerre polynomials.

    Returns (log lambda_n(x), lambda_n(x) * exp(x)); the second form is the
    numerically safe one and equals 1 / sum_{j<n} q_j(x)^2.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("points must be nonnegative")
    kernel_diag = sum(np.square(row) for row in _damped_rows(n - 1, alpha, x_arr.reshape(-1)))
    lam_exp = 1.0 / kernel_diag.reshape(x_arr.shape)
    log_lam = np.log(lam_exp) - x_arr
    if np.ndim(x) == 0:
        return float(log_lam), float(lam_exp)
    return log_lam, lam_exp


def level_node_count(j: int, delta: float = 0.03, c_star: float = 1.0) -> int:
    """Per-axis node count n_j = floor((1+11 delta) sqrt(6) 4^j / c_star) + 1."""
    if not (0.0 < delta < 1.0 / 26.0):
        raise ValueError("delta must lie in (0, 1/26)")
    if not (0.0 < c_star <= 1.0):
        raise ValueError("c_star must lie in (0, 1]")
    return int(math.floor((1.0 + 11.0 * delta) * math.sqrt(6.0) * 4.0 ** j / c_star)) + 1


def calibrate_c_star(alpha: float, n_ref: int = 512) -> float:
    """Empirical lower constant in t_nu ~ nu^2/n, clamped into (0, 1]."""
    rule = gauss_laguerre(n_ref, alpha)
    nu = np.arange(1, n_ref + 1, dtype=float)
    c = float(np.min(rule.nodes * n_ref / nu ** 2))
    return min(max(c, 1e-6), 1.0)


@dataclass(frozen=True)
class Tile:
    """Rectangular cell around a grid point with its weighted measure."""

    center: tuple[float, ...]
    box: tuple[tuple[float, float], ...]

    def measure(self, alpha) -> float:
        return tile_measure(self.box, alpha)


def tile_measure(box, alpha) -> float:
    """Closed-form w_alpha measure of a box: prod (b^(2a+2)-a^(2a+2))/(2a+2)."""
    av = as_alpha(alpha)
    box = tuple((float(a), float(b)) for a, b in box)
    if len(box) != av.d:
        raise ValueError("box dimension does not match alpha")
    val = 1.0
    for (lo, hi), a in zip(box, av):
        if not (0.0 <= lo < hi):
            raise ValueError(f"inverted or negative box side ({lo}, {hi})")
        p = 2.0 * a + 2.0
        val *= (hi ** p - lo ** p) / p
    return val


class CubatureGrid:
    """Level-j tensor cubature grid with coefficients and tiles.

    The grid is the tensor product of per-axis rescaled Gauss-Laguerre
    abscissae xi = sqrt(t); the cubature integrates f*g exactly against
    w_alpha whenever f, g are Laguerre-function polynomials whose degrees
    sum to at most 2 n_j - 1.
    """

    def __init__(self, j, alpha: AlphaVector, delta, c_star, rules,
                 right_extension=None):
        self.j = int(j)
        self.alpha = alpha
        self.d = alpha.d
        self.delta = float(delta)
        self.c_star = float(c_star)
        self.n_j = rules[0].n
        self._rules = tuple(rules)
        ext = 2.0 ** (self.j / 3.0) if right_extension is None else float(right_extension)
        self.right_extension = ext

        self.axis_xi = tuple(r.sqrt_nodes for r in self._rules)
        self.axis_c = tuple(r.cub_coeffs for r in self._rules)
        self.axis_breaks = tuple(self._breaks(xi, ext) for xi in self.axis_xi)
        self.axis_tile_measure = tuple(
            self._axis_measures(br, a) for br, a in zip(self.axis_breaks, self.alpha))
        for arr in self.axis_breaks + self.axis_tile_measure:
            arr.flags.writeable = False

    @staticmethod
    def _breaks(xi: np.ndarray, ext: float) -> np.ndarray:
        mids = 0.5 * (xi[:-1] + xi[1:])
        return np.concatenate(([0.0], mids, [0.5 * (xi[-1] + xi[-1] + ext)]))

    @staticmethod
    def _axis_measures(breaks: np.ndarray, a: float) -> np.ndarray:
        """Closed-form w_alpha measures (hi^p - lo^p)/p, p = 2a+2, of the
        intervals between consecutive breakpoints on one axis."""
        p = 2.0 * a + 2.0
        return np.diff(breaks ** p) / p

    @property
    def point_count(self) -> int:
        return self.n_j ** self.d

    def points(self) -> np.ndarray:
        """All grid points, shape (n_j^d, d), in lexicographic gamma order."""
        mesh = np.meshgrid(*self.axis_xi, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def coeffs(self) -> np.ndarray:
        """Cubature coefficients c_gamma in the same order as points()."""
        return _outer(self.axis_c).reshape(-1)

    def tile_measures(self) -> np.ndarray:
        """w_alpha measures of all tiles, same ordering as points()."""
        return _outer(self.axis_tile_measure).reshape(-1)

    def tile(self, gamma) -> Tile:
        gamma = tuple(int(g) for g in gamma)
        if len(gamma) != self.d or any(not 0 <= g < self.n_j for g in gamma):
            raise IndexError(f"tile index {gamma} out of range for n_j={self.n_j}")
        box = tuple((float(self.axis_breaks[ax][g]), float(self.axis_breaks[ax][g + 1]))
                    for ax, g in enumerate(gamma))
        center = tuple(float(self.axis_xi[ax][g]) for ax, g in enumerate(gamma))
        return Tile(center=center, box=box)

    def domain_measure(self) -> float:
        """w_alpha measure of the union of all tiles (a box at the origin)."""
        val = 1.0
        for br, a in zip(self.axis_breaks, self.alpha):
            p = 2.0 * a + 2.0
            val *= br[-1] ** p / p
        return val

    def cache_key(self):
        return (self.j, self.d, self.alpha.alpha, self.delta, self.c_star,
                self.right_extension)


@lru_cache(maxsize=64)
def _cubature_grid_cached(j: int, alpha: AlphaVector, delta: float, c_star: float,
                          ext: float) -> CubatureGrid:
    rules = tuple(gauss_laguerre(level_node_count(j, delta, c_star), a) for a in alpha)
    return CubatureGrid(j, alpha, delta, c_star, rules, ext)


def cubature_grid(j: int, d: int, alpha, delta: float = 0.03, c_star: float = 1.0,
                  right_extension: float | None = None,
                  point_cap: int = GRID_POINT_CAP) -> CubatureGrid:
    """Build (or fetch) the level-j cubature grid on R_+^d."""
    av = as_alpha(alpha)
    if av.d != d:
        raise ValueError(f"alpha has dimension {av.d}, expected {d}")
    j = int(j)
    n_j = level_node_count(j, delta, c_star)
    if n_j ** d > point_cap:
        raise ResourceWarning(
            f"grid would hold {n_j ** d} points, above the cap {point_cap}")
    ext = 2.0 ** (j / 3.0) if right_extension is None else float(right_extension)
    return _cubature_grid_cached(j, av, float(delta), float(c_star), ext)


def _fsum_maybe_complex(values: np.ndarray):
    vals = np.asarray(values)
    if np.iscomplexobj(vals):
        return complex(math.fsum(vals.real.tolist()), math.fsum(vals.imag.tolist()))
    return math.fsum(vals.ravel().tolist())


def cubature_integrate(grid: CubatureGrid, f, g=None):
    """Sum of c_xi f(xi) g(xi) over the grid, in deterministic order.

    f and g take a length-d point array; g defaults to 1.  Accumulation is
    exact (fsum), meeting the 1e-10 exactness contracts at any grid size.
    """
    pts = grid.points()
    c = grid.coeffs()
    fv = np.asarray([f(p) for p in pts])
    if g is not None:
        fv = fv * np.asarray([g(p) for p in pts])
    return _fsum_maybe_complex(c * fv)


def cubature_integrate_values(grid: CubatureGrid, values: np.ndarray):
    """As cubature_integrate, for values already evaluated in grid order."""
    c = grid.coeffs()
    vals = np.asarray(values).reshape(-1)
    if vals.shape != c.shape:
        raise ValueError("values do not match the grid layout")
    return _fsum_maybe_complex(c * vals)


def weight_W(n: float, alpha, x) -> np.ndarray:
    """The localization weight prod_j (x_j + n^(-1/2))^(2 alpha_j + 1).

    x may be a single point (length d) or an array of points (..., d).
    """
    if n <= 0.0:
        raise ValueError("n must be positive")
    av = as_alpha(alpha)
    pts = np.asarray(x, dtype=float)
    scalar_in = pts.ndim <= 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != av.d:
        raise ValueError("point dimension does not match alpha")
    if np.any(pts < 0.0):
        raise ValueError("points must be nonnegative")
    shift = n ** -0.5
    expo = 2.0 * np.asarray(av.alpha) + 1.0
    vals = np.prod((pts + shift) ** expo, axis=-1)
    if scalar_in:
        return float(vals[0])
    return vals


def moments_log(rule: QuadratureRule, k_max: int) -> np.ndarray:
    """log of the k-th rule moments, k = 0..k_max, via log-sum-exp."""
    log_t = np.log(rule.nodes)
    ks = np.arange(k_max + 1).reshape(-1, 1)
    expo = rule.log_weights.reshape(1, -1) + ks * log_t.reshape(1, -1)
    peak = np.max(expo, axis=1, keepdims=True)
    return (peak[:, 0] + np.log(np.sum(np.exp(expo - peak), axis=1)))


def moment_relative_errors(rule: QuadratureRule, k_max: int) -> np.ndarray:
    """|moment_k / Gamma(k+alpha+1) - 1| for k = 0..k_max."""
    lm = moments_log(rule, k_max)
    target = gammaln(np.arange(k_max + 1) + rule.alpha + 1.0)
    return np.abs(np.expm1(lm - target))
