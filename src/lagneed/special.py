"""Numerically stable Laguerre polynomials, Laguerre function families,
their derivatives, and degree-graded projection kernels on the positive
orthant.

The three univariate families are selected by a one-letter code:

* ``"F"`` -- orthonormal in L2(R+, x^(2a+1) dx); damped by exp(-x^2/2);
* ``"L"`` -- orthonormal in L2(R+); damped by exp(-x/2), carries x^(a/2);
* ``"M"`` -- orthonormal in L2(R+); equals (2x)^(1/2) times family L at x^2.

All evaluations run the orthonormal three-term recurrence directly on the
exponentially damped values with dynamic power-of-two rescaling, so no
intermediate quantity can overflow even for degrees ~2^14 and arguments
with x^2 ~ 1e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

__all__ = [
    "AlphaVector",
    "MultiIndex",
    "laguerre_poly",
    "laguerre_fn_batch",
    "laguerre_fn_F_deriv",
    "laguerre_fn_F_deriv_batch",
    "multivariate_F",
    "kernel_F_m",
    "kernel_F_table",
]

_LN2 = math.log(2.0)
_RESCALE_LIMIT = 2.0 ** 500
_RESCALE_SHIFT = 512


@dataclass(frozen=True)
class AlphaVector:
    """Per-axis Laguerre parameters; every component must be >= 0."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) < 1:
            raise ValueError("dimension must be at least 1")
        if any(a < 0.0 for a in self.alpha):
            raise ValueError(f"negative Laguerre parameter in {self.alpha}")

    @property
    def d(self) -> int:
        return len(self.alpha)

    @property
    def total(self) -> float:
        return float(sum(self.alpha))

    def __iter__(self):
        return iter(self.alpha)

    def __getitem__(self, i):
        return self.alpha[i]


def as_alpha(alpha) -> AlphaVector:
    """Coerce a float, sequence, or AlphaVector into an AlphaVector."""
    if isinstance(alpha, AlphaVector):
        return alpha
    if np.ndim(alpha) == 0:
        return AlphaVector((float(alpha),))
    return AlphaVector(tuple(alpha))


@dataclass(frozen=True)
class MultiIndex:
    nu: tuple[int, ...]
    degree: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "nu", tuple(int(n) for n in self.nu))
        if any(n < 0 for n in self.nu):
            raise ValueError(f"negative entry in multi-index {self.nu}")
        object.__setattr__(self, "degree", sum(self.nu))

    @property
    def d(self) -> int:
        return len(self.nu)


def laguerre_poly(n: int, alpha: float, x: float) -> float:
    """Raw Laguerre polynomial value by the forward three-term recurrence.

    Overflows for large n*x are a documented defect of the raw scale; use
    ``laguerre_fn_batch`` for damped, overflow-free values.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    prev = 1.0
    if n == 0:
        return prev
    cur = -x + alpha + 1.0
    for k in range(1, n):
        prev, cur = cur, ((2 * k + alpha + 1 - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def _damped_rows(N: int, alpha: float, u: np.ndarray):
    """Yield q_n(u) = (G(n+1)/G(n+a+1))^(1/2) exp(-u/2) L_n^a(u) for n = 0..N.

    ``u`` is flat; each row is a fresh array of its shape.  Internally the
    recurrence runs on rescaled values v with the represented quantity
    v * 2^(e0 + shift); emission uses exact ldexp scaling, so no step can
    overflow and genuine underflow flushes cleanly to zero.
    """
    e0 = -u / (2.0 * _LN2)
    m0 = np.floor(e0)
    frac = np.exp2(e0 - m0)          # in [1, 2)
    m0 = m0.astype(np.int64)

    shift = np.zeros(u.size, dtype=np.int64)
    v_prev = np.zeros(u.size)
    v_cur = np.full(u.size, math.exp(-0.5 * gammaln(alpha + 1.0)))
    yield np.ldexp(v_cur * frac, m0)

    b_cur = 0.0
    for n in range(N):
        b_next = math.sqrt((n + 1.0) * (n + 1.0 + alpha))
        v_next = ((2.0 * n + alpha + 1.0 - u) * v_cur - b_cur * v_prev) / b_next
        v_prev, v_cur, b_cur = v_cur, v_next, b_next

        big = np.abs(v_cur) > _RESCALE_LIMIT
        if big.any():
            v_cur[big] = np.ldexp(v_cur[big], -_RESCALE_SHIFT)
            v_prev[big] = np.ldexp(v_prev[big], -_RESCALE_SHIFT)
            shift[big] += _RESCALE_SHIFT
        yield np.ldexp(v_cur * frac, m0 + shift)


def laguerre_fn_batch(N: int, alpha: float, x, family: str = "F") -> np.ndarray:
    """Values of one Laguerre-function family for all degrees n = 0..N.

    Parameters
    ----------
    N : highest degree (inclusive).
    alpha : Laguerre parameter, >= 0.
    x : scalar or array of nonnegative points.
    family : "F", "L", or "M".

    Returns
    -------
    Array of shape (N+1,) + shape(x).
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("points must be nonnegative")
    if family == "F":
        u, pre = np.square(x_arr), math.sqrt(2.0)
    elif family == "L":
        u, pre = x_arr, np.power(x_arr, 0.5 * alpha)
    elif family == "M":
        u, pre = np.square(x_arr), math.sqrt(2.0) * np.power(x_arr, alpha + 0.5)
    else:
        raise ValueError(f"unknown family {family!r}")
    q = np.empty((N + 1, u.size))
    for n, row in enumerate(_damped_rows(N, alpha, u.reshape(-1))):
        q[n] = row
    vals = q.reshape((N + 1,) + u.shape)
    vals *= pre
    if np.ndim(x) == 0:
        return vals.reshape(N + 1)
    return vals


def laguerre_fn_F_deriv_batch(N: int, alpha: float, x) -> np.ndarray:
    """d/dx of family-F values for all degrees n = 0..N, shape (N+1,)+shape(x)."""
    x_arr = np.asarray(x, dtype=float)
    f = laguerre_fn_batch(N, alpha, x_arr, "F")
    out = -x_arr * f
    if N >= 1:
        f_up = laguerre_fn_batch(N - 1, alpha + 1.0, x_arr, "F")
        roots = np.sqrt(np.arange(1, N + 1, dtype=float))
        out[1:] -= 2.0 * x_arr * roots.reshape((-1,) + (1,) * x_arr.ndim) * f_up
    if np.ndim(x) == 0:
        return out.reshape(N + 1)
    return out


def laguerre_fn_F_deriv(n: int, alpha: float, x: float) -> float:
    """Derivative of the degree-n family-F function at a point."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return float(laguerre_fn_F_deriv_batch(n, alpha, float(x))[n])


def multivariate_F(nu, alpha, x) -> float:
    """Product of univariate family-F values across axes."""
    nu = nu.nu if isinstance(nu, MultiIndex) else tuple(int(k) for k in nu)
    av = as_alpha(alpha)
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if not (len(nu) == av.d == pt.size):
        raise ValueError(f"dimension mismatch: nu {len(nu)}, alpha {av.d}, x {pt.size}")
    val = 1.0
    for k, a, xi in zip(nu, av, pt):
        val *= float(laguerre_fn_batch(k, a, float(xi), "F")[k])
    return val


def _outer(vecs):
    """Tensor product of per-axis arrays, axis 0 outermost."""
    acc = vecs[0]
    for v in vecs[1:]:
        acc = np.multiply.outer(acc, v)
    return acc


def _fold(tensor, mats, axis: int):
    """Contract each axis of ``tensor`` in turn with axis ``axis`` of its matrix.

    Each step contracts the leading axis and appends the matrix's other
    axis last, so after one matrix per axis the axes are back in order.
    """
    for m in mats:
        tensor = np.tensordot(tensor, m, axes=([0], [axis]))
    return tensor


def _convolve_degrees(seqs):
    """Total-degree sequence of a product of per-axis degree sequences,
    truncated to the length of the first."""
    acc = seqs[0]
    for g in seqs[1:]:
        acc = np.convolve(acc, g)[: len(seqs[0])]
    return acc


def kernel_F_table(M: int, alpha, x, y) -> np.ndarray:
    """All degree-m projector kernel values for m = 0..M at one point pair.

    Computed by convolving per-axis product sequences across the axes
    (dynamic programming over dimensions), cost O(d M^2).
    """
    av = as_alpha(alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if not (av.d == xs.size == ys.size):
        raise ValueError("dimension mismatch between alpha and points")
    return _convolve_degrees([
        laguerre_fn_batch(M, a, float(xi), "F") * laguerre_fn_batch(M, a, float(yi), "F")
        for a, xi, yi in zip(av, xs, ys)])


def kernel_F_m(m: int, alpha, x, y) -> float:
    """Degree-m projector kernel: sum over |nu| = m of F_nu(x) F_nu(y)."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    return float(kernel_F_table(m, alpha, x, y)[m])
