"""Numerically stable Laguerre function families, their derivatives, and
degree-graded projection kernels on the positive orthant.

The three univariate families are selected by a one-letter code:

* ``"F"`` -- orthonormal in L2(R+, x^(2a+1) dx); damped by exp(-x^2/2);
* ``"L"`` -- orthonormal in L2(R+); damped by exp(-x/2), carries x^(a/2);
* ``"M"`` -- orthonormal in L2(R+); equals (2x)^(1/2) times family L at x^2.

All evaluations run the orthonormal three-term recurrence directly on the
exponentially damped values with dynamic power-of-two rescaling, so no
intermediate quantity can overflow even for degrees ~2^14 and arguments
with x^2 ~ 1e4, and at no alpha does the start underflow to 0.  The powers
of x that families L and M carry join the same per-point power of two, so
they cannot overflow either.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

__all__ = [
    "AlphaVector",
    "MultiIndex",
    "laguerre_fn_batch",
    "laguerre_fn_F_deriv",
    "multivariate_F",
    "kernel_F_m",
]

_LN2 = math.log(2.0)
_RESCALE_LIMIT = 2.0 ** 500
_RESCALE_SHIFT = 512
_BOUND_LIMIT = 2.0 ** 1000
_TINY = np.finfo(float).tiny
_FLUSH_CHUNK = 1 << 15
_GROWTH_WINDOW = 256  # steps of running bound worked out at once


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


class _Frame:
    """The rescaled state of the damped recurrence after its latest step.

    ``v`` and ``v_prev`` hold q_n(u) and q_(n-1)(u) divided by one positive
    per-point factor 2^(e0 + shift) = 2^(m0 + shift) / frac, e0 = -u / (2 ln 2),
    so they carry the signs and ratios of the q's at any size of the q's
    themselves.

    ``row`` converts ``v`` into q_n = (v frac) 2^E, E = m0 + shift, as
    (v frac) a b with per-point power-of-two factors, bit for bit what
    ldexp(v frac, E) gives, since |v frac| < 2^1001:

    * E >= -1022: a = 2^E, b = 1; one rounding, none when the result is normal;
    * -2075 <= E < -1022: a = 2^(E+1022), b = 2^-1022; the first product is
      exact wherever the result can be nonzero, so only the last one rounds;
    * E <= -2076: a = 0; the result is below 2^-1075 and rounds to 0, here
      the zero with the sign of v.

    The factors are worked out on the first conversion and again after each
    rescale, which clears ``scale``; a consumer that converts no row never
    pays for them.
    """

    __slots__ = ("v", "v_prev", "frac", "m0", "shift", "scale")

    def row(self, out=None) -> np.ndarray:
        """q_n at every point, written into ``out`` when given."""
        if self.scale is None:
            e = self.m0 + self.shift
            band = e < -1022
            a = np.ldexp(1.0, np.where(band, e + 1022, e))
            a[e <= -2076] = 0.0
            self.scale = (a, np.where(band, 2.0 ** -1022, 1.0))
        a, b = self.scale
        out = np.multiply(self.v, self.frac, out=out)
        out *= a
        out *= b
        return out

    def times_power(self, x: np.ndarray, p: float) -> None:
        """Multiply the values by x^p, p > 0, through frac and m0, so no power
        of x is formed as a float and none can overflow; at x = 0 the values
        become 0.  frac stays in [1, 2).

        With x = xm 2^xe, xm in [2^-1/2, 2^1/2), x^p = 2^(p xe) xm^p.  p xe is
        taken exactly as (head of p, 40 bits) xe plus a small tail, as |xe| has
        at most 11 bits; xm^p is taken in steps of p of at most 1000, each in
        range, so the product is good to a few units in the last place."""
        live = x > 0.0
        xm, xe = np.frexp(np.where(live, x, 1.0))
        low = xm < math.sqrt(0.5)
        xm, xe = np.where(low, 2.0 * xm, xm), np.where(low, xe - 1, xe)
        top = math.frexp(p)[1]
        head = math.ldexp(round(math.ldexp(p, 40 - top)), top - 40)
        t = head * xe
        whole = np.floor(t)
        mant, expo = self.frac * np.exp2((t - whole) + (p - head) * xe), whole.astype(np.int64)
        steps = int(p // 1000.0)
        for step in [1000.0] * steps + [p - 1000.0 * steps]:
            mant, e = np.frexp(mant * np.power(xm, step))
            expo += e
        self.frac = 2.0 * mant
        # at x = 0 an exponent far below -2076, which row converts to 0
        self.m0 = np.where(live, self.m0 + expo - 1, -(2 ** 40))
        self.scale = None


def _damped_rows(N, alpha, u: np.ndarray, sizes=None):
    """Step through q_n(u) = (G(n+1)/G(n+a+1))^(1/2) exp(-u/2) L_n^a(u), n = 0..N.

    ``u`` is flat (2-D for several groups, below).  Each step yields the same
    _Frame, whose state moves on with the generator, so read it before asking
    for the next step; a consumer that needs only some rows converts only
    those.  A running bound on the values
    (each step grows them by at most (max|2n+a+1-u| + b_n) / b_(n+1)) says when
    they could near the float range; only then are the large ones rescaled by
    2^-512, both rows alike, so no step can overflow and the rows do not depend
    on when the rescaling happened.  The start G(a+1)^(-1/2) of q_0 is below the
    normal range from about a = 316 on; there ``shift`` begins at its binary
    exponent e and the start is G(a+1)^(-1/2) 2^(-e), elsewhere at 0.

    One pass also steps several groups of points, group g to degree N[g] with
    parameter alpha[g], N not increasing from group to group: the rows of a 2-D
    ``u``, or with ``sizes`` consecutive runs of a flat ``u`` of those lengths.
    Step n moves the groups with N[g] >= n, a leading part of ``u``: from the
    step after a group's last one, ``v`` and ``v_prev`` cover only the groups
    still running, and the frame's other arrays keep their full extent.  A step
    takes c_n = 2n + a + 1 and b_(n+1) as numbers while one alpha runs, else per
    row, or gathered per point from per-alpha tables; the bound and its
    rescales are kept per group.  So each group's rows are bit for bit those of
    a pass of its own.
    """
    if np.ndim(N) == 0:
        N, alpha = (N,), (alpha,)
    by_row = u.ndim == 2
    if by_row:
        sizes = (u.shape[1],) * len(N)
    elif sizes is None:
        sizes = (u.size,)
    ends = list(itertools.accumulate(sizes))
    spans = range(len(N)) if by_row else [slice(end - size, end) for end, size in zip(ends, sizes)]
    kinds = sorted(set(alpha))
    col = [kinds.index(a) for a in alpha]
    starts = [_start(a) for a in kinds]
    s = _Frame()
    e0 = -u / (2.0 * _LN2)
    m0 = np.floor(e0)
    s.frac = np.exp2(e0 - m0)          # in [1, 2)
    s.m0 = m0.astype(np.int64)
    s.scale = None
    s.v_prev = np.zeros(u.shape)
    s.shift = np.repeat(np.array([starts[c][0] for c in col]), sizes).reshape(u.shape)
    s.v = np.repeat(np.array([starts[c][1] for c in col]), sizes).reshape(u.shape)
    yield s
    top = N[0]
    if not top:
        return
    k = np.arange(top + 1.0)[:, None]
    c_tab = 2.0 * k[:-1] + np.array(kinds) + 1.0        # c_n by alpha, n = 0..top-1
    b_tab = np.sqrt(k * (k + np.array(kinds)))           # b_n by alpha, n = 0..top
    # per step and group, the bound's growth (max|c_n - u| + b_n) / b_(n+1), at least 1
    if not u.size:
        lo = hi = np.zeros(1)
    elif by_row:
        lo, hi = u.min(axis=1), u.max(axis=1)
    else:
        lo, hi = (f.reduceat(u, [0] + ends[:-1]) for f in (np.minimum, np.maximum))
    c_grp, b_grp = (c_tab, b_tab) if len(kinds) == 1 else (c_tab[:, col], b_tab[:, col])
    growth = np.maximum(1.0, (np.maximum(c_grp - lo, hi - c_grp) + b_grp[:-1]) / b_grp[1:])
    due = _due(growth, 0, [starts[c][1] for c in col])
    which = None
    if len(kinds) == 1:
        c_by_n, b_by_n = c_tab[:, 0].tolist(), b_tab[:, 0].tolist()
    elif by_row:
        c_by_n, b_by_n = c_tab[:, col, None], b_tab[:, col, None]
    else:
        which = np.repeat(np.array(col, dtype=np.intp), sizes)
        c_pt, b_spare = np.empty(u.size), np.empty(u.size)
    b_cur = b_by_n[0] if which is None else np.zeros(u.size)    # b_0 = 0
    spare, term = np.empty(u.shape), np.empty(u.shape)
    live, event = len(N), 0
    for n in range(top):
        if n >= event:
            if N[live - 1] <= n:  # the groups whose last step was n - 1 leave
                while N[live - 1] <= n:
                    live -= 1
                w = live if by_row else ends[live - 1]
                s.v, s.v_prev, spare, term, u = s.v[:w], s.v_prev[:w], spare[:w], term[:w], u[:w]
                if which is not None:
                    which, c_pt, b_cur, b_spare = which[:w], c_pt[:w], b_cur[:w], b_spare[:w]
                elif by_row and len(kinds) > 1:
                    c_by_n, b_by_n, b_cur = c_by_n[:, :w], b_by_n[:, :w], b_cur[:w]
            for g in range(live):
                while due[g][0] == n:
                    step, bound = due[g]
                    if bound is None:  # rescale, then go on from the next step
                        bound = _rescale(s, spans[g]) * growth[n, g]
                        step += 1
                    due[g] = _due(growth[:, g:g + 1], step, [bound])[0]
            event = min(min(step for step, _ in due[:live]), N[live - 1])
        if which is None:
            c, b_next = c_by_n[n], b_by_n[n + 1]
        else:
            c = c_tab[n].take(which, out=c_pt, mode="clip")
            b_next = b_tab[n + 1].take(which, out=b_spare, mode="clip")
            b_spare = b_cur
        v = np.subtract(c, u, out=spare)
        v *= s.v
        v -= np.multiply(b_cur, s.v_prev, out=term)
        v /= b_next
        spare, s.v_prev, s.v, b_cur = s.v_prev, s.v, v, b_next
        yield s


def _start(alpha: float) -> tuple[int, float]:
    """(e, G(a+1)^(-1/2) 2^(-e)): the start of q_0 and its exponent, see ``_damped_rows``."""
    log_start = -0.5 * math.lgamma(alpha + 1.0)
    e = 0 if math.exp(log_start) >= _TINY else math.floor(log_start / _LN2)
    return e, math.exp(log_start - e * _LN2)


def _due(growth: np.ndarray, n: int, bounds) -> list:
    """Per column (group) of ``growth`` (steps by groups), whose running bound before
    step n is ``bounds``: (m, None) for the first step m among the _GROWTH_WINDOW from n
    at which the bound times the step's growth would pass _BOUND_LIMIT, so the group's
    values are rescaled there; else (m, the bound before step m) for the window's end
    m, where the search goes on."""
    if n >= len(growth):
        return [(n, b) for b in bounds]
    with np.errstate(over="ignore"):  # inf is past the limit as well
        ahead = np.cumprod(np.concatenate(([bounds], growth[n: n + _GROWTH_WINDOW])), axis=0)
    over = ahead[1:] > _BOUND_LIMIT
    end, last = n + len(over), ahead[-1].tolist()
    if not over.any():
        return [(end, b) for b in last]
    first, hit = over.argmax(axis=0).tolist(), over.any(axis=0).tolist()
    return [(n + i, None) if h else (end, b) for i, h, b in zip(first, hit, last)]


def _rescale(s: _Frame, span: slice) -> float:
    """Rescale the points of ``span`` whose rows are large by 2^-512; returns the new
    bound, the largest |value| of the two rows there."""
    v, v_prev, shift = s.v[span], s.v_prev[span], s.shift[span]
    size = np.maximum(np.abs(v), np.abs(v_prev))
    big = size > _RESCALE_LIMIT
    v[big] = np.ldexp(v[big], -_RESCALE_SHIFT)
    v_prev[big] = np.ldexp(v_prev[big], -_RESCALE_SHIFT)
    shift[big] += _RESCALE_SHIFT
    s.scale = None
    return float(np.max(np.where(big, np.ldexp(size, -_RESCALE_SHIFT), size), initial=0.0))


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
        u, power = np.square(x_arr), 0.0
    elif family == "L":
        u, power = x_arr, 0.5 * alpha
    elif family == "M":
        u, power = np.square(x_arr), alpha + 0.5
    else:
        raise ValueError(f"unknown family {family!r}")
    q = np.empty((N + 1, u.size))
    for n, state in enumerate(_damped_rows(N, alpha, u.reshape(-1))):
        if n == 0 and power:
            state.times_power(x_arr.reshape(-1), power)
        state.row(q[n])
    vals = q.reshape((N + 1,) + u.shape)
    if family != "L":
        vals *= math.sqrt(2.0)
    if np.ndim(x) == 0:
        return vals.reshape(N + 1)
    return vals


def _F_tables(N: int, alphas, xs: np.ndarray) -> np.ndarray:
    """Family-F values of degrees 0..N for several parameters in one pass: for
    points xs of shape (G, k), an array of shape (G, N+1, k) whose [g] is
    ``laguerre_fn_batch(N, alphas[g], xs[g])`` bit for bit."""
    q = np.empty((len(xs), N + 1, xs.shape[1]))
    for n, state in enumerate(_damped_rows((N,) * len(xs), tuple(alphas), np.square(xs))):
        state.row(q[:, n])
    q *= math.sqrt(2.0)
    return q


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


class _ArrayCache:
    """Thread-safe LRU cache of read-only arrays keyed by values, holding at most
    ``max_bytes`` of array data and ``max_entries`` entries.

    ``get(key, make)`` returns the value kept for ``key``, or ``make()``'s
    result: an array, a number, None, or tuples or dataclasses of these.  Its
    arrays are set read-only, so one value can be handed to every caller; a
    value larger than ``max_bytes`` is returned without being kept, so it is
    made again on every call.  ``get_many`` does the same for several keys, the
    missing ones made in one batch.  Keys are values (numbers, strings, tuples,
    ``AlphaVector``, a ``CutoffSpec``), never an object that holds arrays, such
    as a system, whose lifetime the cache would extend.  ``_hits`` and
    ``_misses`` count the keys asked for that were found and those that were
    not.  ``nbytes`` counts what the kept values hold alive (see ``_freeze``).
    """

    def __init__(self, max_bytes: int = 16 << 20, max_entries: int = 128):
        self.max_bytes, self.max_entries = max_bytes, max_entries
        self.nbytes = 0
        self._hits = self._misses = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, make):
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key][0]
            self._misses += 1
        value = make()
        size = _freeze(value)
        if size <= self.max_bytes:
            self._keep(key, value, size)
        return value

    def get_many(self, keys, make) -> list:
        """``get`` for several keys at once: the values of ``keys``, in their order, with
        the keys not kept made together by one call ``make(missing)``, which returns
        their values in the order of ``missing`` (each key once)."""
        found, distinct = {}, list(dict.fromkeys(keys))
        with self._lock:
            for key in distinct:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    found[key] = self._entries[key][0]
            missing = [key for key in distinct if key not in found]
            self._hits += len(found)
            self._misses += len(missing)
        if missing:
            for key, value in zip(missing, make(missing)):
                found[key] = value
                size = _freeze(value)
                if size <= self.max_bytes:
                    self._keep(key, value, size)
        return [found[key] for key in keys]

    def _keep(self, key, value, size: int) -> None:
        with self._lock:
            if key not in self._entries:
                self._entries[key] = value, size
                self.nbytes += size
                while self.nbytes > self.max_bytes or len(self._entries) > self.max_entries:
                    self.nbytes -= self._entries.popitem(last=False)[1][1]


def _freeze(value) -> int:
    """Set every array in ``value`` (see ``_arrays``) read-only; returns the bytes
    that keeping it holds alive.  An array costs the bytes of the array that owns
    its memory, itself or the base it views, once per owner, and nothing when that
    owner is already read-only: such memory is held by another cache or by a
    system, and a view of it adds nothing."""
    arrays = list(_arrays(value))
    owners = {}
    for arr in arrays:
        owner = arr.base if isinstance(arr.base, np.ndarray) else arr
        if owner.flags.writeable:
            owners[id(owner)] = owner.nbytes
    for arr in arrays:
        arr.flags.writeable = False
    return sum(owners.values())


def _arrays(value):
    """The arrays in an array, a number, None, or tuples or dataclasses of these."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _arrays(v)
    elif is_dataclass(value) and not isinstance(value, type):
        for f in fields(value):
            yield from _arrays(getattr(value, f.name))
    elif not (value is None or isinstance(value, (int, float))):
        raise TypeError(f"cannot cache a {type(value).__name__} read-only")


_DEGREE_GRIDS = _ArrayCache()


def total_degree_grid(shape) -> np.ndarray:
    """Read-only tensor of total degrees |nu| over a coefficient array shape, as a
    broadcast sum of per-axis ranges, so no index array of the full shape is built;
    kept in a bounded cache keyed by the shape."""
    shape = tuple(int(n) for n in shape)
    return _DEGREE_GRIDS.get(shape, lambda: _degree_grid(shape))


def _degree_grid(shape: tuple) -> np.ndarray:
    """``total_degree_grid`` as a new array, not kept."""
    d = len(shape)
    return sum(np.arange(n, dtype=np.int64).reshape((-1,) + (1,) * (d - 1 - ax))
               for ax, n in enumerate(shape))


def _outer(vecs):
    """Tensor product of per-axis arrays, axis 0 outermost."""
    acc = vecs[0]
    for v in vecs[1:]:
        acc = np.multiply.outer(acc, v)
    return acc


def _fold(tensor, mats):
    """Contract axis i of ``tensor`` with the first axis of ``mats[i]``, for every i.

    Axis i of the result has the length of ``mats[i]``'s second axis; a caller
    whose matrices run the other way passes their transposed views.  Each axis
    is contracted where it lies, by one rule: every axis is one matmul
    m.T @ t.reshape(.., k, post), batched over the axes before it, so each
    output slab stays in cache, and the tensor's own last axis, where post = 1,
    is the matmul t.reshape(.., k) @ m.  A real tensor, such as the
    coefficients of a real function, meets the real matrices in real GEMMs
    throughout.  A complex tensor that meets only real matrices is folded the
    same way as its float view, whose trailing (re, im) axis no matrix meets
    (post = 2 on the last matrix's axis), so no matrix is cast to complex; a
    complex matrix meets the tensor as it is.  A ``None`` matrix leaves its axis
    as it is.  The result is a new C-contiguous array unless every matrix is
    ``None``.
    """
    if np.iscomplexobj(tensor) and not any(m is not None and np.iscomplexobj(m) for m in mats):
        tensor = np.ascontiguousarray(tensor, dtype=complex)
        return _fold(tensor.view(float).reshape(tensor.shape + (2,)), mats).view(complex)[..., 0]
    dims = list(np.shape(tensor))
    for i, m in enumerate(mats):
        if m is None:
            continue
        k = len(m)
        if i == len(dims) - 1:
            tensor = np.matmul(tensor.reshape(*dims[:i], k), m)
        else:
            tensor = np.matmul(m.T, tensor.reshape(*dims[:i], k, math.prod(dims[i + 1:])))
        dims[i] = m.shape[1]
    return tensor.reshape(dims)


def _flush_subnormal(arr: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Set the entries of a C- or F-contiguous float or complex array with
    |x| < max(tiny, floor) to 0, in place, tiny = 2.2e-308 being the bottom of the
    normal range; returns ``arr``.  Any other layout is refused with ValueError,
    as it could only be flushed as a copy.

    Dense products slow down severalfold on subnormal operands, and damped
    Laguerre values and needlet coefficients hold many of them, so a needlet
    GEMM should see only normal numbers and zeros; results change only by
    terms under tiny.  A floor above tiny trims the array: zeroing n entries
    below it moves the array by at most floor * sqrt(n) in the Frobenius norm.
    The pass runs over the array's memory as one flat float view (a complex
    entry is two floats), in chunks of _FLUSH_CHUNK entries with two boolean
    masks, so it needs no float temporary and nothing of the array's size.
    """
    if not (arr.flags.c_contiguous or arr.flags.f_contiguous):
        raise ValueError("only a C- or F-contiguous array is flushed in place")
    floor = max(_TINY, floor)
    flat = arr.ravel(order="K")
    flat = flat.view(float) if np.iscomplexobj(flat) else flat
    low = np.empty(min(flat.size, _FLUSH_CHUNK), dtype=bool)
    high = np.empty_like(low)
    for start in range(0, flat.size, _FLUSH_CHUNK):
        part = flat[start: start + _FLUSH_CHUNK]
        lo, hi = low[: part.size], high[: part.size]
        np.logical_and(np.less(part, floor, out=lo), np.greater(part, -floor, out=hi), out=lo)
        np.copyto(part, 0.0, where=lo)
    return arr


def _fold_sum(tensor, vecs) -> float:
    """Sum of a real ``tensor`` against the tensor product of per-axis weight vectors."""
    return _fold(tensor, [v[:, None] for v in vecs]).item()


def _convolve_degrees(seqs):
    """Total-degree sequence of a product of per-axis degree sequences,
    truncated to the length of the first."""
    acc = seqs[0]
    for g in seqs[1:]:
        acc = np.convolve(acc, g)[: len(seqs[0])]
    return acc


def _kernel_table(M: int, alpha, x, y, deriv_axis: int | None = None) -> np.ndarray:
    """Degree-m kernels sum_{|nu|=m} F_nu(x) F_nu(y), m = 0..M, at one point pair.

    On axis ``deriv_axis`` (0-based) the x factor is the derivative, giving
    the partial derivative in that coordinate of x.  The per-axis product
    sequences are convolved across the axes (dynamic programming over
    dimensions), cost O(d M^2).
    """
    av = as_alpha(alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if not (av.d == xs.size == ys.size):
        raise ValueError("dimension mismatch between alpha and points")
    return _convolve_degrees([
        (laguerre_fn_F_deriv_batch(M, a, float(xi)) if ax == deriv_axis
         else laguerre_fn_batch(M, a, float(xi)))
        * laguerre_fn_batch(M, a, float(yi))
        for ax, (a, xi, yi) in enumerate(zip(av, xs, ys))])


def kernel_F_m(m: int, alpha, x, y) -> float:
    """Degree-m projector kernel: sum over |nu| = m of F_nu(x) F_nu(y)."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    return float(_kernel_table(m, alpha, x, y)[m])
