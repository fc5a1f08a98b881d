"""Needlet systems: multilevel grids, frame elements, and the analysis and
synthesis operators acting on coefficient-represented functions.

Functions live as finite Laguerre coefficient tensors (``CoeffFn``), so all
inner products against frame elements, and the frame operator behind the exact
``frame_bounds``, are computed in coefficient space, with no numerical
integration.  Reconstruction is exact (up to rounding) on functions of total
degree at most 4^(J-1): above that the dilated partition of unity is not yet
complete at the top level.

A frame element phi_xi = c_xi^(1/2) sum_nu a(|nu|/4^(j-1)) F_nu(xi) F_nu is a
product over axes except for its filter, so each level keeps per-axis node
tables of c^(1/2)-weighted values c_k^(1/2) F_m(xi_k), and analysis and
synthesis are one filter and one real matrix product per axis.  Axes of one
alpha have the same nodes, so they share one table, and a level's tables come
from one recurrence pass over its distinct alphas.  The analysis
coefficients store values below the normal range (2.2e-308) as 0: subnormal
operands slow those products severalfold.  ``analyze`` clears a level of them
only where an exponent bound from its input and the tables says one can occur.
The tables are trimmed at a Frobenius floor: each zeroes its entries below
2^-56 / sqrt(its size), which moves it by at most 2^-56 in the Frobenius norm.

Each level's products run on its live box only (``_live_box``): the table rows
of the degrees where the level filter is nonzero, and per axis the first K
nodes, past which the trimmed table rows are 0 on those rows.  The atoms decay
like e^(-x^2/2) past their turning points, so K ends well before the last
node.  K is read from a per-axis vector built with the tables.  Analysis
levels are exactly 0 outside the box, so ``NeedletCoeffs`` stores each level
as its box, a leading block with the level's shape kept beside it, and
``synthesize`` of analysis output reads only the nodes that ``analyze``
wrote.  The dense ``levels`` are built from the boxes on first access.
``synthesize`` folds each level's first axis once and the others in blocks of
first-axis degree, each cut to the total-degree simplex that the level filter
and the degree cap 4^J leave.

What a transform reads besides its input depends only on the system and on
the input's degree (``analyze``) or its stored boxes' shapes (``synthesize``),
so it is kept as a plan: per level the band rows and node counts, the filter
gathered onto the block's total-degree grid and the tables' part of the
subnormal bound, and for ``synthesize`` each block's rows, node counts, filter
and 4^J clip mask (None where nothing is clipped).  Plans live read-only in a
bounded cache (``special._ArrayCache``, 16 MiB and 128 entries), keyed by the
transform, the system hash and that degree or those shapes.  The hash covers
the cut-offs: a raw one by its support and its filter weights at each level
(``NeedletSystem._compute_hash``).  A plan holds ints and arrays
of its own, never a view of a node table, which each call slices, so no plan
keeps a system or its tables alive.  Plans are built on first use; being
read-only they are shared across threads, and two threads that miss together
build equal plans.  A call does only the slicing, the filter product, the
folds, the subnormal test and the sum.

The frame elements are real, so the coefficient dtype follows the data:
float64 unless the data is complex, then complex128.  Analysis, synthesis,
evaluation and the continuous norms keep that dtype, so for a real function
those matrix products stay real end to end.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .cutoffs import CutoffPair
from .special import (AlphaVector, MultiIndex, as_alpha, laguerre_fn_batch, total_degree_grid,
                      _ArrayCache, _F_tables, _TINY, _degree_grid, _flush_subnormal, _fold)
from .quadrature import CubatureGrid, cubature_grid, level_node_count, _rules
from .kernels import (cutoff_weights, _cached_weights, _degree_weights, _filter_band,
                      _filtered_sum, _level_scale, _top_degree)

__all__ = [
    "CoeffFn",
    "NeedletCoeffs",
    "NeedletSystem",
    "build_system",
    "evaluate_needlet",
    "analyze",
    "synthesize",
    "frame_bounds",
]

TABLE_BYTES_CAP = 2 << 30
_REACH_CHUNK = 1 << 18  # table entries per boolean chunk of _reach
_TABLE_TRIM = 2.0 ** -56  # Frobenius norm bound of the entries trimmed from one table
_SYNTH_BLOCKS = 6  # blocks of first-axis degree in which synthesize folds a level, d >= 2


@dataclass
class CoeffFn:
    """A function in V_N as its Fourier-Laguerre coefficient tensor.

    coeffs has shape (N+1,)^d; entries with total degree above N must be
    zero, which makes the l2 norm of the tensor the exact L2 norm of the
    function.  A float64 or complex128 tensor is kept as given, without a
    copy; other real or complex kinds are cast to those.
    """

    alpha: AlphaVector
    max_degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.alpha = as_alpha(self.alpha)
        self.max_degree = int(self.max_degree)
        want = (self.max_degree + 1,) * self.alpha.d
        arr = np.asarray(self.coeffs)
        arr = np.asarray(arr, dtype=complex if np.iscomplexobj(arr) else float)
        if arr.shape != want:
            raise ValueError(f"coefficient tensor must have shape {want}, got {arr.shape}")
        over = total_degree_grid(want) > self.max_degree
        if np.any(arr[over] != 0):
            raise ValueError("nonzero coefficients above the stated max degree")
        self.coeffs = arr

    @classmethod
    def _unchecked(cls, alpha: AlphaVector, max_degree: int, coeffs: np.ndarray) -> "CoeffFn":
        """A CoeffFn on a float64 or complex128 tensor of shape (max_degree+1,)^d that
        its caller has already zeroed above max_degree, so no degree grid is rebuilt."""
        f = cls.__new__(cls)
        f.alpha, f.max_degree, f.coeffs = alpha, max_degree, coeffs
        return f

    @property
    def d(self) -> int:
        return self.alpha.d

    def norm2(self) -> float:
        return float(np.linalg.norm(self.coeffs.ravel()))

    def inner(self, other: "CoeffFn") -> complex:
        n = min(self.max_degree, other.max_degree) + 1
        sl = (slice(0, n),) * self.d
        return complex(np.vdot(other.coeffs[sl], self.coeffs[sl]))

    def __add__(self, other: "CoeffFn") -> "CoeffFn":
        if other.max_degree != self.max_degree or other.alpha.alpha != self.alpha.alpha:
            raise ValueError("operands must share alpha and degree")
        return CoeffFn(self.alpha, self.max_degree, self.coeffs + other.coeffs)

    def __mul__(self, scalar) -> "CoeffFn":
        return CoeffFn(self.alpha, self.max_degree, self.coeffs * scalar)

    __rmul__ = __mul__

    def evaluate(self, points) -> np.ndarray:
        """Pointwise values at an array of points with shape (..., d)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != self.d:
            raise ValueError("point dimension mismatch")
        flat = pts.reshape(-1, self.d)
        tables = [laguerre_fn_batch(self.max_degree, a, flat[:, ax], "F")
                  for ax, a in enumerate(self.alpha)]
        coeffs, split = self.coeffs, np.iscomplexobj(self.coeffs)
        if split:  # contract the float view with a trailing (re, im) axis, as _fold does
            coeffs = np.ascontiguousarray(coeffs).view(float).reshape(coeffs.shape + (2,))
        vals = np.tensordot(tables[0], coeffs, axes=(0, 0))  # (P, rest...)
        for ax in range(1, self.d):
            vals = np.einsum("np,pn...->p...", tables[ax], vals)
        if split:
            vals = np.ascontiguousarray(vals).view(complex)[..., 0]
        if single:
            return complex(vals[0]) if np.iscomplexobj(vals) else float(vals[0])
        return vals.reshape(pts.shape[:-1])

    @classmethod
    def random(cls, alpha, max_degree: int, seed=0, complex_valued: bool = False,
               normalized: bool = True) -> "CoeffFn":
        av = as_alpha(alpha)
        rng = default_rng(seed)
        shape = (max_degree + 1,) * av.d
        arr = rng.standard_normal(shape)
        if complex_valued:
            arr = arr + 1j * rng.standard_normal(shape)
        arr[total_degree_grid(shape) > max_degree] = 0.0
        if normalized:
            nrm = np.linalg.norm(arr.ravel())
            if nrm > 0:
                arr = arr / nrm
        return cls(av, max_degree, arr)

    def to_json_dict(self) -> dict:
        idx = np.argwhere(self.coeffs != 0)
        return {
            "alpha": list(self.alpha.alpha),
            "N": self.max_degree,
            "coeffs": [
                {"nu": [int(k) for k in nu],
                 "re": float(self.coeffs[tuple(nu)].real),
                 "im": float(self.coeffs[tuple(nu)].imag)}
                for nu in idx
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoeffFn":
        if not isinstance(data, dict):
            raise ValueError("coefficient data must be a JSON object")
        try:
            av = as_alpha(data["alpha"])
            n = int(data["N"])
            re, im = np.zeros((n + 1,) * av.d), np.zeros((n + 1,) * av.d)
            for item in data["coeffs"]:
                nu = MultiIndex(item["nu"])
                if nu.d != av.d:
                    raise ValueError(f"multi-index {nu.nu} has wrong dimension")
                if nu.degree > n:
                    raise ValueError(f"multi-index {nu.nu} exceeds stated degree {n}")
                vals = (item["re"], item.get("im", 0.0))
                if not all(isinstance(v, (int, float, str)) for v in vals):
                    raise ValueError(f"multi-index {nu.nu} has a non-numeric coefficient")
                re[nu.nu], im[nu.nu] = (float(v) for v in vals)
        except KeyError as exc:
            raise ValueError(f"coefficient data lacks the key {exc}") from None
        except TypeError as exc:  # a value of the wrong JSON type, such as "coeffs": 5
            raise ValueError(f"malformed coefficient data: {exc}") from None
        return cls(av, n, re + 1j * im if im.any() else re)


@dataclass(frozen=True)
class NeedletCoeffs:
    """Per-level needlet coefficient tensors, tagged with the system hash.

    Each level is stored as its box: a leading block of the level, which is 0
    beyond it, kept with the level shape (n_j,)^d.  ``NeedletCoeffs(levels,
    system_hash)`` keeps each of the caller's arrays as given, as the box of a
    level of its own shape.  ``analyze`` stores each level as the fresh,
    C-contiguous, read-only box it folded (an empty (0,)^d array where the
    level is 0), which ``synthesize`` reads as the end of its own box.
    """

    _boxes: tuple[np.ndarray, ...]
    system_hash: str
    _shapes: tuple[tuple[int, ...], ...] | None = field(default=None, repr=False)

    @cached_property
    def levels(self) -> tuple[np.ndarray, ...]:
        """The dense level tensors, built on first access and kept: each box that
        is smaller than its level zero-padded into a new read-only array."""
        return tuple(_padded(box, shape) for box, shape in zip(self._boxes, self._level_shapes()))

    def _level_shapes(self) -> tuple[tuple[int, ...], ...]:
        return self._shapes or tuple(np.shape(box) for box in self._boxes)

    @property
    def level_count(self) -> int:
        return len(self._boxes)

    def total_energy(self) -> float:
        return float(sum(np.vdot(box, box).real for box in self._boxes))

    def scale(self, factor) -> "NeedletCoeffs":
        return NeedletCoeffs(tuple(box * factor for box in self._boxes), self.system_hash,
                             self._shapes)

    def add(self, other: "NeedletCoeffs") -> "NeedletCoeffs":
        if (other.system_hash != self.system_hash or other.level_count != self.level_count
                or other._level_shapes() != self._level_shapes()):
            raise ValueError("coefficient sets belong to different systems")
        boxes = []
        for a, b in zip(self._boxes, other._boxes):  # on the elementwise larger box
            shape = tuple(map(max, a.shape, b.shape))
            boxes.append(_padded(a, shape) + _padded(b, shape))
        return NeedletCoeffs(tuple(boxes), self.system_hash, self._shapes or other._shapes)


def _padded(box: np.ndarray, shape) -> np.ndarray:
    """``box`` as the leading block of a read-only array of ``shape`` that is 0 beyond
    it; ``box`` itself when it already has that shape."""
    if np.shape(box) == shape:
        return box
    out = np.pad(box, [(0, n - k) for n, k in zip(shape, box.shape)])
    out.flags.writeable = False
    return out


class NeedletSystem:
    """All levels 0..J of grids and node tables, for one cut-off pair."""

    def __init__(self, J: int, d: int, alpha: AlphaVector, pair: CutoffPair,
                 delta: float, c_star: float, grids: list[CubatureGrid]):
        self.J = int(J)
        self.d = int(d)
        self.alpha = alpha
        self.pair = pair
        self.delta = float(delta)
        self.c_star = float(c_star)
        self.grids = list(grids)
        self.hash = self._compute_hash()
        _check_table_bytes(self.J, self.alpha, pair, self.delta, self.c_star)
        # per level, per axis: the atoms' factors c_k^(1/2) F_m(xi_k), degree m
        # by node k, trimmed at the Frobenius floor _TABLE_TRIM / sqrt(size), and
        # _reach(tab)[m] live nodes for the rows 0..m; read-only, shared by every
        # analyze/synthesize call and by the axes of one alpha
        self.tables: list[tuple[np.ndarray, ...]] = []
        self._reach: list[tuple[np.ndarray, ...]] = []
        first = {a: self.alpha.alpha.index(a) for a in self.alpha}  # axis of each alpha
        for j, g in enumerate(self.grids):
            tabs = _F_tables(self.band_degree(j), list(first),
                             np.stack([g.axis_xi[ax] for ax in first.values()]))
            tabs *= np.sqrt(np.stack([g.axis_c[ax] for ax in first.values()]))[:, None]
            _flush_subnormal(tabs, _TABLE_TRIM / math.sqrt(tabs[0].size))
            tabs.flags.writeable = False
            shared = {a: (tab, _reach(tab)) for a, tab in zip(first, tabs)}
            self.tables.append(tuple(shared[a][0] for a in self.alpha))
            self._reach.append(tuple(shared[a][1] for a in self.alpha))

    def band_degree(self, j: int) -> int:
        """Largest total degree the level-j filters can touch."""
        return _top_degree(self.pair.a_hat, _level_scale(j))

    def exact_degree(self) -> int:
        """Degree 4^(J-1) up to which the system reconstructs exactly (0 at J = 0)."""
        return _level_scale(self.J)

    def max_degree(self) -> int:
        return 4 ** self.J

    def _compute_hash(self) -> str:
        """SHA-256 of the configuration.  A named cut-off is its description; a raw one
        (kind "raw" or a companion of one) is known only by its name there, so its
        support and the bytes of the filter weights each level reads are hashed too."""
        ext = [f"{g.right_extension:.17g}" for g in self.grids]
        parts = [
            f"J={self.J}", f"d={self.d}",
            "alpha=" + ",".join(f"{a:.17g}" for a in self.alpha),
            f"delta={self.delta:.17g}", f"cstar={self.c_star:.17g}",
            "pair=" + self.pair.describe(), "ext=" + ";".join(ext),
        ]
        for side, cut in (("a", self.pair.a_hat), ("b", self.pair.b_hat)):
            if cut.kind.endswith("raw"):
                weights = hashlib.sha256()
                for j in range(self.J + 1):
                    scale = _level_scale(j)
                    weights.update(_cached_weights(cut, scale, _top_degree(cut, scale)).tobytes())
                parts.append(f"{side}=supp({cut.support[0]:.17g},{cut.support[1]:.17g}),"
                             + weights.hexdigest())
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def node_point(self, j: int, gamma) -> np.ndarray:
        g = self.grids[j]
        gamma = tuple(int(v) for v in gamma)
        if len(gamma) != self.d or any(not 0 <= v < g.n_j for v in gamma):
            raise IndexError(f"node index {gamma} out of range at level {j}")
        return np.array([g.axis_xi[ax][v] for ax, v in enumerate(gamma)])

    def node_coeff(self, j: int, gamma) -> float:
        g = self.grids[j]
        return float(np.prod([g.axis_c[ax][v] for ax, v in enumerate(gamma)]))


def _check_table_bytes(J: int, alpha: AlphaVector, pair: CutoffPair, delta: float,
                       c_star: float):
    """Refuse, with ResourceWarning, a system whose node tables (per level, one table
    of n_j nodes by band degree + 1 doubles per distinct alpha) would pass
    TABLE_BYTES_CAP; reads only the node counts, so it runs before any rule is built."""
    need = sum(len(set(alpha)) * level_node_count(j, delta, c_star)
               * (_top_degree(pair.a_hat, _level_scale(j)) + 1) * 8 for j in range(J + 1))
    if need > TABLE_BYTES_CAP:
        raise ResourceWarning(f"node tables would need {need} bytes, above the cap")


def _reach(tab: np.ndarray) -> np.ndarray:
    """Read-only reach[m] = 1 + the last node k with tab[r, k] != 0 for some row r <= m
    (0 if there is none): in rows 0..m, the columns from reach[m] on hold only zeros.
    One pass over chunks of rows, each looking only right of the reach so far."""
    n = tab.shape[1]
    reach = np.empty(len(tab), dtype=np.intp)
    step, done = max(1, _REACH_CHUNK // n), 0
    for start in range(0, len(tab), step):
        live = tab[start: start + step, done:][:, ::-1] != 0
        last = np.where(live.any(axis=1), n - live.argmax(axis=1), done)
        reach[start: start + step] = np.maximum.accumulate(last)
        done = int(reach[start: start + step][-1])
    reach.flags.writeable = False
    return reach


def build_system(J: int, d: int, alpha, pair: CutoffPair, delta: float = 0.03,
                 c_star: float = 1.0) -> NeedletSystem:
    """Construct a needlet system with grids for levels 0..J."""
    if J < 0:
        raise ValueError("J must be nonnegative")
    av = as_alpha(alpha)
    if av.d != d:
        raise ValueError(f"alpha dimension {av.d} does not match d={d}")
    _check_table_bytes(J, av, pair, delta, c_star)
    _rules([(level_node_count(j, delta, c_star), a) for j in range(J + 1) for a in av])
    grids = [cubature_grid(j, d, av, delta, c_star) for j in range(J + 1)]
    system = NeedletSystem(J, d, av, pair, delta, c_star, grids)
    _spot_check_exactness(system)
    return system


def _spot_check_exactness(system: NeedletSystem):
    """Cheap per-level check that the cubature reproduces orthonormality."""
    for j, tabs in enumerate(system.tables):
        for ax, tab in enumerate(tabs):
            t = tab[: min(3, system.band_degree(j) + 1)]
            gram = t @ t.T
            err = float(np.max(np.abs(gram - np.eye(len(t)))))
            if err > 1e-8:
                raise ArithmeticError(
                    f"cubature exactness violated at level {j}, axis {ax}: {err:.3e}")


def evaluate_needlet(system: NeedletSystem, j: int, gamma, x,
                     which: str = "phi") -> float:
    """Pointwise value of one frame element: c_xi^(1/2) * (level kernel)(x, xi)."""
    if which not in ("phi", "psi"):
        raise ValueError("which must be 'phi' or 'psi'")
    xi = system.node_point(j, gamma)
    c = system.node_coeff(j, gamma)
    pair = system.pair
    cut = pair.b_hat if which == "psi" and not pair.tight else pair.a_hat
    return math.sqrt(c) * _filtered_sum(cutoff_weights(cut, _level_scale(j)),
                                        system.alpha, x, xi)


def _band_rows(d: int, cut, j: int, cap: int) -> slice | None:
    """The per-axis degrees r0..r1 (a slice, or None if none) that the level-j filter
    cut(|nu|/4^(j-1)) reaches on coefficients of total degree <= cap: with [lo, hi]
    its nonzero degrees, r1 = min(hi, cap) and r0 = max(0, lo - (d-1) r1), as a total
    degree of at least lo leaves no single coordinate below r0."""
    lo, hi = _filter_band(cut, _level_scale(j))
    r1 = min(hi, cap)
    r0 = max(0, lo - (d - 1) * r1)
    return None if lo > cap or r0 > r1 else slice(r0, r1 + 1)


def _live_box(system: NeedletSystem, j: int, cut, cap: int):
    """Where the level-j transform with filter cut(|nu|/4^(j-1)), on coefficients of
    total degree <= cap, is not exactly 0, or None if nowhere: ``(rows, K)``, with rows
    the ``_band_rows`` capped also at the top table row and K per axis the node count
    ``_reach(tab)[r1]``, r1 the last row; the table columns from K on are 0 there."""
    rows = _band_rows(system.d, cut, j, min(cap, len(system.tables[j][0]) - 1))
    return None if rows is None else (rows, tuple(int(r[rows.stop - 1]) for r in system._reach[j]))


def _low_exponent(arr: np.ndarray) -> float:
    """fe(beta) - 53 for the least nonzero |component| beta of ``arr``, fe(x) the
    exponent of ``math.frexp`` (e(x) + 1), or -inf when beta is not finite (see
    ``analyze``)."""
    parts = np.abs(arr.view(float) if arr.dtype.kind == "c" else arr)
    beta = float(np.minimum.reduce(parts, axis=None, where=parts > 0, initial=math.inf))
    return math.frexp(beta)[1] - 53 if math.isfinite(beta) else -math.inf


_TRANSFORM_PLANS = _ArrayCache()


def _analysis_plan(system: NeedletSystem, cap: int) -> tuple:
    """Per level, what ``analyze`` of a function of degree ``cap`` reads besides the
    function: None where the level is 0, else (r0, r1, K, w, floors, bound) with
    r0..r1 - 1 and K the ``_live_box``, w the filter a(|nu|/4^(j-1)) on the block of
    those rows, ``floors`` the sum over the tables of fe(tau_l) - 53 for their trim
    floors tau_l, and ``bound`` = floors + 52 + the ``_low_exponent`` of w."""
    cut = system.pair.a_hat

    def make():
        levels = []
        for j, tabs in enumerate(system.tables):
            box = _live_box(system, j, cut, cap)
            if box is None:
                levels.append(None)
                continue
            rows, K = box
            degrees = _degree_grid((rows.stop - rows.start,) * system.d)
            w = _degree_weights(cut, _level_scale(j), degrees, system.d * rows.start)
            floors = sum(math.frexp(max(_TINY, _TABLE_TRIM / math.sqrt(tab.size)))[1] - 53
                         for tab in tabs)
            levels.append((rows.start, rows.stop, K, w, floors, floors + 52 + _low_exponent(w)))
        return tuple(levels)

    return _TRANSFORM_PLANS.get(("analyze", system.hash, cap), make)


def analyze(system: NeedletSystem, f: CoeffFn) -> NeedletCoeffs:
    """Needlet coefficients <f, phi_xi> for every level and node.

    Exact in coefficient space: the level-j coefficient at node xi is
    c_xi^(1/2) sum_nu conj(a(|nu|/4^(j-1))) f_nu F_nu(xi), with the factors read
    from the trimmed node tables.  Each level is folded only on its live box (see
    ``_live_box``), is exactly 0 outside it, and is stored as that box: a new
    C-contiguous read-only array of shape K.  Against the untrimmed tables T_l a
    level moves by at most d 2^-56 max|a| ||f|| times prod_l ||T_l||_2: each axis's
    trimmed part has Frobenius norm at most 2^-56, and the cubature's exactness
    keeps each ||T_l||_2 <= 1 + 1e-10.  The boxes and filters come from a plan.

    A level is flushed of subnormals (``_flush_subnormal``) only when one can occur.
    Every nonzero double x is an integer multiple of 2^(e(x) - 52), e(x) = floor(log2
    |x|), and so of 2^(e(beta) - 52) for the filtered block's least nonzero |component|
    beta, and of 2^(e(tau_l) - 52) for axis l's table, whose nonzero entries are at
    least its trim floor tau_l = max(tiny, 2^-56 / sqrt(size)).  Products and sums of
    multiples of powers of two are multiples of their product or of the smaller one,
    and rounding to a double keeps that while the power is at least 2^-1074.  So every
    level entry is a multiple of 2^P, P = (e(beta) - 52) + sum_l (e(tau_l) - 52), and
    each partial fold of one of 2^P or more.  When P >= -1022 every nonzero entry is
    normal and the flush is skipped.  The fold's sums start from +0, so it yields no
    -0.0 for the flush to turn into +0.0 either: the level is the same bit for bit.
    A NaN or inf in the block makes every entry NaN or inf.  The block's beta is
    read only when one pass over f cannot settle it: a nonzero product f_nu a_nu of
    normal size is at least 2^(e(phi) + e(omega)), phi and omega the least nonzero
    |component| of f and of the block's filter, so e(beta) >= e(phi) + e(omega), and
    putting that in place of e(beta) in P >= -1022 is enough to skip.
    """
    if f.alpha.alpha != system.alpha.alpha:
        raise ValueError("function and system have different alpha")
    if f.max_degree > system.max_degree():
        raise ValueError(
            f"degree {f.max_degree} exceeds the system band 4^J = {system.max_degree()}")
    boxes, low = [], _low_exponent(f.coeffs)
    for tabs, level_plan in zip(system.tables, _analysis_plan(system, f.max_degree)):
        if level_plan is None:
            level = np.zeros((0,) * f.d, dtype=f.coeffs.dtype)
        else:
            r0, r1, K, w, floors, bound = level_plan
            block = f.coeffs[(slice(r0, r1),) * f.d] * w
            level = _fold(block, [tab[r0:r1, :k] for tab, k in zip(tabs, K)])
            if low + bound < -1022 and _low_exponent(block) + floors < -1022:
                _flush_subnormal(level)
        level.flags.writeable = False
        boxes.append(level)
    return NeedletCoeffs(tuple(boxes), system.hash, tuple((g.n_j,) * f.d for g in system.grids))


def _system_levels(coeffs: NeedletCoeffs, system: NeedletSystem) -> tuple[np.ndarray, ...]:
    """The per-level boxes of coefficients with this system's hash, level count and
    level shapes (n_j,)^d."""
    if coeffs.system_hash != system.hash:
        raise ValueError("coefficients come from a different system")
    if coeffs.level_count != system.J + 1:
        raise ValueError("level count does not match the system")
    for j, (shape, g) in enumerate(zip(coeffs._level_shapes(), system.grids)):
        if shape != (g.n_j,) * system.d:
            raise ValueError(f"level {j} has shape {shape}, not {(g.n_j,) * system.d}")
    return coeffs._boxes


def _synthesis_plan(system: NeedletSystem, box_shapes: tuple) -> tuple:
    """Per level, what ``synthesize`` reads besides coefficients whose stored boxes
    have the shapes ``box_shapes``: None where the level adds nothing, else
    (r0, r1, K, blocks), with r0..r1 - 1 the ``_live_box`` rows and K its nodes cut to
    the stored box; per block of first-axis degrees a..b - 1, (a, b, end, nodes, w,
    clip): the later axes' row stop and node counts, the filter b(|nu|/4^(j-1)) on
    the block, and the mask of its degrees above 4^J, or None where 4^J cuts none."""
    d, n_out, cut = system.d, system.max_degree(), system.pair.b_hat

    def make():
        levels = []
        for j, shape in enumerate(box_shapes):
            box = _live_box(system, j, cut, n_out)
            if box is None or not math.prod(shape):
                levels.append(None)
                continue
            rows, K = box
            K = tuple(map(min, K, shape))
            reach, r0, scale = system._reach[j], rows.start, _level_scale(j)
            hi = _filter_band(cut, scale)[1]
            top = min(hi, n_out)
            step = -(-(rows.stop - r0) // (1 if d == 1 else _SYNTH_BLOCKS))
            blocks = []
            for a in range(r0, rows.stop, step):
                b = min(a + step, rows.stop)
                end = min(rows.stop, top - a - (d - 2) * r0 + 1)  # the later axes' row stop
                if end <= r0:
                    break
                nodes = tuple(min(k, int(r[end - 1])) for k, r in zip(K[1:], reach[1:]))
                corner = a + (d - 1) * r0
                degrees = _degree_grid((b - a,) + (end - r0,) * (d - 1))
                clipped = n_out < min(hi, corner + sum(degrees.shape) - d)  # 4^J cuts the band
                blocks.append((a, b, end, nodes, _degree_weights(cut, scale, degrees, corner),
                               degrees > n_out - corner if clipped else None))
            levels.append((r0, rows.stop, K, tuple(blocks)))
        return tuple(levels)

    return _TRANSFORM_PLANS.get(("synthesize", system.hash, box_shapes), make)


def synthesize(system: NeedletSystem, coeffs: NeedletCoeffs) -> CoeffFn:
    """Sum of h_xi psi_xi as a coefficient function of degree at most 4^J; each level
    enters only through its live box (see ``_live_box``), cut further to the level's
    stored box, since the level is 0 beyond it.

    The level filter b(|nu|/4^(j-1)) and the degree cap 4^J keep only the nu with
    |nu| <= top = min(hi, 4^J), hi the filter's last nonzero degree: a simplex, not
    the cube of the box's rows r0..r1.  So the first axis is folded once, its nodes
    becoming the rows r0..r1, and the others in blocks of that first degree: in the
    block from nu_0 = a, each later axis keeps only its rows up to
    top - a - (d-2) r0, and its nodes up to their reach there.  Only that region is
    filtered and added.  In d = 1 there is one block, the whole box.  The boxes,
    blocks and filters come from a plan.

    The trimmed tables move each axis's product by at most 2^-56 ||h_j|| (Frobenius),
    below the GEMM rounding gamma_k |T| |h| that the product carries anyway."""
    boxes = _system_levels(coeffs, system)
    d, n_out = system.d, system.max_degree()
    out = np.zeros((n_out + 1,) * d, dtype=np.result_type(float, *boxes))
    plan = _synthesis_plan(system, tuple(box.shape for box in boxes))
    for level, tabs, level_plan in zip(boxes, system.tables, plan):
        if level_plan is None:
            continue
        r0, r1, K, blocks = level_plan
        first = _fold(level[tuple(slice(0, k) for k in K)],
                      [tabs[0][r0:r1, :K[0]].T] + [None] * (d - 1))
        for a, b, end, nodes, w, clip in blocks:
            part = first[(slice(a - r0, b - r0),) + tuple(slice(0, k) for k in nodes)]
            if nodes:  # d > 1: fold the later axes
                part = _fold(part, [None] + [tab[r0:end, :k].T for tab, k in zip(tabs[1:], nodes)])
            part *= w  # part is a fresh fold, or in d = 1 the fresh first fold
            if clip is not None:
                part[clip] = 0.0
            out[(slice(a, b),) + (slice(r0, end),) * (d - 1)] += part
    return CoeffFn._unchecked(system.alpha, n_out, out)


def _frame_operator(system: NeedletSystem, cut) -> np.ndarray:
    """sum_j D_cut,j (x_ax G_j,ax) D_a,j on V_deg, deg = ``exact_degree()``: G_j,ax = T T^T
    for one axis's weighted table T, D_cut,j the filter cut(|nu|/4^(j-1)).  cut = a_hat
    gives the frame operator S, b_hat the reconstruction operator R (synthesize after
    analyze).  Rows and columns run over the nu of total degree <= deg, in argwhere order."""
    deg = system.exact_degree()
    idx = np.argwhere(total_degree_grid((deg + 1,) * system.d) <= deg)
    if len(idx) ** 2 * 8 > TABLE_BYTES_CAP:
        raise ResourceWarning(f"the frame operator on V_{deg} would need "
                              f"{len(idx) ** 2 * 8} bytes, above the cap")
    degrees = idx.sum(axis=1)
    op = np.zeros((len(idx), len(idx)))
    for j, tabs in enumerate(system.tables):
        top = min(deg, system.band_degree(j))
        live = np.flatnonzero(degrees <= top)  # the filters vanish above the band
        block = np.outer(*(cutoff_weights(c, _level_scale(j), top)[degrees[live]]
                           for c in (cut, system.pair.a_hat)))
        for tab, nu in zip(tabs, idx[live].T):
            block *= (tab[: top + 1] @ tab[: top + 1].T)[np.ix_(nu, nu)]
        op[np.ix_(live, live)] += block
    return op


def frame_bounds(system: NeedletSystem) -> tuple[float, float]:
    """Exact frame bounds on V_(4^(J-1)): the extreme eigenvalues of the frame operator S,
    that is the min and max of the energy sum |<f, phi_xi>|^2 over unit-norm f."""
    ev = np.linalg.eigvalsh(_frame_operator(system, system.pair.a_hat))
    return float(ev[0]), float(ev[-1])

