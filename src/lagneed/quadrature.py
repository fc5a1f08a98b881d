"""Gauss-Laguerre quadrature, Christoffel functions, and the exponentially
rescaled tensor cubature on the positive orthant with its level grids and
tiles.

A rule starts from asymptotic zeros of L_n (Bessel-type near 0, Tricomi-type
in the bulk, Airy-type near the top) and takes them to the zeros in one
streaming pass of the damped recurrence: the pass reads the Sturm count at
each point, and from its last two rows and the Laguerre equation a degree-8
Taylor model of L_n, whose zero is the stepped node.  The same model carries
L_n' to that node, where Christoffel-Darboux gives the cubature coefficient,
so nothing overflows, underflows or needs a second pass.  If a step is not
small, or leaves the bracket the Sturm counts give, every node takes a
further pass, from its stepped place or else from its bracket's midpoint.
Several rules are built together: one pass steps each rule not yet final as
a group of its own (``special._damped_rows``), and each comes out bit for bit
as if built alone.  Classical Gauss weights are kept in log form.  Rules and
grids are kept in bounded caches, the rules' built in batches (``_rules``);
their arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import _LN2, AlphaVector, as_alpha, _ArrayCache, _damped_rows, _outer

__all__ = [
    "QuadratureRule",
    "CubatureGrid",
    "gauss_laguerre",
    "christoffel",
    "level_node_count",
    "cubature_grid",
    "weight_W",
    "tile_measure",
]

GRID_POINT_CAP = 10_000_000
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Laguerre rule for weight t^alpha e^(-t), plus rescaled data.

    nodes      : zeros of the degree-n Laguerre polynomial, increasing
    log_weights: log of the classical Gauss weights
    cub_coeffs : c_nu = (1/2) * weight * exp(node), stored directly; inf from about
                 alpha = 120 (n = 64; 135 at n = 8), where cubature_grid refuses them
    sqrt_nodes : square roots of the nodes (cubature abscissae)
    """

    n: int
    alpha: float
    nodes: np.ndarray
    log_weights: np.ndarray
    cub_coeffs: np.ndarray
    sqrt_nodes: np.ndarray


# Zeros of the Airy function Ai; later ones come from their asymptotic series.
_AIRY_ZEROS = (-2.338107410459767, -4.08794944413097, -5.520559828095551,
               -6.786708090071759, -7.944133587120853, -9.02265085334098,
               -10.040174341558085, -11.008524303733262, -11.936015563236262,
               -12.828776752865757)
_TAYLOR_DEGREE = 8      # degree of the local Taylor model of L_n in a pass
_POWERS = np.arange(_TAYLOR_DEGREE + 1)[:, None]
_STEP_LIMIT = 5e-3      # largest final step, as a share of the local node gap
_SLACK = 1e-6           # rounding allowance on brackets, as a share of the gap
_MAX_PASSES = 64
_SIGN_BLOCK = 128       # sign bits held before their changes are counted


def _initial_nodes(keys) -> np.ndarray:
    """Asymptotic zeros of L_n^alpha for each key (n, alpha), one key after another,
    each key's increasing, with nu = 4n + 2 alpha + 2.

    About sqrt(n)/2 zeros at each end come from the Bessel-type (Gatteschi)
    form j_k^2 / nu (1 + (j_k^2 + 2 alpha^2 - 2) / (3 nu^2)), j_k the zeros of
    J_alpha by McMahon's expansion, and the Airy-type form nu + 2^(2/3) a nu^(1/3)
    + ..., a the zeros of Ai counted from the top; the rest from the
    Tricomi-type form nu s - (5/(4(1-s)^2) - 1/(1-s) - 1 + 3 alpha^2) / (3 nu),
    s = cos^2(tau/2), tau - sin tau = (4n - 4k + 3) pi / nu (Gatteschi,
    J. Comput. Appl. Math. 144, 2002; Gil-Segura-Temme, Stud. Appl. Math. 140,
    2018).  The forms run on all keys' points at once, with each key's constants
    repeated over its points; only the powers of the end forms' arrays are taken
    key by key (see ``_powers``).
    """
    ns = [n for n, _ in keys]
    alphas = [alpha for _, alpha in keys]
    nus = [4.0 * n + 2.0 * alpha + 2.0 for n, alpha in keys]
    ms = [min(n, math.ceil(0.5 * math.sqrt(n))) for n in ns]
    starts = np.cumsum([0] + ns[:-1])

    def each(values, counts):
        """Each key's constant repeated over its points."""
        return np.repeat(np.array(values, dtype=float), counts)

    k = np.arange(sum(ns)) - np.repeat(starts, ns)              # index within the key
    c = (np.repeat(4 * np.array(ns) - 1, ns) - 4 * k) * each([math.pi / nu for nu in nus], ns)
    tau = np.cbrt(6.0 * c)
    for _ in range(3):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    r = 2.0 / (1.0 - np.cos(tau))            # 1 / (1 - s), s = cos^2(tau/2)
    nu_k = each(nus, ns)
    x = nu_k - nu_k / r - (r * (1.25 * r - 1.0) + each([3.0 * a ** 2 - 1.0 for a in alphas], ns)) \
        / each([3.0 * nu for nu in nus], ns)

    # the first m points of each key: Bessel-type; the last m: Airy-type
    mus = [4.0 * a ** 2 for a in alphas]
    beta = [np.arange(0.5 * a + 0.75, m + 0.5 * a + 0.5) * math.pi for a, m in zip(alphas, ms)]
    w = np.concatenate([(8.0 * b) ** -2 for b in beta])
    beta = np.concatenate(beta)
    j = beta - each([mu - 1.0 for mu in mus], ms) / (8.0 * beta) * (
        1.0 + w * (each([4.0 * (7.0 * mu - 31.0) / 3.0 for mu in mus], ms)
                   + w * (each([32.0 * (83.0 * mu ** 2 - 982.0 * mu + 3779.0) / 15.0
                                for mu in mus], ms)
                          + w * 64.0 * each([6949.0 * mu ** 3 - 153855.0 * mu ** 2 + 1585743.0 * mu
                                             - 6277237.0 for mu in mus], ms) / 105.0)))
    jj = j * j
    i = np.arange(sum(ms)) - np.repeat(np.cumsum([0] + ms[:-1]), ms)   # index within the end
    x[np.repeat(starts, ms) + i] = jj / each(nus, ms) * (
        1.0 + (jj + each([2.0 * a ** 2 for a in alphas], ms) - 2.0)
        / each([3.0 * nu ** 2 for nu in nus], ms))

    z = np.arange(2.25, 3.0 * max(ms), 3.0) * (0.5 * math.pi)    # 3 pi (4k - 1) / 8
    v = np.concatenate([z[:m] ** -2 for m in ms])
    z = np.concatenate([z[:m] for m in ms])
    ai = -np.cbrt(z * z) * (1.0 + v * (5.0 / 48.0 + v * (-5.0 / 36.0 + v * (
        77125.0 / 82944.0 - v * 108056875.0 / 6967296.0))))
    known = i < len(_AIRY_ZEROS)
    ai[known] = np.array(_AIRY_ZEROS)[i[known]]
    nu3, two3 = [nu ** (1.0 / 3.0) for nu in nus], 2.0 ** (1.0 / 3.0)
    x[np.repeat(starts + ns, ms) - 1 - i] = (
        each([nu + (11.0 / 35.0 - a ** 2) / nu for nu, a in zip(nus, alphas)], ms) + ai * (
            each([two3 ** 2 * (q + 16.0 / 1575.0 / q ** 5) for q in nu3], ms) + ai * (
                each([0.2 * two3 ** 4 / q - 1088.0 / 121275.0 * two3 / q ** 7 for q in nu3], ms)
                + ai * (each([-12.0 / 175.0 / nu for nu in nus], ms) + ai * (
                    each([92.0 / 7875.0 * two3 ** 2 / q ** 5 for q in nu3], ms)
                    - ai * 15152.0 / 3031875.0 * two3 / each([q ** 7 for q in nu3], ms))))))
    x = np.minimum(np.maximum(x, 0.0), nu_k)
    return x[np.lexsort((x, np.repeat(np.arange(len(ns)), ns)))]


def _newton_polish(n, alpha, t: np.ndarray, sizes=None):
    """One streaming pass of the damped recurrence at t, read as a local model of L_n.

    The pass counts the sign changes of q_0(t), ..., q_n(t): a Sturm sequence,
    so the count is the number of zeros of L_n below t.  The signs are read
    from the rescaled state, because converted rows of low degree underflow to
    0 at large t.  From the last two rows ``_taylor_step`` steps each point to
    the nearest zero and gives the Christoffel function there.
    Returns (t + h, lambda_n(t + h) e^(t + h), its log, Sturm counts at t).

    With ``sizes``, n and alpha are given per group of consecutive points of t,
    n not increasing (see ``special._damped_rows``).  A group's counts and last
    two rows are taken when it leaves the pass, and one Taylor step then serves
    every group.
    """
    if sizes is None:
        n, alpha, sizes = (n,), (alpha,), (t.size,)
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    spans = [slice(end - size, end) for end, size in zip(ends, sizes)]
    count = np.zeros(t.size, dtype=np.int64)
    signs = np.zeros((_SIGN_BLOCK + 1, t.size), dtype=bool)
    bits = signs.view(np.uint8)
    last, g = [None] * len(n), len(n) - 1
    rows = _damped_rows(n, alpha, t, sizes)
    state = next(rows)      # q_0 > 0: sign bit 0, already in signs[0]
    i = 0
    for step, state in enumerate(rows, 1):
        i += 1
        w = len(state.v)
        np.signbit(state.v, out=signs[i, :w])
        if i == _SIGN_BLOCK:
            count[:w] += np.bitwise_xor(bits[1:, :w], bits[:-1, :w]).sum(axis=0, dtype=np.uint8)
            signs[0, :w] = signs[i, :w]
            i = 0
        while g >= 0 and n[g] == step:  # group g leaves; no later step writes its rows
            sl = spans[g]
            count[sl] += np.bitwise_xor(bits[1:i + 1, sl], bits[:i, sl]).sum(axis=0, dtype=np.uint8)
            last[g] = state.v[sl], state.v_prev[sl]
            g -= 1
    return (*_taylor_step(np.repeat(np.array(n, dtype=float), sizes),
                          np.repeat(np.array(alpha, dtype=float), sizes), t,
                          *(np.concatenate(rows) for rows in zip(*last)),
                          state.frac, state.m0 + state.shift, spans), count)


def _powers(h: np.ndarray, spans, top: int) -> np.ndarray:
    """h^k, k = 0..top, shape (top+1, h.size), each group's on an array of its own.

    np.power's vector and scalar loops round some powers differently, and which
    points take which depends on where they sit in the array, so a group's
    powers come out as in a pass of its own only from an array of the group alone.
    """
    return np.concatenate([h[sl] ** _POWERS[:top + 1] for sl in spans], axis=1)


def _taylor_step(n, alpha, t, v, v_prev, frac, exponent, spans):
    """Newton's step from t to the nearest zero of L_n, from the damped recurrence's
    rows q_n = v frac 2^exponent and q_(n-1) = v_prev frac 2^exponent at t, with n and
    alpha per point and the points in the groups ``spans``; returns (t + h,
    lambda_n(t + h) e^(t + h), its log).  Every step but the powers of h (``_powers``)
    is elementwise, so a group's results do not depend on the others.

    From the last two rows, t L_n' = n L_n - b_n L_(n-1) (the orthonormal,
    same-alpha identity, b_k = sqrt(k(k+a))) gives L_n', and the Laguerre
    equation t y^(m+2) = (t - a - 1 - m) y^(m+1) - (n - m) y^(m) every further
    derivative, so Newton's method on the degree-8 Taylor polynomial of L_n at t
    (damped by e^(-h/2)) finds the step h to the nearest zero.  At a zero
    sum_{k<n} q_k^2 = t q_n'^2 (Christoffel-Darboux), and the Taylor polynomial of
    L_n' carries q_n' from t to t + h, so the Christoffel function at the stepped
    node needs no second pass.
    """
    # Taylor coefficients c_m = L_n^(m)(t) / (m! L_n'(t)): c_0 = L_n / L_n', c_1 = 1,
    # and by the Laguerre equation c_(m+2) = up_m c_(m+1) - down_m c_m.  A point
    # far from every zero may give a non-finite step, which the caller's
    # bracket test turns away.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        deriv = (n * v - np.sqrt(n * (n + alpha)) * v_prev) / t
        m = np.arange(_TAYLOR_DEGREE - 1.0)[:, None]
        up = (t - (alpha + 1.0 + m)) / ((m + 2.0) * t)
        down = ((n - m) / ((m + 2.0) * (m + 1.0))) / t
        c = np.empty((_TAYLOR_DEGREE + 1, t.size))
        c[0], c[1] = v / deriv, 1.0
        for k in range(_TAYLOR_DEGREE - 1):
            np.subtract(up[k] * c[k + 1], down[k] * c[k], out=c[k + 2])
        dc = _POWERS[1:] * c[1:]
        # Newton's method on the damped model e^(-h/2) L_n(t + h), which lacks
        # the undamped polynomial's e^(h/2) growth, from its first step; three
        # iterations, as a lone node's wide gap lets a far-off start pass the step test
        h = -c[0] / (1.0 - 0.5 * c[0])
        for _ in range(3):
            hp = _powers(h, spans, _TAYLOR_DEGREE)
            f = (c * hp).sum(axis=0)
            h = h - f / ((dc * hp[:-1]).sum(axis=0) - 0.5 * f)
        root = t + h
        # e^(-t/2) L_n'(t + h) = slope 2^(e + exponent), slope in [1/2, 1)
        slope, e = np.frexp(deriv * (dc * _powers(h, spans, _TAYLOR_DEGREE - 1)).sum(axis=0) * frac)
        return (root, *_scaled(np.exp(h) / (root * slope * slope), -2 * (e + exponent)))


def _scaled(mantissa: np.ndarray, exponent: np.ndarray):
    """(mantissa 2^exponent, its log); where the value overflows to inf (callers
    silence that warning), its log stays finite."""
    return np.ldexp(mantissa, exponent), np.log(mantissa) + exponent * _LN2


def _local_gaps(t: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearer neighbour, 0 counting as the first's,
    along the last axis."""
    gap = np.empty_like(t)
    gap[..., 0], gap[..., 1:] = t[..., 0], t[..., 1:] - t[..., :-1]
    gap[..., :-1] = np.minimum(gap[..., :-1], gap[..., 1:])
    return gap


class _RuleCache(_ArrayCache):
    """The bounded cache of rules, keyed by (n, alpha), which also counts in
    ``_passes`` the grouped recurrence passes that built its rules."""

    def __init__(self):
        super().__init__(max_bytes=64 << 20, max_entries=256)
        self._passes = 0


_RULES = _RuleCache()


def _build_rules(keys) -> list:
    """The rules for distinct keys (n, alpha), built together: each pass of the
    damped recurrence steps every rule that is not final yet (``_newton_polish``
    with one group per rule), and each rule comes out bit for bit as if built
    alone.  Between passes each rule's points are a row of a padded array, +inf
    past its n, so every test and update below runs on all rules at once.

    Every zero lies in (0, nu) (Gershgorin on the Jacobi matrix).  lo and hi
    bracket each zero by the Sturm counts seen so far.  A pass is final for a
    rule when every step is small against the local gap, so the Taylor model
    holds, and the stepped nodes are distinct and inside their brackets, so
    they are the n zeros in order.  Otherwise a node moves to its stepped place
    if that lies inside its bracket, else to the bracket's midpoint.
    """
    order = sorted(range(len(keys)), key=lambda g: -keys[g][0])  # n not increasing
    ns = np.array([keys[g][0] for g in order])
    alphas = [keys[g][1] for g in order]
    nus = 4.0 * ns + 2.0 * np.array(alphas) + 2.0
    live = np.arange(ns[0]) < ns[:, None]
    t = np.full(live.shape, np.inf)
    t[live] = _initial_nodes([keys[g] for g in order])
    lo, hi = np.zeros(live.shape), np.repeat(nus[:, None], ns[0], axis=1)
    rules, todo = [None] * len(keys), np.arange(len(keys))
    for _ in range(_MAX_PASSES):
        part = live[todo]
        root, lam_exp, log_lam_exp = (np.full(part.shape, np.nan) for _ in range(3))
        root[part], lam_exp[part], log_lam_exp[part], count = _newton_polish(
            ns[todo].tolist(), [alphas[g] for g in todo], t[todo][part], ns[todo].tolist())
        with _RULES._lock:
            _RULES._passes += 1
        where = (np.nonzero(part)[0], count)
        below = np.zeros((len(todo), ns[0] + 1))
        above = np.repeat(nus[todo, None], ns[0] + 1, axis=1)
        np.maximum.at(below, where, t[todo][part])
        np.minimum.at(above, where, t[todo][part])
        lo[todo] = np.maximum(lo[todo], np.maximum.accumulate(below, axis=1)[:, :-1])
        hi[todo] = np.minimum(hi[todo], np.minimum.accumulate(above[:, ::-1], axis=1)[:, -2::-1])
        tt, low, high = t[todo], lo[todo], hi[todo]
        with np.errstate(invalid="ignore"):  # inf - inf past each rule's n
            gap = _local_gaps(tt)
            slack = _SLACK * gap
            steps_ok = ((np.abs(root - tt) <= _STEP_LIMIT * gap) & (root >= low - slack)
                        & (root <= high + slack))
            apart = root[:, 1:] - root[:, :-1] > slack[:, 1:]
            final = (np.where(part, steps_ok, True).all(axis=1)
                     & np.where(part[:, 1:], apart, True).all(axis=1))
        nodes = np.minimum(np.maximum(root, low), high)
        for row in np.flatnonzero(final):
            g, n = order[todo[row]], ns[todo[row]]
            rule = nodes[row, :n]
            if not ((rule[1:] > rule[:-1]).all() and rule[0] > 0.0 and rule[-1] < nus[todo[row]]):
                raise ArithmeticError(f"invalid Gauss-Laguerre nodes for n={n}, alpha={keys[g][1]}")
            rules[g] = QuadratureRule(int(n), keys[g][1], rule.copy(), log_lam_exp[row, :n] - rule,
                                      0.5 * lam_exp[row, :n], np.sqrt(rule))
        tt = np.where((root > low) & (root < high), root, 0.5 * (low + high))
        tt[~part] = np.inf
        t[todo] = np.sort(tt, axis=1)
        todo = todo[~final]
        if not todo.size:
            return rules
    n, alpha = keys[order[todo[0]]]  # pragma: no cover - defect path
    raise ArithmeticError(f"no Gauss-Laguerre rule for n={n}, alpha={alpha} "
                          f"after {_MAX_PASSES} passes")


def _rules(keys) -> list:
    """The rules for the keys (n, alpha), checked by the caller, from the cache; the
    missing ones are built together (``_build_rules``)."""
    return _RULES.get_many([(int(n), float(alpha)) for n, alpha in keys], _build_rules)


def gauss_laguerre(n: int, alpha: float) -> QuadratureRule:
    """Gauss-Laguerre rule with n nodes for weight t^alpha e^(-t)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    return _rules([(n, alpha)])[0]


def christoffel(n: int, alpha: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Christoffel function of the first n orthonormal Laguerre polynomials.

    Returns (log lambda_n(x), lambda_n(x) * exp(x)), where the second form is
    1 / sum_{j<n} q_j(x)^2.  The squares are summed as mantissas and exponents
    of the recurrence's rescaled state, so log lambda_n(x) is finite at every
    x >= 0.  lambda_n(x) e^x is of moderate size on the rules' support
    x < 4n + 2 alpha + 2; far beyond it, it overflows and is returned as inf.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("points must be nonnegative")
    u = x_arr.reshape(-1)
    # sum_{j<=k} q_j^2 = total 2^(top + 2 m0), with q_j = mant 2^(e + m0 + shift)
    total, top = np.zeros(u.size), np.full(u.size, -(2 ** 20), dtype=np.int64)
    for state in _damped_rows(n - 1, alpha, u):
        mant, e = np.frexp(state.v * state.frac)
        e = 2 * (e + state.shift)
        new_top = np.maximum(top, e)
        total = np.ldexp(total, top - new_top) + np.ldexp(mant * mant, e - new_top)
        top = new_top
    with np.errstate(over="ignore"):
        lam_exp, log_lam_exp = _scaled(1.0 / total, -(top + 2 * state.m0))
    lam_exp, log_lam = lam_exp.reshape(x_arr.shape), (log_lam_exp - u).reshape(x_arr.shape)
    if np.ndim(x) == 0:
        return float(log_lam), float(lam_exp)
    return log_lam, lam_exp


def level_node_count(j: int, delta: float = 0.03, c_star: float = 1.0) -> int:
    """Per-axis node count n_j = floor((1+11 delta) sqrt(6) 4^j / c_star) + 1, j >= 0."""
    if j < 0:
        raise ValueError("level must be nonnegative")
    if not (0.0 < delta < 1.0 / 26.0):
        raise ValueError("delta must lie in (0, 1/26)")
    if not (0.0 < c_star <= 1.0):
        raise ValueError("c_star must lie in (0, 1]")
    return int(math.floor((1.0 + 11.0 * delta) * math.sqrt(6.0) * 4.0 ** j / c_star)) + 1


def _interval_measures(breaks, a: float) -> np.ndarray:
    """Closed-form w_alpha measures (hi^p - lo^p)/p, p = 2a+2, of the
    intervals between consecutive breakpoints on one axis."""
    p = 2.0 * a + 2.0
    return np.diff(np.asarray(breaks, dtype=float) ** p) / p


def tile_measure(box, alpha) -> float:
    """Closed-form w_alpha measure of a box: prod (b^(2a+2)-a^(2a+2))/(2a+2)."""
    av = as_alpha(alpha)
    box = tuple((float(a), float(b)) for a, b in box)
    if len(box) != av.d:
        raise ValueError("box dimension does not match alpha")
    for lo, hi in box:
        if not (0.0 <= lo < hi):
            raise ValueError(f"inverted or negative box side ({lo}, {hi})")
    return math.prod(float(_interval_measures(side, a)[0]) for side, a in zip(box, av))


class CubatureGrid:
    """Level-j tensor cubature grid with coefficients and tiles.

    The grid is the tensor product of per-axis rescaled Gauss-Laguerre
    abscissae xi = sqrt(t); the cubature integrates f*g exactly against
    w_alpha whenever f, g are Laguerre-function polynomials whose degrees
    sum to at most 2 n_j - 1.
    """

    def __init__(self, j, alpha: AlphaVector, delta, c_star, rules, right_extension):
        self.j = int(j)
        self.alpha = alpha
        self.d = alpha.d
        self.delta = float(delta)
        self.c_star = float(c_star)
        self.n_j = rules[0].n
        self._rules = tuple(rules)
        self.right_extension = ext = float(right_extension)

        self.axis_xi = tuple(r.sqrt_nodes for r in self._rules)
        self.axis_c = tuple(r.cub_coeffs for r in self._rules)
        self.axis_breaks = tuple(self._breaks(xi, ext) for xi in self.axis_xi)
        for a, c, br in zip(self.alpha, self.axis_c, self.axis_breaks):
            # a coefficient lambda_n e^t, or the measure of the last tile
            # (a power 2a+2 of its right end), above the float64 range
            if not (np.isfinite(c).all() and (2.0 * a + 2.0) * math.log(br[-1]) < _LOG_MAX):
                raise ValueError(f"no level-{self.j} grid for alpha={a} with n_j={self.n_j}: "
                                 "its cubature coefficients or tile measures overflow")
        self.axis_tile_measure = tuple(
            _interval_measures(br, a) for br, a in zip(self.axis_breaks, self.alpha))
        for arr in self.axis_breaks + self.axis_tile_measure:
            arr.flags.writeable = False

    @staticmethod
    def _breaks(xi: np.ndarray, ext: float) -> np.ndarray:
        mids = 0.5 * (xi[:-1] + xi[1:])
        return np.concatenate(([0.0], mids, [0.5 * (xi[-1] + xi[-1] + ext)]))

    @property
    def point_count(self) -> int:
        return self.n_j ** self.d

    def _require_flat(self) -> None:
        """Refuse to flatten a grid of more than GRID_POINT_CAP points; its
        per-axis arrays stay available at any size."""
        if self.point_count > GRID_POINT_CAP:
            raise ResourceWarning(f"flattening the grid would give {self.point_count} "
                                  f"points, above the cap {GRID_POINT_CAP}")

    def points(self) -> np.ndarray:
        """All grid points, shape (n_j^d, d), in lexicographic gamma order."""
        self._require_flat()
        mesh = np.meshgrid(*self.axis_xi, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def coeffs(self) -> np.ndarray:
        """Cubature coefficients c_gamma in the same order as points()."""
        self._require_flat()
        return _outer(self.axis_c).reshape(-1)

    def tile_measures(self) -> np.ndarray:
        """w_alpha measures of all tiles, same ordering as points()."""
        self._require_flat()
        return _outer(self.axis_tile_measure).reshape(-1)


@lru_cache(maxsize=64)
def _cubature_grid_cached(j: int, alpha: AlphaVector, delta: float, c_star: float,
                          ext: float) -> CubatureGrid:
    rules = tuple(gauss_laguerre(level_node_count(j, delta, c_star), a) for a in alpha)
    return CubatureGrid(j, alpha, delta, c_star, rules, ext)


def cubature_grid(j: int, d: int, alpha, delta: float = 0.03, c_star: float = 1.0,
                  right_extension: float | None = None) -> CubatureGrid:
    """Build (or fetch) the level-j cubature grid on R_+^d."""
    av = as_alpha(alpha)
    if av.d != d:
        raise ValueError(f"alpha has dimension {av.d}, expected {d}")
    j = int(j)
    ext = 2.0 ** (j / 3.0) if right_extension is None else float(right_extension)
    return _cubature_grid_cached(j, av, float(delta), float(c_star), ext)


def _axis_W(n: float, a: float, x) -> np.ndarray:
    """One axis's factor (x + n^(-1/2))^(2a + 1) of ``weight_W``, unchecked."""
    return (x + n ** -0.5) ** (2.0 * a + 1.0)


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
    vals = math.prod(_axis_W(n, a, pts[..., i]) for i, a in enumerate(av.alpha))
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
    target = np.array([math.lgamma(k + rule.alpha + 1.0) for k in range(k_max + 1)])
    return np.abs(np.expm1(lm - target))
