"""Reference evaluations that only the tests read: a raw Laguerre polynomial,
cubature sums over a flattened grid, the filtered kernel summed directly
over one Laguerre-function family, a level's amplitudes laid out on the
cells of the sequence F-norm by an open-mesh index, needlet levels from
whole node tables, trimmed or not, analysis and synthesis that work out
every box, filter and block on each call, the continuous norms with every
band part formed on all live integration nodes, the lattice maximal
function box by box, and a Gauss-Laguerre rule built alone."""

import itertools
import math

import numpy as np

from lagneed.kernels import _filter_band, _filter_degrees, _kernel_weights, _level_scale, cutoff_weights
from lagneed import needlets
from lagneed.needlets import CoeffFn, NeedletCoeffs, _band_rows, _live_box, _system_levels
from lagneed.spaces import (_axis_weight_factors, _B_reduce, _F_reduce, _lp, _scaled_axes,
                            _scaled_max)
from lagneed.quadrature import (_AIRY_ZEROS, _MAX_PASSES, _SLACK, _STEP_LIMIT, _TAYLOR_DEGREE,
                                _local_gaps)
from lagneed.special import (_BOUND_LIMIT, _LN2, _RESCALE_LIMIT, _RESCALE_SHIFT, _TINY,
                             _coeff_shift, _convolve_degrees, _flush_subnormal, _fold, as_alpha,
                             laguerre_fn_batch, total_degree_grid)


def laguerre_poly(n: int, alpha: float, x: float) -> float:
    """Raw Laguerre polynomial value by the forward three-term recurrence.

    Overflows for large n*x are a defect of the raw scale; the library's
    ``laguerre_fn_batch`` gives damped, overflow-free values.
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


def cubature_integrate(grid, f, g=None):
    """Sum of c_xi f(xi) g(xi) over the grid, in deterministic order.

    f and g take a length-d point array; g defaults to 1.  Accumulation is
    exact (fsum), meeting the 1e-10 exactness contracts at any grid size.
    """
    pts = grid.points()
    fv = np.asarray([f(p) for p in pts])
    if g is not None:
        fv = fv * np.asarray([g(p) for p in pts])
    return cubature_integrate_values(grid, fv)


def cubature_integrate_values(grid, values):
    """As cubature_integrate, for values already evaluated in grid order."""
    c = grid.coeffs()
    vals = np.asarray(values).reshape(-1)
    if vals.shape != c.shape:
        raise ValueError("values do not match the grid layout")
    terms = c * vals
    if np.iscomplexobj(terms):
        return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return math.fsum(terms.tolist())


def lambda_direct(n: int, alpha, a_hat, x, y, family: str) -> float:
    """sum_m a(m/n) sum_{|nu|=m} G_nu(x) G_nu(y) for the family G, summed directly;
    the oracle for ``lambda_tilde`` (family L) and ``lambda_star`` (family M)."""
    w = _kernel_weights(a_hat, n)
    xs, ys = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float))
    table = _convolve_degrees([laguerre_fn_batch(len(w) - 1, a, xi, family)
                               * laguerre_fn_batch(len(w) - 1, a, yi, family)
                               for a, xi, yi in zip(as_alpha(alpha), xs, ys)])
    return float(math.fsum(w * table))


def cells_by_open_mesh(amp: np.ndarray, maps) -> np.ndarray:
    """A level's amplitudes on the cells of the sequence F-norm: padded with a
    trailing 0 per axis and indexed by the open mesh of the per-axis tile
    indices ``maps``; the oracle for ``spaces._on_cells``."""
    return np.pad(amp, [(0, 1)] * amp.ndim)[np.ix_(*maps)]


def untrimmed_tables(system, j: int) -> list[np.ndarray]:
    """Level j's per-axis node tables c_k^(1/2) F_m(xi_k) as the recurrence gives
    them, without the Frobenius-floor trim that ``NeedletSystem`` applies."""
    g = system.grids[j]
    return [laguerre_fn_batch(system.band_degree(j), a, xi, "F") * np.sqrt(c)
            for a, xi, c in zip(system.alpha, g.axis_xi, g.axis_c)]


def dense_levels(system, f, tables) -> list[np.ndarray]:
    """Needlet levels of f from whole per-level node tables, every row and every
    node, one einsum per axis and no flush; ``tables`` is ``system.tables`` or the
    ``untrimmed_tables``."""
    levels = []
    for j, tabs in enumerate(tables):
        cap = min(system.band_degree(j), f.max_degree)
        block = f.coeffs[(slice(0, cap + 1),) * f.d]
        level = block * cutoff_weights(system.pair.a_hat, _level_scale(j),
                                       f.d * cap)[total_degree_grid(block.shape)]
        for tab in tabs:
            level = np.einsum("m...,mk->...k", level, tab[: cap + 1], optimize=True)
        levels.append(level)
    return levels


def ldexp_view(arr: np.ndarray, e: int) -> np.ndarray:
    """2^e arr as a new array, a complex one scaled as its float view."""
    arr = np.ascontiguousarray(arr)
    return np.ldexp(arr.view(float), e).view(arr.dtype)


def per_call_analyze(system, f) -> NeedletCoeffs:
    """``analyze`` with each level's box and filter worked out on the call, as the
    library did before it kept them in plans: the levels of 2^-e f, e the binary
    exponent of f's largest |coefficient|, unflushed, with e kept; the same GEMMs on
    the same operands, so the same bits."""
    e = math.frexp(float(np.max(np.abs(f.coeffs))))[1]
    unit = ldexp_view(f.coeffs, -e)
    boxes = []
    for j in range(system.J + 1):
        box = _live_box(system, j, system.pair.a_hat, f.max_degree)
        if box is None:
            level = np.zeros((0,) * f.d, dtype=f.coeffs.dtype)
        else:
            rows, K = box
            block = _filter_degrees(unit[(rows,) * f.d], system.pair.a_hat,
                                    _level_scale(j), corner=f.d * rows.start)
            level = _fold(block, [tab[rows, :k] for tab, k in zip(system.tables[j], K)])
        level.flags.writeable = False
        boxes.append(level)
    return NeedletCoeffs(tuple(boxes), system.hash, tuple((g.n_j,) * f.d for g in system.grids), e)


def per_call_synthesize(system, coeffs) -> CoeffFn:
    """``synthesize`` with each level's box, blocks of ``needlets._SYNTH_BLOCKS``, filter
    and 4^J clip worked out on the call, as the library did before it kept them in
    plans, the sum scaled by 2^_exp; the same GEMMs on the same operands, so the same
    bits."""
    boxes = _system_levels(coeffs, system)
    d, n_out, cut = system.d, system.max_degree(), system.pair.b_hat
    out = np.zeros((n_out + 1,) * d, dtype=np.result_type(float, *boxes))
    for j, level in enumerate(boxes):
        box = _live_box(system, j, cut, n_out)
        if box is None or not level.size:
            continue
        rows, K = box
        K = tuple(map(min, K, level.shape))
        tabs, reach, r0 = system.tables[j], system._reach[j], rows.start
        scale = _level_scale(j)
        hi = _filter_band(cut, scale)[1]
        top = min(hi, n_out)
        first = _fold(level[tuple(slice(0, k) for k in K)],
                      [tabs[0][rows, :K[0]].T] + [None] * (d - 1))
        step = -(-len(first) // (1 if d == 1 else needlets._SYNTH_BLOCKS))
        for a in range(r0, rows.stop, step):
            b = min(a + step, rows.stop)
            end = min(rows.stop, top - a - (d - 2) * r0 + 1)  # the later axes' row stop
            if end <= r0:
                break
            nodes = [min(k, int(r[end - 1])) for k, r in zip(K[1:], reach[1:])]
            part = _fold(first[(slice(a - r0, b - r0),) + tuple(slice(0, k) for k in nodes)],
                         [None] + [tab[r0:end, :k].T for tab, k in zip(tabs[1:], nodes)])
            corner = a + (d - 1) * r0
            degrees = total_degree_grid(part.shape)
            part = _filter_degrees(part, cut, scale, degrees, corner)
            if n_out < min(hi, corner + sum(part.shape) - d):  # 4^J clips the band here
                part[degrees > n_out - corner] = 0.0
            out[(slice(a, b),) + (slice(r0, end),) * (d - 1)] += part
    return CoeffFn._unchecked(system.alpha, n_out, ldexp_view(out, coeffs._exp))


def live_node_cont_norms(f, params, system, level):
    """(F, B) continuous norms, F None at p = inf, with every band part formed on
    all live nodes of ``spaces._scaled_axes`` and no box: the norms' arithmetic
    on the whole live grid, so a norm whose box is not certified returns these
    bits.  The levels are formed one at a time, once for each norm."""
    xis, tables, weights, exps = _scaled_axes(f, params.p, system, level)
    shift, cut = _coeff_shift([f.coeffs]), system.pair.a_hat

    def levels():
        j = 0
        while _filter_band(cut, _level_scale(j))[0] <= f.max_degree:
            rows = _band_rows(f.d, cut, j, f.max_degree)
            if rows is not None:
                block = _filter_degrees(f.coeffs[(rows,) * f.d], cut, _level_scale(j),
                                        corner=f.d * rows.start)
                block = np.ldexp(block.real, -shift) + (1j * np.ldexp(block.imag, -shift)
                                                        if np.iscomplexobj(block) else 0.0)
                mats = [_flush_subnormal(t[rows] * w) for t, w in
                        zip(tables, _axis_weight_factors(xis, system.alpha, j, params.rho))]
                yield j, np.abs(_fold(block, mats))
            j += 1

    F = None if params.p_inf else math.ldexp(
        _F_reduce(levels(), weights, params) ** (1.0 / params.p), shift)
    norms = [(j, _scaled_max(g, exps) if params.p_inf else _lp(g, weights, params.p))
             for j, g in levels()]
    return F, math.ldexp(_B_reduce(norms, params), shift)


def padded_prefix(a: np.ndarray) -> np.ndarray:
    """Prefix sums over every axis, from the first, with a leading 0 on each."""
    for ax in range(a.ndim):
        a = np.cumsum(a, axis=ax)
    return np.pad(a, [(1, 0)] * a.ndim)


def lattice_box_maximal(samples, t: float) -> np.ndarray:
    """The lattice maximal function by brute force: for every lattice box, one at a
    time, (num(B) / mu(B))^(1/t) with num and mu read off the padded prefix sums
    by differences taken axis by axis from the first (the arithmetic of
    ``spaces.maximal_fn``), a ratio below 0 taken as 0, and per cell the max over
    the boxes that contain it, starting from 0; the oracle for ``maximal_fn``,
    bit for bit."""
    mu = samples.cell_measures()
    P_num, P_mu = padded_prefix(np.abs(samples.values) ** t * mu), padded_prefix(mu)
    out = np.zeros(mu.shape)
    for box in itertools.product(*(itertools.combinations(range(n + 1), 2) for n in mu.shape)):
        num, den = P_num, P_mu
        for ax, (a, b) in enumerate(box):  # one-entry slices keep arrays, so ** meets
            at = [(slice(None),) * ax + (slice(i, i + 1),) for i in (a, b)]  # numpy's array rule
            num, den = num[at[1]] - num[at[0]], den[at[1]] - den[at[0]]
        ratio = np.maximum(num / den, 0.0)  # below 0 only by rounding, which counts as 0
        ratio = ratio if t == 1.0 else ratio ** (1.0 / t)
        cells = tuple(slice(a, b) for a, b in box)
        out[cells] = np.maximum(out[cells], ratio)
    return out


def single_rule(n: int, alpha: float) -> tuple[np.ndarray, ...]:
    """(nodes, log weights, cubature coefficients, square roots of the nodes) of the
    n-point Gauss-Laguerre rule, built alone: every pass steps this rule's points
    only, through a recurrence whose coefficients are numbers and whose rescale
    bound is tracked step by step, and takes the Newton step on arrays of this
    rule alone.  The grouped passes of ``quadrature._build_rules`` must give the
    same bits."""
    nu = 4.0 * n + 2.0 * alpha + 2.0
    t = single_start(n, alpha)
    lo, hi = np.zeros(n), np.full(n, nu)
    for _ in range(_MAX_PASSES):
        root, lam_exp, log_lam_exp, count = _single_polish(n, alpha, t)
        below, above = np.zeros(n + 1), np.full(n + 1, nu)
        np.maximum.at(below, count, t)
        np.minimum.at(above, count, t)
        lo = np.maximum(lo, np.maximum.accumulate(below)[:-1])
        hi = np.minimum(hi, np.minimum.accumulate(above[::-1])[-2::-1])
        gap = _local_gaps(t)
        slack = _SLACK * gap
        if ((np.abs(root - t) <= _STEP_LIMIT * gap).all()
                and (root >= lo - slack).all() and (root <= hi + slack).all()
                and (root[1:] - root[:-1] > slack[1:]).all()):
            break
        t = np.sort(np.where((root > lo) & (root < hi), root, 0.5 * (lo + hi)))
    else:
        raise ArithmeticError(f"no rule for n={n}, alpha={alpha}")
    nodes = np.minimum(np.maximum(root, lo), hi)
    return nodes, log_lam_exp - nodes, 0.5 * lam_exp, np.sqrt(nodes)


def single_start(n: int, alpha: float) -> np.ndarray:
    """The asymptotic start of ``quadrature._initial_nodes`` for one rule, on arrays
    of that rule alone."""
    nu = 4.0 * n + 2.0 * alpha + 2.0
    c = np.arange(4.0 * n - 1.0, 0.0, -4.0) * (math.pi / nu)
    tau = np.cbrt(6.0 * c)
    for _ in range(3):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    r = 2.0 / (1.0 - np.cos(tau))            # 1 / (1 - s), s = cos^2(tau/2)
    x = nu - nu / r - (r * (1.25 * r - 1.0) + (3.0 * alpha ** 2 - 1.0)) / (3.0 * nu)

    m = min(n, math.ceil(0.5 * math.sqrt(n)))
    beta = np.arange(0.5 * alpha + 0.75, m + 0.5 * alpha + 0.5) * math.pi
    mu = 4.0 * alpha ** 2
    w = (8.0 * beta) ** -2
    j = beta - (mu - 1.0) / (8.0 * beta) * (
        1.0 + w * (4.0 * (7.0 * mu - 31.0) / 3.0
                   + w * (32.0 * (83.0 * mu ** 2 - 982.0 * mu + 3779.0) / 15.0
                          + w * 64.0 * (6949.0 * mu ** 3 - 153855.0 * mu ** 2
                                        + 1585743.0 * mu - 6277237.0) / 105.0)))
    jj = j * j
    x[:m] = jj / nu * (1.0 + (jj + 2.0 * alpha ** 2 - 2.0) / (3.0 * nu ** 2))

    z = np.arange(2.25, 3.0 * m, 3.0) * (0.5 * math.pi)         # 3 pi (4k - 1) / 8
    v = z ** -2
    a = -np.cbrt(z * z) * (1.0 + v * (5.0 / 48.0 + v * (-5.0 / 36.0 + v * (
        77125.0 / 82944.0 - v * 108056875.0 / 6967296.0))))
    a[:len(_AIRY_ZEROS)] = _AIRY_ZEROS[:m]
    nu3, two3 = nu ** (1.0 / 3.0), 2.0 ** (1.0 / 3.0)
    x[n - m:] = (nu + (11.0 / 35.0 - alpha ** 2) / nu + a * (
        two3 ** 2 * (nu3 + 16.0 / 1575.0 / nu3 ** 5) + a * (
            0.2 * two3 ** 4 / nu3 - 1088.0 / 121275.0 * two3 / nu3 ** 7 + a * (
                -12.0 / 175.0 / nu + a * (
                    92.0 / 7875.0 * two3 ** 2 / nu3 ** 5
                    - a * 15152.0 / 3031875.0 * two3 / nu3 ** 7)))))[::-1]
    return np.sort(np.minimum(np.maximum(x, 0.0), nu))


def _single_polish(n: int, alpha: float, t: np.ndarray):
    """One pass of the damped recurrence at t for one rule: the Sturm counts, and the
    Newton step and Christoffel function from the last two rows (see
    ``quadrature._taylor_step``).  The rescale bound is this rule's own, tracked step
    by step, so a grouped pass that matches it shows that its shared rescale
    schedule does not change the rows."""
    e0 = -t / (2.0 * _LN2)
    m0 = np.floor(e0)
    frac, m0 = np.exp2(e0 - m0), m0.astype(np.int64)
    log_start = -0.5 * math.lgamma(alpha + 1.0)
    e = 0 if math.exp(log_start) >= _TINY else math.floor(log_start / _LN2)
    start = math.exp(log_start - e * _LN2)
    shift, v, v_prev = np.full(t.size, e, dtype=np.int64), np.full(t.size, start), np.zeros(t.size)
    count = np.zeros(t.size, dtype=np.int64)
    lo, hi = float(t.min()), float(t.max())
    bound, b_cur = start, 0.0
    for k in range(n):
        c = 2.0 * k + alpha + 1.0
        b_next = math.sqrt((k + 1.0) * (k + 1.0 + alpha))
        growth = max(1.0, (max(c - lo, hi - c) + b_cur) / b_next)
        if bound * growth > _BOUND_LIMIT:
            size = np.maximum(np.abs(v), np.abs(v_prev))
            big = size > _RESCALE_LIMIT
            v[big] = np.ldexp(v[big], -_RESCALE_SHIFT)
            v_prev[big] = np.ldexp(v_prev[big], -_RESCALE_SHIFT)
            shift[big] += _RESCALE_SHIFT
            bound = float(np.max(np.where(big, np.ldexp(size, -_RESCALE_SHIFT), size), initial=0.0))
        bound *= growth
        v, v_prev = ((c - t) * v - b_cur * v_prev) / b_next, v
        count += np.signbit(v) != np.signbit(v_prev)
        b_cur = b_next
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        deriv = (n * v - math.sqrt(n * (n + alpha)) * v_prev) / t
        m = np.arange(_TAYLOR_DEGREE - 1.0)[:, None]
        up = (t - (alpha + 1.0 + m)) / ((m + 2.0) * t)
        down = ((n - m) / ((m + 2.0) * (m + 1.0))) / t
        c = np.empty((_TAYLOR_DEGREE + 1, t.size))
        c[0], c[1] = v / deriv, 1.0
        for k in range(_TAYLOR_DEGREE - 1):
            np.subtract(up[k] * c[k + 1], down[k] * c[k], out=c[k + 2])
        dc = np.arange(1.0, _TAYLOR_DEGREE + 1.0)[:, None] * c[1:]

        def model(coeffs, h):  # sum_k coeffs[k] h^k by Horner's rule
            acc = coeffs[-1]
            for row in coeffs[-2::-1]:
                acc = acc * h + row
            return acc

        h = -c[0] / (1.0 - 0.5 * c[0])
        for _ in range(3):
            f = model(c, h)
            h = h - f / (model(dc, h) - 0.5 * f)
        root = t + h
        slope, e = np.frexp(deriv * model(dc, h) * frac)
        exponent = -2 * (e + m0 + shift)
        lam_exp = np.ldexp(np.exp(h) / (root * slope * slope), exponent)
        log_lam_exp = np.log(np.exp(h) / (root * slope * slope)) + exponent * _LN2
        return root, lam_exp, log_lam_exp, count
