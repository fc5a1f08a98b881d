import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagneed.cutoffs import frame_alt, frame_default, make_cutoff, make_dual_pair
from lagneed.needlets import CoeffFn, NeedletCoeffs, analyze, build_system, total_degree_grid
from lagneed.quadrature import CubatureGrid, cubature_grid, gauss_laguerre, weight_W
from lagneed import spaces, special
from lagneed.special import laguerre_fn_batch, _ArrayCache
from lagneed.spaces import (
    B_norm_cont,
    F_norm_cont,
    NormParams,
    PiecewiseCellFn,
    b_norm_seq,
    equivalence_report,
    f_norm_seq,
    make_test_corpus,
    maximal_fn,
    multiplier_apply,
    nikolskii_report,
    seminorm_P_star,
    _arrangement,
    _lp,
    _normal_pow,
    _on_cells,
    _Bands,
    _scaled_axes,
)
from oracles import cells_by_open_mesh, lattice_box_maximal, live_node_cont_norms, padded_prefix

DUAL = make_dual_pair(frame_default())
TIGHT = make_dual_pair(frame_default(), tight=True)


@pytest.fixture(scope="module")
def system():
    return build_system(3, 1, [0.5], DUAL)


@pytest.fixture(scope="module")
def tight_system():
    return build_system(3, 1, [0.5], TIGHT)


@pytest.fixture(scope="module")
def system_2d():
    return build_system(2, 2, [0.0, 0.5], DUAL)


CRITERION_8_PARAMS = [NormParams(0.0, 0.0, 2.0, 2.0), NormParams(1.0, 1.0, 2.0, 2.0),
                      NormParams(0.5, 0.5, 1.5, 1.0), NormParams(0.0, 0.0, 3.0, math.inf)]


def single_spike(system, j, gamma):
    levels = [np.zeros((g.n_j,) * system.d, dtype=complex) for g in system.grids]
    levels[j][gamma] = 1.0
    return NeedletCoeffs(tuple(levels), system.hash)


class TestSequenceNorms:
    def test_zero_coefficients(self, system):
        z = analyze(system, CoeffFn([0.5], 0, np.zeros(1, dtype=complex) * 0))
        z = z.scale(0.0)
        params = NormParams(0.5, 0.5, 2.0, 2.0)
        assert f_norm_seq(z, params, system) == 0.0
        assert b_norm_seq(z, params, system) == 0.0

    @pytest.mark.parametrize("s,rho,p,q", [(0.7, 0.4, 1.5, 3.0), (0.0, 0.0, 2.0, 2.0),
                                           (1.0, -0.5, 2.5, 1.0)])
    def test_single_spike_closed_form(self, system, s, rho, p, q):
        j, gamma = 2, (11,)
        coeffs = single_spike(system, j, gamma)
        params = NormParams(s, rho, p, q)
        xi = system.node_point(j, gamma)
        mu = float(system.grids[j].axis_tile_measure[0][gamma[0]])
        closed = (2.0 ** (s * j) * weight_W(4.0 ** j, [0.5], xi) ** (-rho)
                  * mu ** (1.0 / p - 0.5))
        assert f_norm_seq(coeffs, params, system) == pytest.approx(closed, rel=1e-12)
        assert b_norm_seq(coeffs, params, system) == pytest.approx(closed, rel=1e-12)

    def test_degenerate_parameters_agree(self, system):
        rng = np.random.default_rng(0)
        for trial in range(10):
            f = CoeffFn.random([0.5], 16, seed=trial)
            coeffs = analyze(system, f)
            p = float(rng.uniform(0.7, 4.0))
            params = NormParams(rng.uniform(-1, 1), rng.uniform(-1, 1), p, p)
            a = f_norm_seq(coeffs, params, system)
            b = b_norm_seq(coeffs, params, system)
            assert abs(a - b) / b < 1e-12

    def test_tight_parseval_anchor(self, tight_system):
        params = NormParams(0.0, 0.0, 2.0, 2.0)
        for seed in range(5):
            f = CoeffFn.random([0.5], 16, seed=seed)
            val = f_norm_seq(analyze(tight_system, f), params, tight_system)
            assert val == pytest.approx(f.norm2(), rel=1e-10)

    def test_homogeneity(self, system):
        f = CoeffFn.random([0.5], 16, seed=3)
        coeffs = analyze(system, f)
        params = NormParams(0.5, 0.25, 1.5, 3.0)
        base_f = f_norm_seq(coeffs, params, system)
        base_b = b_norm_seq(coeffs, params, system)
        lam = 3.7
        assert f_norm_seq(coeffs.scale(lam), params, system) == pytest.approx(
            lam * base_f, rel=1e-12)
        assert b_norm_seq(coeffs.scale(lam), params, system) == pytest.approx(
            lam * base_b, rel=1e-12)

    def test_triangle_inequality_when_banach(self, system):
        params = NormParams(0.3, 0.2, 2.0, 1.5)
        rng = np.random.default_rng(4)
        for _ in range(5):
            f = CoeffFn.random([0.5], 16, seed=int(rng.integers(1 << 30)))
            g = CoeffFn.random([0.5], 16, seed=int(rng.integers(1 << 30)))
            cf, cg = analyze(system, f), analyze(system, g)
            csum = cf.add(cg)
            for norm in (f_norm_seq, b_norm_seq):
                lhs = norm(csum, params, system)
                rhs = norm(cf, params, system) + norm(cg, params, system)
                assert lhs <= rhs * (1.0 + 1e-10)

    def test_sup_modifications(self, system):
        f = CoeffFn.random([0.5], 16, seed=6)
        coeffs = analyze(system, f)
        # q = inf: outer sup over levels for the b-norm
        params = NormParams(0.4, 0.0, 2.0, math.inf)
        per_level = []
        for j in range(system.J + 1):
            only = NeedletCoeffs(
                tuple(lv if k == j else np.zeros_like(lv)
                      for k, lv in enumerate(coeffs.levels)), system.hash)
            per_level.append(b_norm_seq(only, NormParams(0.4, 0.0, 2.0, 1.0),
                                        system))
        assert b_norm_seq(coeffs, params, system) == pytest.approx(
            max(per_level), rel=1e-12)
        # p = inf b-norm runs the sup amplitude path
        pinf = NormParams(0.0, 0.0, math.inf, 2.0)
        assert b_norm_seq(coeffs, pinf, system) > 0.0
        # F-norms require finite p
        with pytest.raises(ValueError):
            f_norm_seq(coeffs, pinf, system)

    def test_two_dimensional_spike_closed_form(self):
        sys2 = build_system(1, 2, [0.0, 1.0], DUAL)
        j, gamma = 1, (3, 7)
        levels = [np.zeros((g.n_j,) * 2, dtype=complex) for g in sys2.grids]
        levels[j][gamma] = 1.0
        coeffs = NeedletCoeffs(tuple(levels), sys2.hash)
        params = NormParams(0.5, 0.3, 1.5, 2.5)
        xi = sys2.node_point(j, gamma)
        mu = float(np.prod([sys2.grids[j].axis_tile_measure[ax][g]
                            for ax, g in enumerate(gamma)]))
        closed = (2.0 ** (params.s * j)
                  * weight_W(4.0 ** j, [0.0, 1.0], xi) ** (-params.rho / 2.0)
                  * mu ** (1.0 / params.p - 0.5))
        assert f_norm_seq(coeffs, params, sys2) == pytest.approx(closed, rel=1e-12)
        assert b_norm_seq(coeffs, params, sys2) == pytest.approx(closed, rel=1e-12)

    def test_two_dimensional_degeneracy(self):
        sys2 = build_system(1, 2, [0.0, 0.5], DUAL)
        for trial in range(4):
            f = CoeffFn.random([0.0, 0.5], 4, seed=trial)
            coeffs = analyze(sys2, f)
            params = NormParams(0.4, 0.6, 1.8, 1.8)
            a = f_norm_seq(coeffs, params, sys2)
            b = b_norm_seq(coeffs, params, sys2)
            assert abs(a - b) / b < 1e-12

    def test_cell_integration_against_monte_carlo(self, system):
        # weighted Monte-Carlo integration of the exact cell integrand
        rng = np.random.default_rng(11)
        params = NormParams(0.5, 0.3, 2.0, 3.0)
        for trial in range(5):
            f = CoeffFn.random([0.5], 16, seed=100 + trial)
            coeffs = analyze(system, f)
            exact = f_norm_seq(coeffs, params, system)

            top = max(g.axis_breaks[0][-1] for g in system.grids)
            n_mc = 200_000
            xs = rng.uniform(0.0, top, size=n_mc)
            vals = np.zeros(n_mc)
            for j in range(system.J + 1):
                g = system.grids[j]
                idx = np.searchsorted(g.axis_breaks[0], xs) - 1
                ok = (idx >= 0) & (idx < g.n_j)
                amp = np.abs(coeffs.levels[j]) \
                    * (g.axis_xi[0] + 2.0 ** (-j)) ** (-params.rho * 2.0) \
                    * g.axis_tile_measure[0] ** -0.5
                term = np.where(ok, amp[np.clip(idx, 0, g.n_j - 1)], 0.0)
                vals += (2.0 ** (params.s * j) * term) ** params.q
            integrand = vals ** (params.p / params.q) * xs ** 2  # w_alpha = x^2
            est = np.mean(integrand) * top
            sem = np.std(integrand) * top / math.sqrt(n_mc)
            assert abs(est - exact ** params.p) < 3.0 * sem


def b_norm_seq_oracle(coeffs, params, system):
    """(sum_j (2^(sj) (sum_xi (|h_xi| W(4^j; xi)^(-rho/d) mu_xi^(1/p-1/2))^p)^(1/p))^q)^(1/q),
    node by node over the flattened level grids; max for an infinite exponent."""
    terms = []
    for j, (g, h) in enumerate(zip(system.grids, coeffs.levels)):
        amp = (np.abs(h).reshape(-1)
               * weight_W(4.0 ** j, system.alpha, g.points()) ** (-params.rho / system.d)
               * g.tile_measures() ** (1.0 / params.p - 0.5))
        inner = (float(np.max(amp)) if math.isinf(params.p)
                 else math.fsum((amp ** params.p).tolist()) ** (1.0 / params.p))
        terms.append(2.0 ** (params.s * j) * inner)
    if math.isinf(params.q):
        return max(terms)
    return math.fsum(t ** params.q for t in terms) ** (1.0 / params.q)


@pytest.mark.parametrize("params", CRITERION_8_PARAMS + [NormParams(0.3, -0.4, math.inf, 2.0),
                                                         NormParams(0.2, 0.1, 1.2, math.inf)])
@pytest.mark.parametrize("which", ["1d", "2d"])
def test_b_norm_seq_matches_node_oracle(system, system_2d, which, params):
    sys_ = system if which == "1d" else system_2d
    rng = np.random.default_rng(7)
    for _ in range(3):
        levels = tuple(rng.standard_normal((g.n_j,) * sys_.d)
                       + 1j * rng.standard_normal((g.n_j,) * sys_.d) for g in sys_.grids)
        coeffs = NeedletCoeffs(levels, sys_.hash)
        assert b_norm_seq(coeffs, params, sys_) == pytest.approx(
            b_norm_seq_oracle(coeffs, params, sys_), rel=1e-12)


def level_filter(system, j, top):
    """Analysis filter a(m / 4^(j-1)) on degrees 0..top; degree-0 projector at level 0."""
    m = np.arange(top + 1)
    return (m == 0).astype(float) if j == 0 else system.pair.a_hat(m / 4.0 ** (j - 1))


def flattened_cont_norms(f, params, system, level):
    """Reference (F, B) continuous norms: each band part evaluated at every
    point of the flattened integration grid; F is None at p = inf."""
    grid = cubature_grid(level, system.d, system.alpha, system.delta, system.c_star)
    pts, c = grid.points(), grid.coeffs()
    degrees = total_degree_grid(f.coeffs.shape)
    acc, terms = np.zeros(len(pts)), []
    # band j passes only degrees >= a_hat.support[0] * 4^(j-1): later bands add nothing
    for j in range(system.J + 9):
        w = level_filter(system, j, f.d * f.max_degree)
        part = CoeffFn(f.alpha, f.max_degree, f.coeffs * w[degrees])
        weighted = (weight_W(4.0 ** j, system.alpha, pts) ** (-params.rho / system.d)
                    * np.abs(part.evaluate(pts)))
        term = 2.0 ** (params.s * j) * weighted
        acc = np.maximum(acc, term) if params.q_inf else acc + term ** params.q
        lp = (float(np.max(weighted)) if params.p_inf
              else math.fsum((c * weighted ** params.p).tolist()) ** (1.0 / params.p))
        terms.append(2.0 ** (params.s * j) * lp)
    integrand = acc ** params.p if params.q_inf else acc ** (params.p / params.q)
    F = None if params.p_inf else math.fsum((c * integrand).tolist()) ** (1.0 / params.p)
    if params.q_inf:
        return F, max(terms)
    return F, math.fsum(t ** params.q for t in terms) ** (1.0 / params.q)


class TestContinuousNorms:
    @pytest.mark.parametrize("params", CRITERION_8_PARAMS + [NormParams(0.3, 0.2, math.inf, 2.0)])
    @pytest.mark.parametrize("which", ["1d", "2d"])
    def test_matches_flattened_evaluation(self, system, system_2d, which, params):
        # the F-norm needs p < inf, so the last set checks the B-norm's max alone
        sys_ = system if which == "1d" else system_2d
        deg = 4 ** (sys_.J - 1)
        for seed in range(3):
            f = CoeffFn.random(sys_.alpha, deg, seed=seed, complex_valued=seed == 2)
            want_F, want_B = flattened_cont_norms(f, params, sys_, sys_.J + 1)
            if not params.p_inf:
                assert F_norm_cont(f, params, sys_, sys_.J + 1) == pytest.approx(want_F, rel=1e-12)
            assert B_norm_cont(f, params, sys_, sys_.J + 1) == pytest.approx(want_B, rel=1e-12)

    @pytest.mark.parametrize("which", ["1d", "2d"])
    def test_no_flattened_grid(self, system, system_2d, which, monkeypatch):
        # every norm folds per-axis weights; none builds the n^d point or weight arrays
        sys_ = system if which == "1d" else system_2d
        f = CoeffFn.random(sys_.alpha, 4 ** (sys_.J - 1), seed=11)
        coeffs = analyze(sys_, f)
        params = NormParams(0.5, 0.5, 1.5, 1.0)
        norms = [lambda: F_norm_cont(f, params, sys_, sys_.J + 1),
                 lambda: B_norm_cont(f, params, sys_, sys_.J + 1),
                 lambda: f_norm_seq(coeffs, params, sys_),
                 lambda: b_norm_seq(coeffs, params, sys_)]
        want = [norm() for norm in norms]

        def refuse(self):
            raise AssertionError("flattened grid requested")

        for name in ("coeffs", "points", "tile_measures"):
            monkeypatch.setattr(CubatureGrid, name, refuse)
        assert [norm() for norm in norms] == want

    def test_zero_function(self, system):
        z = CoeffFn([0.5], 2, np.zeros(3, dtype=complex))
        params = NormParams(0.0, 0.0, 2.0, 2.0)
        assert F_norm_cont(z, params, system, 4) == 0.0
        assert B_norm_cont(z, params, system, 4) == 0.0

    def test_tight_level_zero_function_parseval(self, tight_system):
        # degree-0 content: only level 0 contributes for the tight filter,
        # and the L2-case norm reduces to the coefficient value
        arr = np.zeros(1, dtype=complex)
        arr[0] = 2.5
        f = CoeffFn([0.5], 0, arr)
        params = NormParams(0.0, 0.0, 2.0, 2.0)
        got = F_norm_cont(f, params, tight_system, 4)
        assert got == pytest.approx(2.5, rel=1e-6)

    @pytest.mark.parametrize("s", [0.0, 0.7])
    @pytest.mark.parametrize("kind", ["tight", "dual"])
    def test_parseval_per_band_oracle(self, system, tight_system, s, kind):
        # q = p = 2, rho = 0: the squared norm is the filtered energy
        # sum_j 4^(sj) sum_nu a(|nu|/4^(j-1))^2 |f_nu|^2, computable exactly
        sys_ = tight_system if kind == "tight" else system
        f = CoeffFn.random([0.5], 16, seed=21)
        params = NormParams(s, 0.0, 2.0, 2.0)
        got = F_norm_cont(f, params, sys_, 4)
        acc = 0.0
        for j in range(0, 8):
            w = level_filter(sys_, j, 16)
            acc += 4.0 ** (s * j) * float(np.sum((w * np.abs(f.coeffs)) ** 2))
        assert got == pytest.approx(math.sqrt(acc), rel=1e-6)

    def test_single_band_B_equals_F(self, system):
        # one active level and p = q makes the two continuous norms equal
        arr = np.zeros(17, dtype=complex)
        arr[16] = 1.0
        f = CoeffFn([0.5], 16, arr)
        params = NormParams(0.5, 0.5, 2.0, 2.0)
        a = F_norm_cont(f, params, system, 4)
        b = B_norm_cont(f, params, system, 4)
        assert a == pytest.approx(b, rel=1e-8)

    def test_every_band_of_a_high_degree(self):
        # e_N far above the system's band: the levels run until the filter starts past N
        # (bands 9 and 10 here), whatever J is.  For a tight pair sum_j a(N/4^(j-1))^2 = 1,
        # so at p = q = 2 both norms are the level-1 cubature sum of c_k F_N(xi_k)^2
        N, alpha = 70000, 0.5
        sys_ = build_system(0, 1, [alpha], TIGHT)
        arr = np.zeros(N + 1)
        arr[N] = 1.0
        f = CoeffFn([alpha], N, arr)
        grid = cubature_grid(1, 1, [alpha], sys_.delta, sys_.c_star)
        values = laguerre_fn_batch(N, alpha, grid.axis_xi[0])[N]
        want = math.sqrt(math.fsum(grid.axis_c[0] * values ** 2))
        params = NormParams(0.0, 0.0, 2.0, 2.0)
        assert F_norm_cont(f, params, sys_, 1) == pytest.approx(want, rel=1e-12)
        assert B_norm_cont(f, params, sys_, 1) == pytest.approx(want, rel=1e-12)

    def test_requires_finer_integration_level(self, system):
        f = CoeffFn.random([0.5], 4, seed=0)
        with pytest.raises(ValueError):
            F_norm_cont(f, NormParams(0, 0, 2, 2), system, system.J)

    def test_cutoff_independence_bracket(self):
        # two admissible cut-offs give norms with a uniformly bounded ratio
        sys_a = build_system(2, 1, [0.5], make_dual_pair(frame_default()))
        sys_b = build_system(2, 1, [0.5], make_dual_pair(frame_alt()))
        params = NormParams(0.5, 0.5, 2.0, 2.0)
        ratios = []
        for seed in range(8):
            f = CoeffFn.random([0.5], 4, seed=seed)
            na = F_norm_cont(f, params, sys_a, 3)
            nb = F_norm_cont(f, params, sys_b, 3)
            ratios.append(na / nb)
        assert max(ratios) / min(ratios) < 4.0

    def test_besov_embedding_direction_measured(self, system):
        # along s/d - 1/p = s1/d - 1/p1 the finer space controls the coarser;
        # record the empirical constant and require it bounded
        s, p = 1.0, 1.5
        s1 = 0.5
        p1 = 1.0 / (1.0 / p - (s - s1))  # d = 1
        consts = []
        for seed in range(6):
            f = CoeffFn.random([0.5], 16, seed=40 + seed)
            lhs = B_norm_cont(f, NormParams(s1, s1, p1, 2.0), system, 4)
            rhs = B_norm_cont(f, NormParams(s, s, p, 2.0), system, 4)
            consts.append(lhs / rhs)
        assert max(consts) < 50.0


TINY = np.finfo(float).tiny


class TestUnderflow:
    """Powers are taken only where they stay in the normal range, so scaled
    functions, whose band parts reach far below it, keep their norms."""

    @pytest.mark.parametrize("p", [0.5, 2.0 / 3.0, 1.5, 2.0, 3.0, 4.0])
    def test_normal_pow_matches_power_where_normal(self, p):
        rng = np.random.default_rng(0)
        x = np.exp(rng.uniform(-745.0, 20.0, 20000))
        floor = TINY ** (1.0 / p)
        x[:200] = floor * (1.0 + np.linspace(-1e-13, 1e-13, 200))  # both sides of the floor
        x[200:210] = [0.0, 5e-324, 1e-320, TINY, 1.0, 2.0, floor, 1e-200, 1e-100, 1e-160]
        want, before = x ** p, x.copy()
        normal = want >= TINY
        if p > 1.0:
            assert normal[:200].any() and not normal[:200].all()
        got = _normal_pow(x, p)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(got[normal], want[normal])
        assert (got[~normal] == 0.0).all()
        y = x.copy()
        assert _normal_pow(y, p, out=y) is y
        np.testing.assert_array_equal(y, _normal_pow(x, p))

    def test_normal_pow_propagates_nan_and_inf(self):
        got = _normal_pow(np.array([np.nan, np.inf, 1e-300]), 3.0)
        assert np.isnan(got[0]) and got[1] == np.inf and got[2] == 0.0

    def test_normal_pow_square_propagates_nan_and_inf(self):
        x = np.array([np.nan, np.inf, 1e-300, 3.0])
        got = _normal_pow(x, 2.0)
        assert np.isnan(got[0]) and got[1] == np.inf and got[2] == 0.0 and got[3] == 9.0
        assert _normal_pow(x, 2.0, out=x) is x
        np.testing.assert_array_equal(x, got)

    def test_normal_pow_identity_at_one(self):
        x = np.array([0.0, 5e-324, 1e-310, 1.0])
        assert _normal_pow(x, 1.0) is x
        np.testing.assert_array_equal(x, [0.0, 5e-324, 1e-310, 1.0])

    def test_normal_pow_keeps_subnormal_inputs_below_one(self):
        got = _normal_pow(np.array([5e-324, 1e-310]), 0.5)
        assert (got > 0.0).all()
        np.testing.assert_array_equal(got, np.array([5e-324, 1e-310]) ** 0.5)

    @pytest.mark.parametrize("c", [1e-80, 1e80, 1e-200, 1e200])
    @pytest.mark.parametrize("which", ["1d", "2d"])
    def test_norms_scale_exactly(self, system, system_2d, which, c):
        sys_ = system if which == "1d" else system_2d
        level = sys_.J + 1
        norms = {"F": (F_norm_cont, f_norm_seq), "B": (B_norm_cont, b_norm_seq)}
        # a complex f takes _fold's (re, im) path, and B at p = inf _scaled_max:
        # both read the first axis's table, which carries the shift
        for complex_valued in (False, True):
            f = CoeffFn.random(sys_.alpha, 4 ** (sys_.J - 1), seed=4,
                               complex_valued=complex_valued)
            cf = CoeffFn(f.alpha, f.max_degree, c * f.coeffs)
            coeffs, c_coeffs = analyze(sys_, f), analyze(sys_, cf)
            for params, spaces_ in [(NormParams(0.0, 0.0, 3.0, math.inf), "B"),
                                    (NormParams(0.5, 0.5, 1.5, 1.0), "F"),
                                    (NormParams(1.0, 1.0, 0.5, 0.5), "FB"),
                                    (NormParams(0.3, 0.2, math.inf, 2.0), "B")]:
                for space in spaces_:
                    cont, seq = norms[space]
                    for plain, scaled in [(cont(f, params, sys_, level),
                                           cont(cf, params, sys_, level)),
                                          (seq(coeffs, params, sys_),
                                           seq(c_coeffs, params, sys_))]:
                        assert 0.0 < plain < math.inf
                        # relative to plain: approx's absolute floor of 1e-12 would
                        # pass any value near 0 for small c
                        assert scaled / c == pytest.approx(plain, rel=1e-12)

    @pytest.mark.parametrize("e", [1000, -1000])
    def test_continuous_norms_scale_exactly_by_extreme_powers_of_two(self, system_2d, e):
        # 2^(-shift) rides on the filtered coefficient block, so no table entry is
        # scaled, and none is flushed, by f's size: 2^e f has exactly 2^e times the norm
        level = system_2d.J + 1
        for complex_valued in (False, True):
            f = CoeffFn.random(system_2d.alpha, 4, seed=4, complex_valued=complex_valued)
            cf = CoeffFn(f.alpha, f.max_degree, f.coeffs * 2.0 ** e)
            for norm, params in [(F_norm_cont, NormParams(0.0, 0.0, 2.0, 2.0)),
                                 (B_norm_cont, NormParams(0.0, 0.0, 2.0, 2.0)),
                                 (F_norm_cont, NormParams(0.0, 0.0, 0.5, 0.7)),
                                 (B_norm_cont, NormParams(0.0, 0.0, 0.5, 0.7)),
                                 (F_norm_cont, NormParams(0.5, 0.5, 1.5, 1.0)),
                                 (B_norm_cont, NormParams(0.3, 0.2, math.inf, 2.0))]:
                plain = norm(f, params, system_2d, level)
                assert math.ldexp(norm(cf, params, system_2d, level), -e) == plain

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_analysis_and_all_norms_scale_exactly_by_powers_of_two(self, system_2d, k):
        # analyze folds 2^-e f and carries e: 2^k f has the boxes of f bit for bit and
        # an exponent larger by k, and all four norms exactly 2^k times those of f
        level = system_2d.J + 1
        for complex_valued in (False, True):
            f = CoeffFn.random(system_2d.alpha, 4, seed=4, complex_valued=complex_valued)
            cf = CoeffFn(f.alpha, f.max_degree, f.coeffs * 2.0 ** k)
            assert np.array_equal(cf.coeffs * 2.0 ** -k, f.coeffs)  # 2^k f is exact
            coeffs, c_coeffs = analyze(system_2d, f), analyze(system_2d, cf)
            assert c_coeffs._exp == coeffs._exp + k
            for box, c_box in zip(coeffs._boxes, c_coeffs._boxes):
                assert box.dtype == c_box.dtype and box.shape == c_box.shape
                assert np.array_equal(box.view(np.int64), c_box.view(np.int64))
            for params in (NormParams(0.5, 0.5, 0.5, 0.5), NormParams(0.5, 0.5, 1.5, 1.0),
                           NormParams(0.0, 0.0, 2.0, 2.0)):
                for norm, x, cx in [(f_norm_seq, coeffs, c_coeffs), (b_norm_seq, coeffs, c_coeffs),
                                    (F_norm_cont, f, cf), (B_norm_cont, f, cf)]:
                    args = (params, system_2d) + ((level,) if isinstance(x, CoeffFn) else ())
                    plain = norm(x, *args)
                    assert 0.0 < plain < math.inf
                    assert norm(cx, *args) == math.ldexp(plain, k)

    @staticmethod
    def traced_peak(norm, f, params, system, level):
        want = norm(f, params, system, level)  # warm every cache first
        tracemalloc.start()
        try:
            got = norm(f, params, system, level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        return peak

    def test_continuous_norm_memory(self):
        # J=3 d=2 at integration level 4: the level values keep the (835, 835)
        # shape, and a norm holds at most the accumulator, one level and masks
        sys_ = build_system(3, 2, [0.5, 0.5], TIGHT)
        f = make_test_corpus(sys_, count=20, seed=1)[-1]
        n_d = cubature_grid(4, 2, sys_.alpha, sys_.delta, sys_.c_star).point_count
        for norm, params, bound in [(F_norm_cont, NormParams(0.5, 0.5, 1.5, 1.0), 3.5),
                                    (F_norm_cont, NormParams(1.0, 1.0, 2.0, math.inf), 3.5),
                                    (B_norm_cont, NormParams(0.0, 0.0, 3.0, math.inf), 2.5),
                                    (B_norm_cont, NormParams(0.5, 0.5, 0.5, 2.0), 2.5)]:
            peak = self.traced_peak(norm, f, params, sys_, 4)
            assert peak <= bound * n_d * 8, (norm.__name__, params, peak / (n_d * 8))

    def test_continuous_norm_memory_in_box_points(self):
        # the level arrays hold only the box's nodes: a norm holds at most the
        # accumulator, one level and masks of the box's size (about twice as many
        # floats for a complex f, whose levels are folded as complex), plus
        # per-axis tables and factors
        sys_ = build_system(3, 2, [0.5, 0.5], TIGHT)
        real = make_test_corpus(sys_, count=20, seed=1)[-1]
        for f, bound in [(real, 2.75), (CoeffFn(real.alpha, real.max_degree, real.coeffs * (1 + 0.5j)), 4.75)]:
            for norm, params in [(F_norm_cont, NormParams(0.5, 0.5, 1.5, 1.0)),
                                 (F_norm_cont, NormParams(1.0, 1.0, 2.0, math.inf)),
                                 (F_norm_cont, NormParams(0.0, 0.0, 0.5, 0.5)),
                                 (B_norm_cont, NormParams(0.0, 0.0, 3.0, math.inf)),
                                 (B_norm_cont, NormParams(0.5, 0.5, 0.5, 2.0)),
                                 (B_norm_cont, NormParams(0.0, 0.0, math.inf, 2.0))]:
                box = math.prod(_Bands(f, params, sys_, 4).box)
                peak = self.traced_peak(norm, f, params, sys_, 4)
                assert peak <= bound * box * 8, (norm.__name__, params, peak / (box * 8))


class TestBox:
    """The continuous norms form their band parts only on a box of the live nodes,
    certified after the sums; the oracle forms them on every live node."""

    @pytest.fixture()
    def boxes(self, monkeypatch):
        """Per ``_Bands.levels`` call, whether it ran on every live node."""
        seen, levels = [], _Bands.levels

        def spy(self, box):
            seen.append(box == self.live)
            return levels(self, box)

        monkeypatch.setattr(_Bands, "levels", spy)
        return seen

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_live_node_oracle(self, cache_systems, boxes, d, p):
        # within 2^-50 of the oracle, and at p = inf a certified max is the oracle's max
        system = cache_systems[d]
        level = system.J + 1
        fns = make_test_corpus(system, count=6, seed=d) + [
            CoeffFn.random(system.alpha, system.exact_degree(), seed=d, complex_valued=True)]
        for q, s, rho in [(0.5, 0.5, -0.5), (2.0, -0.3, 0.7), (math.inf, 1.0, 0.4)]:
            params = NormParams(s, rho, p, q)
            for f in fns:
                want_F, want_B = live_node_cont_norms(f, params, system, level)
                got_B = B_norm_cont(f, params, system, level)
                if params.p_inf:
                    assert bits(got_B) == bits(want_B)
                else:
                    assert got_B == pytest.approx(want_B, rel=2.0 ** -50, abs=0.0)
                    got_F = F_norm_cont(f, params, system, level)
                    assert got_F == pytest.approx(want_F, rel=2.0 ** -50, abs=0.0)
        # some norm ran on a box smaller than the live nodes; at p = 0.5 the box of
        # the level-2 grid in 3-D keeps all of its 53 nodes per axis
        assert False in boxes or (d, p) == (3, 0.5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_uncertified_box_gives_the_oracle_bits(self, cache_systems, boxes, monkeypatch,
                                                   registry, d):
        # a box that leaves out 2^-4 of each axis's bound fails its certificate, so
        # the norm runs again on every live node and returns the oracle's bits; the box
        # is part of the cached plan, so the plans are made afresh
        monkeypatch.setattr(spaces, "_BOX_TAIL", 2.0 ** -4)
        system = cache_systems[d]
        level = system.J + 1
        for complex_valued in (False, True):
            f = CoeffFn.random(system.alpha, system.exact_degree(), seed=5,
                               complex_valued=complex_valued)
            for params in (NormParams(0.5, 0.5, 1.5, 2.0), NormParams(0.0, 0.0, math.inf, 0.5),
                           NormParams(1.0, -1.0, 0.5, math.inf)):
                for norm, want in zip((F_norm_cont, B_norm_cont),
                                      live_node_cont_norms(f, params, system, level)):
                    if want is None:
                        continue
                    boxes.clear()
                    assert bits(norm(f, params, system, level)) == bits(want)
                    assert boxes == [False, True]

    def test_norms_2d_box(self, boxes):
        # the benchmark's system and parameter sets: every box is certified, and on
        # each axis it keeps at most 0.6 of the live nodes
        system = build_system(3, 2, [0.5, 0.5], TIGHT)
        f = make_test_corpus(system, seed=0)[-1]
        for norm, params in [(F_norm_cont, NormParams(0.0, 0.0, 2.0, 2.0)),
                             (B_norm_cont, NormParams(0.0, 0.0, 3.0, math.inf)),
                             (F_norm_cont, NormParams(1.0, 1.0, 2.0, 2.0)),
                             (F_norm_cont, NormParams(0.5, 0.5, 1.5, 1.0))]:
            bands = _Bands(f, params, system, 4)
            assert all(k <= 0.6 * n for k, n in zip(bands.box, bands.live)), (bands.box, bands.live)
            boxes.clear()
            norm(f, params, system, 4)
            assert boxes == [False]


class TestSeminormAndMultiplier:
    def test_unit_lowest_mode(self):
        arr = np.zeros(1, dtype=complex)
        arr[0] = 1.0
        f = CoeffFn([0.5], 0, arr)
        for r in (0, 1, 5):
            assert seminorm_P_star(f, r) == pytest.approx(1.0)

    def test_single_mode_power(self):
        arr = np.zeros(8, dtype=complex)
        arr[7] = 1.0
        f = CoeffFn([0.0], 7, arr)
        for r in (0, 2, 3):
            assert seminorm_P_star(f, r) == pytest.approx(8.0 ** r)

    def test_monotone_in_order(self):
        f = CoeffFn.random([0.0], 12, seed=2)
        vals = [seminorm_P_star(f, r) for r in range(4)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_matches_degree_mask_oracle(self, r):
        f = CoeffFn.random([0.0, 0.5], 9, seed=13, complex_valued=True)
        deg = total_degree_grid(f.coeffs.shape)
        sq = np.abs(f.coeffs) ** 2
        want = math.fsum((n + 1.0) ** r * math.sqrt(math.fsum(sq[deg == n].tolist()))
                         for n in range(f.max_degree + 1))
        assert seminorm_P_star(f, r) == pytest.approx(want, rel=1e-13)

    def test_rejects_negative_order(self):
        f = CoeffFn.random([0.0], 3, seed=0)
        with pytest.raises(ValueError):
            seminorm_P_star(f, -1)

    def test_identity_multiplier(self):
        f = CoeffFn.random([0.0, 0.5], 5, seed=3)
        g = multiplier_apply(lambda k: 1.0, f)
        assert np.allclose(g.coeffs, f.coeffs)

    def test_band_projection_multiplier(self):
        f = CoeffFn.random([0.0], 6, seed=4)
        g = multiplier_apply(lambda k: 1.0 if k == 3 else 0.0, f)
        want = np.zeros_like(f.coeffs)
        want[3] = f.coeffs[3]
        assert np.allclose(g.coeffs, want)

    @given(st.integers(0, 1 << 30))
    @settings(max_examples=20, deadline=None)
    def test_l2_contraction_bound(self, seed):
        f = CoeffFn.random([0.5], 8, seed=seed)
        m = lambda k: 1.0 / (1.0 + k)
        g = multiplier_apply(m, f)
        assert g.norm2() <= 1.0 * f.norm2() + 1e-12


def brute_maximal(samples, t):
    """Largest box average ((sum |f|^t mu) / (sum mu))^(1/t) over every lattice
    box containing each cell, by direct sums over the box."""
    mu = samples.cell_measures()
    num = np.abs(samples.values) ** t * mu
    out = np.zeros_like(mu)
    for lo in np.ndindex(*mu.shape):
        for hi in np.ndindex(*mu.shape):
            if any(h < l for l, h in zip(lo, hi)):
                continue
            box = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
            avg = (np.sum(num[box]) / np.sum(mu[box])) ** (1.0 / t)
            out[box] = np.maximum(out[box], avg)
    return out


def strip_interval_max(P_num, P_mu, t):
    n = len(P_num)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    ratio = np.divide(P_num[None, :] - P_num[:, None], P_mu[None, :] - P_mu[:, None],
                      out=np.zeros((n, n)), where=upper) ** (1.0 / t)
    ratio = np.maximum.accumulate(ratio, axis=0)
    ratio = np.maximum.accumulate(ratio[:, ::-1], axis=1)[:, ::-1]
    return np.diagonal(ratio, offset=1)


def strip_lattice_max(P_num, P_mu, t):
    """Reference lattice maximal function: one recursive call per strip [a, b)
    of the first axis, on that strip's padded prefix sums P[b] - P[a]."""
    if P_num.ndim == 1:
        return strip_interval_max(P_num, P_mu, t)
    out = np.zeros(tuple(m - 1 for m in P_num.shape))
    for a in range(len(out)):
        for b in range(a + 1, len(out) + 1):
            strip = strip_lattice_max(P_num[b] - P_num[a], P_mu[b] - P_mu[a], t)
            np.maximum(out[a:b], strip, out=out[a:b])
    return out


class TestMaximal:
    def make_cells(self, values, alpha=(0.0,)):
        breaks = (np.linspace(0.0, 4.0, len(values) + 1),)
        return PiecewiseCellFn(breaks, np.asarray(values, dtype=float), list(alpha))

    @pytest.mark.parametrize("t", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d,m_max", [(1, 12), (2, 6), (3, 4),
                                         (2, (1, 6)), (2, (6, 1)), (3, (1, 1, 6))])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed, d, m_max, t):
        # m_max caps the cell count per axis; a cap of 1 gives a one-cell axis
        rng = np.random.default_rng([seed, d])
        shape = tuple(int(m) for m in rng.integers(1, np.add(m_max, 1), size=d))
        breaks = [np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, m)))) for m in shape]
        f = PiecewiseCellFn(breaks, rng.uniform(-1.0, 1.0, shape), rng.uniform(0.0, 1.5, d))
        assert maximal_fn(f, t).values == pytest.approx(brute_maximal(f, t), rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("shape", [(12,), (6, 5), (1, 7), (3, 4, 3)])
    def test_matches_box_by_box_oracle_bit_for_bit(self, shape, t):
        # cell values with zeros and ties (|0.5| = |-0.5|), so that many boxes share
        # their average: every value, and every max, is the oracle's; a box of zeros
        # whose prefix difference rounds below 0 reads 0, not NaN
        rng = np.random.default_rng([len(shape), int(4 * t)])
        breaks = [np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, m)))) for m in shape]
        values = rng.choice([0.0, 0.0, 0.5, -0.5, 1.0], shape)
        f = PiecewiseCellFn(breaks, values, [0.0] + [0.5] * (len(shape) - 1))
        got, want = maximal_fn(f, t).values, lattice_box_maximal(f, t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.isfinite(got).all()

    def test_memory_holds_no_interval_grid(self):
        # 20 x 20 cells: every temporary holds one axis's cells times the batch, at the
        # last axis 20 x 210 strips floats (33.6 KB); the (a, b) grid of that axis
        # alone would be 21 x 21 x 210 floats (741 KB)
        rng = np.random.default_rng(20)
        breaks = [np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 0.5, 20)))) for _ in range(2)]
        f = PiecewiseCellFn(breaks, rng.uniform(0.0, 1.0, (20, 20)), [0.5, 0.5])
        want = maximal_fn(f, 1.0).values
        tracemalloc.start()
        try:
            got = maximal_fn(f, 1.0).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 12 * 20 * 210 * 8, peak

    @pytest.mark.parametrize("shape", [(20, 20), (8, 8, 8)])
    def test_matches_strip_by_strip_recursion(self, shape):
        # batching the strips changes no arithmetic: the result is bit-identical
        rng = np.random.default_rng(len(shape))
        breaks = [np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, m)))) for m in shape]
        f = PiecewiseCellFn(breaks, rng.uniform(-1.0, 1.0, shape), rng.uniform(0.0, 1.5, len(shape)))
        for t in (1.0, 1.5):
            mu = f.cell_measures()
            P_num, P_mu = padded_prefix(np.abs(f.values) ** t * mu), padded_prefix(mu)
            assert np.array_equal(maximal_fn(f, t).values, strip_lattice_max(P_num, P_mu, t))

    def test_constant_function_fixed_point(self):
        f = self.make_cells(np.ones(8))
        out = maximal_fn(f, 1.0)
        assert np.allclose(out.values, 1.0, atol=1e-12)

    def test_indicator_value_on_its_support(self):
        vals = np.zeros(8)
        vals[3] = 1.0
        out = maximal_fn(self.make_cells(vals), 1.0)
        assert out.values[3] == pytest.approx(1.0)
        assert np.all(out.values[:3] < 1.0 + 1e-12)
        assert np.all(out.values > 0.0)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        f_vals = rng.uniform(0.0, 1.0, size=10)
        g_vals = f_vals + rng.uniform(0.0, 1.0, size=10)
        mf = maximal_fn(self.make_cells(f_vals), 1.5)
        mg = maximal_fn(self.make_cells(g_vals), 1.5)
        assert np.all(mf.values <= mg.values + 1e-12)

    def test_2d_constant(self):
        breaks = (np.linspace(0.0, 2.0, 5), np.linspace(0.0, 3.0, 4))
        f = PiecewiseCellFn(breaks, np.ones((4, 3)), [0.5, 1.0])
        out = maximal_fn(f, 2.0)
        assert np.allclose(out.values, 1.0, atol=1e-12)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            maximal_fn(self.make_cells(np.ones(4)), 0.0)

    def test_fefferman_stein_sanity(self):
        # vector-valued maximal inequality measured on random families
        rng = np.random.default_rng(9)
        breaks = (np.linspace(0.0, 4.0, 13),)
        alpha = [0.5]
        p, q, t = 2.0, 2.0, 1.0
        ratios = []
        for _ in range(5):
            fams = [PiecewiseCellFn(breaks, rng.uniform(0, 1, 12), alpha)
                    for _ in range(4)]
            m_side = sum(maximal_fn(f, t).values ** q for f in fams) ** (1 / q)
            f_side = sum(np.abs(f.values) ** q for f in fams) ** (1 / q)
            mu = fams[0].cell_measures()
            lhs = float(np.sum(m_side ** p * mu)) ** (1 / p)
            rhs = float(np.sum(f_side ** p * mu)) ** (1 / p)
            ratios.append(lhs / rhs)
        assert max(ratios) < 10.0  # measured constant, must stay bounded

    @pytest.mark.parametrize("d", [1, 2])
    def test_cell_integral_matches_flattened_sum(self, d):
        rng = np.random.default_rng(17 + d)
        breaks = [np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 0.5, 15))))
                  for _ in range(d)]
        cells = PiecewiseCellFn(breaks, rng.uniform(0.0, 1.0, (15,) * d), [0.5, 1.0][:d])
        want = math.fsum((cells.values * cells.cell_measures()).ravel().tolist())
        assert cells.integral() == pytest.approx(want, rel=1e-13)

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            PiecewiseCellFn((np.array([1.0, 0.5]),), np.array([1.0]), [0.0])
        with pytest.raises(ValueError):
            PiecewiseCellFn((np.array([0.0, 1.0]),), np.ones(3), [0.0])


class TestReports:
    def test_nikolskii_exponents_within_margin(self):
        rep = nikolskii_report([0.0], n_set=(16, 64, 256))
        assert rep["exponent_plain"] <= rep["theory_exponent_plain"] + 0.1
        assert rep["exponent_weighted"] <= rep["theory_exponent_weighted"] + 0.1

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_nikolskii_suprema_are_attained(self, alpha, s):
        """The reported suprema are the ratios of explicit V_n functions, measured
        as max over the rule's nodes against the rule's L^2, and no random
        V_n function exceeds them."""
        rep = nikolskii_report([alpha], s=s)
        for n in rep["n_set"]:
            rule = gauss_laguerre(max(8 * n, 64), alpha)
            pts = rule.sqrt_nodes.reshape(-1, 1)
            c = [rule.cub_coeffs]
            ww = weight_W(n, [alpha], pts)

            def ratios(vals):
                return (_lp(vals, c, math.inf) / _lp(vals.copy(), c, 2.0),
                        _lp(ww ** s * vals, c, math.inf) / _lp(ww ** (s - 0.5) * vals, c, 2.0))

            F = laguerre_fn_batch(n, alpha, rule.sqrt_nodes, "F")
            G = (F * (rule.cub_coeffs * ww ** (2.0 * s - 1.0))) @ F.T
            GinvF = np.linalg.solve(G, F)
            i_plain = int(np.argmax(np.sum(F * F, axis=0)))
            i_weighted = int(np.argmax(ww ** (2.0 * s) * np.sum(F * GinvF, axis=0)))
            plain = ratios(np.abs(CoeffFn([alpha], n, F[:, i_plain]).evaluate(pts)))[0]
            weighted = ratios(np.abs(CoeffFn([alpha], n, GinvF[:, i_weighted]).evaluate(pts)))[1]
            assert plain == pytest.approx(rep["max_ratio_plain"][n], rel=1e-10)
            assert weighted == pytest.approx(rep["max_ratio_weighted"][n], rel=1e-10)
            for seed in range(50):
                g = CoeffFn.random([alpha], n, seed=seed)
                r_plain, r_weighted = ratios(np.abs(g.coeffs @ F))
                assert r_plain <= rep["max_ratio_plain"][n]
                assert r_weighted <= rep["max_ratio_weighted"][n]

    def test_nikolskii_rejects_bad_parameters(self):
        with pytest.raises(NotImplementedError):
            nikolskii_report([0.0, 0.5])
        with pytest.raises(ValueError):
            nikolskii_report([0.0], n_set=(16, 16))

    def test_equivalence_skips_zero_functions(self, system):
        z = CoeffFn([0.5], 2, np.zeros(3, dtype=complex))
        rep = equivalence_report(system, NormParams(0, 0, 2, 2), [z])
        assert rep["skipped"] == [0] and rep["rows"] == []

    def test_equivalence_single_band_ratios_finite(self, system):
        arrs = []
        for m in (1, 4, 16):
            arr = np.zeros(17, dtype=complex)
            arr[m] = 1.0
            arrs.append(CoeffFn([0.5], 16, arr))
        rep = equivalence_report(system, NormParams(0.5, 0.5, 2.0, 2.0), arrs)
        assert all(0.0 < r["ratio"] < math.inf for r in rep["rows"])

    def test_equivalence_refuses_degree_above_exact(self, system):
        # levels 0..3 reconstruct up to degree 16; a degree-24 spike would give
        # a meaningless ratio, while a degree-24 function of degree-16 content passes
        arr = np.zeros(25)
        arr[24] = 1.0
        with pytest.raises(ValueError, match="total degree 24"):
            equivalence_report(system, NormParams(0, 0, 2, 2), [CoeffFn([0.5], 24, arr)])
        arr[24], arr[16] = 0.0, 1.0
        rep = equivalence_report(system, NormParams(0, 0, 2, 2), [CoeffFn([0.5], 24, arr)])
        assert len(rep["rows"]) == 1

    def test_equivalence_tight_l2_anchored(self, tight_system):
        corpus = make_test_corpus(tight_system, count=10, seed=0)
        rep = equivalence_report(tight_system, NormParams(0, 0, 2, 2), corpus)
        lo, hi = rep["bracket"]
        assert 0.25 < lo <= hi < 4.0

    def test_corpus_struct(self, system):
        corpus = make_test_corpus(system, count=20, seed=0)
        assert len(corpus) == 20
        assert all(f.max_degree == 16 for f in corpus)
        # deterministic across calls
        again = make_test_corpus(system, count=20, seed=0)
        assert all(np.allclose(a.coeffs, b.coeffs) for a, b in zip(corpus, again))


class TestNormParams:
    @pytest.mark.parametrize("p,q", [(math.nan, 2.0), (2.0, math.nan), (math.nan, math.nan),
                                     (0.0, 2.0), (2.0, -1.0), (-math.inf, 2.0)])
    def test_rejects_nan_or_nonpositive_p_q(self, p, q):
        with pytest.raises(ValueError, match="p and q"):
            NormParams(0.0, 0.0, p, q)

    @pytest.mark.parametrize("s,rho", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                       (0.0, -math.inf)])
    def test_rejects_nonfinite_s_rho(self, s, rho):
        with pytest.raises(ValueError, match="s and rho"):
            NormParams(s, rho, 2.0, 2.0)

    def test_infinite_p_and_q_stay_valid(self):
        params = NormParams(0.5, -1.0, math.inf, math.inf)
        assert params.p_inf and params.q_inf


def bits(x) -> int:
    return int(np.float64(x).view(np.int64))


@pytest.fixture(scope="module")
def cache_systems():
    return {1: build_system(2, 1, [0.5], DUAL), 2: build_system(2, 2, [0.0, 0.5], TIGHT),
            3: build_system(1, 3, [0.0, 0.5, 1.0], DUAL)}


KINDS = ("norm-axes", "norm-plan", "cells")  # the registry kinds of the norm layer


def kept(registry, kind) -> int:
    """The entries of one kind in the registry."""
    return registry.info().get(kind, {}).get("entries", 0)


class TestNormCaches:
    """The norm layer keeps read-only integration tables, continuous-norm plans and
    cell maps in the registry keyed by values; none of that changes a bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("space", ["F", "B"])
    def test_cold_equals_warm_bit_for_bit(self, cache_systems, monkeypatch, d, space):
        system = cache_systems[d]
        level = system.J + 1
        cont, seq = {"F": (F_norm_cont, f_norm_seq), "B": (B_norm_cont, b_norm_seq)}[space]
        for complex_valued in (False, True):
            f = CoeffFn.random(system.alpha, system.exact_degree(), seed=d,
                               complex_valued=complex_valued)
            for scale in (1.0, 1e200, 1e-200):
                g = CoeffFn(f.alpha, f.max_degree, scale * f.coeffs)
                coeffs = analyze(system, g)
                for p in (0.5, 1.5, 2.0, 3.0, math.inf):
                    if space == "F" and p == math.inf:
                        continue
                    for q in (1.0, 2.0, math.inf):
                        params = NormParams(0.5, -0.5, p, q)
                        # b_norm_seq reads no cache, f_norm_seq keeps one entry and a
                        # continuous norm two: its tables and its plan
                        for norm, args, entries in ((cont, (g, params, system, level), 2),
                                                    (seq, (coeffs, params, system),
                                                     int(space == "F"))):
                            registry = _ArrayCache()
                            monkeypatch.setattr(special, "_CACHE", registry)
                            first = norm(*args)
                            assert sum(kept(registry, kind) for kind in KINDS) == entries
                            second = norm(*args)
                            assert 0.0 < first < math.inf
                            assert bits(second) == bits(first), (norm.__name__, p, q, scale)

    def test_keys_separate_degree_level_and_grid(self, cache_systems, monkeypatch):
        params = NormParams(0.5, 0.5, 1.5, 2.0)
        cases = [(cache_systems[2], degree, level) for degree in (1, 4) for level in (3, 4)]
        cases.append((build_system(2, 2, [0.5, 0.0], TIGHT), 4, 3))
        fns = [CoeffFn.random(system.alpha, degree, seed=degree) for system, degree, _ in cases]
        want = []
        for (system, _, level), f in zip(cases, fns):
            monkeypatch.setattr(special, "_CACHE", _ArrayCache())
            want.append(bits(F_norm_cont(f, params, system, level)))
        registry = _ArrayCache()
        monkeypatch.setattr(special, "_CACHE", registry)
        for _ in range(2):
            got = [bits(F_norm_cont(f, params, system, level))
                   for (system, _, level), f in zip(cases, fns)]
            assert got == want
        assert kept(registry, "norm-axes") == kept(registry, "norm-plan") == len(cases)

    def test_plan_keys_separate_pair_delta_alpha_p_rho_and_degree(self, cache_systems,
                                                                   monkeypatch):
        # continuous norms interleaved over systems that differ only in the cut-off
        # pair, delta or alpha, and over p, rho and f's degree: each equals, bit for
        # bit, its value computed after emptying the caches.  The two raw cut-offs
        # share their name, and so their describe(), but not their band rows: the
        # second ends at 3.5, and its level-2 rows at degree 13 instead of 15.
        def raw(a_hat):
            return make_cutoff("raw", fn=a_hat, support=a_hat.support, nonneg=True)

        short = make_cutoff("type_b", u=0.25, v=2.5, rise=1.0 / 12.0, fall=1.0)
        pairs = (TIGHT, DUAL, make_dual_pair(frame_alt()), make_dual_pair(raw(frame_default())),
                 make_dual_pair(raw(short)))
        systems = [cache_systems[2]] + [build_system(2, 2, [0.0, 0.5], pair) for pair in pairs[1:]]
        systems += [build_system(2, 2, [0.0, 0.5], TIGHT, delta=0.02),
                    build_system(2, 2, [0.5, 0.0], TIGHT)]
        calls = []
        for degree in (3, 16):
            for rho in (0.5, -0.5):
                for p in (1.5, 3.0, math.inf):
                    for system in systems:
                        f = CoeffFn.random(system.alpha, degree, seed=degree)
                        for norm in (F_norm_cont, B_norm_cont)[int(p == math.inf):]:
                            calls.append((norm, f, NormParams(0.5, rho, p, 2.0), system))

        def value(norm, f, params, system):
            return bits(norm(f, params, system, system.J + 1))

        want = []
        for call in calls:
            monkeypatch.setattr(special, "_CACHE", _ArrayCache())
            want.append(value(*call))
        registry = _ArrayCache()
        monkeypatch.setattr(special, "_CACHE", registry)
        for _ in range(2):
            assert [value(*call) for call in calls] == want
        # every call but the first for each key found its plan
        plans = registry.info()["norm-plan"]
        assert plans["hits"] == 2 * len(calls) - plans["entries"]

    def test_cached_arrays_are_read_only(self, cache_systems, registry):
        system = cache_systems[2]
        f = CoeffFn.random(system.alpha, system.exact_degree(), seed=0)
        for p in (2.0, math.inf):
            _scaled_axes(f, p, system, system.J + 1)
        F_norm_cont(f, NormParams(0.0, 0.0, 2.0, 2.0), system, system.J + 1)
        f_norm_seq(analyze(system, f), NormParams(0.0, 0.0, 2.0, 2.0), system)
        maximal_fn(PiecewiseCellFn([np.arange(5.0), np.arange(4.0)], np.ones((4, 3)),
                                   [0.5, 0.5]), 1.0)
        held = []

        def arrays(value):
            if isinstance(value, np.ndarray):
                held.append(value)
            elif isinstance(value, tuple):
                for v in value:
                    arrays(v)

        assert all(kept(registry, kind) >= 1 for kind in KINDS)
        arrays(tuple(v for v, _ in registry._entries.values()))
        assert held and not any(a.flags.writeable for a in held)
        # the per-p part is formed per call; the cached tables come back as they are
        xis, tables, weights, exps = _scaled_axes(f, math.inf, system, system.J + 1)
        assert weights == [None] * system.d
        assert not any(t.flags.writeable for t in tables)
        with pytest.raises(ValueError):
            tables[0][0, 0] = 1.0

    def test_system_is_not_kept_alive(self, registry):
        system = build_system(2, 2, [0.5, 0.5], TIGHT)
        f = CoeffFn.random(system.alpha, system.exact_degree(), seed=1)
        coeffs = analyze(system, f)
        params = NormParams(0.5, 0.5, 1.5, 2.0)
        values = [f_norm_seq(coeffs, params, system), b_norm_seq(coeffs, params, system),
                  F_norm_cont(f, params, system, 3), B_norm_cont(f, params, system, 3)]
        assert all(v > 0.0 for v in values)
        assert all(kept(registry, kind) == 1 for kind in KINDS)
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    def test_plan_is_charged_its_own_arrays_only(self, monkeypatch):
        # a level-4 norms-2d plan views the cached tables and exponents of its
        # "norm-axes" entry, which cost it nothing: it is charged its box matrices and
        # its per-axis vectors (weights, with the arrays they are cut from, factors and
        # tails), the matrices being most of it
        system = build_system(3, 2, [0.5, 0.5], TIGHT)
        f = CoeffFn.random(system.alpha, 16, seed=0)
        for params in ((0.0, 0.0, 2.0, 2.0), (0.0, 0.0, 3.0, math.inf), (0.5, 0.5, 1.5, 1.0)):
            registry = _ArrayCache()
            monkeypatch.setattr(special, "_CACHE", registry)
            norm = B_norm_cont if params[3] == math.inf else F_norm_cont
            norm(f, NormParams(*params), system, 4)
            (plan, charged), = [v for k, v in registry._entries.items() if k[0] == "norm-plan"]
            tables, weights, exps, facs, tails, _, mats = plan
            mat_bytes = sum(m.nbytes for band in mats for m in band)
            vector_bytes = sum(w.nbytes if w.base is None else w.base.nbytes
                               for w in weights if w is not None)
            vector_bytes += sum(v.nbytes for fac in facs for v in fac)
            vector_bytes += sum(t.nbytes for t in tails)
            assert all(not a.base.flags.writeable for a in (*tables, *exps))
            assert charged == registry.info()["norm-plan"]["bytes"] == mat_bytes + vector_bytes
            assert mat_bytes > 0.6 * charged

    def test_entry_above_budget_is_not_kept(self, cache_systems, monkeypatch):
        system = cache_systems[2]
        f = CoeffFn.random(system.alpha, system.exact_degree(), seed=2)
        params = NormParams(0.0, 0.0, 2.0, 2.0)
        want = F_norm_cont(f, params, system, system.J + 1)
        tiny = _ArrayCache(64)
        monkeypatch.setattr(special, "_CACHE", tiny)
        for calls in (1, 2):
            assert bits(F_norm_cont(f, params, system, system.J + 1)) == bits(want)
            info = tiny.info()
            assert all((info[kind]["entries"], info[kind]["bytes"], info[kind]["oversize"])
                       == (0, 0, calls) for kind in ("norm-axes", "norm-plan"))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_take_expansion_matches_open_mesh(self, cache_systems, d):
        # a box repeated over the cells of its tiles, on zeros, is the whole level's
        # amplitudes (0 past the box) laid out on the cells by their tile indices
        system = cache_systems[d]
        _, tile_cells = _arrangement(system)
        breaks = [np.unique(np.concatenate([g.axis_breaks[ax] for g in system.grids]))
                  for ax in range(d)]

        def tile_maps(g):  # per axis each cell's tile index, n_j past the last tile
            return [np.searchsorted(gb, 0.5 * (b[:-1] + b[1:])) - 1
                    for gb, b in zip(g.axis_breaks, breaks)]

        rng = np.random.default_rng(d)
        for g, counts in zip(system.grids, tile_cells):
            maps = tile_maps(g)
            assert [len(c) for c in counts] == [g.n_j] * d
            for box in {(g.n_j,) * d, tuple(rng.integers(0, g.n_j + 1, d))}:
                amp = rng.uniform(0.0, 1.0, box)
                want = cells_by_open_mesh(np.pad(amp, [(0, g.n_j - k) for k in box]), maps)
                got = np.zeros(want.shape)
                block = _on_cells(amp, counts)
                got[tuple(slice(0, k) for k in block.shape)] = block
                assert np.array_equal(got, want)
                # cells past a level's last tile read 0
                assert (got[maps[0] == g.n_j] == 0.0).all()
        assert (tile_maps(system.grids[0])[0] == system.grids[0].n_j).any()
