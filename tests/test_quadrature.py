import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from lagneed.special import laguerre_fn_batch, multivariate_F
from lagneed.needlets import CoeffFn
from lagneed.quadrature import (
    _gauss_laguerre_cached,
    calibrate_c_star,
    christoffel,
    cubature_grid,
    cubature_integrate,
    cubature_integrate_values,
    gauss_laguerre,
    level_node_count,
    moment_relative_errors,
    tile_measure,
    weight_W,
)


class TestGaussLaguerre:
    def test_single_node_rule(self):
        rule = gauss_laguerre(1, 0.0)
        assert rule.nodes[0] == pytest.approx(1.0, rel=1e-14)
        assert math.exp(rule.log_weights[0]) == pytest.approx(1.0, rel=1e-13)
        assert rule.cub_coeffs[0] == pytest.approx(math.e / 2.0, rel=1e-13)

    def test_two_node_rule(self):
        rule = gauss_laguerre(2, 0.0)
        assert rule.nodes == pytest.approx([2.0 - math.sqrt(2), 2.0 + math.sqrt(2)], rel=1e-14)
        w = np.exp(rule.log_weights)
        assert w == pytest.approx([(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], rel=1e-13)

    @pytest.mark.parametrize("n", [8, 32, 128, 835])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_moment_exactness(self, n, alpha):
        rule = gauss_laguerre(n, alpha)
        assert np.max(moment_relative_errors(rule, 2 * n - 1)) < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_weights_sum_to_gamma(self, alpha):
        for n in (4, 64, 256):
            rule = gauss_laguerre(n, alpha)
            total = math.fsum(np.exp(rule.log_weights).tolist())
            assert total == pytest.approx(math.exp(gammaln(alpha + 1.0)), rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_nodes_inside_classical_range(self, alpha):
        for n in (8, 64, 512):
            rule = gauss_laguerre(n, alpha)
            assert rule.nodes[0] > 0.0
            assert rule.nodes[-1] < 4 * n + 2 * alpha + 2
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert np.all(rule.cub_coeffs > 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_interlacing(self, alpha):
        for n in (4, 32, 255):
            a = gauss_laguerre(n, alpha).nodes
            b = gauss_laguerre(n + 1, alpha).nodes
            assert np.all(b[:-1] < a) and np.all(a < b[1:])

    def test_node_spacing_scale(self):
        # sqrt(n)-normalized gaps stay inside a fixed bracket away from the
        # top edge of the spectrum (recorded from n in {64, 256, 1024})
        for alpha in (0.0, 0.5, 2.0):
            for n in (64, 256, 1024):
                xi = gauss_laguerre(n, alpha).sqrt_nodes
                gaps = np.diff(xi[: int(0.8 * n)]) * math.sqrt(n)
                assert 1.4 < gaps.min() and gaps.max() < 2.3

    def test_zero_location_bracket(self):
        # t_nu * n / nu^2 bracket per the classical two-sided estimate
        for alpha in (0.0, 0.5, 2.0):
            for n in (64, 1024):
                rule = gauss_laguerre(n, alpha)
                nu = np.arange(1, n + 1)
                ratio = rule.nodes * n / nu ** 2
                assert ratio.min() > 1.0
                assert ratio.max() < 4.0 + 3.0 * alpha / nu[np.argmax(ratio)] + 3.0

    def test_memory_is_linear_in_n(self):
        # a cold degree-1024 rule streams the recurrence: no n x n table
        misses = _gauss_laguerre_cached.cache_info().misses
        tracemalloc.start()
        try:
            gauss_laguerre(1024, 0.3125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _gauss_laguerre_cached.cache_info().misses == misses + 1
        assert peak < 2_000_000

    def test_cached_rule_is_read_only(self):
        rule = gauss_laguerre(8, 0.5)
        before = [np.array(getattr(rule, f))
                  for f in ("nodes", "log_weights", "cub_coeffs", "sqrt_nodes")]
        for arr in (rule.nodes, rule.log_weights, rule.cub_coeffs, rule.sqrt_nodes):
            with pytest.raises(ValueError):
                arr[0] = 99.0
        again = gauss_laguerre(8, 0.5)
        assert again is rule
        for f, want in zip(("nodes", "log_weights", "cub_coeffs", "sqrt_nodes"), before):
            assert np.array_equal(getattr(again, f), want)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0, 0.0)
        with pytest.raises(ValueError):
            gauss_laguerre(4, -1.0)


class TestChristoffel:
    def test_single_polynomial_case(self):
        # with a single constant orthonormal polynomial the Christoffel
        # function is identically 1: log lambda = 0, stable product = e^x
        for x in (0.0, 1.0, 7.5):
            log_lam, lam_exp = christoffel(1, 0.0, x)
            assert lam_exp == pytest.approx(math.exp(x), rel=1e-13)
            assert log_lam == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_consistent_with_rule_coefficients(self, alpha):
        rule = gauss_laguerre(48, alpha)
        _, lam_exp = christoffel(48, alpha, rule.nodes)
        assert np.max(np.abs(lam_exp / (2.0 * rule.cub_coeffs) - 1.0)) < 1e-12

    @pytest.mark.parametrize("n,alpha", [(1, 0.0), (5, 0.5), (48, 2.0), (128, 0.5), (300, 1.0)])
    def test_matches_full_table_sum(self, n, alpha):
        # lambda_n e^x = 1 / sum_{k<n} q_k(x)^2 with q_k(x) = F_k(sqrt(x)) / sqrt(2)
        x = np.linspace(0.0, 4.0 * n, 401)
        table = laguerre_fn_batch(n - 1, alpha, np.sqrt(x), "F")
        want = 1.0 / (0.5 * np.sum(np.square(table), axis=0))
        assert christoffel(n, alpha, x)[1] == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("alpha,n", [(0.0, 32), (0.5, 128), (2.0, 128)])
    def test_two_sided_profile_bound(self, alpha, n):
        # lambda_n(x) e^x / ((x+1/n)^alpha phi_n(x)) stays inside a positive
        # bracket on [0, 4n]
        x = np.linspace(1e-6, 4.0 * n * 0.999, 2500)
        _, lam_exp = christoffel(n, alpha, x)
        phi = np.sqrt((x + 1.0 / n) / (4 * n - x + (4 * n) ** (1.0 / 3.0)))
        ratio = lam_exp / ((x + 1.0 / n) ** alpha * phi)
        assert ratio.min() > 1.0
        assert ratio.max() < 40.0
        assert ratio.max() / ratio.min() < 30.0


class TestCubatureGrid:
    def test_level_zero_node_count_example(self):
        assert level_node_count(0, 0.03, 1.0) == 4

    def test_node_count_formula(self):
        for j in range(5):
            expected = math.floor(1.33 * math.sqrt(6.0) * 4 ** j) + 1
            assert level_node_count(j, 0.03, 1.0) == expected

    def test_grid_point_count(self):
        grid = cubature_grid(1, 2, [0.0, 0.5])
        assert grid.point_count == grid.n_j ** 2
        assert grid.points().shape == (grid.n_j ** 2, 2)
        assert grid.coeffs().shape == (grid.n_j ** 2,)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            cubature_grid(0, 1, [0.0], delta=0.5)
        with pytest.raises(ValueError):
            cubature_grid(0, 1, [0.0], c_star=0.0)
        with pytest.raises(ValueError):
            cubature_grid(0, 2, [0.0])

    def test_resource_cap(self):
        with pytest.raises(ResourceWarning):
            cubature_grid(4, 2, [0.0, 0.0], point_cap=1000)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_orthonormality_within_budget(self, j):
        grid = cubature_grid(j, 1, [0.5])
        budget = 2 * grid.n_j - 1
        deg = min(budget // 2, 24)
        vals = laguerre_fn_batch(deg, 0.5, grid.axis_xi[0], "F")
        gram = (vals * grid.axis_c[0]) @ vals.T
        assert np.max(np.abs(gram - np.eye(deg + 1))) < 1e-9

    def test_random_inner_product_matches_coefficients(self):
        # functions known by coefficients: cubature equals sum f_nu g_nu
        rng = np.random.default_rng(3)
        grid = cubature_grid(1, 1, [0.0])
        for _ in range(5):
            f = CoeffFn.random([0.0], 8, seed=rng.integers(1 << 30))
            g = CoeffFn.random([0.0], 8, seed=rng.integers(1 << 30))
            want = float(np.real(np.sum(f.coeffs * g.coeffs)))
            got = cubature_integrate_values(
                grid, f.evaluate(grid.points()) * g.evaluate(grid.points()))
            assert got == pytest.approx(want, abs=1e-9)

    def test_basis_normalization_and_orthogonality(self):
        grid = cubature_grid(1, 1, [0.5])
        f0 = lambda p: multivariate_F((0,), [0.5], p)
        assert cubature_integrate(grid, f0, f0) == pytest.approx(1.0, abs=1e-12)
        f3 = lambda p: multivariate_F((3,), [0.5], p)
        assert abs(cubature_integrate(grid, f0, f3)) < 1e-9

    def test_complex_integrand(self):
        grid = cubature_grid(1, 1, [0.5])
        f0 = lambda p: multivariate_F((0,), [0.5], p)
        val = cubature_integrate(grid, lambda p: (1.0 + 2.0j) * f0(p), f0)
        assert isinstance(val, complex)
        assert val == pytest.approx(1.0 + 2.0j, abs=1e-12)

    def test_tensor_exactness_2d(self):
        grid = cubature_grid(1, 2, [0.0, 0.5])
        nus = [(0, 0), (1, 2), (3, 0)]
        for nu in nus:
            for mu in nus:
                val = cubature_integrate(
                    grid,
                    lambda p, nu=nu: multivariate_F(nu, [0.0, 0.5], p),
                    lambda p, mu=mu: multivariate_F(mu, [0.0, 0.5], p))
                assert val == pytest.approx(1.0 if nu == mu else 0.0, abs=1e-9)


class TestTiles:
    def test_interval_measure_alpha_zero(self):
        assert tile_measure([(0.0, 1.0)], [0.0]) == pytest.approx(0.5, rel=1e-15)

    def test_square_measure(self):
        assert tile_measure([(0.0, 1.0), (0.0, 1.0)], [0.0, 0.0]) == pytest.approx(0.25)

    def test_matches_composite_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            lo = rng.uniform(0.0, 2.0, size=2)
            hi = lo + rng.uniform(0.1, 3.0, size=2)
            alpha = rng.uniform(0.0, 2.5, size=2)
            got = tile_measure(list(zip(lo, hi)), alpha)
            want = 1.0
            for a, l, h in zip(alpha, lo, hi):
                xs, w = np.polynomial.legendre.leggauss(60)
                xs = 0.5 * (h - l) * xs + 0.5 * (h + l)
                want *= 0.5 * (h - l) * np.sum(w * xs ** (2 * a + 1))
            assert got == pytest.approx(want, rel=1e-10)

    def test_rejects_inverted_box(self):
        with pytest.raises(ValueError):
            tile_measure([(1.0, 0.5)], [0.0])

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_partition_sums_to_domain(self, j):
        grid = cubature_grid(j, 1, [0.5])
        total = math.fsum(grid.tile_measures().tolist())
        assert total == pytest.approx(grid.domain_measure(), rel=1e-10)

    def test_partition_sums_to_domain_2d(self):
        grid = cubature_grid(1, 2, [0.0, 2.0])
        total = math.fsum(grid.tile_measures().tolist())
        assert total == pytest.approx(grid.domain_measure(), rel=1e-10)

    def test_tiles_disjoint_and_ordered(self):
        grid = cubature_grid(2, 1, [0.0])
        breaks = grid.axis_breaks[0]
        assert np.all(np.diff(breaks) > 0.0)
        assert breaks[0] == 0.0
        # centers sit inside their boxes
        for g in range(grid.n_j):
            tile = grid.tile((g,))
            (lo, hi), = tile.box
            assert lo <= tile.center[0] <= hi

    def test_coefficient_tile_measure_comparable(self):
        # c_xi / mu(R_xi) bracket in the bulk of the grid (recorded values)
        for alpha in (0.0, 0.5, 2.0):
            for j in (0, 1, 2, 3):
                grid = cubature_grid(j, 1, [alpha])
                xi = grid.axis_xi[0]
                mask = xi <= (1 + 4 * grid.delta) * math.sqrt(6.0) * 2 ** j
                ratio = grid.axis_c[0][mask] / grid.axis_tile_measure[0][mask]
                assert 0.6 < ratio.min() and ratio.max() < 1.1

    def test_right_extension_override(self):
        default = cubature_grid(2, 1, [0.0])
        wide = cubature_grid(2, 1, [0.0], right_extension=5.0)
        assert wide.axis_breaks[0][-1] > default.axis_breaks[0][-1]


class TestWeight:
    def test_simple_values(self):
        assert weight_W(1.0, [0.0], [0.0]) == pytest.approx(1.0)
        assert weight_W(4.0, [0.5], [1.0]) == pytest.approx(2.25)

    @given(st.floats(0.0, 8.0), st.floats(0.0, 8.0), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_doubling_inequality(self, x, y, j):
        # W(4^j; y) <= W(4^j; x) (1 + 2^j |x-y|)^(2|a|+d)
        alpha = [0.5]
        lhs = weight_W(4.0 ** j, alpha, [y])
        rhs = weight_W(4.0 ** j, alpha, [x]) * (1 + 2.0 ** j * abs(x - y)) ** (2 * 0.5 + 1)
        assert lhs <= rhs * (1 + 1e-12)

    def test_array_form(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        vals = weight_W(16.0, [0.0, 1.0], pts)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(0.25 * 1.25 ** 3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            weight_W(0.0, [0.0], [1.0])
        with pytest.raises(ValueError):
            weight_W(1.0, [0.0], [-1.0])


def test_calibrate_c_star_in_range():
    c = calibrate_c_star(0.0, n_ref=256)
    assert 0.0 < c <= 1.0


def test_rule_caching_returns_same_object():
    a = gauss_laguerre(17, 0.5)
    b = gauss_laguerre(17, 0.5)
    assert a is b


def test_grid_caching_returns_same_object():
    a = cubature_grid(1, 1, [0.25])
    b = cubature_grid(1, 1, [0.25])
    assert a is b


def test_grid_cache_keys_the_resolved_extension():
    a = cubature_grid(2, 1, [0.5])
    b = cubature_grid(2, 1, [0.5], right_extension=2 ** (2 / 3))
    assert a is b


def test_grid_arrays_are_read_only():
    grid = cubature_grid(1, 2, [0.0, 0.5])
    breaks = grid.axis_breaks[0].copy()
    for arr in grid.axis_xi + grid.axis_c + grid.axis_breaks + grid.axis_tile_measure:
        with pytest.raises(ValueError):
            arr[0] = 99.0
    assert np.array_equal(cubature_grid(1, 2, [0.0, 0.5]).axis_breaks[0], breaks)
