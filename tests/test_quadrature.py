import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from lagneed.special import _damped_rows, laguerre_fn_batch, multivariate_F
from lagneed import quadrature
from lagneed.needlets import CoeffFn
from lagneed.quadrature import (
    GRID_POINT_CAP,
    _build_rules,
    _newton_polish,
    christoffel,
    cubature_grid,
    gauss_laguerre,
    level_node_count,
    moment_relative_errors,
    tile_measure,
    weight_W,
)
from oracles import cubature_integrate, cubature_integrate_values, single_rule, single_start


def _eigensolver_rule(n, alpha):
    """Reference rule: eigenvalues of the Jacobi matrix, then one Newton step and
    the three-row Christoffel-Darboux sum in one pass at the eigenvalues.
    Returns (nodes, cub_coeffs); cub_coeffs is inf where it overflows."""
    k = np.arange(1, n, dtype=float)
    t = eigh_tridiagonal(2.0 * np.arange(n) + alpha + 1.0, np.sqrt(k * (k + alpha)),
                         eigvals_only=True)
    qm, qd, qn = ([0.0] + [s.row() for j, s in enumerate(_damped_rows(n, alpha, t))
                           if j >= n - 2])[-3:]
    root, root_m = math.sqrt(n * (n + alpha)), math.sqrt((n - 1) * (n - 1 + alpha))
    with np.errstate(divide="ignore", over="ignore"):
        cub = 0.5 * t / (root * (root * qd * qd - qn * qd - root_m * qm * qn))
        return t + t * qn / (root * qd - n * qn), cub


def _max_rel(a, b):
    return float(np.max(np.abs(a / b - 1.0)))


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

    @pytest.mark.parametrize("n, alpha", [(8, 400.0), (40, 400.0), (1, 300.0), (2, 300.0),
                                          (3, 300.0), (1, 150.0)],
                             ids=["8", "40", "1-300", "2-300", "3-300", "1-150"])
    def test_moment_exactness_large_alpha(self, n, alpha):
        # at alpha = 400 the recurrence's start G(401)^(-1/2) is below the float range;
        # at n <= 3 a node starts far from its zero (n = 1: 426 against 301) and its
        # gap, down to 0, is wide, so the final-step test alone is loose there
        rule = gauss_laguerre(n, alpha)
        assert np.max(moment_relative_errors(rule, 2 * n - 1)) < 1e-10
        if n == 1:
            assert rule.nodes[0] == pytest.approx(alpha + 1.0, rel=1e-12)

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

    def test_memory_is_linear_in_n(self, registry):
        # a cold degree-1024 rule streams the recurrence: no n x n table
        tracemalloc.start()
        try:
            gauss_laguerre(1024, 0.3125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert registry.info()["rule"]["misses"] == 1
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

    @pytest.mark.parametrize("n, alpha", [(12, 0.0), (12, 0.5), (20, 2.0)])
    def test_newton_sweep_is_exact_step(self, n, alpha):
        # from nodes perturbed by 1%, one sweep (Newton's method on the degree-8
        # Taylor model of L_n) lands on the zeros of the eigensolver reference
        # (measured: 7.5e-15 at n = 12, 2.0e-12 at n = 20)
        t0 = _eigensolver_rule(n, alpha)[0]
        t = t0 * (1.0 + 1e-2 * np.sin(np.arange(n) + 1.0))
        assert _newton_polish(n, alpha, t)[0] == pytest.approx(t0, rel=1e-11)

    @pytest.mark.parametrize("n, alpha", [(1, 0.0), (12, 0.5), (20, 2.0), (300, 1.0)])
    def test_pass_reads_sturm_counts(self, n, alpha):
        # the sign changes of q_0..q_n at t count the zeros of L_n below t, also
        # where the converted rows underflow (far right of the support)
        zeros = gauss_laguerre(n, alpha).nodes
        mids = np.concatenate(([0.5 * zeros[0]], 0.5 * (zeros[1:] + zeros[:-1]),
                               [zeros[-1] + 1.0, 3000.0]))
        assert np.array_equal(_newton_polish(n, alpha, mids)[3],
                              np.searchsorted(zeros, mids))

    def test_cold_rule_makes_one_recurrence_pass(self, monkeypatch, registry):
        # the Newton step and the weights read the same streaming pass
        passes = []
        rows = quadrature._damped_rows

        def counted(N, alpha, u, sizes=None):
            passes.append(list(N))
            return rows(N, alpha, u, sizes)

        monkeypatch.setattr(quadrature, "_damped_rows", counted)
        built = quadrature._passes
        gauss_laguerre(77, 0.8125)
        assert registry.info()["rule"]["misses"] == 1 and quadrature._passes == built + 1
        assert passes == [[77]]

    @pytest.mark.parametrize("n", [209, 835])
    def test_benchmark_sized_cold_rules_make_one_pass(self, monkeypatch, n):
        # from the asymptotic nodes one pass is final: it steps the nodes and
        # gives their coefficients, with no pass for the weights; the rule meets
        # the moment contract
        passes = []
        rows = quadrature._damped_rows

        def counted(N, alpha, u, sizes=None):
            passes.append((list(N), u.size))
            return rows(N, alpha, u, sizes)

        monkeypatch.setattr(quadrature, "_damped_rows", counted)
        rule = _build_rules([(n, 0.5)])[0]
        assert passes == [([n], n)]
        assert np.max(moment_relative_errors(rule, 2 * n - 1)) < 1e-10

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n, node_tol, coeff_tol", [
        (1, 1e-15, 1e-14), (2, 1e-15, 1e-14), (4, 1e-14, 1e-14), (14, 1e-14, 5e-14),
        (53, 2e-13, 5e-13), (209, 2e-12, 5e-12), (835, 3e-11, 1e-10),
        (3337, 2e-10, 2e-9)])
    def test_matches_eigensolver_reference(self, n, alpha, node_tol, coeff_tol):
        # measured maxima: 2.0e-15 / 6.7e-15 (n <= 14), 3.9e-14 / 7.9e-14 (53),
        # 3.8e-13 / 7.2e-13 (209), 5.7e-12 / 1.4e-11 (835), 5.1e-11 / 3.7e-10 (3337)
        nodes, cub = _eigensolver_rule(n, alpha)
        rule = gauss_laguerre(n, alpha)
        assert _max_rel(rule.nodes, nodes) < node_tol
        assert _max_rel(rule.cub_coeffs, cub) < coeff_tol

    def test_smallest_nodes_match_mpmath(self):
        # the recurrence's rounding floor at n = 835 is about 1e-10 at the
        # smallest nodes, for this rule and the eigensolver alike
        n, alpha = 835, 0.5
        rule = gauss_laguerre(n, alpha)
        with mpmath.workdps(30):
            for t, c in zip(rule.nodes[:10], rule.cub_coeffs[:10]):
                z = mpmath.mpf(t)
                for _ in range(3):
                    z += mpmath.laguerre(n, alpha, z) / mpmath.laguerre(n - 1, alpha + 1, z)
                dz = mpmath.laguerre(n - 1, alpha + 1, z)
                want = mpmath.gamma(n + alpha + 1) * mpmath.exp(z) / (
                    2 * mpmath.factorial(n) * z * dz ** 2)
                assert abs(t / z - 1) < 2e-11
                assert abs(c / want - 1) < 1e-10

    @pytest.mark.parametrize("alpha", [7.5, 10.0, 20.0, 50.0, 100.0])
    def test_large_alpha_rules_are_robust(self, alpha):
        # guarded passes keep every node in its Sturm bracket: no duplicates, none
        # outside the support, and the eigensolver's nodes and (finite)
        # coefficients; the log weights stay finite where the coefficients overflow
        for n in list(range(1, 41)) + [64, 255, 512, 1024]:
            rule = _build_rules([(n, alpha)])[0]
            nodes, cub = _eigensolver_rule(n, alpha)
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert 0.0 < rule.nodes[0] and rule.nodes[-1] < 4 * n + 2 * alpha + 2
            assert _max_rel(rule.nodes, nodes) < 1e-11
            finite = np.isfinite(cub) & np.isfinite(rule.cub_coeffs)
            assert _max_rel(rule.cub_coeffs[finite], cub[finite]) < 1e-10
            assert np.all(np.isfinite(rule.log_weights))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0, 0.0)
        with pytest.raises(ValueError):
            gauss_laguerre(4, -1.0)


class TestGroupedRules:
    """A system's rules are built together, in grouped passes of the recurrence."""

    NS = (1, 2, 4, 14, 53, 209, 835)
    ALPHAS = (0.0, 0.5, 1.0, 50.0, 100.0, 400.0)

    def test_grouped_passes_match_the_single_rule_pass(self, registry):
        # every n with every alpha, some asked for twice, in one batch on an empty
        # cache: each distinct rule is built once, in as many grouped passes as its
        # slowest rule needs (alpha >= 50 needs several), bit for bit as built alone
        keys = [(n, a) for n in self.NS for a in self.ALPHAS]
        asked = keys[::-1] + keys[::5] + [(835, 0.5)]
        start = quadrature._passes
        rules = quadrature._rules(asked)
        count = registry.info()["rule"]
        assert (count["hits"], count["misses"], count["entries"]) == (0, len(keys), len(keys))
        assert 1 < quadrature._passes - start <= quadrature._MAX_PASSES
        by_key = {}
        for key, rule in zip(asked, rules):
            assert by_key.setdefault(key, rule) is rule
            arrays = (rule.nodes, rule.log_weights, rule.cub_coeffs, rule.sqrt_nodes)
            assert (rule.n, rule.alpha) == key and not any(a.flags.writeable for a in arrays)
        for (n, alpha), rule in by_key.items():
            arrays = (rule.nodes, rule.log_weights, rule.cub_coeffs, rule.sqrt_nodes)
            for got, want in zip(arrays, single_rule(n, alpha)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, alpha)
        passes = quadrature._passes
        assert all(rule is by_key[key] for key, rule in zip(keys, quadrature._rules(keys[:3])))
        count = registry.info()["rule"]
        assert (count["hits"], count["misses"], quadrature._passes) == (3, len(keys), passes)

    def test_benchmark_rules_take_one_pass(self, registry):
        # a system's rules, one per level and alpha, from the asymptotic starts in one
        # grouped pass (wide-3d's twelve rules)
        start = quadrature._passes
        quadrature._rules([(level_node_count(j), a) for j in range(4) for a in (0.0, 0.5, 1.0)])
        assert quadrature._passes - start == 1

    def test_taylor_step_of_joined_groups_is_each_groups_own(self):
        # points near the zeros of three rules, moved off them both ways, so the steps
        # h take both signs; the step on the groups joined is bit for bit the step on
        # each group alone, wherever a point sits in the array
        rng = np.random.default_rng(4)
        keys = [(209, 0.5), (53, 2.0), (14, 80.0)]
        parts = []
        for n, alpha in keys:
            t = single_start(n, alpha) * (1.0 + 1e-3 * rng.standard_normal(n))
            *_, last = _damped_rows(n, alpha, t)
            parts.append((np.full(n, float(n)), np.full(n, alpha), t, last.v.copy(),
                          last.v_prev.copy(), last.frac.copy(), last.m0 + last.shift))
        joined = quadrature._taylor_step(*(np.concatenate(arrs) for arrs in zip(*parts)))
        start = 0
        for part in parts:
            alone = quadrature._taylor_step(*part)
            stop = start + part[2].size
            h = alone[0] - part[2]
            assert (h < 0.0).any() and (h > 0.0).any()
            for got, want in zip(joined, alone):
                assert np.array_equal(got[start:stop].view(np.int64), want.view(np.int64))
            start = stop

    def test_starts_match_per_rule_starts(self):
        keys = [(n, a) for n in (1, 2, 3, 9, 64, 835) for a in (0.0, 0.3125, 7.5, 400.0)]
        got = quadrature._initial_nodes(keys)
        want = np.concatenate([single_start(n, a) for n, a in keys])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
        for n, tol in ((48, 1e-12), (835, 1e-10)):
            rule = gauss_laguerre(n, alpha)
            _, lam_exp = christoffel(n, alpha, rule.nodes)
            assert np.max(np.abs(lam_exp / (2.0 * rule.cub_coeffs) - 1.0)) < tol

    @pytest.mark.parametrize("n,alpha", [(1, 0.0), (2, 0.5), (48, 2.0), (300, 1.0)])
    def test_christoffel_darboux_holds_off_the_zeros(self, n, alpha):
        # from points off the zeros, the pass's t q_n'^2 form, with q_n' carried
        # to the stepped node by the Taylor model, equals the sum of squares there
        t0 = _eigensolver_rule(n, alpha)[0]
        gaps = np.diff(t0, prepend=0.0)
        root, lam_exp, log_lam_exp, _ = _newton_polish(
            n, alpha, t0 + 5e-3 * gaps * np.cos(np.arange(n)))
        log_lam, want = christoffel(n, alpha, root)
        assert lam_exp == pytest.approx(want, rel=1e-12)
        assert log_lam_exp - root == pytest.approx(log_lam, rel=1e-12, abs=1e-12)

    def test_large_alpha(self):
        # G(a+1)^(-1/2) is below the float range at a = 400: log lambda stays finite
        # and matches mpmath, and at the 8-point rule's nodes it gives the rule's weights
        alpha, n, x = 400.0, 8, 1.0
        log_lam, _ = christoffel(n, alpha, x)
        with mpmath.workdps(30):
            total = mpmath.fsum(mpmath.laguerre(k, alpha, x) ** 2 * mpmath.factorial(k)
                                / mpmath.gamma(k + alpha + 1) for k in range(n))
            want = float(-mpmath.log(total))
        assert abs(log_lam / want - 1.0) < 1e-12
        rule = gauss_laguerre(n, alpha)
        assert christoffel(n, alpha, rule.nodes)[0] == pytest.approx(rule.log_weights, rel=1e-12)

    def test_log_form_is_finite_beyond_the_support(self):
        # at the largest node of the 512-point rule the degree-65 sum of squares
        # underflows if converted, and lambda e^x overflows; log lambda matches
        # mpmath (about -556.5) and lambda e^x is inf without a warning
        x = 2004.06
        log_lam, lam_exp = christoffel(65, 0.5, x)
        with mpmath.workdps(30):
            total = mpmath.fsum(mpmath.laguerre(k, 0.5, x) ** 2 * mpmath.factorial(k)
                                / mpmath.gamma(k + 1.5) for k in range(65))
            want = float(-mpmath.log(total))
        assert abs(log_lam / want - 1.0) < 1e-10
        assert lam_exp == math.inf

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

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match="level"):
            level_node_count(-1)
        with pytest.raises(ValueError, match="level"):
            cubature_grid(-1, 1, [0.5])

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
        # the level-5 grid in 2-D holds 3337^2 = 11.1M points: it is built from
        # its per-axis arrays, and the cap refuses only to flatten it
        assert level_node_count(5) ** 2 > GRID_POINT_CAP
        grid = cubature_grid(5, 2, [0.0, 0.0])
        assert grid.point_count > GRID_POINT_CAP
        for flatten in (grid.points, grid.coeffs, grid.tile_measures):
            with pytest.raises(ResourceWarning):
                flatten()

    def test_refuses_non_finite_grid(self):
        # at alpha = 100 the level-4 coefficients lambda_n e^t and the measures
        # t^(2 alpha + 2) of the outer tiles overflow; the grid is refused
        # before numpy warns of the overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"alpha=100\.0 with n_j=835"):
                cubature_grid(4, 1, [100.0])
            grid = cubature_grid(4, 1, [50.0])
        assert np.isfinite(grid.axis_c[0]).all()
        assert np.isfinite(grid.axis_tile_measure[0]).all()

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
        domain = tile_measure([(0.0, grid.axis_breaks[0][-1])], [0.5])
        assert total == pytest.approx(domain, rel=1e-10)

    def test_partition_sums_to_domain_2d(self):
        grid = cubature_grid(1, 2, [0.0, 2.0])
        total = math.fsum(grid.tile_measures().tolist())
        domain = tile_measure([(0.0, br[-1]) for br in grid.axis_breaks], [0.0, 2.0])
        assert total == pytest.approx(domain, rel=1e-10)

    def test_tiles_disjoint_and_ordered(self):
        grid = cubature_grid(2, 1, [0.0])
        breaks = grid.axis_breaks[0]
        assert np.all(np.diff(breaks) > 0.0)
        assert breaks[0] == 0.0
        # centers sit inside their boxes
        xi = grid.axis_xi[0]
        assert np.all((breaks[:-1] <= xi) & (xi <= breaks[1:]))

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


def test_rule_caching_returns_same_object():
    a = gauss_laguerre(17, 0.5)
    b = gauss_laguerre(17, 0.5)
    assert a is b


def test_grids_share_cached_rules():
    # a grid is not kept; each one is made from the rules the registry keeps
    a = cubature_grid(1, 2, [0.25, 0.5])
    b = cubature_grid(1, 2, [0.25, 0.5])
    assert a is not b
    assert all(r is s for r, s in zip(a._rules, b._rules))
    assert all(x is y for x, y in zip(a.axis_xi + a.axis_c, b.axis_xi + b.axis_c))


def test_default_extension_is_resolved():
    a = cubature_grid(2, 1, [0.5])
    b = cubature_grid(2, 1, [0.5], right_extension=2 ** (2 / 3))
    assert a.right_extension == b.right_extension
    assert np.array_equal(a.axis_breaks[0], b.axis_breaks[0])


def test_grid_arrays_are_read_only():
    grid = cubature_grid(1, 2, [0.0, 0.5])
    breaks = grid.axis_breaks[0].copy()
    for arr in grid.axis_xi + grid.axis_c + grid.axis_breaks + grid.axis_tile_measure:
        with pytest.raises(ValueError):
            arr[0] = 99.0
    assert np.array_equal(cubature_grid(1, 2, [0.0, 0.5]).axis_breaks[0], breaks)
