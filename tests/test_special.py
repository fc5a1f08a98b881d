import itertools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre, gammaln

from lagneed.special import (
    AlphaVector,
    MultiIndex,
    kernel_F_m,
    laguerre_fn_batch,
    laguerre_fn_F_deriv,
    laguerre_fn_F_deriv_batch,
    multivariate_F,
    total_degree_grid,
    _ArrayCache,
    _F_tables,
    _damped_rows,
    _flush_subnormal,
    _fold,
    _Frame,
    _kernel_table,
)
from lagneed import special
from lagneed.quadrature import cubature_grid, gauss_laguerre
from oracles import cubature_integrate, laguerre_poly


class TestLaguerrePoly:
    def test_degree_zero_is_one(self):
        assert laguerre_poly(0, 1.5, 7.3) == 1.0

    def test_degree_one_closed_form(self):
        for alpha, x in [(0.0, 2.0), (0.7, 0.1), (3.0, 11.0)]:
            assert laguerre_poly(1, alpha, x) == pytest.approx(-x + alpha + 1, rel=1e-15)

    @pytest.mark.parametrize("n,alpha", [(3, 0.0), (7, 1.25), (20, 2.0)])
    def test_value_at_origin_is_binomial(self, n, alpha):
        expected = math.exp(gammaln(n + alpha + 1) - gammaln(n + 1) - gammaln(alpha + 1))
        assert laguerre_poly(n, alpha, 0.0) == pytest.approx(expected, rel=1e-12)

    @given(n=st.integers(0, 40), alpha=st.floats(0.0, 4.0), x=st.floats(0.0, 30.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_evaluation(self, n, alpha, x):
        ours = laguerre_poly(n, alpha, x)
        ref = eval_genlaguerre(n, alpha, x)
        assert ours == pytest.approx(ref, rel=1e-8, abs=1e-8)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            laguerre_poly(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre_poly(2, -0.5, 1.0)
        with pytest.raises(ValueError):
            laguerre_poly(2, 0.5, -1.0)


class TestFamilies:
    def test_family_F_degree_zero(self):
        for alpha, x in [(0.0, 0.3), (0.5, 1.7), (2.0, 4.0)]:
            got = laguerre_fn_batch(0, alpha, x, "F")[0]
            want = math.sqrt(2.0 / math.gamma(alpha + 1.0)) * math.exp(-x * x / 2.0)
            assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_weighted_family_orthonormal_under_quadrature(self, alpha):
        # Gram of the first 65 family-F functions with a 130-node rule after
        # the square substitution; must be the identity to 1e-8.
        N = 64
        rule = gauss_laguerre(2 * (N + 1), alpha)
        vals = laguerre_fn_batch(N, alpha, rule.sqrt_nodes, "F")
        gram = (vals * (2.0 * rule.cub_coeffs * 0.5)) @ vals.T
        assert np.max(np.abs(gram - np.eye(N + 1))) < 1e-8

    def test_relation_between_F_and_L(self):
        rng = np.random.default_rng(7)
        for alpha in (0.0, 0.5, 2.0):
            x = rng.uniform(0.2, 6.0, size=8)
            F = laguerre_fn_batch(50, alpha, x, "F")
            L = laguerre_fn_batch(50, alpha, x * x, "L")
            rel = np.abs(F - math.sqrt(2.0) * x ** (-alpha) * L) / np.maximum(np.abs(F), 1e-300)
            assert np.max(rel[np.abs(F) > 1e-12]) < 1e-12

    def test_M_family_from_F(self):
        x = np.array([0.4, 1.1, 2.5])
        F = laguerre_fn_batch(30, 1.5, x, "F")
        M = laguerre_fn_batch(30, 1.5, x, "M")
        assert np.allclose(M, x ** 2.0 * F, rtol=1e-13)

    def test_three_term_recurrence_identity(self):
        # x^2 F_n = -b_{n+1} F_{n+1} + (2n+a+1) F_n - b_n F_{n-1}; relative
        # to the term magnitude, since the right side cancels to O(x^2 F)
        xs = np.linspace(0.0, 40.0, 161)
        for alpha in (0.0, 0.5, 2.0):
            N = 257
            F = laguerre_fn_batch(N, alpha, xs, "F")
            n = np.arange(1, N).reshape(-1, 1)
            b = lambda k: np.sqrt(k * (k + alpha))
            lhs = xs ** 2 * F[1:N]
            rhs = (-b(n + 1.0) * F[2:] + (2 * n + alpha + 1) * F[1:N] - b(n * 1.0) * F[:N - 1])
            scale = (np.abs(b(n + 1.0) * F[2:]) + np.abs((2 * n + alpha + 1) * F[1:N])
                     + np.abs(b(n * 1.0) * F[:N - 1]))
            good = scale > 1e-280
            assert np.max(np.abs(lhs - rhs)[good] / scale[good]) < 1e-10

    def test_connection_to_raised_parameter(self):
        # F_n^a = sqrt(n+a+1) F_n^(a+1) - sqrt(n) F_{n-1}^(a+1)
        xs = np.linspace(0.0, 40.0, 161)
        for alpha in (0.0, 0.5, 2.0):
            N = 256
            F = laguerre_fn_batch(N, alpha, xs, "F")
            G = laguerre_fn_batch(N, alpha + 1.0, xs, "F")
            n = np.arange(1, N + 1).reshape(-1, 1)
            rhs = np.sqrt(n + alpha + 1.0) * G[1:] - np.sqrt(n * 1.0) * G[:-1]
            scale = np.abs(np.sqrt(n + alpha + 1.0) * G[1:]) + np.abs(np.sqrt(n * 1.0) * G[:-1])
            good = scale > 1e-280
            assert np.max(np.abs(F[1:] - rhs)[good] / scale[good]) < 1e-10

    @pytest.mark.parametrize("alpha,n", [(0.0, 16), (2.0, 64)])
    def test_exponential_tail_of_unweighted_family(self, alpha, n):
        # beyond 3N/2 the envelope is exponential; the log-linear slope must
        # be negative with a stable magnitude
        N4 = 4 * n + 2 * alpha + 2
        xs = np.linspace(1.5 * N4, 2.5 * N4, 50)
        vals = np.abs(laguerre_fn_batch(n, alpha, xs, "L")[n])
        mask = vals > 0.0
        assert np.count_nonzero(mask) > 10
        slope = np.polyfit(xs[mask], np.log(vals[mask]), 1)[0]
        assert -slope > 0.2

    def test_no_nan_inf_in_extreme_ranges(self):
        xs = np.array([0.0, 1e-3, 1.0, 10.0, 50.0, 100.0])
        for family in ("F", "L", "M"):
            vals = laguerre_fn_batch(2 ** 14, 8.0, xs, family)
            assert np.all(np.isfinite(vals))
        # damped argument up to 1e4 stays finite and keeps oscillatory mass
        vals = laguerre_fn_batch(2 ** 14, 2.0, 1e4, "L")
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) > 1e-3

    @pytest.mark.parametrize("family, x", [("L", 100.0), ("M", 10.0)])
    def test_large_alpha_power_of_x_stays_in_range(self, family, x):
        # x^(a/2) (L) and 2^(1/2) x^(a+1/2) (M) overflow at a = 400, the values
        # (1e-57 to 1e-53) do not.  The reference is the closed form in mpmath, at
        # n = 0 exp(a/2 ln x - x/2 - lgamma(a+1)/2) (L) and exp(ln 2/2 + (a+1/2) ln x
        # - x^2/2 - lgamma(a+1)/2) (M); the error left (8.7e-14) is that of the
        # start G(a+1)^(-1/2), which family F shares.  At x = 0 the values are 0.
        alpha = 400.0
        vals = laguerre_fn_batch(10, alpha, [x, 0.0], family)
        assert np.all(np.isfinite(vals)) and not vals[:, 1].any()
        with mpmath.workdps(40):
            a, u = mpmath.mpf(alpha), mpmath.mpf(x if family == "L" else x * x)
            power = a / 2 if family == "L" else a + mpmath.mpf(0.5)
            log_pre = power * mpmath.log(x) + (0 if family == "L" else mpmath.log(2) / 2)
            for n in range(3):
                want = (mpmath.exp(log_pre - u / 2 + (mpmath.loggamma(n + 1)
                                                      - mpmath.loggamma(n + a + 1)) / 2)
                        * mpmath.laguerre(n, a, u))
                assert abs(vals[n, 0] / want - 1) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            laguerre_fn_batch(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre_fn_batch(4, 0.0, -0.5)
        with pytest.raises(ValueError):
            laguerre_fn_batch(4, 0.0, 1.0, "Q")


class TestDerivative:
    def test_degree_zero_has_no_raised_term(self):
        for alpha, x in [(0.0, 0.7), (1.5, 2.2)]:
            f0 = laguerre_fn_batch(0, alpha, x, "F")[0]
            assert laguerre_fn_F_deriv(0, alpha, x) == pytest.approx(-x * f0, rel=1e-14)

    def test_matches_central_difference(self):
        n, alpha, x, h = 12, 0.5, 2.0, 1e-5
        fd = (laguerre_fn_batch(n, alpha, x + h, "F")[n]
              - laguerre_fn_batch(n, alpha, x - h, "F")[n]) / (2 * h)
        assert laguerre_fn_F_deriv(n, alpha, x) == pytest.approx(fd, rel=1e-6)

    def test_alternate_derivative_identity(self):
        # x >= 1 form with the b_n coefficients agrees to 1e-10
        for alpha in (0.0, 0.5, 2.0):
            for x in (1.0, 2.5, 5.0):
                N = 40
                F = laguerre_fn_batch(N + 1, alpha, x, "F")
                for n in range(1, N):
                    b = lambda k: math.sqrt(k * (k + alpha))
                    alt = (-(alpha + 1) * F[n] + b(n + 1) * F[n + 1] - b(n) * F[n - 1]) / x
                    got = laguerre_fn_F_deriv(n, alpha, x)
                    assert got == pytest.approx(alt, rel=1e-10, abs=1e-280)

    def test_batch_consistent_with_scalar(self):
        out = laguerre_fn_F_deriv_batch(6, 1.0, np.array([0.5, 1.0]))
        for n in range(7):
            for i, x in enumerate((0.5, 1.0)):
                assert out[n, i] == pytest.approx(laguerre_fn_F_deriv(n, 1.0, x), rel=1e-14)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            laguerre_fn_F_deriv(-2, 0.0, 1.0)


def brute_kernel(m, alpha, x, y):
    """Composition-enumeration oracle for the degree-m projector kernel."""
    d = len(alpha)
    total = 0.0
    for nu in itertools.product(range(m + 1), repeat=d):
        if sum(nu) != m:
            continue
        total += multivariate_F(nu, alpha, x) * multivariate_F(nu, alpha, y)
    return total


class TestKernel:
    def test_univariate_kernel_is_plain_product(self):
        alpha, x, y = [0.5], [1.2], [0.8]
        m = 5
        fx = laguerre_fn_batch(m, 0.5, 1.2, "F")[m]
        fy = laguerre_fn_batch(m, 0.5, 0.8, "F")[m]
        assert kernel_F_m(m, alpha, x, y) == pytest.approx(fx * fy, rel=1e-14)

    def test_two_dim_matches_composition_sum(self):
        alpha = [0.0, 1.5]
        x, y = [0.9, 2.0], [1.4, 0.3]
        got = kernel_F_m(3, alpha, x, y)
        want = brute_kernel(3, alpha, x, y)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("d,m", [(1, 12), (2, 9), (3, 6)])
    def test_dp_equals_brute_force(self, d, m):
        rng = np.random.default_rng(d * 17 + m)
        alpha = list(rng.uniform(0.0, 2.0, size=d))
        x = list(rng.uniform(0.1, 3.0, size=d))
        y = list(rng.uniform(0.1, 3.0, size=d))
        assert kernel_F_m(m, alpha, x, y) == pytest.approx(
            brute_kernel(m, alpha, x, y), rel=1e-12, abs=1e-280)

    def test_symmetry(self):
        alpha = [0.5, 0.5]
        x, y = [1.0, 2.0], [0.4, 1.1]
        assert kernel_F_m(7, alpha, x, y) == pytest.approx(
            kernel_F_m(7, alpha, y, x), rel=1e-14)

    def test_table_prefix_consistency(self):
        alpha = [0.0, 0.5]
        tab = _kernel_table(8, alpha, [1.0, 0.5], [0.7, 1.3])
        for m in range(9):
            assert tab[m] == pytest.approx(
                kernel_F_m(m, alpha, [1.0, 0.5], [0.7, 1.3]), rel=1e-13, abs=1e-300)


class TestMultivariate:
    def test_product_definition(self):
        alpha = [0.3, 1.1]
        x = [0.8, 1.9]
        v1 = laguerre_fn_batch(0, 0.3, 0.8, "F")[0]
        v2 = laguerre_fn_batch(0, 1.1, 1.9, "F")[0]
        assert multivariate_F((0, 0), alpha, x) == pytest.approx(v1 * v2, rel=1e-14)

    def test_symmetric_under_axis_swap(self):
        alpha = [0.7, 0.7]
        assert multivariate_F((2, 5), alpha, [1.0, 2.0]) == pytest.approx(
            multivariate_F((5, 2), alpha, [2.0, 1.0]), rel=1e-14)

    def test_unit_norm_under_cubature(self):
        grid = cubature_grid(2, 2, [0.0, 0.5])
        nu = (3, 2)
        val = cubature_integrate(grid, lambda p: multivariate_F(nu, [0.0, 0.5], p),
                                 lambda p: multivariate_F(nu, [0.0, 0.5], p))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multivariate_F((1, 2), [0.5], [1.0, 2.0])


def tensordot_fold(tensor, mats):
    out = np.asarray(tensor, dtype=complex)
    for m in mats:
        out = np.tensordot(out, np.asarray(m, dtype=complex), axes=([0], [0]))
    return out


def draw_mats(rng, n_in, n_out, fortran):
    """Per-axis (k_i, n_i) matrices; Fortran order (transposed views) when asked,
    as a caller with node-major tables passes them."""
    return [rng.standard_normal((b, a)).T if fortran else rng.standard_normal((a, b))
            for a, b in zip(n_in, n_out)]


class TestFold:
    # a complex tensor against real matrices, whatever its layout or the size of
    # its output ("growing"), is folded as its float view with a trailing
    # (re, im) axis; a complex matrix ("complex-matrix") meets the tensor as it is
    @pytest.mark.parametrize("case", ["complex", "sliced", "transposed", "growing", "real",
                                      "complex-matrix"])
    @pytest.mark.parametrize("fortran", [0, 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_complex_tensordot(self, d, fortran, case):
        rng = np.random.default_rng([d, fortran, len(case)])
        n_in = [5, 3, 4][:d]
        n_out = ([40, 30, 20] if case == "growing" else [6, 2, 7])[:d]
        mats = draw_mats(rng, n_in, n_out, fortran)
        if case == "complex-matrix":
            mats[-1] = mats[-1] + 1j * rng.standard_normal(mats[-1].shape)

        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        if case == "sliced":
            tensor = draw([2 * n for n in n_in])[(slice(None, None, 2),) * d]
        elif case == "transposed":
            tensor = draw(n_in[::-1]).T
        elif case in ("real", "complex-matrix"):
            tensor = rng.standard_normal(n_in)
        else:
            tensor = draw(n_in)
        got = _fold(tensor, mats)
        want = tensordot_fold(tensor, mats)
        assert got.shape == tuple(n_out)
        assert got.dtype == (float if case == "real" else complex)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def einsum_fold(tensor, mats):
    ins, outs = "abcd"[: tensor.ndim], "wxyz"[: tensor.ndim]
    subs = [i + o for i, o in zip(ins, outs)]
    return np.einsum(",".join([ins, *subs]) + "->" + outs, tensor, *mats)


class TestFoldInPlace:
    """Every axis contracted where it lies: the batched form on each axis but the
    last, one matmul on the last."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("fortran", [0, 1])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_einsum(self, d, fortran, kind):
        # d = 4 batches two middle axes, over 7 and 7 * 5 leading entries
        rng = np.random.default_rng([d, fortran, len(kind)])
        n_in, n_out = [7, 5, 3, 6][:d], [4, 9, 11, 2][:d]
        mats = draw_mats(rng, n_in, n_out, fortran)
        tensor = rng.standard_normal(n_in)
        if kind == "complex":
            tensor = tensor + 1j * rng.standard_normal(n_in)
        got = _fold(tensor, mats)
        want = einsum_fold(tensor, mats)
        assert got.shape == tuple(n_out) and got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_none_leaves_an_axis(self, d, kind):
        # synthesize folds only the first axis, then the others with the first left
        # alone; a None axis folds as the identity, on a strided tensor as well
        rng = np.random.default_rng([d, len(kind), 5])
        n_in, n_out = [7, 5, 3, 6][:d], [4, 9, 11, 2][:d]
        mats = draw_mats(rng, n_in, n_out, 1)
        tensor = rng.standard_normal([2 * n for n in n_in])
        if kind == "complex":
            tensor = tensor + 1j * rng.standard_normal(tensor.shape)
        tensor = tensor[(slice(None, None, 2),) * d]
        for keep in [(0,), tuple(range(1, d)), tuple(range(d))]:
            got = _fold(tensor, [None if i in keep else m for i, m in enumerate(mats)])
            want = einsum_fold(tensor, [np.eye(n) if i in keep else m
                                        for i, (n, m) in enumerate(zip(n_in, mats))])
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", ["growing", "strided-last-axis"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_complex_into_a_box(self, d, case):
        # "growing" is analyze's shape: a small block folded into a much larger
        # box, which analyze stores as it is, so it must be a new C-contiguous array;
        # "strided-last-axis" is a tensor whose float view needs a copy first
        rng = np.random.default_rng([d, len(case), 11])
        n_in = [5, 3, 4][:d]
        n_out = ([40, 30, 20] if case == "growing" else [6, 2, 7])[:d]
        mats = draw_mats(rng, n_in, n_out, 1)
        shape = n_in[:-1] + [2 * n_in[-1]] if case == "strided-last-axis" else n_in
        tensor = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if case == "strided-last-axis":
            tensor = tensor[..., ::2]
            assert tensor.strides[-1] != tensor.itemsize
        box = _fold(tensor, mats)
        assert box.shape == tuple(n_out) and box.dtype == complex and box.flags.c_contiguous
        want = einsum_fold(tensor, mats)
        assert np.max(np.abs(box - want)) <= 1e-13 * np.max(np.abs(want))


class TestFlushSubnormal:
    TINY = np.finfo(float).tiny

    def values(self, size, seed=0):
        rng = np.random.default_rng(seed)
        normal = rng.standard_normal(size) * 10.0 ** rng.integers(-307, 308, size)
        sub = rng.standard_normal(size) * self.TINY * rng.uniform(0.0, 1.0, size)
        return np.where(rng.uniform(size=size) < 0.3, sub, normal)

    @pytest.mark.parametrize("size", [1, 1000, 3 * 2 ** 15 + 5])
    def test_zeroes_subnormals_and_keeps_every_normal_entry(self, size):
        arr = self.values(size)
        arr[:4] = [self.TINY, -self.TINY, np.inf, -np.inf][: min(4, size)]
        before = arr.copy()
        assert _flush_subnormal(arr) is arr
        keep = np.abs(before) >= self.TINY
        assert np.array_equal(arr[keep].view(np.int64), before[keep].view(np.int64))
        assert not np.any(arr[~keep])

    def test_complex_through_float_view(self):
        re, im = self.values(5000, 1), self.values(5000, 2)
        arr = (re + 1j * im).reshape(50, 100)
        _flush_subnormal(arr)
        for part, src in ((arr.real.ravel(), re), (arr.imag.ravel(), im)):
            keep = np.abs(src) >= self.TINY
            assert np.array_equal(part[keep], src[keep]) and not np.any(part[~keep])

    def test_nan_kept(self):
        arr = np.array([np.nan, 1e-310, 1.0])
        _flush_subnormal(arr)
        assert np.isnan(arr[0]) and arr[1:].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("shape", [(7,), (4, 5), (3, 300, 300), (40, 30, 20)])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_contiguous_in_place(self, shape, order, dtype):
        # flushed where it lies, each float (a complex entry's two) on its own;
        # (3, 300, 300) spans several chunks
        arr = self.values(math.prod(shape), 3)
        if dtype is complex:
            arr = arr + 1j * self.values(arr.size, 4)
        want = arr.copy().reshape(shape, order=order)
        for part in (want.real, want.imag) if dtype is complex else (want,):
            part[np.abs(part) < self.TINY] = 0.0
        arr = np.asarray(arr.reshape(shape, order=order), order=order)
        assert arr.flags[f"{order}_CONTIGUOUS"]
        assert _flush_subnormal(arr) is arr
        assert np.array_equal(np.ascontiguousarray(arr).view(np.int64),
                              np.ascontiguousarray(want).view(np.int64))

    @pytest.mark.parametrize("box", [np.s_[:3, :3], np.s_[::2], np.s_[:, 1], np.s_[::-1]])
    def test_refuses_other_layouts(self, box):
        # any other layout could only be flushed as a copy: refused, left as it was
        arr = self.values(20, 5).reshape(4, 5)
        before = arr.copy()
        with pytest.raises(ValueError, match="contiguous"):
            _flush_subnormal(arr[box])
        assert np.array_equal(arr.view(np.int64), before.view(np.int64))

    def test_floor(self):
        # entries below a floor above tiny are trimmed as well, the floor itself kept
        arr = np.array([1e-18, -1e-18, 2e-18, -2e-18, 3e-18, 1e-310, 0.0, np.nan])
        _flush_subnormal(arr, 2e-18)
        assert arr[:5].tolist() == [0.0, 0.0, 2e-18, -2e-18, 3e-18] and not arr[5:7].any()
        assert np.isnan(arr[7])

    def test_fortran_order_in_place(self):
        # a boolean column selection, table[:, live], comes out in Fortran order
        arr = np.full((3, 5), 1e-310)[:, np.array([True, False, True, True, False])]
        assert arr.flags.f_contiguous and not arr.flags.c_contiguous
        arr[0] = 1.0
        assert _flush_subnormal(arr) is arr
        assert arr.tolist() == [[1.0] * 3, [0.0] * 3, [0.0] * 3]


def ldexp_rows(N, alpha, x, family):
    """laguerre_fn_batch's values from ldexp(v frac, m0 + shift) of every recurrence
    state, the power of x of families L and M folded into the first, and the
    exponents m0 + shift of every row."""
    u = x if family == "L" else np.square(x)
    power = {"F": 0.0, "L": 0.5 * alpha, "M": alpha + 0.5}[family]
    rows, exps = [], []
    for state in _damped_rows(N, alpha, u):
        assert state.scale is None  # a consumer that converts no row gets no factors
        if power and not rows:
            state.times_power(x, power)
        exps.append(state.m0 + state.shift)
        rows.append(np.ldexp(state.v * state.frac, exps[-1]))
    return np.array(rows) * (1.0 if family == "L" else math.sqrt(2.0)), np.array(exps)


class TestRowConversion:
    """_Frame.row converts by cached power-of-two factors, bit for bit as ldexp."""

    TINY_X = [0.0, 5e-324, 1e-310, 1e-300, 1e-20]

    @pytest.mark.parametrize("family, alpha, N", [
        ("F", 0.5, 1024), ("L", 0.0, 300), ("M", 1.0, 300),
        ("F", 80.0, 600), ("L", 50.0, 600), ("M", 80.0, 600), ("F", 400.0, 2000)])
    def test_bits_equal_ldexp(self, family, alpha, N):
        u = np.linspace(0.0, 1.4e4, 701)
        x = np.concatenate((self.TINY_X, u if family == "L" else np.sqrt(u)))
        want, exps = ldexp_rows(N, alpha, x, family)
        got = laguerre_fn_batch(N, alpha, x, family)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # every regime of the conversion, and zeros of both signs, are on the rows
        assert np.any(exps >= -1022) and np.any((exps < -1022) & (exps > -2076))
        assert np.any(exps <= -2076)
        zeros = want == 0.0
        assert np.any(zeros & np.signbit(want)) and np.any(zeros & ~np.signbit(want))
        if alpha >= 50.0:  # a rescale between two converted rows
            assert np.array_equal(exps[1], exps[0]) and not np.array_equal(exps[-1], exps[0])

    def test_regime_edges_by_hand(self):
        # |v| up to the recurrence's bound 2^1000, frac in [1, 2), E on each regime's edges
        v = np.array([2.0 ** 1000, -(2.0 ** 1000), 1.5 * 2.0 ** 999, 1.0, -1.0 - 2.0 ** -52,
                      3.0 * 2.0 ** -1000, 5e-324, -0.0, 0.0])
        frac = np.array([1.0, 1.5, 2.0 - 2.0 ** -52])
        e = np.array([3, 0, -1021, -1022, -1023, -1074, -1075, -1076, -2000, -2074, -2075,
                      -2076, -2077, -2100, -5000])
        vv, ff, ee = (g.ravel() for g in np.meshgrid(v, frac, e, indexing="ij"))
        state = _Frame()
        state.v, state.frac, state.scale = vv, ff, None
        state.shift = np.where(ee > -1000, 0, 512)
        state.m0 = ee - state.shift
        want, got = np.ldexp(vv * ff, ee), np.empty_like(vv)
        state.row(got)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.any(want[ee == -2075]) and not np.any(want[ee == -2076])


class TestGroupedPass:
    """One pass of _damped_rows over several groups gives each group's rows of its own pass."""

    def test_groups_leave_with_their_own_rows(self):
        # groups of different degree, alpha and size, with points far enough out to
        # rescale at their own steps; at each group's last step its two rows, shift
        # and exponents are those of a pass over the group alone, and the pass then
        # steps only the groups still running
        rng = np.random.default_rng(2)
        groups = [(700, 0.5, 40), (700, 80.0, 7), (300, 0.0, 31), (300, 400.0, 5), (9, 2.0, 12)]
        N, alpha, sizes = zip(*groups)
        us = [np.sort(rng.uniform(0.0, 4.0 * n + 500.0, k)) for n, _, k in groups]
        u = np.concatenate(us)
        ends = np.cumsum(sizes)
        widths, rescaled = [], []
        for n, state in enumerate(_damped_rows(N, alpha, u, sizes)):
            widths.append(len(state.v))
            for g in range(len(groups)):
                if N[g] == n:
                    sl = slice(ends[g] - sizes[g], ends[g])
                    alone = _damped_rows(N[g], alpha[g], us[g])
                    start = next(alone).shift.copy()
                    *_, last = alone
                    for name in ("v", "v_prev"):
                        assert np.array_equal(getattr(state, name)[sl].view(np.int64),
                                              getattr(last, name).view(np.int64))
                    assert np.array_equal((state.m0 + state.shift)[sl], last.m0 + last.shift)
                    rescaled.append(bool((last.shift != start).any()))
        assert widths == [u.size] * 10 + [ends[3]] * 291 + [ends[1]] * 400
        # in the order the groups leave: (9, 2), (300, 0), (300, 400), (700, 0.5), (700, 80)
        assert rescaled == [False, True, False, True, True]

    @pytest.mark.parametrize("layout", ["runs", "rows"])
    def test_one_rescale_schedule_serves_groups_of_different_growth(self, layout):
        # the pass rescales at the steps its fastest-growing group needs, and then
        # every large value of every group; a slower group alone rescales elsewhere,
        # and two groups never do (points near 0, and eight steps at alpha = 400).
        # Every row of every group is bit for bit that of a pass of its own.
        rng = np.random.default_rng(5)
        groups = [(4096, 0.0, 1.6e4), (1024, 2.0, 2.5e3), (64, 0.5, 1e-3), (8, 400.0, 900.0)]
        N, alpha, top = zip(*groups)
        us = [np.sort(rng.uniform(0.0, t, 24)) for t in top]
        u, sizes = (np.stack(us), None) if layout == "rows" else (np.concatenate(us), (24,) * 4)

        def rows_and_rescales(pass_, count):
            # q_n = ldexp(v frac, m0 + shift) per group, and the steps that move a shift
            rows, steps, shift = [[] for _ in range(count)], [set() for _ in range(count)], None
            for n, state in enumerate(pass_):
                w = len(state.v)
                vals = np.ldexp(state.v * state.frac[:w], (state.m0 + state.shift)[:w])
                now = state.shift.reshape(count, -1)
                for g, row in enumerate(vals.reshape(-1, 24)):
                    rows[g].append(row)
                    if shift is not None and (now[g] != shift[g]).any():
                        steps[g].add(n)
                shift = now.copy()
            return [np.array(r) for r in rows], steps

        got, steps = rows_and_rescales(_damped_rows(N, alpha, u, sizes), len(groups))
        own = []
        for g, (n, a, pts) in enumerate(zip(N, alpha, us)):
            (want,), (mine,) = rows_and_rescales(_damped_rows(n, a, pts), 1)
            own.append(mine)
            assert got[g].shape == (n + 1, 24)
            assert np.array_equal(got[g].view(np.int64), want.view(np.int64)), (n, a)
        assert min(steps[0]) == min(own[0]) < 150
        assert min(steps[1]) == min(steps[0]) and min(own[1]) > 200
        assert not (steps[2] or steps[3] or own[2] or own[3])

    def test_tables_of_several_alphas_in_one_pass(self):
        rng = np.random.default_rng(3)
        alphas = (0.0, 50.0, 80.0, 400.0, 0.0)
        xs = np.sqrt(np.sort(rng.uniform(0.0, 1.4e4, (len(alphas), 301)), axis=1))
        xs[:, 0] = 0.0
        for N in (0, 3, 600):
            got = _F_tables(N, alphas, xs)
            for tab, a, x in zip(got, alphas, xs):
                assert np.array_equal(tab.view(np.int64), laguerre_fn_batch(N, a, x).view(np.int64))


class TestLargeAlpha:
    """G(a+1)^(-1/2) leaves the normal range from about a = 316 on; its binary
    exponent then rides in the recurrence's shift."""

    @pytest.mark.parametrize("alpha, n", [(320, 500), (400, 2000), (1000, 40000)])
    def test_closed_form_at_zero(self, alpha, n):
        # F_n(0) = sqrt(2) (G(n+a+1) / G(n+1))^(1/2) / G(a+1), for integer a a product
        ks = range(1, alpha + 1)
        log_want = (0.5 * math.log(2.0) + 0.5 * math.fsum(math.log(n + k) for k in ks)
                    - math.fsum(math.log(k) for k in ks))
        got = laguerre_fn_batch(n, float(alpha), 0.0)[n]
        assert abs(got / math.exp(log_want) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 80.0, 300.0])
    def test_normal_start_unchanged(self, alpha):
        state = next(_damped_rows(3, alpha, np.array([0.0, 1.0])))
        want = math.exp(-0.5 * math.lgamma(alpha + 1.0))
        assert want >= np.finfo(float).tiny
        assert np.array_equal(state.v, [want, want]) and not state.shift.any()


class TestTotalDegreeGrid:
    @pytest.mark.parametrize("shape", [(1,), (5, 7), (3, 4, 5), (2, 2, 2, 2), (3, 0, 2), (0,)])
    def test_matches_index_sum(self, shape):
        got = total_degree_grid(shape)
        want = sum(np.indices(shape, dtype=np.int64))
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_one_read_only_array_per_shape(self):
        got = total_degree_grid((65, 65, 65))
        assert total_degree_grid([65, 65, np.int64(65)]) is got
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0, 0] = 1

    def test_shape_above_budget_is_made_each_call(self, monkeypatch):
        registry = _ArrayCache(1 << 10)
        monkeypatch.setattr(special, "_CACHE", registry)
        small, big = total_degree_grid((4, 4)), total_degree_grid((20, 20))
        assert total_degree_grid((4, 4)) is small
        again = total_degree_grid((20, 20))
        assert again is not big and np.array_equal(again, big) and not again.flags.writeable
        count = registry.info()["degree-grid"]
        assert (count["entries"], count["oversize"]) == (1, 2)


class TestArrayCache:
    def test_lru_order_and_byte_bound(self):
        cache = _ArrayCache(3 * 800)  # three arrays of 100 floats
        made = []

        def make(k):
            made.append(k)
            return np.full(100, float(k)), None

        for k in (0, 1, 2, 0, 3):  # 0 is used again, so 1 is the least recent
            value = cache.get(("lru", k), lambda: make(k))
            assert value[0][0] == k and value[1] is None
        assert made == [0, 1, 2, 3] and len(cache) == 3 and cache.nbytes == 2400
        cache.get(("lru", 1), lambda: make(1))
        assert made[-1] == 1 and cache.get(("lru", 0), lambda: make(0))[0][0] == 0.0
        assert made == [0, 1, 2, 3, 1]  # 2 went to make room for 1, 0 stayed

    def test_entry_bound(self):
        cache = _ArrayCache(1 << 20, max_entries=2)
        for k in range(5):
            cache.get(("k", k), lambda: np.zeros(1))
        assert len(cache) == 2 and cache.nbytes == 16

    def test_value_above_budget_is_returned_not_kept(self):
        cache = _ArrayCache(100)
        first = cache.get(("big",), lambda: (np.zeros(20), (np.ones(3),)))
        assert not first[0].flags.writeable and not first[1][0].flags.writeable
        assert cache.get(("big",), lambda: (np.zeros(20), (np.ones(3),))) is not first
        assert len(cache) == 0 and cache.nbytes == 0

    def test_bytes_count_each_owner_once(self):
        # an array costs the bytes of the array owning its memory, once per owner, and
        # nothing when that owner is already read-only, as a cache or a system holds it
        held = np.zeros(100)
        held.flags.writeable = False
        base = np.zeros(50)
        cache = _ArrayCache(1 << 20)
        cache.get(("own",), lambda: np.zeros(10))
        assert cache.nbytes == 80
        value = cache.get(("views",), lambda: (held, held[:10], base[:5], (base[5:], base),
                                            np.ones(3)))
        assert cache.nbytes == 80 + 400 + 24
        assert not any(a.flags.writeable for a in (value[2], value[3][0], value[3][1]))
        cache.get(("view",), lambda: held[::2])
        assert cache.nbytes == 80 + 400 + 24 and len(cache) == 3

    def test_counts_hits_and_misses(self):
        # a value above the budget is not kept, so every call for it misses
        cache = _ArrayCache(100)
        for key in (("small", 0), ("small", 1), ("small", 0), ("big",), ("big",), ("small", 0)):
            cache.get(key, lambda: np.zeros(20 if key == ("big",) else 1))
        info = cache.info()
        assert [(info[kind]["hits"], info[kind]["misses"]) for kind in ("small", "big")] == [
            (2, 2), (0, 2)]

    def test_oversize_is_counted_per_kind(self):
        # a value above the whole budget is returned, not kept, and counted as oversize
        # under its kind, from get and get_many alike; the other kinds are untouched
        cache = _ArrayCache(100)
        big = cache.get(("big", 0), lambda: np.zeros(20))
        got = cache.get_many([("small", 0), ("big", 1), ("small", 0)], lambda missing: [
            np.zeros(20 if key[0] == "big" else 1) for key in missing])
        assert big.shape == got[1].shape == (20,) and not got[1].flags.writeable
        assert got[0] is got[2] and cache.get(("small", 0), lambda: None) is got[0]
        assert cache.info() == {
            "big": {"hits": 0, "misses": 2, "oversize": 2, "entries": 0, "bytes": 0},
            "small": {"hits": 1, "misses": 1, "oversize": 0, "entries": 1, "bytes": 8}}
        assert len(cache) == 1 and cache.nbytes == 8

    def test_threads_share_one_cache(self):
        # more threads than cores, short switch interval: the byte count and the
        # entries stay consistent and every value matches its key
        cache = _ArrayCache(40 * 8 * 8)
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for k in rng.integers(0, 60, 400):
                    got = cache.get(("k", int(k)), lambda: np.full(8, float(k)))
                    if got[0] != k:
                        errors.append((k, got[0]))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(cache) <= 40 and cache.nbytes == 64 * len(cache)
        count = cache.info()["k"]
        assert count["hits"] + count["misses"] == 8 * 400
        assert (count["entries"], count["bytes"]) == (len(cache), cache.nbytes)


class TestTypes:
    def test_alpha_vector_validation(self):
        with pytest.raises(ValueError):
            AlphaVector(())
        with pytest.raises(ValueError):
            AlphaVector((0.5, -0.1))
        av = AlphaVector((0.0, 2.0))
        assert av.d == 2 and av.total == 2.0

    def test_multi_index_degree(self):
        mi = MultiIndex((3, 0, 4))
        assert mi.degree == 7 and mi.d == 3
        with pytest.raises(ValueError):
            MultiIndex((1, -2))
