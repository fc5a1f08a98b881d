import math

import numpy as np
import pytest

from lagneed.cutoffs import frame_default, make_cutoff, make_dual_pair
from lagneed.kernels import (
    cutoff_weights,
    kernel_decay_profile,
    lambda_deriv,
    lambda_kernel,
    lambda_kernel_profile,
    lambda_star,
    lambda_tilde,
    lower_bound_check,
    _cached_weights,
)
from lagneed.needlets import CoeffFn, analyze, build_system, evaluate_needlet, synthesize
from lagneed.quadrature import cubature_grid
from lagneed.special import laguerre_fn_batch, multivariate_F, _kernel_table
from oracles import cubature_integrate_values, lambda_direct


TYPE_A = make_cutoff("type_a", v=1.0)


class TestLambdaKernel:
    def test_symmetry(self):
        val_xy = lambda_kernel(24, [0.5, 1.0], TYPE_A, [1.0, 0.5], [0.3, 2.0])
        val_yx = lambda_kernel(24, [0.5, 1.0], TYPE_A, [0.3, 2.0], [1.0, 0.5])
        assert val_xy == pytest.approx(val_yx, rel=1e-13)

    def test_truncation_at_cutoff_support(self):
        w = cutoff_weights(TYPE_A, 16)
        assert len(w) == 33
        assert w[16] == 1.0 and w[32] == 0.0

    def test_reproduces_band_limited_functions(self):
        # Lambda_n * g = g for g in V_n when the cut-off is 1 on [0, 1]
        n = 12
        grid = cubature_grid(2, 1, [0.5])  # exactness budget >= (1+v)n + n
        g = CoeffFn.random([0.5], n, seed=5)
        pts = grid.points()
        gv = g.evaluate(pts)
        rng = np.random.default_rng(0)
        probes = rng.uniform(0.1, 5.0, size=100)
        for x in probes:
            kern = lambda_kernel_profile(n, [0.5], TYPE_A, float(x), pts[:, 0])
            recon = cubature_integrate_values(grid, kern * gv)
            direct = g.evaluate(np.array([x]))
            assert abs(recon - direct) / max(abs(direct), 1e-6) < 1e-9

    def test_spectral_coefficients_of_kernel_slice(self):
        # coefficients of x -> Lambda_n(x, y0) are a(m/n) F_nu(y0)
        n, alpha, y0 = 8, 0.0, 1.3
        grid = cubature_grid(2, 1, [alpha])
        pts = grid.points()
        kern = lambda_kernel_profile(n, [alpha], TYPE_A, y0, pts[:, 0])
        M = len(cutoff_weights(TYPE_A, n)) - 1
        table = laguerre_fn_batch(M, alpha, pts[:, 0], "F")
        w = cutoff_weights(TYPE_A, n)
        fy = laguerre_fn_batch(M, alpha, y0, "F")
        for m in range(M + 1):
            coeff = cubature_integrate_values(grid, kern * table[m])
            assert coeff == pytest.approx(w[m] * fy[m], abs=1e-8)

    def test_profile_matches_scalar_calls(self):
        ys = np.array([0.5, 1.5, 3.0])
        prof = lambda_kernel_profile(32, [0.5], TYPE_A, 1.0, ys)
        for y, v in zip(ys, prof):
            assert v == pytest.approx(lambda_kernel(32, [0.5], TYPE_A, 1.0, y), rel=1e-12)

    def test_rejects_zero_n(self):
        # a(m/0) is undefined; level 0 of a needlet system is a separate path
        calls = [lambda n: lambda_kernel(n, [0.5], TYPE_A, [1.0], [0.5]),
                 lambda n: lambda_tilde(n, [0.5], TYPE_A, [1.0], [0.5]),
                 lambda n: lambda_star(n, [0.5], TYPE_A, [1.0], [0.5]),
                 lambda n: lambda_direct(n, [0.5], TYPE_A, [1.0], [0.5], "L"),
                 lambda n: lambda_deriv(n, [0.5], TYPE_A, [1.0], [0.5], 1),
                 lambda n: lambda_kernel_profile(n, [0.5], TYPE_A, 1.0, [0.5])]
        for call in calls:
            for n in (0, -1):
                with pytest.raises(ValueError, match="n must be at least 1"):
                    call(n)


class TestRelatedKernels:
    @pytest.mark.parametrize("alpha", [[0.0], [0.5], [2.0]])
    def test_tilde_matches_direct_summation(self, alpha):
        x, y = [1.44], [0.49]
        rel = lambda_tilde(32, alpha, TYPE_A, x, y)
        direct = lambda_direct(32, alpha, TYPE_A, x, y, "L")
        assert rel == pytest.approx(direct, rel=1e-10)

    def test_tilde_matches_direct_summation_2d(self):
        cases = [([0.5, 1.5], [1.2, 0.8], [0.5, 2.0]),
                 ([0.0, 0.5, 1.0], [1.2, 0.8, 0.3], [0.5, 2.0, 1.1])]
        for alpha, x, y in cases:
            rel = lambda_tilde(16, alpha, TYPE_A, x, y)
            direct = lambda_direct(16, alpha, TYPE_A, x, y, "L")
            assert rel == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("alpha", [[0.0], [0.5], [2.0]])
    def test_star_matches_direct_summation(self, alpha):
        x, y = [1.2], [0.7]
        rel = lambda_star(32, alpha, TYPE_A, x, y)
        direct = lambda_direct(32, alpha, TYPE_A, x, y, "M")
        assert rel == pytest.approx(direct, rel=1e-10)

    def test_star_decay_profile_fits(self):
        # the unweighted variant decays with no weight normalization; check
        # the fitted envelope constant is stable across two sizes
        fits = []
        for n in (64, 256):
            u = np.geomspace(0.25, 12.0, 40)
            seps = u / math.sqrt(n)
            vals = np.array([lambda_star(n, [0.5], TYPE_A, [1.0], [1.0 + s])
                             for s in seps])
            fits.append(np.max(np.abs(vals) / math.sqrt(n) * (1 + u) ** 6))
        assert max(fits) / min(fits) < 2.0

    def test_symmetry(self):
        assert lambda_tilde(16, [0.5], TYPE_A, [1.1], [0.6]) == pytest.approx(
            lambda_tilde(16, [0.5], TYPE_A, [0.6], [1.1]), rel=1e-12)
        assert lambda_star(16, [0.5], TYPE_A, [1.1], [0.6]) == pytest.approx(
            lambda_star(16, [0.5], TYPE_A, [0.6], [1.1]), rel=1e-12)


class TestLambdaDeriv:
    def test_matches_central_difference(self):
        rng = np.random.default_rng(42)
        n = 64
        for alpha in ([0.5, 1.0], [0.0, 0.5, 1.0]):
            for _ in range(10):
                x = rng.uniform(0.3, 3.0, size=len(alpha))
                y = rng.uniform(0.3, 3.0, size=len(alpha))
                for r in range(1, len(alpha) + 1):
                    h = 1e-5
                    xp, xm = x.copy(), x.copy()
                    xp[r - 1] += h
                    xm[r - 1] -= h
                    fd = (lambda_kernel(n, alpha, TYPE_A, xp, y)
                          - lambda_kernel(n, alpha, TYPE_A, xm, y)) / (2 * h)
                    got = lambda_deriv(n, alpha, TYPE_A, x, y, r)
                    assert got == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_antisymmetric_argument_swap(self):
        x, y = [1.2, 0.5], [0.8, 2.0]
        a = lambda_deriv(32, [0.0, 0.5], TYPE_A, x, y, 1)
        b = lambda_deriv(32, [0.0, 0.5], TYPE_A, y, x, 1)
        # derivative in x_r of Lambda(x,y) equals derivative in y_r of
        # Lambda(y,x) by symmetry of the kernel; cross-check via FD in y
        h = 1e-6
        yp = [y[0] + h, y[1]]
        ym = [y[0] - h, y[1]]
        fd = (lambda_kernel(32, [0.0, 0.5], TYPE_A, yp, x)
              - lambda_kernel(32, [0.0, 0.5], TYPE_A, ym, x)) / (2 * h)
        assert b == pytest.approx(fd, rel=1e-4)
        assert a == pytest.approx(
            lambda_deriv(32, [0.0, 0.5], TYPE_A, x, y, 1), rel=1e-14)

    def test_extra_root_n_scaling(self):
        # the derivative envelope carries one extra sqrt(n) factor; the
        # measured exponent of sup|deriv| / sup|kernel| should be near 1/2
        sups = {}
        for n in (64, 256, 1024):
            u = np.geomspace(0.25, 8.0, 25)
            xs = 1.0 + u / math.sqrt(n)
            kern = np.abs(lambda_kernel_profile(n, [0.0], TYPE_A, 1.0, xs))
            der = np.abs([lambda_deriv(n, [0.0], TYPE_A, [x], [1.0], 1) for x in xs])
            sups[n] = der.max() / kern.max()
        expo = math.log(sups[1024] / sups[64]) / math.log(1024 / 64)
        assert 0.3 < expo < 0.7

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_deriv(8, [0.5], TYPE_A, [1.0], [1.0], 2)


class TestBandKernels:
    """The level-j kernels: the degree-0 projector at j = 0, and above it the pair's
    cut-offs at scale 4^(j-1), that is lambda_kernel(4^(j-1), .) of a_hat and b_hat;
    evaluate_needlet is c_xi^(1/2) times the level kernel at (x, xi)."""

    def test_level_zero_is_rank_one(self):
        system = build_system(1, 1, [0.5], make_dual_pair(frame_default()))
        f0x = multivariate_F((0,), [0.5], [1.2])
        for gamma in range(system.grids[0].n_j):
            xi = system.node_point(0, (gamma,))
            want = math.sqrt(system.node_coeff(0, (gamma,))) * f0x * multivariate_F((0,), [0.5], xi)
            phi = evaluate_needlet(system, 0, (gamma,), [1.2])
            assert phi == pytest.approx(want, rel=1e-14)
            assert evaluate_needlet(system, 0, (gamma,), [1.2], "psi") == phi

    def test_far_band_orthogonality(self):
        # cubature of Phi_j(x,.) Psi_j'(., y) vanishes for |j - j'| >= 2
        pair = make_dual_pair(frame_default())
        grid = cubature_grid(3, 1, [0.0])
        pts = grid.points()[:, 0]
        x0, y0 = 1.0, 2.0
        phi1 = np.array([lambda_kernel(1, [0.0], pair.a_hat, [x0], [p]) for p in pts])
        psi3 = np.array([lambda_kernel(16, [0.0], pair.b_hat, [p], [y0]) for p in pts])
        val = cubature_integrate_values(grid, phi1 * psi3)
        assert abs(val) < 1e-10

    def test_band_parseval_identity(self):
        # integral of |Phi_j(x,.)|^2 w equals the diagonal filtered sum
        pair = make_dual_pair(frame_default())
        j, alpha, x0 = 2, 0.5, 1.5
        grid = cubature_grid(j + 1, 1, [alpha])
        pts = grid.points()[:, 0]
        vals = np.array([lambda_kernel(4 ** (j - 1), [alpha], pair.a_hat, [x0], [p])
                         for p in pts])
        lhs = cubature_integrate_values(grid, vals ** 2)
        w = cutoff_weights(pair.a_hat, 4.0 ** (j - 1))
        diag = _kernel_table(len(w) - 1, [alpha], [x0], [x0])
        rhs = math.fsum(w ** 2 * diag)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_tight_pair_gives_equal_kernels(self):
        system = build_system(2, 1, [0.0], make_dual_pair(frame_default(), tight=True))
        for gamma in ((0,), (3,), (7,)):
            assert evaluate_needlet(system, 2, gamma, [0.8]) == evaluate_needlet(
                system, 2, gamma, [0.8], "psi")

    @pytest.mark.parametrize("alpha,x,y", [([0.5], [0.8], [1.9]),
                                           ([0.0, 1.5], [0.8, 1.3], [1.9, 0.4])])
    def test_dual_pair_equals_lambda_kernels(self, alpha, x, y):
        system = build_system(3, len(alpha), alpha, make_dual_pair(frame_default()))
        pair = system.pair
        for j in (1, 2, 3):
            gamma = (2,) * len(alpha)
            xi, c = system.node_point(j, gamma), system.node_coeff(j, gamma)
            for which, cut in (("phi", pair.a_hat), ("psi", pair.b_hat)):
                assert evaluate_needlet(system, j, gamma, x, which) == (
                    math.sqrt(c) * lambda_kernel(4 ** (j - 1), alpha, cut, x, xi))


class TestFilterCache:
    @pytest.mark.parametrize("tight", [False, True], ids=["dual", "tight"])
    def test_repeated_transform_evaluates_no_filter(self, tight):
        base = frame_default()
        calls = []

        def counted(t):
            calls.append(np.size(t))
            return base(t)

        raw = make_cutoff("raw", fn=counted, support=base.support, nonneg=True)
        system = build_system(2, 1, [0.5], make_dual_pair(raw, tight=tight))
        f = CoeffFn.random([0.5], 4, seed=0)
        calls.clear()
        synthesize(system, analyze(system, f))
        assert calls
        calls.clear()
        synthesize(system, analyze(system, f))
        assert calls == []

    def test_cached_weights_are_read_only(self):
        a_hat = frame_default()
        w = _cached_weights(a_hat, 16, 40)
        assert _cached_weights(a_hat, 16, 40) is w
        assert np.array_equal(w, cutoff_weights(a_hat, 16, 40))
        with pytest.raises(ValueError):
            w[20] = 0.0


class TestDiagnostics:
    def test_decay_envelope_dominates_profile(self):
        prof = kernel_decay_profile(128, [0.0], frame_default(), sigma=6.0)
        assert np.all(prof["normalized_value"] <= prof["bound_value"] * (1 + 1e-12))

    def test_decay_profile_rejects_zero_n(self):
        with pytest.raises(ValueError):
            kernel_decay_profile(0, [0.0], frame_default())

    def test_decay_constant_stable(self):
        cs = [kernel_decay_profile(n, [0.0], frame_default(), sigma=6.0)["fitted_c"]
              for n in (64, 256)]
        assert max(cs) / min(cs) < 2.0

    def test_lower_bound_positive_and_stable(self):
        mins = [lower_bound_check(n, [0.0], frame_default(), delta=0.5)["minimum"]
                for n in (64, 256)]
        assert min(mins) > 0.0
        assert max(mins) / min(mins) < 1.5

    def test_lower_bound_quadratic_homogeneity(self):
        base = frame_default()
        doubled = make_cutoff("raw", fn=lambda t: 2.0 * np.asarray(base(t)),
                              support=base.support, name="doubled")
        a = lower_bound_check(64, [0.0], base, delta=0.5, points_per_axis=200)
        b = lower_bound_check(64, [0.0], doubled, delta=0.5, points_per_axis=200)
        assert b["minimum"] == pytest.approx(4.0 * a["minimum"], rel=1e-12)

    def test_lower_bound_2d_consistent_with_tensor_sum(self):
        # the 2-d diagonal sum folded from the degree-filtered block equals
        # the per-axis convolution oracle at sampled points
        rep = lower_bound_check(16, [0.0, 0.5], frame_default(), delta=0.5,
                                points_per_axis=6)
        w2 = cutoff_weights(frame_default(), 16) ** 2
        M = len(w2) - 1
        xs = rep["grid"]
        for i1 in (0, 3):
            for i2 in (1, 4):
                x = [float(xs[i1]), float(xs[i2])]
                diag = _kernel_table(M, [0.0, 0.5], x, x)
                want = math.fsum(w2 * diag)
                from lagneed.quadrature import weight_W
                want *= weight_W(16.0, [0.0, 0.5], x) / 16.0
                assert rep["values"][i1, i2] == pytest.approx(want, rel=1e-10)

    def test_lower_bound_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            lower_bound_check(16, [0.0], frame_default(), delta=5.0)
