import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagneed._jets import jet_mul, jet_rescale_arg
from lagneed.cutoffs import (
    CutoffPair,
    frame_alt,
    frame_default,
    make_cutoff,
    make_dual_pair,
)


class TestMakeCutoff:
    def test_type_a_plateau_and_support(self):
        spec = make_cutoff("type_a", v=1.0)
        assert spec(0.5) == 1.0
        assert spec(2.5) == 0.0
        assert spec(0.0) == 1.0
        assert spec.support == (0.0, 2.0)

    def test_type_b_support(self):
        spec = make_cutoff("type_b", u=0.25, v=3.0)
        assert spec(0.2) == 0.0
        assert spec(4.1) == 0.0
        assert spec(1.0) == 1.0

    def test_default_frame_cutoff_profile(self):
        spec = frame_default()
        assert spec.support == (0.25, 4.0)
        ts = np.linspace(1 / 3, 3.0, 301)
        assert np.min(spec(ts)) > 0.999  # identically 1 on the plateau

    def test_vectorized_evaluation(self):
        spec = frame_default()
        ts = np.array([0.1, 0.3, 1.0, 3.5, 5.0])
        vals = spec(ts)
        assert vals.shape == ts.shape
        assert vals[0] == 0.0 and vals[2] == 1.0 and vals[4] == 0.0

    @pytest.mark.parametrize("factory", [frame_default, frame_alt,
                                         lambda: make_cutoff("type_a", v=2.0)])
    def test_endpoint_flatness_by_finite_differences(self, factory):
        # first 6 derivatives vanish at every support endpoint where the
        # cut-off decays to zero (type_a is flat/plateaued at the left end);
        # the step must be small against the ramp width or interior mass
        # leaks into the stencil
        spec = factory()
        h = 1e-4
        for t0 in spec.support:
            if spec(t0) != 0.0:
                continue
            for order in range(1, 7):
                pts = np.arange(-order, order + 1)
                # FD weights on integer stencil
                A = np.vander(pts, len(pts), increasing=True).T.astype(float)
                rhs = np.zeros(len(pts))
                rhs[order] = math.factorial(order)
                w = np.linalg.solve(A, rhs)
                est = float(np.dot(w, spec(t0 + pts * h))) / h ** order
                assert abs(est) < 1e-9

    def test_jet_matches_finite_differences_interior(self):
        # Richardson-extrapolated central differences; order 3 on the steep
        # ramp still carries noticeable truncation, hence the looser bound
        def fd(spec, t0, order, h):
            pts = np.arange(-3, 4)
            A = np.vander(pts, 7, increasing=True).T.astype(float)
            rhs = np.zeros(7)
            rhs[order] = math.factorial(order)
            w = np.linalg.solve(A, rhs)
            return float(np.dot(w, spec(t0 + pts * h))) / h ** order

        for spec, points in ((frame_default(), (0.30, 0.32, 3.3, 3.8)),
                             (make_cutoff("type_a", v=1.0), (1.1, 1.3, 1.5, 1.8))):
            for t0 in points:
                for order, tol in ((1, 1e-6), (2, 1e-6), (3, 1e-4)):
                    rich = (4.0 * fd(spec, t0, order, 5e-4) - fd(spec, t0, order, 1e-3)) / 3.0
                    assert spec.derivative(t0, order) == pytest.approx(rich, rel=tol, abs=1e-7)

    def test_jet_matches_symbolic_derivatives(self):
        # the closed smooth-step formula is only valid strictly inside a
        # ramp, so compare per point against the locally active factor
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")

        def step(expr):
            a = sympy.exp(-1 / expr)
            b = sympy.exp(-1 / (1 - expr))
            return a / (a + b)

        rising = step((t - sympy.Rational(1, 4)) / sympy.Rational(1, 12))
        falling = 1 - step(t - 3)
        spec = frame_default()
        cases = [(0.3, rising), (3.5, falling)]
        for t0, expr in cases:
            for order in (1, 2, 3, 4):
                exact = float(sympy.diff(expr, t, order).subs(t, sympy.Float(t0, 40)))
                assert spec.derivative(t0, order) == pytest.approx(exact, rel=1e-9, abs=1e-9)
        # plateau: all derivatives vanish identically
        for order in (1, 2, 4):
            assert spec.derivative(1.7, order) == 0.0

    def test_raw_cutoff(self):
        spec = make_cutoff("raw", fn=lambda t: np.where(
            (np.asarray(t) > 1.0) & (np.asarray(t) < 2.0), 1.0, 0.0),
            support=(1.0, 2.0), name="boxcar")
        assert spec(1.5) == 1.0 and spec(2.5) == 0.0
        assert "boxcar" in spec.describe()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_cutoff("type_a", v=0.0)
        with pytest.raises(ValueError):
            make_cutoff("type_b", u=1.5, v=1.0)
        with pytest.raises(ValueError):
            make_cutoff("nonsense")
        # a parameter name the kind does not read
        with pytest.raises(ValueError, match="no parameter uu"):
            make_cutoff("type_b", uu=0.3)
        with pytest.raises(ValueError, match="no parameter u$"):
            make_cutoff("type_a", u=0.3)
        with pytest.raises(ValueError, match="no parameter x"):
            make_cutoff("raw", fn=lambda t: t, support=(0.0, 1.0), x=1.0)

    def test_jet_order_cap(self):
        spec = frame_default()
        with pytest.raises(ValueError):
            spec.jet(1.0, 99)


class TestDualPair:
    def test_partition_of_unity_on_dense_grid(self):
        pair = make_dual_pair(frame_default())
        ts = np.linspace(1.0, 300.0, 7001)
        assert pair.partition_residual(ts) < 1e-12

    def test_partition_identity_at_unit_argument(self):
        pair = make_dual_pair(frame_default())
        val = (np.conj(pair.a_hat(1.0)) * pair.b_hat(1.0)
               + np.conj(pair.a_hat(4.0)) * pair.b_hat(4.0))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_below_dilated_supports_not_asserted(self):
        pair = make_dual_pair(frame_default())
        # 0.1 < 1/4: outside every [1/4,4] dilate relevant to t >= 1
        assert pair.b_hat(0.1) == 0.0

    def test_tight_pair_is_self_dual_and_nonneg(self):
        pair = make_dual_pair(frame_default(), tight=True)
        assert pair.tight
        ts = np.linspace(0.2, 4.5, 800)
        assert np.allclose(pair.a_hat(ts), pair.b_hat(ts))
        assert np.min(pair.a_hat(ts)) >= 0.0
        # squared partition of unity
        ok = np.linspace(1.0, 64.0, 2001)
        acc = np.zeros_like(ok)
        for m in range(12):
            acc += pair.a_hat(ok / 4.0 ** m) ** 2
        assert np.max(np.abs(acc - 1.0)) < 1e-12

    def test_tight_input_recognized_as_self_dual(self):
        tight = make_dual_pair(frame_default(), tight=True)
        again = make_dual_pair(tight.a_hat)
        assert again.tight
        ts = np.linspace(0.25, 4.0, 400)
        assert np.allclose(again.b_hat(ts), tight.a_hat(ts))

    @pytest.mark.parametrize("factory", [frame_default, frame_alt])
    @pytest.mark.parametrize("tight", [False, True])
    def test_companion_jets_keep_partition_identity(self, factory, tight):
        # sum_m conj(a) b at 4^-m t is 1 on [1, inf), so its jet is [1, 0, ..., 0];
        # the companion's jets come from the dilation-sum jet (and its root)
        pair = make_dual_pair(factory(), tight=tight)
        assert pair.b_hat.kind == ("tight_of_" if tight else "dual_of_") + "type_b"
        want = np.eye(9)[0]
        for t in np.linspace(1.0, 300.0, 41)[1:]:
            acc = np.zeros(9)
            for m in range(12):
                s = 4.0 ** -m
                acc += jet_rescale_arg(jet_mul(np.conj(pair.a_hat.jet(s * t, 8)),
                                               pair.b_hat.jet(s * t, 8)), s)
            assert np.max(np.abs(acc - want)) < 1e-8

    def test_alt_cutoff_is_frame_grade(self):
        pair = make_dual_pair(frame_alt())
        ts = np.linspace(1.0, 200.0, 5001)
        assert pair.partition_residual(ts) < 1e-12

    def test_rejects_support_outside_window(self):
        with pytest.raises(ValueError):
            make_dual_pair(make_cutoff("type_a", v=1.0))

    def test_rejects_vanishing_on_core_interval(self):
        narrow = make_cutoff("raw", fn=lambda t: np.where(
            (np.asarray(t) > 0.25) & (np.asarray(t) < 0.9),
            np.exp(-1.0 / np.maximum(np.asarray(t) - 0.25, 1e-12)), 0.0),
            support=(0.25, 0.9), name="narrow")
        with pytest.raises(ValueError):
            make_dual_pair(narrow)

    def test_tight_requires_nonnegative(self):
        signed = make_cutoff("raw", fn=lambda t: np.where(
            (np.asarray(t) > 0.25) & (np.asarray(t) < 4.0),
            np.sin(np.asarray(t)), 0.0), support=(0.25, 4.0), name="signed")
        with pytest.raises(ValueError):
            make_dual_pair(signed, tight=True)

    @given(st.floats(1.0, 1e4))
    @settings(max_examples=50, deadline=None)
    def test_partition_residual_any_t(self, t):
        pair = make_dual_pair(frame_default())
        assert pair.partition_residual([t]) < 1e-12

    def test_describe_is_deterministic(self):
        a = make_dual_pair(frame_default()).describe()
        b = make_dual_pair(frame_default()).describe()
        assert a == b and "dual" in a

    def test_pair_dataclass_fields(self):
        spec = frame_default()
        pair = CutoffPair(spec, spec, tight=False)
        assert pair.a_hat is spec and not pair.tight
