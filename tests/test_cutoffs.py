import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("factory", [
        frame_default, frame_alt, lambda: make_cutoff("type_a", v=2.0),
        *(pytest.param(lambda base=base, tight=tight: make_dual_pair(base(), tight=tight).b_hat,
                       id=("tight_of_" if tight else "dual_of_") + base.__name__)
          for base in (frame_default, frame_alt) for tight in (False, True))])
    def test_endpoint_flatness_by_finite_differences(self, factory):
        # first 6 derivatives vanish at every support endpoint where the
        # cut-off decays to zero (type_a is flat/plateaued at the left end),
        # the dual and tight companions a / D and a / sqrt(D) included;
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

    def test_alt_cutoff_is_frame_grade(self):
        ts = np.linspace(1.0, 200.0, 5001)
        for tight in (False, True):
            pair = make_dual_pair(frame_alt(), tight=tight)
            assert pair.b_hat.kind == ("tight_of_" if tight else "dual_of_") + "type_b"
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
