import dataclasses
import gc
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lagneed import needlets, quadrature, special
from lagneed.cutoffs import CutoffPair, frame_default, make_cutoff, make_dual_pair
from lagneed.needlets import (
    CoeffFn,
    NeedletCoeffs,
    analyze,
    build_system,
    evaluate_needlet,
    frame_bounds,
    synthesize,
    total_degree_grid,
)
from lagneed.kernels import _filter_band, _filter_degrees, _level_scale, cutoff_weights
from lagneed.quadrature import cubature_grid, level_node_count
from lagneed.spaces import NormParams, b_norm_seq, f_norm_seq
from lagneed.special import _ArrayCache, _arrays, _flush_subnormal, _fold
from oracles import (cubature_integrate_values, dense_levels, ldexp_view, per_call_analyze,
                     per_call_synthesize, single_rule, untrimmed_tables)

DUAL = make_dual_pair(frame_default())
TIGHT = make_dual_pair(frame_default(), tight=True)


def small_system(J=2, d=1, alpha=(0.5,), pair=DUAL):
    return build_system(J, d, list(alpha), pair)


class TestCoeffFn:
    def test_norm_is_coefficient_l2(self):
        f = CoeffFn.random([0.5], 6, seed=0, normalized=False)
        assert f.norm2() == pytest.approx(np.linalg.norm(f.coeffs.ravel()))

    def test_rejects_out_of_band_entries(self):
        arr = np.zeros((3, 3), dtype=complex)
        arr[2, 2] = 1.0  # total degree 4 > 2
        with pytest.raises(ValueError):
            CoeffFn([0.0, 0.0], 2, arr)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            CoeffFn([0.0], 3, np.zeros(3, dtype=complex))

    def test_json_round_trip(self):
        f = CoeffFn.random([0.0, 1.0], 3, seed=1, complex_valued=True)
        g = CoeffFn.from_json_dict(f.to_json_dict())
        assert g.max_degree == f.max_degree
        assert np.allclose(g.coeffs, f.coeffs)

    def test_evaluate_matches_basis_sum(self):
        from lagneed.special import multivariate_F
        f = CoeffFn.random([0.5, 0.0], 3, seed=2)
        pt = np.array([0.7, 1.9])
        want = 0.0
        for nu1 in range(4):
            for nu2 in range(4 - nu1):
                want += f.coeffs[nu1, nu2].real * multivariate_F(
                    (nu1, nu2), [0.5, 0.0], pt)
        assert f.evaluate(pt) == pytest.approx(want, rel=1e-12)

    def test_linear_ops(self):
        f = CoeffFn.random([0.0], 4, seed=3)
        g = CoeffFn.random([0.0], 4, seed=4)
        h = 2.0 * f + g
        assert np.allclose(h.coeffs, 2.0 * f.coeffs + g.coeffs)

    def test_evaluate_three_dimensional(self):
        from lagneed.special import multivariate_F
        alpha = [0.0, 0.5, 1.0]
        f = CoeffFn.random(alpha, 2, seed=8)
        pt = np.array([0.5, 1.1, 0.9])
        want = 0.0
        for nu in np.ndindex(3, 3, 3):
            if sum(nu) <= 2:
                want += f.coeffs[nu].real * multivariate_F(nu, alpha, pt)
        assert f.evaluate(pt) == pytest.approx(want, rel=1e-12)


class TestBuildSystem:
    def test_level_zero_system(self):
        system = small_system(J=0)
        assert len(system.grids) == 1
        assert system.grids[0].n_j == level_node_count(0)

    def test_node_counts_match_formula(self):
        system = small_system(J=3)
        for j, grid in enumerate(system.grids):
            assert grid.n_j == level_node_count(j, system.delta, system.c_star)
            assert grid.point_count == grid.n_j ** system.d

    def test_hash_deterministic_across_builds(self):
        a = small_system(J=2)
        b = build_system(2, 1, [0.5], make_dual_pair(frame_default()))
        assert a.hash == b.hash

    def test_hash_sensitive_to_config(self):
        a = small_system(J=2)
        b = small_system(J=2, alpha=(0.0,))
        assert a.hash != b.hash

    def test_named_cut_off_hashes_are_stable(self):
        # a named cut-off is hashed by its description alone, as it always was, so the
        # hashes stored in coefficient files stay valid
        assert small_system(J=2).hash == (
            "0ae06781b4d245941882698b0438dc72031fd6049e9490727baa144a5659c794")
        assert small_system(J=3, d=2, alpha=(0.5, 0.5), pair=TIGHT).hash == (
            "56d462dbb2cae723aa733cfb2af63e0e37258449952fd146a898603697939c53")

    def test_table_cap_refuses(self, monkeypatch):
        monkeypatch.setattr(needlets, "TABLE_BYTES_CAP", 1000)
        with pytest.raises(ResourceWarning, match="above the cap"):
            small_system(J=2)

    def test_table_cap_refuses_before_any_rule(self, monkeypatch, registry):
        # J = 9: n_9 = 854019 nodes; refused from the node counts, no rule built
        # (a grid asked for fails at once rather than spend hours on the rules)
        monkeypatch.setattr(needlets, "cubature_grid",
                            lambda *args: pytest.fail("a grid was built before the cap check"))
        pair = make_dual_pair(frame_default(), tight=True)
        need = sum(level_node_count(j) * (math.floor(4.0 * _level_scale(j)) + 1) * 8
                   for j in range(10))
        passes = quadrature._passes
        with pytest.raises(ResourceWarning) as exc:
            build_system(9, 1, [0.5], pair)
        assert str(exc.value) == f"node tables would need {need} bytes, above the cap"
        assert "rule" not in registry.info() and quadrature._passes == passes

    @pytest.mark.parametrize("alpha", [(0.5, 0.5), (0.5, 1.0)])
    def test_table_cap_counts_one_table_per_alpha(self, monkeypatch, registry, alpha):
        # axes of one alpha share a level's table, so an isotropic d = 2 system needs
        # half the bytes of two tables per level: it builds at exactly that cap and is
        # refused one byte below it, before any rule
        tables = len(set(alpha))
        need = sum(tables * level_node_count(j) * (math.floor(4.0 * _level_scale(j)) + 1) * 8
                   for j in range(3))
        monkeypatch.setattr(needlets, "TABLE_BYTES_CAP", need)
        system = build_system(2, 2, list(alpha), DUAL)
        distinct = {id(t): t for tabs in system.tables for t in tabs}
        assert sum(t.nbytes for t in distinct.values()) == need
        monkeypatch.setattr(needlets, "TABLE_BYTES_CAP", need - 1)
        misses = registry.info()["rule"]["misses"]
        with pytest.raises(ResourceWarning, match=f"would need {need} bytes"):
            build_system(2, 2, list(alpha), DUAL)
        assert registry.info()["rule"]["misses"] == misses

    def test_alpha_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_system(1, 2, [0.5], DUAL)

    def test_tables_are_read_only(self):
        system = build_system(2, 1, [0.5], DUAL)
        with pytest.raises(ValueError):
            system.tables[1][0][0] = 99.0

    def test_tables_hold_weighted_atoms(self):
        # rows c_k^(1/2) F_m(xi_k), bit for bit down to the Frobenius floor
        # 2^-56 / sqrt(size) and 0 below it, so the trimmed part of a table has
        # Frobenius norm <= 2^-56; the cubature's orthonormality is t @ t.T = I
        for J, alpha, pair in ((5, [0.5], TIGHT), (3, [0.0, 0.5, 1.0], DUAL), (4, [50.0], DUAL),
                               (2, [0.0, 1.5], DUAL)):
            system = build_system(J, len(alpha), alpha, pair)
            for j in range(J + 1):
                for t, raw in zip(system.tables[j], untrimmed_tables(system, j)):
                    floor = max(np.finfo(float).tiny, 2.0 ** -56 / math.sqrt(raw.size))
                    kept = np.abs(raw) >= floor
                    assert np.array_equal(t[kept], raw[kept]) and not t[~kept].any()
                    assert np.linalg.norm(t - raw) <= 2.0 ** -56
                    assert np.allclose(t @ t.T, np.eye(len(t)), rtol=0.0, atol=1e-10)


    @pytest.mark.parametrize("J, alpha, pair", [
        (5, (0.5,), TIGHT), (3, (0.0, 0.5, 1.0), DUAL), (3, (0.5, 0.5), TIGHT), (3, (0.5,), TIGHT),
        (3, (1.0, 1.0, 1.0), DUAL), (2, (0.5, 2.0, 0.5), TIGHT), (4, (50.0, 80.0), DUAL)])
    def test_tables_match_per_axis_passes(self, J, alpha, pair):
        # each level's tables come from one pass over its distinct alphas: bit for bit
        # the per-axis laguerre_fn_batch times c^(1/2), trimmed, with the _reach of a
        # row-by-row scan; axes of one alpha share one read-only table and vector
        system = build_system(J, len(alpha), list(alpha), pair)
        for j in range(J + 1):
            for ax, (tab, reach, raw) in enumerate(zip(system.tables[j], system._reach[j],
                                                       untrimmed_tables(system, j))):
                want = _flush_subnormal(raw, 2.0 ** -56 / math.sqrt(raw.size))
                assert np.array_equal(tab.view(np.int64), want.view(np.int64))
                last = [np.flatnonzero(want[m]) for m in range(len(want))]
                want_reach = np.maximum.accumulate([k[-1] + 1 if k.size else 0 for k in last])
                assert np.array_equal(reach, want_reach)
                assert not tab.flags.writeable and not reach.flags.writeable
                same = alpha.index(alpha[ax])
                assert tab is system.tables[j][same] and reach is system._reach[j][same]
            assert len({id(t) for t in system.tables[j]}) == len(set(alpha))


class TestEvaluateNeedlet:
    def test_norm_bounded_and_positive(self):
        system = small_system(J=2)
        grid = cubature_grid(3, 1, [0.5])
        pts = grid.points()
        for j, gamma in [(0, (1,)), (1, (3,)), (2, (10,))]:
            vals = np.array([evaluate_needlet(system, j, gamma, p, "phi") for p in pts])
            norm_sq = cubature_integrate_values(grid, vals ** 2)
            assert 1e-6 < norm_sq < 100.0

    def test_localization_around_center(self):
        system = small_system(J=2)
        xi = system.node_point(2, (6,))
        near = evaluate_needlet(system, 2, (6,), xi, "phi")
        far = evaluate_needlet(system, 2, (6,), xi + 3.0, "phi")
        assert abs(near) > 50.0 * abs(far)

    def test_localization_envelope_fit_stable_across_levels(self):
        # |phi_xi(x)| sqrt(W(4^j;x)) / 2^(jd/2) against (1 + 2^j|x-xi|)^-6:
        # the fitted envelope constant stays comparable between levels
        from lagneed.quadrature import weight_W
        system = small_system(J=3)
        fits = {}
        for j, gamma in [(2, (6,)), (3, (25,))]:
            xi = system.node_point(j, gamma)
            u = np.geomspace(0.25, 12.0, 30)
            xs = xi[0] + u / 2.0 ** j
            vals = np.array([evaluate_needlet(system, j, (g,), np.array([x]), "phi")
                             for g, x in zip([gamma[0]] * len(xs), xs)])
            w = weight_W(4.0 ** j, system.alpha, xs.reshape(-1, 1))
            normalized = np.abs(vals) * np.sqrt(w) / 2.0 ** (j / 2.0)
            fits[j] = float(np.max(normalized * (1.0 + u) ** 6))
        assert max(fits.values()) / min(fits.values()) < 4.0

    def test_tight_mode_phi_equals_psi(self):
        system = small_system(J=1, pair=TIGHT)
        x = np.array([1.1])
        assert evaluate_needlet(system, 1, (2,), x, "phi") == pytest.approx(
            evaluate_needlet(system, 1, (2,), x, "psi"))

    def test_unknown_node_rejected(self):
        system = small_system(J=1)
        with pytest.raises(IndexError):
            evaluate_needlet(system, 1, (10 ** 6,), np.array([1.0]))
        with pytest.raises(ValueError):
            evaluate_needlet(system, 1, (0,), np.array([1.0]), "chi")


class TestAnalyze:
    def test_zero_function_gives_zero(self):
        system = small_system(J=2)
        f = CoeffFn([0.5], 4, np.zeros(5, dtype=complex))
        coeffs = analyze(system, f)
        assert coeffs.total_energy() == 0.0

    def test_band_support(self):
        # a pure degree-m function only hits levels with a(m/4^(j-1)) != 0
        system = small_system(J=3)
        m = 4
        arr = np.zeros(m + 1, dtype=complex)
        arr[m] = 1.0
        f = CoeffFn([0.5], m, arr)
        coeffs = analyze(system, f)
        for j in range(system.J + 1):
            active = j >= 1 and 4.0 ** (j - 2) < m < 4.0 ** j
            energy = float(np.sum(np.abs(coeffs.levels[j]) ** 2))
            if active:
                assert energy > 1e-8
            else:
                assert energy < 1e-24

    def test_linearity(self):
        system = small_system(J=2)
        f = CoeffFn.random([0.5], 4, seed=10)
        g = CoeffFn.random([0.5], 4, seed=11)
        lhs = analyze(system, 2.0 * f + (-0.5) * g)
        rhs = analyze(system, f).scale(2.0).add(analyze(system, g).scale(-0.5))
        for a, b in zip(lhs.levels, rhs.levels):
            assert np.allclose(a, b, atol=1e-14)

    def test_levels_are_read_only_and_frozen(self):
        # the boxes end where the levels' nonzero part ends, so neither may change after
        # analyze, nor may the dense levels built from them
        system = small_system(J=2)
        coeffs = analyze(system, CoeffFn.random([0.5], 4, seed=0))
        assert all(not a.flags.writeable for a in coeffs._boxes + coeffs.levels)
        with pytest.raises(ValueError, match="read-only"):
            coeffs.levels[1][0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            coeffs.levels[2][50] = 1.0  # past the box (45 of 53 nodes)
        with pytest.raises(dataclasses.FrozenInstanceError):
            coeffs.levels = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            coeffs._boxes = ()

    def test_hand_built_coeffs_keep_the_callers_arrays(self):
        # each array given is the whole box of its level, as given and writable
        system = small_system(J=2)
        levels = tuple(np.zeros((g.n_j,)) for g in system.grids)
        coeffs = NeedletCoeffs(levels, system.hash)
        assert coeffs._boxes is levels
        assert all(lv is mine and lv.flags.writeable for lv, mine in zip(coeffs.levels, levels))
        levels[1][2] = 1.0  # the caller's write shows in the coefficients
        assert coeffs.total_energy() == 1.0
        # analyze cuts level 2 to 45 of 53 nodes; scale keeps that box, while the
        # same levels handed back in are whole boxes again
        analyzed = analyze(system, CoeffFn.random([0.5], 4, seed=0))
        assert [b.shape for b in analyzed._boxes] == [(4,), (14,), (45,)]
        assert [b.shape for b in analyzed.scale(2.0)._boxes] == [(4,), (14,), (45,)]
        rebuilt = NeedletCoeffs(analyzed.levels, analyzed.system_hash)
        assert all(b is lv for b, lv in zip(rebuilt._boxes, analyzed.levels))
        assert rebuilt._boxes[2].shape == (53,)

    def test_degree_overflow_rejected(self):
        system = small_system(J=1)
        f = CoeffFn.random([0.5], 4 ** 1 + 1, seed=0)
        with pytest.raises(ValueError):
            analyze(system, f)

    def test_alpha_mismatch_rejected(self):
        system = small_system(J=1)
        f = CoeffFn.random([0.0], 2, seed=0)
        with pytest.raises(ValueError):
            analyze(system, f)

    def test_tight_parseval(self):
        system = small_system(J=3, pair=TIGHT)
        for seed in range(6):
            f = CoeffFn.random([0.5], 16, seed=seed)
            coeffs = analyze(system, f)
            assert coeffs.total_energy() == pytest.approx(f.norm2() ** 2, rel=1e-10)

    def test_matches_numerical_integration(self):
        # dual route: <f, phi_xi> by cubature against a pointwise needlet
        # evaluation must equal the coefficient-space value
        system = small_system(J=2)
        f = CoeffFn.random([0.5], 4, seed=17)
        coeffs = analyze(system, f)
        grid = cubature_grid(3, 1, [0.5])
        pts = grid.points()
        fv = f.evaluate(pts)
        for j, gamma in [(0, (2,)), (1, (5,)), (2, (20,))]:
            phi = np.array([evaluate_needlet(system, j, gamma, p, "phi") for p in pts])
            want = cubature_integrate_values(grid, fv * np.conj(phi))
            got = coeffs.levels[j][gamma]
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestSynthesize:
    def test_zero_coefficients_give_zero(self):
        system = small_system(J=1)
        coeffs = analyze(system, CoeffFn([0.5], 1, np.zeros(2, dtype=complex)))
        g = synthesize(system, coeffs)
        assert g.norm2() == 0.0

    def test_single_coefficient_matches_needlet_evaluation(self):
        system = small_system(J=2)
        j, gamma = 2, (7,)
        levels = [np.zeros((g.n_j,) * system.d, dtype=complex) for g in system.grids]
        levels[j][gamma] = 1.0
        coeffs = NeedletCoeffs(tuple(levels), system.hash)
        g = synthesize(system, coeffs)
        rng = np.random.default_rng(1)
        for x in rng.uniform(0.1, 6.0, size=20):
            want = evaluate_needlet(system, j, gamma, np.array([x]), "psi")
            got = g.evaluate(np.array([x]))
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_output_vanishes_above_max_degree(self):
        # a b_hat supported past 4 fills degrees above 4^J inside the top
        # level's box, and synthesize must zero them as CoeffFn requires
        pair = CutoffPair(frame_default(), make_cutoff("type_b", u=0.25, v=4.0))
        system = small_system(J=2, d=2, alpha=(0.5, 0.5), pair=pair)
        rng = np.random.default_rng(0)
        coeffs = NeedletCoeffs(tuple(rng.standard_normal((g.n_j,) * 2) for g in system.grids),
                               system.hash)
        g = synthesize(system, coeffs)
        assert not g.coeffs[total_degree_grid(g.coeffs.shape) > g.max_degree].any()
        assert g.coeffs.any()

    def test_provenance_mismatch_rejected(self):
        sys_a = small_system(J=1)
        sys_b = small_system(J=1, alpha=(0.0,))
        coeffs = analyze(sys_a, CoeffFn.random([0.5], 2, seed=0))
        with pytest.raises(ValueError):
            synthesize(sys_b, coeffs)

    @pytest.mark.parametrize("op", ["synthesize", "f_norm_seq", "b_norm_seq"])
    @pytest.mark.parametrize("change", ["grown", "cut", "extra axis"])
    def test_wrong_level_shape_rejected(self, op, change):
        # the right hash and level count, but level 2 (53 nodes) of the wrong shape:
        # grown, its extra entries would be dropped; cut or with an extra axis, it
        # would fail deep in numpy
        system = small_system(J=2, pair=TIGHT)
        levels = list(analyze(system, CoeffFn.random([0.5], 4, seed=0)).levels)
        assert levels[2].shape == (53,)
        levels[2] = {"grown": np.concatenate([levels[2], np.full(7, 5.0)]),
                     "cut": levels[2][:10], "extra axis": levels[2][:, None]}[change]
        coeffs = NeedletCoeffs(tuple(levels), system.hash)
        run = {"synthesize": lambda: synthesize(system, coeffs),
               "f_norm_seq": lambda: f_norm_seq(coeffs, NormParams(0.5, 0.5, 2.0, 2.0), system),
               "b_norm_seq": lambda: b_norm_seq(coeffs, NormParams(0.5, 0.5, 2.0, 2.0), system)}
        with pytest.raises(ValueError, match=r"level 2 has shape"):
            run[op]()


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTransformMemory:
    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_evaluate_casts_no_table_to_complex(self, complex_valued):
        f = CoeffFn.random([0.5], 256, seed=1, complex_valued=complex_valued)
        pts = np.linspace(0.0, 30.0, 20000).reshape(-1, 1)
        table_bytes = 257 * 20000 * 8
        assert traced_peak(f.evaluate, pts) < 1.5 * table_bytes

    def test_synthesize_casts_no_table_to_complex(self):
        system = build_system(4, 1, [0.5], DUAL)
        coeffs = analyze(system, CoeffFn.random([0.5], 64, seed=1, complex_valued=True))
        top = system.tables[4][0]
        assert top.shape == (257, 835)
        assert traced_peak(synthesize, system, coeffs) < top.size * 16 / 10

    def test_analyze_allocates_no_weight_tensor(self):
        alpha = [0.0, 0.5, 1.0]
        system = build_system(2, 3, alpha, DUAL)
        f = CoeffFn.random(alpha, 4, seed=2, complex_valued=True)
        top_bytes = system.grids[2].point_count * 16
        assert traced_peak(analyze, system, f) < 1.3 * top_bytes

    def test_real_analyze_peaks_near_its_output(self):
        # the subnormal flush works in fixed chunks, with no temporary of a level's size,
        # and each level is folded straight into its box (728^2 of 835^2 at J = 4), which
        # analyze keeps: the output is the boxes, not the dense levels
        for J, degree in ((3, 16), (4, 64)):
            system = build_system(J, 2, [0.5, 0.5], TIGHT)
            f = CoeffFn.random([0.5, 0.5], degree, seed=3)
            out_bytes = sum(box.nbytes for box in analyze(system, f)._boxes)
            assert traced_peak(analyze, system, f) < 1.3 * out_bytes

    def test_wide_3d_analyze_peaks_near_its_boxes(self):
        # J = 3, d = 3 dual, degree 16: about 16 MB of boxes, where the dense level 3
        # alone would be 209^3 * 8 bytes = 73 MB
        system = build_system(3, 3, [0.0, 0.5, 1.0], DUAL)
        f = CoeffFn.random(system.alpha, 16, seed=3)
        box_bytes = sum(box.nbytes for box in analyze(system, f)._boxes)
        assert box_bytes < 20 << 20
        assert traced_peak(analyze, system, f) < 1.3 * box_bytes

    def test_wide_3d_synthesize_peaks_near_its_first_fold(self):
        # J = 3, d = 3 dual, degree 16: level 3's first axis is folded once into 64 rows
        # by 123^2 nodes (7.4 MB), and the later axes only on the simplex, in blocks; the
        # output is 65^3 doubles (2.1 MB).  A fold of the whole cube peaked at 13.4 MB.
        system = build_system(3, 3, [0.0, 0.5, 1.0], DUAL)
        coeffs = analyze(system, CoeffFn.random(system.alpha, 16, seed=3))
        first_bytes, out_bytes = 64 * 123 ** 2 * 8, 65 ** 3 * 8
        assert coeffs._boxes[3].shape == (123,) * 3
        assert traced_peak(synthesize, system, coeffs) < 1.25 * (first_bytes + out_bytes)

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_total_energy_is_the_sum_of_squares(self, complex_valued):
        system = build_system(3, 2, [0.5, 1.0], DUAL)
        f = CoeffFn.random(system.alpha, 16, seed=5, complex_valued=complex_valued)
        coeffs = analyze(system, f)
        want = sum(float(np.sum(np.abs(lv) ** 2)) for lv in coeffs.levels)
        assert coeffs.total_energy() == pytest.approx(want, rel=1e-13)

    def test_total_energy_allocates_no_level(self):
        system = build_system(3, 3, [0.0, 0.5, 1.0], TIGHT)
        coeffs = analyze(system, CoeffFn.random(system.alpha, 16, seed=4))
        assert max(lv.nbytes for lv in coeffs.levels) > 10 << 20
        assert traced_peak(coeffs.total_energy) < 1 << 20


def same_bits(a, b, signed_zeros=True):
    """a and b agree bit for bit; with signed_zeros=False, -0.0 and 0.0 count as equal."""
    if not signed_zeros:
        a, b = a + 0.0, b + 0.0
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64),
                                                                         b.view(np.int64))


class TestBoxArithmetic:
    """scale and add work on the boxes and equal the dense products and sums."""

    @pytest.fixture(scope="class")
    def operands(self):
        # degrees 3 and 16 give different boxes at levels 2 (44^2 and 52^2) and 3
        # (empty and 123^2); the hand-built operand is dense with random levels
        system = build_system(3, 2, [0.5, 1.0], DUAL)
        rng = np.random.default_rng(7)
        hand = NeedletCoeffs(tuple(rng.standard_normal((g.n_j,) * 2) for g in system.grids),
                             system.hash)
        return system, {
            "low": analyze(system, CoeffFn.random(system.alpha, 3, seed=1)),
            "high": analyze(system, CoeffFn.random(system.alpha, 16, seed=2)),
            "complex": analyze(system, CoeffFn.random(system.alpha, 4, seed=3,
                                                      complex_valued=True)),
            "hand": hand,
            # far from unit scale, so each carries its own power of two
            "up": analyze(system, CoeffFn.random(system.alpha, 16, seed=5) * 2.0 ** 40),
            "down": analyze(system, CoeffFn.random(system.alpha, 8, seed=6,
                                                   complex_valued=True) * 2.0 ** -30)}

    def test_operands_have_different_boxes(self, operands):
        _, ops = operands
        shapes = {name: [b.shape for b in c._boxes] for name, c in ops.items()}
        assert shapes["low"][2:] == [(44, 44), (0, 0)]
        assert shapes["high"][2:] == [(52, 52), (123, 123)]
        assert shapes["hand"][2:] == [(53, 53), (209, 209)]
        exps = {name: c._exp for name, c in ops.items()}
        assert exps["hand"] == 0 and exps["up"] > 30 and exps["down"] < -30

    @pytest.mark.parametrize("factor", [2.0, 0.3, 1.5 + 0.25j, -0.75])
    def test_scale(self, operands, factor):
        # the box contract keeps +0.0 beyond a box, where a dense product with a
        # negative factor has -0.0: those compare as equal values
        _, ops = operands
        for c in ops.values():
            # |factor| = m 2^e, 1 <= m < 2, moves the exponent by e
            assert c.scale(factor)._exp == c._exp + math.frexp(abs(factor))[1] - 1
            for got, lv in zip(c.scale(factor).levels, c.levels):
                assert same_bits(got, lv * factor, signed_zeros=factor.real > 0)

    def test_scale_by_a_power_of_two_keeps_the_boxes(self, operands):
        # the boxes stay at unit scale, so the synthesis folds no subnormal value
        system, ops = operands
        for c in ops.values():
            tiny = c.scale(2.0 ** -1000)
            assert tiny._exp == c._exp - 1000
            assert all(same_bits(a, b) for a, b in zip(tiny._boxes, c._boxes))
            want = synthesize(system, c).coeffs.copy()
            want.real = np.ldexp(want.real, -1000)
            if np.iscomplexobj(want):
                want.imag = np.ldexp(want.imag, -1000)
            assert same_bits(synthesize(system, tiny).coeffs, want)

    @pytest.mark.parametrize("pair", [("low", "high"), ("high", "low"), ("low", "hand"),
                                      ("hand", "high"), ("complex", "high"), ("hand", "hand"),
                                      ("up", "high"), ("down", "up"), ("hand", "down"),
                                      ("down", "complex")])
    def test_add(self, operands, pair):
        # operands of different exponents are added at the larger one
        _, ops = operands
        a, b = (ops[name] for name in pair)
        total = a.add(b)
        assert total._exp == max(a._exp, b._exp)
        for j, (got, x, y) in enumerate(zip(total.levels, a.levels, b.levels)):
            assert same_bits(got, x + y)
            want = tuple(map(max, a._boxes[j].shape, b._boxes[j].shape))
            assert total._boxes[j].shape == want

    def test_add_refuses_another_system(self, operands):
        _, ops = operands
        other = build_system(3, 2, [0.5, 1.0], TIGHT)
        with pytest.raises(ValueError, match="different systems"):
            ops["low"].add(analyze(other, CoeffFn.random(other.alpha, 3, seed=1)))


class TestThreadSharing:
    """One system's read-only tables serve concurrent transforms unchanged."""

    def test_round_trips_across_threads(self):
        system = build_system(3, 2, [0.5, 0.5], DUAL)
        arrays = [a for tabs in system.tables for a in tabs]
        arrays += [a for reach in system._reach for a in reach]
        assert all(not a.flags.writeable for a in arrays)
        fns = [CoeffFn.random([0.5, 0.5], system.exact_degree(), seed=seed,
                              complex_valued=seed % 2 == 1) for seed in range(16)]

        def round_trip(f):
            coeffs = analyze(system, f)
            return coeffs.levels, synthesize(system, coeffs).coeffs

        serial = [round_trip(f) for f in fns]
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(round_trip, fns))
        for (levels, out), (want_levels, want_out) in zip(threaded, serial):
            assert np.array_equal(out.view(np.int64), want_out.view(np.int64))
            assert all(np.array_equal(lv.view(np.int64), want.view(np.int64))
                       for lv, want in zip(levels, want_levels))


    def test_threads_build_plans_from_an_empty_cache(self, monkeypatch):
        # four threads start together on an empty plan cache, each running every round
        # trip in its own order, so they race to build the same plans: the README's
        # "shared freely, also across threads"
        system = build_system(3, 2, [0.5, 0.5], DUAL)
        fns = [CoeffFn.random(system.alpha, degree, seed=seed, complex_valued=seed % 2 == 1)
               for seed, degree in enumerate((3, 16, 64, 16, 3, 64))]

        def round_trip(f):
            coeffs = analyze(system, f)
            return coeffs._boxes, synthesize(system, coeffs).coeffs

        serial = [round_trip(f) for f in fns]
        registry = _ArrayCache()
        monkeypatch.setattr(special, "_CACHE", registry)
        start = threading.Barrier(4)

        def worker(shift):
            start.wait(timeout=60)
            order = [(k + shift) % len(fns) for k in range(len(fns))]
            return {k: round_trip(fns[k]) for k in order}

        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(worker, range(4)))
        for result in results:
            for k, (boxes, out) in result.items():
                want_boxes, want_out = serial[k]
                assert same_bits(out, want_out)
                assert all(same_bits(a, b) for a, b in zip(boxes, want_boxes))
        info = registry.info()  # analysis and synthesis, three degrees
        assert info["analysis-plan"]["entries"] == info["synthesis-plan"]["entries"] == 3

    def test_threads_build_overlapping_systems(self, registry):
        # four threads (more than cores) start together on an empty registry and build
        # systems whose rules overlap: every rule a thread gets equals, bit for bit,
        # the rule built alone and is read-only, and the registry keeps each rule once,
        # bytes counted once
        configs = (([0.5, 1.0], DUAL), ([1.0, 0.5, 2.0], TIGHT), ([0.5], TIGHT), ([2.0, 1.0], DUAL))
        start = threading.Barrier(len(configs))

        def worker(config):
            alpha, pair = config
            start.wait(timeout=60)
            system = build_system(3, len(alpha), alpha, pair, delta=0.0291)
            return {(g.n_j, a): rule for g in system.grids for a, rule in zip(alpha, g._rules)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(configs)) as pool:
                results = list(pool.map(worker, configs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        keys = set().union(*results)
        assert len(keys) == 12 and len(results[0].keys() & results[1].keys()) == 8
        for rules in results:
            for (n, alpha), rule in rules.items():
                arrays = (rule.nodes, rule.log_weights, rule.cub_coeffs, rule.sqrt_nodes)
                assert all(same_bits(a, want) for a, want in zip(arrays, single_rule(n, alpha)))
                assert not any(a.flags.writeable for a in arrays)
        rules = registry.info()["rule"]
        assert rules["entries"] == len(keys) and rules["bytes"] == sum(4 * 8 * n for n, _ in keys)


def subnormal_count(arr):
    return int(np.count_nonzero((arr != 0) & (np.abs(arr) < np.finfo(float).tiny)))


class TestNormalOrZero:
    """Node tables and needlet coefficients hold no subnormal entry, which would
    slow every dense product they enter."""

    @pytest.mark.parametrize("J,alpha,complex_valued", [(4, (0.5,), False), (3, (0.5, 0.5), False),
                                                        (3, (0.5, 0.5), True), (4, (0.5, 0.5), False),
                                                        (4, (0.5, 0.5), True),
                                                        (2, (0.0, 0.5, 1.0), False),
                                                        (2, (0.0, 0.5, 1.0), True)])
    def test_tables_and_levels(self, J, alpha, complex_valued):
        # at J = 4, d = 2 the level-4 box is a strided view of the level; the trimmed
        # tables no longer make subnormal products from a unit-norm f, so f is
        # scaled by 2^-1000 to put its small level entries below the normal range
        system = build_system(J, len(alpha), list(alpha), TIGHT)
        assert all(subnormal_count(tab) == 0 for tabs in system.tables for tab in tabs)
        f = CoeffFn.random(list(alpha), system.exact_degree(), seed=5,
                           complex_valued=complex_valued) * 2.0 ** -1000
        levels = analyze(system, f).levels
        assert all(subnormal_count(lv.view(float)) == 0 for lv in levels)
        # the flush does find work: the unflushed top level holds subnormals
        rows = needlets._band_rows(system.d, system.pair.a_hat, J, f.max_degree)
        block = _filter_degrees(f.coeffs[(rows,) * f.d], system.pair.a_hat, _level_scale(J),
                                corner=f.d * rows.start)
        raw = _fold(block, [tab[rows] for tab in system.tables[J]])
        assert subnormal_count(raw.view(float)) > 0

    @pytest.mark.parametrize("J,d,alpha,pair", [(5, 1, (0.5,), TIGHT), (3, 3, (0.0, 0.5, 1.0), DUAL),
                                                (3, 2, (0.5, 0.5), TIGHT), (3, 1, (0.5,), TIGHT)],
                             ids=["deep-1d", "wide-3d", "norms-2d", "cli-report-1d"])
    def test_skipped_flush_changes_nothing(self, J, d, alpha, pair):
        # analyze flushes no level: each box is the unflushed fold of 2^-e f, e the
        # binary exponent of f's largest |coefficient|, bit for bit, and at that unit
        # scale the fold equals its flushed copy, whatever the scale of f.
        # wide-3d runs at its workload degree only: at 4^J its level 3 is 209^3 nodes
        system = build_system(J, d, list(alpha), pair)
        degrees = (system.exact_degree(),) + ((system.max_degree(),) if d < 3 else ())
        for degree in degrees:
            for complex_valued in (False, True):
                for scale in (1.0, 2.0 ** -600, 2.0 ** -1000):
                    f = CoeffFn.random(list(alpha), degree, seed=degree,
                                       complex_valued=complex_valued) * scale
                    e = math.frexp(float(np.max(np.abs(f.coeffs))))[1]
                    unit, coeffs = ldexp_view(f.coeffs, -e), analyze(system, f)
                    assert coeffs._exp == e
                    for j, tabs in enumerate(system.tables):
                        box = needlets._live_box(system, j, pair.a_hat, degree)
                        if box is None:
                            continue
                        rows, K = box
                        block = _filter_degrees(unit[(rows,) * d], pair.a_hat,
                                                _level_scale(j), corner=d * rows.start)
                        raw = _fold(block, [tab[rows, :k] for tab, k in zip(tabs, K)])
                        assert same_bits(raw, _flush_subnormal(raw.copy()))
                        assert same_bits(coeffs._boxes[j], raw)


def dense_analyze(system, f):
    """Levels from the full node tables, every row and every node, flushed as analyze
    flushes them."""
    return [_flush_subnormal(np.ascontiguousarray(lv))
            for lv in dense_levels(system, f, system.tables)]


def dense_synthesize(system, levels):
    """Coefficients of sum h_xi psi_xi from the full node tables."""
    n_out, d = system.max_degree(), system.d
    out = np.zeros((n_out + 1,) * d, dtype=np.result_type(float, *levels))
    for j, tabs in enumerate(system.tables):
        cap = min(system.band_degree(j), n_out)
        block = levels[j]
        for tab in tabs:
            block = np.einsum("k...,mk->...m", block, tab[: cap + 1], optimize=True)
        w = cutoff_weights(system.pair.b_hat, _level_scale(j), d * cap)
        out[(slice(0, cap + 1),) * d] += block * w[total_degree_grid(block.shape)]
    out[total_degree_grid(out.shape) > n_out] = 0.0
    return out


def box_slices(K):
    return tuple(slice(0, k) for k in K)


def filter_band(cut, j):
    live = np.flatnonzero(cutoff_weights(cut, _level_scale(j)))
    return int(live[0]), int(live[-1])


class TestLiveBox:
    """analyze and synthesize fold each level only on its live box: the rows where the
    level filter is nonzero, and the nodes K whose table columns are nonzero there."""

    @pytest.mark.parametrize("J,alpha,pair,degrees", [
        (4, (0.5,), TIGHT, (3, 64, 256)),
        (3, (0.0,), DUAL, (2, 16, 64)),
        (3, (0.5, 1.0), DUAL, (3, 16, 64)),
        (3, (0.5, 0.5), TIGHT, (3, 16, 64)),
        (2, (0.0, 0.5, 1.0), DUAL, (1, 4, 16)),
        (2, (0.5, 0.5, 0.5), TIGHT, (1, 4, 16)),
    ], ids=["d1-tight", "d1-dual", "d2-dual", "d2-tight", "d3-dual", "d3-tight"])
    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_matches_dense_reference(self, J, alpha, pair, degrees, complex_valued):
        # degrees: below the top level's lower band edge, exact_degree() and 4^J
        system = build_system(J, len(alpha), list(alpha), pair)
        assert degrees[1:] == (system.exact_degree(), system.max_degree())
        assert degrees[0] <= filter_band(pair.a_hat, J)[0] - 1
        for seed, degree in enumerate(degrees):
            f = CoeffFn.random(list(alpha), degree, seed=seed, complex_valued=complex_valued)
            coeffs = analyze(system, f)
            for got, want in zip(coeffs.levels, dense_analyze(system, f)):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            if degree < system.exact_degree():
                assert not coeffs.levels[J].any()
            got = synthesize(system, coeffs).coeffs
            want = dense_synthesize(system, coeffs.levels)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("J,alpha,pair", [(4, (0.5,), TIGHT), (3, (0.0, 1.0), DUAL),
                                              (2, (0.0, 0.5, 1.0), DUAL)])
    def test_levels_vanish_outside_the_box(self, J, alpha, pair):
        system = build_system(J, len(alpha), list(alpha), pair)
        for degree in (system.exact_degree(), system.max_degree()):
            f = CoeffFn.random(list(alpha), degree, seed=degree)
            for j, level in enumerate(analyze(system, f).levels):
                rows, K = needlets._live_box(system, j, pair.a_hat, degree)
                outside = np.ones(level.shape, dtype=bool)
                outside[box_slices(K)] = False
                assert not level[outside].any()
                assert level[box_slices(K)].any()

    @pytest.mark.parametrize("J,alpha,pair", [(5, (0.5,), TIGHT), (3, (1.5,), DUAL),
                                              (4, (0.5, 0.5), DUAL), (2, (0.0, 0.5, 1.0), TIGHT)])
    def test_box_is_the_nonzero_part(self, J, alpha, pair):
        # rows from the filter's nonzero degrees, K from the tables, each brute force
        system = build_system(J, len(alpha), list(alpha), pair)
        d = system.d
        for j, tabs in enumerate(system.tables):
            for reach, tab in zip(system._reach[j], tabs):
                first = np.argmax(tab != 0, axis=0)  # each node's first nonzero row
                first[~tab.any(axis=0)] = len(tab)
                want = [1 + int(np.flatnonzero(first <= m)[-1]) for m in range(len(tab))]
                assert reach.tolist() == want and not reach.flags.writeable
            for cut, cap in ((pair.a_hat, system.exact_degree()),
                             (pair.a_hat, system.max_degree()), (pair.b_hat, system.max_degree())):
                lo, hi = filter_band(cut, j)
                r1 = min(hi, cap, system.band_degree(j))
                box = needlets._live_box(system, j, cut, cap)
                if lo > cap:
                    assert box is None
                    continue
                rows, K = box
                assert rows == slice(max(0, lo - (d - 1) * r1), r1 + 1)
                for tab, k in zip(tabs, K):
                    assert not tab[: r1 + 1, k:].any() and tab[: r1 + 1, k - 1].any()

    def test_deep_1d_box_is_cut(self):
        system = build_system(5, 1, [0.5], TIGHT)
        assert system.tables[5][0].shape == (1025, 3337)
        assert needlets._live_box(system, 5, TIGHT.b_hat, 1024) == (slice(65, 1018), (2317,))
        assert needlets._live_box(system, 5, TIGHT.a_hat, 256) == (slice(65, 257), (1302,))
        coeffs = analyze(system, CoeffFn.random([0.5], 256, seed=0))
        assert coeffs._boxes[5].shape == (1302,)  # synthesize reads these nodes, not 2317

    def test_wide_3d_boxes(self):
        # level 3 of the J=3 d=3 dual pair: 123 of 209 nodes per axis in analyze of a
        # degree-16 function, 173 in synthesize of any coefficients, and 123 in
        # synthesize of analyze's output
        system = build_system(3, 3, [0.0, 0.5, 1.0], DUAL)
        assert needlets._live_box(system, 3, DUAL.a_hat, 16) == (slice(0, 17), (123,) * 3)
        assert needlets._live_box(system, 3, DUAL.b_hat, 64) == (slice(0, 64), (173,) * 3)
        coeffs = analyze(system, CoeffFn.random(system.alpha, 16, seed=0))
        assert coeffs._boxes[3].shape == (123,) * 3

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_wide_3d_box_contract(self, complex_valued):
        # every analysis level is stored as a fresh C-contiguous read-only box, and
        # the dense levels are those boxes zero-padded and scaled by 2^_exp, bit for bit
        system = build_system(3, 3, [0.0, 0.5, 1.0], DUAL)
        f = CoeffFn.random(system.alpha, 16, seed=1, complex_valued=complex_valued)
        coeffs = analyze(system, f)
        assert [b.shape for b in coeffs._boxes] == [(4,) * 3, (14,) * 3, (52,) * 3, (123,) * 3]
        for box, level, g in zip(coeffs._boxes, coeffs.levels, system.grids):
            assert box.flags.c_contiguous and not box.flags.writeable and not level.flags.writeable
            assert level.shape == (g.n_j,) * 3 and level.dtype == box.dtype == f.coeffs.dtype
            padded = np.zeros(level.shape, dtype=level.dtype)
            padded[box_slices(box.shape)] = box
            want = ldexp_view(padded, coeffs._exp)
            assert np.array_equal(level.view(np.int64), want.view(np.int64))
        assert coeffs.levels is coeffs.levels  # built once, on first access

    @pytest.mark.parametrize("J,alpha,pair", [(5, (0.5,), TIGHT), (3, (0.0, 0.5, 1.0), DUAL),
                                              (4, (50.0,), DUAL), (4, (0.5, 0.5), TIGHT)])
    def test_levels_within_the_trim_bound(self, J, alpha, pair):
        # the trimmed tables move a level by at most d 2^-56 ||f|| (|a| <= 1, and each
        # ||T_l||_2 <= 1 + 1e-10), checked with one arithmetic on both table sets;
        # analyze then adds only its GEMM rounding
        system = build_system(J, len(alpha), list(alpha), pair)
        untrimmed = [untrimmed_tables(system, j) for j in range(J + 1)]
        d = system.d
        for degree in (system.exact_degree(), system.max_degree()):
            for complex_valued in (False, True):
                f = CoeffFn.random(list(alpha), degree, seed=degree,
                                   complex_valued=complex_valued, normalized=False)
                bound = d * 2.0 ** -56 * (1.0 + 1e-10) ** d * f.norm2()
                for got, trimmed, raw in zip(analyze(system, f).levels,
                                             dense_levels(system, f, system.tables),
                                             dense_levels(system, f, untrimmed)):
                    assert np.linalg.norm(trimmed - raw) <= bound
                    rounding = 1e-13 * np.max(np.abs(raw))
                    assert np.max(np.abs(got - raw)) <= bound + rounding

    @pytest.mark.parametrize("J,alpha,pair", [(5, (0.5,), TIGHT), (3, (0.0, 0.5, 1.0), DUAL),
                                              (3, (0.5, 0.5), DUAL)])
    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_synthesize_reads_only_what_analyze_wrote(self, J, alpha, pair, complex_valued):
        # the same levels as whole boxes are folded on the whole synthesis box, whose
        # extra nodes hold zeros: only the GEMMs' summation order differs
        system = build_system(J, len(alpha), list(alpha), pair)
        for degree in (system.exact_degree(), system.max_degree()):
            f = CoeffFn.random(list(alpha), degree, seed=degree, complex_valued=complex_valued)
            coeffs = analyze(system, f)
            bare = NeedletCoeffs(coeffs.levels, coeffs.system_hash)
            assert [b.shape for b in bare._boxes] == [lv.shape for lv in coeffs.levels]
            got, want = synthesize(system, coeffs).coeffs, synthesize(system, bare).coeffs
            assert np.max(np.abs(got - want)) <= 1e-15 * math.sqrt(coeffs.total_energy())

    @pytest.mark.parametrize("J,alpha,pair", [(5, (0.5,), TIGHT), (3, (0.0,), DUAL),
                                              (4, (0.5, 0.5), DUAL), (2, (0.0, 0.5, 1.0), DUAL)])
    def test_box_edges_exactly(self, J, alpha, pair):
        # single coefficients on the edge rows and edge nodes of each box: every entry
        # is one product, so the box and the full tables agree bit for bit, and a box
        # one row or one node short loses a whole entry
        system = build_system(J, len(alpha), list(alpha), pair)
        d, N, scale = system.d, system.max_degree(), 1e300  # edge values stay normal
        for j, tabs in enumerate(system.tables):
            for cap in (system.exact_degree(), N):
                box = needlets._live_box(system, j, pair.a_hat, cap)
                if box is None:
                    continue
                rows, K = box
                lo = filter_band(pair.a_hat, j)[0]
                edges = [((rows.stop - 1,) + (0,) * (d - 1), None),
                         ((lo,) if d == 1 else (0, lo) + (0,) * (d - 2), None)]
                for ax, (tab, k) in enumerate(zip(tabs, K)):
                    m = lo + int(np.flatnonzero(tab[lo: rows.stop, k - 1])[-1])
                    edges.append((tuple(m if i == ax else 0 for i in range(d)),
                                  tuple(k - 1 if i == ax else 0 for i in range(d))))
                for nu, node in edges:
                    coeffs = np.zeros((cap + 1,) * d)
                    coeffs[nu] = scale
                    f = CoeffFn(system.alpha, cap, coeffs)
                    got = analyze(system, f).levels
                    assert all(np.array_equal(a, b) for a, b in zip(got, dense_analyze(system, f)))
                    assert node is None or got[j][node] != 0
            rows, K = needlets._live_box(system, j, pair.b_hat, N)
            for node in [(0,) * d] + [tuple(k - 1 if i == ax else 0 for i in range(d))
                                      for ax, k in enumerate(K)]:
                levels = [np.zeros((g.n_j,) * d) for g in system.grids]
                levels[j][node] = scale
                got = synthesize(system, NeedletCoeffs(tuple(levels), system.hash)).coeffs
                assert np.array_equal(got, dense_synthesize(system, levels))
                assert got.any()


CLIPPED = CutoffPair(frame_default(), make_cutoff("type_b", u=0.25, v=4.0))  # b_hat up to 5


class TestSimplexSynthesis:
    """synthesize folds each level's later axes in blocks of first-axis degree, on the
    total-degree simplex only: the same coefficients as the full-cube reference."""

    @pytest.mark.parametrize("J,alpha", [(3, (0.5,)), (3, (0.5, 1.0)), (2, (0.0, 0.5, 1.0))],
                             ids=["d1", "d2", "d3"])
    @pytest.mark.parametrize("pair", [TIGHT, DUAL, CLIPPED], ids=["tight", "dual", "clipped"])
    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_matches_dense_reference(self, J, alpha, pair, complex_valued):
        # hand-built full levels, analysis output, and scale and add of those; with the
        # clipped pair the top level's b_hat band runs past 4^J, which cuts it
        system = build_system(J, len(alpha), list(alpha), pair)
        n_out = system.max_degree()
        assert (_filter_band(pair.b_hat, _level_scale(J))[1] > n_out) == (pair is CLIPPED)
        rng = np.random.default_rng(J)
        hand = NeedletCoeffs(tuple(
            rng.standard_normal((g.n_j,) * system.d) + (1j * rng.standard_normal(
                (g.n_j,) * system.d) if complex_valued else 0.0) for g in system.grids),
            system.hash)
        low, high = (analyze(system, CoeffFn.random(system.alpha, degree, seed=degree,
                                                    complex_valued=complex_valued))
                     for degree in (system.exact_degree(), n_out))
        factor = 1.5 - 0.25j if complex_valued else -0.75
        for coeffs in (hand, low, high, low.scale(factor), high.add(hand), low.add(high)):
            got = synthesize(system, coeffs).coeffs
            want = dense_synthesize(system, coeffs.levels)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert not got[total_degree_grid(got.shape) > n_out].any()

    @pytest.mark.parametrize("blocks", [1, 2, 5, 100])
    def test_block_count_moves_only_rounding(self, monkeypatch, blocks):
        # one block is the whole cube of the box's rows; more blocks than rows is one
        # block per row
        system = build_system(2, 3, [0.0, 0.5, 1.0], CLIPPED)
        rng = np.random.default_rng(blocks)
        coeffs = NeedletCoeffs(tuple(rng.standard_normal((g.n_j,) * 3) for g in system.grids),
                               system.hash)
        monkeypatch.setattr(needlets, "_SYNTH_BLOCKS", blocks)
        monkeypatch.setattr(special, "_CACHE", _ArrayCache())  # plans keep blocks
        got = synthesize(system, coeffs).coeffs
        want = dense_synthesize(system, coeffs.levels)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert same_bits(got, per_call_synthesize(system, coeffs).coeffs)


# the benchmark workloads' transform systems, as (J, alpha, pair), with their input degree
BENCH_SYSTEMS = {"deep-1d": ((5, (0.5,), TIGHT), 256),
                 "wide-3d": ((3, (0.0, 0.5, 1.0), DUAL), 16),
                 "norms-2d": ((3, (0.5, 0.5), TIGHT), 16),
                 "cli-report-1d": ((3, (0.5,), TIGHT), 16)}


PLANS = ("analysis-plan", "synthesis-plan")  # the registry kinds of transform plans


def same_coeffs(got, want):
    """Two NeedletCoeffs with the same hash, level shapes, exponent and boxes, bit for bit."""
    return (got.system_hash == want.system_hash and got._level_shapes() == want._level_shapes()
            and got._exp == want._exp and all(same_bits(a, b) and not a.flags.writeable
                    for a, b in zip(got._boxes, want._boxes)))


class TestTransformPlans:
    """analyze and synthesize read each level's boxes, filters, blocks and exponent
    bounds from cached plans: the bits of the per-call oracles, cold or warm."""

    @pytest.fixture(scope="class")
    def bench_systems(self):
        return {name: build_system(J, len(alpha), list(alpha), pair)
                for name, ((J, alpha, pair), _) in BENCH_SYSTEMS.items()}

    def round_trips_match(self, system, fns):
        for f in fns:
            want = per_call_analyze(system, f)
            want_out = per_call_synthesize(system, want).coeffs
            for _ in range(2):  # the first call builds the plans, the second reads them
                got = analyze(system, f)
                assert same_coeffs(got, want)
                assert same_bits(synthesize(system, got).coeffs, want_out)

    @pytest.mark.parametrize("name", list(BENCH_SYSTEMS))
    def test_benchmark_systems_match_the_oracle(self, bench_systems, registry, name):
        # seeded inputs as the workloads draw them, complex ones, and a degree-0 function
        system, degree = bench_systems[name], BENCH_SYSTEMS[name][1]
        fns = [CoeffFn.random(system.alpha, degree, seed=[7, k]) for k in range(3)]
        fns += [CoeffFn.random(system.alpha, degree, seed=[8, k], complex_valued=True)
                for k in range(2)]
        fns += [CoeffFn.random(system.alpha, 0, seed=9), 2.0 ** -1000 * fns[0]]
        self.round_trips_match(system, fns)
        info = registry.info()  # analysis and synthesis, two degrees
        assert [info[kind]["entries"] for kind in PLANS] == [2, 2]
        assert [info[kind]["misses"] for kind in PLANS] == [2, 2]

    @pytest.mark.parametrize("name", ["deep-1d", "norms-2d", "cli-report-1d", "d3"])
    def test_hand_built_scaled_and_added_match_the_oracle(self, bench_systems, registry, name):
        # dense levels without _shapes, odd boxes (one of them empty) with _shapes, and
        # scale and add of those and of analysis output
        system = bench_systems.get(name) or build_system(2, 3, [0.0, 0.5, 1.0], DUAL)
        d, rng = system.d, np.random.default_rng(len(name))
        shapes = tuple((g.n_j,) * d for g in system.grids)
        hand = NeedletCoeffs(tuple(rng.standard_normal(shape) for shape in shapes), system.hash)
        odd = NeedletCoeffs(tuple(
            rng.standard_normal(tuple(0 if j == 1 else min(g.n_j, 3 + 7 * j + 2 * ax)
                                      for ax in range(d)))
            for j, g in enumerate(system.grids)), system.hash, shapes)
        low = analyze(system, CoeffFn.random(system.alpha, system.exact_degree(), seed=1,
                                             complex_valued=True))
        for coeffs in (hand, odd, low, low.scale(-0.75), hand.scale(1.5 - 0.25j), low.add(odd),
                       odd.add(hand)):
            want = per_call_synthesize(system, coeffs).coeffs
            for _ in range(2):
                assert same_bits(synthesize(system, coeffs).coeffs, want)

    def test_clipped_band_matches_the_oracle(self, registry):
        # J = 4, d = 2: the level-4 b_hat band runs to degree 320, past 4^J = 256, so
        # the plan keeps a clip mask for the blocks that cross 4^J
        system = build_system(4, 2, [0.5, 0.5], CLIPPED)
        rng = np.random.default_rng(4)
        hand = NeedletCoeffs(tuple(rng.standard_normal((g.n_j,) * 2) for g in system.grids),
                             system.hash)
        fns = [CoeffFn.random(system.alpha, degree, seed=degree) for degree in (64, 256)]
        self.round_trips_match(system, fns)
        for coeffs in (hand, analyze(system, fns[1]).add(hand)):
            assert same_bits(synthesize(system, coeffs).coeffs,
                             per_call_synthesize(system, coeffs).coeffs)
        plan = needlets._synthesis_plan(system, tuple((g.n_j,) * 2 for g in system.grids))
        clips = [[clip is not None for *_, clip in level[3]] for level in plan]
        assert not any(map(any, clips[:4])) and any(clips[4])

    def test_plans_hold_no_table_view(self, bench_systems, registry):
        # every array a plan holds is its own: the tables are sliced on each call, so a
        # plan pins none of them, and the cache charges the plan only its own bytes
        system = bench_systems["norms-2d"]
        coeffs = analyze(system, CoeffFn.random(system.alpha, 16, seed=0, complex_valued=True))
        synthesize(system, coeffs)
        held = [a for key, (value, _) in registry._entries.items() if key[0] in PLANS
                for a in _arrays(value)]
        shared = [a for tabs in system.tables for a in tabs]
        shared += [a for reach in system._reach for a in reach]
        assert held and all(a.base is None and not a.flags.writeable for a in held)
        assert not any(np.shares_memory(a, t) for a in held for t in shared)
        info = registry.info()
        assert sum(info[kind]["bytes"] for kind in PLANS) == sum(a.nbytes for a in held)

    def test_raw_cut_offs_hash_apart(self, registry):
        # two raw cut-offs of one name describe alike but filter differently: the hash
        # reads their supports and filter weights, so each system gets its own hash and
        # plans, its own oracle's bits, and refuses the other's coefficients
        def raw(a_hat):
            return make_cutoff("raw", fn=a_hat, support=a_hat.support, nonneg=True)

        short = make_cutoff("type_b", u=0.25, v=2.5, rise=1.0 / 12.0, fall=1.0)
        systems = [build_system(3, 1, [0.5], make_dual_pair(raw(cut)))
                   for cut in (frame_default(), short)]
        assert systems[0].pair.describe() == systems[1].pair.describe()
        assert systems[0].hash != systems[1].hash
        again = build_system(3, 1, [0.5], make_dual_pair(raw(frame_default())))
        assert again.hash == systems[0].hash
        f = CoeffFn.random([0.5], 16, seed=3)
        for _ in range(2):
            for system in systems:
                self.round_trips_match(system, [f])
        assert [registry.info()[kind]["entries"] for kind in PLANS] == [2, 2]
        for system, other in (systems, systems[::-1]):
            with pytest.raises(ValueError, match="different system"):
                synthesize(other, analyze(system, f))

    def test_system_is_not_kept_alive(self, registry):
        system = build_system(2, 2, [0.5, 0.5], TIGHT)
        synthesize(system, analyze(system, CoeffFn.random(system.alpha, 4, seed=1)))
        assert [registry.info()[kind]["entries"] for kind in PLANS] == [1, 1]
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    def test_rules_are_not_pinned(self, monkeypatch):
        # once the system is gone and the registry is dropped, nothing keeps a rule
        # alive: no grid is kept beside the registry
        monkeypatch.setattr(special, "_CACHE", _ArrayCache())
        system = build_system(2, 2, [0.5, 0.5], TIGHT)
        synthesize(system, analyze(system, CoeffFn.random(system.alpha, 4, seed=1)))
        ref = weakref.ref(system.grids[-1]._rules[0].nodes)
        del system
        gc.collect()
        assert ref() is not None  # the registry keeps the rule
        special._CACHE = _ArrayCache()  # monkeypatch restores the package's registry after
        gc.collect()
        assert ref() is None


class TestRealDtype:
    """Real data stays float64 end to end; complex data keeps the complex path."""

    @pytest.mark.parametrize("J,alpha,pair", [(3, (0.5,), TIGHT), (2, (0.0, 0.5, 1.0), DUAL),
                                              (2, (0.5, 0.5), TIGHT)])
    def test_real_in_gives_real_out(self, J, alpha, pair):
        system = build_system(J, len(alpha), list(alpha), pair)
        f = CoeffFn.random(list(alpha), 4 ** (J - 1), seed=4)
        assert f.coeffs.dtype == np.float64
        coeffs = analyze(system, f)
        assert all(lv.dtype == np.float64 for lv in coeffs.levels)
        g = synthesize(system, coeffs)
        assert g.coeffs.dtype == np.float64
        pts = np.full((5, len(alpha)), 0.7)
        assert f.evaluate(pts).dtype == np.float64
        assert isinstance(f.evaluate(pts[0]), float)
        # the same function as a complex tensor, which takes the complex path
        z = CoeffFn(list(alpha), f.max_degree, f.coeffs.astype(complex))
        zc = analyze(system, z)
        assert all(lv.dtype == np.complex128 for lv in zc.levels)
        for got, want in zip(coeffs.levels, zc.levels):
            assert not np.any(want.imag)
            assert np.max(np.abs(got - want.real)) <= 1e-14 * np.max(np.abs(want))
        zg = synthesize(system, zc)
        assert zg.coeffs.dtype == np.complex128
        assert np.max(np.abs(g.coeffs - zg.coeffs.real)) <= 1e-14 * np.max(np.abs(zg.coeffs))

    def test_wraps_float64_and_complex128_without_copy(self):
        for dtype in (np.float64, np.complex128):
            arr = np.zeros((3, 3), dtype=dtype)
            assert np.shares_memory(CoeffFn([0.0, 0.5], 2, arr).coeffs, arr)
        for dtype, want in [(np.int64, np.float64), (np.float32, np.float64),
                            (np.complex64, np.complex128)]:
            assert CoeffFn([0.5], 2, np.ones(3, dtype=dtype)).coeffs.dtype == want

    def test_json_without_imaginary_part_is_real(self):
        data = {"alpha": [0.5], "N": 2, "coeffs": [{"nu": [1], "re": 0.5},
                                                    {"nu": [2], "re": -1.0, "im": 0.0}]}
        f = CoeffFn.from_json_dict(data)
        assert f.coeffs.dtype == np.float64
        assert f.coeffs.tolist() == [0.0, 0.5, -1.0]
        data["coeffs"][0]["im"] = 2.0
        assert CoeffFn.from_json_dict(data).coeffs.tolist() == [0.0, 0.5 + 2j, -1.0]


class TestReconstruction:
    @pytest.mark.parametrize("pair", [DUAL, TIGHT], ids=["dual", "tight"])
    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_identity_on_covered_band_1d(self, J, pair):
        system = build_system(J, 1, [0.5], pair)
        deg = 4 ** (J - 1)
        for seed in range(3):
            f = CoeffFn.random([0.5], deg, seed=seed)
            g = synthesize(system, analyze(system, f))
            err = np.max(np.abs(g.coeffs[: deg + 1] - f.coeffs)) / f.norm2()
            assert err < 1e-9
            # content beyond the reconstruction band stays negligible
            tail = np.abs(g.coeffs[deg + 1:])
            assert np.max(tail, initial=0.0) < 1e-9

    @pytest.mark.parametrize("alpha", [(0.0, 0.0), (0.5, 1.0)])
    @pytest.mark.parametrize("J", [1, 2, 3])
    @pytest.mark.parametrize("pair", [DUAL, TIGHT], ids=["dual", "tight"])
    def test_identity_2d(self, alpha, J, pair):
        system = build_system(J, 2, list(alpha), pair)
        deg = 4 ** (J - 1)
        f = CoeffFn.random(list(alpha), deg, seed=3)
        g = synthesize(system, analyze(system, f))
        sl = (slice(0, deg + 1),) * 2
        err = np.max(np.abs(g.coeffs[sl] - f.coeffs)) / f.norm2()
        assert err < 1e-9

    def test_complex_coefficients_supported(self):
        system = small_system(J=2)
        f = CoeffFn.random([0.5], 4, seed=9, complex_valued=True)
        coeffs = analyze(system, f)
        assert all(lv.dtype == np.complex128 for lv in coeffs.levels)
        g = synthesize(system, coeffs)
        assert g.coeffs.dtype == np.complex128
        assert f.evaluate(np.full((3, 1), 1.1)).dtype == np.complex128
        err = np.max(np.abs(g.coeffs[:5] - f.coeffs)) / f.norm2()
        assert err < 1e-9


def _basis_loop_operators(system):
    """S and R from analyze/synthesize of each basis function of V_deg."""
    deg = system.exact_degree()
    idx = np.argwhere(total_degree_grid((deg + 1,) * system.d) <= deg)
    columns, recon = [], []
    for nu in idx:
        basis = np.zeros((deg + 1,) * system.d)
        basis[tuple(nu)] = 1.0
        coeffs = analyze(system, CoeffFn(system.alpha, deg, basis))
        columns.append(np.concatenate([lv.ravel() for lv in coeffs.levels]))
        recon.append(synthesize(system, coeffs).coeffs[tuple(idx.T)])
    A = np.array(columns).T
    return A.T @ A, np.array(recon).T


class TestFrameBounds:
    def test_tight_bounds_are_unit(self):
        system = small_system(J=2, pair=TIGHT)
        lo, hi = frame_bounds(system)
        assert lo == pytest.approx(1.0, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)

    def test_general_pair_bounds_finite(self):
        system = small_system(J=2, pair=DUAL)
        lo, hi = frame_bounds(system)
        assert 0.0 < lo <= hi < math.inf

    @pytest.mark.parametrize("d,pair", [(1, TIGHT), (2, DUAL), (3, DUAL)],
                             ids=["d1-tight", "d2-dual", "d3-dual"])
    def test_closed_form_matches_basis_loop(self, d, pair):
        system = small_system(J=2, d=d, alpha=(0.5,) * d, pair=pair)
        S, R = _basis_loop_operators(system)
        assert np.max(np.abs(needlets._frame_operator(system, pair.a_hat) - S)) < 1e-13
        assert np.max(np.abs(needlets._frame_operator(system, pair.b_hat) - R)) < 1e-13
        assert frame_bounds(system) == pytest.approx(np.linalg.eigvalsh(S)[[0, -1]],
                                                     abs=1e-13)


def test_total_degree_grid():
    deg = total_degree_grid((3, 3))
    assert deg[0, 0] == 0 and deg[2, 2] == 4 and deg[1, 2] == 3
