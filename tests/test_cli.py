import functools
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lagneed import cli, needlets
from lagneed.cli import (
    _needlet_coeffs_from_payload,
    canonical_json,
    load_config,
    main,
    parse_config_text,
    parse_cutoff,
    render_config_text,
    system_from_config,
)
from lagneed.cutoffs import CutoffPair, make_cutoff
from lagneed.needlets import CoeffFn, NeedletCoeffs, analyze, frame_bounds, synthesize
from lagneed.spaces import (B_norm_cont, F_norm_cont, NormParams, b_norm_seq, f_norm_seq,
                            make_test_corpus)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 1.5, "a": [1, 2.0], "c": True, "d": None})
        assert text == '{"a":[1,2],"b":1.5,"c":true,"d":null}'

    def test_seventeen_digit_floats(self):
        assert canonical_json(math.pi) == f"{math.pi:.17g}"

    def test_handles_numpy_and_inf(self):
        text = canonical_json({"x": np.array([1.0, 2.0]), "y": math.inf})
        assert text == '{"x":[1,2],"y":"inf"}'


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = parse_config_text("alpha=0.5,1.0\nJ=3\ntight=true\ndelta=0.04\n")
        text = render_config_text(cfg)
        again = parse_config_text(text)
        assert again == cfg

    def test_unknown_key_rejected(self):
        for line in ("bogus=1", "cutoff_alt=frame_alt", "point_cap=1000", "out_format=json"):
            with pytest.raises(ValueError, match="unknown configuration key"):
                parse_config_text(line + "\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nJ=1\n")
        assert cfg["J"] == 1

    def test_cutoff_strings(self):
        assert parse_cutoff("frame_default").support == (0.25, 4.0)
        assert parse_cutoff("type_a:v=2").support == (0.0, 3.0)
        assert parse_cutoff("type_b:u=0.3").support == (0.3, 4.0)
        for bad in ("garbage", "type_b:uu=0.3", "raw:x=1", "raw:fn=1", "type_a:v"):
            with pytest.raises(ValueError):
                parse_cutoff(bad)


class TestQuadratureCommand:
    def test_json_two_node_rule(self, capsys):
        code, out, _ = run_main(["quadrature", "--n", "2", "--alpha", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["nodes"] == pytest.approx(
            [2 - math.sqrt(2), 2 + math.sqrt(2)], rel=1e-13)

    def test_invalid_node_count_is_usage_error(self, capsys):
        code, _, err = run_main(["quadrature", "--n", "0", "--alpha", "0"], capsys)
        assert code == 2
        assert "n must be" in json.loads(err)["error"]

    def test_overflowing_rule_exits_2(self, capsys):
        # lambda_n e^t of the top nodes is above the float64 range at alpha = 100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(["quadrature", "--n", "1024", "--alpha", "100"], capsys)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert "n=1024" in error and "alpha=100" in error

    def test_csv_row_count_and_header(self, capsys, tmp_path):
        out_file = tmp_path / "rule.csv"
        code, _, _ = run_main(["quadrature", "--n", "64", "--alpha", "0.5",
                               "--format", "csv", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "nu,t,log_w,c"
        assert len(lines) == 65


class TestGridCommand:
    def test_level_zero_grid(self, capsys):
        code, out, _ = run_main(["grid", "--j", "0", "--alpha", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n_j"] == 4
        assert len(payload["points"]) == 4
        assert len(payload["tile_measures"]) == 4

    @pytest.mark.parametrize("argv", [["--j", "4", "--alpha", "100"],
                                      ["--j", "5", "--d", "2", "--alpha", "0,0"]])
    def test_refused_grid_exits_2(self, argv, capsys):
        # an overflowing grid, and one above the point cap, which it would flatten
        code, out, err = run_main(["grid", *argv], capsys)
        assert code == 2 and out == "" and err

    @pytest.mark.parametrize("j", ["-1", "-5"])
    def test_negative_level_exits_2(self, j, capsys):
        code, out, err = run_main(["grid", "--j", j, "--alpha", "0.5"], capsys)
        assert code == 2 and out == ""
        assert "level" in json.loads(err.strip())["error"]


class TestKernelCommands:
    def test_kernel_eval(self, capsys):
        code, out, _ = run_main(["kernel-eval", "--n", "8", "--alpha", "0.5",
                                 "--cutoff", "type_a:v=1", "--x", "1.0",
                                 "--points", "0.5;1.5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["values"]) == 2

    def test_kernel_eval_rejects_zero_n(self, capsys):
        code, out, _ = run_main(["kernel-eval", "--n", "0", "--alpha", "0.5",
                                 "--x", "1.0", "--points", "0.5"], capsys)
        assert code == 2
        assert out == ""

    def test_kernel_decay_csv(self, capsys, tmp_path):
        out_file = tmp_path / "decay.csv"
        code, _, _ = run_main(["kernel-decay", "--alpha", "0", "--n-list", "64,128",
                               "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "n,sigma,separation,normalized_value,bound_value,fitted_c"
        assert len(lines) == 1 + 2 * 60

    def test_kernel_decay_rejects_zero_n(self, capsys):
        code, _, _ = run_main(["kernel-decay", "--n-list", "0,64"], capsys)
        assert code == 2

    @pytest.mark.parametrize("n_list", ["64", "64,64"])
    @pytest.mark.parametrize("command", ["kernel-decay", "lower-bound"])
    def test_ratio_gates_need_two_distinct_n(self, capsys, command, n_list):
        # a ratio over one n is 1, so the gate would pass on any data
        code, out, err = run_main([command, "--alpha", "0", "--n-list", n_list], capsys)
        assert code == 2
        assert out == ""
        last = json.loads(err.splitlines()[-1])
        assert last["code"] == 2 and "two distinct" in last["error"]

    def test_lower_bound(self, capsys):
        code, out, _ = run_main(["lower-bound", "--alpha", "0",
                                 "--n-list", "32,64"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert all(v > 0 for v in payload["minima"].values())


class TestFrameVerify:
    def test_tight_passes(self, capsys):
        code, out, _ = run_main(["frame-verify", "--J", "2", "--d", "1",
                                 "--alpha", "0", "--tight"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["parseval_max_err"] < 1e-8
        assert payload["reconstruction_max_err"] < 1e-9

    def test_corrupt_pair_fails(self, capsys):
        code, out, err = run_main(["frame-verify", "--J", "2", "--d", "1",
                                   "--alpha", "0", "--corrupt"], capsys)
        assert code == 1
        assert json.loads(out)["reconstruction_max_err"] > 1e-6
        assert json.loads(err) == {"code": 1, "error": "failed suites: frame-verify"}

    def test_exact_error_bounds_sampled_trials(self):
        # the corrupted pair's defect |R - I| reaches 1.6, far above rounding, so
        # the supremum must dominate every sampled ratio max|Rf - f| / ||f||_2
        cfg = dict(cli.CONFIG_DEFAULTS, J=2, alpha=[0.5])
        _, fields, _ = cli._frame_verify(cfg, corrupt=True)
        bad = parse_cutoff(cfg["cutoff"])
        wrecked = make_cutoff("raw", fn=lambda t: 1.3 * np.asarray(bad(t)),
                              support=bad.support, name="corrupted")
        system = system_from_config(cfg, CutoffPair(cli.pair_from_config(cfg).a_hat, wrecked))
        deg = system.exact_degree()
        for seed in range(20):
            f = CoeffFn.random(system.alpha, deg, seed=seed)
            g = synthesize(system, analyze(system, f))
            sampled = np.max(np.abs(g.coeffs[: deg + 1] - f.coeffs)) / f.norm2()
            assert 0.01 < sampled <= fields["reconstruction_max_err"]

    def test_trials_flag_is_a_usage_error(self, capsys):
        code, out, err = run_main(["frame-verify", "--J", "1", "--alpha", "0", "--trials", "3"],
                                  capsys)
        assert code == 2 and out == ""
        line, = err.splitlines()
        assert json.loads(line) == {"code": 2,
                                    "error": "lagneed: unrecognized arguments: --trials 3"}

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frame-verify", "--help"])
        assert exc.value.code == 0
        assert "--corrupt" in capsys.readouterr().out

    def test_operator_above_the_cap_is_refused(self, capsys, monkeypatch):
        cfg = dict(cli.CONFIG_DEFAULTS, J=3, d=3, alpha=[0.5] * 3)
        system = system_from_config(cfg)
        k = math.comb(system.exact_degree() + 3, 3)  # dim V_16 in d = 3
        monkeypatch.setattr(needlets, "TABLE_BYTES_CAP", k * k * 8 - 1)
        with pytest.raises(ResourceWarning, match="above the cap"):
            frame_bounds(system)
        code, out, err = run_main(["frame-verify", "--J", "3", "--d", "3",
                                   "--alpha", "0.5,0.5,0.5"], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        fields = json.loads(err)
        assert fields["code"] == 2 and "frame operator" in fields["error"]

    def test_tables_above_the_cap_are_refused(self, capsys, monkeypatch):
        # refused from the node counts, before the n = 854019 rule of level 9 is built
        monkeypatch.setattr(needlets, "cubature_grid",
                            lambda *args: pytest.fail("a grid was built before the cap check"))
        code, out, err = run_main(["frame-verify", "--J", "9", "--d", "1", "--alpha", "0.5"],
                                  capsys)
        assert code == 2 and out == ""
        fields = json.loads(err)
        assert fields["code"] == 2 and "node tables would need" in fields["error"]

    def test_deterministic_output(self, capsys):
        args = ["frame-verify", "--J", "1", "--d", "1", "--alpha", "0.5"]
        _, out1, _ = run_main(args, capsys)
        _, out2, _ = run_main(args, capsys)
        assert out1 == out2


@pytest.fixture()
def system_config(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text("alpha=0.5\nd=1\nJ=2\ntight=true\nseed=3\ntrials=4\n")
    return str(path)


class TestTransform:
    def test_analyze_synthesize_round_trip(self, capsys, tmp_path, system_config):
        f = CoeffFn.random([0.5], 4, seed=5)
        coeff_file = tmp_path / "f.json"
        coeff_file.write_text(json.dumps(f.to_json_dict()))

        needlet_file = tmp_path / "needlet.json"
        code, _, _ = run_main(["transform", "analyze", "--system", system_config,
                               "--input", str(coeff_file), "--out",
                               str(needlet_file)], capsys)
        assert code == 0

        out_file = tmp_path / "recon.json"
        code, _, _ = run_main(["transform", "synthesize", "--system", system_config,
                               "--input", str(needlet_file), "--out",
                               str(out_file)], capsys)
        assert code == 0
        g = CoeffFn.from_json_dict(json.loads(out_file.read_text()))
        assert np.max(np.abs(g.coeffs[:5] - f.coeffs)) < 1e-9

    @pytest.mark.parametrize("size", [60, 10])
    def test_synthesize_refuses_wrong_level_shape(self, capsys, tmp_path, system_config, size):
        # a file with the system's hash whose level 2 (53 nodes) is grown, the extra
        # entries 5.0, or cut, and whose stated shape agrees with its entries
        f = CoeffFn.random([0.5], 4, seed=5)
        coeff_file, needlet_file = tmp_path / "f.json", tmp_path / "needlet.json"
        coeff_file.write_text(json.dumps(f.to_json_dict()))
        assert main(["transform", "analyze", "--system", system_config,
                     "--input", str(coeff_file), "--out", str(needlet_file)]) == 0
        payload = json.loads(needlet_file.read_text())
        level = payload["levels"][2]
        assert level["shape"] == [53]
        for key, fill in (("re", 5.0), ("im", 0.0)):
            level[key] = (level[key] + [fill] * 7)[:size]
        level["shape"] = [size]
        needlet_file.write_text(json.dumps(payload))
        code, out, err = run_main(["transform", "synthesize", "--system", system_config,
                                   "--input", str(needlet_file)], capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and '"code":2' in lines[0] and "level 2 has shape" in lines[0]

    def test_real_round_trip_keeps_file_format(self, tmp_path, system_config):
        # an input without "im" entries is real; the writers still emit "im"
        f = CoeffFn.random([0.5], 4, seed=5)
        coeff_file = tmp_path / "f.json"
        coeff_file.write_text(json.dumps({
            "alpha": [0.5], "N": 4,
            "coeffs": [{"nu": [k], "re": float(v)} for k, v in enumerate(f.coeffs)]}))
        needlet_file, out_file = tmp_path / "needlet.json", tmp_path / "recon.json"
        assert main(["transform", "analyze", "--system", system_config,
                     "--input", str(coeff_file), "--out", str(needlet_file)]) == 0
        payload = json.loads(needlet_file.read_text())
        for lv in payload["levels"]:
            assert set(lv) == {"j", "shape", "re", "im"}
            assert not any(lv["im"])
        assert all(lv.dtype == np.float64
                   for lv in _needlet_coeffs_from_payload(payload).levels)
        assert main(["transform", "synthesize", "--system", system_config,
                     "--input", str(needlet_file), "--out", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert all(set(item) == {"nu", "re", "im"} and item["im"] == 0.0
                   for item in data["coeffs"])
        g = CoeffFn.from_json_dict(data)
        assert g.coeffs.dtype == np.float64
        assert np.max(np.abs(g.coeffs[:5] - f.coeffs)) < 1e-9

    def test_analyze_csv_export(self, capsys, tmp_path, system_config):
        f = CoeffFn.random([0.5], 4, seed=5)
        coeff_file = tmp_path / "f.json"
        coeff_file.write_text(json.dumps(f.to_json_dict()))
        code, out, _ = run_main(["transform", "analyze", "--system", system_config,
                                 "--input", str(coeff_file), "--format", "csv"],
                                capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "level,node_index,xi_1,re,im"

    def test_missing_system_config(self, capsys, tmp_path):
        code, _, err = run_main(["transform", "analyze", "--system",
                                 str(tmp_path / "nope.cfg"), "--input", "x"], capsys)
        assert code == 2


@pytest.mark.parametrize("command", [["transform", "analyze"], ["norms", "--space", "f-seq"]])
def test_missing_input_file_exits_2(capsys, tmp_path, system_config, command):
    code, _, err = run_main(command + ["--system", system_config, "--input",
                                       str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert '"code":2' in err.splitlines()[-1]


@pytest.mark.parametrize("command", [["transform", "analyze"], ["norms", "--space", "f-seq"]])
def test_directory_as_input_exits_2(capsys, tmp_path, system_config, command):
    code, _, err = run_main(command + ["--system", system_config, "--input",
                                       str(tmp_path)], capsys)
    assert code == 2
    assert '"code":2' in err.splitlines()[-1]


@pytest.mark.parametrize("command", [["report"], ["equivalence-report"]])
def test_directory_as_config_exits_2(capsys, tmp_path, command):
    code, _, err = run_main(command + ["--config", str(tmp_path)], capsys)
    assert code == 2
    assert '"code":2' in err.splitlines()[-1]


@pytest.mark.parametrize("command,payload,key", [
    (["transform", "analyze"], {"N": 2}, "alpha"),
    (["norms", "--space", "b-seq"], {"alpha": [0.5], "N": 2}, "coeffs"),
    (["transform", "synthesize"], {"system_hash": "x"}, "levels"),
])
def test_input_missing_key_exits_2(capsys, tmp_path, system_config, command, payload, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run_main(command + ["--system", system_config, "--input", str(bad)],
                            capsys)
    assert code == 2
    last = err.splitlines()[-1]
    assert '"code":2' in last and repr(key) in last


@pytest.mark.parametrize("command,payload,message", [
    (["transform", "analyze"], {"alpha": [0.5], "N": 2, "coeffs": [{"nu": [-1], "re": 1}]},
     "negative entry"),
    (["norms", "--space", "b-seq"], {"alpha": [0.5], "N": 2, "coeffs": [{"nu": [-1], "re": 1}]},
     "negative entry"),
    (["transform", "analyze"], [1, 2], "JSON object"),
    (["transform", "synthesize"], [1, 2], "JSON object"),
    (["transform", "analyze"], {"alpha": [0.5], "N": 1, "coeffs": [{"nu": [1], "re": None}]},
     "multi-index (1,)"),
    (["transform", "analyze"],
     {"alpha": [0.5], "N": 1, "coeffs": [{"nu": [0], "re": 1, "im": None}]}, "multi-index (0,)"),
    (["norms", "--space", "f-seq"], {"alpha": [0.5], "N": 1, "coeffs": [{"nu": [0], "re": {}}]},
     "multi-index (0,)"),
    (["transform", "synthesize"], {"system_hash": "x", "levels": [
        {"j": 0, "shape": [2], "re": [1.0, 2.0], "im": [0.0, 0.0]},
        {"j": 1, "shape": [2], "re": [1.0, None], "im": [0.0, 0.0]}]}, "level 1: 're'"),
    (["transform", "synthesize"], {"system_hash": "x", "levels": [
        {"j": 0, "shape": [2], "re": [1.0, 2.0], "im": [0.0, {}]}]}, "level 0: 'im'"),
    # values of the wrong JSON type
    (["transform", "analyze"], {"alpha": [0.5], "N": 1, "coeffs": [1, 2]}, "malformed"),
    (["transform", "analyze"], {"alpha": [0.5], "N": 1, "coeffs": 5}, "malformed"),
    (["transform", "analyze"], {"alpha": [0.5], "N": 1, "coeffs": [{"nu": 5, "re": 1}]},
     "malformed"),
    (["transform", "analyze"], {"alpha": [0.5], "N": [2], "coeffs": []}, "malformed"),
    (["transform", "analyze"], {"alpha": None, "N": 1, "coeffs": []}, "malformed"),
    (["norms", "--space", "f-seq"], {"alpha": [0.5], "N": 1, "coeffs": [1, 2]}, "malformed"),
    (["transform", "synthesize"], {"system_hash": "x", "levels": 5}, "malformed"),
    (["transform", "synthesize"], {"system_hash": "x", "levels": [5]}, "malformed"),
    (["transform", "synthesize"], {"system_hash": "x", "levels": [
        {"j": 0, "shape": 5, "re": [1.0], "im": [0.0]}]}, "malformed"),
])
def test_malformed_input_exits_2(capsys, tmp_path, system_config, command, payload, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run_main(command + ["--system", system_config, "--input", str(bad)],
                              capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and '"code":2' in lines[0] and message in lines[0]


@pytest.mark.parametrize("spec", ["type_b:uu=0.3", "raw:x=1"])
@pytest.mark.parametrize("where", ["config", "kernel-decay"])
def test_bad_cutoff_spec_exits_2(capsys, tmp_path, spec, where):
    if where == "config":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"alpha=0.5\nd=1\nJ=2\ntight=true\ncutoff={spec}\n")
        argv = ["report", "--config", str(cfg), "--out", str(tmp_path / "bundle")]
    else:
        argv = ["kernel-decay", "--alpha", "0", "--n-list", "16,32", "--cutoff", spec]
    code, out, err = run_main(argv, capsys)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["code"] == 2


class TestNorms:
    @pytest.mark.parametrize("flags", [["--p", "nan"], ["--q", "NaN"], ["--s", "nan"],
                                       ["--rho", "inf"], ["--p", "0"]])
    def test_invalid_parameters_exit_2(self, capsys, tmp_path, system_config, flags):
        coeff_file = tmp_path / "f.json"
        coeff_file.write_text(json.dumps(CoeffFn.random([0.5], 4, seed=6).to_json_dict()))
        code, out, err = run_main(["norms", "--space", "F-cont", *flags, "--system",
                                   system_config, "--input", str(coeff_file)], capsys)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["code"] == 2 and ("p and q" in payload["error"]
                                         or "s and rho" in payload["error"])

    def test_f_seq_norm_with_per_level(self, capsys, tmp_path, system_config):
        f = CoeffFn.random([0.5], 4, seed=6)
        coeff_file = tmp_path / "f.json"
        coeff_file.write_text(json.dumps(f.to_json_dict()))
        code, out, _ = run_main(["norms", "--space", "f-seq", "--s", "0", "--rho",
                                 "0", "--p", "2", "--q", "2", "--system",
                                 system_config, "--input", str(coeff_file)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["norm"] == pytest.approx(f.norm2(), rel=1e-9)
        assert len(payload["per_level"]) == 3

    def test_infinite_q_besov(self, capsys, tmp_path, system_config):
        f = CoeffFn.random([0.5], 4, seed=6)
        coeff_file = tmp_path / "f.json"
        coeff_file.write_text(json.dumps(f.to_json_dict()))
        code, out, _ = run_main(["norms", "--space", "b-seq", "--q", "inf",
                                 "--system", system_config, "--input",
                                 str(coeff_file)], capsys)
        assert code == 0
        assert json.loads(out)["norm"] > 0

    @pytest.mark.parametrize("space,norm", [("f-seq", f_norm_seq), ("b-seq", b_norm_seq)])
    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_per_level_norms_in_3d(self, capsys, tmp_path, space, norm, complex_valued):
        # each level's norm is taken on its stored box with empty boxes elsewhere; the
        # payload is byte for byte the one from dense levels with zero levels elsewhere
        cfg = tmp_path / "system.cfg"
        cfg.write_text("alpha=0,0.5,1\nd=3\nJ=2\ntight=false\n")
        f = CoeffFn.random([0.0, 0.5, 1.0], 16, seed=4, complex_valued=complex_valued)
        coeff_file = tmp_path / "f.json"
        coeff_file.write_text(json.dumps(f.to_json_dict()))
        code, out, _ = run_main(["norms", "--space", space, "--s", "0.5", "--rho", "0.5",
                                 "--p", "1.5", "--q", "3", "--system", str(cfg), "--input",
                                 str(coeff_file)], capsys)
        assert code == 0
        system = system_from_config(load_config(str(cfg)))
        params = NormParams(0.5, 0.5, 1.5, 3.0)
        coeffs = analyze(system, CoeffFn.from_json_dict(json.loads(coeff_file.read_text())))
        dense = coeffs.levels
        per_level = [norm(NeedletCoeffs(tuple(lv if k == j else np.zeros_like(lv)
                                              for k, lv in enumerate(dense)), system.hash),
                          params, system) for j in range(len(dense))]
        assert sum(v > 0 for v in per_level) == 3
        want = {"space": space, "norm": norm(coeffs, params, system), "per_level": per_level,
                "params": {"s": 0.5, "rho": 0.5, "p": 1.5, "q": 3.0}}
        assert out == canonical_json(want) + "\n"

    @pytest.mark.parametrize("space,norm", [("F-cont", F_norm_cont), ("B-cont", B_norm_cont)])
    def test_continuous_norms_at_level_J_plus_1(self, capsys, tmp_path, system_config,
                                                space, norm):
        f = CoeffFn.random([0.5], 4, seed=6)
        coeff_file = tmp_path / "f.json"
        coeff_file.write_text(json.dumps(f.to_json_dict()))
        code, out, _ = run_main(["norms", "--space", space, "--s", "0.5", "--p", "1.5",
                                 "--q", "1", "--system", system_config, "--input",
                                 str(coeff_file)], capsys)
        assert code == 0
        payload = json.loads(out)
        system = system_from_config(load_config(system_config))
        assert payload["norm"] == norm(f, NormParams(0.5, 0.0, 1.5, 1.0), system, system.J + 1)
        assert payload["per_level"] == []


def test_arithmetic_error_exits_1(capsys, monkeypatch):
    def defect(n, alpha):
        raise FloatingPointError("recurrence overflow")

    monkeypatch.setattr(cli, "gauss_laguerre", defect)
    code, out, err = run_main(["quadrature", "--n", "4", "--alpha", "0"], capsys)
    assert code == 1 and out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"code": 1, "error": "recurrence overflow"}]


def _equivalence_rows(text):
    return [line.split(",") for line in text.splitlines()[1:]]


class TestEquivalenceReport:
    def test_space_F_with_infinite_q_runs_F_norms(self, capsys, system_config):
        args = ["equivalence-report", "--config", system_config, "--s", "0.3", "--q", "inf"]
        code_f, out_f, _ = run_main(args + ["--space", "F"], capsys)
        code_b, out_b, _ = run_main(args + ["--space", "B"], capsys)
        assert code_f == code_b == 0
        assert out_f != out_b
        cfg = load_config(system_config)
        system = system_from_config(cfg)
        corpus = make_test_corpus(system, count=20, seed=int(cfg["seed"]))
        params = NormParams(0.3, 0.0, 2.0, math.inf)
        rows = _equivalence_rows(out_f)
        assert rows
        for fid, cont, seq, _ in rows:
            f = corpus[int(fid)]
            assert float(seq) == f_norm_seq(analyze(system, f), params, system)
            assert float(cont) == F_norm_cont(f, params, system, system.J + 1)

    def test_space_F_with_infinite_p_is_usage_error(self, capsys, system_config):
        code, out, err = run_main(["equivalence-report", "--config", system_config,
                                   "--space", "F", "--p", "inf"], capsys)
        assert code == 2
        assert out == ""
        assert '"code":2' in err.splitlines()[-1]

    def test_width_gate(self, capsys, system_config):
        args = ["equivalence-report", "--config", system_config]
        code, out, _ = run_main(args, capsys)
        assert code == 0
        ratios = [float(r[3]) for r in _equivalence_rows(out)]
        assert max(ratios) / min(ratios) >= 1.0
        code, out_narrow, err = run_main(args + ["--max-width", "0.5"], capsys)
        assert code == 1
        assert out_narrow == out
        assert json.loads(err) == {"code": 1, "error": "failed suites: equivalence"}


class TestReport:
    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, err = run_main(["report", "--config",
                                 str(tmp_path / "absent.cfg")], capsys)
        assert code == 2

    def test_only_filter(self, capsys, tmp_path, system_config):
        out_dir = tmp_path / "bundle"
        code, _, _ = run_main(["report", "--config", system_config, "--only",
                               "lower-bound", "--out", str(out_dir)], capsys)
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert list(summary["suites"]) == ["lower-bound"]
        assert (out_dir / "config.resolved").exists()

    def test_config_with_zero_trials_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("alpha=0.5\nd=1\nJ=2\ntight=true\ntrials=0\n")
        out_dir = tmp_path / "bundle"
        code, out, err = run_main(["report", "--config", str(cfg), "--out", str(out_dir)],
                                  capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[-1]) == {"code": 2,
                                                    "error": "trials must be at least 1"}
        assert not out_dir.exists()

    def test_nikolskii_suite_is_seed_independent(self, capsys, tmp_path):
        # the sampled estimate this suite replaced failed its gate at config seeds 8 and 150
        texts = []
        for seed in (8, 150):
            cfg = tmp_path / f"seed{seed}.cfg"
            cfg.write_text(f"alpha=0.5\nd=1\nJ=3\ntight=true\nseed={seed}\n")
            out_dir = tmp_path / f"bundle{seed}"
            code, _, _ = run_main(["report", "--config", str(cfg), "--only", "nikolskii",
                                   "--out", str(out_dir)], capsys)
            assert code == 0
            texts.append((out_dir / "nikolskii.json").read_bytes())
        assert texts[0] == texts[1]

    def test_frame_verify_suite_is_seed_independent(self, capsys, tmp_path):
        texts = []
        for seed, trials in ((0, 4), (8, 20)):
            cfg = tmp_path / f"seed{seed}.cfg"
            cfg.write_text(f"alpha=0.5\nd=1\nJ=3\ntight=true\nseed={seed}\ntrials={trials}\n")
            out_dir = tmp_path / f"bundle{seed}"
            code, _, _ = run_main(["report", "--config", str(cfg), "--only", "frame-verify",
                                   "--out", str(out_dir)], capsys)
            assert code == 0
            texts.append((out_dir / "frame_verify.json").read_bytes())
        assert texts[0] == texts[1]

    def test_nikolskii_summary_names_the_exponents(self, capsys, tmp_path, system_config):
        # a failed run must say which exponent failed without opening nikolskii.json
        out_dir = tmp_path / "bundle"
        code, out, _ = run_main(["report", "--config", system_config, "--only", "nikolskii",
                                 "--out", str(out_dir)], capsys)
        assert code == 0
        fields = json.loads((out_dir / "summary.json").read_text())["suites"]["nikolskii"]
        rep = json.loads((out_dir / "nikolskii.json").read_text())
        names = ("exponent_plain", "exponent_weighted", "theory_exponent_plain",
                 "theory_exponent_weighted")
        assert set(fields) == {"pass", "tolerance", *names}
        assert all(fields[k] == rep[k] for k in names)
        assert fields["theory_exponent_plain"] == 0.75
        assert json.loads(out)["suites"]["nikolskii"] == fields

    def test_unknown_suite_rejected(self, capsys, system_config):
        code, _, err = run_main(["report", "--config", system_config, "--only",
                                 "bogus"], capsys)
        assert code == 2

    def test_standalone_diagnostics_write_bundle_bytes(self, capsys, tmp_path, system_config):
        bundle = tmp_path / "bundle"
        code, _, _ = run_main(["report", "--config", system_config, "--only",
                               "kernel-decay,lower-bound,frame-verify", "--out", str(bundle)],
                              capsys)
        assert code == 0
        # the fixture config: alpha=0.5 d=1 J=2 tight=true seed=3 trials=4, other keys default
        for argv, name in [
            (["kernel-decay", "--alpha", "0.5", "--n-list", "64,256"], "kernel_decay.csv"),
            (["lower-bound", "--alpha", "0.5"], "lower_bound.json"),
            (["frame-verify", "--J", "2", "--alpha", "0.5", "--tight"], "frame_verify.json"),
        ]:
            out_file = tmp_path / name
            assert main(argv + ["--out", str(out_file)]) == 0
            assert out_file.read_bytes() == (bundle / name).read_bytes()

    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path, system_config):
        bundles = [tmp_path / "one", tmp_path / "two"]
        for bundle in bundles:
            code, _, _ = run_main(["report", "--config", system_config, "--out", str(bundle)],
                                  capsys)
            assert code == 0
        files = [{p.name: p.read_bytes() for p in sorted(b.iterdir())
                  if p.name != "meta.sidecar.json"} for b in bundles]
        assert set(files[0]) == {"config.resolved", "summary.json", "kernel_decay.csv",
                                 "lower_bound.json", "nikolskii.json", "equivalence.csv",
                                 "frame_verify.json"}
        assert files[0] == files[1]

    def test_failed_suite_names_itself_on_stderr(self, capsys, tmp_path, system_config,
                                                 monkeypatch):
        # the frame suite's negative control stands in for a failing suite
        monkeypatch.setitem(cli.SUITES, "frame-verify",
                            functools.partial(cli.SUITES["frame-verify"], corrupt=True))
        bundle = tmp_path / "bundle"
        code, out, err = run_main(["report", "--config", system_config, "--only",
                                   "lower-bound,frame-verify", "--out", str(bundle)], capsys)
        assert code == 1
        assert json.loads(err) == {"code": 1, "error": "failed suites: frame-verify"}
        summary = json.loads((bundle / "summary.json").read_text())
        assert summary["exit_status"] == 1
        assert json.loads(out)["suites"] == summary["suites"]
        assert not summary["suites"]["frame-verify"]["pass"]

    def test_full_bundle(self, capsys, tmp_path, system_config):
        out_dir = tmp_path / "full"
        code, out, _ = run_main(["report", "--config", system_config, "--out",
                                 str(out_dir)], capsys)
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["suites"]) == {"kernel-decay", "lower-bound",
                                          "nikolskii", "equivalence",
                                          "frame-verify"}
        assert all(s["pass"] for s in summary["suites"].values())
        # determinism sidecar holds the only timestamp
        assert (out_dir / "meta.sidecar.json").exists()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "lagneed.cli", "quadrature",
                           "--n", "1", "--alpha", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nodes"] == [1.0]


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "lagneed.cli", "quadrature"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_runtime_never_imports_scipy(system_config, tmp_path):
    # with scipy blocked, report (all five suites) and a degree-3337 rule still
    # run, and importing the CLI loads no scipy module
    runs = [["report", "--config", system_config, "--out", str(tmp_path / "bundle")],
            ["quadrature", "--n", "3337", "--alpha", "0.5", "--out", str(tmp_path / "q.json")]]
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import lagneed.cli",
        "assert not [m for m, mod in sys.modules.items() if m.startswith('scipy') and mod]",
        *[f"assert lagneed.cli.main({argv!r}) == 0" for argv in runs],
    ])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-c", "import sys, lagneed.cli; "
                           "print([m for m in sys.modules if m.startswith('scipy')])"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"
