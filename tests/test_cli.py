import json
import math

import numpy as np
import pytest

from bam.cli import main


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sep_quad_config(**overrides):
    cfg = {
        "problem": {"name": "separable_quadratic"},
        "preset": "am",
        "solver": {"max_outer_iter": 200, "residual_tol": 1e-10},
    }
    cfg.update(overrides)
    return cfg


def with_strategies(specs):
    def mutate(cfg):
        del cfg["preset"]
        cfg["strategies"] = specs

    return mutate


def read_report(tmp_path, name="report.json"):
    with open(tmp_path / name) as fh:
        return json.load(fh)


class TestRun:
    def test_reaches_known_optimum(self, tmp_path):
        cfg_path = write_config(tmp_path, sep_quad_config())
        assert main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 0
        report = read_report(tmp_path)
        assert report["status"] == "residual-converged"
        assert report["phi"] == pytest.approx(4.0 / 3.0, abs=1e-8)
        assert report["certificate"]["pass"]

    def test_trace_csv_layout(self, tmp_path):
        cfg_path = write_config(tmp_path, sep_quad_config())
        main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"])
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "k,phi,phi_half,step_norm_sq,bregman_paid,residual,cum_step,inner_flag"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(2.0)  # objective at the start point
        ks = [int(l.split(",")[0]) for l in lines[1:]]
        assert ks == sorted(ks)
        phis = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))

    def test_requested_checks_pass(self, tmp_path):
        cfg = sep_quad_config(
            preset="plam",
            solver={"max_outer_iter": 300, "residual_tol": 1e-13},
            checks=[
                "monotone_descent",
                "sufficient_decrease",
                "residual_bound",
                "residual_vanishes",
                "critical_point",
                "gradcheck",
                "finite_length",
            ],
        )
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 0
        report = read_report(tmp_path)
        by_name = {c["name"]: c for c in report["checks"]}
        assert len(by_name) == 7
        assert all(c["status"] != "fail" for c in report["checks"])
        assert by_name["monotone_descent"]["status"] == "pass"
        assert by_name["critical_point"]["status"] == "pass"

    def test_failed_check_exits_2(self, tmp_path):
        # one sweep from the origin is far from criticality
        cfg = sep_quad_config(
            solver={"max_outer_iter": 1, "residual_tol": 0.0, "step_tol": 0.0},
            checks=["critical_point"],
        )
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 2

    def test_explicit_strategies(self, tmp_path):
        cfg = sep_quad_config()
        del cfg["preset"]
        cfg["strategies"] = [
            {"kind": "linearized", "alpha_rule": {"kind": "constant", "value": 4.0}},
            {"kind": "exact"},
        ]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 0
        assert read_report(tmp_path)["phi"] == pytest.approx(4.0 / 3.0, abs=1e-8)

    def test_x0_mapping(self, tmp_path):
        cfg = sep_quad_config()
        cfg["problem"]["x0"] = {"y": [1 / 3], "z": [-1 / 3]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 0
        assert read_report(tmp_path)["sweeps"] == 1

    def test_sparse_group_with_group_size(self, tmp_path):
        cfg = {
            "problem": {
                "name": "sparse_group",
                "parameters": {"n1": 20, "n2": 15, "group_size": 5},
                "seed": 3,
            },
            "preset": "plam",
            "solver": {"max_outer_iter": 500, "residual_tol": 1e-8},
        }
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 0


class TestConfigRejection:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.update(preset="sgd"),
            lambda c: c.update(preset=["am"]),
            lambda c: c.update(extra_field=1),
            lambda c: c["problem"].update(name="unknown_problem"),
            lambda c: c["problem"].update(typo=True),
            lambda c: c["solver"].update(maxiter=5),
            lambda c: c.update(checks=["not_a_check"]),
            lambda c: c.update(
                strategies=[{"kind": "exact"}, {"kind": "exact"}]
            ),  # both preset and strategies
            lambda c: c["problem"].update(x0="nowhere"),
            lambda c: c["solver"].update(max_outer_iter=0),
        ],
    )
    def test_bad_configs_exit_1(self, tmp_path, mutate):
        cfg = sep_quad_config()
        mutate(cfg)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 1

    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group", "parameters": {"n1": 4, "n2": 4, "group_size": 0}}),
                "group_size 0", id="group-size-0",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group",
                    "parameters": {"n1": 4, "n2": 4, "a_matrix_csv": "absent.csv"}}),
                "absent.csv", id="missing-csv",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group",
                    "parameters": {"n1": 4, "n2": 3, "groups": [[0, 0, 1], [2]]}}),
                "index 0 occurs 2 times", id="groups-repeat-index",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group",
                    "parameters": {"n1": 4, "n2": 4, "group_size": 3, "groups": [[0, 1], [2, 3]]}}),
                "either 'groups' or 'group_size'", id="groups-and-group-size",
            ),
            pytest.param(lambda c: c["problem"].update(parameters=[1, 2]),
                         "problem.parameters must be a JSON object", id="parameters-list"),
            pytest.param(lambda c: c["problem"].update(name=["separable_quadratic"]),
                         "unknown problem name", id="name-list"),
            pytest.param(lambda c: c.pop("problem"), "problem must be a JSON object",
                         id="no-problem"),
            pytest.param(lambda c: c.update(solver=[1]), "solver must be a JSON object",
                         id="solver-list"),
            pytest.param(lambda c: c.update(output=["trace.csv"]), "output must be a JSON object",
                         id="output-list"),
            pytest.param(lambda c: c.update(output={"trace": 5}), "output file names",
                         id="output-number"),
            pytest.param(lambda c: c.update(output={"trace": "a.txt", "report": "a.txt"}),
                         "the trace and report names give the same file", id="output-same-name"),
            pytest.param(lambda c: c.update(output={"trace": ""}),
                         "must give a file in an existing directory", id="output-empty-name"),
            pytest.param(lambda c: c.update(output={"report": "."}),
                         "must give a file in an existing directory", id="output-directory"),
            pytest.param(lambda c: c.update(output={"trace": "absent/trace.csv"}),
                         "must give a file in an existing directory", id="output-missing-directory"),
            pytest.param(lambda c: c["problem"].update(x0={"y": ["a"], "z": [0.0]}),
                         "bad x0 mapping", id="x0-text"),
            pytest.param(lambda c: c["problem"].update(x0={"y": [0.5], "z": [0], "w": [3]}),
                         "x0 mapping must give exactly the blocks", id="x0-unknown-block"),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group", "parameters": {"n1": 6.5, "n2": 4, "group_size": 2}}),
                "n1 must be an integer, got 6.5", id="n1-float",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group", "parameters": {"n1": 6, "n2": 4, "group_size": 2.9}}),
                "group_size must be an integer, got 2.9", id="group-size-float",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "multiblock_quadratic", "parameters": {"n_blocks": 4.9}}),
                "n_blocks must be an integer, got 4.9", id="n-blocks-float",
            ),
            pytest.param(with_strategies(["exact", "exact"]),
                         "strategies[0] must be a JSON object", id="strategy-string"),
            pytest.param(with_strategies([{"alpha_rule": None}, {}]),
                         "strategies[0].alpha_rule must be a JSON object", id="alpha-rule-null"),
            pytest.param(with_strategies([{}, {}]), "unknown strategy kind None",
                         id="strategy-no-kind"),
            pytest.param(
                with_strategies([
                    {"kind": "augmented", "alpha_rule": {"kind": "constant", "value": "big"}},
                    {"kind": "exact"},
                ]),
                "bad strategies[0].alpha_rule", id="alpha-text",
            ),
            pytest.param(lambda c: c.update(presets=["am", "aam"]), "['presets']",
                         id="presets-outside-compare"),
            pytest.param(lambda c: c.update(checks="monotone_descent"),
                         "'checks' must be a list", id="checks-string"),
            pytest.param(lambda c: c["solver"].update(max_outer_iter=1.5),
                         "max_outer_iter must be an integer", id="max-outer-iter-float"),
            pytest.param(lambda c: c["solver"].update(inner_max_iter=0),
                         "inner_max_iter must be an integer", id="inner-max-iter-0"),
            pytest.param(lambda c: c["solver"].update(record_every=5),
                         "unknown field(s) in solver: ['record_every']", id="record-every"),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group", "parameters": {"n1": 4, "n2": 4, "lambda1": True}}),
                "lambda1 must be a number, got True", id="lambda1-bool",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group", "parameters": {"n1": 4, "n2": 4, "lambda2": "0.3"}}),
                "lambda2 must be a number, got '0.3'", id="lambda2-text",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group", "parameters": {"n1": 4, "n2": 4}, "seed": True}),
                "seed must be an integer, got True", id="sparse-group-seed-bool",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "multiblock_quadratic", "parameters": {"n_blocks": 3}, "seed": True}),
                "seed must be an integer, got True", id="multiblock-seed-bool",
            ),
            pytest.param(lambda c: c["solver"].update(residual_tol=True),
                         "tolerances must be nonnegative numbers", id="residual-tol-bool"),
            pytest.param(lambda c: c["solver"].update(step_tol=False, inner_tol=True),
                         "tolerances must be nonnegative numbers", id="step-inner-tol-bool"),
            pytest.param(
                with_strategies([
                    {"kind": "augmented", "alpha_rule": {"kind": "constant", "value": True}},
                    {"kind": "exact"},
                ]),
                "bad strategies[0].alpha_rule: value must be a number, got True", id="alpha-bool",
            ),
            pytest.param(
                with_strategies([
                    {"kind": "augmented", "alpha_rule": {"kind": "constant", "value": math.nan}},
                    {"kind": "exact"},
                ]),
                "NaN is not allowed", id="alpha-nan",
            ),
            pytest.param(
                with_strategies([
                    {"kind": "linearized",
                     "alpha_rule": {"kind": "lipschitz_factor", "value": math.inf}},
                    {"kind": "exact"},
                ]),
                "Infinity is not allowed", id="alpha-infinity",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group", "parameters": {"n1": 4, "n2": 4, "lambda1": -math.inf}}),
                "-Infinity is not allowed", id="lambda1-minus-infinity",
            ),
            pytest.param(
                lambda c: c.update(problem={
                    "name": "sparse_group", "parameters": {"n1": 4, "n2": 4, "lambda1": 10**400}}),
                "lambda1 must be a number, got 1000", id="lambda1-huge-int",
            ),
            pytest.param(
                with_strategies([
                    {"kind": "augmented", "alpha_rule": {"kind": "constant", "value": 10**400}},
                    {"kind": "exact"},
                ]),
                "bad strategies[0].alpha_rule: value must be a number", id="alpha-huge-int",
            ),
            pytest.param(lambda c: c["problem"].update(x0={"y": [10**400], "z": [0.0]}),
                         "bad x0 mapping", id="x0-huge-int"),
            pytest.param(
                with_strategies([
                    {"kind": "exact", "alpha_rule": {"kind": "constant", "value": 5.0}},
                    {"kind": "exact"},
                ]),
                "bad strategies[0]: a strategy of kind 'exact' must not have an alpha rule",
                id="exact-with-alpha-rule",
            ),
            pytest.param(
                with_strategies([{"kind": "exact"}, {"kind": "augmented"}]),
                "bad strategies[1]: a strategy of kind 'augmented' needs an alpha rule",
                id="augmented-without-alpha-rule",
            ),
            pytest.param(
                with_strategies([{"kind": "custom"}, {"kind": "exact"}]),
                "bad strategies[0]: a strategy of kind 'custom' needs a generator factory",
                id="custom-without-factory",
            ),
        ],
    )
    def test_malformed_configs_exit_1_with_a_message(self, tmp_path, caplog, mutate, message):
        cfg = sep_quad_config()
        mutate(cfg)
        cfg_path = write_config(tmp_path, cfg)
        for command in ("run", "check"):
            caplog.clear()
            assert main([command, cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 1
            assert [r.levelname for r in caplog.records] == ["ERROR"]
            assert message in caplog.records[0].getMessage()
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]

    def test_out_dir_naming_a_file_exits_1(self, tmp_path, caplog):
        cfg_path = write_config(tmp_path, sep_quad_config())
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", cfg_path, "--out-dir", str(taken), "--quiet"]) == 1
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert "cannot use --out-dir" in caplog.records[0].getMessage()

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_a_matrix_exits_1(self, tmp_path, caplog, entry):
        csv = tmp_path / "A.csv"
        csv.write_text(f"1,2\n{entry},4\n5,6\n")
        cfg = sep_quad_config(problem={
            "name": "sparse_group", "parameters": {"n1": 2, "n2": 3, "a_matrix_csv": str(csv)}})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 1
        assert [r.levelname for r in caplog.records] == ["ERROR"]
        assert "A must be finite" in caplog.records[0].getMessage()
        assert not (tmp_path / "trace.csv").exists()

    def test_linearized_step_weight_too_small(self, tmp_path, caplog):
        cfg = sep_quad_config()
        del cfg["preset"]
        cfg["strategies"] = [
            {"kind": "linearized", "alpha_rule": {"kind": "lipschitz_factor", "value": 0.9}},
            {"kind": "exact"},
        ]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 1
        assert any("convexity" in rec.message for rec in caplog.records)

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json"), "--quiet"]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--quiet"]) == 1


class TestCompare:
    def test_two_presets_reach_same_optimum(self, tmp_path):
        cfg = sep_quad_config()
        del cfg["preset"]
        cfg["presets"] = ["am", "aam"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["compare", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 0
        report = read_report(tmp_path)
        assert [row["preset"] for row in report["summary"]] == ["am", "aam"]
        for row in report["summary"]:
            assert row["status"] == "residual-converged"
            assert row["final_phi"] == pytest.approx(4.0 / 3.0, abs=1e-8)
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert lines[0].startswith("preset,k,phi")
        presets_seen = {l.split(",")[0] for l in lines[1:]}
        assert presets_seen == {"am", "aam"}

    def test_single_preset_rejected(self, tmp_path):
        cfg = sep_quad_config()
        del cfg["preset"]
        cfg["presets"] = ["am"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["compare", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [("preset", "aam"), ("strategies", [{"kind": "exact"}] * 2), ("checks", ["critical_point"])],
    )
    def test_run_only_keys_rejected(self, tmp_path, caplog, key, value):
        cfg = sep_quad_config(solver={"max_outer_iter": 1})
        del cfg["preset"]
        cfg["presets"] = ["am", "aam"]
        cfg[key] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main(["compare", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 1
        assert f"['{key}']" in caplog.records[-1].getMessage()
        assert not (tmp_path / "trace.csv").exists()

    def test_duplicate_presets_rejected_before_running(self, tmp_path, caplog):
        cfg = sep_quad_config()
        del cfg["preset"]
        cfg["presets"] = ["am", "am"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["compare", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 1
        assert "presets must be distinct" in caplog.records[-1].getMessage()
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_unknown_preset_rejected_before_running(self, tmp_path):
        cfg = sep_quad_config()
        del cfg["preset"]
        cfg["presets"] = ["am", "sgd"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["compare", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 1
        assert not (tmp_path / "trace.csv").exists()


class TestCheck:
    def test_builtin_problem_passes(self, tmp_path):
        cfg = sep_quad_config(
            preset="plam", solver={"max_outer_iter": 300, "residual_tol": 1e-13}
        )
        cfg_path = write_config(tmp_path, cfg)
        assert main(["check", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 0
        report = read_report(tmp_path)
        names = [c["name"] for c in report["checks"]]
        assert "gradcheck" in names
        assert "prox_brute_force" not in names  # acceptance 05 tests the prox maps
        assert any(n.startswith("generator_convexity") for n in names)
        declared = {c["name"]: c["status"] for c in report["checks"] if c["name"].startswith("lipschitz")}
        assert declared == {"lipschitz_declared[y]": "pass", "lipschitz_declared[z]": "pass"}

    def test_seeded_gradient_fault_is_caught(self, tmp_path):
        cfg = sep_quad_config()
        cfg["problem"]["name"] = "separable_quadratic_badgrad"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["check", cfg_path, "--out-dir", str(tmp_path), "--quiet"]) == 2
        report = read_report(tmp_path)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["gradcheck"]["status"] == "fail"


class TestDeterminism:
    def test_identical_runs_produce_identical_bytes(self, tmp_path):
        cfg = {
            "problem": {
                "name": "sparse_group",
                "parameters": {"n1": 20, "n2": 15, "group_size": 5},
                "seed": 5,
            },
            "preset": "plam",
            "solver": {"max_outer_iter": 150, "residual_tol": 0.0, "step_tol": 0.0},
        }
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            cfg_path = write_config(d, cfg)
            assert main(["run", cfg_path, "--out-dir", str(d), "--quiet"]) == 0
            outs.append(((d / "trace.csv").read_bytes(), (d / "report.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_compare_runs_produce_identical_bytes(self, tmp_path):
        cfg = {
            "problem": {"name": "multiblock_quadratic", "parameters": {"n_blocks": 5}, "seed": 2},
            "presets": ["am", "plam", "aam", "am-plam", "plam-am"],
            "solver": {"max_outer_iter": 300, "residual_tol": 1e-10, "step_tol": 0.0},
        }
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            cfg_path = write_config(d, cfg)
            assert main(["compare", cfg_path, "--out-dir", str(d), "--quiet"]) == 0
            outs.append(((d / "trace.csv").read_bytes(), (d / "report.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_seed_override_changes_instance(self, tmp_path):
        cfg = {
            "problem": {
                "name": "sparse_group",
                "parameters": {"n1": 20, "n2": 15, "group_size": 5},
                "seed": 5,
            },
            "preset": "plam",
            "solver": {"max_outer_iter": 1, "residual_tol": 0.0, "step_tol": 0.0},
        }
        phis = {}
        for seed in (5, 6):
            d = tmp_path / str(seed)
            d.mkdir()
            cfg_path = write_config(d, cfg)
            assert main(["run", cfg_path, "--out-dir", str(d), "--seed", str(seed), "--quiet"]) == 0
            with open(d / "report.json") as fh:
                phis[seed] = json.load(fh)["phi"]
        assert phis[5] != phis[6]
