"""Scenario files and the command-line interface."""

import dataclasses
import importlib.metadata as md
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.cli import main
from bsde_stackelberg.scenario import load_scenario, scenario_from_dict

from conftest import scenario_document, singular_stage_document

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def hand_doc(hand_spec_coarse):
    return scenario_document(hand_spec_coarse)


class TestScenarioParsing:
    def test_round_trip_constant(self, tmp_path, hand_spec_coarse, hand_doc):
        scn = load_scenario(write_scenario(tmp_path, hand_doc))
        spec = scn.spec
        assert spec.grid == hand_spec_coarse.grid
        for name in ("A", "B1", "B2", "C", "Q1", "R1", "S1", "Q2", "R2", "S2"):
            np.testing.assert_array_equal(
                getattr(spec, name).values, getattr(hand_spec_coarse, name).values
            )
        np.testing.assert_array_equal(spec.G1, hand_spec_coarse.G1)
        np.testing.assert_array_equal(spec.xi.a, hand_spec_coarse.xi.a)
        assert scn.mode == "strict"
        assert len(scn.sha256) == 64

    def test_nodes_form_interpolates(self, hand_doc):
        hand_doc["coefficients"]["A"] = {"nodes": [[0.0, [0.0]], [1.0, [2.0]]]}
        scn = scenario_from_dict(hand_doc)
        np.testing.assert_allclose(
            scn.spec.A.values[:, 0, 0], 2.0 * scn.spec.grid.nodes, atol=1e-14
        )

    def test_steps_override(self, hand_doc):
        scn = scenario_from_dict(hand_doc, steps=64)
        assert scn.spec.grid.steps == 64

    def test_u2_parsing(self, hand_doc):
        hand_doc["u2"] = {"const": {"constant": [0.3]}, "lin": {"constant": [0.1]}}
        scn = scenario_from_dict(hand_doc)
        assert scn.u2.u_const.values[0, 0, 0] == 0.3
        assert scn.u2.u_lin.values[0, 0, 0] == 0.1

    def test_u2_defaults_to_zero(self, hand_doc):
        scn = scenario_from_dict(hand_doc)
        assert np.max(np.abs(scn.u2.u_const.values)) == 0.0
        assert np.max(np.abs(scn.u2.u_lin.values)) == 0.0

    def test_market_parsing(self, hand_doc, market):
        hand_doc["market"] = {
            "r": {"constant": [0.03]},
            "mu": {"constant": [0.08]},
            "sigma": {"constant": [0.25]},
            "R1": {"constant": [1.0]},
            "R2": {"constant": [1.5]},
            "G1": 1.0,
            "G2": 0.8,
        }
        scn = scenario_from_dict(hand_doc)
        assert scn.market is not None
        assert scn.market.theta().values[0, 0, 0] == pytest.approx(0.2)

    def test_bad_mode_rejected(self, hand_doc):
        hand_doc["mode"] = "sloppy"
        with pytest.raises(bs.SpecError):
            scenario_from_dict(hand_doc)

    def test_coefficient_without_form_rejected(self, hand_doc):
        hand_doc["coefficients"]["A"] = {"flat": [0.0]}
        with pytest.raises(bs.SpecError):
            scenario_from_dict(hand_doc)

    @pytest.mark.parametrize(
        "nodes",
        [
            [[0.2, [0.0]], [0.6, [1.0]]],  # covers neither end
            [[0.2, [0.0]], [1.0, [1.0]]],  # starts after 0
            [[0.0, [0.0]], [0.6, [1.0]]],  # ends before T
            [[0.0, [0.0]], [0.5, [1.0]], [0.5, [2.0]], [1.0, [0.0]]],  # repeated time
            [[0.0, [1.0]]],  # a single node
            [],
        ],
    )
    def test_bad_node_times_rejected(self, hand_doc, nodes):
        hand_doc["coefficients"]["A"] = {"nodes": nodes}
        with pytest.raises(bs.SpecError):
            scenario_from_dict(hand_doc)

    def test_nodes_beyond_horizon_accepted(self, hand_doc):
        hand_doc["coefficients"]["A"] = {"nodes": [[-1.0, [-1.0]], [2.0, [2.0]]]}
        scn = scenario_from_dict(hand_doc)
        np.testing.assert_allclose(scn.spec.A.values[:, 0, 0], scn.spec.grid.nodes, atol=1e-14)

    def test_single_brownian_dimension_accepted(self, hand_doc):
        assert hand_doc["dims"]["d"] == 1
        assert scenario_from_dict(hand_doc).spec.dims.n == 1
        del hand_doc["dims"]["d"]
        assert scenario_from_dict(hand_doc).spec.dims.n == 1

    @pytest.mark.parametrize("d", [2, 0])
    def test_other_brownian_dimension_rejected(self, hand_doc, d):
        hand_doc["dims"]["d"] = d
        with pytest.raises(bs.SpecError):
            scenario_from_dict(hand_doc)


class TestCliValidate:
    def test_pass_exit_zero(self, tmp_path, hand_doc, capsys):
        scn = write_scenario(tmp_path, hand_doc)
        out = tmp_path / "out"
        rc = main(["validate", "--scenario", str(scn), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["scenario_sha256"] == load_scenario(scn).sha256

    def test_strict_failure_exit_one_names_location(self, tmp_path, hand_doc):
        hand_doc["coefficients"]["Q1"] = {"constant": [-1.0]}
        scn = write_scenario(tmp_path, hand_doc)
        out = tmp_path / "out"
        rc = main(["validate", "--scenario", str(scn), "--out", str(out)])
        assert rc == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        assert any("Q1" in v["location"] for v in summary["violations"])

    def test_missing_file_exit_three(self, tmp_path):
        rc = main(["validate", "--scenario", str(tmp_path / "nope.json")])
        assert rc == 3

    def test_malformed_json_exit_three(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--scenario", str(path)]) == 3

    def test_incomplete_document_exit_one(self, tmp_path):
        path = tmp_path / "thin.json"
        path.write_text(json.dumps({"dims": {"n": 1, "d": 1, "k": 1}}))
        assert main(["validate", "--scenario", str(path)]) == 1

    def test_node_times_not_covering_horizon_exit_one(self, tmp_path, hand_doc, capsys):
        hand_doc["coefficients"]["A"] = {"nodes": [[0.2, [0.0]], [0.6, [1.0]]]}
        scn = write_scenario(tmp_path, hand_doc)
        assert main(["validate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "node times" in err

    @pytest.mark.parametrize("command", ["validate", "follower"])
    def test_two_brownian_dimensions_exit_one(self, tmp_path, hand_doc, capsys, command):
        hand_doc["dims"]["d"] = 2
        hand_doc["terminal"]["b"] = [[0.4, 0.1]]
        scn = write_scenario(tmp_path, hand_doc)
        rc = main([command, "--scenario", str(scn), "--out", str(tmp_path / "o"), "--paths", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "dims.d" in err and "Traceback" not in err


    @pytest.mark.parametrize("paths", ["0", "-3"])
    @pytest.mark.parametrize("command", ["equilibrium", "follower", "finance"])
    def test_paths_below_one_exit_one(self, tmp_path, capsys, command, paths):
        out = tmp_path / "o"
        rc = main([
            command, "--scenario", str(SCENARIOS / "finance.json"), "--out", str(out),
            "--steps", "16", "--paths", paths,
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"--paths must be at least 1, got {paths}\n"
        assert not out.exists()

    @pytest.mark.parametrize("document", [[1, 2], "scenario", None], ids=["list", "str", "null"])
    @pytest.mark.parametrize("command", ["validate", "follower"])
    def test_non_object_scenario_exit_one(self, tmp_path, capsys, command, document):
        out = tmp_path / "o"
        scn = write_scenario(tmp_path, document)
        rc = main([command, "--scenario", str(scn), "--out", str(out), "--paths", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("bad scenario: a scenario must be a JSON object")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("keys,value,field", [
        (("coefficients", "A"), 5, "coefficients.A must be an object with 'constant' or 'nodes'"),
        (("dims",), 1, "dims must be an object"),
        (("horizon",), None, "horizon must be a number, got null"),
        (("coefficients", "A"), {"nodes": [5, [1.0, [0.0]]]}, "coefficients.A.nodes must be"),
        (("u2",), 3, "u2 must be an object"),
        (("coefficients",), [1.0, 2.0], "coefficients must be an object"),
        (("steps",), 2.5, "steps must be a positive integer"),  # not truncated to 2 steps
        (("steps",), True, "steps must be a positive integer"),  # a JSON boolean is no integer
    ], ids=["A-number", "dims-number", "horizon-null", "nodes-entry", "u2-number",
            "coefficients-list", "steps-fraction", "steps-boolean"])
    def test_malformed_field_exit_one(self, tmp_path, hand_doc, capsys, keys, value, field):
        target = hand_doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        out = tmp_path / "o"
        scn = write_scenario(tmp_path, hand_doc)
        rc = main(["equilibrium", "--scenario", str(scn), "--out", str(out), "--paths", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"bad scenario: {field}")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["0", "-5"])
    @pytest.mark.parametrize("command", ["validate", "follower", "equilibrium"])
    def test_steps_below_one_exit_one(self, tmp_path, capsys, command, steps):
        # --steps 0 is an override like any other, not "use the scenario's steps"
        out = tmp_path / "o"
        rc = main([
            command, "--scenario", str(SCENARIOS / "stochastic.json"), "--out", str(out),
            "--steps", steps, "--paths", "2",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"bad scenario: steps must be a positive integer, got {steps}\n"
        assert not out.exists()

    # Philox keys each path's stream on (seed << 64) | path, below 2**128
    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "two_to_64"])
    @pytest.mark.parametrize("command", ["follower", "equilibrium", "finance", "verify"])
    def test_seed_out_of_range_exit_one(self, tmp_path, capsys, command, seed):
        out = tmp_path / "o"
        scenario = "finance.json" if command == "finance" else "hand_solvable.json"
        rc = main([
            command, "--scenario", str(SCENARIOS / scenario), "--out", str(out),
            "--steps", "16", "--paths", "2", "--seed", str(seed),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"--seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["zero", "largest"])
    def test_seed_range_ends_accepted(self, tmp_path, seed):
        rc = main([
            "follower", "--scenario", str(SCENARIOS / "stochastic.json"),
            "--out", str(tmp_path / "o"), "--steps", "16", "--paths", "2", "--seed", str(seed),
        ])
        assert rc == 0

    @pytest.mark.parametrize("steps", ["3", "1"])
    def test_riccati_below_four_steps_exit_one(self, tmp_path, capsys, steps):
        # the Riccati residual's central differences need N >= 4
        out = tmp_path / "o"
        rc = main([
            "riccati", "--scenario", str(SCENARIOS / "hand_solvable.json"), "--out", str(out),
            "--steps", steps,
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"riccati needs at least 4 steps, got {steps}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dims", [{"n": 1, "k": 1, "m": 1}, {"k": 1}], ids=["unknown", "no_n"])
    @pytest.mark.parametrize("command", ["validate", "follower"])
    def test_bad_dims_keys_exit_one(self, tmp_path, hand_doc, capsys, command, dims):
        hand_doc["dims"] = dims
        scn = write_scenario(tmp_path, hand_doc)
        rc = main([command, "--scenario", str(scn), "--out", str(tmp_path / "o"), "--paths", "4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "'m'" in err if "m" in dims else "'n'" in err


class TestCliPipelines:
    def test_invalid_scenario_blocks_solver_commands(self, tmp_path, hand_doc):
        hand_doc["coefficients"]["R1"] = {"constant": [-1.0]}
        scn = write_scenario(tmp_path, hand_doc)
        rc = main(["riccati", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_riccati_artifacts(self, tmp_path, hand_doc):
        scn = write_scenario(tmp_path, hand_doc)
        out = tmp_path / "out"
        rc = main(["riccati", "--scenario", str(scn), "--out", str(out)])
        assert rc == 0
        for name in ("p1", "p2", "pi1", "pi2"):
            assert (out / f"riccati_{name}.csv").exists()
        solv = json.loads((out / "solvability.json").read_text())
        assert solv["closed_form_applicable"] is True
        assert solv["pi1"]["satisfied"] and solv["pi2"]["satisfied"]
        summary = json.loads((out / "summary.json").read_text())
        assert max(summary["residual_max"].values()) < 1e-3

    def test_riccati_closed_forms_take_the_clis_c_zero_test(self, tmp_path, capsys):
        # C = 9.9e-13 passes the C = 0 test (max |C| < 1e-12); with G1 = 2,
        # D1-hat = P2 C reaches 1.98e-12, which the closed forms once tested
        # as well: riccati ended on a ValueError traceback
        doc = json.loads((SCENARIOS / "hand_solvable.json").read_text())
        doc["coefficients"]["C"] = {"constant": [9.9e-13]}
        doc["weights"]["G1"] = [[2.0]]
        out = tmp_path / "o"
        rc = main([
            "riccati", "--scenario", str(write_scenario(tmp_path, doc)), "--out", str(out),
            "--steps", "32",
        ])
        assert rc == 0 and capsys.readouterr().err == ""
        solv = json.loads((out / "solvability.json").read_text())
        assert solv["closed_form_applicable"] is True
        assert solv["pi1"]["satisfied"] and solv["pi2"]["satisfied"]

    def test_follower_summary(self, tmp_path, hand_doc):
        scn = write_scenario(tmp_path, hand_doc)
        out = tmp_path / "out"
        rc = main([
            "follower", "--scenario", str(scn), "--out", str(out),
            "--paths", "4", "--seed", "0",
        ])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["J1"]["mean"] == pytest.approx(0.25, abs=1e-4)
        assert summary["terminal_error_max"] < 1e-10
        assert (out / "paths_follower.csv").exists()

    def test_leader_and_equilibrium_alias(self, tmp_path, hand_doc):
        scn = write_scenario(tmp_path, hand_doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rc_a = main([
            "leader", "--scenario", str(scn), "--out", str(out_a),
            "--paths", "4", "--seed", "0",
        ])
        rc_b = main([
            "equilibrium", "--scenario", str(scn), "--out", str(out_b),
            "--paths", "4", "--seed", "0",
        ])
        assert rc_a == rc_b == 0
        assert (out_a / "summary.json").read_text() == (out_b / "summary.json").read_text()
        summary = json.loads((out_a / "summary.json").read_text())
        assert summary["stationarity"]["leader"] < 1e-8
        assert summary["terminal_error_max"] < 1e-10

    def test_reruns_byte_identical(self, tmp_path, hand_doc):
        scn = write_scenario(tmp_path, hand_doc)
        texts = []
        for name in ("x", "y"):
            out = tmp_path / name
            main([
                "leader", "--scenario", str(scn), "--out", str(out),
                "--paths", "8", "--seed", "7",
            ])
            texts.append(
                ((out / "summary.json").read_bytes(), (out / "paths_leader.csv").read_bytes())
            )
        assert texts[0] == texts[1]

    def test_divergent_riccati_exit_two(self, tmp_path):
        # Q1 large and G1 large: P1' blows past the norm guard
        spec = bs.make_constant_spec(
            10.0, 200,
            A=2.0, B1=0.0, B2=1.0, C=0.0,
            Q1=5.0, R1=1.0, S1=0.0, G1=5.0,
            Q2=1.0, R2=1.0, S2=0.0, G2=1.0,
            a=1.0, b=0.0,
        )
        scn = write_scenario(tmp_path, scenario_document(spec))
        rc = main(["riccati", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestCliFinance:
    def test_requires_market_section(self, tmp_path, hand_doc):
        scn = write_scenario(tmp_path, hand_doc)
        rc = main(["finance", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_runs_with_market(self, tmp_path, hand_doc):
        hand_doc["mode"] = "permissive"
        hand_doc["terminal"] = {"a": [1.0], "b": [[0.3]]}
        hand_doc["market"] = {
            "r": {"constant": [0.03]},
            "mu": {"constant": [0.08]},
            "sigma": {"constant": [0.25]},
            "R1": {"constant": [1.0]},
            "R2": {"constant": [1.5]},
            "G1": 1.0,
            "G2": 0.8,
        }
        scn = write_scenario(tmp_path, hand_doc, "market.json")
        out = tmp_path / "out"
        rc = main([
            "finance", "--scenario", str(scn), "--out", str(out),
            "--paths", "500", "--seed", "1", "--steps", "50",
        ])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["initial_reserve"] == pytest.approx(summary["Y0"][1])
        gaps = np.abs(np.array(summary["dual_check"]["gap"]))
        sigmas = 3.0 * np.array(summary["dual_check"]["stderr"])
        assert np.all(gaps < np.maximum(sigmas, 1e-4))
        assert (out / "paths_finance.csv").exists()


class TestCliVerify:
    def test_hand_scenario_passes_strict(self, tmp_path, hand_doc):
        scn = write_scenario(tmp_path, hand_doc)
        out = tmp_path / "out"
        rc = main(["verify", "--scenario", str(scn), "--out", str(out), "--seed", "0"])
        assert rc == 0
        oracle = json.loads((out / "oracle.json").read_text())
        assert oracle["follower"]["rel_gap"] < 1e-3
        assert oracle["leader"]["rel_gap"] < 1e-2

    def test_costs_equal_the_streamed_commands(self, tmp_path):
        # verify's one 2-path bundle against the equilibrium and follower
        # commands' streamed summaries on the same 2 paths: the same costs
        common = ["--scenario", str(SCENARIOS / "hand_solvable.json"), "--steps", "128"]
        common += ["--seed", "9", "--paths", "2"]
        for command in ("verify", "equilibrium", "follower"):
            assert main([command, *common, "--out", str(tmp_path / command)]) == 0
        oracle = json.loads((tmp_path / "verify" / "oracle.json").read_text())
        leader = json.loads((tmp_path / "equilibrium" / "summary.json").read_text())
        follower = json.loads((tmp_path / "follower" / "summary.json").read_text())
        assert oracle["leader"]["pipeline_cost"] == leader["J2"]["mean"]
        assert oracle["follower"]["pipeline_cost"] == follower["J1"]["mean"]

    def test_stochastic_terminal_rejected(self, tmp_path, stochastic_spec):
        scn = write_scenario(tmp_path, scenario_document(stochastic_spec, mode="permissive"))
        rc = main(["verify", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_stochastic_u2_rejected(self, tmp_path, hand_doc, capsys):
        # the follower oracle solves against u2's constant part only: before this
        # guard a u2.lin of 2 moved the follower's rel_gap from 2.6e-10 to 8.3e-3
        # at --steps 64, and verify failed on a gap that means nothing
        hand_doc["u2"] = {"const": {"constant": [0.0]}, "lin": {"constant": [2.0]}}
        scn = write_scenario(tmp_path, hand_doc)
        out = tmp_path / "o"
        assert main(["verify", "--scenario", str(scn), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "u2.lin = 0" in err
        assert not out.exists()

    def test_multiplicative_noise_rejected(self, tmp_path, capsys):
        # the oracles are only upper bounds when C != 0: J1 = 0.2388 here
        # against the oracle's 0.25, which used to fail as a false gap
        spec = bs.make_constant_spec(
            1.0, 200,
            A=0.0, B1=1.0, B2=1.0, C=0.5,
            Q1=0.0, R1=1.0, S1=0.5, G1=1.0,
            Q2=0.0, R2=1.0, S2=0.0, G2=1.0,
            a=1.0, b=0.0,
        )
        scn = write_scenario(tmp_path, scenario_document(spec))
        out = tmp_path / "o"
        assert main(["verify", "--scenario", str(scn), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "C = 0" in err
        assert not out.exists()


def doubled_decoupling(original):
    """The path kernel's one decoupling inverse (I + Pi1 Pi2)^-1, and with it its
    transpose (I + Pi2 Pi1)^-1, scaled by 2: X and Y double, so the feedback table
    and its maximum-principle form part by R^-1 B2h^T varphi-tilde, at either level
    (the follower's system has Pi1 = P1 and Pi2 = P2)."""

    def patched(m, t, label):
        inverse = original(m, t, label)
        return 2.0 * inverse if label == "(I + Pi1 Pi2)" else inverse

    return patched


def shifted_read_X(original):
    """The path kernel with its first tilde-varphi row of read_X shifted by 1: X no
    longer equals Pi2 Y + varphi-tilde, at either level."""

    def patched(sys, pi1, pi2):
        kernel = original(sys, pi1, pi2)
        read_X = kernel.read_X.copy()
        read_X[:, 0] += 1.0
        return dataclasses.replace(kernel, read_X=read_X)

    return patched


def shifted_leader_read_u(original):
    """The leader's path kernel (dimension 2n; the follower's has n) with the 1 row
    of its feedback table read_u shifted by 1e-3: u2 no longer solves the
    leader's maximum-principle condition, and J2, a form on read_u, moves."""

    def patched(sys, pi1, pi2):
        kernel = original(sys, pi1, pi2)
        if sys.dim == sys.n:
            return kernel
        read_u = kernel.read_u.copy()
        read_u[:, -1] += 1e-3
        return dataclasses.replace(kernel, read_u=read_u)

    return patched


COMMANDS = (
    ("follower", None),
    ("verify", None),
    ("leader", None),
    ("equilibrium", None),
    ("finance", "finance.json"),
)

# (command, shipped scenario or None for the hand game, module, attribute, breakage)
CONSISTENCY_FAILURES = [
    pytest.param(command, scenario, "stacked", attribute, breakage, id=command + suffix)
    for attribute, breakage, suffix, commands in (
        ("guarded_inv", doubled_decoupling, "", COMMANDS),
        ("path_kernel", shifted_read_X, "-read_X", COMMANDS),
        # the follower command builds no leader kernel
        ("path_kernel", shifted_leader_read_u, "-leader-read_u", COMMANDS[1:]),
    )
    for command, scenario in commands
]


def negated_kkt(monkeypatch):
    """Fail the cheap certificate, so the KKT inertia decides, and count it on the
    negated KKT matrix, whose inertia swaps the positive and negative counts."""
    inertia = bs.oracle._inertia
    monkeypatch.setattr(bs.oracle, "_certified", lambda W, R_bar: False)
    monkeypatch.setattr(bs.oracle, "_inertia", lambda m, K: inertia(m, (K[0], K[1], -K[2])))


def zeroed_band(monkeypatch):
    """Zero the band storage of every KKT matrix, so the banded solve meets a singular one."""
    band = bs.oracle._band

    def zeroed(*args):
        ab, half = band(*args)
        return np.zeros_like(ab), half

    monkeypatch.setattr(bs.oracle, "_band", zeroed)


# breakages of the oracle's solve, with the message each raises: a negated
# KKT matrix fails the convexity gate (NonConvexError), a zero band makes scipy's
# banded solve raise LinAlgError
CONVEXITY_BREAKAGES = {
    "nonconvex": (negated_kkt, "not PSD"),
    "linalg": (zeroed_band, "singular matrix"),
}


def rebind(monkeypatch, original, replacement):
    """Replace a function in every package module that holds it by name."""
    for name, mod in list(sys.modules.items()):
        attribute = original.__name__
        if name.startswith("bsde_stackelberg") and getattr(mod, attribute, None) is original:
            monkeypatch.setattr(mod, attribute, replacement)


def no_paths(*args, **kwargs):
    raise AssertionError("paths drawn before the consistency check")


class TestCliConsistencyFailures:
    """A failed consistency check or solve exits 2 with one stderr line."""

    @pytest.mark.parametrize(
        "command, scenario, module, attribute, breakage",
        CONSISTENCY_FAILURES,
    )
    def test_exit_two_one_line(
        self, tmp_path, hand_doc, capsys, monkeypatch,
        command, scenario, module, attribute, breakage,
    ):
        original = getattr(getattr(bs, module), attribute)
        rebind(monkeypatch, original, breakage(original))
        # the check runs on the kernel's tables, before any path is drawn
        rebind(monkeypatch, bs.sample_brownian, no_paths)
        path = SCENARIOS / scenario if scenario else write_scenario(tmp_path, hand_doc)
        rc = main([
            command, "--scenario", str(path), "--out", str(tmp_path / "o"),
            "--steps", "32", "--paths", "4", "--seed", "0",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("solver failure:") and "disagree" in err

    def test_singular_stage_exits_two(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, singular_stage_document())
        rc = main(["riccati", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "solver failure: (I + Pi1 S1-hat) numerically singular at t=0.5\n"

    @pytest.mark.parametrize(
        "breakage, message", CONVEXITY_BREAKAGES.values(), ids=CONVEXITY_BREAKAGES.keys()
    )
    def test_verify_solver_error_exits_two(
        self, tmp_path, hand_doc, capsys, monkeypatch, breakage, message
    ):
        breakage(monkeypatch)
        rc = main([
            "verify", "--scenario", str(write_scenario(tmp_path, hand_doc)),
            "--out", str(tmp_path / "o"), "--steps", "32", "--paths", "4", "--seed", "0",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("solver failure:") and message in err


# inputs whose solve overflows, and what their one failure line names: B1 R1^-1 B1^T
# overflows where it is formed, G1 in the P2 flow
OVERFLOWS = {
    "B1-1e155": (
        lambda doc: doc["coefficients"].__setitem__("B1", {"constant": [1e155]}),
        "B1 R1^-1 B1^T not finite at t=0",
    ),
    "G1-1e300": (lambda doc: doc["weights"].__setitem__("G1", [[1e300]]), "solution diverged"),
}
# finite weights of the stochastic scenario whose sums overflow before the solve:
# G2's symmetric part in validation, Q1's half-step rows in the loader as well
HUGE_WEIGHTS = {
    "G2-1e308": (lambda doc: doc["weights"].__setitem__("G2", [[1e308]]), "solution diverged"),
    "Q1-1e308": (
        lambda doc: doc["coefficients"].__setitem__("Q1", {"constant": [1e308]}),
        "(I + Pi1 S1-hat) numerically singular",
    ),
}


NAN, INF = float("nan"), float("inf")
# a non-finite number in a scenario, which Python's json reads (NaN, Infinity, an
# integer too large for a float): the command, the keys of the entry set in the
# shipped scenario, its value, and the field its one failure line names
NON_FINITE = {
    "G1-nan-validate": ("validate", ("weights", "G1"), [[NAN]], "weights.G1"),
    "G1-nan-equilibrium": ("equilibrium", ("weights", "G1"), [[NAN]], "weights.G1"),
    "G2-inf-riccati": ("riccati", ("weights", "G2"), [[INF]], "weights.G2"),
    "G2-huge-int": ("riccati", ("weights", "G2"), [[10**400]], "weights.G2"),
    "market-G1-nan": ("finance", ("market", "G1"), NAN, "market.G1"),
    "A-nan": ("equilibrium", ("coefficients", "A"), {"constant": [NAN]}, "coefficients.A.constant"),
    "u2-nan": ("follower", ("u2",), {"const": {"constant": [NAN]}}, "u2.const.constant"),
    "terminal-nan": ("equilibrium", ("terminal", "a"), [NAN], "terminal.a"),
    "node-time-nan": (
        "equilibrium", ("coefficients", "A"),
        {"nodes": [[0.0, [0.0]], [NAN, [1.0]], [1.0, [1.0]]]}, "coefficients.A.nodes times",
    ),
}


@pytest.mark.parametrize("command,keys,value,field", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_field_exit_one(tmp_path, capsys, command, keys, value, field):
    """A non-finite number is rejected where the scenario is read: exit 1 with one
    stderr line that names its field, no floating-point warning and no artifact."""
    scenario = "finance.json" if command == "finance" else "hand_solvable.json"
    doc = json.loads((SCENARIOS / scenario).read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([
            command, "--scenario", str(write_scenario(tmp_path, doc)),
            "--out", str(out), "--steps", "8", "--paths", "4",
        ])
    err = capsys.readouterr().err
    assert rc == 1 and [str(w.message) for w in caught] == []
    assert err == f"bad scenario: {field} must be finite\n"
    assert not out.exists()


class TestCliOverflow:
    """An overflowing solve exits 2 with one stderr line and no floating-point warning."""

    @pytest.mark.parametrize("command", ["riccati", "equilibrium", "verify"])
    @pytest.mark.parametrize("edit,names", OVERFLOWS.values(), ids=OVERFLOWS.keys())
    def test_exit_two_one_line(self, tmp_path, capsys, command, edit, names):
        doc = json.loads((SCENARIOS / "hand_solvable.json").read_text())
        edit(doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                command, "--scenario", str(write_scenario(tmp_path, doc)),
                "--out", str(tmp_path / "o"), "--steps", "8", "--paths", "4",
            ])
        err = capsys.readouterr().err
        assert rc == 2 and [str(w.message) for w in caught] == []
        assert err.count("\n") == 1 and err.startswith(f"solver failure: {names}")

    @pytest.mark.parametrize("edit,names", HUGE_WEIGHTS.values(), ids=HUGE_WEIGHTS.keys())
    def test_huge_weight_warns_nothing_before_its_line(self, tmp_path, capsys, edit, names):
        """A finite weight whose sums overflow in the loader's half-step rows and in
        validation's symmetric part: both run under the command's errstate."""
        doc = json.loads((SCENARIOS / "stochastic.json").read_text())
        edit(doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "riccati", "--scenario", str(write_scenario(tmp_path, doc)),
                "--out", str(tmp_path / "o"), "--steps", "8",
            ])
        err = capsys.readouterr().err
        assert rc == 2 and [str(w.message) for w in caught] == []
        assert err.count("\n") == 1 and err.startswith(f"solver failure: {names}")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh).get("project", {}).get("scripts", {})


def distribution_installed(name):
    try:
        md.distribution(name)
    except md.PackageNotFoundError:
        return False
    return True


class TestEntryPoint:
    def test_console_script_installed(self):
        """The declared script resolves to ``cli.main`` as an installed wrapper would.

        Reads the declaration itself, so it needs no installed metadata.
        """
        value = declared_console_scripts().get("bsde-stackelberg")
        assert value == "bsde_stackelberg.cli:main"
        ep = md.EntryPoint(name="bsde-stackelberg", value=value, group="console_scripts")
        assert ep.load() is main

    @pytest.mark.skipif(
        not distribution_installed("bsde-stackelberg"),
        reason="bsde-stackelberg distribution is not installed",
    )
    def test_installed_entry_point_matches_declaration(self):
        """The installed console scripts are those declared, so no install is stale."""
        dist = md.distribution("bsde-stackelberg")
        installed = {ep.name: ep.value for ep in dist.entry_points.select(group="console_scripts")}
        assert installed == declared_console_scripts()
