"""Golden numbers of the CLI at small sizes.

The values were recorded before the path arrays moved to the time-major
layout, and the stationarity slopes before they were formed from the
exact quadratic expansion instead of finite differences; each must hold
to 1e-12 (relative or absolute, whichever is looser:
decoupling_consistency_max is a roundoff figure).  The finance numbers
were re-recorded when the stacked system's C1-hat, D1-hat and F1-hat
were derived from the follower's closed loop instead of transcribed
from the printed displays.
"""

import json
from pathlib import Path

import pytest

from bsde_stackelberg.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
ARGS = ["--steps", "50", "--paths", "400", "--seed", "3"]


def close(value):
    return pytest.approx(value, rel=1e-12, abs=1e-12)


def run(tmp_path, command, scenario):
    out = tmp_path / command
    assert main([command, "--scenario", str(SCENARIOS / scenario), "--out", str(out), *ARGS]) == 0
    return json.loads((out / "summary.json").read_text())


def test_equilibrium_golden_numbers(tmp_path, capsys):
    s = run(tmp_path, "equilibrium", "stochastic.json")
    assert s["J1"]["mean"] == close(0.09868401326866204)
    assert s["J1"]["stderr"] == close(0.00303958146905454)
    assert s["J2"]["mean"] == close(0.0778440661003004)
    assert s["J2"]["stderr"] == close(0.0015457417323413063)
    assert s["bsde_residual_rms"] == close(0.004729845288579447)
    assert s["decoupling_consistency_max"] == close(1.942890293094024e-16)
    assert s["stationarity"]["leader_extrapolated_slope"] == close(0.0004126971030927862)


def test_follower_golden_numbers(tmp_path, capsys):
    s = run(tmp_path, "follower", "stochastic.json")
    assert s["J1"]["mean"] == close(0.14954178813691094)
    assert s["J1"]["stderr"] == close(0.004075845358434761)
    assert s["stationarity"]["extrapolated_slope"] == close(0.0013465134923257291)
    assert s["bsde_residual_rms"] == close(0.0027620693515219064)


def test_finance_golden_numbers(tmp_path, capsys):
    s = run(tmp_path, "finance", "finance.json")
    assert s["Y0"] == [close(-0.1609675137076039), close(0.40445103618538025)]
    assert s["initial_reserve"] == close(0.40445103618538025)
    assert s["dual_check"]["mc_estimate"] == [
        close(-0.16064595087886757),
        close(0.4060242671544452),
    ]
