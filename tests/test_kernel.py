"""Each path-layer formula once: the path kernel's one closed loop and one
decoupling inverse, and the QP oracle's RK4 step map, against the former
formulas kept in conftest as their references."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.finance import build_finance_spec
from bsde_stackelberg.odeint import guarded_inv
from bsde_stackelberg.scenario import load_scenario
from bsde_stackelberg.stacked import path_kernel
from conftest import (
    c_zero_game,
    closed_loop_reference,
    dense_game,
    kernel_tables_reference,
    oracle_steps_reference,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GAMES = {
    "stochastic": lambda: load_scenario(SCENARIOS / "stochastic.json", steps=64).spec,
    "finance": lambda: build_finance_spec(load_scenario(SCENARIOS / "finance.json", steps=64).market),
    "dense": lambda: dense_game(64),
    "c_zero": lambda: c_zero_game(64),
}


def level_system(spec, level):
    """(system, Pi1, Pi2) of the leader's stacked system, or of the follower's
    with a known control u2 = c + l W whose c and l are both nonzero."""
    p1, p2, sys, pi1, pi2 = bs.riccati_chain(spec)
    if level == "leader":
        return sys, pi1, pi2
    k, path = spec.dims.k, bs.CoefficientPath.constant
    u2 = bs.AffineControl(path(spec.grid, np.full((k, 1), 0.3)), path(spec.grid, np.full((k, 1), -0.2)))
    return bs.follower_system(spec, u2), p1, p2


def assert_table_close(got, ref, rel):
    """max |got - ref| <= rel max(1, max |ref|) over the whole table."""
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert float(np.max(np.abs(got - ref))) <= rel * scale


@pytest.mark.parametrize("level", ["leader", "follower"])
@pytest.mark.parametrize("game", GAMES)
def test_kernel_matches_former_formulas(game, level):
    sys_, pi1, pi2 = level_system(GAMES[game](), level)
    kernel = path_kernel(sys_, pi1, pi2)
    step, read_X, read_u = kernel_tables_reference(sys_, pi1, pi2)
    references = (step, read_X, read_u, *closed_loop_reference(sys_, pi2))
    tables = (kernel.step, kernel.read_X, kernel.read_u, *kernel.closed_loop)
    for got, ref in zip(tables, references):
        assert got.shape == ref.shape
        assert_table_close(got, ref, 1e-12)


def time_varying_c_zero_game(steps=64):
    """c_zero_game with A, B1 and B2 scaled by 1 + sin(3t)/2 at every node."""
    spec = c_zero_game(steps)
    scale = (1.0 + 0.5 * np.sin(3.0 * spec.grid.nodes))[:, None, None]
    varied = {name: bs.CoefficientPath(spec.grid, scale * getattr(spec, name).values)
              for name in ("A", "B1", "B2")}
    return dataclasses.replace(spec, **varied)


@pytest.mark.parametrize("make", [c_zero_game, time_varying_c_zero_game], ids=["constant", "varying"])
def test_oracle_step_map_matches_former_stages(make):
    spec = make()
    prob = bs.build_discrete_problem(spec)
    got = np.concatenate([prob.E, prob.F1, prob.F2], axis=2)
    assert_table_close(got, oracle_steps_reference(spec), 1e-13)


@pytest.mark.parametrize("level", ["leader", "follower"])
def test_one_gated_decoupling_inverse(monkeypatch, level):
    """Building a kernel gates (I + Pi1 Pi2) once and (I + Pi2 Pi1) never: the
    latter's inverse is the former's transpose."""
    sys_, pi1, pi2 = level_system(dense_game(32), level)
    labels = []

    def counting(m, t, label):
        labels.append(label)
        return guarded_inv(m, t, label)

    for name, module in list(sys.modules.items()):
        if name.startswith("bsde_stackelberg") and getattr(module, "guarded_inv", None) is guarded_inv:
            monkeypatch.setattr(module, "guarded_inv", counting)
    path_kernel(sys_, pi1, pi2)
    assert labels.count("(I + Pi1 Pi2)") == 1
    assert "(I + Pi2 Pi1)" not in labels
