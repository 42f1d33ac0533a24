"""Metamorphic relations of the LQ game on the library route.

Two exact relations hold path by path, at both levels, when the runs
share their Brownian paths, and neither needs an oracle:

- a change of state coordinates y -> T y with a general (not orthogonal)
  T, which maps A -> T A T^-1, C -> T C T^-1, B_i -> T B_i, the state
  weights W -> T^-T W T^-1 and xi -> T xi, leaves every per-path cost,
  stationarity slope and control as it is;
- a game with block-diagonal coefficients and one set of controls per
  block is two independent games on one Brownian motion, so its per-path
  costs and slopes are the sums of theirs and its controls stack theirs.

The costs and slopes are the forms a path chunk reads off the augmented
state, so both relations check the form route as well.  The change of
coordinates also runs on a C = 0 game, where the Pi1 flows take their
body without the inverse term, and on the QP oracles' convexity decision:
it maps each KKT matrix to a congruent one of the same inertia, so an
uncertified rank-one game is accepted and a non-convex one rejected in
both coordinates.  Through the CLI it runs verify and equilibrium on a
C = 0 game, whose oracle and pipeline costs and J means it leaves as
they are, and equilibrium on a C != 0 game, whose J means it leaves as
they are.

An orthogonal T would not do: a transposition error is covariant under
U, since (U A U^T)^T = U A^T U^T.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

import bsde_stackelberg as bs
from bsde_stackelberg.cli import main
from bsde_stackelberg.follower import follower_chunk
from bsde_stackelberg.leader import equilibrium_chunk, response_kernel
from bsde_stackelberg.oracle import (
    NonConvexError,
    build_discrete_problem,
    deterministic_follower_oracle,
    deterministic_leader_oracle,
)
from bsde_stackelberg.scenario import make_constant_spec
from bsde_stackelberg.stacked import structural_defects
from conftest import (
    RANK_ONE_Q1,
    c_zero_game,
    dense_game,
    equilibrium_arrays,
    path_arrays,
    scenario_document,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

STEPS, PATHS = 64, 100
MATRICES = ("A", "B1", "B2", "C", "Q1", "R1", "S1", "Q2", "R2", "S2")
STATE_WEIGHTS = ("Q1", "S1", "Q2", "S2", "G1", "G2")


def constants(spec):
    """The coefficient matrices of a constant-coefficient spec, by name."""
    out = {name: getattr(spec, name).values[0] for name in MATRICES}
    return out | {"G1": spec.G1, "G2": spec.G2, "a": spec.xi.a, "b": spec.xi.b}


def constant_spec(c):
    return make_constant_spec(1.0, STEPS, **c)


def changed_coordinates(spec, T):
    """The game in the state coordinates T y."""
    c, Ti = constants(spec), np.linalg.inv(T)
    for name in STATE_WEIGHTS:
        W = Ti.T @ c[name] @ Ti
        c[name] = 0.5 * (W + W.T)
    for name in ("A", "C"):
        c[name] = T @ c[name] @ Ti
    for name in ("B1", "B2", "a", "b"):
        c[name] = T @ c[name]
    return constant_spec(c)


def block_game(first, second):
    """The block-diagonal game of two games: states and controls stacked."""
    c1, c2 = constants(first), constants(second)
    c = {name: block_diag(c1[name], c2[name]) for name in (*MATRICES, "G1", "G2")}
    return constant_spec(c | {key: np.concatenate([c1[key], c2[key]]) for key in ("a", "b")})


def leader_control(k, scale=1.0):
    """A known leader control affine in W, so its W row is exercised."""
    path = bs.CoefficientPath.constant
    grid = bs.TimeGrid(1.0, STEPS)
    const = scale * np.linspace(0.3, -0.2, k).reshape(k, 1)
    lin = scale * np.linspace(-0.4, 0.5, k).reshape(k, 1)
    return bs.AffineControl(path(grid, const), path(grid, lin))


def per_path(spec, u2, v, bundle):
    """Per-path figures of both levels, and the structural defects of both kernels:
    the follower's for the leader control u2, and the equilibrium.  J1, J2 and
    the stationarity slopes along v are the forms a path chunk reads off zeta
    (follower_chunk, equilibrium_chunk); the controls are path arrays."""
    sol = bs.equilibrium_layer(spec)
    kernel = bs.follower_kernel(spec, sol.p1, sol.p2, u2)
    fol = path_arrays(kernel, bundle)
    eq = equilibrium_arrays(sol, bundle)
    fol_forms = follower_chunk(spec, kernel, v)(bundle)
    forms = equilibrium_chunk(sol, response_kernel(spec, sol.p1, sol.p2, v))(bundle)
    figures = {
        "follower J1": fol_forms["J1"],
        "follower slope": fol_forms["slope"],
        "follower u1": fol.u1,
        "J1": forms["J1"],
        "J2": forms["J2"],
        "slope": forms["slope"],
        "u1": eq.u1,
        "u2": eq.u2,
    }
    defects = max(*sol.defects.values(), *structural_defects(kernel).values())
    return figures, defects


def assert_relative(got, want, what):
    gap = float(np.max(np.abs(got - want)))
    assert gap <= 1e-12 * float(np.max(np.abs(want))), (what, gap)


@pytest.fixture(scope="module")
def bundle():
    return bs.sample_brownian(bs.TimeGrid(1.0, STEPS), PATHS, 11)


def coordinate_change(n):
    """A general (not orthogonal) T = I + 0.4 G, G standard normal."""
    T = np.eye(n) + 0.4 * np.random.default_rng(3).standard_normal((n, n))
    assert np.max(np.abs(T @ T.T - np.eye(n))) > 0.1  # not orthogonal
    return T


def assert_coordinate_invariance(spec, bundle):
    n, k = spec.dims.n, spec.dims.k
    T = coordinate_change(n)
    u2, v = leader_control(k), leader_control(k, scale=-1.5)
    base, _ = per_path(spec, u2, v, bundle)
    moved, defects = per_path(changed_coordinates(spec, T), u2, v, bundle)
    for key, want in base.items():
        assert_relative(moved[key], want, key)
    assert defects <= 1e-8


def test_change_of_coordinates(bundle):
    assert_coordinate_invariance(dense_game(STEPS), bundle)


def test_change_of_coordinates_at_c_zero(bundle):
    # C = 0 with a stochastic xi: both Pi1 fields take the body without the
    # inverse term, which dense_game and the block split (C != 0) never reach
    spec = constant_spec(constants(dense_game(STEPS)) | {"C": np.zeros((3, 3))})
    assert not spec.xi.deterministic
    assert_coordinate_invariance(spec, bundle)


def oracle_outcomes(spec):
    """Each QP oracle's cost, or the inertia and required inertia it rejects with."""
    prob = build_discrete_problem(spec)
    u2 = np.full((STEPS, spec.dims.k), 0.2)
    outcomes = []
    for oracle in (lambda: deterministic_follower_oracle(prob, u2), lambda: deterministic_leader_oracle(prob)):
        try:
            outcomes.append(oracle().cost)
        except NonConvexError as e:
            outcomes.append((e.inertia, e.required))
    return outcomes


def kkt_inertias(spec, monkeypatch):
    """The inertia of every KKT matrix the oracles check, the certificate bypassed."""
    found, inertia = [], bs.oracle._inertia

    def recorded(m, K):
        found.append(inertia(m, K))
        return found[-1]

    with monkeypatch.context() as patch:
        patch.setattr(bs.oracle, "_certified", lambda W, R_bar: False)
        patch.setattr(bs.oracle, "_inertia", recorded)
        oracle_outcomes(spec)
    return found


@pytest.mark.parametrize(
    "weights",
    [{"Q1": RANK_ONE_Q1}, {"Q1": -3.0 * np.eye(2), "G1": -3.0 * np.eye(2)}],
    ids=["rank_one", "nonconvex"],
)
def test_change_of_coordinates_keeps_the_oracles_decisions(weights, monkeypatch):
    # the image's KKT matrices are congruent to the game's, so they have the same
    # inertia: the uncertified rank-one game is accepted at the same costs, the
    # non-convex one is rejected with the same inertia
    spec = c_zero_game(STEPS, **weights)
    moved = changed_coordinates(spec, coordinate_change(2))
    base, image = oracle_outcomes(spec), oracle_outcomes(moved)
    accepted = [isinstance(outcome, float) for outcome in base]
    assert accepted == [isinstance(outcome, float) for outcome in image]
    assert accepted == ([True, True] if "G1" not in weights else [False, False])
    for want, got in zip(base, image):
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        else:
            assert got == want
    inertias = kkt_inertias(spec, monkeypatch)
    assert len(inertias) == 2 and kkt_inertias(moved, monkeypatch) == inertias


def cli_figures(spec, commands, tmp_path):
    """The CLI's figures of a game and of its image under y -> T y, with one seed:
    the oracle and pipeline costs of verify, if run, then equilibrium's J means."""
    n = spec.dims.n
    games = {"base": spec, "moved": changed_coordinates(spec, coordinate_change(n))}
    figures = {}
    for name, game in games.items():
        scn = tmp_path / f"{name}.json"
        scn.write_text(json.dumps(scenario_document(game)))
        for command in commands:
            out = tmp_path / name / command
            argv = [command, "--scenario", str(scn), "--seed", "5", "--paths", "4"]
            assert main([*argv, "--out", str(out)]) == 0
        found = []
        if "verify" in commands:
            oracle = json.loads((tmp_path / name / "verify" / "oracle.json").read_text())
            found += [oracle[level][cost] for level in ("follower", "leader")
                      for cost in ("oracle_cost", "pipeline_cost")]
        summary = json.loads((tmp_path / name / "equilibrium" / "summary.json").read_text())
        figures[name] = np.array(found + [summary["J1"]["mean"], summary["J2"]["mean"]])
    return figures


def test_cli_change_of_coordinates_at_c_zero(tmp_path):
    # the CLI route: verify and equilibrium on a C = 0 game and on its image under
    # y -> T y, with one seed.  rel_gap is left out: it is the difference of two
    # close costs, so roundoff alone moves it by far more than 1e-12
    figures = cli_figures(c_zero_game(STEPS), ("verify", "equilibrium"), tmp_path)
    np.testing.assert_allclose(figures["moved"], figures["base"], rtol=1e-12, atol=0)


def test_cli_change_of_coordinates_at_c_nonzero(tmp_path):
    # the same on the n = 3, k = 2, C != 0 game, through equilibrium only:
    # verify rejects C != 0
    figures = cli_figures(dense_game(STEPS), ("equilibrium",), tmp_path)
    np.testing.assert_allclose(figures["moved"], figures["base"], rtol=1e-12, atol=0)


def stacked_control(first, second):
    """The control of the block game whose blocks are two games' controls."""
    return bs.AffineControl(
        *(
            bs.CoefficientPath(a.grid, np.concatenate([a.values, b.values], axis=1))
            for a, b in ((first.u_const, second.u_const), (first.u_lin, second.u_lin))
        )
    )


def test_block_diagonal_split(bundle):
    first, second = dense_game(STEPS), bs.stochastic_scenario(STEPS)
    k1, k2 = first.dims.k, second.dims.k
    u2s = leader_control(k1), leader_control(k2, scale=0.5)
    vs = leader_control(k1, scale=-1.5), leader_control(k2, scale=0.8)
    parts = [per_path(game, u2, v, bundle)[0] for game, u2, v in zip((first, second), u2s, vs)]
    whole, defects = per_path(
        block_game(first, second), stacked_control(*u2s), stacked_control(*vs), bundle
    )
    for key in ("follower J1", "follower slope", "J1", "J2", "slope"):
        assert_relative(whole[key], parts[0][key] + parts[1][key], key)
    for key in ("follower u1", "u1", "u2"):
        assert_relative(whole[key][:, :, :k1], parts[0][key], key)
        assert_relative(whole[key][:, :, k1:], parts[1][key], key)
    assert defects <= 1e-8


def generated_game(rng, n=2, k=1):
    """A random constant game with C != 0 and a random terminal datum."""
    def spd(scale):
        M = rng.uniform(-1.0, 1.0, (n, n))
        return scale * (M @ M.T + 0.5 * np.eye(n))

    return make_constant_spec(
        1.0, STEPS,
        A=rng.uniform(-0.5, 0.5, (n, n)), B1=rng.uniform(-1.0, 1.0, (n, k)),
        B2=rng.uniform(-1.0, 1.0, (n, k)), C=rng.uniform(-0.3, 0.3, (n, n)),
        Q1=spd(0.3), R1=spd(1.0)[:k, :k], S1=spd(0.1), G1=spd(0.4),
        Q2=spd(0.3), R2=spd(1.0)[:k, :k], S2=spd(0.1), G2=spd(0.5),
        a=rng.uniform(-1.0, 1.0, n), b=rng.uniform(-0.5, 0.5, n),
    )


def test_cli_block_diagonal_split(tmp_path):
    # the CLI route: equilibrium on the block game of the shipped hand_solvable game
    # and a generated n = 2 game, and on each part, with one seed.  The Brownian
    # draw is keyed per path, not per dimension, so the parts see the whole's paths
    # and the J means of the whole are the sums of the parts' J means
    hand = bs.load_scenario(SCENARIOS / "hand_solvable.json", steps=STEPS).spec
    generated = generated_game(np.random.default_rng(8))
    games = {"hand": hand, "generated": generated, "whole": block_game(hand, generated)}
    means = {}
    for name, game in games.items():
        scn = tmp_path / f"{name}.json"
        scn.write_text(json.dumps(scenario_document(game)))
        out = tmp_path / name
        argv = ["equilibrium", "--scenario", str(scn), "--seed", "9", "--paths", "200"]
        assert main([*argv, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        means[name] = np.array([summary["J1"]["mean"], summary["J2"]["mean"]])
        if name == "generated":  # its costs vary from path to path
            assert summary["J1"]["stderr"] > 0 and summary["J2"]["stderr"] > 0
    np.testing.assert_allclose(
        means["whole"], means["hand"] + means["generated"], rtol=1e-12, atol=0
    )
