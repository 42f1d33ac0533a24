"""The package's numpy routines held to scipy's, which the tests alone load:
odeint.matrix_exponential to scipy.linalg.expm, and the oracles' KKT Schur
sweep (oracle._solve_kkt) to the banded LU they used before it."""

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.oracle import (
    _assemble,
    build_discrete_problem,
    deterministic_follower_oracle,
    deterministic_leader_oracle,
)
from conftest import RANK_ONE_Q1, banded_solve, c_zero_game, expm_reference


def rel_gap(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


def scaled_stack(rng, N, m, norm):
    """N random m x m matrices, each of 1-norm `norm`."""
    a = rng.standard_normal((N, m, m))
    return a * (norm / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]


class TestMatrixExponential:
    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("N", [250, 1000])
    def test_step_sized_stacks(self, m, N):
        # the Magnus exponents of the closed forms are dt-sized: no squaring
        a = scaled_stack(np.random.default_rng(m * N), N, m, 0.01)
        assert rel_gap(bs.matrix_exponential(a), expm_reference(a)) <= 1e-14

    def test_squared_stack(self):
        # |A|_1 = 8 > THETA13: every matrix is halved once and its approximant squared
        a = scaled_stack(np.random.default_rng(8), 64, 4, 8.0)
        got, want = bs.matrix_exponential(a), expm_reference(a)
        assert max(rel_gap(g, w) for g, w in zip(got, want)) <= 1e-12

    def test_each_matrix_scaled_on_its_own(self):
        # norms from 0.01 to 40 in one stack: 0 to 3 squarings, matrix by matrix
        norms = np.array([0.01, 40.0, 1.0, 8.0, 20.0])
        rng = np.random.default_rng(3)
        a = np.concatenate([scaled_stack(rng, 1, 3, norm) for norm in norms])
        got, want = bs.matrix_exponential(a), expm_reference(a)
        assert max(rel_gap(g, w) for g, w in zip(got, want)) <= 1e-12


@pytest.fixture
def kkt_solves(monkeypatch):
    """(K, rhs, x, residual) of every KKT solve while a test runs."""
    solves, original = [], bs.oracle._solve_kkt

    def recorded(K, rhs):
        x, residual = original(K, rhs)
        solves.append((K, rhs, x, residual))
        return x, residual

    monkeypatch.setattr(bs.oracle, "_solve_kkt", recorded)
    return solves


@pytest.mark.parametrize("steps", [250, 1000])
@pytest.mark.parametrize("weights", [{}, {"Q1": RANK_ONE_Q1}], ids=["pd", "rank_one"])
def test_schur_sweep_matches_the_banded_solve(kkt_solves, steps, weights):
    # rank-one Q1 fails the follower's certificate: its KKT inertia is counted
    # on the sweep that then solves
    prob = build_discrete_problem(c_zero_game(steps, **weights))
    u2 = np.random.default_rng(steps).uniform(-0.5, 0.5, (steps, 2))
    deterministic_follower_oracle(prob, u2)
    deterministic_leader_oracle(prob)
    assert [K.m for K, *_ in kkt_solves] == [6, 14]  # (y, u1, lambda); the leader's seven
    for K, rhs, x, residual in kkt_solves:
        assert rel_gap(x.ravel(), banded_solve(K, rhs.ravel())) <= 1e-12
        assert residual <= 1e-12


@pytest.mark.parametrize("step", [0, 2, 5])
def test_singular_pivot_raises(step):
    # D_step = 0 with no coupling: the pivot S_step = 0 is singular; the sweep
    # stops at one before the last, and the batched solve of the pivots meets
    # the last
    m, N = 3, 6
    D = np.broadcast_to(np.eye(m), (N, m, m)).copy()
    D[step] = 0.0
    K = _assemble(m, [(0, 0, D, 0, 0)], [])
    with pytest.raises(np.linalg.LinAlgError, match="(?i)singular matrix"):
        bs.oracle._solve_kkt(K, np.ones((N, m)))
