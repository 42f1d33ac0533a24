"""Paths-last path arrays, and kernels whose bits do not depend on the path count.

simulate_tilde_varphi stores zeta as (N+1, dim+2, paths) and returns its
swapaxes(1, 2) view.  Every per-node product of the path layer applies a table
of at least two rows to that array from the left, so BLAS gemm forms each
path's column with the same bits at any path count; a one-row table goes to
gemv, whose bits move with the count.  Here the Euler loop, the BSDE residual,
the forms and the dual reserve run on chunks of every width from 2 to 17, and
each must give, byte for byte, the matching columns of one bundle of all paths.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg import stacked
from bsde_stackelberg.finance import dual_tables, reserve_samples
from bsde_stackelberg.follower import follower_slope_table
from bsde_stackelberg.leader import leader_slope_table, response_kernel
from bsde_stackelberg.scenario import load_scenario
from bsde_stackelberg.stacked import (
    form_samples,
    joint_step,
    residual_samples,
    simulate_tilde_varphi,
)
from conftest import dense_game

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
STEPS, PATHS, SEED = 24, 40, 7
WIDTHS = range(2, 18)


@dataclass
class Game:
    """What a path chunk of one game runs: the Euler loop on the step table's
    state, whose entries from offset on are the kernel's zeta, the residual of
    the kernel, the forms on zeta and on the whole state, and the dual reserve."""

    step: np.ndarray
    offset: int
    kernel: object  # stacked.PathKernel
    forms: dict
    state_forms: dict = field(default_factory=dict)
    dual: tuple | None = None


def _direction(spec):
    return bs.AffineControl.constant(spec.grid, np.ones(spec.dims.k))


def shipped(name: str):
    return load_scenario(SCENARIOS / name, steps=STEPS)


def follower_game():
    """The m = 1 follower of the stochastic scenario, for a known control
    u2 = c + l W with c and l both nonzero, as follower_chunk runs it."""
    spec = shipped("stochastic.json").spec
    p1 = bs.solve_p1(spec)
    p2 = bs.solve_p2(spec, p1)
    path = bs.CoefficientPath.constant
    u2 = bs.AffineControl(path(spec.grid, [[0.3]]), path(spec.grid, [[-0.2]]))
    kernel = bs.follower_kernel(spec, p1, p2, u2)
    forms = {
        "J1": bs.follower_cost_table(spec, kernel),
        "slope": follower_slope_table(spec, kernel, _direction(spec)),
    }
    return Game(kernel.step, 0, kernel, forms)


def equilibrium_game(spec, reserve=False):
    """An equilibrium's joint state with the response kernel along constant ones
    (joint_step), as equilibrium_chunk runs it; with reserve, the equilibrium's
    own state and its dual reserve, as consumption_summary runs it."""
    sol = bs.equilibrium_layer(spec)
    if reserve:
        return Game(sol.kernel.step, 0, sol.kernel, sol.forms, dual=dual_tables(sol))
    response = response_kernel(spec, sol.p1, sol.p2, _direction(spec))
    slope = {"slope": leader_slope_table(sol, response)}
    return Game(joint_step(response, sol.kernel), response.sys.dim, sol.kernel, sol.forms, slope)


GAMES = {
    "follower": follower_game,
    "leader": lambda: equilibrium_game(shipped("stochastic.json").spec),
    "finance": lambda: equilibrium_game(
        bs.build_finance_spec(shipped("finance.json").market), reserve=True
    ),
    "dense": lambda: equilibrium_game(dense_game(STEPS)),
}


@pytest.fixture(scope="module", params=sorted(GAMES))
def game(request):
    return GAMES[request.param]()


def figures(game: Game, bundle) -> dict:
    """Every per-path array the path layer forms on a bundle, keyed by name."""
    state = simulate_tilde_varphi(game.step, bundle)
    zeta = state[:, :, game.offset :]
    out = {"state": np.swapaxes(state, 0, 1)}  # path first, like the rest
    out["residual"], _ = residual_samples(game.kernel, zeta, bundle.dW)
    out |= {name: form_samples(form, zeta) for name, form in game.forms.items()}
    out |= {name: form_samples(form, state) for name, form in game.state_forms.items()}
    if game.dual is not None:
        out["reserve"] = reserve_samples(game.dual, zeta, bundle.dW)
    return out


def draw(game: Game, paths: int, first: int = 0):
    """Paths first, ..., first + paths - 1 of the tests' seed on the game's grid."""
    return bs.sample_brownian(game.kernel.sys.grid, paths, SEED, first)


def test_chunks_give_the_full_bundles_columns_bit_for_bit(game):
    full = figures(game, draw(game, PATHS))
    assert all(np.isfinite(v).all() for v in full.values())
    for width in WIDTHS:
        first = width  # a different offset into the stream for every width
        chunk = figures(game, draw(game, width, first))
        for name, values in chunk.items():
            want = np.ascontiguousarray(full[name][first : first + width])
            assert np.ascontiguousarray(values).tobytes() == want.tobytes(), (name, width)


def test_node_blocks_change_no_bit(game, monkeypatch):
    """The residual and the forms run over blocks of nodes sized by
    NODE_BLOCK_BYTES; one node per block gives the same bytes as one block."""
    bundle = draw(game, 9)
    whole = figures(game, bundle)
    assert len(stacked._node_blocks(STEPS + 1, 3, 9)) == 1
    monkeypatch.setattr(stacked, "NODE_BLOCK_BYTES", 1)
    assert len(stacked._node_blocks(STEPS + 1, 3, 9)) == STEPS + 1
    for name, values in figures(game, bundle).items():
        assert np.ascontiguousarray(values).tobytes() == np.ascontiguousarray(whole[name]).tobytes()


def test_zeta_is_stored_paths_last(game):
    """The Euler state is a view of a C-contiguous (N+1, dim+2, paths) array."""
    paths = 5
    bundle = draw(game, paths)
    state = simulate_tilde_varphi(game.step, bundle)
    assert state.shape == (STEPS + 1, paths, game.step.shape[2] // 2 + 2)
    assert np.swapaxes(state, 1, 2).flags.c_contiguous
    assert np.array_equal(state[:, :, -2], bundle.W) and (state[:, :, -1] == 1.0).all()
