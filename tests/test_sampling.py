"""Reproducible Brownian sampling and grid coarsening."""

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.sampling import coarsen, sample_brownian
from bsde_stackelberg.stacked import simulate_tilde_varphi
from conftest import running_values


def w_row(bundle):
    """zeta's W row, (N+1, paths), as the Euler loop forms it (a zero step table
    of one offset)."""
    return simulate_tilde_varphi(np.zeros((bundle.grid.steps + 1, 3, 2)), bundle)[:, :, 1]


class TestSampleBrownian:
    def test_shapes_and_initial_value(self):
        g = bs.TimeGrid(1.0, 16)
        b = sample_brownian(g, 7, 42)
        W = w_row(b)
        assert b.dW.shape == (16, 7) and W.shape == (17, 7)
        assert np.all(W[0] == 0.0)

    def test_w_is_cumsum_of_increments(self):
        g = bs.TimeGrid(1.0, 16)
        b = sample_brownian(g, 5, 1)
        np.testing.assert_allclose(w_row(b)[1:], np.cumsum(b.dW, axis=0), atol=0)
        assert np.array_equal(w_row(b), running_values(b.dW))

    def test_deterministic_given_seed(self):
        g = bs.TimeGrid(1.0, 32)
        a = sample_brownian(g, 4, 9)
        b = sample_brownian(g, 4, 9)
        assert np.array_equal(a.dW, b.dW)

    def test_paths_independent_of_ensemble_size(self):
        # adding paths never changes existing ones (per-path keying)
        g = bs.TimeGrid(1.0, 32)
        small = sample_brownian(g, 3, 9)
        large = sample_brownian(g, 10, 9)
        assert np.array_equal(small.dW, large.dW[:, :3])

    def test_different_seeds_differ(self):
        g = bs.TimeGrid(1.0, 8)
        assert not np.array_equal(
            sample_brownian(g, 2, 0).dW, sample_brownian(g, 2, 1).dW
        )

    def test_moments(self):
        g = bs.TimeGrid(1.0, 4)
        b = sample_brownian(g, 20000, 0)
        assert abs(b.dW.mean()) < 1e-2
        assert b.dW.var() == pytest.approx(g.dt, rel=0.05)


class TestCoarsen:
    def test_increments_aggregate_and_endpoints_match(self):
        g = bs.TimeGrid(1.0, 32)
        fine = sample_brownian(g, 6, 5)
        coarse = coarsen(fine, 4)
        assert coarse.grid.steps == 8
        W_T = running_values(fine.dW)[-1]
        np.testing.assert_allclose(running_values(coarse.dW)[-1], W_T, atol=1e-14)
        np.testing.assert_allclose(coarse.dW, fine.dW.reshape(8, 4, 6).sum(axis=1), atol=0)

    def test_shared_nodes_agree(self):
        g = bs.TimeGrid(1.0, 32)
        fine = sample_brownian(g, 3, 5)
        coarse = coarsen(fine, 2)
        W = running_values(fine.dW)[::2]
        np.testing.assert_allclose(running_values(coarse.dW), W, atol=1e-13)

    def test_rejects_nondivisible_factor(self):
        g = bs.TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            coarsen(sample_brownian(g, 1, 0), 3)


class TestKeyContract:
    """Each path is its own Philox stream keyed on (seed, path index)."""

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
    def test_path_matches_its_keyed_generator(self, seed):
        g = bs.TimeGrid(1.0, 24)
        n_paths = 5
        b = sample_brownian(g, n_paths, seed)
        for p in (0, 1, n_paths - 1):
            gen = np.random.Generator(np.random.Philox(key=(seed << 64) | p))
            expected = gen.standard_normal(g.steps) * np.sqrt(g.dt)
            assert np.array_equal(b.dW[:, p], expected), (seed, p)

    @pytest.mark.parametrize("first", [1, 3, 7])
    def test_slice_matches_full_draw(self, first):
        # a chunk of paths drawn on its own is bit for bit those columns of a full draw
        g = bs.TimeGrid(1.0, 24)
        full = sample_brownian(g, 10, 5)
        part = sample_brownian(g, 3, 5, first=first)
        assert np.array_equal(part.dW, full.dW[:, first : first + 3])
        assert np.array_equal(w_row(part), running_values(full.dW)[:, first : first + 3])
