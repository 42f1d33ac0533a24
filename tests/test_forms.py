"""Per-path figures read off the augmented state, against reference formulas.

A path chunk reads J1, J2, both stationarity cross terms and the BSDE
residual off zeta by fixed forms and tables (stacked.form_table,
PathKernel.residual_table), and forms no path arrays for them.  Here the
same figures come from the reference formulas of conftest on the path
arrays (conftest.path_arrays), at both levels and on shared paths, on an n = 3,
k = 2 game with C != 0 and a leader control and direction affine in W.
"""

import numpy as np
import pytest

import bsde_stackelberg as bs
from bsde_stackelberg.follower import follower_chunk, response_step
from bsde_stackelberg.leader import equilibrium_chunk, response_kernel
from conftest import (
    affine_pathwise,
    bsde_residual_samples,
    cost_samples,
    dense_game,
    equilibrium_arrays,
    path_arrays,
    quadratic_expansion,
    running_values,
    u2_pathwise,
)

STEPS, PATHS = 64, 40


def affine_control(grid, const, lin):
    """The control const + lin W(t), constant coefficients."""
    path = bs.CoefficientPath.constant
    const, lin = (np.reshape(c, (-1, 1)) for c in (const, lin))
    return bs.AffineControl(path(grid, const), path(grid, lin))


@pytest.fixture(scope="module")
def game():
    spec = dense_game(STEPS)
    bundle = bs.sample_brownian(spec.grid, PATHS, 13)
    u2 = affine_control(spec.grid, [0.3, -0.2], [-0.4, 0.5])
    v = affine_control(spec.grid, [1.0, -0.5], [0.4, 0.9])
    return spec, bundle, u2, v, bs.equilibrium_layer(spec)


def assert_relative(got, want, what):
    gap = float(np.max(np.abs(np.asarray(got) - want)))
    assert gap <= 1e-12 * float(np.max(np.abs(want))), (what, gap)


def assert_matches(got, want):
    for key, value in want.items():
        assert_relative(got[key], value, key)


def test_leader_forms_match_reference(game):
    spec, bundle, _, v, sol = game
    response = response_kernel(spec, sol.p1, sol.p2, v)
    got = equilibrium_chunk(sol, response)(bundle)
    ens = equilibrium_arrays(sol, bundle)
    delta = path_arrays(response, bundle)
    base = (ens.ybar, ens.u2, ens.zbar)
    step = (delta.Y, u2_pathwise(v, running_values(bundle.dW)), delta.Z)
    residual, residual_max = bsde_residual_samples(ens)
    assert_matches(got, {
        "J1": cost_samples(spec.grid, ens.ybar, ens.u1, ens.zbar, *spec.weights(1)),
        "J2": cost_samples(spec.grid, *base, *spec.weights(2)),
        "slope": quadratic_expansion(spec.grid, base, step, *spec.weights(2)),
        "residual": residual,
        "bsde_residual_max": residual_max,
    })


def test_follower_forms_match_reference(game):
    spec, bundle, u2, v, sol = game
    kernel = bs.follower_kernel(spec, sol.p1, sol.p2, u2)
    got = follower_chunk(spec, kernel, v)(bundle)
    ens = path_arrays(kernel, bundle)
    alpha, beta = response_step(spec, v)
    base = (ens.Y, ens.u1, ens.Z)
    step = (
        affine_pathwise(alpha, beta, running_values(bundle.dW)),
        u2_pathwise(v, running_values(bundle.dW)),
        beta[:, None, :, 0],
    )
    residual, residual_max = bsde_residual_samples(ens)
    assert_matches(got, {
        "J1": cost_samples(spec.grid, *base, *spec.weights(1)),
        "slope": quadratic_expansion(spec.grid, base, step, *spec.weights(1)),
        "residual": residual,
        "bsde_residual_max": residual_max,
    })

