"""Optimal consumption-rate application in a one-asset market.

Two agents consume out of a shared terminal-wealth constraint; the
problem maps onto the generic leader-follower machinery through
A = -r, B1 = B2 = 1, C = -(mu - r)/sigma, Q1 = Q2 = S1 = S2 = 0.
The equilibrium is the generic leader pipeline on that specification;
the module adds the market-named CSV of it (wealth, portfolio and the two
consumption rates) and the dual propagator representation of the initial
wealth reserve, a Monte Carlo check of the pipeline's Y(0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .leader import StackelbergSolution, equilibrium_ensemble, equilibrium_layer
from .model import (
    CoefficientPath,
    Dimensions,
    LQGameSpec,
    TerminalCondition,
    TimeGrid,
    validate_spec,
)
from .sampling import MonteCarloConfig, PathBundle, mean_stderr, stream_paths
from .stacked import StackedEnsemble, cost_figures, form_samples, paths_csv, simulate_tilde_varphi


@dataclass(frozen=True)
class MarketParams:
    """Market and preference data: rates, volatility, control weights."""

    grid: TimeGrid
    r: CoefficientPath  # interest rate, 1x1
    mu: CoefficientPath  # risky rate of return, 1x1
    sigma: CoefficientPath  # volatility, 1x1, > 0
    R1: CoefficientPath  # follower consumption weight, > 0
    R2: CoefficientPath  # leader consumption weight, > 0
    G1: float
    G2: float
    xi: TerminalCondition

    def __post_init__(self):
        for name in ("r", "mu", "sigma", "R1", "R2"):
            p = getattr(self, name)
            if p.grid != self.grid or p.shape != (1, 1):
                raise ValueError(f"market parameter {name} must be 1x1 on the market grid")
        if np.any(self.sigma.values <= 0.0):
            raise ValueError("sigma must be strictly positive node-wise")
        if np.any(self.mu.values < self.r.values - 1e-12):
            raise ValueError("mu must dominate r node-wise")
        if np.any(self.R1.values <= 0.0) or np.any(self.R2.values <= 0.0):
            raise ValueError("R1 and R2 must be strictly positive node-wise")

    @classmethod
    def constant(
        cls, horizon, steps, r, mu, sigma, R1, R2, G1, G2, a, b=0.0
    ) -> "MarketParams":
        grid = TimeGrid(horizon, steps)
        c = CoefficientPath.constant
        return cls(
            grid, c(grid, r), c(grid, mu), c(grid, sigma), c(grid, R1), c(grid, R2),
            float(G1), float(G2), TerminalCondition([a], [[b]]),
        )

    def theta(self) -> CoefficientPath:
        """Market price of risk (mu - r) / sigma, node-wise."""
        vals = (self.mu.values - self.r.values) / self.sigma.values
        return CoefficientPath(self.grid, vals)


def build_finance_spec(m: MarketParams) -> LQGameSpec:
    """Map market data onto the generic game specification.

    State weights vanish; the initial-wealth weights G1, G2 pass
    straight through as Riccati boundary data.  The induced spec fails
    strict positive-semidefiniteness only where the consumption
    interpretation wants it to, so validation is run permissively.
    """
    grid = m.grid
    zero = CoefficientPath.constant(grid, 0.0)
    one = CoefficientPath.constant(grid, 1.0)
    spec = LQGameSpec(
        dims=Dimensions(1, 1),
        grid=grid,
        A=CoefficientPath(grid, -m.r.values),
        B1=one,
        B2=one,
        C=CoefficientPath(grid, -m.theta().values),
        Q1=zero,
        R1=m.R1,
        S1=zero,
        G1=np.array([[m.G1]]),
        Q2=zero,
        R2=m.R2,
        S2=zero,
        G2=np.array([[m.G2]]),
        xi=m.xi,
    )
    report = validate_spec(spec, strict=False)
    if not report.passed:
        raise ValueError("; ".join(str(v) for v in report.errors))
    return spec


def _dual_coefficients(sol: StackelbergSolution):
    """Node-wise (drift, diffusion, forcing) matrices of the propagator.

    The propagator solves d(Gamma) = M^T Gamma dt + C1h Gamma dW with M
    the closed-loop drift of the backward pair, so that
    Y(t) = E[Gamma_t(T)^T xi-hat + int_t^T Gamma_t(s)^T f(s) ds] with
    f = (F2h - B2h R2^-1 B2h^T) varphi-tilde (see PathKernel.closed_loop).
    """
    M, forcing = sol.kernel.closed_loop  # the leader has no known control
    return np.swapaxes(M, 1, 2), sol.system.C1h.values, forcing


def _gamma_step(gamma, a_i, a_ip1, c_i, dt, dW):
    """One propagator step: trapezoidal drift, Milstein diffusion.

    Exact to O(dt^2) when the diffusion vanishes, so the deterministic
    self-consistency checks are not limited by drift bias.
    """
    drift0 = np.einsum("ij,pjk->pik", a_i, gamma)
    diff = np.einsum("ij,pjk->pik", c_i, gamma)
    pred = gamma + dt * drift0 + dW[:, None, None] * diff
    drift1 = np.einsum("ij,pjk->pik", a_ip1, pred)
    milstein = np.einsum("ij,pjk->pik", c_i, diff)
    return (
        gamma
        + 0.5 * dt * (drift0 + drift1)
        + dW[:, None, None] * diff
        + 0.5 * (dW**2 - dt)[:, None, None] * milstein
    )


def reserve_samples(sol: StackelbergSolution, zeta: np.ndarray, bundle: PathBundle) -> np.ndarray:
    """Per path, Gamma_0(T)^T xi-hat + trapezoid(Gamma_0(t)^T f(t)): the dual
    representation's samples of Y(0), (paths, 2n), on a bundle's paths, with
    f's varphi-tilde read off their augmented state zeta."""
    sys = sol.system
    grid = sys.grid
    a, c, forcing = _dual_coefficients(sol)
    m = 2 * sys.n
    P = bundle.n_paths
    dt = grid.dt
    dW = bundle.dW

    gamma = np.broadcast_to(np.eye(m), (P, m, m)).copy()
    integral = np.zeros((P, m))
    w_end = 0.5 * dt

    def integrand(i, g):
        f = np.einsum("ij,pj->pi", forcing[i], zeta[i, :, :m])
        return np.einsum("pji,pj->pi", g, f)

    integral += w_end * integrand(0, gamma)
    for i in range(grid.steps):
        gamma = _gamma_step(gamma, a[i], a[i + 1], c[i], dt, dW[i])
        w = w_end if i == grid.steps - 1 else dt
        integral += w * integrand(i + 1, gamma)

    xi_hat = sys.xih.on_paths(bundle.W[-1])
    return np.einsum("pji,pj->pi", gamma, xi_hat) + integral


def consumption_paths_csv(
    ens: StackedEnsemble, m: MarketParams, max_paths: int | None = None
) -> str:
    """Per-path CSV of (t, wealth, portfolio, c1, c2), 17 significant digits.

    Wealth is the leader's backward state ybar, the portfolio the risky
    position zbar / sigma, and c1, c2 the two consumption rates u1, u2.
    """
    portfolio = ens.zbar[:, :, 0] / m.sigma.values[:, :, 0]
    return paths_csv(
        m.grid.nodes, ["y", "pi", "c1", "c2"], [ens.ybar, portfolio, ens.u1, ens.u2],
        max_paths, ens.bundle.first,
    )


def consumption_summary(
    m: MarketParams, mc: MonteCarloConfig, csv_paths: int = 0
) -> tuple[dict, str]:
    """The consumption equilibrium's figures on mc's paths, keyed as the CLI's
    summary, and the CSV of the first csv_paths paths, streamed in path chunks:
    J1 and J2 as forms on zeta, and the dual propagator, whose mean estimates
    the pipeline's Y(0) = zeta(0) read_Y(0), the same on every path."""
    sol = equilibrium_layer(build_finance_spec(m))
    kernel = sol.kernel

    def chunk(bundle: PathBundle) -> dict:
        zeta = simulate_tilde_varphi(kernel.step, bundle)
        listed = bundle.below(csv_paths)
        ens = equilibrium_ensemble(sol, zeta[:, : listed.n_paths], listed)
        return {name: form_samples(form, zeta) for name, form in sol.forms.items()} | {
            "reserve": reserve_samples(sol, zeta, bundle),
            "csv": consumption_paths_csv(ens, m, csv_paths),
        }

    merged = stream_paths(m.grid, mc, sol.system.dim, chunk)
    estimate, stderr = mean_stderr(merged["reserve"])
    Y0 = kernel.read_Y[0, -1]
    summary = {
        "initial_reserve": float(Y0[1]),
        "Y0": Y0,
        "J1": cost_figures(merged["J1"]),
        "J2": cost_figures(merged["J2"]),
        "dual_check": {"mc_estimate": estimate, "stderr": stderr, "gap": estimate - Y0},
    }
    return summary, merged["csv"]
