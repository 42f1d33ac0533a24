"""Optimal consumption-rate application in a one-asset market.

Two agents consume out of a shared terminal-wealth constraint; the
problem maps onto the generic leader-follower machinery through
A = -r, B1 = B2 = 1, C = -(mu - r)/sigma, Q1 = Q2 = S1 = S2 = 0.
The equilibrium is the generic leader pipeline on that specification;
the module adds the market-named CSV of it (wealth, portfolio and the two
consumption rates) and the dual propagator representation of the initial
wealth reserve, a Monte Carlo check of the pipeline's Y(0).

The propagator solves d(Gamma) = a Gamma dt + c Gamma dW with a = M^T and
c = C1h, M the closed-loop drift of the backward pair, so that
Y(0) = E[Gamma(T)^T xi-hat + int_0^T Gamma(t)^T f(t) dt] with the forcing
f = F varphi-tilde (PathKernel.closed_loop).  Its trapezoidal drift,
Milstein diffusion step is Gamma_{i+1} = S_i Gamma_i with
S_i = S0 + dW_i S1 + dW_i^2 S2, S0 = I + dt/2 (a_i + a_{i+1} (I + dt a_i))
- dt/2 c_i^2, S1 = c_i + dt/2 a_{i+1} c_i and S2 = c_i^2 / 2.  The reserve
sample Gamma(T)^T xi-hat + sum_i w_i Gamma(t_i)^T f_i is the row recursion
y_N = xi-hat + w_N f_N, y_i = y_{i+1} S_i + w_i f_i, run backward to y_0 on
paths-last (2n, paths) columns y_i^T (reserve_samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .leader import StackelbergSolution, equilibrium_layer
from .model import (
    CoefficientPath,
    Dimensions,
    LQGameSpec,
    TerminalCondition,
    TimeGrid,
    validate_spec,
)
from .riccati import _tr
from .sampling import MonteCarloConfig, PathBundle, mean_stderr, stream_paths
from .stacked import cost_figures, form_samples, paths_csv, simulate_tilde_varphi


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
        for name in ("G1", "G2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"market weight {name} must be finite")
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


def dual_tables(sol: StackelbergSolution) -> tuple[np.ndarray, np.ndarray]:
    """reserve_samples' tables on paths-last arrays, built once per solve: the
    (N, 6n, 2n) step table (S0^T; S1^T; S2^T) and the (N+1, 2n, 2n+2) table
    on zeta_i^T of w_i f_i, trapezoid weights w_i, with xi-hat = a + b W(T) in
    the W and 1 columns of its last node.  Every block has 2n >= 2 rows, so no
    product is a BLAS gemv, whose bits depend on the number of paths."""
    sys, grid = sol.system, sol.system.grid
    M, F = sol.kernel.closed_loop  # the leader has no known control
    a, c, m, dt = _tr(M), sys.C1h.values[:-1], sys.dim, grid.dt
    eye, c_sq = np.eye(m), c @ c
    steps = np.concatenate([
        eye + 0.5 * dt * (a[:-1] + a[1:] @ (eye + dt * a[:-1]) - c_sq),
        c + 0.5 * dt * a[1:] @ c,
        0.5 * c_sq,
    ], axis=2)
    forcing = np.zeros((grid.steps + 1, m, m + 2))
    forcing[:, :, :m] = grid.trapezoid_weights[:, None, None] * F
    forcing[-1, :, m] += sys.xih.b[:, 0]
    forcing[-1, :, -1] += sys.xih.a
    return np.ascontiguousarray(_tr(steps)), forcing


def reserve_samples(
    tables: tuple[np.ndarray, np.ndarray], zeta: np.ndarray, dW: np.ndarray
) -> np.ndarray:
    """Per path, the dual samples of Y(0), (paths, 2n), on the paths of zeta with
    increments dW: y_N = xi-hat + w_N f_N, y_i = y_{i+1} S_i + w_i f_i with
    S_i = S0_i + dW_i S1_i + dW_i^2 S2_i, backward to y_0 on the dual_tables
    (steps, forcing), on paths-last (2n, paths) columns y_i^T: one
    (6n, 2n) x (2n, paths) product per step."""
    steps, forcing = tables
    m = steps.shape[2]
    f = forcing @ _tr(zeta)  # (N+1, 2n, paths)
    y = f[-1]
    for i in reversed(range(len(steps))):
        s = steps[i] @ y
        y = s[2 * m :] * dW[i]
        y += s[m : 2 * m]
        y *= dW[i]
        y += s[:m]
        y += f[i]
    return _tr(y)


def consumption_paths_csv(sol: StackelbergSolution, m: MarketParams, zeta: np.ndarray, out: TextIO):
    """Write the per-path CSV of (t, wealth, portfolio, c1, c2) of the leader's
    zeta to out, 17 significant digits (paths_csv).

    Wealth is the leader's backward state ybar, the portfolio the risky
    position zbar / sigma, and c1, c2 the two consumption rates u1, u2.
    """
    kernel, n = sol.kernel, sol.spec.dims.n
    ybar, zbar = kernel.read_Y[:, :, n:], kernel.read_Z[:, :, n:]
    table = np.concatenate([ybar, zbar / m.sigma.values, sol.read_u1, kernel.read_u], axis=2)
    paths_csv(m.grid.nodes, ["y", "pi", "c1", "c2"], zeta, table, out)


def consumption_summary(m: MarketParams, mc: MonteCarloConfig) -> tuple[dict, StackelbergSolution]:
    """The consumption equilibrium's figures on mc's paths, keyed as the CLI's
    summary and streamed in path chunks: J1 and J2 as forms on zeta, and the
    dual reserve samples, whose mean estimates the pipeline's Y(0) =
    zeta(0) read_Y(0), the same on every path.  Also returns the equilibrium's
    deterministic layer, which its CSV reads (consumption_paths_csv)."""
    sol = equilibrium_layer(build_finance_spec(m))
    kernel, dual = sol.kernel, dual_tables(sol)

    def chunk(bundle: PathBundle) -> dict:
        zeta = simulate_tilde_varphi(kernel.step, bundle)
        return {name: form_samples(form, zeta) for name, form in sol.forms.items()} | {
            "reserve": reserve_samples(dual, zeta, bundle.dW),
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
    return summary, sol
