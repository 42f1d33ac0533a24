"""Matrix ODE integration and matrix-exponential machinery.

Classical RK4 on the game's uniform time grid, in both directions: a
backward problem steps from t = T with the negative step -dt, through
the same loop.  A separate 4th-order Magnus propagator provides
linear-system transition matrices; the Riccati closed forms are built on
it.  The module imports no other module of the package: a grid is any
model.TimeGrid, read through its steps, dt and nodes, and results are
plain arrays.
"""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

COND_LIMIT = 1e12
MAX_NORM = 1e12  # an RK4 iterate past this max-entry size counts as diverged


class DivergenceError(RuntimeError):
    """Integration produced a non-finite or exploding iterate, or a table it reads overflowed."""

    def __init__(self, t: float, message: str = ""):
        self.t = t
        super().__init__(message or f"solution diverged at t={t:.6g}")


class SingularityError(RuntimeError):
    """A required matrix inverse is numerically singular."""

    def __init__(self, t: float, label: str):
        self.t = t
        self.label = label
        super().__init__(f"{label} numerically singular at t={t:.6g}")


class ConsistencyError(RuntimeError):
    """Two algebraically equal forms of a computed quantity disagree."""


def check_forms_agree(a: np.ndarray, b: np.ndarray, what: str):
    """Raise ConsistencyError unless max |a - b| <= 1e-10 max(1, max |a|)."""
    gap = float(np.max(np.abs(a - b), initial=0.0))
    if gap > 1e-10 * max(1.0, float(np.max(np.abs(a), initial=0.0))):
        raise ConsistencyError(f"{what} disagree by {gap:.3e}")


def check_finite(table: np.ndarray, t, label: str) -> np.ndarray:
    """The (K, m, m) table at K times t, or DivergenceError naming label at the
    time of its first non-finite matrix."""
    finite = np.isfinite(table).all(axis=(1, 2))
    if not finite.all():
        first = float(t[finite.argmin()])
        raise DivergenceError(first, f"{label} not finite at t={first:.6g}")
    return table


def check_invertible(stack: np.ndarray, t, label: str, inverse: np.ndarray | None = None):
    """Raise SingularityError at the time of the first non-finite matrix, or the
    first with cond above 1e12, of a (K, m, m) stack at K times t.

    A matrix M passes on the certificate kappa_F = |M|_F |X|_F <= COND_LIMIT / 2,
    X its computed inverse: kappa_2 <= kappa_F, and MX - I is of order
    eps |M| |X| (Higham, Accuracy and Stability of Numerical Algorithms, ch. 14),
    so the factor 2 covers the rounding in X.  inverse is the caller's (K, m, m)
    stack of X, where it has one; a slot that holds NaN certifies nothing.
    Without it, one batched inv forms X, and an inv that raises LinAlgError
    certifies nothing.  The batched SVD cond decides every matrix that is not
    certified, so each decision is the SVD's.
    """
    if inverse is None:
        try:
            inverse = np.linalg.inv(stack)
        except np.linalg.LinAlgError:
            inverse = np.full_like(stack, np.nan)
    with np.errstate(all="ignore"):  # an overflowing norm is inf: not certified
        m_sq = np.einsum("kij,kij->k", stack, stack)  # |M|_F^2 of each matrix
        x_sq = np.einsum("kij,kij->k", inverse, inverse)
        uncertified = ~(m_sq * x_sq <= (0.5 * COND_LIMIT) ** 2)
    if not uncertified.any():
        return
    rest = stack[uncertified]
    finite = np.isfinite(rest).all(axis=(1, 2))
    cond = np.linalg.cond(np.where(finite[:, None, None], rest, 0.0))
    bad = ~finite | ~(cond <= COND_LIMIT)
    if bad.any():
        t = np.broadcast_to(t, uncertified.shape)[uncertified]
        raise SingularityError(float(t[bad.argmax()]), label)


def guarded_inv(m: np.ndarray, t, label: str) -> np.ndarray:
    """Inverse with a condition-number gate (threshold 1e12).

    m is one matrix at time t, or a (K, m, m) stack at K times t, inverted by
    one batched inv and gated by check_invertible on that inverse.  An inv
    that raises leaves the gate to the SVD, which names the singular matrix.
    The Pi1 flow gates its stage matrices with the same check, after the flow
    (riccati.pi1_field).
    """
    m = np.atleast_2d(m)
    stack = m.reshape(-1, *m.shape[-2:])
    try:
        inverse = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        check_invertible(stack, t, label)  # certifies nothing: the SVD names the matrix
        raise
    check_invertible(stack, t, label, inverse.reshape(stack.shape))
    return inverse


class OdeDirection(enum.Enum):
    FORWARD = "forward"  # value given at t = 0
    BACKWARD = "backward"  # value given at t = T


def integrate_matrix_ode(
    field: Callable[[int, np.ndarray], np.ndarray],
    boundary_value: np.ndarray,
    grid,
    direction: OdeDirection,
    postprocess: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Classical RK4 for dM/dt = field(j, M) with one boundary value; returns
    the (N+1, m, m) values at the grid's nodes.

    It carries the nonlinear Riccati flows; linear ODEs take RK4 step
    maps instead (stacked.solve_affine_bsde).  The field is called once
    per stage, in integration order, with the half-step index j of its
    stage time t = grid.half_times[j], so it reads precomputed
    (2N+1)-sample tables instead of interpolating.  postprocess (e.g.
    symmetrization) is applied to the iterate after every step.
    Non-finite iterates, or ones with an entry above MAX_NORM, raise
    DivergenceError with the first bad time.
    """
    m = np.atleast_2d(np.asarray(boundary_value, dtype=float))
    N = grid.steps
    backward = direction is OdeDirection.BACKWARD
    # a backward flow steps from t = T with h = -dt through the half steps 2N, 2N - 1, ...
    h, sign, j = (-grid.dt, -1, 2 * N) if backward else (grid.dt, 1, 0)
    half, sixth = 0.5 * h, h / 6.0
    out = np.empty((N + 1, *m.shape))
    out[N if backward else 0] = m
    # one buffer per flow: the iterates of stages 2-4, the slope sum and 2 k3;
    # a field may return its argument, so no slot is written while its k is live
    y2, y3, y4, acc, k3x2 = np.empty((5, *m.shape))
    for _ in range(N):
        k1 = field(j, m)
        k2 = field(j + sign, np.add(m, np.multiply(half, k1, out=y2), out=y2))
        k3 = field(j + sign, np.add(m, np.multiply(half, k2, out=y3), out=y3))
        j += 2 * sign
        k4 = field(j, np.add(m, np.multiply(h, k3, out=y4), out=y4))
        # m + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right as written
        np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
        acc += np.multiply(2.0, k3, out=k3x2)
        acc += k4
        acc *= sixth
        acc += m
        m = acc if postprocess is None else postprocess(acc)
        if not np.abs(m, out=k3x2).max() <= MAX_NORM:  # also true on nan and inf
            raise DivergenceError(float(grid.nodes[j // 2]))
        out[j // 2] = m
        m = out[j // 2]
    return out


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """e^M by scaling-and-squaring with Pade approximation, of one matrix or a stack."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    import scipy.linalg  # loaded on first use: only the closed forms reach it

    return scipy.linalg.expm(m)


def transition_steps(matfun: Callable[[np.ndarray], np.ndarray], grid) -> np.ndarray:
    """Per-interval transition matrices of dU/dt = matfun(t) U.

    Fourth-order Magnus integrator with two-point Gauss-Legendre
    sampling; exact (up to expm accuracy) when matfun is constant.
    matfun maps N times, one per interval, to the (N, m, m) stack of its
    values, once per Gauss point.  Returns E with U(t_{i+1}) = E[i] U(t_i).
    """
    dt = grid.dt
    c = np.sqrt(3.0) / 6.0
    t = grid.nodes[:-1]
    a1 = matfun(t + (0.5 - c) * dt)
    a2 = matfun(t + (0.5 + c) * dt)
    omega = 0.5 * dt * (a1 + a2) + (np.sqrt(3.0) / 12.0) * dt * dt * (a2 @ a1 - a1 @ a2)
    return matrix_exponential(omega)

