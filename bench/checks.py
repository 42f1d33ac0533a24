"""Output checks of one benchmark operation, and the figures recorded beside timings.

An operation fails when a command exits nonzero or raises, or when any
check below fails.  ``check_command`` returns the list of failed checks
(empty when the output is correct) and the figures kept in the results
record: J values, Y0 / initial reserve and the accuracy figures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DEFECT_TOL = 1e-8  # equilibrium: terminal, coupling, decoupling, stationarity
CLOSED_FORM_TOL = 1e-6  # riccati: closed form vs RK4
# finance: |dual-reserve gap| / stderr.  A benchmark pass makes a few
# hundred finance operations of two components each; at 3 stderr about
# one in two passes would fail by chance alone, at 5 about one in 5000.
RESERVE_GAP_SIGMAS = 5.0


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _finite_j(summary: dict, errors: list[str]) -> dict:
    figures = {}
    for key in ("J1", "J2"):
        if key in summary:
            mean = summary[key]["mean"]
            figures[key] = mean
            figures[f"{key}_stderr"] = summary[key]["stderr"]
            if not math.isfinite(mean):
                errors.append(f"{key} is not finite: {mean!r}")
    return figures


def check_equilibrium(out: Path) -> tuple[list[str], dict]:
    s = _load(out, "summary.json")
    errors: list[str] = []
    figures = _finite_j(s, errors)
    defects = {
        "terminal_error_max": s["terminal_error_max"],
        "initial_coupling_max": s["initial_coupling_max"],
        "decoupling_consistency_max": s["decoupling_consistency_max"],
        "stationarity.follower": s["stationarity"]["follower"],
        "stationarity.leader": s["stationarity"]["leader"],
    }
    for name, value in defects.items():
        if not value <= DEFECT_TOL:
            errors.append(f"{name} = {value!r} > {DEFECT_TOL}")
    figures.update(defects)
    figures["bsde_residual_rms"] = s["bsde_residual_rms"]
    return errors, figures


def check_finance(out: Path) -> tuple[list[str], dict]:
    s = _load(out, "summary.json")
    errors: list[str] = []
    figures = _finite_j(s, errors)
    dual = s["dual_check"]
    sigmas = []
    for i, (gap, err) in enumerate(zip(dual["gap"], dual["stderr"])):
        z = abs(gap) / err if err > 0 else math.inf
        sigmas.append(z)
        if not z < RESERVE_GAP_SIGMAS:
            errors.append(f"dual-reserve gap {i} is {z:.3g} stderr (limit {RESERVE_GAP_SIGMAS})")
    figures.update(
        initial_reserve=s["initial_reserve"],
        Y0=s["Y0"],
        reserve_gap_sigma=max(sigmas),
    )
    if not math.isfinite(s["initial_reserve"]):
        errors.append(f"initial_reserve is not finite: {s['initial_reserve']!r}")
    return errors, figures


def check_riccati(out: Path) -> tuple[list[str], dict]:
    solv = _load(out, "solvability.json")
    errors: list[str] = []
    if not solv.get("closed_form_applicable"):
        errors.append("closed forms not applicable (C != 0)")
    if "error" in solv:
        errors.append(f"closed form failed: {solv['error']}")
    gaps = {}
    for tag in ("pi1", "pi2"):
        gap = solv.get(tag, {}).get("max_gap_vs_rk4", math.inf)
        gaps[f"{tag}_closed_form_gap"] = gap
        if not gap <= CLOSED_FORM_TOL:
            errors.append(f"{tag} closed form vs RK4 gap {gap!r} > {CLOSED_FORM_TOL}")
    return errors, gaps


def check_verify(out: Path) -> tuple[list[str], dict]:
    s = _load(out, "summary.json")
    errors: list[str] = []
    if s.get("passed") is not True:
        errors.append("verify did not pass")
    oracle = s["oracle"]
    figures = {
        "J1": oracle["follower"]["pipeline_cost"],
        "J2": oracle["leader"]["pipeline_cost"],
        "oracle_rel_gap": max(oracle["follower"]["rel_gap"], oracle["leader"]["rel_gap"]),
    }
    for key in ("J1", "J2"):
        if not math.isfinite(figures[key]):
            errors.append(f"{key} is not finite: {figures[key]!r}")
    return errors, figures


CHECKS = {
    "equilibrium": check_equilibrium,
    "finance": check_finance,
    "riccati": check_riccati,
    "verify": check_verify,
}


def check_command(command: str, out: Path) -> tuple[list[str], dict]:
    """Failed checks and recorded figures of one command's output directory."""
    try:
        return CHECKS[command](out)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"], {}
