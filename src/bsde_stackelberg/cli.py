"""Command-line entry point.

Loads a scenario JSON file, runs the requested pipeline and writes
deterministic CSV/JSON artifacts: identical inputs (scenario, seed,
steps, paths) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import follower as fol
from . import leader as led
from .finance import consumption_paths_csv, consumption_summary
from .model import AffineControl, LQGameSpec, SpecError, TimeGrid, validate_spec
from .odeint import ConsistencyError, DivergenceError, SingularityError
from .oracle import (
    NonConvexError,
    build_discrete_problem,
    control_rms_gap,
    deterministic_follower_oracle,
    deterministic_leader_oracle,
    oracle_report,
)
from .riccati import (
    UnsolvableError,
    pi1_closed_form,
    pi2_closed_form,
    riccati_chain,
    riccati_csv,
    riccati_residual,
)
from .sampling import MonteCarloConfig, sample_brownian
from .scenario import Scenario, load_scenario
from .stacked import form_samples, simulate_tilde_varphi

EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3

CSV_PATH_CAP = 50  # per-path CSVs list at most this many paths

TOLERANCE_PROFILES = {
    "strict": {"follower_rel_gap": 1e-3, "leader_rel_gap": 1e-2},
    "desk": {"follower_rel_gap": 1e-2, "leader_rel_gap": 5e-2},
}


def _json_text(payload: dict) -> str:
    """Indented JSON with sorted keys; numpy arrays and scalars go through tolist()."""
    return json.dumps(payload, indent=2, sort_keys=True, default=lambda x: x.tolist())


def _open(out: Path, name: str):
    """out/name opened for writing; a CSV writer writes it a slab of rows at a time."""
    out.mkdir(parents=True, exist_ok=True)
    return (out / name).open("w")


def _write_json(out: Path, name: str, payload: dict):
    with _open(out, name) as f:
        f.write(_json_text(payload) + "\n")


def _draw(step: np.ndarray, grid: TimeGrid, paths: int, seed: int) -> np.ndarray:
    """zeta of a step table on paths 0, ..., paths - 1 of seed, in one bundle: a
    per-path CSV's paths, drawn once after the stream, or verify's two."""
    return simulate_tilde_varphi(step, sample_brownian(grid, paths, seed))


def _write_summary(out: Path, summary: dict, scn: Scenario, args):
    """Write summary.json with the run's provenance added, and print it."""
    summary.update({
        "scenario_sha256": scn.sha256,
        "tolerance_profile": args.tolerance,
        "steps": scn.spec.grid.steps,
        "paths": args.paths,
        "seed": args.seed,
    })
    _write_json(out, "summary.json", summary)
    print(_json_text(summary))


def _validation_payload(scn: Scenario) -> tuple[dict, bool]:
    report = validate_spec(scn.spec, strict=(scn.mode == "strict"))
    payload = {
        "mode": scn.mode,
        "passed": report.passed,
        "violations": [dataclasses.asdict(v) for v in report.violations],
    }
    return payload, report.passed


def cmd_validate(scn: Scenario, out: Path, args) -> int:
    payload, passed = _validation_payload(scn)
    _write_summary(out, payload, scn, args)
    return 0 if passed else EXIT_VALIDATION


def cmd_riccati(scn: Scenario, out: Path, args) -> int:
    spec = scn.spec
    if spec.grid.steps < 4:
        print(f"riccati needs at least 4 steps, got {spec.grid.steps}", file=sys.stderr)
        return EXIT_VALIDATION
    p1, p2, lsys, pi1, pi2 = riccati_chain(spec)  # no path kernel: riccati draws no paths
    for ric in (p1, p2, pi1, pi2):
        with _open(out, f"riccati_{ric.tag.lower()}.csv") as f:
            riccati_csv(ric, f)
    residuals = {ric.tag.lower(): riccati_residual(ric) for ric in (p1, p2, pi1, pi2)}
    solvability: dict = {"closed_form_applicable": spec.c_vanishes}
    if solvability["closed_form_applicable"]:
        try:
            forms = {
                "pi1": (pi1_closed_form(lsys), pi1),
                "pi2": (pi2_closed_form(lsys), pi2),
            }
            for tag, ((cf, min_det), rk4) in forms.items():
                solvability[tag] = {
                    "min_determinant": min_det,
                    "satisfied": min_det > 0.0,
                    "max_gap_vs_rk4": float(np.max(np.abs(cf.values - rk4.values))),
                }
        except UnsolvableError as e:
            solvability["error"] = str(e)
    _write_json(out, "solvability.json", solvability)
    summary = {
        "residual_max": {k: v[0] for k, v in residuals.items()},
        "residual_argmax_t": {k: v[1] for k, v in residuals.items()},
    }
    _write_summary(out, summary, scn, args)
    return 0


def _direction(scn: Scenario) -> AffineControl:
    """The stationarity checks' control direction: constant ones."""
    return AffineControl.constant(scn.spec.grid, np.ones(scn.spec.dims.k))


def cmd_follower(scn: Scenario, out: Path, args) -> int:
    mc = MonteCarloConfig(paths=args.paths, seed=args.seed)
    summary, kernel = fol.follower_summary(scn.spec, scn.u2, mc, _direction(scn))
    zeta = _draw(kernel.step, scn.spec.grid, min(args.paths, CSV_PATH_CAP), args.seed)
    with _open(out, "paths_follower.csv") as f:
        fol.follower_paths_csv(kernel, zeta, f)
    _write_summary(out, summary, scn, args)
    return 0


def cmd_leader(scn: Scenario, out: Path, args) -> int:
    mc = MonteCarloConfig(paths=args.paths, seed=args.seed)
    summary, sol = led.equilibrium_summary(scn.spec, mc, _direction(scn))
    zeta = _draw(sol.kernel.step, scn.spec.grid, min(args.paths, CSV_PATH_CAP), args.seed)
    with _open(out, "paths_leader.csv") as f:
        led.leader_paths_csv(sol, zeta, f)
    _write_summary(out, summary, scn, args)
    return 0


def cmd_finance(scn: Scenario, out: Path, args) -> int:
    if scn.market is None:
        print("scenario has no 'market' section", file=sys.stderr)
        return EXIT_VALIDATION
    mc = MonteCarloConfig(paths=args.paths, seed=args.seed)
    summary, sol = consumption_summary(scn.market, mc)
    zeta = _draw(sol.kernel.step, scn.market.grid, min(args.paths, CSV_PATH_CAP), args.seed)
    with _open(out, "paths_finance.csv") as f:
        consumption_paths_csv(sol, scn.market, zeta, f)
    _write_summary(out, summary, scn, args)
    return 0


def oracle_payload(spec: LQGameSpec, u2: AffineControl, seed: int) -> dict:
    """oracle.json: each player's pipeline cost and control against its QP oracle.

    Needs C = 0, a deterministic terminal datum and a deterministic u2, which
    the follower oracle takes at the step midpoints.
    """
    layer = led.equilibrium_layer(spec)  # its consistency checks come before any path
    # deterministic xi and C = 0: all paths identical, so 2 paths in one bundle
    zeta = _draw(layer.kernel.step, spec.grid, 2, seed)

    prob = build_discrete_problem(spec)
    u2_steps = 0.5 * (u2.u_const.values[:-1, :, 0] + u2.u_const.values[1:, :, 0])
    fol_oracle = deterministic_follower_oracle(prob, u2_steps)
    fol_kernel = fol.follower_kernel(spec, layer.p1, layer.p2, u2)
    fol_zeta = _draw(fol_kernel.step, spec.grid, 2, seed)
    fol_rep = oracle_report(
        fol_oracle.cost,
        float(form_samples(fol.follower_cost_table(spec, fol_kernel), fol_zeta).mean()),
        control_rms_gap(fol_oracle.control, (fol_zeta @ fol_kernel.read_u)[:, 0]),
        spec.grid.steps,
    )

    led_oracle = deterministic_leader_oracle(prob)
    led_rep = oracle_report(
        led_oracle.cost,
        float(form_samples(layer.forms["J2"], zeta).mean()),
        control_rms_gap(led_oracle.control, (zeta @ layer.kernel.read_u)[:, 0]),
        spec.grid.steps,
    )
    return {"follower": fol_rep, "leader": led_rep}


def cmd_verify(scn: Scenario, out: Path, args) -> int:
    spec = scn.spec
    if not spec.xi.deterministic:
        print("oracle verification needs a deterministic terminal datum", file=sys.stderr)
        return EXIT_VALIDATION
    if not spec.c_vanishes:
        print("oracle verification needs C = 0 (no multiplicative noise)", file=sys.stderr)
        return EXIT_VALIDATION
    if scn.u2.u_lin.values.any():  # the follower oracle takes u2's constant part only
        print("oracle verification needs a deterministic u2 (u2.lin = 0)", file=sys.stderr)
        return EXIT_VALIDATION
    profile = TOLERANCE_PROFILES[args.tolerance]
    payload = oracle_payload(spec, scn.u2, args.seed)
    _write_json(out, "oracle.json", payload)
    ok = (
        payload["follower"]["rel_gap"] <= profile["follower_rel_gap"]
        and payload["leader"]["rel_gap"] <= profile["leader_rel_gap"]
    )
    summary = {"oracle": payload, "passed": ok, "thresholds": profile}
    _write_summary(out, summary, scn, args)
    return 0 if ok else EXIT_VALIDATION


COMMANDS = {
    "validate": cmd_validate,
    "riccati": cmd_riccati,
    "follower": cmd_follower,
    "leader": cmd_leader,
    "equilibrium": cmd_leader,
    "finance": cmd_finance,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bsde-stackelberg",
        description="Leader-follower equilibria of linear-quadratic BSDE games",
    )
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--steps", type=int, default=None, help="override grid steps")
    p.add_argument("--paths", type=int, default=10000, help="Monte Carlo paths")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--tolerance", choices=sorted(TOLERANCE_PROFILES), default="strict")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.paths < 1:
        print(f"--paths must be at least 1, got {args.paths}", file=sys.stderr)
        return EXIT_VALIDATION
    if not 0 <= args.seed < 2**64:  # sampling keys each path's stream on (seed << 64) | path
        print(f"--seed must be in [0, 2**64), got {args.seed}", file=sys.stderr)
        return EXIT_VALIDATION
    # an overflow is caught by the loader's, validation's and the solver's guards
    # (SpecError, the validation report, DivergenceError, SingularityError), so
    # its floating-point warnings are not printed
    with np.errstate(all="ignore"):
        try:
            scn = load_scenario(args.scenario, steps=args.steps)
        except (OSError, json.JSONDecodeError) as e:
            print(f"cannot read scenario: {e}", file=sys.stderr)
            return EXIT_IO
        except (SpecError, KeyError, TypeError, ValueError) as e:
            print(f"bad scenario: {e}", file=sys.stderr)
            return EXIT_VALIDATION

        if args.command != "validate":
            _, passed = _validation_payload(scn)
            if not passed:
                print("scenario fails validation; run the validate command", file=sys.stderr)
                return EXIT_VALIDATION

        try:
            return COMMANDS[args.command](scn, Path(args.out), args)
        except (
            DivergenceError,
            SingularityError,
            UnsolvableError,
            ConsistencyError,
            NonConvexError,
            np.linalg.LinAlgError,
        ) as e:
            print(f"solver failure: {e}", file=sys.stderr)
            return EXIT_SOLVER
        except OSError as e:
            print(f"I/O failure: {e}", file=sys.stderr)
            return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
