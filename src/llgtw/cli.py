"""Command-line front end.

Subcommands: static | equilibria | solve-tw | continue | spectrum |
simulate | verify.  Runs are configured by a flat key = value text file
plus flag overrides (flags win); unknown keys are rejected.  All reports
are JSON with a schema_version field and no timestamps, so identical
inputs produce byte-identical output.

Exit codes: 0 success, 1 verification-check failure, 2 usage or
configuration error, 3 numerical failure (NoConvergence, Instability,
WallNearBoundary).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import verification
from .energetics import equilibria, torques
from .errors import (
    ConfigError,
    DegenerateRegime,
    Instability,
    LlgtwError,
    NoConvergence,
    WallNearBoundary,
)
from .model import (
    Grid,
    Params,
    Regime,
    SCHEMA_VERSION,
    TRANSVERSE,
    TWSolution,
    WALKER,
    profile_from_json,
    profile_to_csv,
    profile_to_json,
    solution_to_json,
    to_cartesian,
    validate,
)
from .solver import NewtonOptions, continue_branch, moving_values, solve_tw
from .spectral import (
    bloch_azimuth_operator,
    lowest_eigenpairs,
    transverse_azimuth_operator,
    transverse_tilt_operator,
)
from .walls import bloch_wall, transverse_wall

_CONFIG_KEYS = {
    "H1": float, "H2": float, "H3": float, "K2": float, "alpha": float,
    "regime": str, "base_K2": float, "base_H2": float, "base_H3": float,
    "Lx": float, "n_nodes": int, "tol_residual": float, "max_iter": int,
    "seed": int,
}


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration: parameters, regime, grid, solver
    options, and the random seed used by randomized checks."""

    params: Params
    regime: Regime
    grid: Grid
    newton: NewtonOptions
    seed: int = 0


def parse_config_text(text: str) -> dict:
    """Parse flat `key = value` configuration text ('#' starts a comment)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError:
            raise ConfigError(
                f"config line {lineno}: cannot parse {val!r} as {_CONFIG_KEYS[key].__name__}"
            )
    return values


_DEFAULTS = {
    "H1": 0.0, "H2": 0.0, "H3": 0.0, "K2": 0.0, "alpha": 0.1, "regime": WALKER,
    "Lx": 20.0, "n_nodes": 801, "tol_residual": 1e-10, "max_iter": 50, "seed": 0,
}
_PATH_KEYS = ("H1", "H2", "H3", "K2", "alpha")  # what `continue` takes from --to


def _effective_values(values: dict) -> dict:
    """Every configuration key with its value in effect: the given value,
    else its default (a regime base value defaults to the target's)."""
    eff = {**_DEFAULTS, **values}
    for key in ("K2", "H2", "H3"):
        eff.setdefault(f"base_{key}", eff[key])
    return eff


def build_config(values: dict) -> RunConfig:
    """Assemble and validate a RunConfig from a key/value mapping."""
    unknown = set(values) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    values = _effective_values(values)
    params = Params(*(values[key] for key in _PATH_KEYS))
    kind = values["regime"]
    if params.K2 == 0.0 and params.H2 == 0.0 and params.H3 == 0.0:
        # degeneracy outranks the per-regime invariants in the error report
        raise DegenerateRegime(
            "degenerate parameters K2 = H2 = H3 = 0: no hard-axis anisotropy or "
            "transverse field; travelling-wave construction does not apply"
        )
    if kind == WALKER:
        regime = Regime.walker(values["base_K2"])
    elif kind == TRANSVERSE:
        regime = Regime.transverse(H3=values["base_H3"], H2=values["base_H2"])
    else:
        raise ConfigError(f"unknown regime {kind!r} (walker | transverse)")
    grid = Grid(values["Lx"], values["n_nodes"])
    newton = NewtonOptions(tol_residual=values["tol_residual"], max_iter=values["max_iter"])
    validate(params, regime)
    return RunConfig(params=params, regime=regime, grid=grid, newton=newton,
                     seed=values["seed"])


def _config_values(args) -> dict:
    """The config file's values (if one is given) with flag overrides."""
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_text(Path(args.config).read_text()))
    for key in _CONFIG_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    return values


def _load_config(args) -> RunConfig:
    return build_config(_config_values(args))


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--H1", type=float)
    p.add_argument("--H2", type=float)
    p.add_argument("--H3", type=float)
    p.add_argument("--K2", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--regime", choices=[WALKER, TRANSVERSE])
    p.add_argument("--base-K2", dest="base_K2", type=float)
    p.add_argument("--base-H2", dest="base_H2", type=float)
    p.add_argument("--base-H3", dest="base_H3", type=float)
    p.add_argument("--Lx", type=float)
    p.add_argument("--n-nodes", dest="n_nodes", type=int)
    p.add_argument("--tol-residual", dest="tol_residual", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--seed-rng", dest="seed", type=int)


def cmd_static(args) -> int:
    grid = Grid(args.Lx if args.Lx is not None else 20.0,
                args.n_nodes if args.n_nodes is not None else 801)
    if args.wall == "bloch":
        profile = bloch_wall(grid)
    else:
        if args.H3 is None:
            raise ConfigError("static --wall transverse requires --H3 in (0, 1)")
        profile = transverse_wall(args.H3, grid)
        if profile.n_nodes != grid.n_nodes:
            grid = Grid(grid.h * (profile.n_nodes - 1) / 2.0, profile.n_nodes)
    if args.format == "json":
        _emit(profile_to_json(profile, grid), args.out)
    else:
        _emit(profile_to_csv(profile, grid), args.out)
    return 0


def cmd_equilibria(args) -> int:
    cfg = _load_config(args)
    eq = equilibria(cfg.params)
    doc = {"schema_version": SCHEMA_VERSION}
    for name, (a, b) in (("plus", eq.plus), ("minus", eq.minus)):
        F1, F2 = torques(a, b, cfg.params)
        m = eq.m_plus() if name == "plus" else eq.m_minus()
        doc[name] = {
            "psi": a, "beta": b, "m": list(m),
            "torque_residual": [F1, F2],
        }
    _emit(json.dumps(doc, sort_keys=True), args.out)
    return 0


def cmd_solve_tw(args) -> int:
    cfg = _load_config(args)
    seed_sol = None
    if args.seed:
        profile, sgrid, sparams, sv = profile_from_json(Path(args.seed).read_text())
        if sgrid.n_nodes != cfg.grid.n_nodes:
            raise ConfigError(
                f"seed profile has {sgrid.n_nodes} nodes but the run grid has "
                f"{cfg.grid.n_nodes}"
            )
        seed_sol = TWSolution(profile, sv or 0.0, sparams or cfg.params, np.inf, sgrid)
    sol = solve_tw(cfg.params, cfg.regime, cfg.grid, cfg.newton, seed=seed_sol)
    _emit(solution_to_json(sol), args.out)
    if args.out:
        print(f"V = {sol.V:.12g}  residual = {sol.residual_norm:.3e}  "
              f"iterations = {sol.iterations}")
    return 0


def cmd_continue(args) -> int:
    values_from = parse_config_text(Path(args.path_from).read_text())
    values_to = parse_config_text(Path(args.path_to).read_text())
    # the regime base, grid and Newton options come from --from only
    eff = _effective_values(values_from)
    clash = [k for k, v in values_to.items() if k not in _PATH_KEYS and v != eff[k]]
    if clash:
        raise ConfigError(
            "continue takes only " + ", ".join(_PATH_KEYS) + " from --to; it sets "
            + ", ".join(f"{k} = {values_to[k]!r}" for k in clash)
            + ", but --from has " + ", ".join(f"{k} = {eff[k]!r}" for k in clash)
        )
    cfg_from = build_config(values_from)
    cfg_to = build_config(values_to)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    sols, report = continue_branch(
        cfg_from.params, cfg_to.params, args.steps, cfg_from.regime,
        cfg_from.grid, cfg_from.newton,
    )
    rows = ["step,H1,H2,H3,K2,V,residual"]
    for k, sol in enumerate(sols):
        (outdir / f"step_{k:04d}.json").write_text(solution_to_json(sol))
        p = sol.params
        rows.append(f"{k},{p.H1:.17g},{p.H2:.17g},{p.H3:.17g},{p.K2:.17g},"
                    f"{sol.V:.17g},{sol.residual_norm:.3e}")
    (outdir / "branch.csv").write_text("\n".join(rows) + "\n")
    moved = moving_values(cfg_from.params, cfg_to.params, report.last_params)
    print(f"{len(sols)} solutions; reached_end = {report.reached_end}; "
          f"last {moved or 'parameters unmoved'}; {report.message}")
    return 0


_OPERATORS = {
    "L": "azimuth block about the Bloch wall",
    "M": "azimuth block about the transverse wall",
    "N": "tilt block about the transverse wall",
}


def cmd_spectrum(args) -> int:
    grid = Grid(args.Lx if args.Lx is not None else 20.0,
                args.n_nodes if args.n_nodes is not None else 801)
    if args.operator == "L":
        op = bloch_azimuth_operator(grid)
        if args.K2:
            op = op.shifted(args.K2)
    else:
        if args.H3 is None:
            raise ConfigError(f"spectrum --operator {args.operator} requires --H3 in (0, 1)")
        build = transverse_azimuth_operator if args.operator == "M" else transverse_tilt_operator
        op = build(args.H3, grid)
    pairs = lowest_eigenpairs(op, args.k)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "operator": args.operator,
        "description": _OPERATORS[args.operator],
        "eigenvalues": [lam for lam, _ in pairs],
    }
    _emit(json.dumps(doc, sort_keys=True), args.out)
    if args.vectors_out:
        cols = ["xi"] + [f"v{j}" for j in range(len(pairs))]
        lines = [",".join(cols)]
        xi = grid.xi[1:-1]
        for i in range(xi.size):
            lines.append(",".join([f"{xi[i]:.17g}"] + [f"{v[i]:.17g}" for _, v in pairs]))
        Path(args.vectors_out).write_text("\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.regime.kind == WALKER:
        m0 = to_cartesian(bloch_wall(cfg.grid))
    else:
        base = transverse_wall(float(np.hypot(cfg.regime.H2, cfg.regime.H3)),
                               cfg.grid, extend=False)
        m0 = to_cartesian(base)
    traj = dyn.integrate(m0, cfg.params, cfg.grid, T=args.T, dt=args.dt)
    diag = ["t,x_w,energy,max_unit_violation"]
    for k in range(traj.t.size):
        diag.append(f"{traj.t[k]:.17g},{traj.x_w[k]:.17g},{traj.energy[k]:.17g},"
                    f"{traj.max_unit_violation[k]:.3e}")
    (outdir / "diagnostics.csv").write_text("\n".join(diag) + "\n")
    stride = max(1, traj.t.size // args.max_snapshots)
    for k in range(0, traj.t.size, stride):
        m = traj.profiles[k]
        lines = ["xi,m1,m2,m3"]
        for i in range(cfg.grid.n_nodes):
            lines.append(f"{cfg.grid.xi[i]:.17g},{m[i,0]:.17g},{m[i,1]:.17g},{m[i,2]:.17g}")
        (outdir / f"snapshot_{k:06d}.csv").write_text("\n".join(lines) + "\n")
    _, vel = dyn.track_wall(traj)
    print(f"integrated to T = {traj.t[-1]:.6g} by {traj.method}, dt = {traj.dt:.6g}, "
          f"{traj.n_steps} steps; tracked velocity = {vel:.8g}")
    return 0


def cmd_verify(args) -> int:
    # verify only consumes the grid and the seed; the suite pins its own
    # physics parameters.  A config is still fully validated if provided
    # (without one, the all-zero default parameters are degenerate).
    values = _config_values(args)
    if args.config:
        build_config(values)
    eff = _effective_values(values)
    report = verification.run_all(Grid(eff["Lx"], eff["n_nodes"]), seed=eff["seed"])
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text)
    for entry in report["criteria"]:
        status = "PASS" if entry["pass"] else "FAIL"
        print(f"{status}  {entry['name']}")
    print("all checks passed" if report["all_pass"] else "some checks FAILED")
    if not args.out:
        sys.stdout.write(text + "\n")
    return 0 if report["all_pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="llgtw",
        description="Travelling-wave domain walls of the 1D Landau-Lifshitz-Gilbert equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("static", help="emit a static wall profile")
    p.add_argument("--wall", choices=["bloch", "transverse"], default="bloch")
    p.add_argument("--H3", type=float)
    p.add_argument("--Lx", type=float)
    p.add_argument("--n-nodes", dest="n_nodes", type=int)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_static)

    p = sub.add_parser("equilibria", help="boundary equilibria and torque residuals")
    _add_config_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("solve-tw", help="solve the travelling-wave system")
    _add_config_flags(p)
    p.add_argument("--seed", help="profile JSON used as the initial guess")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_tw)

    p = sub.add_parser("continue", help="natural-parameter continuation between two configs")
    p.add_argument("--from", dest="path_from", required=True)
    p.add_argument("--to", dest="path_to", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("spectrum", help="lowest eigenvalues of a linearization block")
    p.add_argument("--operator", choices=list(_OPERATORS), required=True)
    p.add_argument("--H3", type=float)
    p.add_argument("--K2", type=float)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--Lx", type=float)
    p.add_argument("--n-nodes", dest="n_nodes", type=int)
    p.add_argument("--out")
    p.add_argument("--vectors-out", dest="vectors_out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="integrate the magnetization dynamics")
    _add_config_flags(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--dt", type=float,
                   help=f"implicit-midpoint time step (default {dyn.MIDPOINT_DT})")
    p.add_argument("--out", required=True)
    p.add_argument("--max-snapshots", dest="max_snapshots", type=int, default=50)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the full verification suite")
    _add_config_flags(p)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NoConvergence, Instability, WallNearBoundary) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except LlgtwError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
