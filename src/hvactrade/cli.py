"""Command-line entry point.

Subcommands: `run` (cooperative schedule with trading), `baseline`
(per-user schedules, no trading), `compare` (both, with reductions),
`synth` (generate a scenario file), `validate` (check a scenario file).

Exit codes: 0 success, 2 usage error, 10 no convergence, 11 infeasible
scenario, 12 I/O failure, 13 invalid scenario file, 70 internal error.
"""

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import coordinator, reports, scenario
from .errors import (
    HvacTradeError,
    InfeasibleError,
    NonConvergenceError,
    ProtocolViolation,
    ScenarioError,
    SynchronizationTimeout,
)

EXIT_OK = 0
EXIT_NONCONVERGENCE = 10
EXIT_INFEASIBLE = 11
EXIT_IO = 12
EXIT_INVALID_SCENARIO = 13
EXIT_INTERNAL = 70


def _out_dir(args) -> Path:
    out = getattr(args, "out", None)
    if out is None:
        out = os.environ.get("HVACTRADE_OUT", "out")
    return Path(out)


def _admm_config(base, args) -> coordinator.AdmmConfig:
    overrides = {}
    for name in ("tolerance", "max_iter", "rho0"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    try:
        return replace(base, **overrides)
    except ValueError as exc:
        args.parser.error(str(exc))  # exits 2, as for any bad argument


def _load(args) -> scenario.ScenarioConfig:
    """The scenario file under the --seed override; a seed the library
    refuses is a usage error, not a problem of the file."""
    if args.seed is not None:
        try:
            scenario.check_seed(args.seed)
        except ScenarioError as exc:
            args.parser.error(str(exc))
    return scenario.load_scenario(args.scenario, seed=args.seed)


def cmd_run(args) -> int:
    scn = _load(args)
    config = _admm_config(scn.admm, args)
    report = coordinator.run(scn, config, transport=args.transport)
    paths = reports.write_report(report, _out_dir(args))
    print(f"{scn.name}: converged in {report.iterations} iterations, "
          f"final error {report.final_error:.3e}")
    print(f"system cost {report.system_cost:.4f} vs baseline "
          f"{report.system_baseline:.4f} "
          f"({report.system_reduction_pct:.2f}% reduction)")
    print(f"wrote {len(paths)} files under {_out_dir(args)}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    scn = _load(args)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    emp = coordinator.baselines(scn)
    total = sum(cost for _, _, cost in emp)
    cost_lines = ["user,emp_cost"]
    cost_lines += [f"{u.id},{repr(float(cost))}" for u, _, cost in emp]
    cost_lines.append(f"system,{repr(float(total))}")
    reports.write_schedules([(u.id, sched) for u, sched, _ in emp],
                            out / "schedules.csv")
    (out / "costs.csv").write_text("\n".join(cost_lines) + "\n")
    print(f"{scn.name}: system baseline cost {total:.4f} "
          f"({len(scn.users)} users, no trading)")
    print(f"wrote 2 files under {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    scn = _load(args)
    config = _admm_config(scn.admm, args)
    report = coordinator.run(scn, config)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    reports.write_costs(report, out / "costs.csv")
    print(f"{'user':>6}  {'baseline':>12}  {'cooperative':>12}  "
          f"{'reduction':>9}")
    for r in report.users:
        print(f"{r.user_id:>6}  {r.baseline_cost:>12.4f}  "
              f"{r.cooperative_cost:>12.4f}  {r.reduction_pct:>8.2f}%")
    print(f"{'system':>6}  {report.system_baseline:>12.4f}  "
          f"{report.system_cost:>12.4f}  "
          f"{report.system_reduction_pct:>8.2f}%")
    print(f"wrote costs.csv under {out}")
    if report.system_cost > report.system_baseline + 1e-6:
        print("error: cooperative cost exceeds baseline; the zero-trade "
              "schedule should always be available", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        config = scenario.build_synth_scenario(
            args.users, args.horizon, seed=args.seed if args.seed is not None
            else 0, slot_hours=args.slot_hours, name=args.name)
    except ScenarioError as exc:
        args.parser.error(str(exc))  # each value came from the command line
    scenario.save_scenario(config, args.out_path)
    print(f"wrote {args.out_path} ({args.users} users, "
          f"{args.horizon} slots, seed {config.seed})")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        config = _load(args)
    except ScenarioError as exc:
        for finding in exc.findings:
            print(f"  {finding}", file=sys.stderr)
        print(f"{args.scenario}: {len(exc.findings)} problem(s)",
              file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    print(f"{args.scenario}: ok ({len(config.users)} users, "
          f"{config.grid.horizon_len} slots)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvactrade",
        description="Cooperative HVAC scheduling with peer-to-peer "
                    "energy trading.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="scenario YAML file")
    common.add_argument("--out", default=None,
                        help="output directory (default: $HVACTRADE_OUT "
                             "or ./out)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario's trace seed")

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tolerance", type=float, default=None,
                        help="convergence tolerance override")
    solver.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                        help="iteration cap override")
    solver.add_argument("--rho0", type=float, default=None,
                        help="penalty weight override")

    p_run = sub.add_parser("run", parents=[common, solver],
                           help="run the cooperative schedule with trading")
    p_run.add_argument("--transport", choices=sorted(coordinator.TRANSPORTS),
                       default="inproc",
                       help="agent transport (default: inproc)")
    p_run.set_defaults(func=cmd_run, parser=p_run)

    p_base = sub.add_parser("baseline", parents=[common],
                            help="run per-user schedules without trading")
    p_base.set_defaults(func=cmd_baseline, parser=p_base)

    p_cmp = sub.add_parser("compare", parents=[common, solver],
                           help="run both and report per-user reductions")
    p_cmp.set_defaults(func=cmd_compare, parser=p_cmp)

    p_synth = sub.add_parser("synth",
                             help="generate a synthetic scenario file")
    p_synth.add_argument("out_path", help="where to write the scenario YAML")
    p_synth.add_argument("--users", type=int, required=True,
                         help="number of users")
    p_synth.add_argument("--horizon", type=int, required=True,
                         help="number of time slots")
    p_synth.add_argument("--seed", type=int, default=None,
                         help="trace seed (default 0)")
    p_synth.add_argument("--slot-hours", type=float, default=1.0,
                         dest="slot_hours", help="hours per slot")
    p_synth.add_argument("--name", default="synthetic",
                         help="scenario name")
    p_synth.set_defaults(func=cmd_synth, parser=p_synth)

    p_val = sub.add_parser("validate", parents=[common],
                           help="check a scenario file and print findings")
    p_val.set_defaults(func=cmd_validate, parser=p_val)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for finding in exc.findings:
            print(f"scenario: {finding}", file=sys.stderr)
        return EXIT_INVALID_SCENARIO
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonConvergenceError as exc:
        out = _out_dir(args)
        if exc.history:
            try:
                out.mkdir(parents=True, exist_ok=True)
                reports.write_convergence(exc.history, out / "convergence.csv")
                print(f"wrote partial trace to {out / 'convergence.csv'}",
                      file=sys.stderr)
            except OSError:
                pass
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ProtocolViolation, SynchronizationTimeout) as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except HvacTradeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
