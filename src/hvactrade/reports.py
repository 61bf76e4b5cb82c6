"""Result structures and report persistence.

A finished run produces one `ScenarioReport`; `write_report` persists
it as report.json plus four flat CSV files (convergence trace, per-user
schedules, trade ledger, cost comparison).  Serialization is fully
deterministic: keys sorted, floats via their shortest round-trip form,
no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import Schedule


@dataclass
class UserResult:
    """One user's outcome: costs, final schedule, and consistent trades.
    `trades[j, t]`, the negotiated consensus, is kW bought from
    `partner_ids[j]` during slot t; negative entries are sales."""

    user_id: int
    baseline_cost: float
    cooperative_cost: float
    reduction_pct: float
    payment: float
    schedule: Schedule
    trades: np.ndarray
    partner_ids: tuple[int, ...]
    arbitrage_slots: tuple[int, ...] = ()


@dataclass
class ScenarioReport:
    """Complete outcome of one scenario run.

    `wire_frames` holds every frame a socket run sent or received: each
    round's proposals, then its broadcasts, by user id, so two runs of
    one scenario capture the same bytes.  An in-process run encodes
    nothing and leaves it empty.  It is never written to the report
    files."""

    scenario_name: str
    n_users: int
    horizon: int
    slot_hours: float
    rho0: float
    tolerance: float
    max_iter: int
    converged: bool
    iterations: int
    final_error: float
    history: list[tuple[int, float, float]]
    users: list[UserResult]
    system_baseline: float
    system_cost: float
    system_reduction_pct: float
    payment_total: float
    wire_frames: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "scenario": {
                "name": self.scenario_name,
                "n_users": self.n_users,
                "horizon": self.horizon,
                "slot_hours": self.slot_hours,
            },
            "admm": {
                "rho0": self.rho0,
                "tolerance": self.tolerance,
                "max_iter": self.max_iter,
            },
            "converged": self.converged,
            "iterations": self.iterations,
            "final_error": self.final_error,
            "system": {
                "baseline_cost": self.system_baseline,
                "cooperative_cost": self.system_cost,
                "reduction_pct": self.system_reduction_pct,
                "payment_total": self.payment_total,
            },
            "users": [
                {
                    "id": r.user_id,
                    "baseline_cost": r.baseline_cost,
                    "cooperative_cost": r.cooperative_cost,
                    "reduction_pct": r.reduction_pct,
                    "payment": r.payment,
                    "arbitrage_slots": list(r.arbitrage_slots),
                    "schedule": {
                        "renewable_use": r.schedule.renewable_use.tolist(),
                        "grid_draw": r.schedule.grid_draw.tolist(),
                        "hvac_power": r.schedule.hvac_power.tolist(),
                        "indoor_temp": r.schedule.indoor_temp.tolist(),
                    },
                    "trades": {str(j): r.trades[k].tolist()
                               for k, j in enumerate(r.partner_ids)},
                }
                for r in self.users
            ],
            "convergence": [[int(k), float(e), float(rho)]
                            for k, e, rho in self.history],
        }


def _fmt(v) -> str:
    return repr(float(v))


def write_convergence(history, path: Path):
    lines = ["iteration,error,rho"]
    for k, err, rho in history:
        lines.append(f"{int(k)},{_fmt(err)},{_fmt(rho)}")
    path.write_text("\n".join(lines) + "\n")


def write_schedules(schedules, path: Path):
    """One row per user and slot from (user_id, Schedule) pairs."""
    lines = ["user,slot,p_RE,p_G,p_AC,T_IN"]
    for uid, s in schedules:
        for t in range(s.grid_draw.shape[0]):
            lines.append(f"{uid},{t},{_fmt(s.renewable_use[t])},"
                         f"{_fmt(s.grid_draw[t])},{_fmt(s.hvac_power[t])},"
                         f"{_fmt(s.indoor_temp[t])}")
    path.write_text("\n".join(lines) + "\n")


def write_costs(report: ScenarioReport, path: Path):
    lines = ["user,emp_cost,coop_cost,reduction_pct"]
    for r in report.users:
        lines.append(f"{r.user_id},{_fmt(r.baseline_cost)},"
                     f"{_fmt(r.cooperative_cost)},{_fmt(r.reduction_pct)}")
    lines.append(f"system,{_fmt(report.system_baseline)},"
                 f"{_fmt(report.system_cost)},"
                 f"{_fmt(report.system_reduction_pct)}")
    path.write_text("\n".join(lines) + "\n")


def write_report(report: ScenarioReport, out_dir) -> list[Path]:
    """Write report.json and the four CSV views; returns the paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)

        json_path = out / "report.json"
        json_path.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")

        conv_path = out / "convergence.csv"
        write_convergence(report.history, conv_path)

        sched_path = out / "schedules.csv"
        write_schedules([(r.user_id, r.schedule) for r in report.users],
                        sched_path)

        trades_path = out / "trades.csv"
        lines = ["buyer,seller,slot,kW"]
        for r in report.users:
            for k, j in enumerate(r.partner_ids):
                for t in range(report.horizon):
                    kw = r.trades[k, t]
                    if kw > 1e-9:
                        lines.append(f"{r.user_id},{j},{t},{_fmt(kw)}")
        trades_path.write_text("\n".join(lines) + "\n")

        costs_path = out / "costs.csv"
        write_costs(report, costs_path)
    except OSError as exc:
        raise OSError(f"cannot write report under {out}: {exc}") from exc

    return [json_path, conv_path, sched_path, trades_path, costs_path]
