"""Correctness checks of one operation's `report.json`.

Every figure is recomputed here from the scenario's inputs and the
reported schedules; costs are compared with the scipy optima of
`reference.py`.  `check_report` returns a list of findings, empty when
the operation is correct.
"""

from __future__ import annotations

import numpy as np

from reference import home_cost

# Relative tolerance on the fleet optimum and on each stand-alone cost.
# The loop stops when the L1 disagreement over all trades is at most
# 1e-6 kW, and no marginal price in these tariffs exceeds about 1 $/kW,
# so a converged run can sit at most about 1e-6 $ from the optimum: under
# 1e-8 of the 100-200 $ system costs here.  scipy's trust-constr agreed
# with the program to about 1e-10 in sizing runs.  1e-6 keeps two orders
# of margin over both and is a thousand times tighter than the 0.1% of
# acceptance criterion 1.
COST_RTOL = 1e-6
BALANCE_TOL = 1e-5      # kW, acceptance criterion 4
BOUND_TOL = 1e-8        # kW and degC, acceptance criterion 4
RECURSION_TOL = 1e-6    # degC, recursion recomputed from hvac power
ANTISYM_TOL = 1e-12     # kW, acceptance criterion 3
PAYMENT_TOL = 1e-9      # $, acceptance criterion 7


def check_report(doc: dict, scenario, pooled: float,
                 baselines: dict[int, float]) -> list[str]:
    found = []

    def need(ok, msg):
        if not ok:
            found.append(msg)

    def close(value, ref, rtol, what):
        need(abs(value - ref) <= rtol * max(1.0, abs(ref)),
             f"{what}: {value!r} against {ref!r}")

    sh = scenario.grid.slot_hours
    tariff = scenario.tariff
    users = {u.id: u for u in scenario.users}
    rows = {r["id"]: r for r in doc["users"]}
    need(doc["converged"] is True, "run did not converge")
    if set(rows) != set(users):
        return found + [f"report covers homes {sorted(rows)}, "
                        f"expected {sorted(users)}"]
    ids = sorted(users)
    h = scenario.grid.horizon_len
    trades = np.zeros((len(ids), len(ids), h))
    for i, uid in enumerate(ids):
        for j, vid in enumerate(ids):
            if vid != uid:
                trades[i, j] = rows[uid]["trades"][str(vid)]
    need(float(np.max(np.abs(trades + trades.transpose(1, 0, 2)))) <= ANTISYM_TOL,
         "trade tensor is not antisymmetric")
    need(abs(sum(r["payment"] for r in rows.values())) <= PAYMENT_TOL,
         "payments do not sum to zero")

    system = 0.0
    for i, uid in enumerate(ids):
        u, r = users[uid], rows[uid]
        s = {k: np.asarray(v) for k, v in r["schedule"].items()}
        p_re, p_g, p_ac, t_in = (s["renewable_use"], s["grid_draw"],
                                 s["hvac_power"], s["indoor_temp"])
        net = trades[i].sum(axis=0)
        balance = p_re + p_g - p_ac + net - u.inflexible_load
        need(float(np.max(np.abs(balance))) <= BALANCE_TOL,
             f"home {uid}: per-slot balance off")
        for vals, lo, hi, what in ((p_re, 0.0, u.renewable_avail, "renewable use"),
                                   (p_g, 0.0, u.grid_cap, "grid draw"),
                                   (p_ac, 0.0, u.hvac_cap, "hvac power"),
                                   (t_in, u.temp_min, u.temp_max, "indoor temperature")):
            need(bool(np.all(vals >= lo - BOUND_TOL) and np.all(vals <= hi + BOUND_TOL)),
                 f"home {uid}: {what} outside its bounds")
        cr = u.thermal_capacitance * u.thermal_resistance
        temp, recur = float(u.temp_initial), np.empty(h)
        for t in range(h):
            temp = ((1.0 - 1.0 / cr) * temp + u.outdoor_temp[t] / cr
                    - u.hvac_efficiency / u.thermal_capacitance * p_ac[t])
            recur[t] = temp
        need(float(np.max(np.abs(recur - t_in))) <= RECURSION_TOL,
             f"home {uid}: indoor temperature departs from the RC recursion")
        payment = float(tariff.trade_price @ net) * sh
        close(r["payment"], payment, 1e-9, f"home {uid}: payment")
        coop = home_cost(u, tariff, sh, p_g, t_in) + payment
        close(r["cooperative_cost"], coop, 1e-9, f"home {uid}: cooperative cost")
        close(r["baseline_cost"], baselines[uid], COST_RTOL,
              f"home {uid}: baseline cost against the scipy stand-alone optimum")
        system += coop

    reported = doc["system"]["cooperative_cost"]
    close(reported, system, 1e-9, "system cost against the reported schedules")
    close(reported, pooled, COST_RTOL, "system cost against the scipy pooled optimum")
    base = sum(r["baseline_cost"] for r in rows.values())
    need(reported <= base + 1e-9 * max(1.0, abs(base)),
         "cooperation costs more than the stand-alone baselines")
    return found
