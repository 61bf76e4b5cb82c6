"""Optimal costs computed apart from the program, with scipy.

Trades are free and unbounded and every payment has an equal and
opposite counterpart, so the fleet's cooperative optimum equals a
*pooled* problem: each home keeps its own thermal recursion, bounds and
peak epigraph, and one shared balance row per slot,

    sum_i (p_re + p_g - p_ac - load)_i,t = 0,

replaces every pairwise trade variable.  A home's stand-alone optimum
is the same problem for that home alone with its own balance row.
Both are solved with `scipy.optimize.minimize(method="trust-constr")`;
nothing here calls `hvactrade.qp` or `hvactrade.agent`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, minimize

_OPTIONS = {"gtol": 1e-10, "xtol": 1e-10, "barrier_tol": 1e-10, "maxiter": 5000}


def home_cost(u, tariff, slot_hours, grid_draw, indoor_temp) -> float:
    """Grid energy, peak demand charge and discomfort of one schedule."""
    dev = np.asarray(indoor_temp) - u.temp_ref
    return (tariff.energy_price * slot_hours * float(np.sum(grid_draw))
            + tariff.peak_price * float(np.max(grid_draw))
            + u.comfort_weight * float(dev @ dev))


def optimum(users, tariff, slot_hours) -> float:
    """Minimum total cost of `users` sharing one balance row per slot.

    Variables per home, in order: p_re, p_g, p_ac, t_in (one per slot)
    and the peak draw.
    """
    h = users[0].horizon
    nv = 4 * h + 1
    size = nv * len(users)
    lb, ub = np.empty(size), np.empty(size)
    lin, quad = np.zeros(size), np.zeros(size)
    const = 0.0
    eq, eq_rhs, peak_rows = [], [], []
    balance = np.zeros((h, size))
    for k, u in enumerate(users):
        re, g, ac, tin, pk = (k * nv + j * h for j in range(5))
        slots = np.arange(h)
        lb[re:re + h], ub[re:re + h] = 0.0, u.renewable_avail
        lb[g:g + h], ub[g:g + h] = 0.0, u.grid_cap
        lb[ac:ac + h], ub[ac:ac + h] = 0.0, u.hvac_cap
        lb[tin:tin + h], ub[tin:tin + h] = u.temp_min, u.temp_max
        lb[pk], ub[pk] = 0.0, np.inf
        # RC recursion: t_t - a t_(t-1) + (eta/C) p_ac,t = t_out,t / (CR)
        cr = u.thermal_capacitance * u.thermal_resistance
        a = 1.0 - 1.0 / cr
        rows = np.zeros((h, size))
        rows[slots, tin + slots] = 1.0
        rows[slots[1:], tin + slots[:-1]] = -a
        rows[slots, ac + slots] = u.hvac_efficiency / u.thermal_capacitance
        rhs = u.outdoor_temp / cr
        rhs[0] += a * u.temp_initial
        eq.append(rows)
        eq_rhs.append(rhs)
        # peak epigraph: p_g,t - peak <= 0
        rows = np.zeros((h, size))
        rows[slots, g + slots] = 1.0
        rows[:, pk] = -1.0
        peak_rows.append(rows)
        balance[slots, re + slots] = 1.0
        balance[slots, g + slots] = 1.0
        balance[slots, ac + slots] = -1.0
        lin[g:g + h] = tariff.energy_price * slot_hours
        lin[pk] = tariff.peak_price
        # w (t - t_ref)^2 = w t^2 - 2 w t_ref t + w t_ref^2
        quad[tin:tin + h] = 2.0 * u.comfort_weight
        lin[tin:tin + h] = -2.0 * u.comfort_weight * u.temp_ref
        const += u.comfort_weight * u.temp_ref ** 2 * h
    eq.append(balance)
    eq_rhs.append(sum(u.inflexible_load for u in users))
    a_eq, b_eq = sp.csr_matrix(np.vstack(eq)), np.concatenate(eq_rhs)
    hess = sp.diags(quad)
    res = minimize(
        lambda x: 0.5 * float(x @ (quad * x)) + float(lin @ x) + const,
        np.clip(np.zeros(size), lb, np.where(np.isfinite(ub), ub, 0.0)),
        jac=lambda x: quad * x + lin, hess=lambda x: hess,
        method="trust-constr", bounds=Bounds(lb, ub),
        constraints=[LinearConstraint(a_eq, b_eq, b_eq),
                     LinearConstraint(sp.csr_matrix(np.vstack(peak_rows)),
                                      -np.inf, 0.0)],
        options=_OPTIONS)
    if not res.success or res.constr_violation > 1e-8:
        raise RuntimeError(f"reference solve failed: {res.message} "
                           f"(violation {res.constr_violation:.2e})")
    return float(res.fun)


def reference_costs(scenario) -> tuple[float, dict[int, float]]:
    """(pooled fleet optimum, {home id: stand-alone optimum})."""
    sh = scenario.grid.slot_hours
    users = sorted(scenario.users, key=lambda u: u.id)
    return (optimum(users, scenario.tariff, sh),
            {u.id: optimum([u], scenario.tariff, sh) for u in users})
