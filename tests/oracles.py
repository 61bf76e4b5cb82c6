"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's solver machinery: the QP oracle
enumerates active sets exhaustively, and the scheduling oracle walks a
brute-force grid.  Slow and simpleminded on purpose.
"""

import itertools

import numpy as np

from hvactrade import model, qp


def active_set_oracle(problem):
    """Exhaustive active-set enumeration for small dense QPs.

    Tries every subset of inequality rows as the active set, solves the
    resulting equality-constrained KKT system, keeps feasible candidates
    with nonnegative multipliers, and returns (x, objective) of the best.
    """
    q = problem.quadratic_term
    c = problem.linear_term
    a_eq, b_eq = problem.eq_matrix, problem.eq_rhs
    a_in, b_in = problem.ineq_matrix, problem.ineq_rhs
    n = q.shape[0]
    mi = a_in.shape[0]
    assert mi <= 16, "oracle is exponential in inequality rows"

    best_x, best_obj = None, np.inf
    for r in range(mi + 1):
        for subset in itertools.combinations(range(mi), r):
            act = list(subset)
            g = np.vstack([a_eq, a_in[act]])
            ma = g.shape[0]
            kkt = np.zeros((n + ma, n + ma))
            kkt[:n, :n] = q
            kkt[:n, n:] = g.T
            kkt[n:, :n] = g
            rhs = np.concatenate([-c, b_eq, b_in[act]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            mu = sol[n + a_eq.shape[0]:]
            if np.any(mu < -1e-9):
                continue
            if mi and np.any(a_in @ x - b_in > 1e-8):
                continue
            if a_eq.shape[0] and np.max(np.abs(a_eq @ x - b_eq)) > 1e-8:
                continue
            obj = 0.5 * x @ q @ x + c @ x + problem.offset
            if obj < best_obj:
                best_obj, best_x = obj, x
    assert best_x is not None, "oracle found no feasible stationary point"
    return best_x, float(best_obj)


def random_psd_qp(rng, n=None):
    """Random feasible PSD QP with at most 12 inequality rows.

    Small instances get a full box and possibly singular curvature;
    larger ones get strictly convex curvature with lower bounds plus a
    few general rows, keeping the oracle's enumeration tractable.
    """
    import numpy as np
    from hvactrade.qp import QpProblem

    if n is None:
        n = int(rng.integers(2, 11))
    if 2 * n <= 12:
        k = int(rng.integers(1, n + 1))
        b = rng.normal(size=(n, k))
        q = b @ b.T
        lo = rng.uniform(-3, 0, n)
        hi = lo + rng.uniform(0.5, 4, n)
        anchor = rng.uniform(lo, hi)
        rows = []
        rhs = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = -1.0
            rows.append(e.copy())
            rhs.append(-lo[i])
            e[i] = 1.0
            rows.append(e.copy())
            rhs.append(hi[i])
        g_budget = 12 - 2 * n
    else:
        # strict convexity keeps the partially bounded problem coercive
        b = rng.normal(size=(n, n))
        q = b @ b.T + float(rng.uniform(0.2, 1.0)) * np.eye(n)
        lo = rng.uniform(-3, 0, n)
        anchor = lo + rng.uniform(0.1, 2.0, n)
        rows = []
        rhs = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = -1.0
            rows.append(e)
            rhs.append(-lo[i])
        g_budget = 12 - n
    for _ in range(int(rng.integers(0, min(g_budget, 3) + 1))):
        g = rng.normal(size=n)
        rows.append(g)
        rhs.append(float(g @ anchor + abs(rng.normal()) + 0.1))
    c = rng.normal(size=n) * 2.0
    a_eq = b_eq = None
    if n >= 3 and rng.integers(0, 2):
        a_eq = rng.normal(size=(1, n))
        b_eq = a_eq @ anchor
    return QpProblem(q, c, a_eq, b_eq, np.array(rows), np.array(rhs))


def grid_search_schedule(params, tariff, slot_hours, step=0.5):
    """Brute-force single-user schedule over a coarse decision grid.

    Enumerates HVAC power levels on a grid; for each HVAC plan the grid
    draw is forced by the supply balance once renewables are used first
    (extra grid draw only raises both tariff terms, so that branch of
    the (p_AC, p_G) grid is dominated and pruned).  Keeps only
    temperature- and cap-feasible plans; returns the best total cost.
    """
    h = params.horizon
    levels = np.arange(0.0, params.hvac_cap + 1e-9, step)
    c, r = params.thermal_capacitance, params.thermal_resistance
    best = np.inf
    for plan in itertools.product(levels, repeat=h):
        temp = params.temp_initial
        temps = []
        ok = True
        for t in range(h):
            temp = temp - (temp - params.outdoor_temp[t]
                           + params.hvac_efficiency * r * plan[t]) / (c * r)
            if not (params.temp_min - 1e-9 <= temp <= params.temp_max + 1e-9):
                ok = False
                break
            temps.append(temp)
        if not ok:
            continue
        demand = params.inflexible_load + np.array(plan)
        grid = np.maximum(demand - params.renewable_avail, 0.0)
        if np.any(grid > params.grid_cap + 1e-9):
            continue
        dev = np.array(temps) - params.temp_ref
        cost = (tariff.energy_price * grid.sum() * slot_hours
                + tariff.peak_price * grid.max()
                + params.comfort_weight * dev @ dev)
        if cost < best:
            best = cost
    return float(best)


def solve_cemp(users, tariff, grid):
    """Centralized oracle: one stacked QP over all users and pairwise trades.

    Uses one variable per unordered pair (the two directed trades are
    exact negations of each other), so matched-trade consistency holds by
    construction rather than through the negotiation loop.  Trade payments
    cancel system-wide and are omitted from the objective.  Returns
    (objective, schedules keyed by user id, directed trade tensor).
    """
    users = sorted(users, key=lambda u: u.id)
    ids = [u.id for u in users]
    n = len(ids)
    h = grid.horizon_len
    sh = grid.slot_hours
    b = qp.QpBuilder()
    per_user = {}
    for u in users:
        p_re = b.add_vars(h, f"u{u.id}.p_re", lb=0.0, ub=u.renewable_avail)
        p_g = b.add_vars(h, f"u{u.id}.p_g", lb=0.0, ub=u.grid_cap)
        p_ac = b.add_vars(h, f"u{u.id}.p_ac", lb=0.0, ub=u.hvac_cap)
        t_in = b.add_vars(h, f"u{u.id}.t_in", lb=u.temp_min, ub=u.temp_max)
        per_user[u.id] = (p_re, p_g, p_ac, t_in)
        cr = u.thermal_capacitance * u.thermal_resistance
        a = 1.0 - 1.0 / cr
        k_ac = u.hvac_efficiency / u.thermal_capacitance
        b.add_eq([t_in[0], p_ac[0]], [1.0, k_ac],
                 a * u.temp_initial + u.outdoor_temp[0] / cr)
        for t in range(1, h):
            b.add_eq([t_in[t], t_in[t - 1], p_ac[t]], [1.0, -a, k_ac],
                     u.outdoor_temp[t] / cr)
        b.add_linear(p_g, tariff.energy_price * sh)
        if tariff.peak_price > 0.0:
            m = qp.epigraph_max(b, p_g)
            b.add_linear([m], [tariff.peak_price])
        if u.comfort_weight > 0.0:
            for t in range(h):
                b.add_square(t_in[t], u.comfort_weight, center=u.temp_ref)
    pair_vars = {}
    for i in range(n):
        for j in range(i + 1, n):
            pair_vars[(ids[i], ids[j])] = b.add_vars(
                h, f"e[{ids[i]},{ids[j]}]")
    for u in users:
        p_re, p_g, p_ac, _ = per_user[u.id]
        for t in range(h):
            idx = [p_re[t], p_g[t], p_ac[t]]
            coefs = [1.0, 1.0, -1.0]
            for (a_id, b_id), e in pair_vars.items():
                if a_id == u.id:
                    idx.append(e[t])
                    coefs.append(1.0)
                elif b_id == u.id:
                    idx.append(e[t])
                    coefs.append(-1.0)
            b.add_eq(idx, coefs, u.inflexible_load[t])
    solution = qp.solve(b.build())
    assert solution.status is qp.QpStatus.OPTIMAL, solution.status
    x = solution.primal
    schedules = {}
    for u in users:
        p_re, p_g, p_ac, t_in = per_user[u.id]
        schedules[u.id] = model.Schedule(
            renewable_use=x[p_re], grid_draw=x[p_g], hvac_power=x[p_ac],
            indoor_temp=x[t_in], trades=np.empty((0, h)))
    trades = np.zeros((n, n, h))
    pos = {uid: k for k, uid in enumerate(ids)}
    for (a_id, b_id), e in pair_vars.items():
        trades[pos[a_id], pos[b_id]] = x[e]
        trades[pos[b_id], pos[a_id]] = -x[e]
    return solution.objective, schedules, trades


def build_pairwise_llp(params, tariff, grid, aux, duals, rho):
    """One user's trading subproblem with a variable per partner and slot.

    The direct form of the subproblem: every pairwise trade is a free
    variable in the per-slot balance row, priced at the trade tariff,
    pulled toward its consensus value by (rho/2)(p - aux)^2 and shifted
    by the dual term -dual*p.  Returns (problem, index) where index maps
    "renewable", "grid", "hvac", "temp" and "trades" (M x H) to positions
    in the primal vector.
    """
    h = params.horizon
    sh = grid.slot_hours
    aux = np.asarray(aux, dtype=float)
    duals = np.asarray(duals, dtype=float)
    b = qp.QpBuilder()
    p_re = b.add_vars(h, "p_re", lb=0.0, ub=params.renewable_avail)
    p_g = b.add_vars(h, "p_g", lb=0.0, ub=params.grid_cap)
    p_ac = b.add_vars(h, "p_ac", lb=0.0, ub=params.hvac_cap)
    t_in = b.add_vars(h, "t_in", lb=params.temp_min, ub=params.temp_max)
    trades = np.vstack([b.add_vars(h, f"p_et[{r}]")
                        for r in range(aux.shape[0])])
    cr = params.thermal_capacitance * params.thermal_resistance
    a = 1.0 - 1.0 / cr
    k_ac = params.hvac_efficiency / params.thermal_capacitance
    b.add_eq([t_in[0], p_ac[0]], [1.0, k_ac],
             a * params.temp_initial + params.outdoor_temp[0] / cr)
    for t in range(1, h):
        b.add_eq([t_in[t], t_in[t - 1], p_ac[t]], [1.0, -a, k_ac],
                 params.outdoor_temp[t] / cr)
    for t in range(h):
        b.add_eq([p_re[t], p_g[t], p_ac[t]] + list(trades[:, t]),
                 [1.0, 1.0, -1.0] + [1.0] * trades.shape[0],
                 params.inflexible_load[t])
    b.add_linear(p_g, tariff.energy_price * sh)
    if tariff.peak_price > 0.0:
        m = qp.epigraph_max(b, p_g)
        b.add_linear([m], [tariff.peak_price])
    if params.comfort_weight > 0.0:
        for t in range(h):
            b.add_square(t_in[t], params.comfort_weight, center=params.temp_ref)
    for r in range(trades.shape[0]):
        b.add_linear(trades[r], tariff.trade_price * sh - duals[r])
        for t in range(h):
            b.add_square(trades[r, t], 0.5 * rho, center=aux[r, t])
    index = {"renewable": p_re, "grid": p_g, "hvac": p_ac, "temp": t_in,
             "trades": trades}
    return b.build(), index
