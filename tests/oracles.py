"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's solver machinery: the QP oracle
enumerates active sets exhaustively, and the scheduling oracle walks a
brute-force grid.  Slow and simpleminded on purpose.

What they share with the package is the problem container
`qp.QpProblem`, which every built problem is, and `qp.solve`, which
the pooled and pairwise problems are solved with; the model's
dataclasses are their inputs.  The incremental assembler `QpBuilder`
and its `epigraph_max` live here, not in the package: they build the
pooled problem of `solve_cemp`, the pairwise subproblem of
`build_pairwise_llp`, and `reference_user_qp`, the entry-by-entry
assembly that `agent.build_user_qp` must match array for array.  The
schedule checks re-derive the thermal recursion and the limits from
the parameters alone, without the agent's QP.
"""

import itertools

import numpy as np

from hvactrade import model, qp


class QpBuilder:
    """Incremental dense QP assembly with named variables and bounds.

    Bounds stay per-variable bounds of the built problem; rows keep the
    order in which they were added.
    """

    def __init__(self):
        self._names: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._quad: list[tuple[int, float]] = []
        self._lin: list[tuple[int, float]] = []
        self._offset = 0.0
        self._eq: list[tuple[np.ndarray, np.ndarray, float]] = []
        self._ineq: list[tuple[np.ndarray, np.ndarray, float]] = []

    def add_var(self, name=None, lb=None, ub=None) -> int:
        idx = len(self._names)
        self._names.append(name if name is not None else f"x{idx}")
        self._lb.append(-np.inf if lb is None else float(lb))
        self._ub.append(np.inf if ub is None else float(ub))
        return idx

    def add_vars(self, count, prefix, lb=None, ub=None) -> np.ndarray:
        lbs = np.broadcast_to(np.asarray(-np.inf if lb is None else lb, dtype=float),
                              (count,))
        ubs = np.broadcast_to(np.asarray(np.inf if ub is None else ub, dtype=float),
                              (count,))
        return np.array([self.add_var(f"{prefix}[{t}]", lbs[t], ubs[t])
                         for t in range(count)])

    def add_square(self, var, weight, center=0.0):
        """Add weight * (x_var - center)^2 to the objective."""
        self._quad.append((int(var), 2.0 * weight))
        if center:
            self._lin.append((int(var), -2.0 * weight * center))
            self._offset += weight * center * center

    def add_linear(self, vars, coefs):
        coefs = np.broadcast_to(np.asarray(coefs, dtype=float), (len(vars),))
        for v, co in zip(vars, coefs):
            self._lin.append((int(v), float(co)))

    def add_eq(self, vars, coefs, rhs):
        self._eq.append((np.asarray(vars, dtype=int),
                         np.asarray(coefs, dtype=float), float(rhs)))

    def add_ineq(self, vars, coefs, rhs):
        """Row sum(coefs * x[vars]) <= rhs."""
        self._ineq.append((np.asarray(vars, dtype=int),
                           np.asarray(coefs, dtype=float), float(rhs)))

    def build(self) -> qp.QpProblem:
        n = len(self._names)
        q = np.zeros((n, n))
        for i, w in self._quad:
            q[i, i] += w
        c = np.zeros(n)
        for i, co in self._lin:
            c[i] += co
        a_in = np.zeros((len(self._ineq), n))
        b_in = np.zeros(len(self._ineq))
        for r, (idx, co, rhs) in enumerate(self._ineq):
            a_in[r, idx] = co
            b_in[r] = rhs
        a_eq = np.zeros((len(self._eq), n))
        b_eq = np.zeros(len(self._eq))
        for r, (idx, co, rhs) in enumerate(self._eq):
            a_eq[r, idx] = co
            b_eq[r] = rhs
        return qp.QpProblem(q, c, a_eq, b_eq, a_in, b_in, self._lb, self._ub,
                            offset=self._offset)


def epigraph_max(builder, vars) -> int:
    """Bound max(x[vars]) from above with a fresh variable.

    Adds m with x_v <= m for each v and returns m's index; minimizing a
    positive weight on m prices the peak of the given variables.
    """
    m = builder.add_var("epi_max")
    for v in vars:
        builder.add_ineq([int(v), m], [1.0, -1.0], 0.0)
    return m


def thermal_step(t_prev: float, t_out: float, p_ac: float, params) -> float:
    """Advance the indoor temperature by one slot.

    The house leaks toward `t_out` at rate 1/(C*R) and the HVAC shifts the
    temperature by eta/C degrees per kW (sign of eta decides direction).
    """
    c = params.thermal_capacitance
    r = params.thermal_resistance
    return t_prev - (t_prev - t_out + params.hvac_efficiency * r * p_ac) / (c * r)


def trajectory(hvac_power, params) -> np.ndarray:
    """Indoor temperature over the horizon for a given HVAC plan.

    Slot t uses the outdoor temperature of slot t; the recursion starts
    from `params.temp_initial`.
    """
    p = np.asarray(hvac_power, dtype=np.float64)
    if p.shape != (params.horizon,):
        raise ValueError(f"hvac_power must have shape ({params.horizon},), "
                         f"got {p.shape}")
    out = np.empty(params.horizon)
    temp = float(params.temp_initial)
    for t in range(params.horizon):
        temp = thermal_step(temp, params.outdoor_temp[t], p[t], params)
        out[t] = temp
    return out


def verify_schedule(schedule, params, tol: float = 1e-6) -> list[str]:
    """Check a schedule against the user's physical limits.

    Returns human-readable findings; empty means clean.  The temperature
    recursion is re-derived independently from hvac_power.
    """
    findings = []
    uid = params.id

    def check(ok, msg):
        if not ok:
            findings.append(f"user {uid}: {msg}")

    s = schedule
    check(s.horizon == params.horizon, "schedule horizon does not match traces")
    if s.horizon != params.horizon:
        return findings
    check(np.all(s.renewable_use >= -tol), "renewable_use below zero")
    check(np.all(s.renewable_use <= params.renewable_avail + tol),
          "renewable_use exceeds availability")
    check(np.all(s.grid_draw >= -tol), "grid_draw below zero")
    check(np.all(s.grid_draw <= params.grid_cap + tol), "grid_draw exceeds grid_cap")
    check(np.all(s.hvac_power >= -tol), "hvac_power below zero")
    check(np.all(s.hvac_power <= params.hvac_cap + tol), "hvac_power exceeds hvac_cap")
    check(np.all(s.indoor_temp >= params.temp_min - tol), "indoor_temp below temp_min")
    check(np.all(s.indoor_temp <= params.temp_max + tol), "indoor_temp above temp_max")
    recur = trajectory(s.hvac_power, params)
    check(bool(np.max(np.abs(recur - s.indoor_temp)) <= tol),
          "indoor_temp inconsistent with thermal recursion")
    return findings


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
    b = QpBuilder()
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
            m = epigraph_max(b, p_g)
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
            indoor_temp=x[t_in])
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
    b = QpBuilder()
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
        m = epigraph_max(b, p_g)
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


def reference_user_qp(params, tariff, grid, partner_ids=(), rho=0.0):
    """`agent.build_user_qp` assembled entry by entry through `QpBuilder`.

    The same problem, index and variable order; the agent writes its
    arrays directly and must reproduce these bit for bit.  The input
    checks are left to the agent.
    """
    h = params.horizon
    sh = grid.slot_hours
    npart = len(partner_ids)

    b = QpBuilder()
    p_re = b.add_vars(h, "p_re", lb=0.0, ub=params.renewable_avail)
    p_g = b.add_vars(h, "p_g", lb=0.0, ub=params.grid_cap)
    p_ac = b.add_vars(h, "p_ac", lb=0.0, ub=params.hvac_cap)
    t_in = b.add_vars(h, "t_in", lb=params.temp_min, ub=params.temp_max)
    s = b.add_vars(h, "s") if npart else np.empty(0, dtype=int)

    # indoor temperature recursion as equality rows
    cr = params.thermal_capacitance * params.thermal_resistance
    a = 1.0 - 1.0 / cr
    k_out = 1.0 / cr
    k_ac = params.hvac_efficiency / params.thermal_capacitance
    b.add_eq([t_in[0], p_ac[0]], [1.0, k_ac],
             a * params.temp_initial + k_out * params.outdoor_temp[0])
    for t in range(1, h):
        b.add_eq([t_in[t], t_in[t - 1], p_ac[t]], [1.0, -a, k_ac],
                 k_out * params.outdoor_temp[t])

    # per-slot supply/demand balance
    for t in range(h):
        idx = [p_re[t], p_g[t], p_ac[t]] + ([s[t]] if npart else [])
        coefs = [1.0, 1.0, -1.0] + ([1.0] if npart else [])
        b.add_eq(idx, coefs, params.inflexible_load[t])

    b.add_linear(p_g, tariff.energy_price * sh)
    peak = None
    if tariff.peak_price > 0.0:
        peak = epigraph_max(b, p_g)
        b.add_linear([peak], [tariff.peak_price])
    if params.comfort_weight > 0.0:
        for t in range(h):
            b.add_square(t_in[t], params.comfort_weight, center=params.temp_ref)
    if npart:
        b.add_linear(s, tariff.trade_price * sh)
        for t in range(h):
            b.add_square(s[t], 0.5 * rho / npart)

    index = {"renewable": p_re, "grid": p_g, "hvac": p_ac, "temp": t_in,
             "net_import": s, "peak": peak}
    return b.build(), index
