"""Per-user optimizers.

Each user solves two related problems over the day-ahead horizon: a
standalone schedule with no trading (`solve_emp`, the cost benchmark)
and a trading subproblem (`solve_llp`) in which pairwise trades are
pulled toward the coordinator's consensus values by a quadratic penalty
plus a linear dual term.  The subproblem is solved for the net import
per slot and the pairwise trades follow from it in closed form, so its
size does not grow with the fleet.  Its `Schedule` stays with the
agent; the only data that ever leaves an agent is its trade matrix:
`outbound_message` packages it as a `TradeProposal`, whose only fields
are the user id, the round and the trades.
"""

from __future__ import annotations

import numpy as np

from . import qp
from .errors import InfeasibleError, NonConvergenceError, ProtocolViolation
from .model import Schedule, Tariff, TimeGrid, UserParams
from .protocol import Rows, TradeProposal


def _exchange_terms(price, aux, duals, rho: float):
    """Per-partner linear trade cost, its partner mean, and the constant
    left once the pairwise trades are minimized out for a fixed net import.

    Each trade enters the objective as c_j p_j + (rho/2) p_j^2 plus the
    constant (rho/2) aux_j^2, with c = price - dual - rho*aux.
    """
    c = price - duals - rho * aux
    cbar = c.sum(axis=0) / c.shape[0]  # the bits of c.mean(axis=0)
    offset = (0.5 * rho * float((aux * aux).sum())
              - float(((c - cbar) ** 2).sum()) / (2.0 * rho))
    return c, cbar, offset


def _recover_trades(net_import, c, cbar, rho: float) -> np.ndarray:
    """Pairwise rows that realize a net import at least cost:
    p_j = s/M + (cbar - c_j)/rho."""
    return net_import / c.shape[0] + (cbar - c) / rho


def build_user_qp(params: UserParams, tariff: Tariff, grid: TimeGrid,
                  partner_ids=(), rho: float = 0.0):
    """Assemble one user's scheduling QP.

    With no partners this is the standalone problem.  With M partners
    the pairwise trades are eliminated, following the exchange problem
    of Boyd et al. (2011, section 7.3): one free net import s per slot
    joins the balance row, priced cbar*s + (rho/2M) s^2.  The problem is
    built at zero consensus and duals, where cbar is the trade price per
    slot; `LocalAgent.solve_llp` rewrites cbar and the offset each
    round.  The size is 5H+1 variables (5H without a peak charge) at any
    M.

    The columns come in blocks of H slots: renewable use p_re, grid draw
    p_g, HVAC power p_ac and indoor temperature t_in, then s when the
    user has partners, and last the peak draw when the tariff prices it.
    The first H equality rows are the thermal recursion, the next H the
    supply balance; the H inequality rows bound each p_g by the peak.
    Returns (problem, index) where index maps variable groups to their
    positions in the primal vector.
    """
    h = params.horizon
    if grid.horizon_len != h:
        raise ValueError(
            f"user {params.id}: traces cover {h} slots, grid has {grid.horizon_len}")
    if tariff.trade_price.shape[0] != h and len(partner_ids):
        raise ValueError(
            f"user {params.id}: trade_price covers {tariff.trade_price.shape[0]} "
            f"slots, expected {h}")
    sh = grid.slot_hours
    npart = len(partner_ids)
    priced = tariff.peak_price > 0.0
    blocks = 5 if npart else 4
    n = blocks * h + (1 if priced else 0)
    cols = np.arange(blocks * h).reshape(blocks, h)
    p_re, p_g, p_ac, t_in = cols[:4]
    s = cols[4] if npart else np.empty(0, dtype=int)
    peak = n - 1 if priced else None

    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    lower[:3 * h] = 0.0
    upper[p_re] = params.renewable_avail
    upper[p_g] = params.grid_cap
    upper[p_ac] = params.hvac_cap
    lower[t_in] = params.temp_min
    upper[t_in] = params.temp_max

    # indoor temperature recursion, then the per-slot supply/demand balance
    cr = params.thermal_capacitance * params.thermal_resistance
    a = 1.0 - 1.0 / cr
    k_out = 1.0 / cr
    k_ac = params.hvac_efficiency / params.thermal_capacitance
    t = np.arange(h)
    eq = np.zeros((2 * h, n))
    eq[t, t_in] = 1.0
    eq[t[1:], t_in[:-1]] = -a
    eq[t, p_ac] = k_ac
    eq[h + t, p_re] = 1.0
    eq[h + t, p_g] = 1.0
    eq[h + t, p_ac] = -1.0
    if npart:
        eq[h + t, s] = 1.0
    eq_rhs = np.empty(2 * h)
    eq_rhs[0] = a * params.temp_initial + k_out * params.outdoor_temp[0]
    eq_rhs[1:h] = k_out * params.outdoor_temp[1:]
    eq_rhs[h:] = params.inflexible_load

    # each p_g at most the peak
    ineq = np.zeros((h if priced else 0, n))
    if priced:
        ineq[t, p_g] = 1.0
        ineq[:, peak] = -1.0

    # each term is added to zero, so a -0.0 coefficient is stored as 0.0
    q = np.zeros((n, n))
    c = np.zeros(n)
    c[p_g] += tariff.energy_price * sh
    if priced:
        c[peak] += tariff.peak_price
    offset = 0.0
    w = params.comfort_weight
    if w > 0.0:
        # w (t_in - temp_ref)^2 per slot
        q[t_in, t_in] += 2.0 * w
        if params.temp_ref:
            c[t_in] += -2.0 * w * params.temp_ref
            # one term per slot in turn: H * term, np.sum and Python 3.12's
            # compensated sum each round differently
            term = w * params.temp_ref * params.temp_ref
            for _ in range(h):
                offset += term
    if npart:
        c[s] += tariff.trade_price * sh
        q[s, s] += 2.0 * (0.5 * rho / npart)

    problem = qp.QpProblem(q, c, eq, eq_rhs, ineq, np.zeros(len(ineq)),
                           lower, upper, offset=offset)
    index = {"renewable": p_re, "grid": p_g, "hvac": p_ac, "temp": t_in,
             "net_import": s, "peak": peak}
    return problem, index


def _extract_schedule(solution: qp.QpSolution, index) -> Schedule:
    # the four blocks are the first 4H columns, one block of H after
    # another (build_user_qp): the rows of one reshape, in field order
    h = index["renewable"].size
    return Schedule(*solution.primal[:4 * h].reshape(4, h))


def _check_status(solution: qp.QpSolution, uid: int, what: str):
    if solution.status is qp.QpStatus.INFEASIBLE:
        raise InfeasibleError(
            f"user {uid}: {what} has no feasible schedule "
            f"(comfort band unreachable under the grid and renewable limits)")
    if solution.status is not qp.QpStatus.OPTIMAL:
        raise NonConvergenceError(
            f"user {uid}: {what} solve stopped at status {solution.status.name}")


def solve_emp(params: UserParams, tariff: Tariff, grid: TimeGrid | None = None):
    """Solve the standalone scheduling problem (no trading).

    Returns (Schedule, cost); the cost is the user's benchmark against
    which trading gains are measured.
    """
    grid = grid if grid is not None else TimeGrid(params.horizon)
    problem, index = build_user_qp(params, tariff, grid)
    solution = qp.solve(problem)
    _check_status(solution, params.id, "standalone problem")
    return _extract_schedule(solution, index), solution.objective


class LocalAgent:
    """One user's stateful optimizer across negotiation rounds.

    Holds the private parameters, the penalty weight `rho` (given at
    construction; a broadcast may carry another), the latest coupling
    values received from the coordinator, and a cached solver workspace
    so consecutive rounds at the same penalty weight reuse its cached
    polish sets and start from the point last accepted.  Partner ids
    are kept in ascending order.  `last_trades[j, t]`, from the latest
    solve, is kW bought from `partner_ids[j]` during slot t; negative
    entries are sales.
    """

    def __init__(self, params: UserParams, tariff: Tariff,
                 grid: TimeGrid | None = None, partner_ids=(),
                 rho: float = 1.0):
        self.params = params
        self.tariff = tariff
        self.grid = grid if grid is not None else TimeGrid(params.horizon)
        self.partner_ids = tuple(sorted(int(j) for j in partner_ids))
        if params.id in self.partner_ids:
            raise ValueError(f"user {params.id}: cannot trade with itself")
        if len(set(self.partner_ids)) != len(self.partner_ids):
            raise ValueError(f"user {params.id}: duplicate partner ids")
        shape = (len(self.partner_ids), params.horizon)
        self.received_aux = np.zeros(shape)
        self.received_duals = np.zeros(shape)
        self.rho = self._penalty(rho)
        self.iteration = 0
        self.last_trades: np.ndarray | None = None
        self.last_objective: float | None = None
        self._ws: qp.Workspace | None = None
        self._ws_rho: float | None = None
        self._index = None
        self._base_linear = None
        self._base_offset = 0.0

    @property
    def user_id(self) -> int:
        return self.params.id

    def _penalty(self, rho) -> float:
        if not 0 < rho < np.inf:  # False at a NaN
            raise ValueError(f"user {self.user_id}: rho must be positive "
                             f"and finite, got {rho}")
        return float(rho)

    def set_coupling(self, aux, duals, rho: float | None = None):
        shape = self.received_aux.shape
        aux = np.asarray(aux, dtype=np.float64)
        duals = np.asarray(duals, dtype=np.float64)
        if not shape[0] and aux.size == duals.size == 0:
            # no partners: an empty block of any width carries no coupling
            aux, duals = self.received_aux, self.received_duals
        if aux.shape != shape or duals.shape != shape:
            raise ValueError(
                f"user {self.user_id}: coupling arrays must have shape {shape}")
        self.received_aux = aux.copy()
        self.received_duals = duals.copy()
        if rho is not None:
            self.rho = self._penalty(rho)

    def receive(self, broadcast):
        """Apply a coordinator broadcast: per-counterparty consensus and
        dual rows, plus the penalty weight for the next round."""
        aux, duals = broadcast.aux_row, broadcast.dual_row
        if aux.ids != self.partner_ids:
            missing = sorted(set(self.partner_ids) - set(aux.ids))
            extra = sorted(set(aux.ids) - set(self.partner_ids))
            what = (f"missing counterparty {missing[0]}" if missing
                    else f"names counterparty {extra[0]}, not a partner")
            raise ProtocolViolation(f"user {self.user_id}: broadcast {what}")
        self.set_coupling(aux.block, duals.block, broadcast.rho)

    def solve_llp(self) -> Schedule:
        """Solve the trading subproblem at the current penalty weight,
        keep its trades as `last_trades` and return its schedule.

        The QP is built once per penalty weight; each round then only
        rewrites the net-import entries of the linear term and the
        offset, and the workspace re-solves on its cached polish sets
        from the point it accepted last.  The pairwise trades are
        recovered from the net import in closed form."""
        rho = self.rho
        if self._ws is None or self._ws_rho != rho:
            problem, index = build_user_qp(
                self.params, self.tariff, self.grid, self.partner_ids,
                rho=rho)
            self._ws = qp.Workspace(problem)
            self._ws_rho = rho
            self._index = index
            self._base_linear = problem.linear_term.copy()
            self._base_offset = problem.offset
        s = self._index["net_import"]
        if self.partner_ids:
            c, cbar, offset = _exchange_terms(
                self.tariff.trade_price * self.grid.slot_hours,
                self.received_aux, self.received_duals, rho)
            linear = self._base_linear.copy()
            linear[s] = cbar
            self._ws.update(linear_term=linear,
                            offset=self._base_offset + offset)
        solution = self._ws.solve()
        _check_status(solution, self.user_id, "trading subproblem")
        if self.partner_ids:
            self.last_trades = _recover_trades(solution.primal[s], c, cbar,
                                               rho)
        else:
            self.last_trades = np.empty((0, self.params.horizon))
        self.last_objective = solution.objective
        return _extract_schedule(solution, self._index)

    def step(self, broadcast=None):
        """One negotiation round: apply the coordinator's broadcast (none
        before the first round), then solve and return the next proposal,
        or None once the broadcast closes the negotiation."""
        if broadcast is not None:
            if broadcast.iteration != self.iteration:
                raise ProtocolViolation(
                    f"user {self.user_id}: expected a broadcast for round "
                    f"{self.iteration}, got round {broadcast.iteration}")
            self.receive(broadcast)
            if broadcast.done:
                return None
        self.iteration += 1
        self.solve_llp()
        return self.outbound_message()

    def outbound_message(self):
        """Package the current round's trades for the coordinator."""
        if self.last_trades is None:
            raise ProtocolViolation(
                f"user {self.user_id}: no schedule solved this round")
        return TradeProposal(
            user_id=self.user_id, iteration=self.iteration,
            trades=Rows._trusted(self.partner_ids, self.last_trades.copy()))
