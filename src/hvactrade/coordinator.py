"""Negotiation coordinator.

Runs the synchronous consensus loop: collect every user's trade
proposal, over-relax it against the consensus the users answered, close
the pairwise consensus values in closed form, step the dual variables,
and measure disagreement.  A round is a fixed-point map of the state a
broadcast carries, the consensus and dual tensors; until the
disagreement falls under tolerance, the coordinator extrapolates that
map from its last few rounds (safeguarded Anderson acceleration) and
broadcasts each user's rows of the extrapolated state.  The round that
agrees broadcasts and reports its plain update.  Every state is a
linear combination of antisymmetric consensus values, so matched pairs
net to zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas
from .agent import LocalAgent, solve_emp
from .errors import NonConvergenceError, ProtocolViolation
from .model import operating_cost, trading_payment
from .protocol import (CoordinatorBroadcast, InProcTransport, Rows,
                       SocketTransport, barrier_collect)
from .reports import ScenarioReport, UserResult


@dataclass(frozen=True)
class AdmmConfig:
    """Knobs of the negotiation loop.  Every round runs at the penalty
    weight rho0 and stops once the L1 disagreement is within tolerance."""

    rho0: float = 1.0
    tolerance: float = 1e-6
    max_iter: int = 2000

    def __post_init__(self):
        for name in ("rho0", "tolerance"):
            if not 0 < getattr(self, name) < np.inf:  # False at a NaN
                raise ValueError(f"{name} must be finite and positive")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class CoordinatorState:
    """Coordinator-side consensus state across rounds."""

    ids: tuple[int, ...]
    aux_trades: np.ndarray
    duals: np.ndarray
    rho: float = 1.0
    iteration: int = 0
    history: list[tuple[int, float, float]] = field(default_factory=list)
    index: dict[int, int] = field(init=False, repr=False)
    partners: list[tuple[int, ...]] = field(init=False, repr=False)
    off_diagonal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {u: i for i, u in enumerate(self.ids)}
        # per user: the other users' ids, ascending
        self.partners = [self.ids[:i] + self.ids[i + 1:]
                         for i in range(len(self.ids))]
        # every pair (i, j) with j != i, user after user
        self.off_diagonal = ~np.eye(len(self.ids), dtype=bool)

    def user_rows(self, tensor: np.ndarray) -> np.ndarray:
        """Each user's rows of an N x N x H tensor, without the diagonal:
        row i of the result holds tensor[i, cols] for user i's
        counterparty positions cols."""
        n = len(self.ids)
        return tensor[self.off_diagonal].reshape(n, n - 1, tensor.shape[2])

    @classmethod
    def initial(cls, ids, horizon: int) -> "CoordinatorState":
        ids = tuple(sorted(int(u) for u in ids))
        n = len(ids)
        return cls(ids=ids, aux_trades=np.zeros((n, n, horizon)),
                   duals=np.zeros((n, n, horizon)))


def proposal_tensor(proposals, state: CoordinatorState) -> np.ndarray:
    """Stack one round's proposals into the N x N x H tensor the updates
    take, checking that every user proposed once, for every counterparty
    and every slot, and that every trade is finite."""
    n = len(state.ids)
    h = state.aux_trades.shape[2]
    senders = sorted(msg.user_id for msg in proposals)
    if senders != list(state.ids):
        raise ProtocolViolation(f"proposals come from users {senders}, "
                                f"expected one from each of {list(state.ids)}")
    blocks = [None] * n
    for msg in proposals:
        i = state.index[msg.user_id]
        trades = msg.trades
        partners = state.partners[i]
        if trades.ids != partners:
            raise ProtocolViolation(
                f"user {msg.user_id}: proposal covers counterparties "
                f"{list(trades.ids)}, expected {list(partners)}")
        if partners and trades.block.shape[1] != h:
            raise ProtocolViolation(
                f"user {msg.user_id}: trade rows have "
                f"{trades.block.shape[1]} slots, expected {h}")
        blocks[i] = trades.block
    p = np.zeros((n, n, h))
    if n > 1:
        rows = np.concatenate(blocks)
        if not np.isfinite(rows).all():
            _refuse_non_finite(blocks, state)
        p[state.off_diagonal] = rows
    return p


def _refuse_non_finite(blocks, state: CoordinatorState):
    """Name the first sender, counterparty and slot of a non-finite trade:
    it would reach every update and, through the next broadcast, the
    counterparty's own solve."""
    for uid, block, partners in zip(state.ids, blocks, state.partners):
        bad = np.argwhere(~np.isfinite(block))
        if bad.size:
            row, slot = bad[0]
            value = float(block[row, slot])
            raise ProtocolViolation(
                f"user {uid}: proposal holds a non-finite trade ({value}) "
                f"with counterparty {partners[row]} in slot {slot}")


# Over-relaxation factor of the consensus and dual updates (Eckstein &
# Bertsekas, Math. Programming 55, 1992; Boyd et al. 2011, section 3.4.3,
# which suggests 1.5 to 1.8).  At the default penalty it cuts the rounds
# to agreement on every bundled fixture; at rho0 >= 3 the two small
# fixtures need more rounds with it than without.
RELAXATION = 1.5


def relaxed_proposals(p: np.ndarray, prev_aux: np.ndarray) -> np.ndarray:
    """Over-relaxed proposal tensor RELAXATION * p + (1 - RELAXATION) *
    prev_aux, where prev_aux is the consensus the users just answered.

    Written as a step from p, so proposals that already equal the
    consensus come back bit for bit and the fixed point is kept; a zero
    diagonal stays zero."""
    return p + (RELAXATION - 1.0) * (p - prev_aux)


# Anderson acceleration of the round map x -> g(x), where x = (aux,
# duals) is the state a broadcast carries: type II with memory m (Walker
# & Ni, SIAM J. Numer. Anal. 49, 2011), its least-squares step
# regularized by 1e-8 |dF|_F^2 (Tikhonov, scaled to the differences as
# in Scieur, d'Aspremont & Bach, NeurIPS 2016), and safeguarded as in
# Zhang, O'Donoghue & Boyd, SIAM J. Optim. 30, 2020, Algorithm 3: the
# extrapolated point is taken only while the residual |f_k| stays under
# D |f_0| (n_AA + 1)^-(1 + eps), n_AA counting the points taken so far.
# At the default penalty it cuts the rounds to agreement on every bundled
# fixture (reference_10user 61 -> 31, csv_reference 123 -> 15,
# two_user_complementary 158 -> 19).  Memory m = 3 / 5 / 8 / 10 / 12 /
# 15 / 20 gave 37 / 35 / 32 / 31 / 31 / 31 / 34 rounds on
# reference_10user, 37 / 20 / 13 / 15 / 17 / 20 / 25 on csv_reference,
# 32 / 25 / 18 / 19 / 20 / 22 / 27 on two_user_complementary and
# 44 / 36 / 34 / 33 / 32 / 32 / 33 on 16 synthetic homes over 12 slots
# (seed 1); m = 10 also takes 40 homes over 24 slots (seed 2) from 58
# rounds at m = 5 to 43, and 80 homes from 95 to 73.
ANDERSON_MEMORY = 10
ANDERSON_REGULARIZATION = 1e-8
SAFEGUARD_D = 1e6
SAFEGUARD_EPS = 1e-6


class Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point map.

    `step(x, g)` records one evaluation g = g(x), both flat arrays, and
    returns the point to evaluate next: g - dG gamma, where gamma fits
    the last ANDERSON_MEMORY residual differences dF to the residual
    f = g - x, or g itself before the first difference or when the
    safeguard declines.  The differences live in two rings of
    ANDERSON_MEMORY rows, each new one overwriting the oldest, and their
    Gram matrix dF dF' is updated one row and column a step, so a step
    costs O(m d) in the memory m and the length d.  The extrapolation is
    formed one row of dG at a time with elementwise operations, each
    product written into one reused buffer, so entries that are exact
    negations in every recorded g stay exact negations.
    """

    def __init__(self):
        # allocated at the first step
        self._d_f = self._d_g = self._gram = self._product = None
        self._f = self._g = None  # the last residual and evaluation
        self._filled = 0  # ring rows that hold a difference
        self._slot = 0  # the ring row the next difference overwrites
        self._f0_norm = 0.0
        self.accepted = 0

    def step(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        f = g - x
        f_norm = float(np.linalg.norm(f))
        if self._f is None:
            m = ANDERSON_MEMORY
            self._d_f, self._d_g = np.empty((m, f.size)), np.empty((m, f.size))
            self._product = np.empty(f.size)  # one term c d_g at a time
            self._gram = np.empty((m, m))
            self._f, self._g, self._f0_norm = f, g, f_norm
            return g
        k = self._slot
        np.subtract(f, self._f, out=self._d_f[k])
        np.subtract(g, self._g, out=self._d_g[k])
        self._f, self._g = f, g
        cap = len(self._d_f)
        self._slot = (k + 1) % cap
        m = self._filled = min(self._filled + 1, cap)
        d_f = self._d_f[:m]
        self._gram[k, :m] = self._gram[:m, k] = d_f @ d_f[k]
        bound = (SAFEGUARD_D * self._f0_norm
                 * (self.accepted + 1) ** -(1.0 + SAFEGUARD_EPS))
        if f_norm > bound:
            return g
        gram = self._gram[:m, :m].copy()
        scale = float(np.trace(gram))
        if scale == 0.0:
            return g
        gram[np.diag_indices_from(gram)] += ANDERSON_REGULARIZATION * scale
        gamma = np.linalg.solve(gram, d_f @ f)
        out = g.copy()
        for c, d_g in zip(gamma, self._d_g[:m]):
            out -= np.multiply(c, d_g, out=self._product)
        self.accepted += 1
        return out


def hlp_update(p: np.ndarray, state: CoordinatorState) -> np.ndarray:
    """Closed-form consensus update from the round's proposal tensor.

    For each ordered pair the new value averages the two endpoints'
    positions, shifted by their dual gap, and is antisymmetric by
    construction; the diagonal stays zero.
    """
    rho = state.rho
    pt = np.swapaxes(p, 0, 1)
    lt = np.swapaxes(state.duals, 0, 1)
    aux = (rho * (p - pt) - (state.duals - lt)) / (2.0 * rho)
    n = len(state.ids)
    aux[np.arange(n), np.arange(n), :] = 0.0
    state.aux_trades = aux
    return aux


def dual_update(state: CoordinatorState, p: np.ndarray) -> np.ndarray:
    """Dual ascent on the agreement gap, after the consensus update."""
    state.duals = state.duals + state.rho * (state.aux_trades - p)
    return state.duals


def convergence_error(state: CoordinatorState, p: np.ndarray) -> float:
    """Total L1 disagreement between consensus values and the proposal
    tensor, so each pair counts from both endpoints."""
    return float(np.abs(state.aux_trades - p).sum())


def baselines(scenario) -> list[tuple]:
    """Each home's standalone schedule and cost, with no trading:
    [(user, schedule, cost)] in ascending user id.  Solved on one BLAS
    thread, the count `run` uses, so `hvactrade baseline` writes the
    baseline costs of report.json bit for bit."""
    with blas.single_thread():
        return [(u, *solve_emp(u, scenario.tariff, scenario.grid))
                for u in sorted(scenario.users, key=lambda u: u.id)]


def _reduction(base: float, cost: float) -> float:
    return 0.0 if abs(base) < 1e-12 else 100.0 * (base - cost) / base


def _assemble_report(scenario, cfg: AdmmConfig, state: CoordinatorState,
                     emp, agents, prev_aux, prev_duals) -> ScenarioReport:
    """Price every home at agreement.  Each fresh agent re-solves its
    final-round subproblem from a cold start, with exactly the coupling
    values it held in the last round, so the schedules are deterministic
    and transport-independent."""
    sh = scenario.grid.slot_hours
    aux_rows, dual_rows = state.user_rows(prev_aux), state.user_rows(prev_duals)
    trade_rows = state.user_rows(state.aux_trades)
    users = []
    for i, ((u, _, base), agent) in enumerate(zip(emp, agents)):
        agent.set_coupling(aux_rows[i], dual_rows[i])
        schedule = agent.solve_llp()
        trades = trade_rows[i]
        payment = trading_payment(trades, scenario.tariff, sh)
        coop = operating_cost(schedule, u, scenario.tariff, sh) + payment
        net = trades.sum(axis=0)
        arb = tuple(int(t) for t in range(scenario.grid.horizon_len)
                    if schedule.grid_draw[t] > 1e-6 and net[t] < -1e-6
                    and scenario.tariff.trade_price[t] > scenario.tariff.energy_price)
        users.append(UserResult(
            user_id=u.id, baseline_cost=base, cooperative_cost=coop,
            reduction_pct=_reduction(base, coop), payment=payment,
            schedule=schedule, trades=trades, partner_ids=state.partners[i],
            arbitrage_slots=arb))
    system_base = sum(r.baseline_cost for r in users)
    system_cost = sum(r.cooperative_cost for r in users)
    return ScenarioReport(
        scenario_name=scenario.name, n_users=len(state.ids),
        horizon=scenario.grid.horizon_len, slot_hours=sh,
        rho0=cfg.rho0, tolerance=cfg.tolerance, max_iter=cfg.max_iter,
        converged=True, iterations=state.iteration,
        final_error=state.history[-1][1], history=list(state.history),
        users=users, system_baseline=system_base, system_cost=system_cost,
        system_reduction_pct=_reduction(system_base, system_cost),
        payment_total=sum(r.payment for r in users))


# each transport by name: a callable that takes the agents and starts them
TRANSPORTS = {"inproc": InProcTransport, "socket": SocketTransport.fork}


def run(scenario, config: AdmmConfig | None = None,
        transport: str = "inproc") -> ScenarioReport:
    """Run the full negotiation for a scenario and assemble the report.

    `transport` selects the agents' home: the coordinator's own thread,
    one agent after another ("inproc"), or one process per user, forked
    from the calling process, each over its own connected socket pair
    ("socket"); both produce byte-identical reports.  Call a socket run
    from a process with no other Python threads running.  That is not
    one OS thread: a process that has imported numpy also holds
    OpenBLAS's pool thread, inside the one-thread scope too, and
    OpenBLAS's own fork handler stops that pool before each fork.
    numpy's OpenBLAS, the only BLAS the package calls, runs on one thread
    for the whole run and gets the caller's thread count back afterwards.
    Raises NonConvergenceError (with the partial history attached) if the
    disagreement never falls under tolerance, and HvacTradeError naming
    the user when an agent fails.
    """
    with blas.single_thread():
        return _negotiate(scenario, config, transport)


def _negotiate(scenario, config, transport) -> ScenarioReport:
    try:
        start = TRANSPORTS[transport]
    except KeyError:
        raise ValueError(f"unknown transport {transport!r}") from None
    cfg = config if config is not None else scenario.admm
    emp = baselines(scenario)
    users = [u for u, _, _ in emp]
    ids = tuple(u.id for u in users)
    state = CoordinatorState.initial(ids, scenario.grid.horizon_len)
    state.rho = cfg.rho0  # every round runs at this penalty
    accel = Anderson()

    def agents():
        return [LocalAgent(u, scenario.tariff, scenario.grid,
                           partner_ids=partners, rho=state.rho)
                for u, partners in zip(users, state.partners)]

    tr = start(agents())
    try:
        for k in range(1, cfg.max_iter + 1):
            # the updates replace these arrays and never write into them
            prev_aux, prev_duals = state.aux_trades, state.duals
            proposals = barrier_collect(tr, k)
            state.iteration = k
            p = proposal_tensor(proposals, state)
            p_hat = relaxed_proposals(p, prev_aux)
            hlp_update(p_hat, state)
            dual_update(state, p_hat)
            # the stop rule measures the raw proposals' disagreement
            err = convergence_error(state, p)
            state.history.append((k, err, state.rho))
            done = err <= cfg.tolerance or k == cfg.max_iter
            if not done:
                x_next = accel.step(
                    np.concatenate((prev_aux.ravel(), prev_duals.ravel())),
                    np.concatenate((state.aux_trades.ravel(),
                                    state.duals.ravel())))
                state.aux_trades, state.duals = x_next.reshape(
                    (2,) + state.aux_trades.shape)
            aux_rows = state.user_rows(state.aux_trades)
            dual_rows = state.user_rows(state.duals)
            for i, partners in enumerate(state.partners):
                tr.send_to(ids[i], CoordinatorBroadcast(
                    iteration=k, aux_row=Rows._trusted(partners, aux_rows[i]),
                    dual_row=Rows._trusted(partners, dual_rows[i]),
                    rho=state.rho, done=done))
            if err <= cfg.tolerance:
                break
    except BaseException:
        tr.close(finished=False)
        raise
    tr.close()

    if not err <= cfg.tolerance:  # also at a NaN
        raise NonConvergenceError(
            f"no agreement within {cfg.max_iter} rounds "
            f"(final disagreement {err:.3e}, "
            f"tolerance {cfg.tolerance:.3e})", history=list(state.history))

    report = _assemble_report(scenario, cfg, state, emp, agents(), prev_aux,
                              prev_duals)
    report.wire_frames = tr.wire_frames
    return report
