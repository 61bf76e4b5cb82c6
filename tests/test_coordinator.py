import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvactrade import coordinator, model, protocol, qp
from hvactrade.coordinator import (
    AdmmConfig,
    Anderson,
    CoordinatorState,
    convergence_error,
    dual_update,
    hlp_update,
    proposal_tensor,
    relaxed_proposals,
    run,
)
from hvactrade.errors import (
    NonConvergenceError,
    ProtocolViolation,
    SynchronizationTimeout,
)
from hvactrade.model import operating_cost
from hvactrade.protocol import InProcTransport, TradeProposal, barrier_collect
from hvactrade.reports import write_report
from hvactrade.scenario import build_synth_scenario, load_scenario

from oracles import solve_cemp

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


def proposals_from(state, tensor, iteration=1):
    idx = state.index
    out = []
    for uid in state.ids:
        row = {j: tensor[idx[uid], idx[j]].copy()
               for j in state.ids if j != uid}
        out.append(TradeProposal(user_id=uid, iteration=iteration, trades=row))
    return out


# --- consensus update ----------------------------------------------------

def test_hlp_hand_case_half_split():
    """One side proposes 1, the other 0: consensus meets at +-0.5."""
    state = CoordinatorState.initial((1, 2), horizon=1)
    p = np.zeros((2, 2, 1))
    p[0, 1, 0] = 1.0
    aux = hlp_update(proposal_tensor(proposals_from(state, p), state), state)
    assert aux[0, 1, 0] == 0.5
    assert aux[1, 0, 0] == -0.5
    assert aux[0, 0, 0] == 0.0 and aux[1, 1, 0] == 0.0


def test_hlp_hand_case_dual_gap_shifts_consensus():
    state = CoordinatorState.initial((1, 2), horizon=1)
    state.duals[0, 1, 0] = 0.2
    p = np.zeros((2, 2, 1))
    aux = hlp_update(proposal_tensor(proposals_from(state, p), state), state)
    assert aux[0, 1, 0] == -0.1
    assert aux[1, 0, 0] == 0.1


def test_hlp_agreeing_proposals_are_a_fixed_point():
    state = CoordinatorState.initial((1, 2), horizon=2)
    p = np.zeros((2, 2, 2))
    p[0, 1] = [0.7306, -0.25]
    p[1, 0] = -p[0, 1]
    aux = hlp_update(proposal_tensor(proposals_from(state, p), state), state)
    assert np.array_equal(aux, p)


def test_hlp_equal_duals_cancel():
    rng = np.random.default_rng(4)
    p = rng.normal(size=(2, 2, 3))
    p[np.arange(2), np.arange(2)] = 0.0

    plain = CoordinatorState.initial((1, 2), horizon=3)
    aux_plain = hlp_update(proposal_tensor(proposals_from(plain, p), plain),
                           plain)

    shifted = CoordinatorState.initial((1, 2), horizon=3)
    shifted.duals[0, 1] = 0.37
    shifted.duals[1, 0] = 0.37
    aux_shifted = hlp_update(
        proposal_tensor(proposals_from(shifted, p), shifted), shifted)
    assert np.array_equal(aux_plain, aux_shifted)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_hlp_antisymmetric_bitwise(seed):
    # non-contiguous ids exercise the id-to-row mapping
    ids = (1, 3, 5, 9)
    rng = np.random.default_rng(seed)
    state = CoordinatorState.initial(ids, horizon=3)
    state.rho = 0.7
    state.duals = rng.normal(size=(4, 4, 3))
    p = rng.normal(size=(4, 4, 3))
    p[np.arange(4), np.arange(4)] = 0.0
    aux = hlp_update(proposal_tensor(proposals_from(state, p), state), state)
    assert np.all(aux + aux.swapaxes(0, 1) == 0.0)
    assert np.all(aux[np.arange(4), np.arange(4)] == 0.0)


# --- dual update ---------------------------------------------------------

def test_dual_hand_case():
    state = CoordinatorState.initial((1, 2), horizon=1)
    state.aux_trades[0, 1, 0] = 0.5
    state.aux_trades[1, 0, 0] = -0.5
    p = np.zeros((2, 2, 1))
    duals = dual_update(state, proposal_tensor(proposals_from(state, p), state))
    assert duals[0, 1, 0] == 0.5
    assert duals[1, 0, 0] == -0.5


def test_dual_unchanged_at_zero_residual():
    rng = np.random.default_rng(11)
    state = CoordinatorState.initial((1, 2), horizon=3)
    p = np.zeros((2, 2, 3))
    p[0, 1] = rng.normal(size=3)
    p[1, 0] = -p[0, 1]
    state.aux_trades = p.copy()
    before = rng.normal(size=(2, 2, 3))
    state.duals = before.copy()
    duals = dual_update(state, proposal_tensor(proposals_from(state, p), state))
    assert np.array_equal(duals, before)


def test_dual_scales_with_rho():
    state = CoordinatorState.initial((1, 2), horizon=1)
    state.rho = 4.0
    state.aux_trades[0, 1, 0] = 0.5
    p = np.zeros((2, 2, 1))
    duals = dual_update(state, proposal_tensor(proposals_from(state, p), state))
    assert duals[0, 1, 0] == 2.0


def test_updates_leave_the_arrays_they_replace_unchanged():
    """The round loop keeps the previous round's consensus and duals by
    reference for the final re-solve, so neither update may write into
    the arrays it replaces."""
    rng = np.random.default_rng(3)
    state = CoordinatorState.initial((1, 2, 3), horizon=2)
    state.aux_trades = rng.normal(size=(3, 3, 2))
    state.duals = rng.normal(size=(3, 3, 2))
    aux, duals = state.aux_trades, state.duals
    kept_aux, kept_duals = aux.copy(), duals.copy()
    p = rng.normal(size=(3, 3, 2))
    hlp_update(p, state)
    dual_update(state, p)
    assert state.aux_trades is not aux and state.duals is not duals
    assert np.array_equal(aux, kept_aux)
    assert np.array_equal(duals, kept_duals)


# --- over-relaxation -----------------------------------------------------

def test_relaxed_round_hand_case():
    """Two homes answer the consensus +-0.5 with 1 and 0.5; at 1.5 the
    proposals relax to 1.25 and 1.0 before both updates."""
    state = CoordinatorState.initial((1, 2), horizon=1)
    state.aux_trades[0, 1, 0] = 0.5
    state.aux_trades[1, 0, 0] = -0.5
    p = np.zeros((2, 2, 1))
    p[0, 1, 0] = 1.0
    p[1, 0, 0] = 0.5
    p_hat = relaxed_proposals(
        proposal_tensor(proposals_from(state, p), state), state.aux_trades)
    assert p_hat[0, 1, 0] == 1.25 and p_hat[1, 0, 0] == 1.0
    assert p_hat[0, 0, 0] == 0.0 and p_hat[1, 1, 0] == 0.0
    aux = hlp_update(p_hat, state)
    assert aux[0, 1, 0] == 0.125 and aux[1, 0, 0] == -0.125
    duals = dual_update(state, p_hat)
    assert duals[0, 1, 0] == -1.125 and duals[1, 0, 0] == -1.125


def test_relaxation_keeps_the_fixed_point():
    """Proposals that equal the consensus come back bit for bit."""
    rng = np.random.default_rng(5)
    aux = rng.normal(size=(4, 4, 3))
    aux = aux - aux.swapaxes(0, 1)
    p = aux.copy()
    assert np.array_equal(relaxed_proposals(p, aux), p)


# --- Anderson acceleration -----------------------------------------------

def test_anderson_reaches_a_linear_fixed_point_in_fewer_steps():
    """A contraction x -> Ax + b (eigenvalues 0.5 to 0.95) stands in for
    a round; the accelerated iteration reaches its fixed point in a
    fraction of the plain steps."""
    rng = np.random.default_rng(7)
    n = 30
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q @ np.diag(np.linspace(0.5, 0.95, n)) @ q.T
    b = rng.normal(size=n)
    fixed = np.linalg.solve(np.eye(n) - a, b)

    def steps(accelerate):
        accel, x = Anderson(), np.zeros(n)
        for k in range(1, 2000):
            g = a @ x + b
            if np.linalg.norm(g - x) <= 1e-10:
                return k, x
            x = accel.step(x, g) if accelerate else g
        raise AssertionError("no fixed point in 2000 steps")

    plain, x_plain = steps(False)
    fast, x_fast = steps(True)
    assert fast < plain / 4
    assert np.allclose(x_fast, fixed, atol=1e-8)
    assert np.allclose(x_plain, fixed, atol=1e-8)


def test_ring_step_matches_a_least_squares_step_from_scratch():
    """Over three times the memory, so the rings wrap, every step is the
    regularized type-II step over the last m differences, rebuilt here
    from the recorded pairs; entries fed as exact negations come out as
    exact negations."""
    m = coordinator.ANDERSON_MEMORY
    rng = np.random.default_rng(11)

    def point():  # 12 entries, then their negations, then 8 free ones
        u = rng.normal(size=12)
        return np.concatenate((u, -u, rng.normal(size=8)))

    accel, xs, gs = Anderson(), [], []
    for k in range(3 * m):
        x, g = point(), point()
        xs.append(x)
        gs.append(g)
        out = accel.step(x, g)
        if k == 0:
            assert out is g
            continue
        f = np.array(gs[-m - 1:]) - np.array(xs[-m - 1:])
        d_f, d_g = np.diff(f, axis=0), np.diff(np.array(gs[-m - 1:]), axis=0)
        gram = d_f @ d_f.T
        gram += coordinator.ANDERSON_REGULARIZATION * np.trace(gram) * np.eye(
            len(gram))
        want = g - d_g.T @ np.linalg.solve(gram, d_f @ f[-1])
        assert np.linalg.norm(out - want) <= 1e-10 * np.linalg.norm(want)
        assert np.array_equal(out[12:24], -out[:12])
    assert accel.accepted == 3 * m - 1


def test_extrapolation_equals_the_per_row_expression_bit_for_bit(monkeypatch):
    """Each step returns g - c_1 dG_1 - ... - c_m dG_m, subtracted row by
    row in ring order as `out -= c * d_g`, to the last bit, on random
    rings that wrap."""
    m = coordinator.ANDERSON_MEMORY
    rng = np.random.default_rng(23)
    solve = np.linalg.solve
    gammas = []

    def recorded_solve(a, b):
        gammas.append(solve(a, b))
        return gammas[-1]

    monkeypatch.setattr(np.linalg, "solve", recorded_solve)
    accel = Anderson()
    for k in range(3 * m):
        x = rng.normal(size=257) * 10.0 ** rng.integers(-3, 4)
        g = x + rng.normal(size=257)
        out = accel.step(x, g)
        if k == 0:
            continue
        want = g.copy()
        for c, d_g in zip(gammas[-1], accel._d_g[:min(k, m)]):
            want -= c * d_g
        assert out.tobytes() == want.tobytes()
    assert accel.accepted == 3 * m - 1


def test_anderson_returns_g_until_it_holds_two_pairs():
    accel = Anderson()
    g = np.array([1.0, 2.0])
    assert accel.step(np.zeros(2), g) is g
    assert accel.accepted == 0


def test_safeguard_rejection_returns_the_plain_point():
    """A residual far above D |f_0| is refused: the plain g comes back
    unchanged and no extrapolation is counted."""
    accel = Anderson()
    accel.step(np.zeros(2), np.array([1e-9, 0.0]))
    g = np.array([0.5, -0.25])
    assert accel.step(np.array([2.0, 1.0]), g) is g
    assert accel.accepted == 0
    # a residual under the bound is extrapolated
    x = np.array([0.4, -0.2])
    out = accel.step(x, x + 1e-9)
    assert accel.accepted == 1 and not np.array_equal(out, x + 1e-9)


def test_run_with_every_candidate_refused_is_the_plain_iteration(monkeypatch):
    """D = 0 makes the safeguard refuse every extrapolation: each round
    then broadcasts exactly the plain update, and the run takes the
    relaxed iteration's 158 rounds."""
    monkeypatch.setattr(coordinator, "SAFEGUARD_D", 0.0)
    steps = []
    step = Anderson.step

    def record(self, x, g):
        out = step(self, x, g)
        steps.append(out is g)
        return out

    monkeypatch.setattr(Anderson, "step", record)
    report = run(load_scenario(FIXTURES / "two_user_complementary.yaml"))
    assert report.iterations == 158
    assert len(steps) == 157 and all(steps)


def test_accelerated_broadcasts_stay_antisymmetric(monkeypatch):
    """Every point the accelerator hands on has an antisymmetric aux
    with a zero diagonal, and the next broadcast carries it."""
    sent = {}
    send = InProcTransport.send_to

    def capture(self, user_id, broadcast):
        sent.setdefault(broadcast.iteration, {})[user_id] = broadcast
        return send(self, user_id, broadcast)

    points = []
    step = Anderson.step

    def record(self, x, g):
        out = step(self, x, g)
        points.append((g, out))
        return out

    monkeypatch.setattr(InProcTransport, "send_to", capture)
    monkeypatch.setattr(Anderson, "step", record)
    scenario = build_synth_scenario(4, 6, seed=3)
    run(scenario)
    ids = tuple(sorted(u.id for u in scenario.users))
    n = len(ids)
    assert any(not np.array_equal(g, out) for g, out in points)
    for k, (_, out) in enumerate(points, start=1):
        aux, duals = out.reshape(2, n, n, 6)
        assert np.all(aux == -aux.swapaxes(0, 1))
        assert np.all(aux[np.arange(n), np.arange(n)] == 0.0)
        for i, uid in enumerate(ids):
            msg = sent[k][uid]
            cols = [ids.index(j) for j in msg.aux_row.ids]
            assert np.array_equal(msg.aux_row.block, aux[i, cols])
            assert np.array_equal(msg.dual_row.block, duals[i, cols])


def test_converged_round_reports_the_plain_update(monkeypatch):
    """The last round is not extrapolated: the reported trades and the
    closing broadcast are the consensus update itself."""
    updates = []
    update = coordinator.hlp_update

    def record(p, state):
        updates.append(update(p, state))
        return updates[-1]

    closing = {}
    send = InProcTransport.send_to

    def capture(self, user_id, broadcast):
        if broadcast.done:
            closing[user_id] = broadcast
        return send(self, user_id, broadcast)

    monkeypatch.setattr(coordinator, "hlp_update", record)
    monkeypatch.setattr(InProcTransport, "send_to", capture)
    scenario = build_synth_scenario(4, 6, seed=3)
    report = run(scenario)
    assert len(updates) == report.iterations
    last = updates[-1]
    ids = sorted(u.user_id for u in report.users)
    for user in report.users:
        i = ids.index(user.user_id)
        cols = [ids.index(j) for j in user.partner_ids]
        assert np.array_equal(user.trades, last[i, cols])
        assert np.array_equal(closing[user.user_id].aux_row.block,
                              last[i, cols])


# --- disagreement measure ------------------------------------------------

def disagreement_state():
    state = CoordinatorState.initial((1, 2), horizon=2)
    state.aux_trades[0, 1] = [0.5, 0.5]
    state.aux_trades[1, 0] = [-0.5, -0.5]
    p = np.zeros((2, 2, 2))
    p[0, 1] = [0.6, 0.6]
    p[1, 0] = [-0.4, -0.4]
    return state, proposals_from(state, p)


def test_error_l1_counts_both_endpoints():
    state, props = disagreement_state()
    err = convergence_error(state, proposal_tensor(props, state))
    assert err == pytest.approx(0.4, abs=1e-14)


def test_error_zero_when_consensus_matches():
    state = CoordinatorState.initial((1, 2), horizon=2)
    p = np.zeros((2, 2, 2))
    p[0, 1] = [0.25, -1.0]
    p[1, 0] = -p[0, 1]
    state.aux_trades = p.copy()
    assert convergence_error(state, proposal_tensor(
        proposals_from(state, p), state)) == 0.0


# --- loop settings -------------------------------------------------------

def test_admm_config_holds_three_settings():
    assert {f.name for f in dataclasses.fields(AdmmConfig)} == {
        "rho0", "tolerance", "max_iter"}


@pytest.mark.parametrize("bad", [
    dict(rho0=0.0),
    dict(tolerance=-1.0),
    dict(max_iter=0),
    dict(rho0=float("nan")),
    dict(rho0=float("inf")),
    dict(tolerance=float("nan")),
    dict(tolerance=float("inf")),
    dict(tolerance=0.0),
    dict(max_iter=2.5),
    dict(max_iter=2000.0),
    dict(max_iter=float("inf")),
    dict(max_iter=True),
    dict(max_iter="2000"),
])
def test_admm_config_validation(bad):
    with pytest.raises(ValueError):
        AdmmConfig(**bad)


def test_unknown_transport_is_refused_before_any_solve(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solve_emp called")

    monkeypatch.setattr(coordinator, "solve_emp", unreachable)
    with pytest.raises(ValueError, match="unknown transport 'tcp'"):
        run(load_scenario(FIXTURES / "two_user_complementary.yaml"),
            transport="tcp")


# --- proposal intake -----------------------------------------------------

# A round's intake is barrier_collect, which reads one proposal from each
# user's own agent and names the users it timed out on, then
# proposal_tensor, whose one id check refuses any other set of senders,
# such as a round built by hand.

class ScriptedTransport:
    """Feeds each user's agent a fixed script, then nothing."""

    expected_ids = (1, 2)

    def __init__(self, script):
        self.script = {u: [m for m in script if m.user_id == u]
                       for u in self.expected_ids}

    def recv(self, user_id, timeout):
        queue = self.script[user_id]
        return queue.pop(0) if queue else None


ONE = TradeProposal(1, 1, {2: np.zeros(1)})
TWO = TradeProposal(2, 1, {1: np.zeros(1)})
ONE_FROM_EACH = "expected one from each of \\[1, 2\\]"


def test_duplicate_proposal_rejected():
    state = CoordinatorState.initial((1, 2), horizon=1)
    with pytest.raises(ProtocolViolation, match=ONE_FROM_EACH):
        proposal_tensor([ONE, ONE, TWO], state)
    assert proposal_tensor([TWO, ONE], state).shape == (2, 2, 1)


def test_missing_proposal_times_out_with_names(monkeypatch):
    monkeypatch.setattr(protocol, "BARRIER_TIMEOUT", 0.05)
    state = CoordinatorState.initial((1, 2), horizon=1)
    with pytest.raises(SynchronizationTimeout) as exc:
        barrier_collect(ScriptedTransport([ONE]), 1)
    assert exc.value.missing == (2,)
    with pytest.raises(ProtocolViolation, match=ONE_FROM_EACH):
        proposal_tensor([ONE], state)


def test_unknown_sender_rejected():
    state = CoordinatorState.initial((1, 2), horizon=1)
    seven = TradeProposal(7, 1, {1: np.zeros(1)})
    with pytest.raises(ProtocolViolation, match=ONE_FROM_EACH):
        proposal_tensor([ONE, seven], state)


def test_partial_counterparty_coverage_rejected():
    state = CoordinatorState.initial((1, 2, 3), horizon=1)
    msgs = [TradeProposal(1, 1, {2: np.zeros(1)}),  # 3 missing
            TradeProposal(2, 1, {1: np.zeros(1), 3: np.zeros(1)}),
            TradeProposal(3, 1, {1: np.zeros(1), 2: np.zeros(1)})]
    with pytest.raises(ProtocolViolation, match="covers"):
        proposal_tensor(msgs, state)


def test_wrong_row_length_rejected():
    state = CoordinatorState.initial((1, 2), horizon=2)
    msgs = [TradeProposal(1, 1, {2: np.zeros(3)}),
            TradeProposal(2, 1, {1: np.zeros(2)})]
    with pytest.raises(ProtocolViolation, match="slots"):
        proposal_tensor(msgs, state)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trade_rejected_naming_sender_counterparty_and_slot(bad):
    state = CoordinatorState.initial((1, 2, 3), horizon=4)
    rows = np.zeros(4)
    rows[2] = bad
    msgs = [TradeProposal(1, 1, {2: np.zeros(4), 3: np.zeros(4)}),
            TradeProposal(2, 1, {1: np.zeros(4), 3: rows}),
            TradeProposal(3, 1, {1: np.zeros(4), 2: np.zeros(4)})]
    with pytest.raises(ProtocolViolation,
                       match=f"user 2: proposal holds a non-finite trade "
                             f"\\({bad}\\) with counterparty 3 in slot 2"):
        proposal_tensor(msgs, state)


def test_proposal_tensor_places_each_row_at_its_pair():
    """Entry (i, j, t) of the tensor is user i's trade with user j in
    slot t, and the diagonal is zero."""
    ids, h = (3, 5, 8, 9), 2
    state = CoordinatorState.initial(ids, horizon=h)
    msgs = [TradeProposal(u, 1, {j: np.array([100.0 * u + j, -t])
                                 for t, j in enumerate(ids) if j != u})
            for u in reversed(ids)]
    p = proposal_tensor(msgs, state)
    for i, u in enumerate(ids):
        for t, j in enumerate(ids):
            want = [0.0, 0.0] if i == t else [100.0 * u + j, -t]
            assert p[i, t].tolist() == want


# --- full negotiation ----------------------------------------------------

def test_single_user_run_converges_immediately():
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    solo = dataclasses.replace(scenario, users=[scenario.users[0]],
                               name="solo")
    report = run(solo)
    assert report.converged
    assert report.iterations == 1
    assert report.final_error == 0.0
    user = report.users[0]
    assert user.cooperative_cost == pytest.approx(user.baseline_cost,
                                                  abs=1e-12)
    assert report.system_reduction_pct == pytest.approx(0.0, abs=1e-9)
    assert report.payment_total == 0.0


def test_two_user_run_matches_centralized_plan():
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    report = run(scenario)
    assert report.converged
    objective, _, _ = solve_cemp(scenario.users, scenario.tariff,
                                 scenario.grid)
    assert report.system_cost == pytest.approx(
        objective, rel=1e-3, abs=1e-3)
    assert report.system_cost <= report.system_baseline + 1e-6
    # negotiation bookkeeping is complete and self-consistent
    assert len(report.history) == report.iterations
    assert report.history[-1][0] == report.iterations
    assert report.history[-1][1] == report.final_error
    assert report.final_error <= scenario.admm.tolerance
    # per-user trade rows agree pairwise
    by_id = {u.user_id: u for u in report.users}
    for u in report.users:
        for r, j in enumerate(u.partner_ids):
            back = by_id[j]
            mine = u.trades[r]
            theirs = back.trades[back.partner_ids.index(u.user_id)]
            assert np.array_equal(mine, -theirs)


def test_run_builds_one_proposal_tensor_per_round(monkeypatch):
    calls = []
    build = coordinator.proposal_tensor

    def counting(proposals, state):
        calls.append(state.iteration)
        return build(proposals, state)

    monkeypatch.setattr(coordinator, "proposal_tensor", counting)
    report = run(load_scenario(FIXTURES / "two_user_complementary.yaml"))
    assert calls == list(range(1, report.iterations + 1))


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_a_round_rechecks_nothing_the_library_built(monkeypatch, transport):
    """The coordinator and the agents build a round's rows from parts
    they already hold, so the only checked Rows in the coordinator's
    process are the proposals it decodes, one per home and round on the
    socket transport and none in-process.  A plan is checked only where
    the report prices it: two traces per home."""
    scenario = load_scenario(FIXTURES / "reference_10user.yaml")
    calls = {"rows": 0, "traces": 0}
    rows_init, trace = protocol.Rows.__init__, model._trace

    def counted_rows(self, *args):
        calls["rows"] += 1
        rows_init(self, *args)

    def counted_trace(*args):
        calls["traces"] += 1
        return trace(*args)

    monkeypatch.setattr(protocol.Rows, "__init__", counted_rows)
    monkeypatch.setattr(model, "_trace", counted_trace)
    report = run(scenario, transport=transport)
    n = len(scenario.users)
    decoded = n * report.iterations if transport == "socket" else 0
    assert (report.iterations, calls) == (31, {"rows": decoded,
                                               "traces": 2 * n})


_DECOY = """\
import pathlib
pathlib.Path(__file__).parent.parent.joinpath("imported").write_text("yes")
"""

_SOCKET_RUN = """\
import os
import sys
sys.path.insert(0, sys.argv[1])
from hvactrade.coordinator import run
from hvactrade.scenario import load_scenario
before = os.environ["PYTHONPATH"]
if not run(load_scenario(sys.argv[2]), transport="socket").converged:
    sys.exit("no agreement")
if os.environ["PYTHONPATH"] != before:
    sys.exit("PYTHONPATH not restored")
"""


def test_socket_agents_run_the_callers_package(tmp_path):
    """A caller that reaches hvactrade through sys.path, with another
    copy on PYTHONPATH, gets agents that preload and run its own copy."""
    decoy = tmp_path / "decoy"
    (decoy / "hvactrade").mkdir(parents=True)
    (decoy / "hvactrade" / "__init__.py").write_text(_DECOY)
    src = str(Path(coordinator.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=str(decoy))
    done = subprocess.run(
        [sys.executable, "-c", _SOCKET_RUN, src,
         str(FIXTURES / "two_user_complementary.yaml")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert not (decoy / "imported").exists()
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("name, rounds", [
    ("two_user_complementary", 19),  # 158 without acceleration, 191 plain
    ("csv_reference", 15),           # 123 without, 132 plain
])
def test_fixture_agrees_in_fewer_rounds_with_over_relaxation(name, rounds):
    report = run(load_scenario(FIXTURES / f"{name}.yaml"))
    assert report.converged
    assert report.iterations == rounds


@pytest.mark.parametrize("n_users, horizon, seed, rounds", [
    (16, 12, 1, 33),  # 36 at Anderson memory 5
    (40, 24, 2, 43),  # 58 at memory 5
])
def test_synthetic_fleet_agrees_in_pinned_rounds(n_users, horizon, seed,
                                                 rounds):
    report = run(build_synth_scenario(n_users, horizon, seed=seed))
    assert report.converged
    assert report.iterations == rounds


# Splitting inverses per run: three cold solves per home, plus one for
# each warm solve that runs splitting.
SPLITTING_INVERSES = {"reference_10user": 31, "csv_reference": 6,
                      "two_user_complementary": 6, "synth_16_12_1": 48}
# Splitting iterations per run, over every solve: the polish starts once
# both splitting residuals are within 1e-2 of their scales (1110 / 170 /
# 190 / 1400 when it started at 1e-4).
SPLITTING_ITERATIONS = {"reference_10user": 510, "csv_reference": 70,
                        "two_user_complementary": 110, "synth_16_12_1": 600}


@pytest.mark.parametrize("fleet, warm_splitting", [
    ("reference_10user", 1),  # 16 when warm misses fell back to splitting
    ("csv_reference", 0),  # 1
    ("two_user_complementary", 0),  # 2
    ("synth_16_12_1", 0),  # 15
])
def test_warm_solves_run_no_splitting_on_the_bundled_fleets(
        fleet, warm_splitting, monkeypatch):
    """A warm solve, one on a workspace that has solved before, settles
    on the last accepted active set or by the walk from it; the pinned
    count of those that still run splitting iterations is exact.  So are
    the count of splitting inverses, which holds splitting to the homes'
    cold solves and those fallbacks, and the splitting iterations they
    run in all."""
    if fleet.startswith("synth"):
        scenario = build_synth_scenario(16, 12, seed=1)
    else:
        scenario = load_scenario(FIXTURES / f"{fleet}.yaml")
    solved, splitting, iterations = set(), [], []
    solve = qp.Workspace.solve

    def counted(ws, **kwargs):
        sol = solve(ws, **kwargs)
        iterations.append(sol.iterations)
        if ws in solved and sol.iterations > 0:
            splitting.append(sol.iterations)
        solved.add(ws)
        return sol

    factorize, formed = qp.Workspace._factorize, []

    def counted_factorize(ws, rho):
        formed.append(ws)
        return factorize(ws, rho)

    monkeypatch.setattr(qp.Workspace, "solve", counted)
    monkeypatch.setattr(qp.Workspace, "_factorize", counted_factorize)
    report = run(scenario)
    assert report.converged
    assert len(splitting) == warm_splitting
    assert len(formed) == SPLITTING_INVERSES[fleet]
    assert sum(iterations) == SPLITTING_ITERATIONS[fleet]


# Rounds to agreement at rho0 = 0.1, 0.3, 1, 3 and 10 with over-relaxation
# and without acceleration (cap 1500): accelerated runs take no more.
RHO0_SWEEP = (0.1, 0.3, 1.0, 3.0, 10.0)
RELAXED_ROUNDS = {
    "reference_10user": (165, 56, 61, 162, 492),
    "csv_reference": (25, 43, 123, 328, 954),
    "two_user_complementary": (27, 42, 158, 415, 1183),
}


@pytest.mark.parametrize("name, rho0, bound", [
    (name, rho0, bound) for name, rounds in RELAXED_ROUNDS.items()
    for rho0, bound in zip(RHO0_SWEEP, rounds)])
def test_rho0_sweep_agrees_in_no_more_rounds(name, rho0, bound):
    scenario = load_scenario(FIXTURES / f"{name}.yaml")
    report = run(scenario, config=dataclasses.replace(scenario.admm,
                                                      rho0=rho0))
    assert report.converged
    assert report.iterations <= min(bound, scenario.admm.max_iter)


@pytest.mark.parametrize("name", list(RELAXED_ROUNDS))
def test_negotiated_point_solves_the_pooled_problem(name):
    """The pooled optimum's split between homes need not be unique, so
    per-home results are checked as a whole: the negotiated schedules
    and trades are a feasible point of the pooled problem (criterion 4's
    checks plus the thermal recursion) whose operating cost is the
    report's system cost and the pooled optimum."""
    scenario = load_scenario(FIXTURES / f"{name}.yaml")
    report = run(scenario)
    params = {u.id: u for u in scenario.users}
    by_id = {r.user_id: r for r in report.users}
    total = 0.0
    for r in report.users:
        u, s = params[r.user_id], r.schedule
        balance = (s.renewable_use + s.grid_draw + r.trades.sum(axis=0)
                   - u.inflexible_load - s.hvac_power)
        assert np.abs(balance).max() <= 1e-5, r.user_id
        for row, j in enumerate(r.partner_ids):
            back = by_id[j].trades[by_id[j].partner_ids.index(r.user_id)]
            assert np.abs(r.trades[row] + back).max() <= 1e-5, (r.user_id, j)
        for vals, lo, hi in ((s.renewable_use, 0.0, u.renewable_avail),
                             (s.grid_draw, 0.0, u.grid_cap),
                             (s.hvac_power, 0.0, u.hvac_cap),
                             (s.indoor_temp, u.temp_min, u.temp_max)):
            assert np.all(vals >= lo - 1e-8) and np.all(vals <= hi + 1e-8)
        cr = u.thermal_capacitance * u.thermal_resistance
        a = 1.0 - 1.0 / cr
        before = np.concatenate(([u.temp_initial], s.indoor_temp[:-1]))
        recursion = (s.indoor_temp - a * before - u.outdoor_temp / cr
                     + u.hvac_efficiency / u.thermal_capacitance * s.hvac_power)
        assert np.abs(recursion).max() <= 1e-6, r.user_id
        total += operating_cost(s, u, scenario.tariff,
                                scenario.grid.slot_hours)
    assert total == pytest.approx(report.system_cost, rel=1e-12, abs=1e-8)
    pooled, _, _ = solve_cemp(scenario.users, scenario.tariff, scenario.grid)
    assert total == pytest.approx(pooled, rel=1e-6)


def test_run_reports_partial_history_on_iteration_cap():
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    tight = dataclasses.replace(scenario.admm, max_iter=1)
    with pytest.raises(NonConvergenceError) as exc:
        run(scenario, config=tight)
    assert len(exc.value.history) == 1
    assert exc.value.history[0][0] == 1



def test_ten_home_run_at_rho0_3_writes_a_report(tmp_path):
    """The final cold re-solves used to return a grid draw a rounding
    error below zero at this penalty, which the cost model rejects."""
    scenario = load_scenario(FIXTURES / "reference_10user.yaml")
    config = dataclasses.replace(scenario.admm, rho0=3.0)
    report = run(scenario, config=config)
    assert report.converged
    assert report.iterations == 46
    write_report(report, tmp_path)
    assert (tmp_path / "report.json").exists()


@settings(max_examples=12, deadline=None)
@given(n_users=st.integers(2, 4), horizon=st.integers(2, 8),
       seed=st.integers(0, 10_000), rho0=st.floats(0.3, 10.0))
def test_every_converged_run_assembles_a_report(n_users, horizon, seed, rho0):
    scenario = build_synth_scenario(n_users, horizon, seed=seed)
    config = dataclasses.replace(scenario.admm, rho0=rho0, max_iter=400)
    try:
        report = run(scenario, config=config)
    except NonConvergenceError:
        return
    assert report.converged
    for user in report.users:
        for name in ("renewable_use", "grid_draw", "hvac_power"):
            assert np.all(getattr(user.schedule, name) >= 0.0)
