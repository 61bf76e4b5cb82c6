import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvactrade import coordinator
from hvactrade.coordinator import (
    AdmmConfig,
    CoordinatorState,
    convergence_error,
    dual_update,
    hlp_update,
    proposal_tensor,
    relaxed_proposals,
    run,
    stepsize,
)
from hvactrade.errors import (
    NonConvergenceError,
    ProtocolViolation,
    SynchronizationTimeout,
)
from hvactrade.protocol import TradeProposal
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


def test_error_l2_sums_per_user_norms():
    state, props = disagreement_state()
    expected = 2.0 * np.sqrt(2 * 0.1 ** 2)
    err = convergence_error(state, proposal_tensor(props, state),
                            norm="l2")
    assert err == pytest.approx(expected, abs=1e-14)


def test_error_zero_when_consensus_matches():
    state = CoordinatorState.initial((1, 2), horizon=2)
    p = np.zeros((2, 2, 2))
    p[0, 1] = [0.25, -1.0]
    p[1, 0] = -p[0, 1]
    state.aux_trades = p.copy()
    assert convergence_error(state, proposal_tensor(
        proposals_from(state, p), state)) == 0.0


def test_error_rejects_unknown_norm():
    state, props = disagreement_state()
    with pytest.raises(ValueError, match="norm"):
        convergence_error(state, proposal_tensor(props, state),
                          norm="linf")


# --- penalty schedule ----------------------------------------------------

def test_stepsize_fixed():
    cfg = AdmmConfig(rho_mode="fixed", rho0=0.5)
    assert [stepsize(k, cfg) for k in (1, 2, 5)] == [0.5, 0.5, 0.5]


def test_stepsize_rejects_round_zero():
    with pytest.raises(ValueError, match="round"):
        stepsize(0, AdmmConfig())


@pytest.mark.parametrize("bad", [
    dict(rho_mode="linear"),
    dict(norm="linf"),
    dict(rho0=0.0),
    dict(tolerance=-1.0),
    dict(max_iter=0),
    dict(rho_mode="decaying"),
])
def test_admm_config_validation(bad):
    with pytest.raises(ValueError):
        AdmmConfig(**bad)


# --- proposal intake -----------------------------------------------------

def test_duplicate_proposal_rejected():
    state = CoordinatorState.initial((1, 2), horizon=1)
    msg = TradeProposal(1, 1, {2: np.zeros(1)})
    other = TradeProposal(2, 1, {1: np.zeros(1)})
    with pytest.raises(ProtocolViolation, match="duplicate"):
        proposal_tensor([msg, msg, other], state)


def test_missing_proposal_times_out_with_names():
    state = CoordinatorState.initial((1, 2), horizon=1)
    msg = TradeProposal(1, 1, {2: np.zeros(1)})
    with pytest.raises(SynchronizationTimeout) as exc:
        proposal_tensor([msg], state)
    assert exc.value.missing == (2,)


def test_unknown_sender_rejected():
    state = CoordinatorState.initial((1, 2), horizon=1)
    msg = TradeProposal(7, 1, {1: np.zeros(1)})
    with pytest.raises(ProtocolViolation, match="unknown"):
        proposal_tensor([msg], state)


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
    ("two_user_complementary", 158),  # 191 without over-relaxation
    ("csv_reference", 123),           # 132 without
])
def test_fixture_agrees_in_fewer_rounds_with_over_relaxation(name, rounds):
    report = run(load_scenario(FIXTURES / f"{name}.yaml"))
    assert report.converged
    assert report.iterations == rounds


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
    assert report.iterations == 162
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
