from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hvactrade import qp
from hvactrade.agent import LocalAgent, build_user_qp, solve_emp
from hvactrade.errors import ProtocolViolation
from hvactrade.model import Tariff, TimeGrid, UserParams
from hvactrade.protocol import CoordinatorBroadcast
from hvactrade.scenario import build_synth_scenario, load_scenario

from oracles import (
    build_pairwise_llp,
    grid_search_schedule,
    reference_user_qp,
    solve_cemp,
    verify_schedule,
)


def make_params(horizon=3, **over):
    base = dict(
        id=1,
        thermal_capacitance=3.3,
        thermal_resistance=1.35,
        hvac_efficiency=2.5,
        comfort_weight=0.1,
        temp_ref=22.0,
        temp_min=20.0,
        temp_max=24.0,
        grid_cap=6.0,
        renewable_avail=np.zeros(horizon),
        inflexible_load=np.zeros(horizon),
        outdoor_temp=np.full(horizon, 22.0),
    )
    base.update(over)
    return UserParams(**base)


def make_tariff(horizon=3, energy=0.25, peak=0.5, trade=0.1):
    return Tariff(energy, peak, np.full(horizon, trade))


# --- standalone scheduling ---------------------------------------------

def test_emp_free_renewables_cover_load():
    """With renewables matching the load exactly, the grid stays idle."""
    load = np.array([0.5, 1.0, 0.75])
    params = make_params(comfort_weight=0.0, renewable_avail=load.copy(),
                         inflexible_load=load)
    schedule, cost = solve_emp(params, make_tariff())
    assert np.all(schedule.grid_draw <= 1e-7)
    assert schedule.renewable_use == pytest.approx(load, abs=1e-6)
    assert cost == pytest.approx(0.0, abs=1e-7)
    assert verify_schedule(schedule, params) == []


def test_emp_idle_band_cost_is_tariff_on_load():
    # outdoor air sits at the reference, so heating/cooling is pure waste
    load = np.array([0.5, 1.0, 0.25])
    params = make_params(comfort_weight=0.0, inflexible_load=load)
    tariff = make_tariff(energy=0.1, peak=5.0)
    schedule, cost = solve_emp(params, tariff)
    expected = 0.1 * load.sum() + 5.0 * load.max()
    assert np.all(schedule.hvac_power <= 1e-7)
    assert schedule.grid_draw == pytest.approx(load, abs=1e-6)
    assert cost == pytest.approx(expected, rel=1e-8)


def memoryless_params():
    # unit capacitance and resistance make each slot's temperature
    # depend only on that slot's inputs
    return make_params(
        thermal_capacitance=1.0,
        thermal_resistance=1.0,
        hvac_efficiency=2.0,
        comfort_weight=0.0,
        temp_initial=22.0,
        grid_cap=10.0,
        hvac_cap=6.0,
        inflexible_load=np.array([0.5, 0.0, 1.0]),
        outdoor_temp=np.array([30.0, 28.0, 26.0]),
    )


def test_emp_three_slot_hand_case():
    """Cheapest plan holds the band edge: cooling power follows the
    outdoor trace down and the draw is load plus cooling."""
    params = memoryless_params()
    tariff = Tariff(0.2, 0.0, np.zeros(3))
    schedule, cost = solve_emp(params, tariff)
    assert schedule.hvac_power == pytest.approx([3.0, 2.0, 1.0], abs=1e-6)
    assert schedule.grid_draw == pytest.approx([3.5, 2.0, 2.0], abs=1e-6)
    assert schedule.indoor_temp == pytest.approx([24.0, 24.0, 24.0], abs=1e-6)
    assert cost == pytest.approx(1.5, abs=1e-6)


def test_emp_three_slot_matches_grid_oracle():
    params = memoryless_params()
    tariff = Tariff(0.2, 0.0, np.zeros(3))
    _, cost = solve_emp(params, tariff)
    oracle = grid_search_schedule(params, tariff, slot_hours=1.0, step=0.5)
    assert abs(cost - oracle) <= 1e-3


@pytest.mark.parametrize("seed", [3, 17, 52])
def test_emp_never_beaten_by_grid_oracle(seed):
    # every grid-feasible plan is feasible for the solver too, so the
    # continuous optimum can only be at or below the discrete one
    rng = np.random.default_rng(seed)
    h = 3
    params = make_params(
        horizon=h,
        comfort_weight=1.0,
        temp_min=19.0,
        temp_max=33.0,
        hvac_cap=3.0,
        inflexible_load=rng.uniform(0.0, 1.0, h),
        renewable_avail=rng.uniform(0.0, 0.5, h),
        outdoor_temp=rng.uniform(25.0, 32.0, h),
    )
    tariff = make_tariff(h, energy=0.3, peak=2.0)
    _, cost = solve_emp(params, tariff)
    oracle = grid_search_schedule(params, tariff, slot_hours=1.0, step=0.5)
    assert cost <= oracle + 1e-9


# --- trading subproblem -------------------------------------------------

def test_llp_without_partners_equals_emp():
    params = make_params(comfort_weight=0.2,
                         inflexible_load=np.array([1.0, 0.5, 0.75]),
                         outdoor_temp=np.array([28.0, 29.0, 30.0]))
    tariff = make_tariff()
    agent = LocalAgent(params, tariff)
    llp = agent.solve_llp()
    emp, emp_cost = solve_emp(params, tariff)
    assert np.array_equal(llp.grid_draw, emp.grid_draw)
    assert np.array_equal(llp.hvac_power, emp.hvac_power)
    assert np.array_equal(llp.indoor_temp, emp.indoor_temp)
    assert agent.last_objective == emp_cost
    assert agent.last_trades.shape == (0, 3)


def test_llp_penalty_sweep_pins_trade_size():
    """At zero consensus the buy volume solves rho*b = pi1 - pi_t
    slotwise, so it shrinks as 0.15/rho here."""
    params = make_params(inflexible_load=np.full(3, 1.5))
    tariff = Tariff(0.25, 0.0, np.full(3, 0.1))
    agent = LocalAgent(params, tariff, partner_ids=(2,))
    norms = []
    for rho in (1.0, 10.0, 100.0):
        agent.set_coupling(np.zeros((1, 3)), np.zeros((1, 3)), rho=rho)
        schedule = agent.solve_llp()
        assert agent.last_trades == pytest.approx(
            np.full((1, 3), 0.15 / rho), abs=1e-6)
        assert schedule.grid_draw == pytest.approx(
            np.full(3, 1.5 - 0.15 / rho), abs=1e-6)
        norms.append(float(np.abs(agent.last_trades).sum()))
    assert norms[0] > norms[1] > norms[2]


@settings(max_examples=30, deadline=None)
@given(data=st.data(), npart=st.sampled_from([1, 2, 5]),
       rho=st.floats(0.1, 10.0))
def test_llp_matches_pairwise_qp(data, npart, rho):
    """The reduced subproblem and the one with a variable per partner
    and slot have the same optimum, objective and trades."""
    aux = data.draw(hnp.arrays(np.float64, (npart, 3),
                               elements=st.floats(-1.0, 1.0)))
    duals = data.draw(hnp.arrays(np.float64, (npart, 3),
                                 elements=st.floats(-0.5, 0.5)))
    params = make_params(comfort_weight=0.2,
                         inflexible_load=np.array([1.0, 0.5, 1.5]),
                         renewable_avail=np.array([0.5, 0.0, 0.25]),
                         outdoor_temp=np.array([28.0, 27.0, 29.0]))
    tariff = make_tariff()
    agent = LocalAgent(params, tariff, partner_ids=range(2, 2 + npart))
    agent.set_coupling(aux, duals, rho=rho)
    schedule = agent.solve_llp()

    problem, index = build_pairwise_llp(params, tariff, TimeGrid(3),
                                        aux, duals, rho)
    full = qp.solve(problem)
    assert full.status is qp.QpStatus.OPTIMAL
    x = full.primal
    for got, key in ((schedule.renewable_use, "renewable"),
                     (schedule.grid_draw, "grid"),
                     (schedule.hvac_power, "hvac"),
                     (schedule.indoor_temp, "temp"),
                     (agent.last_trades, "trades")):
        assert got == pytest.approx(x[index[key]], abs=1e-6)
    assert agent.last_objective == pytest.approx(full.objective, abs=1e-7)
    balance = (schedule.renewable_use + schedule.grid_draw
               + agent.last_trades.sum(axis=0)
               - params.inflexible_load - schedule.hvac_power)
    assert np.max(np.abs(balance)) <= 1e-6


@pytest.mark.parametrize("npart", [1, 5, 15])
def test_build_user_qp_size_is_independent_of_partners(npart):
    h = 4
    params = make_params(horizon=h)
    partners = tuple(range(2, 2 + npart))
    problem, _ = build_user_qp(params, make_tariff(h), TimeGrid(h),
                               partner_ids=partners)
    assert problem.n == 5 * h + 1
    problem, _ = build_user_qp(params, make_tariff(h, peak=0.0), TimeGrid(h),
                               partner_ids=partners)
    assert problem.n == 5 * h


def test_user_qp_keeps_its_bounds_as_bounds():
    """The only rows beyond the 2H equalities are the H peak rows: the
    four bounded groups keep both bounds per slot, and the net import and
    the peak are free."""
    h = 4
    params = make_params(horizon=h)
    problem, index = build_user_qp(params, make_tariff(h), TimeGrid(h),
                                   partner_ids=(2, 3), rho=1.0)
    assert problem.n_eq == 2 * h and problem.n_ineq == h
    boxed = np.concatenate([index[k] for k in ("renewable", "grid", "hvac", "temp")])
    assert boxed.size == 4 * h
    assert np.isfinite(problem.lower[boxed]).all()
    assert np.isfinite(problem.upper[boxed]).all()
    free = np.r_[index["net_import"], index["peak"]]
    assert np.isinf(problem.lower[free]).all() and np.isinf(problem.upper[free]).all()
    assert problem.lower[index["temp"]].tolist() == [params.temp_min] * h
    assert problem.upper[index["grid"]].tolist() == [params.grid_cap] * h


def test_llp_surplus_user_sells_in_centralized_plan():
    h = 3
    seller = make_params(id=1, renewable_avail=np.full(h, 3.0),
                         inflexible_load=np.full(h, 0.5))
    buyer = make_params(id=2, inflexible_load=np.full(h, 2.0))
    tariff = Tariff(0.25, 0.5, np.zeros(h))
    grid = TimeGrid(h)
    _, emp_seller = solve_emp(seller, tariff, grid)
    _, emp_buyer = solve_emp(buyer, tariff, grid)
    objective, _, trades = solve_cemp([seller, buyer], tariff, grid)
    # buyer imports the whole load from the surplus holder
    assert np.all(trades[1, 0] > 1e-6)
    assert trades[1, 0] == pytest.approx(np.full(h, 2.0), abs=1e-6)
    assert np.all(trades[0, 1] == -trades[1, 0])
    assert objective <= emp_seller + emp_buyer - 0.5


@settings(max_examples=20, deadline=None)
@given(
    aux=hnp.arrays(np.float64, (2, 3), elements=st.floats(-1.0, 1.0)),
    duals=hnp.arrays(np.float64, (2, 3), elements=st.floats(-0.5, 0.5)),
)
def test_llp_schedules_stay_feasible(aux, duals):
    params = make_params(comfort_weight=0.2,
                         inflexible_load=np.array([1.0, 0.5, 1.5]),
                         renewable_avail=np.array([0.5, 0.0, 0.25]),
                         outdoor_temp=np.array([28.0, 27.0, 29.0]))
    agent = LocalAgent(params, make_tariff(), partner_ids=(2, 5))
    agent.set_coupling(aux, duals, rho=2.0)
    schedule = agent.solve_llp()
    assert verify_schedule(schedule, params) == []
    balance = (schedule.renewable_use + schedule.grid_draw
               + agent.last_trades.sum(axis=0)
               - params.inflexible_load - schedule.hvac_power)
    assert np.max(np.abs(balance)) <= 1e-6


def test_llp_warm_resolve_matches_cold():
    """Re-solving after new consensus values must agree with a from-
    scratch build of the same subproblem."""
    params = make_params(comfort_weight=0.2,
                         inflexible_load=np.array([1.0, 0.5, 1.5]),
                         outdoor_temp=np.array([28.0, 27.0, 29.0]))
    tariff = make_tariff()
    rng = np.random.default_rng(7)
    a1, d1 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    a2, d2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))

    warm = LocalAgent(params, tariff, partner_ids=(2, 5))
    warm.set_coupling(a1, d1, rho=2.0)
    warm.solve_llp()
    warm.set_coupling(a2, d2)
    s_warm = warm.solve_llp()

    cold = LocalAgent(params, tariff, partner_ids=(2, 5))
    cold.set_coupling(a2, d2, rho=2.0)
    s_cold = cold.solve_llp()

    assert warm.last_trades == pytest.approx(cold.last_trades, abs=1e-6)
    assert s_warm.grid_draw == pytest.approx(s_cold.grid_draw, abs=1e-6)
    assert warm.last_objective == pytest.approx(cold.last_objective, abs=1e-7)


def test_llp_warm_resolve_builds_one_polish_candidate(monkeypatch):
    """In steady state a round's small change in the consensus values
    keeps the last accepted active set: the warm re-solve builds one
    polish candidate on it, gates it once from its own refinement's
    residual, without a call to check_kkt, and runs no splitting
    iteration."""
    scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                        / "reference_10user.yaml")
    user = scn.users[0]
    agent = LocalAgent(user, scn.tariff, scn.grid, partner_ids=tuple(
        u.id for u in scn.users if u.id != user.id))
    rng = np.random.default_rng(0)
    shape = agent.received_aux.shape
    aux = rng.normal(size=shape) * 0.5
    duals = rng.normal(size=shape) * 0.05
    agent.set_coupling(aux, duals, 1.0)
    agent.solve_llp()

    factors, gates, kkts, solutions = [], [], [], []
    polish_factor = qp.Workspace._polish_factor
    polish_candidate = qp.Workspace._polish_candidate
    check_kkt = qp.check_kkt
    solve = qp.Workspace.solve

    def counted_factor(ws, mask):
        factors.append(mask)
        return polish_factor(ws, mask)

    def counted_candidate(ws, mask):
        # each candidate carries one gate evaluation, its kkt_residual
        gates.append(polish_candidate(ws, mask))
        return gates[-1]

    def counted_kkt(prob, sol):
        kkts.append(sol)
        return check_kkt(prob, sol)

    def recorded_solve(ws, **kwargs):
        solutions.append(solve(ws, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(qp.Workspace, "_polish_factor", counted_factor)
    monkeypatch.setattr(qp.Workspace, "_polish_candidate", counted_candidate)
    monkeypatch.setattr(qp, "check_kkt", counted_kkt)
    monkeypatch.setattr(qp.Workspace, "solve", recorded_solve)
    for _ in range(6):
        aux = aux + 1e-3 * rng.normal(size=shape)
        duals = duals + 1e-4 * rng.normal(size=shape)
        agent.set_coupling(aux, duals, 1.0)
        factors.clear()
        gates.clear()
        kkts.clear()
        agent.solve_llp()
        assert len(factors) == 1 and len(gates) == 1 and not kkts
        assert gates[0] is solutions[-1]
        assert solutions[-1].iterations == 0  # no splitting iteration
        assert solutions[-1].kkt_residual <= 1e-8  # qp's default tol
        assert check_kkt(agent._ws.problem, solutions[-1]) <= 1e-8


def test_llp_rho_change_rebuilds_cleanly():
    params = make_params(inflexible_load=np.full(3, 1.5))
    tariff = make_tariff()
    agent = LocalAgent(params, tariff, partner_ids=(2,))
    agent.set_coupling(np.zeros((1, 3)), np.zeros((1, 3)), rho=1.0)
    agent.solve_llp()
    agent.set_coupling(np.zeros((1, 3)), np.zeros((1, 3)), rho=4.0)
    agent.solve_llp()
    fresh = LocalAgent(params, tariff, partner_ids=(2,))
    fresh.set_coupling(np.zeros((1, 3)), np.zeros((1, 3)), rho=4.0)
    fresh.solve_llp()
    assert agent.last_trades == pytest.approx(fresh.last_trades, abs=1e-8)


# --- coupling state ------------------------------------------------------

def test_agent_rejects_self_and_duplicate_partners():
    params = make_params(id=3)
    with pytest.raises(ValueError, match="itself"):
        LocalAgent(params, make_tariff(), partner_ids=(3, 4))
    with pytest.raises(ValueError, match="duplicate"):
        LocalAgent(params, make_tariff(), partner_ids=(4, 4))


@pytest.mark.parametrize("rho", [0.0, -1.0, float("nan"), float("inf")])
def test_agent_rejects_a_nonpositive_penalty(rho):
    with pytest.raises(ValueError, match="rho must be positive"):
        LocalAgent(make_params(), make_tariff(), partner_ids=(2,), rho=rho)


def test_agent_solves_at_its_construction_penalty():
    params = make_params(inflexible_load=np.full(3, 1.5))
    tariff = Tariff(0.25, 0.0, np.full(3, 0.1))
    agent = LocalAgent(params, tariff, partner_ids=(2,), rho=10.0)
    agent.solve_llp()
    assert agent.last_trades == pytest.approx(np.full((1, 3), 0.015), abs=1e-6)


def test_set_coupling_validates_shape_and_rho():
    agent = LocalAgent(make_params(), make_tariff(), partner_ids=(2, 5))
    with pytest.raises(ValueError, match="shape"):
        agent.set_coupling(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="rho"):
        agent.set_coupling(np.zeros((2, 3)), np.zeros((2, 3)), rho=0.0)


def test_receive_orders_rows_by_partner_id():
    agent = LocalAgent(make_params(), make_tariff(), partner_ids=(5, 2))
    assert agent.partner_ids == (2, 5)
    broadcast = CoordinatorBroadcast(
        iteration=1,
        aux_row={2: np.full(3, 0.25), 5: np.full(3, -0.5)},
        dual_row={2: np.zeros(3), 5: np.full(3, 0.1)},
        rho=0.5, done=False)
    agent.receive(broadcast)
    assert np.all(agent.received_aux[0] == 0.25)
    assert np.all(agent.received_aux[1] == -0.5)
    assert np.all(agent.received_duals[1] == 0.1)
    assert agent.rho == 0.5


def test_receive_missing_counterparty_raises():
    agent = LocalAgent(make_params(), make_tariff(), partner_ids=(2, 5))
    broadcast = CoordinatorBroadcast(
        iteration=1, aux_row={2: np.zeros(3)}, dual_row={2: np.zeros(3)},
        rho=1.0, done=False)
    with pytest.raises(ProtocolViolation, match="counterparty 5"):
        agent.receive(broadcast)


def test_receive_rejects_a_counterparty_it_does_not_have():
    agent = LocalAgent(make_params(), make_tariff(), partner_ids=(2,))
    broadcast = CoordinatorBroadcast(
        iteration=1, aux_row={2: np.zeros(3), 7: np.zeros(3)},
        dual_row={2: np.zeros(3), 7: np.zeros(3)}, rho=1.0, done=False)
    with pytest.raises(ProtocolViolation, match="counterparty 7"):
        agent.receive(broadcast)


def test_receive_without_partners_accepts_an_empty_broadcast():
    agent = LocalAgent(make_params(), make_tariff())
    agent.receive(CoordinatorBroadcast(1, {}, {}, rho=0.5, done=False))
    assert agent.received_aux.shape == (0, 3)
    assert agent.rho == 0.5


# --- outbound messages ---------------------------------------------------

def test_outbound_requires_a_solved_round():
    agent = LocalAgent(make_params(), make_tariff(), partner_ids=(2,))
    with pytest.raises(ProtocolViolation, match="no schedule"):
        agent.outbound_message()


def test_outbound_carries_exactly_three_fields():
    import dataclasses

    agent = LocalAgent(make_params(inflexible_load=np.full(3, 1.0)),
                       make_tariff(), partner_ids=(2, 5))
    agent.iteration = 3
    agent.solve_llp()
    message = agent.outbound_message()
    assert {f.name for f in dataclasses.fields(message)} == {
        "user_id", "iteration", "trades"}
    assert message.user_id == 1
    assert message.iteration == 3
    assert set(message.trades) == {2, 5}
    # rows are copies, not views into the agent's last trades
    message.trades[2][0] += 99.0
    assert agent.last_trades[0, 0] != message.trades[2][0]


def test_build_user_qp_checks_trade_price_length():
    params = make_params()
    bad = Tariff(0.25, 0.5, np.full(5, 0.1))
    with pytest.raises(ValueError, match="trade_price"):
        build_user_qp(params, bad, TimeGrid(3), partner_ids=(2,))


def _homes(source):
    """(params, tariff, grid, partner ids) of each home of a fleet."""
    if source == "edge":
        # heats, no comfort term, a zero reference and no peak charge; C*R
        # = 1 puts -0.0 in the thermal rows, and the trade price is -0.0
        params = make_params(horizon=4, thermal_capacitance=2.0,
                             thermal_resistance=0.5, hvac_efficiency=-2.5,
                             comfort_weight=0.0, temp_ref=0.0, temp_min=-3.0,
                             temp_max=3.0, outdoor_temp=np.full(4, -6.0))
        tariff = make_tariff(4, peak=0.0, trade=-0.0)
        return [(params, tariff, TimeGrid(4), (2, 3))]
    if source.startswith("synth"):
        n, h, seed = (int(v) for v in source.split("_")[1:])
        scn = build_synth_scenario(n, h, seed=seed)
    else:
        scn = load_scenario(Path(__file__).resolve().parent.parent
                            / "scenarios" / f"{source}.yaml")
    ids = [u.id for u in scn.users]
    return [(u, scn.tariff, scn.grid, tuple(j for j in ids if j != u.id))
            for u in scn.users]


@pytest.mark.parametrize("source", [
    "two_user_complementary", "csv_reference", "reference_10user",
    "synth_16_12_1", "synth_5_96_3", "edge"])
def test_user_qp_matches_the_builder_reference_bit_for_bit(source):
    """The directly written arrays equal the entry-by-entry assembly of
    the reference, -0.0 included, and the offset is summed slot by slot
    as the reference sums it."""
    for params, tariff, grid, partners in _homes(source):
        for ids, rho in (((), 0.0), (partners, 1.0), (partners, 6.0)):
            got, index = build_user_qp(params, tariff, grid, ids, rho=rho)
            want, want_index = reference_user_qp(params, tariff, grid, ids,
                                                 rho=rho)
            for name in ("quadratic_term", "linear_term", "eq_matrix",
                         "eq_rhs", "ineq_matrix", "ineq_rhs", "lower",
                         "upper"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), name
                assert a.tobytes() == b.tobytes(), (params.id, rho, name)
            assert repr(got.offset) == repr(want.offset), (params.id, rho)
            assert index.keys() == want_index.keys()
            for key, b in want_index.items():
                a = index[key]
                if isinstance(b, np.ndarray):
                    assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), key
                else:
                    assert type(a) is type(b) and a == b, key


@pytest.mark.parametrize("name", ["two_user_complementary", "csv_reference",
                                  "reference_10user"])
def test_standalone_schedules_lie_within_their_bounds_exactly(name):
    """An active bound is returned exactly: a solver iterate a rounding
    error outside it (a grid draw of -1e-25, say) is put back on it."""
    scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                        / f"{name}.yaml")
    for user in scn.users:
        problem, _ = build_user_qp(user, scn.tariff, scn.grid)
        x = qp.solve(problem).primal
        assert np.all((problem.lower <= x) & (x <= problem.upper))
