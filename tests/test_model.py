import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hvactrade.model import (
    Schedule,
    Tariff,
    TimeGrid,
    UserParams,
    discomfort_cost,
    grid_cost,
    operating_cost,
    trading_payment,
)

from oracles import thermal_step, trajectory, verify_schedule


def make_params(horizon=3, **over):
    base = dict(
        id=1,
        thermal_capacitance=3.3,
        thermal_resistance=1.35,
        hvac_efficiency=2.5,
        comfort_weight=0.1,
        temp_ref=22.0,
        temp_min=19.0,
        temp_max=26.0,
        grid_cap=5.0,
        renewable_avail=np.zeros(horizon),
        inflexible_load=np.zeros(horizon),
        outdoor_temp=np.full(horizon, 30.0),
    )
    base.update(over)
    return UserParams(**base)


def make_tariff(horizon=3, energy=0.1, peak=5.0, trade=0.05):
    return Tariff(energy, peak, np.full(horizon, trade))


# --- time grid ---------------------------------------------------------

def test_time_grid_rejects_bad_values():
    with pytest.raises(ValueError):
        TimeGrid(0)
    with pytest.raises(ValueError):
        TimeGrid(4, slot_hours=0.0)


def test_time_grid_hours_wrap():
    grid = TimeGrid(30, slot_hours=1.0)
    hours = grid.hours()
    assert hours[0] == 0.0 and hours[23] == 23.0 and hours[24] == 0.0


# --- params validation --------------------------------------------------

def test_params_reject_inverted_band():
    with pytest.raises(ValueError, match="user 1.*temp_min"):
        make_params(temp_min=27.0, temp_max=25.0, temp_ref=26.0)


def test_params_reject_initial_temp_outside_band():
    with pytest.raises(ValueError, match="user 1: temp_initial 27.0"):
        make_params(temp_initial=27.0)
    with pytest.raises(ValueError, match="temp_initial 18.5"):
        make_params(temp_initial=18.5)


def test_params_reject_trace_length_mismatch():
    with pytest.raises(ValueError, match="inflexible_load"):
        make_params(inflexible_load=np.zeros(5))


def test_params_reject_negative_renewable():
    with pytest.raises(ValueError, match="renewable_avail"):
        make_params(renewable_avail=np.array([0.0, -1.0, 0.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["hvac_efficiency", "comfort_weight",
                                   "temp_ref", "temp_initial"])
def test_params_reject_non_finite_scalars(field, value):
    """These fields enter the QP's terms and right-hand sides; an open
    comfort band does not let an infinite temperature through."""
    with pytest.raises(ValueError, match=f"user 1: {field} must be finite"):
        make_params(temp_max=np.inf, **{field: value})


def test_params_keep_infinite_caps_and_band():
    p = make_params(grid_cap=np.inf, hvac_cap=np.inf, temp_min=-np.inf,
                    temp_max=np.inf)
    assert p.grid_cap == p.hvac_cap == p.temp_max == np.inf


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["energy_price", "peak_price"])
def test_tariff_rejects_non_finite_prices(field, value):
    prices = {"energy_price": 0.1, "peak_price": 5.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Tariff(trade_price=np.full(3, 0.05), **prices)


def test_params_initial_temp_defaults_to_ref():
    p = make_params()
    assert p.temp_initial == p.temp_ref
    p2 = make_params(temp_initial=24.0)
    assert p2.temp_initial == 24.0


# --- thermal dynamics ---------------------------------------------------

def test_thermal_step_equilibrium():
    p = make_params()
    # no HVAC and indoor == outdoor: nothing moves
    assert thermal_step(30.0, 30.0, 0.0, p) == pytest.approx(30.0, abs=1e-12)


def test_thermal_step_known_value():
    p = make_params()
    got = thermal_step(25.0, 30.0, 1.0, p)
    want = 25.0 - (25.0 - 30.0 + 2.5 * 1.35 * 1.0) / (3.3 * 1.35)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(25.364758, abs=1e-6)


def test_thermal_step_heating_sign():
    p = make_params(hvac_efficiency=-2.5)
    cold = thermal_step(20.0, 20.0, 0.0, p)
    heated = thermal_step(20.0, 20.0, 2.0, p)
    assert heated > cold


def test_thermal_step_cooling_sign():
    p = make_params()
    idle = thermal_step(25.0, 25.0, 0.0, p)
    cooled = thermal_step(25.0, 25.0, 2.0, p)
    assert cooled < idle


@settings(max_examples=60, deadline=None)
@given(
    t1=st.floats(-10, 50), t2=st.floats(-10, 50),
    o1=st.floats(-10, 50), o2=st.floats(-10, 50),
    p1=st.floats(0, 10), p2=st.floats(0, 10),
    lam=st.floats(0, 1),
)
def test_thermal_step_is_affine(t1, t2, o1, o2, p1, p2, lam):
    p = make_params()
    blended = thermal_step(
        lam * t1 + (1 - lam) * t2,
        lam * o1 + (1 - lam) * o2,
        lam * p1 + (1 - lam) * p2, p)
    parts = lam * thermal_step(t1, o1, p1, p) + (1 - lam) * thermal_step(t2, o2, p2, p)
    assert blended == pytest.approx(parts, abs=1e-9)


def test_trajectory_constant_when_idle():
    p = make_params(outdoor_temp=np.full(3, 22.0), temp_initial=22.0)
    temps = trajectory(np.zeros(3), p)
    assert np.allclose(temps, 22.0, atol=1e-12)


def test_trajectory_single_slot_matches_step():
    p = make_params(horizon=1, outdoor_temp=np.array([31.0]))
    temps = trajectory(np.array([1.5]), p)
    assert temps.shape == (1,)
    assert temps[0] == pytest.approx(thermal_step(p.temp_initial, 31.0, 1.5, p), abs=1e-12)


def test_trajectory_matches_slotwise_recursion():
    # independent slot-by-slot recomputation of the recursion
    rng = np.random.default_rng(7)
    p = make_params(horizon=6, outdoor_temp=rng.uniform(20, 35, 6))
    plan = rng.uniform(0, 4, 6)
    temps = trajectory(plan, p)
    temp = p.temp_initial
    cr = p.thermal_capacitance * p.thermal_resistance
    for t in range(6):
        temp = temp - (temp - p.outdoor_temp[t]
                       + p.hvac_efficiency * p.thermal_resistance * plan[t]) / cr
        assert temps[t] == pytest.approx(temp, abs=1e-12)


def test_trajectory_rejects_length_mismatch():
    p = make_params()
    with pytest.raises(ValueError, match="hvac_power"):
        trajectory(np.zeros(4), p)


# --- cost terms ---------------------------------------------------------

def test_grid_cost_known_value():
    t = Tariff(0.1, 5.0, np.zeros(3))
    assert grid_cost(np.array([1.0, 2.0, 3.0]), t, slot_hours=1.0) == pytest.approx(15.6, abs=1e-12)


def test_grid_cost_zero_draw():
    t = make_tariff()
    assert grid_cost(np.zeros(3), t) == 0.0


def test_grid_cost_scales_with_slot_hours():
    t = Tariff(0.1, 0.0, np.zeros(3))
    half = grid_cost(np.array([1.0, 2.0, 3.0]), t, slot_hours=0.5)
    assert half == pytest.approx(0.3, abs=1e-12)


def test_grid_cost_rejects_negative():
    t = make_tariff()
    with pytest.raises(ValueError, match="nonnegative"):
        grid_cost(np.array([1.0, -0.1, 0.0]), t)


@settings(max_examples=60, deadline=None)
@given(
    draws=st.lists(st.floats(0, 20), min_size=4, max_size=4),
    other=st.lists(st.floats(0, 20), min_size=4, max_size=4),
)
def test_grid_cost_midpoint_convexity(draws, other):
    t = Tariff(0.13, 4.0, np.zeros(4))
    a, b = np.array(draws), np.array(other)
    mid = grid_cost((a + b) / 2, t)
    assert mid <= (grid_cost(a, t) + grid_cost(b, t)) / 2 + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    draws=st.lists(st.floats(0, 20), min_size=3, max_size=3),
    scale=st.floats(0, 7),
)
def test_grid_cost_positive_homogeneity(draws, scale):
    t = Tariff(0.13, 4.0, np.zeros(3))
    a = np.array(draws)
    assert grid_cost(scale * a, t) == pytest.approx(scale * grid_cost(a, t), rel=1e-9, abs=1e-9)


def test_discomfort_known_value():
    p = make_params(horizon=2, comfort_weight=2.0,
                    renewable_avail=np.zeros(2), inflexible_load=np.zeros(2),
                    outdoor_temp=np.full(2, 30.0))
    assert discomfort_cost(np.array([21.0, 23.0]), p) == pytest.approx(4.0, abs=1e-12)


def test_discomfort_zero_at_reference():
    p = make_params()
    assert discomfort_cost(np.full(3, p.temp_ref), p) == 0.0


def test_discomfort_zero_weight():
    p = make_params(comfort_weight=0.0)
    assert discomfort_cost(np.array([10.0, 40.0, 22.0]), p) == 0.0


@settings(max_examples=60, deadline=None)
@given(temps=st.lists(st.floats(-20, 60), min_size=3, max_size=3))
def test_discomfort_nonnegative(temps):
    p = make_params()
    assert discomfort_cost(np.array(temps), p) >= 0.0


def test_operating_cost_is_sum_of_parts():
    p = make_params()
    t = make_tariff()
    sched = Schedule(
        renewable_use=np.zeros(3),
        grid_draw=np.array([1.0, 2.0, 3.0]),
        hvac_power=np.zeros(3),
        indoor_temp=np.array([21.0, 23.0, 22.0]),
    )
    want = grid_cost(sched.grid_draw, t) + discomfort_cost(sched.indoor_temp, p)
    assert operating_cost(sched, p, t) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("name, value, message", [
    ("grid_draw", np.array([1.0, np.nan, 3.0]),
     "grid_draw contains non-finite entries"),
    ("indoor_temp", np.full((3, 1), 22.0),
     r"indoor_temp must be one-dimensional, got shape \(3, 1\)"),
])
def test_operating_cost_refuses_a_malformed_plan(name, value, message):
    """A Schedule is a plain record; the traces it prices are checked
    where they are priced."""
    traces = dict(renewable_use=np.zeros(3), grid_draw=np.ones(3),
                  hvac_power=np.zeros(3), indoor_temp=np.full(3, 22.0))
    traces[name] = value
    with pytest.raises(ValueError, match=message):
        operating_cost(Schedule(**traces), make_params(), make_tariff())


def test_trading_payment_known_value():
    t = Tariff(0.1, 5.0, np.array([1.0, 2.0]))
    trades = np.array([[3.0, -1.0]])
    assert trading_payment(trades, t) == pytest.approx(1.0, abs=1e-12)


def test_trading_payment_no_partners():
    t = make_tariff()
    assert trading_payment(np.zeros((0, 3)), t) == 0.0


def test_trading_payment_zero_price():
    t = Tariff(0.1, 5.0, np.zeros(3))
    assert trading_payment(np.array([[4.0, -2.0, 1.0]]), t) == 0.0


def test_trading_payment_rejects_bad_width():
    t = make_tariff(horizon=3)
    with pytest.raises(ValueError, match="columns"):
        trading_payment(np.zeros((2, 4)), t)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10_000))
def test_payments_conserve_under_antisymmetry(n, h, seed):
    # pairwise-balanced trades: everyone's payments sum to zero
    rng = np.random.default_rng(seed)
    tensor = rng.normal(size=(n, n, h))
    tensor = tensor - tensor.transpose(1, 0, 2)
    for i in range(n):
        tensor[i, i, :] = 0.0
    tariff = Tariff(0.1, 5.0, rng.uniform(0, 1, h))
    total = 0.0
    for i in range(n):
        rows = np.delete(tensor[i], i, axis=0)
        total += trading_payment(rows, tariff)
    assert total == pytest.approx(0.0, abs=1e-9)


# --- schedule checks ----------------------------------------------------

def test_verify_schedule_flags_band_violation():
    p = make_params()
    sched = Schedule(
        renewable_use=np.zeros(3),
        grid_draw=np.zeros(3),
        hvac_power=np.zeros(3),
        indoor_temp=trajectory(np.zeros(3), p),
    )
    # outdoor 30 with no HVAC drifts above temp_max=26 within 3 slots
    findings = verify_schedule(sched, p)
    assert any("temp_max" in f for f in findings)


def test_verify_schedule_clean():
    p = make_params(outdoor_temp=np.full(3, 22.0), temp_initial=22.0)
    sched = Schedule(
        renewable_use=np.zeros(3),
        grid_draw=np.zeros(3),
        hvac_power=np.zeros(3),
        indoor_temp=trajectory(np.zeros(3), p),
    )
    assert verify_schedule(sched, p) == []

