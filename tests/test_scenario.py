import dataclasses
from pathlib import Path

import numpy as np
import pytest
import yaml

from hvactrade import scenario
from hvactrade.agent import solve_emp
from hvactrade.errors import ScenarioError
from hvactrade.model import TimeGrid, UserParams
from hvactrade.protocol import MAX_FRAME
from hvactrade.scenario import (
    MAX_HORIZON,
    build_synth_scenario,
    load_scenario,
    save_scenario,
    synth_traces,
)

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """\
grid: {{horizon: 2}}
tariff: {{energy_price: 0.2}}
users:
  - id: 1
    thermal_capacitance: 3.3
    thermal_resistance: 1.35
    hvac_efficiency: 2.5
    comfort_weight: 0.1
    temp_ref: 22
    temp_min: {tmin}
    temp_max: {tmax}
    grid_cap: 5
    renewable_avail: 0
    inflexible_load: [0.5, 1.0]
    outdoor_temp: 22
"""


def write(tmp_path, text, name="case.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


# --- bundled fixtures ----------------------------------------------------

@pytest.mark.parametrize("fname", [
    "two_user_complementary.yaml",
    "reference_10user.yaml",
    "csv_reference.yaml",
])
def test_bundled_fixtures_are_clean(fname):
    load_scenario(FIXTURES / fname)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML built without libyaml")
@pytest.mark.parametrize("fname", [
    "two_user_complementary.yaml",
    "reference_10user.yaml",
    "csv_reference.yaml",
])
def test_fixtures_load_alike_under_both_yaml_loaders(fname, tmp_path,
                                                     monkeypatch):
    text = (FIXTURES / fname).read_text()
    assert (yaml.load(text, Loader=yaml.SafeLoader)
            == yaml.load(text, Loader=yaml.CSafeLoader))
    assert scenario._YamlLoader is yaml.CSafeLoader
    fast = save_scenario(load_scenario(FIXTURES / fname), tmp_path / "c.yaml")
    monkeypatch.setattr(scenario, "_YamlLoader", yaml.SafeLoader)
    slow = save_scenario(load_scenario(FIXTURES / fname), tmp_path / "py.yaml")
    assert fast.read_bytes() == slow.read_bytes()


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_parse_error_position_does_not_depend_on_the_loader(
        loader, tmp_path, monkeypatch):
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(scenario, "_YamlLoader", getattr(yaml, loader))
    path = write(tmp_path, "grid: {horizon: 2}\nusers: [\n")
    with pytest.raises(ScenarioError, match="parse error at line 3, column 1"):
        load_scenario(path)


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_repeated_key_names_the_key_and_its_line(loader, tmp_path,
                                                 monkeypatch):
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(scenario, "_YamlLoader", getattr(yaml, loader))
    text = (FIXTURES / "two_user_complementary.yaml").read_text()
    line = text.splitlines().index("  max_iter: 1000") + 2
    path = write(tmp_path, text.replace("max_iter: 1000",
                                        "max_iter: 1000\n  max_iter: 5"))
    with pytest.raises(ScenarioError,
                       match=f"line {line}, column 3: .*repeated key "
                             f"'max_iter'"):
        load_scenario(path)


def test_merge_key_values_may_be_overridden(tmp_path):
    """A key given beside a `<<` merge overrides the merged value; it is
    not a repeat."""
    path = write(tmp_path, MINIMAL.format(tmin=20, tmax=24).replace(
        "tariff: {energy_price: 0.2}",
        "tariff: {<<: {energy_price: 0.2, peak_price: 0.3}, peak_price: 0.4}"))
    assert load_scenario(path).tariff.peak_price == 0.4


def test_reference_fixture_shape():
    config = load_scenario(FIXTURES / "reference_10user.yaml")
    assert len(config.users) == 10
    assert config.grid.horizon_len == 24
    assert [u.id for u in config.users] == list(range(1, 11))


def test_csv_traces_resolve_by_column():
    config = load_scenario(FIXTURES / "csv_reference.yaml")
    u1 = config.users[0]
    assert np.array_equal(u1.renewable_avail, [0.0, 1.8, 3.2, 0.6])
    assert np.array_equal(u1.inflexible_load, [0.9, 1.1, 1.4, 1.2])
    assert np.array_equal(u1.outdoor_temp, [27.5, 30.0, 33.0, 29.5])


# --- parsing and defaults --------------------------------------------------

def test_minimal_scenario_fills_defaults(tmp_path):
    path = write(tmp_path, MINIMAL.format(tmin=20, tmax=24))
    config = load_scenario(path)
    assert config.name == "case"
    assert np.array_equal(config.users[0].renewable_avail, [0.0, 0.0])
    assert np.array_equal(config.users[0].outdoor_temp, [22.0, 22.0])
    # trade price defaults to half the energy price
    assert np.array_equal(config.tariff.trade_price, [0.1, 0.1])
    assert config.tariff.peak_price == 0.0
    assert config.admm.max_iter == 2000
    assert config.users[0].hvac_cap == 10.0
    assert config.users[0].temp_initial == 22.0


def test_missing_file_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "absent.yaml")


def test_parse_error_names_location(tmp_path):
    path = write(tmp_path, "users: [\n")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(path)


def test_non_mapping_top_level_rejected(tmp_path):
    path = write(tmp_path, "- 1\n- 2\n")
    with pytest.raises(ScenarioError, match="mapping"):
        load_scenario(path)


def test_unknown_top_level_key_rejected(tmp_path):
    path = write(tmp_path, MINIMAL.format(tmin=20, tmax=24) + "extra: 1\n")
    with pytest.raises(ScenarioError, match="extra"):
        load_scenario(path)


def test_inverted_band_names_the_user(tmp_path):
    path = write(tmp_path, MINIMAL.format(tmin=25, tmax=20))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert len(exc.value.findings) == 1
    assert "users[0]" in exc.value.findings[0]


def test_bad_users_reported_independently(tmp_path):
    base = MINIMAL.format(tmin=25, tmax=20)
    second = """\
  - id: 2
    thermal_capacitance: 3.0
    thermal_resistance: 1.25
    hvac_efficiency: 2.2
    comfort_weight: 0.1
    temp_ref: 22
    temp_min: 20
    temp_max: 24
    renewable_avail: 0
    inflexible_load: [1.0, 1.0]
    outdoor_temp: 25
"""
    path = write(tmp_path, base + second)  # user 2 lacks grid_cap
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert len(exc.value.findings) == 2
    assert "users[0]" in exc.value.findings[0]
    assert "users[1]" in exc.value.findings[1]
    assert "grid_cap" in exc.value.findings[1]


def test_trace_file_not_found_names_path(tmp_path):
    doc = MINIMAL.format(tmin=20, tmax=24).replace(
        "renewable_avail: 0",
        "renewable_avail: {file: nowhere.csv, column: solar}")
    with pytest.raises(ScenarioError, match="nowhere.csv"):
        load_scenario(write(tmp_path, doc))


def test_trace_row_count_mismatch(tmp_path):
    (tmp_path / "short.csv").write_text("slot,solar\n0,1.5\n")
    doc = MINIMAL.format(tmin=20, tmax=24).replace(
        "renewable_avail: 0",
        "renewable_avail: {file: short.csv, column: solar}")
    with pytest.raises(ScenarioError, match="1 rows, expected 2"):
        load_scenario(write(tmp_path, doc))


def test_trace_unknown_column(tmp_path):
    (tmp_path / "t.csv").write_text("slot,solar\n0,1.0\n1,2.0\n")
    doc = MINIMAL.format(tmin=20, tmax=24).replace(
        "renewable_avail: 0",
        "renewable_avail: {file: t.csv, column: wind}")
    with pytest.raises(ScenarioError, match="no column 'wind'"):
        load_scenario(write(tmp_path, doc))


def test_trace_non_numeric_cell(tmp_path):
    (tmp_path / "t.csv").write_text("slot,solar\n0,1.0\n1,oops\n")
    doc = MINIMAL.format(tmin=20, tmax=24).replace(
        "renewable_avail: 0",
        "renewable_avail: {file: t.csv, column: solar}")
    with pytest.raises(ScenarioError, match="not a number"):
        load_scenario(write(tmp_path, doc))


def test_seed_override_redraws_synthetic_traces(tmp_path):
    doc = MINIMAL.format(tmin=20, tmax=24).replace(
        "outdoor_temp: 22", "outdoor_temp: {synth: weather}")
    path = write(tmp_path, doc)
    base = load_scenario(path)
    same = load_scenario(path, seed=0)
    other = load_scenario(path, seed=99)
    assert np.array_equal(base.users[0].outdoor_temp,
                          same.users[0].outdoor_temp)
    assert other.seed == 99
    assert not np.array_equal(base.users[0].outdoor_temp,
                              other.users[0].outdoor_temp)


# --- synthetic traces -------------------------------------------------------

def test_synth_traces_deterministic_per_user():
    grid = TimeGrid(24)
    a = synth_traces(7, grid, "solar", user_id=3)
    b = synth_traces(7, grid, "solar", user_id=3)
    c = synth_traces(7, grid, "solar", user_id=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_solar_is_zero_outside_daylight():
    trace = synth_traces(5, TimeGrid(24), "solar", user_id=1)
    night = np.r_[0:6, 18:24]
    assert np.all(trace[night] == 0.0)
    assert trace.max() > 0.5
    assert np.all(trace >= 0.0)


def test_weather_sinusoid_peaks_mid_afternoon():
    trace = synth_traces(0, TimeGrid(24), "weather", sigma=0.0)
    hours = np.arange(24.0)
    expected = 30.0 + 5.0 * np.sin(2.0 * np.pi * (hours - 9.0) / 24.0)
    assert trace == pytest.approx(expected, abs=1e-12)
    assert int(np.argmax(trace)) == 15


def test_load_mean_tracks_base():
    means = [synth_traces(s, TimeGrid(24), "load", base=1.0).mean()
             for s in range(60)]
    assert 0.95 <= float(np.mean(means)) <= 1.05
    assert all(m >= 0.0 for m in means)


def test_wind_respects_clip_range():
    trace = synth_traces(2, TimeGrid(48), "wind", user_id=9, scale=2.0)
    assert np.all(trace >= 0.0) and np.all(trace <= 2.0)


def test_synth_rejects_unknown_profile_and_knobs():
    with pytest.raises(ScenarioError, match="profile"):
        synth_traces(0, TimeGrid(4), "tidal")
    with pytest.raises(ScenarioError, match="frequency"):
        synth_traces(0, TimeGrid(4), "wind", frequency=2.0)


# --- generated scenarios -----------------------------------------------------

def test_build_synth_scenario_mixes_renewables():
    config = build_synth_scenario(10, 24, seed=0)
    assert [u.id for u in config.users] == list(range(1, 11))
    by_id = {u.id: u for u in config.users}
    for uid in (1, 3, 5, 7, 9):
        assert by_id[uid].renewable_avail.max() > 0.0
    for uid in (4, 8):
        assert by_id[uid].renewable_avail.max() > 0.0
    for uid in (2, 6, 10):
        assert np.all(by_id[uid].renewable_avail == 0.0)


def test_build_synth_scenario_is_deterministic():
    a = build_synth_scenario(4, 24, seed=3)
    b = build_synth_scenario(4, 24, seed=3)
    for ua, ub in zip(a.users, b.users):
        assert np.array_equal(ua.renewable_avail, ub.renewable_avail)
        assert np.array_equal(ua.inflexible_load, ub.inflexible_load)
        assert np.array_equal(ua.outdoor_temp, ub.outdoor_temp)
        assert ua.comfort_weight == ub.comfort_weight


def test_build_synth_scenario_users_are_schedulable():
    """The caps are sized so every user can hold its start temperature,
    so the standalone problem must always be solvable."""
    config = build_synth_scenario(6, 24, seed=0)
    for user in config.users:
        schedule, cost = solve_emp(user, config.tariff, config.grid)
        assert np.isfinite(cost)
        assert np.all(schedule.indoor_temp <= user.temp_max + 1e-6)
        assert np.all(schedule.indoor_temp >= user.temp_min - 1e-6)


def test_build_synth_scenario_validates_sizes():
    with pytest.raises(ScenarioError, match="n_users"):
        build_synth_scenario(0, 24)
    with pytest.raises(ScenarioError, match="horizon"):
        build_synth_scenario(2, 0)
    with pytest.raises(ScenarioError, match="slot_hours"):
        build_synth_scenario(2, 4, slot_hours=float("nan"))
    with pytest.raises(ScenarioError, match="seed must be a non-negative"):
        build_synth_scenario(2, 4, seed=-1)


def test_horizon_cap_is_the_most_slots_one_broadcast_row_holds():
    """A broadcast body of one row of MAX_HORIZON slots fits MAX_FRAME
    and one more slot would not; a horizon past the cap is refused."""
    body = 1 + 21 + 4 + 16 * MAX_HORIZON  # tag, head, id, two runs
    assert body <= MAX_FRAME < body + 16
    with pytest.raises(ScenarioError, match="grid: horizon of 4194303 slots"):
        build_synth_scenario(1, MAX_HORIZON + 1)


# --- persistence -------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    config = build_synth_scenario(3, 4, seed=9, name="trip")
    first = save_scenario(config, tmp_path / "a.yaml")
    loaded = load_scenario(first)
    assert loaded.name == "trip"
    assert loaded.seed == 9
    assert loaded.admm == config.admm
    assert loaded.tariff.energy_price == config.tariff.energy_price
    assert np.array_equal(loaded.tariff.trade_price,
                          config.tariff.trade_price)
    assert len(loaded.users) == len(config.users)
    for orig, back in zip(config.users, loaded.users):
        for f in dataclasses.fields(UserParams):
            assert np.array_equal(getattr(orig, f.name),
                                  getattr(back, f.name)), f.name


def test_save_writes_the_three_loop_settings(tmp_path):
    config = build_synth_scenario(2, 3, seed=4)
    path = save_scenario(config, tmp_path / "a.yaml")
    doc = yaml.safe_load(path.read_text())
    assert set(doc["admm"]) == {"rho0", "tolerance", "max_iter"}
    assert load_scenario(path).admm == config.admm


def test_second_save_is_byte_identical(tmp_path):
    config = build_synth_scenario(2, 6, seed=1)
    a = save_scenario(config, tmp_path / "a.yaml")
    b = save_scenario(load_scenario(a), tmp_path / "b.yaml")
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("make", [
    lambda: load_scenario(FIXTURES / "two_user_complementary.yaml"),
    lambda: load_scenario(FIXTURES / "reference_10user.yaml"),
    lambda: load_scenario(FIXTURES / "csv_reference.yaml"),
    lambda: build_synth_scenario(16, 12, seed=1),
] + [
    lambda name=name: dataclasses.replace(
        load_scenario(FIXTURES / "two_user_complementary.yaml"), name=name)
    for name in ("h\u00e9t\u00e9rog\u00e8ne \u2603", "two\nlines", "yes", "")
], ids=["two_user", "ref10", "csv_ref", "synth16x12", "name-unicode",
        "name-newline", "name-yes", "name-empty"])
def test_save_writes_the_bytes_of_the_pure_python_emitter(make, tmp_path):
    """Whichever emitter saves it, a scenario's file holds exactly what
    `yaml.safe_dump` writes for the document it holds."""
    text = save_scenario(make(), tmp_path / "a.yaml").read_text()
    assert text == yaml.safe_dump(yaml.safe_load(text), sort_keys=True,
                                  default_flow_style=None)


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                    reason="PyYAML built without libyaml")
def test_save_emits_through_libyaml(tmp_path, monkeypatch):
    assert scenario._YamlDumper is yaml.CSafeDumper
    config = build_synth_scenario(16, 12, seed=1)
    fast = save_scenario(config, tmp_path / "c.yaml")
    monkeypatch.setattr(scenario, "_YamlDumper", yaml.SafeDumper)
    slow = save_scenario(config, tmp_path / "py.yaml")
    assert fast.read_bytes() == slow.read_bytes()


def test_save_to_a_missing_directory_raises_oserror(tmp_path):
    config = build_synth_scenario(2, 4, seed=1)
    with pytest.raises(FileNotFoundError):
        save_scenario(config, tmp_path / "missing" / "y.yaml")
    assert list(tmp_path.iterdir()) == []


def test_duplicate_user_ids_rejected(tmp_path):
    doc = MINIMAL.format(tmin=20, tmax=24)
    dup = doc + doc[doc.index("  - id: 1"):]
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenario(write(tmp_path, dup))
