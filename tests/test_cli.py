import json
from pathlib import Path

import pytest

from hvactrade import blas, coordinator
from hvactrade.agent import LocalAgent, solve_emp
from hvactrade.cli import _build_parser, main
from hvactrade.scenario import load_scenario

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"
TWO_USER = str(FIXTURES / "two_user_complementary.yaml")

INFEASIBLE = """\
grid: {horizon: 3}
tariff: {energy_price: 0.2}
users:
  - id: 1
    thermal_capacitance: 3.3
    thermal_resistance: 1.35
    hvac_efficiency: 2.5
    comfort_weight: 0.1
    temp_ref: 22
    temp_min: 20
    temp_max: 24
    grid_cap: 8
    hvac_cap: 0.05
    renewable_avail: 0
    inflexible_load: 0.5
    outdoor_temp: 45
"""


# --- run ------------------------------------------------------------------

def test_run_writes_report_and_prints_summary(tmp_path, capsys):
    code = main(["run", TWO_USER, "--out", str(tmp_path / "out")])
    assert code == 0
    for name in ("report.json", "convergence.csv", "schedules.csv",
                 "trades.csv", "costs.csv"):
        assert (tmp_path / "out" / name).exists()
    out = capsys.readouterr().out
    assert "converged in" in out
    assert "% reduction" in out


def test_run_iteration_cap_exits_10_with_partial_trace(tmp_path, capsys):
    code = main(["run", TWO_USER, "--out", str(tmp_path), "--max-iter", "1"])
    assert code == 10
    assert "convergence" in capsys.readouterr().err
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "iteration,error,rho"
    assert len(lines) == 2
    assert not (tmp_path / "report.json").exists()


def test_run_at_a_high_penalty_agrees_within_the_cap(tmp_path):
    """At --rho0 10 the two-home fixture agrees well inside its
    max_iter of 1000 (1183 rounds without acceleration)."""
    assert main(["run", TWO_USER, "--out", str(tmp_path), "--rho0", "10"]) == 0


def test_run_transports_write_identical_reports(tmp_path):
    assert main(["run", TWO_USER, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", TWO_USER, "--out", str(tmp_path / "b"),
                 "--transport", "socket"]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


def test_run_seed_override_reaches_socket_agents(tmp_path):
    ref = str(FIXTURES / "reference_10user.yaml")
    for transport in ("inproc", "socket"):
        assert main(["run", ref, "--seed", "7", "--transport", transport,
                     "--out", str(tmp_path / transport)]) == 0
    assert (tmp_path / "inproc" / "report.json").read_bytes() == \
        (tmp_path / "socket" / "report.json").read_bytes()


def test_run_overrides_reach_the_loop(tmp_path):
    code = main(["run", TWO_USER, "--out", str(tmp_path),
                 "--tolerance", "1e-4", "--rho0", "2.0"])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["admm"]["tolerance"] == 1e-4
    assert doc["admm"]["rho0"] == 2.0
    assert doc["final_error"] <= 1e-4


def test_run_honors_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HVACTRADE_OUT", str(tmp_path / "envout"))
    assert main(["run", TWO_USER]) == 0
    assert (tmp_path / "envout" / "report.json").exists()


def test_run_infeasible_scenario_exits_11(tmp_path, capsys):
    bad = tmp_path / "hotbox.yaml"
    bad.write_text(INFEASIBLE)
    code = main(["run", str(bad), "--out", str(tmp_path / "out")])
    assert code == 11
    assert "infeasible" in capsys.readouterr().err


def test_run_invalid_scenario_exits_13(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text(INFEASIBLE.replace("temp_min: 20", "temp_min: 30"))
    code = main(["run", str(bad), "--out", str(tmp_path)])
    assert code == 13
    assert "scenario:" in capsys.readouterr().err


def test_run_blocked_output_exits_12(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("in the way")
    code = main(["run", TWO_USER, "--out", str(blocker / "out")])
    assert code == 12
    assert "report" in capsys.readouterr().err


def test_run_crashed_agent_exits_70_without_traceback(tmp_path, capsys,
                                                     monkeypatch):
    path = tmp_path / "fragile.yaml"
    path.write_text(Path(TWO_USER).read_text())
    solve_llp = LocalAgent.solve_llp

    def faulty(agent, *args, **kwargs):
        if agent.user_id == 2 and agent.iteration == 3:
            raise ValueError("injected fault")
        return solve_llp(agent, *args, **kwargs)

    monkeypatch.setattr(LocalAgent, "solve_llp", faulty)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 70
    err = capsys.readouterr().err
    assert "agent for user 2 failed: injected fault" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_run_non_finite_proposal_exits_70_naming_its_sender(
        tmp_path, capsys, monkeypatch, transport):
    """User 2 proposes a NaN trade in round 3: intake refuses it and names
    user 2, before the NaN reaches user 1's solve through a broadcast."""
    outbound = LocalAgent.outbound_message

    def poisoned(agent):
        msg = outbound(agent)
        if agent.user_id == 2 and agent.iteration == 3:
            msg.trades.block[0, 1] = float("nan")
        return msg

    monkeypatch.setattr(LocalAgent, "outbound_message", poisoned)
    code = main(["run", TWO_USER, "--out", str(tmp_path / "out"),
                 "--transport", transport])
    assert code == 70
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "protocol failure: user 2: proposal holds a non-finite trade (nan) "
        "with counterparty 1 in slot 1"]
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_unexpected_exception_exits_70_with_one_line(tmp_path, capsys,
                                                        monkeypatch):
    def broken(args):
        raise RuntimeError("unforeseen")

    monkeypatch.setattr("hvactrade.cli.cmd_run", broken)
    code = main(["run", TWO_USER, "--out", str(tmp_path / "out")])
    assert code == 70
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: RuntimeError: unforeseen"]


# --- baseline ----------------------------------------------------------------

def test_baseline_writes_costs_matching_direct_solves(tmp_path):
    code = main(["baseline", TWO_USER, "--out", str(tmp_path)])
    assert code == 0
    scenario = load_scenario(TWO_USER)
    rows = (tmp_path / "costs.csv").read_text().splitlines()[1:]
    assert rows[-1].startswith("system,")
    for user, row in zip(scenario.users, rows[:-1]):
        uid, cost = row.split(",")
        assert int(uid) == user.id
        _, direct = solve_emp(user, scenario.tariff, scenario.grid)
        assert float(cost) == direct
    sched = (tmp_path / "schedules.csv").read_text().splitlines()
    assert sched[0] == "user,slot,p_RE,p_G,p_AC,T_IN"
    assert len(sched) == 1 + 2 * scenario.grid.horizon_len



def test_run_and_baseline_solve_each_home_through_one_pass(tmp_path,
                                                          monkeypatch):
    """`run` and `hvactrade baseline` take each home's standalone solve
    from the coordinator's one baseline pass, once per home, each on one
    BLAS thread (a fake thread-count pair stands in for OpenBLAS's)."""
    threads = [4]
    monkeypatch.setattr(blas, "numpy_openblas", lambda: (
        lambda: threads[0], lambda count: threads.__setitem__(0, count)))
    seen = []
    solve = coordinator.solve_emp

    def counting(*args, **kwargs):
        seen.append(threads[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(coordinator, "solve_emp", counting)
    coordinator.run(load_scenario(TWO_USER))
    assert seen == [1, 1]
    assert main(["baseline", TWO_USER, "--out", str(tmp_path)]) == 0
    assert seen == [1, 1, 1, 1]
    assert threads == [4]

# --- compare -------------------------------------------------------------------

def test_compare_prints_reduction_table(tmp_path, capsys):
    code = main(["compare", TWO_USER, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "cooperative" in out
    assert "system" in out
    rows = (tmp_path / "costs.csv").read_text().splitlines()[1:]
    system = rows[-1].split(",")
    assert float(system[2]) <= float(system[1]) + 1e-6
    # complementary households must actually gain from trading
    assert float(system[3]) > 0.5


def test_compare_single_user_reduction_is_zero(tmp_path):
    # one user has nobody to trade with: the plans coincide up to the
    # difference between the solver objective and the re-priced schedule
    synth = tmp_path / "solo.yaml"
    assert main(["synth", str(synth), "--users", "1", "--horizon", "4"]) == 0
    assert main(["compare", str(synth), "--out", str(tmp_path)]) == 0
    system = (tmp_path / "costs.csv").read_text().splitlines()[-1].split(",")
    assert float(system[3]) == pytest.approx(0.0, abs=1e-9)


# --- synth and validate ----------------------------------------------------------

def test_synth_is_deterministic_and_validates(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.yaml", "b.yaml", "c.yaml"))
    assert main(["synth", str(a), "--users", "3", "--horizon", "6"]) == 0
    assert main(["synth", str(b), "--users", "3", "--horizon", "6"]) == 0
    assert main(["synth", str(c), "--users", "3", "--horizon", "6",
                 "--seed", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert main(["validate", str(a)]) == 0
    assert "ok (3 users, 6 slots)" in capsys.readouterr().out


def test_synth_into_a_missing_directory_exits_12(tmp_path, capsys):
    out = tmp_path / "missing" / "y.yaml"
    assert main(["synth", str(out), "--users", "2", "--horizon", "4"]) == 12
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and str(out) in err
    assert list(tmp_path.iterdir()) == []


def test_validate_broken_file_exits_13(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text(INFEASIBLE.replace("temp_min: 20", "temp_min: 30"))
    assert main(["validate", str(bad)]) == 13
    err = capsys.readouterr().err
    assert "1 problem(s)" in err


def test_validate_initial_temp_outside_band_exits_13(tmp_path, capsys):
    bad = tmp_path / "hot_start.yaml"
    bad.write_text(INFEASIBLE + "    temp_initial: 25\n")
    assert main(["validate", str(bad)]) == 13
    err = capsys.readouterr().err
    assert "user 1: temp_initial 25.0 must lie inside [20.0, 24.0]" in err
    assert "1 problem(s)" in err


@pytest.mark.parametrize("line", [
    "rho_mode: fixed", "norm: l1", "solver_tol: 1.0e-8",
    "barrier_timeout: 60.0"],
    ids=["rho_mode", "norm", "solver_tol", "barrier_timeout"])
def test_validate_removed_admm_key_exits_13(tmp_path, capsys, line):
    """Files written for the loop settings that were removed name the
    key and must drop it."""
    bad = tmp_path / "old.yaml"
    bad.write_text(Path(TWO_USER).read_text().replace(
        "rho0: 1.0", f"rho0: 1.0\n  {line}"))
    assert main(["validate", str(bad)]) == 13
    key = line.split(":")[0]
    assert f"admm: unknown fields ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("value", [".inf", ".nan", "2.5"])
@pytest.mark.parametrize("field", ["max_iter", "horizon"])
def test_validate_non_integer_count_exits_13(tmp_path, capsys, field, value):
    line = {"max_iter": "max_iter: 1000", "horizon": "horizon: 6"}[field]
    text = Path(TWO_USER).read_text()
    assert line in text
    bad = tmp_path / "count.yaml"
    bad.write_text(text.replace(line, f"{field}: {value}"))
    assert main(["validate", str(bad)]) == 13
    err = capsys.readouterr().err
    assert f"field '{field}' must be an integer" in err


def test_validate_non_finite_loop_setting_exits_13(tmp_path, capsys):
    bad = tmp_path / "nan_rho.yaml"
    bad.write_text(Path(TWO_USER).read_text().replace(
        "rho0: 1.0", "rho0: .nan"))
    assert main(["validate", str(bad)]) == 13
    assert "rho0 must be finite and positive" in capsys.readouterr().err


def test_validate_non_finite_peak_price_exits_13(tmp_path, capsys):
    bad = tmp_path / "nan_peak.yaml"
    bad.write_text(Path(TWO_USER).read_text().replace(
        "peak_price: 0.6", "peak_price: .nan"))
    assert main(["validate", str(bad)]) == 13
    assert "tariff: peak_price must be finite, got nan" in capsys.readouterr().err


def test_validate_repeated_key_exits_13(tmp_path, capsys):
    bad = tmp_path / "twice.yaml"
    bad.write_text(Path(TWO_USER).read_text().replace(
        "max_iter: 1000", "max_iter: 1000\n  max_iter: 5"))
    assert main(["validate", str(bad)]) == 13
    assert "repeated key 'max_iter'" in capsys.readouterr().err


def test_validate_missing_file_exits_13(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "gone.yaml")]) == 13
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    (b"27.5", b"27.5\xb0", "is not UTF-8 text"),
    (b"27.5", b"2" * 131073, ":2: field larger than field limit"),
], ids=["not-utf8", "field-over-limit"])
def test_validate_unreadable_trace_csv_exits_13(tmp_path, capsys, old, new,
                                               message):
    """A trace CSV in another encoding, or with a field longer than the
    csv module reads, is refused naming the file, not left to end the
    command as an internal error."""
    (tmp_path / "traces").mkdir()
    raw = (FIXTURES / "traces" / "suburb_day.csv").read_bytes()
    assert old in raw
    csv_path = tmp_path / "traces" / "suburb_day.csv"
    csv_path.write_bytes(raw.replace(old, new, 1))
    scn = tmp_path / "csv_reference.yaml"
    scn.write_text((FIXTURES / "csv_reference.yaml").read_text())
    assert main(["validate", str(scn)]) == 13
    err = capsys.readouterr().err
    assert str(csv_path) in err and message in err


def test_validate_trace_csv_error_names_its_file_line_after_a_blank_line(
        tmp_path, capsys):
    """The csv module skips a blank line, so the message names the bad
    row by the file line it was read from, not by its count of rows."""
    (tmp_path / "traces").mkdir()
    lines = (FIXTURES / "traces" / "suburb_day.csv").read_text().splitlines()
    lines.insert(2, "")  # after the first data row
    assert lines[4] == "2,3.2,1.4,33.0"
    lines[4] = "2,3.2,1.4,abc"  # file line 5
    csv_path = tmp_path / "traces" / "suburb_day.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    scn = tmp_path / "csv_reference.yaml"
    scn.write_text((FIXTURES / "csv_reference.yaml").read_text())
    assert main(["validate", str(scn)]) == 13
    err = capsys.readouterr().err
    assert f"{csv_path}:5: 'abc' in column 'temp' is not a number" in err


COMPLEMENTARY = (FIXTURES / "two_user_complementary.yaml").read_text()
USER_2_TRACES = """\
    renewable_avail: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    inflexible_load: [1.1, 1.3, 1.5, 1.4, 1.2, 1.0]
    outdoor_temp: [31.0, 32.0, 33.0, 33.5, 32.5, 31.0]
"""
USER_2_SHORT_TRACES = """\
    renewable_avail: [0.0, 0.0, 0.0, 0.0, 0.0]
    inflexible_load: [1.1, 1.3, 1.5, 1.4, 1.2]
    outdoor_temp: [31.0, 32.0, 33.0, 33.5, 32.5]
"""
USER_1_SOLAR = "[3.5, 4.2, 4.8, 4.6, 3.8, 2.5]"


# (text replaced once, its replacement, a line of the findings)
@pytest.mark.parametrize("old, new, message", [
    ("users:\n", "users:\n  - 7\n", "user entry must be a mapping"),
    ("- id: 1", "- idx: 1", "user entry missing field 'id'"),
    ("- id: 2", "- id: -2", "must be a nonnegative integer"),
    ("    hvac_cap: 10.0\n", "    hvac_cap: 10.0\n    fan_speed: 3\n",
     "unknown fields ['fan_speed']"),
    ("    outdoor_temp: [31.0, 32.0, 33.0, 33.5, 32.5, 31.0]\n  - id: 2",
     "  - id: 2", "missing field 'outdoor_temp'"),
    ("grid_cap: 4.0", "grid_cap: five", "field 'grid_cap' must be a number"),
    (USER_2_TRACES, USER_2_SHORT_TRACES, "traces cover 5 slots, grid has 6"),
    ("grid:\n  horizon: 6\n  slot_hours: 1.0\n", "",
     "missing or malformed 'grid' block"),
    ("slot_hours: 1.0", "slot_hours: -1.0",
     "slot_hours must be positive and finite"),
    ("tariff:\n  energy_price: 0.25\n  peak_price: 0.6\n  trade_price: 0.125\n",
     "tariff: 0.25\n", "missing or malformed 'tariff' block"),
    ("  trade_price: 0.125\n", "  trade_price: 0.125\n  feed_in: 0.05\n",
     "unknown fields ['feed_in']"),
    ("trade_price: 0.125", "trade_price: [0.1, 0.1]",
     "trade_price covers 2 slots, grid has 6"),
    ("admm:\n  rho0: 1.0\n  tolerance: 1.0e-6\n  max_iter: 1000\n",
     "admm: [1]\n", "'admm' block must be a mapping"),
    (COMPLEMENTARY[COMPLEMENTARY.index("users:\n"):], "users: []\n",
     "'users' must be a nonempty list"),
    (USER_1_SOLAR, "{file: t.csv}", "file reference needs a column"),
    (USER_1_SOLAR, "{file: t.csv, column: a, sheet: 1}",
     "unknown keys ['sheet']"),
    ("name:", "? [a, b]\n: 1\nname:", "parse error"),
], ids=["user-not-mapping", "no-id", "negative-id", "unknown-user-field",
        "missing-trace", "non-numeric-field", "short-traces", "no-grid",
        "negative-slot-hours", "tariff-not-mapping", "unknown-tariff-field",
        "short-trade-price", "admm-not-mapping", "no-users",
        "file-without-column", "unknown-file-key", "unhashable-key"])
def test_validate_malformed_scenario_names_the_field_and_exits_13(
        tmp_path, capsys, old, new, message):
    assert old in COMPLEMENTARY
    bad = tmp_path / "bad.yaml"
    bad.write_text(COMPLEMENTARY.replace(old, new, 1))
    assert main(["validate", str(bad)]) == 13
    assert message in capsys.readouterr().err


def test_validate_negative_seed_in_the_file_exits_13(tmp_path, capsys):
    bad = tmp_path / "seed.yaml"
    bad.write_text("seed: -1\n" + INFEASIBLE)
    assert main(["validate", str(bad)]) == 13
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer, got -1" in err
    assert "1 problem(s)" in err


# --- argument handling ------------------------------------------------------------

def test_missing_scenario_argument_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_choice_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", TWO_USER, "--transport", "pipe"])
    assert exc.value.code == 2


def test_run_accepts_exactly_the_coordinators_transports():
    parser = _build_parser()
    for name in coordinator.TRANSPORTS:
        args = parser.parse_args(["run", TWO_USER, "--transport", name])
        assert args.transport == name
    transport = next(action for action in args.parser._actions
                     if action.dest == "transport")
    assert sorted(transport.choices) == sorted(coordinator.TRANSPORTS)


@pytest.mark.parametrize("flag, value", [("--port", "5000"),
                                         ("--host", "127.0.0.1")])
def test_removed_endpoint_flag_is_a_usage_error(flag, value):
    """Socket agents reach the coordinator over pairs made at the fork,
    so there is no endpoint to pick."""
    with pytest.raises(SystemExit) as exc:
        main(["run", TWO_USER, flag, value])
    assert exc.value.code == 2


def test_run_help_lists_three_loop_overrides(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--tolerance", "--max-iter", "--rho0"):
        assert flag in out
    assert "--rho-mode" not in out and "--norm" not in out
    assert "--host" not in out and "--port" not in out


@pytest.mark.parametrize("argv", [
    ["validate", str(FIXTURES / "reference_10user.yaml"), "--seed", "-1"],
    ["run", TWO_USER, "--out", "out", "--seed", "-1"],
    ["synth", "y.yaml", "--users", "2", "--horizon", "4", "--seed", "-3"],
    ["synth", "y.yaml", "--users", "0", "--horizon", "4"],
    ["synth", "y.yaml", "--users", "2", "--horizon", "0"],
    ["synth", "y.yaml", "--users", "2", "--horizon", "4", "--slot-hours", "0"],
    ["synth", "y.yaml", "--users", "2", "--horizon", "4", "--slot-hours", "nan"],
    ["synth", "y.yaml", "--users", "2", "--horizon", "4", "--slot-hours", "inf"],
], ids=["validate-seed", "run-seed", "synth-seed", "synth-users",
        "synth-horizon", "synth-slot-0", "synth-slot-nan", "synth-slot-inf"])
def test_value_the_library_refuses_is_a_usage_error(tmp_path, capsys,
                                                     monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"hvactrade {argv[0]}: error:" in err and "internal error" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override", [
    ["--rho0", "-1"],
    ["--rho0", "nan"],
    ["--tolerance", "0"],
    ["--max-iter", "0"],
])
def test_bad_loop_override_is_a_usage_error(tmp_path, capsys, override):
    with pytest.raises(SystemExit) as exc:
        main(["run", TWO_USER, "--out", str(tmp_path / "out")] + override)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "hvactrade run: error:" in err and "internal error" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]", "renewable_avail: true",
     "user 1: renewable_avail: expected a number, a list"),
    ("trade_price: 0.125", "trade_price: [true, false, true, false, true, false]",
     "tariff: trade_price: inline trace must be numeric"),
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]",
     "renewable_avail: {synth: solar, scale: true}",
     "user 1: renewable_avail: synth knob 'scale' must be a number, got True"),
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]",
     "renewable_avail: {synth: solar, scale: big}",
     "user 1: renewable_avail: synth knob 'scale' must be a number, got 'big'"),
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]",
     'renewable_avail: ["3.5", "4.2", "4.8", "4.6", "3.8", "2.5"]',
     "user 1: renewable_avail: inline trace must be numeric"),
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]",
     "renewable_avail: {synth: tidal}",
     "user 1: renewable_avail: unknown synth profile 'tidal'"),
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]",
     "renewable_avail: {synth: wind, frequency: 2}",
     "user 1: renewable_avail: synth profile 'wind' does not take "
     "['frequency']"),
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]",
     "renewable_avail: {synth: wind, 3: 2}",
     "user 1: renewable_avail: synth profile 'wind' does not take ['3']"),
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]",
     "renewable_avail: {synth: [solar]}",
     "user 1: renewable_avail: unknown synth profile ['solar']"),
], ids=["bool-trace", "bool-list", "bool-knob", "string-knob", "string-list",
        "synth-profile", "synth-knob", "synth-number-knob", "synth-list"])
def test_validate_non_numeric_trace_value_exits_13(tmp_path, capsys, old, new,
                                                   message):
    """A boolean or a string where a trace or a synth knob takes a number
    is refused naming the field, never read as 1 or 0, nor left to end
    the command as an internal error; so is a synth spec that names no
    profile or knob the generator has."""
    text = Path(TWO_USER).read_text()
    assert old in text
    bad = tmp_path / "bad_trace.yaml"
    bad.write_text(text.replace(old, new, 1))
    assert main(["validate", str(bad)]) == 13
    assert message in capsys.readouterr().err


_HUGE = "1" + "0" * 400  # an int YAML reads whole, too large for a float


@pytest.mark.parametrize("old, new, message", [
    ("grid_cap: 4.0", f"grid_cap: {_HUGE}",
     "user 1: field 'grid_cap' is too large for a float"),
    ("max_iter: 1000", f"max_iter: {_HUGE}",
     "admm: field 'max_iter' is too large for a float"),
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]",
     f"renewable_avail: [3.5, {_HUGE}, 4.8, 4.6, 3.8, 2.5]",
     "user 1: renewable_avail: inline trace value is too large for a float"),
    ("trade_price: 0.125", f"trade_price: {_HUGE}",
     "tariff: trade_price is too large for a float"),
    ("renewable_avail: [3.5, 4.2, 4.8, 4.6, 3.8, 2.5]",
     f"renewable_avail: {{synth: solar, scale: {_HUGE}}}",
     "user 1: renewable_avail: synth knob 'scale' is too large for a float"),
], ids=["scalar-field", "admm-field", "inline-trace", "scalar-trace",
        "synth-knob"])
def test_validate_number_too_large_for_a_float_exits_13(tmp_path, capsys, old,
                                                        new, message):
    """YAML reads a long run of digits as an int of any size; one that no
    float can hold is refused naming the field, not left to end the
    command as an internal error."""
    text = Path(TWO_USER).read_text()
    assert old in text
    bad = tmp_path / "huge.yaml"
    bad.write_text(text.replace(old, new, 1))
    assert main(["validate", str(bad)]) == 13
    assert message in capsys.readouterr().err


def test_validate_horizon_past_one_broadcast_frame_exits_13(tmp_path, capsys):
    """A horizon longer than a broadcast frame can carry is refused
    before any trace is built, not left to end the command as an
    internal error when terabytes fail to allocate."""
    text = Path(TWO_USER).read_text()
    assert "horizon: 6" in text
    bad = tmp_path / "long.yaml"
    bad.write_text(text.replace("horizon: 6", "horizon: 1.0e+12", 1))
    assert main(["validate", str(bad)]) == 13
    assert "grid: horizon of 1000000000000 slots exceeds 4194302" in \
        capsys.readouterr().err


def test_synth_horizon_past_one_broadcast_frame_is_a_usage_error(tmp_path,
                                                                 capsys):
    out = tmp_path / "big.yaml"
    with pytest.raises(SystemExit) as exc:
        main(["synth", str(out), "--users", "2", "--horizon",
              "1000000000000"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "hvactrade synth: error: grid: horizon of 1000000000000" in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    ("grid_cap: 4.0", "grid_cap: 1" + "0" * 5000, "Exceeds the limit"),
    ("name: two_user_complementary", "name: 2020-13-45", "month must be in"),
], ids=["int-past-digit-limit", "bad-date"])
def test_validate_scalar_yaml_cannot_construct_exits_13(tmp_path, capsys, old,
                                                        new, message):
    """A scalar the YAML loader itself fails to build is a parse error,
    not an internal one."""
    text = Path(TWO_USER).read_text()
    assert old in text
    bad = tmp_path / "unbuildable.yaml"
    bad.write_text(text.replace(old, new, 1))
    assert main(["validate", str(bad)]) == 13
    err = capsys.readouterr().err
    assert "parse error" in err and message in err
