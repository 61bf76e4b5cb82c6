"""Release acceptance suite: one test per criterion.

Each test checks one end-to-end property of the finished system at its
stated tolerance and prints a PASS line with the measured numbers.
Run with `pytest tests/test_acceptance.py -v` for the per-criterion
verdicts.
"""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hvactrade import qp
from hvactrade.agent import LocalAgent
from hvactrade.coordinator import (
    CoordinatorState,
    convergence_error,
    dual_update,
    hlp_update,
    proposal_tensor,
    run,
)
from hvactrade.model import Tariff, TimeGrid, UserParams
from hvactrade.protocol import CoordinatorBroadcast, TradeProposal, decode
from hvactrade.reports import write_report
from hvactrade.scenario import (
    ScenarioConfig,
    build_synth_scenario,
    load_scenario,
    save_scenario,
)

from oracles import active_set_oracle, random_psd_qp, solve_cemp

FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"

# frozen sweep: both small and large fleets, short and day-long horizons
SYNTH_SPECS = [(2, 4, 0), (3, 24, 0), (5, 24, 0), (10, 4, 0), (10, 24, 0)]


@pytest.fixture(scope="module")
def equivalence_runs():
    """Negotiated and centralized solutions for the frozen sweep, with
    the wall-clock total for the whole batch."""
    cases = []
    start = time.monotonic()
    for n, h, seed in SYNTH_SPECS:
        scenario = build_synth_scenario(n, h, seed=seed,
                                        name=f"synth_{n}x{h}")
        report = run(scenario)
        objective, _, _ = solve_cemp(scenario.users, scenario.tariff,
                                     scenario.grid)
        cases.append((scenario, report, objective))
    return cases, time.monotonic() - start


@pytest.fixture(scope="module")
def bundled_runs():
    out = []
    for name in ("two_user_complementary.yaml", "csv_reference.yaml",
                 "reference_10user.yaml"):
        scenario = load_scenario(FIXTURES / name)
        out.append((scenario, run(scenario)))
    return out


@pytest.fixture(scope="module")
def all_runs(equivalence_runs, bundled_runs):
    cases, _ = equivalence_runs
    return [(s, r) for s, r, _ in cases] + list(bundled_runs)


def test_criterion_1_negotiated_matches_centralized(equivalence_runs):
    cases, elapsed = equivalence_runs
    assert len(cases) >= 5
    sizes = {(len(s.users), s.grid.horizon_len) for s, _, _ in cases}
    assert {n for n, _ in sizes} == {2, 3, 5, 10}
    assert {h for _, h in sizes} == {4, 24}
    worst = 0.0
    for scenario, report, objective in cases:
        assert scenario.admm.rho0 == 1.0
        assert scenario.admm.tolerance == 1e-6
        assert report.converged, scenario.name
        gap = abs(report.system_cost - objective) / abs(objective)
        assert gap <= 1e-3, scenario.name
        worst = max(worst, gap)
    assert elapsed <= 60.0
    print(f"criterion 1 PASS: {len(cases)} scenarios, worst relative gap "
          f"{worst:.2e}, batch time {elapsed:.1f}s")


def test_criterion_2_qp_solver_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    worst_gap = worst_kkt = 0.0
    for trial in range(100):
        problem = random_psd_qp(rng)
        assert problem.quadratic_term.shape[0] <= 10
        solution = qp.solve(problem)
        assert solution.status is qp.QpStatus.OPTIMAL, f"trial {trial}"
        _, want = active_set_oracle(problem)
        gap = abs(solution.objective - want)
        assert gap <= 1e-6, f"trial {trial}"
        residual = qp.check_kkt(problem, solution)
        assert residual <= 1e-8, f"trial {trial}"
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, residual)
    print(f"criterion 2 PASS: 100 QPs, worst objective gap {worst_gap:.2e}, "
          f"worst KKT residual {worst_kkt:.2e}")


def test_criterion_3_update_rules_exact_and_antisymmetric():
    # hand case: one side proposes 1, the other 0, no dual gap
    state = CoordinatorState.initial((1, 2), horizon=1)
    props = [TradeProposal(1, 1, {2: np.array([1.0])}),
             TradeProposal(2, 1, {1: np.array([0.0])})]
    aux = hlp_update(proposal_tensor(props, state), state)
    assert aux[0, 1, 0] == 0.5 and aux[1, 0, 0] == -0.5
    # hand case: residual of 0.5 at unit weight moves the dual by 0.5
    state = CoordinatorState.initial((1, 2), horizon=1)
    state.aux_trades[0, 1, 0] = 0.5
    state.aux_trades[1, 0, 0] = -0.5
    zeros = [TradeProposal(1, 1, {2: np.array([0.0])}),
             TradeProposal(2, 1, {1: np.array([0.0])})]
    duals = dual_update(state, proposal_tensor(zeros, state))
    assert duals[0, 1, 0] == 0.5 and duals[1, 0, 0] == -0.5

    # consensus stays antisymmetric through a full ten-user negotiation
    scenario = load_scenario(FIXTURES / "reference_10user.yaml")
    cfg = scenario.admm
    ids = [u.id for u in scenario.users]
    agents = [LocalAgent(u, scenario.tariff, scenario.grid,
                         partner_ids=[j for j in ids if j != u.id])
              for u in scenario.users]
    state = CoordinatorState.initial(ids, scenario.grid.horizon_len)
    index = state.index
    worst = 0.0
    converged = False
    for k in range(1, cfg.max_iter + 1):
        rho_k = cfg.rho0
        proposals = []
        for agent in agents:
            i = index[agent.user_id]
            rows = [index[j] for j in agent.partner_ids]
            agent.iteration = k
            agent.set_coupling(state.aux_trades[i, rows],
                               state.duals[i, rows], rho=rho_k)
            agent.solve_llp()
            proposals.append(agent.outbound_message())
        state.rho = rho_k
        p = proposal_tensor(proposals, state)
        aux = hlp_update(p, state)
        asym = float(np.max(np.abs(aux + aux.swapaxes(0, 1))))
        assert asym <= 1e-12, f"round {k}"
        worst = max(worst, asym)
        dual_update(state, p)
        if convergence_error(state, p) <= cfg.tolerance:
            converged = True
            break
    assert converged
    print(f"criterion 3 PASS: hand cases exact; worst antisymmetry gap "
          f"{worst:.1e} over {k} rounds of 10 users")


def test_criterion_4_termination_feasibility(all_runs):
    worst_balance = worst_match = 0.0
    for scenario, report in all_runs:
        params = {u.id: u for u in scenario.users}
        by_id = {r.user_id: r for r in report.users}
        for r in report.users:
            u = params[r.user_id]
            s = r.schedule
            net = r.trades.sum(axis=0) if r.trades.size else 0.0
            balance = np.abs(s.renewable_use + s.grid_draw + net
                             - u.inflexible_load - s.hvac_power)
            assert balance.max() <= 1e-5, (scenario.name, r.user_id)
            worst_balance = max(worst_balance, float(balance.max()))
            for row, j in enumerate(r.partner_ids):
                other = by_id[j]
                back = other.trades[other.partner_ids.index(r.user_id)]
                gap = float(np.max(np.abs(r.trades[row] + back)))
                assert gap <= 1e-5, (scenario.name, r.user_id, j)
                worst_match = max(worst_match, gap)
            # hard constraints of the subproblem: band and box bounds
            assert np.all(s.indoor_temp >= u.temp_min - 1e-8)
            assert np.all(s.indoor_temp <= u.temp_max + 1e-8)
            assert np.all(s.renewable_use >= -1e-8)
            assert np.all(s.renewable_use <= u.renewable_avail + 1e-8)
            assert np.all(s.grid_draw >= -1e-8)
            assert np.all(s.grid_draw <= u.grid_cap + 1e-8)
            assert np.all(s.hvac_power >= -1e-8)
            assert np.all(s.hvac_power <= u.hvac_cap + 1e-8)
    print(f"criterion 4 PASS: {len(all_runs)} scenarios, worst balance "
          f"residual {worst_balance:.2e}, worst matched-trade gap "
          f"{worst_match:.2e}")


def test_criterion_5_cooperation_never_hurts(all_runs):
    for scenario, report in all_runs:
        assert report.system_cost <= report.system_baseline + 1e-6, \
            scenario.name
    fixture = next(r for s, r in all_runs
                   if s.name == "two_user_complementary")
    assert fixture.system_reduction_pct > 0.0
    print(f"criterion 5 PASS: cooperative cost never above baseline on "
          f"{len(all_runs)} scenarios; bundled fixture gains "
          f"{fixture.system_reduction_pct:.2f}%")


def test_criterion_6_ten_user_convergence_shape(bundled_runs):
    report = next(r for s, r in bundled_runs
                  if s.name == "reference_10user")
    assert report.converged
    assert report.iterations <= 200
    errors = [e for _, e, _ in report.history]
    tail = errors[len(errors) // 2:]
    drops = [tail[i + 1] <= tail[i] for i in range(len(tail) - 1)]
    assert all(drops), "error trace rose during its final half"
    print(f"criterion 6 PASS: 10-user run converged in {report.iterations} "
          f"iterations, final-half error non-increasing")


def test_criterion_7_payments_conserve(all_runs):
    worst = 0.0
    for scenario, report in all_runs:
        assert abs(report.payment_total) <= 1e-9, scenario.name
        assert sum(r.payment for r in report.users) == pytest.approx(
            report.payment_total, abs=1e-12)
        worst = max(worst, abs(report.payment_total))
    print(f"criterion 7 PASS: |sum of payments| <= {worst:.2e} "
          f"across {len(all_runs)} scenarios")


SENTINEL_USERS = [
    dict(id=1, thermal_capacitance=3.217958412, thermal_resistance=1.414213562,
         hvac_efficiency=2.718281828, comfort_weight=0.161803398,
         temp_ref=21.777216049, temp_min=19.333333331, temp_max=24.666666669,
         grid_cap=7.071067811, hvac_cap=6.283185307, temp_initial=21.112233445,
         renewable_avail=[1.234567891, 0.987654321, 2.345678912, 0.0],
         inflexible_load=[0.891011121, 1.213141516, 1.718192021, 1.222324252],
         outdoor_temp=[27.313233343, 29.535363738, 31.394041424, 28.434445464]),
    dict(id=2, thermal_capacitance=3.141592653, thermal_resistance=1.259921049,
         hvac_efficiency=2.236067977, comfort_weight=0.123456789,
         temp_ref=21.565656565, temp_min=19.818181818, temp_max=24.242424242,
         grid_cap=6.626070153, hvac_cap=5.436563657, temp_initial=20.998877665,
         renewable_avail=[0.0, 0.0, 0.0, 0.0],
         inflexible_load=[1.303132333, 1.424344454, 1.626364656, 1.519202122],
         outdoor_temp=[27.696969697, 29.878787878, 31.161616161, 28.545454545]),
]


def test_criterion_8_private_parameters_stay_off_the_wire(tmp_path):
    users = [UserParams(**{k: (np.asarray(v, dtype=float)
                              if isinstance(v, list) else v)
                           for k, v in block.items()})
             for block in SENTINEL_USERS]
    scenario = ScenarioConfig(
        name="sentinel", grid=TimeGrid(4),
        tariff=Tariff(0.25, 0.6, np.full(4, 0.125)),
        users=users,
        admm=dataclasses.replace(load_scenario(
            FIXTURES / "csv_reference.yaml").admm, max_iter=1000))
    path = save_scenario(scenario, tmp_path / "sentinel.yaml")
    report = run(load_scenario(path), transport="socket")
    assert report.converged
    frames = report.wire_frames
    assert frames, "socket run must capture traffic"

    sentinels = []
    for block in SENTINEL_USERS:
        for key, value in block.items():
            if key == "id":
                continue
            vals = value if isinstance(value, list) else [value]
            sentinels.extend(v for v in vals if v != 0.0)
    assert len(set(sentinels)) == len(sentinels), "sentinels must be unique"
    blob = b"".join(frames)
    for value in sentinels:
        assert struct.pack("<d", value) not in blob
        assert repr(value).encode() not in blob

    # every frame parses into one of the two message shapes, no more
    ids = {u.id for u in users}
    proposals = broadcasts = 0
    for frame in frames:
        message = decode(frame)
        if isinstance(message, TradeProposal):
            proposals += 1
            assert set(message.trades) == ids - {message.user_id}
        else:
            assert isinstance(message, CoordinatorBroadcast)
            broadcasts += 1
            assert set(message.aux_row) == set(message.dual_row)
            assert set(message.aux_row) < ids
    assert proposals and broadcasts
    assert {f.name for f in dataclasses.fields(TradeProposal)} == {
        "user_id", "iteration", "trades"}
    assert {f.name for f in dataclasses.fields(CoordinatorBroadcast)} == {
        "iteration", "aux_row", "dual_row", "rho", "done"}
    print(f"criterion 8 PASS: {len(sentinels)} sentinels absent from "
          f"{len(frames)} captured frames ({proposals} proposals, "
          f"{broadcasts} broadcasts); schemas exact")


def test_criterion_9_reports_are_byte_identical(tmp_path):
    scenario = load_scenario(FIXTURES / "two_user_complementary.yaml")
    blobs = []
    for label, transport in (("a", "inproc"), ("b", "inproc"),
                             ("c", "socket"), ("d", "socket")):
        report = run(scenario, transport=transport)
        write_report(report, tmp_path / label)
        blobs.append((tmp_path / label / "report.json").read_bytes())
    assert all(b == blobs[0] for b in blobs[1:])
    doc = json.loads(blobs[0])
    assert doc["converged"] is True
    print(f"criterion 9 PASS: report.json byte-identical over "
          f"2 repeats x 2 transports ({len(blobs[0])} bytes)")


def test_criterion_9_holds_on_the_ten_home_fixture(tmp_path):
    """The ten-home factorizations are large enough (a few hundred rows)
    for a multi-threaded BLAS to round them differently from a
    single-threaded one, so agents in spawned processes and agents in the
    coordinator's process must run under the same thread counts.  The
    runs inherit the suite's environment unchanged."""
    scenario = load_scenario(FIXTURES / "reference_10user.yaml")
    blobs = []
    for transport in ("inproc", "socket"):
        report = run(scenario, transport=transport)
        write_report(report, tmp_path / transport)
        blobs.append((tmp_path / transport / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    print(f"criterion 9 PASS: reference_10user report.json byte-identical "
          f"across transports ({len(blobs[0])} bytes)")


_CLI_RUNS = """\
import sys
from hvactrade.cli import main

scenario, out = sys.argv[1], sys.argv[2]
for command in (["run", "--transport", "inproc", "--out", out + "/inproc"],
                ["run", "--transport", "socket", "--out", out + "/socket"],
                ["baseline", "--out", out + "/baseline"]):
    code = main([command[0], scenario] + command[1:])
    if code:
        sys.exit(code)
"""


def test_criterion_9_holds_whatever_the_callers_blas_threads(tmp_path):
    """Reports do not depend on the caller's BLAS thread variables:
    `reference_10user` over both transports, with the variables unset
    and with all three at 1, gives one report.json, and `hvactrade
    baseline` writes the same baseline costs as the report."""
    src = str(Path(qp.__file__).resolve().parent.parent)
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    blobs = []
    for setting in ("unset", "one"):
        env = {k: v for k, v in os.environ.items() if k not in threads}
        if setting == "one":
            env.update({k: "1" for k in threads})
        env["PYTHONPATH"] = src
        out = tmp_path / setting
        subprocess.run([sys.executable, "-c", _CLI_RUNS,
                        str(FIXTURES / "reference_10user.yaml"), str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        for transport in ("inproc", "socket"):
            blobs.append((out / transport / "report.json").read_bytes())
        rows = (out / "baseline" / "costs.csv").read_text().splitlines()[1:-1]
        baseline = {int(u): float(c) for u, c in
                    (row.split(",") for row in rows)}
        doc = json.loads(blobs[-1])
        assert baseline == {u["id"]: u["baseline_cost"] for u in doc["users"]}
    assert all(b == blobs[0] for b in blobs[1:])
    print(f"criterion 9 PASS: reference_10user report.json byte-identical "
          f"over 2 transports x 2 thread settings ({len(blobs[0])} bytes)")
