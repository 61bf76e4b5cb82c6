import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hvactrade
from hvactrade import coordinator, qp
from hvactrade.agent import LocalAgent
from hvactrade.qp import (
    QpProblem,
    QpSolution,
    QpStatus,
    Workspace,
    check_kkt,
    solve,
)
from hvactrade.scenario import build_synth_scenario, load_scenario

from oracles import QpBuilder, active_set_oracle, epigraph_max, random_psd_qp
from test_cli import INFEASIBLE as HOT_BOX


def random_box_qp(rng, n=None, general_rows=0, n_eq=0, box_rows=True,
                  pair_gap=None):
    """Feasible random PSD QP: box plus a few general rows through an anchor.

    The box is two rows per variable, or with `box_rows=False` the
    problem's bounds.  A `pair_gap` adds last the row pair g'x <= b and
    -g'x <= -(b + pair_gap |g|) with b = g'anchor: a slab through the
    anchor at a gap of 0, and a contradiction at any positive gap."""
    if n is None:
        n = int(rng.integers(2, 11))
    k = int(rng.integers(1, n + 1))
    b = rng.normal(size=(n, k))
    q = b @ b.T
    c = rng.normal(size=n) * 2.0
    lo = rng.uniform(-3, 0, n)
    hi = lo + rng.uniform(0.5, 4, n)
    anchor = rng.uniform(lo, hi)
    rows, rhs = [], []
    for i in range(n if box_rows else 0):
        e = np.zeros(n)
        e[i] = -1.0
        rows.append(e)
        rhs.append(-lo[i])
        e2 = np.zeros(n)
        e2[i] = 1.0
        rows.append(e2)
        rhs.append(hi[i])
    for _ in range(general_rows):
        g = rng.normal(size=n)
        rows.append(g)
        rhs.append(g @ anchor + abs(rng.normal()) + 0.1)
    a_eq = b_eq = None
    if n_eq:
        a_eq = rng.normal(size=(n_eq, n))
        b_eq = a_eq @ anchor
    if pair_gap is not None:
        g = rng.normal(size=n)
        rows += [g, -g]
        rhs += [g @ anchor, -(g @ anchor + pair_gap * np.linalg.norm(g))]
    if box_rows:
        return QpProblem(q, c, a_eq, b_eq, np.array(rows), np.array(rhs))
    return QpProblem(q, c, a_eq, b_eq, np.reshape(rows, (-1, n)), np.array(rhs),
                     lower=lo, upper=hi)


# --- problem validation -------------------------------------------------

def test_problem_rejects_asymmetric_q():
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


def test_problem_rejects_indefinite_q():
    with pytest.raises(ValueError, match="semidefinite"):
        QpProblem(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))


def test_problem_accepts_psd_within_tolerance():
    q = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular but PSD
    p = QpProblem(q, np.zeros(2))
    assert p.n == 2 and p.n_eq == 0 and p.n_ineq == 0


def test_problem_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), np.zeros(2), ineq_matrix=np.ones((1, 3)), ineq_rhs=[1.0])


@pytest.mark.parametrize("lower, upper, match", [
    (np.zeros(3), None, "lower must have shape"),
    (None, np.ones((2, 1)), "upper must have shape"),
    ([0.0, np.nan], None, "no NaN"),
    (None, [np.nan, 1.0], "no NaN"),
    ([0.0, 2.0], [1.0, 1.0], "lower <= upper"),
    ([0.0, np.inf], None, r"lower < \+inf"),
    (None, [-np.inf, 1.0], "upper > -inf"),
])
def test_problem_rejects_malformed_bounds(lower, upper, match):
    # crossed bounds once ran the full iteration limit before the solver
    # called them infeasible
    with pytest.raises(ValueError, match=match):
        QpProblem(np.eye(2), np.zeros(2), lower=lower, upper=upper)


def test_problem_bounds_default_to_infinite():
    p = QpProblem(np.eye(2), np.zeros(2), upper=[1.0, np.inf])
    assert p.lower.tolist() == [-np.inf, -np.inf]
    assert p.upper.tolist() == [1.0, np.inf]


# --- basic solves -------------------------------------------------------

def test_scalar_bound_pins_solution():
    # minimize (x-1)^2 subject to x >= 2: optimum at the bound, value 1
    prob = QpProblem(np.array([[2.0]]), np.array([-2.0]),
                     ineq_matrix=np.array([[-1.0]]), ineq_rhs=np.array([-2.0]),
                     offset=1.0)
    sol = solve(prob)
    assert sol.status is QpStatus.OPTIMAL
    assert sol.primal[0] == pytest.approx(2.0, abs=1e-8)
    assert sol.objective == pytest.approx(1.0, abs=1e-8)
    assert sol.kkt_residual <= 1e-8


def test_zero_problem_returns_origin():
    prob = QpProblem(np.zeros((2, 2)), np.zeros(2))
    sol = solve(prob)
    assert sol.status is QpStatus.OPTIMAL
    assert np.allclose(sol.primal, 0.0)
    assert sol.kkt_residual == 0.0


def test_equality_constrained_quadratic():
    # minimize x'x subject to x0 + x1 = 2 -> (1, 1)
    prob = QpProblem(2 * np.eye(2), np.zeros(2),
                     eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([2.0]))
    sol = solve(prob)
    assert sol.status is QpStatus.OPTIMAL
    assert np.allclose(sol.primal, [1.0, 1.0], atol=1e-8)
    assert sol.kkt_residual <= 1e-8


def test_infeasible_box_detected():
    # x <= 0 and x >= 1 cannot hold
    prob = QpProblem(np.eye(1), np.zeros(1),
                     ineq_matrix=np.array([[1.0], [-1.0]]),
                     ineq_rhs=np.array([0.0, -1.0]))
    sol = solve(prob, max_iter=3000)
    assert sol.status is QpStatus.INFEASIBLE


def test_infeasible_equalities_detected():
    prob = QpProblem(np.eye(2), np.zeros(2),
                     eq_matrix=np.array([[1.0, 0.0], [1.0, 0.0]]),
                     eq_rhs=np.array([0.0, 1.0]))
    sol = solve(prob, max_iter=3000)
    assert sol.status is QpStatus.INFEASIBLE


def problems_with_a_row_pair(seed, count, gap):
    """Random criterion-2 style problems with a row pair at `gap`:
    bounds as rows and as bounds in turn, 0-1 equality rows and 0-2
    general rows."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield random_box_qp(rng, general_rows=int(rng.integers(0, 3)),
                            n_eq=int(rng.integers(0, 2)), box_rows=bool(i % 2),
                            pair_gap=gap)


@pytest.mark.parametrize("gap", [1.0, 1e-2, 1e-4])
def test_random_contradictory_row_pairs_are_infeasible(gap):
    for i, prob in enumerate(problems_with_a_row_pair(0, 60, gap)):
        sol = solve(prob)
        assert sol.status is QpStatus.INFEASIBLE, f"problem {i}"
        # the certificate is read only after 200 iterations
        assert 200 < sol.iterations < 20000, f"problem {i}"


def test_random_slabs_through_a_feasible_point_are_not_infeasible():
    for i, prob in enumerate(problems_with_a_row_pair(0, 200, 0.0)):
        assert solve(prob).status is not QpStatus.INFEASIBLE, f"problem {i}"


def test_iteration_limit_reported():
    rng = np.random.default_rng(3)
    prob = random_box_qp(rng, n=8, general_rows=2)
    sol = solve(prob, tol=1e-8, max_iter=1)
    assert sol.status in (QpStatus.ITERATION_LIMIT, QpStatus.OPTIMAL)
    # with one iteration the solver cannot certify optimality
    assert sol.status is QpStatus.ITERATION_LIMIT


def test_unbounded_direction_hits_limit():
    # zero curvature with a pure descent direction has no finite minimum
    prob = QpProblem(np.zeros((1, 1)), np.array([1.0]))
    sol = solve(prob, max_iter=500)
    assert sol.status is QpStatus.ITERATION_LIMIT


# --- oracle comparisons -------------------------------------------------

def test_box_qp_matches_oracle_six_vars():
    rng = np.random.default_rng(42)
    prob = random_box_qp(rng, n=6)
    sol = solve(prob)
    assert sol.status is QpStatus.OPTIMAL
    _, want = active_set_oracle(prob)
    assert sol.objective == pytest.approx(want, abs=1e-6)
    assert sol.kkt_residual <= 1e-8


def test_random_qps_match_oracle():
    # broad sweep kept separate from the acceptance run (different seeds)
    rng = np.random.default_rng(20260819)
    for trial in range(25):
        prob = random_psd_qp(rng)
        sol = solve(prob)
        assert sol.status is QpStatus.OPTIMAL, f"trial {trial}"
        _, want = active_set_oracle(prob)
        assert sol.objective == pytest.approx(want, abs=1e-6), f"trial {trial}"
        assert sol.kkt_residual <= 1e-8, f"trial {trial}"


def test_solution_scaling_invariance():
    # scaling the objective by a positive factor keeps the argmin
    rng = np.random.default_rng(11)
    prob = random_box_qp(rng, n=5, general_rows=1)
    base = solve(prob)
    scaled = QpProblem(7.0 * prob.quadratic_term, 7.0 * prob.linear_term,
                       prob.eq_matrix, prob.eq_rhs,
                       prob.ineq_matrix, prob.ineq_rhs)
    sol = solve(scaled)
    assert np.allclose(sol.primal, base.primal, atol=1e-6)
    assert sol.objective == pytest.approx(7.0 * base.objective, rel=1e-6, abs=1e-8)


def test_deterministic_resolve():
    rng = np.random.default_rng(5)
    prob = random_box_qp(rng, n=7, general_rows=2)
    a = solve(prob)
    b = solve(prob)
    assert a.status is b.status
    assert np.array_equal(a.primal, b.primal)
    assert a.objective == b.objective


# --- kkt checker --------------------------------------------------------

def test_check_kkt_flags_perturbed_point():
    prob = QpProblem(np.array([[2.0]]), np.array([-2.0]),
                     ineq_matrix=np.array([[-1.0]]), ineq_rhs=np.array([-2.0]))
    sol = solve(prob)
    assert sol.kkt_residual <= 1e-8
    bumped = QpSolution(sol.primal + 0.1, sol.eq_duals, sol.ineq_duals,
                        sol.objective, sol.status, 0.0, 0)
    assert check_kkt(prob, bumped) >= 1e-2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["primal", "eq_duals", "ineq_duals"])
def test_check_kkt_scores_a_non_finite_point_as_infinite(field, bad):
    # max() passes a NaN over, so a NaN term once scored 0.0
    prob = QpProblem(2 * np.eye(2), np.zeros(2),
                     eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([2.0]),
                     ineq_matrix=np.array([[1.0, 0.0]]), ineq_rhs=np.array([1.0]))
    point = QpSolution(np.array([1.0, 1.0]), np.array([-2.0]), np.array([0.0]),
                       2.0, QpStatus.OPTIMAL, 0.0, 0)
    assert check_kkt(prob, point) <= 1e-12
    getattr(point, field)[0] = bad
    assert check_kkt(prob, point) == np.inf


def test_check_kkt_zero_on_exact_point():
    # known exact solution of an equality-constrained problem
    prob = QpProblem(2 * np.eye(2), np.zeros(2),
                     eq_matrix=np.array([[1.0, 1.0]]), eq_rhs=np.array([2.0]))
    exact = QpSolution(np.array([1.0, 1.0]), np.array([-2.0]), np.zeros(0),
                       2.0, QpStatus.OPTIMAL, 0.0, 0)
    assert check_kkt(prob, exact) <= 1e-12


@pytest.mark.parametrize("lower, upper, x, nu, good", [
    # min (x-1)^2: each point is stationary with its multiplier nu =
    # 2 - 2x, and only the bound the multiplier's sign names differs
    (-np.inf, 0.0, 0.0, 2.0, True),
    (0.0, np.inf, 0.0, 2.0, False),  # names the infinite upper bound
    (-1.0, 0.0, -1.0, 4.0, False),  # names the upper bound, 1 away
    (2.0, np.inf, 2.0, -2.0, True),
    (-1.0, 2.0, 2.0, -2.0, False),  # names the lower bound, 3 away
    (2.0, 2.0, 2.0, -2.0, True),  # a pinned variable: either side holds it
    (2.0, 2.0, 2.0, 2.0, False),  # not stationary
])
def test_check_kkt_scores_bound_multipliers_by_their_sign(lower, upper, x, nu,
                                                           good):
    prob = QpProblem(np.array([[2.0]]), np.array([-2.0]), lower=[lower],
                     upper=[upper])
    point = QpSolution(np.array([x]), np.zeros(0), np.zeros(0), 0.0,
                       QpStatus.OPTIMAL, 0.0, 0, np.array([nu]))
    if good:
        assert check_kkt(prob, point) <= 1e-12
    else:
        assert check_kkt(prob, point) > 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_bounds_and_bound_rows_give_the_same_solution(seed):
    """A bound given as the problem's bound and the same bound given as
    an inequality row give the same point, and the bound multiplier is
    the upper row's multiplier less the lower row's."""
    rng = np.random.default_rng(seed)
    n = 6
    bounded = random_box_qp(rng, n=n, general_rows=2, n_eq=1, box_rows=False)
    q = bounded.quadratic_term + np.eye(n)  # a unique optimum and multipliers
    eye = np.eye(n)
    as_rows = QpProblem(q, bounded.linear_term, bounded.eq_matrix, bounded.eq_rhs,
                        np.vstack([bounded.ineq_matrix, -eye, eye]),
                        np.concatenate([bounded.ineq_rhs, -bounded.lower,
                                        bounded.upper]))
    bounded = QpProblem(q, bounded.linear_term, bounded.eq_matrix, bounded.eq_rhs,
                        bounded.ineq_matrix, bounded.ineq_rhs, bounded.lower,
                        bounded.upper)
    want, got = solve(as_rows), solve(bounded)
    assert want.status is got.status is QpStatus.OPTIMAL
    assert check_kkt(bounded, got) <= 1e-8
    assert np.any(got.bound_duals != 0.0)
    assert got.primal == pytest.approx(want.primal, abs=1e-7)
    assert got.objective == pytest.approx(want.objective, abs=1e-7)
    assert got.eq_duals == pytest.approx(want.eq_duals, abs=1e-6)
    assert got.ineq_duals == pytest.approx(want.ineq_duals[:2], abs=1e-6)
    signed = want.ineq_duals[2 + n:] - want.ineq_duals[2:2 + n]
    assert got.bound_duals == pytest.approx(signed, abs=1e-6)


# --- workspace reuse ----------------------------------------------------

def test_workspace_linear_update_tracks_solution():
    rng = np.random.default_rng(9)
    prob = random_box_qp(rng, n=6, general_rows=1)
    ws = Workspace(prob)
    first = ws.solve()
    assert first.status is QpStatus.OPTIMAL
    new_c = prob.linear_term + rng.normal(size=6)
    ws.update(linear_term=new_c)
    second = ws.solve()
    fresh = solve(QpProblem(prob.quadratic_term, new_c, prob.eq_matrix,
                            prob.eq_rhs, prob.ineq_matrix, prob.ineq_rhs))
    assert second.status is QpStatus.OPTIMAL
    assert second.objective == pytest.approx(fresh.objective, abs=1e-7)
    assert second.kkt_residual <= 1e-8


def strictly_convex_qp(rng, n):
    """Box-constrained QP with Q positive definite: the optimum is unique."""
    b = rng.normal(size=(n, n))
    box = np.vstack([np.eye(n), -np.eye(n)])
    return QpProblem(b @ b.T + np.eye(n), rng.normal(size=n) * 10.0,
                     ineq_matrix=np.vstack([box, rng.normal(size=(2, n))]),
                     ineq_rhs=np.concatenate([np.ones(2 * n), [1.5, 1.5]]))


def active_rows(prob, x):
    return prob.ineq_rhs - prob.ineq_matrix @ x < 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_resolve_with_a_stale_active_set_matches_cold(seed):
    """A new linear term that moves the optimum to another active set
    makes the remembered one fail; the warm solve still finds the
    optimum."""
    rng = np.random.default_rng(seed)
    prob = strictly_convex_qp(rng, n=8)
    ws = Workspace(prob)
    first = ws.solve()
    assert first.status is QpStatus.OPTIMAL
    new_c = -prob.linear_term + rng.normal(size=8) * 5.0
    ws.update(linear_term=new_c)
    warm = ws.solve()
    cold = solve(QpProblem(prob.quadratic_term, new_c,
                           ineq_matrix=prob.ineq_matrix, ineq_rhs=prob.ineq_rhs))
    assert not np.array_equal(active_rows(prob, first.primal),
                              active_rows(prob, cold.primal))
    assert warm.status is QpStatus.OPTIMAL
    assert check_kkt(ws.problem, warm) <= 1e-8
    assert warm.primal == pytest.approx(cold.primal, abs=1e-7)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_stale_set_solve_forms_each_candidate_once(seed, monkeypatch):
    """The remembered set fails and the walk leaves it; the walk and any
    polish of splitting iterates form each set's candidate once, the
    remembered one first."""
    rng = np.random.default_rng(seed)
    prob = strictly_convex_qp(rng, n=8)
    ws = Workspace(prob)
    ws.solve()
    stale = ws._active
    ws.update(linear_term=-prob.linear_term + rng.normal(size=8) * 5.0)
    formed = []
    candidate = Workspace._polish_candidate

    def record(self, active):
        formed.append(active.tobytes())
        return candidate(self, active)

    monkeypatch.setattr(Workspace, "_polish_candidate", record)
    assert ws.solve().status is QpStatus.OPTIMAL
    assert formed[0] == stale.tobytes()
    assert len(formed) == len(set(formed)) > 1


def warm_matches_cold(prob, new_c):
    """Solve `prob`, move its linear term to `new_c` and re-solve warm;
    the warm solve is checked against a cold solve of the new problem.
    Returns the first and the warm solution."""
    ws = Workspace(prob)
    first = ws.solve()
    assert first.status is QpStatus.OPTIMAL and ws._active is not None
    ws.update(linear_term=new_c)
    warm = ws.solve()
    cold = solve(QpProblem(prob.quadratic_term, new_c, prob.eq_matrix,
                           prob.eq_rhs, prob.ineq_matrix, prob.ineq_rhs,
                           lower=prob.lower, upper=prob.upper))
    assert warm.status is cold.status is QpStatus.OPTIMAL
    assert warm.iterations == 0  # no splitting iteration
    assert check_kkt(ws.problem, warm) <= 1e-8
    assert warm.primal == pytest.approx(cold.primal, abs=1e-9)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    return first, warm


def test_warm_walk_fixes_a_variable_pushed_past_its_bound():
    """x1 sits at its upper bound and x0 inside the box.  The new linear
    term moves the optimum on that set to x0 = 1.5, beyond x0's upper
    bound; the walk fixes x0 there and lands on the optimum (1, 1)."""
    prob = QpProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-2.0, -5.0]),
                     lower=np.zeros(2), upper=np.ones(2))
    first, warm = warm_matches_cold(prob, np.array([-4.0, -5.0]))
    assert first.primal == pytest.approx([0.5, 1.0], abs=1e-12)
    assert warm.primal == pytest.approx([1.0, 1.0], abs=1e-12)
    assert warm.bound_duals == pytest.approx([1.0, 2.0], abs=1e-9)


def test_warm_walk_activates_a_violated_row():
    """The row x0 + x1 <= 1 is slack at the first optimum (0.2, 0.3); the
    new linear term moves the unconstrained optimum to (1, 1.5), which
    violates it.  The walk activates the row and lands on (0.25, 0.75)."""
    prob = QpProblem(np.eye(2), np.array([-0.2, -0.3]),
                     ineq_matrix=np.array([[1.0, 1.0]]), ineq_rhs=np.array([1.0]))
    first, warm = warm_matches_cold(prob, np.array([-1.0, -1.5]))
    assert first.primal == pytest.approx([0.2, 0.3], abs=1e-12)
    assert warm.primal == pytest.approx([0.25, 0.75], abs=1e-12)
    assert warm.ineq_duals == pytest.approx([0.75], abs=1e-9)


def four_steps_from_zero(ws, active):
    """The polish candidate's point, row multipliers and bound
    multipliers after four steps from the fixed values and zero
    multipliers, against the exact residual."""
    f = ws._polish_factor(active)
    q, c = ws.problem.quadratic_term, ws.problem.linear_term
    nf = f.free.size
    xp, lam = f.x_fixed.copy(), np.zeros(f.g.shape[0])
    grad = q @ xp + c
    for _ in range(4):
        step = f.solve(np.concatenate([-grad[f.free], f.b - f.g @ xp]))
        xp[f.free] += step[:nf]
        lam += step[nf:]
        grad = q @ xp + c + f.g.T @ lam
    nu = np.zeros(ws.problem.n)
    nu[f.fixed] = -grad[f.fixed]
    return np.concatenate([xp, lam, nu])


def assert_warm_refinement_matches(ws, rng, scale):
    """Re-solve on the set `ws` accepted last, after a small change in
    the linear term, and compare with four steps from zero."""
    active = ws._active
    assert active is not None
    assert ws._polish_cache[active.tobytes()].start is not None
    prob = ws.problem
    ws.update(linear_term=prob.linear_term
              + scale * rng.normal(size=prob.n))
    cand = ws._polish_candidate(active)
    f = ws._polish_factor(active)
    got = np.concatenate([cand.primal, cand.eq_duals,
                          cand.ineq_duals[f.general], cand.bound_duals])
    want = four_steps_from_zero(ws, active)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_warm_refinement_matches_four_steps_from_zero_on_random_qps():
    """Criterion 2's random PSD QPs: the refinement started from the
    point last accepted on the set ends where four steps from zero do."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(100):
        ws = Workspace(random_psd_qp(rng))
        ws.solve()
        if ws._active is None:  # settled by a splitting iterate
            continue
        assert_warm_refinement_matches(ws, rng, 1e-3)
        checked += 1
    assert checked >= 90


@pytest.mark.parametrize("fleet", ["reference_10user", "synth_5_96_3"])
def test_warm_refinement_matches_four_steps_from_zero_on_agent_qps(fleet,
                                                                    monkeypatch):
    """On agent QPs too, and in steady state a same-set hit takes at
    most two steps of the reduced system."""
    if fleet == "reference_10user":
        scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                            / "reference_10user.yaml")
    else:
        scn = build_synth_scenario(5, 96, seed=3)
    user = scn.users[0]
    agent = LocalAgent(user, scn.tariff, scn.grid, partner_ids=tuple(
        u.id for u in scn.users if u.id != user.id))
    rng = np.random.default_rng(1)
    shape = agent.received_aux.shape
    aux = rng.normal(size=shape) * 0.5
    agent.set_coupling(aux, np.zeros(shape), 1.0)
    agent.solve_llp()
    assert_warm_refinement_matches(agent._ws, rng, 1e-3)

    steps, solutions = [], []
    step, solve_ws = qp._PolishFactor.solve, Workspace.solve

    def counted(f, r):
        steps.append(r)
        return step(f, r)

    def recorded(ws, **kwargs):
        solutions.append(solve_ws(ws, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(qp._PolishFactor, "solve", counted)
    monkeypatch.setattr(Workspace, "solve", recorded)
    for _ in range(6):
        aux = aux + 1e-3 * rng.normal(size=shape)
        agent.set_coupling(aux, np.zeros(shape), 1.0)
        last = agent._ws._active
        steps.clear()
        agent.solve_llp()
        assert solutions[-1].iterations == 0 and agent._ws._active is last
        assert 1 <= len(steps) <= 2


def kkt_scale(prob, sol):
    """The largest magnitude among the terms the KKT residual sums: Q and
    the rows times the point, the rows times their multipliers, the
    linear term, the right-hand sides, the finite bounds and the bound
    multipliers."""
    rows = np.vstack([prob.eq_matrix, prob.ineq_matrix])
    mult = np.concatenate([sol.eq_duals, sol.ineq_duals])
    x = np.max(np.abs(sol.primal), initial=0.0)
    a = np.max(np.abs(rows), initial=0.0)
    bounds = np.concatenate([prob.lower, prob.upper])
    return max(1.0, np.max(np.abs(prob.quadratic_term)) * x,
               np.max(np.abs(prob.linear_term)), a * x,
               a * np.max(np.abs(mult), initial=0.0),
               np.max(np.abs(np.concatenate([prob.eq_rhs, prob.ineq_rhs])),
                      initial=0.0),
               np.max(np.abs(bounds[np.isfinite(bounds)]), initial=0.0),
               np.max(np.abs(sol.bound_duals)))


def check_every_gate(monkeypatch):
    """Compare each polish candidate's gate, its kkt_residual, with
    check_kkt on the problem it was formed for, and record check_kkt of
    each accepted candidate.  Returns the lists the solves fill: gate
    gaps relative to kkt_scale, check_kkt of the candidates, and check_kkt
    of the accepted ones."""
    gaps, residuals, accepted = [], [], []
    candidate, polish = Workspace._polish_candidate, Workspace._polish

    def checked(ws, active):
        cand = candidate(ws, active)
        if cand is not None:
            want = check_kkt(ws.problem, cand)
            residuals.append(want)
            if np.isinf(want) or np.isinf(cand.kkt_residual):
                assert cand.kkt_residual == want
            else:
                gaps.append(abs(cand.kkt_residual - want)
                            / kkt_scale(ws.problem, cand))
        return cand

    def walked(ws, *args):
        cand = polish(ws, *args)
        if cand is not None:
            accepted.append(check_kkt(ws.problem, cand))
        return cand

    monkeypatch.setattr(Workspace, "_polish_candidate", checked)
    monkeypatch.setattr(Workspace, "_polish", walked)
    return gaps, residuals, accepted


def test_gate_matches_check_kkt_on_random_qps(monkeypatch):
    """Criterion 2's random PSD QPs, each solved cold and then warm after
    a change in its linear term: every candidate's gate matches check_kkt
    to 1e-12 of the problem's scale, and every accepted one has check_kkt
    within tol."""
    gaps, residuals, accepted = check_every_gate(monkeypatch)
    rng = np.random.default_rng(11)
    for _ in range(100):
        ws = Workspace(random_psd_qp(rng))
        assert ws.solve().status is QpStatus.OPTIMAL
        ws.update(linear_term=ws.problem.linear_term
                  + 0.5 * rng.normal(size=ws.problem.n))
        assert ws.solve().status is QpStatus.OPTIMAL
    assert max(gaps) <= 1e-12
    assert len(accepted) >= 150 and max(accepted) <= 1e-8
    # the walk's rejected candidates are gated too
    assert sum(r > 1e-8 for r in residuals) >= 20


@pytest.mark.parametrize("fleet", ["reference_10user", "synth_5_96_3"])
def test_gate_matches_check_kkt_on_agent_qps(fleet, monkeypatch):
    """The same over every agent QP of a whole negotiation."""
    if fleet == "reference_10user":
        scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                            / "reference_10user.yaml")
    else:
        scn = build_synth_scenario(5, 96, seed=3)
    gaps, residuals, accepted = check_every_gate(monkeypatch)
    assert coordinator.run(scn).converged
    assert max(gaps) <= 1e-12
    assert len(accepted) >= 100 and max(accepted) <= 1e-8
    assert sum(r > 1e-8 for r in residuals) >= 10


@pytest.mark.parametrize("upper, want", [(3.0, 6.0), (np.inf, np.inf),
                                         (0.0, 0.0)])
def test_gate_scores_a_wrong_signed_bound_multiplier_as_check_kkt(upper, want):
    """(x - 1)^2 over 0 <= x <= upper, polished with x fixed at 0: the
    bound multiplier 2 has the wrong sign for a lower bound, and the gate
    scores it as check_kkt does, times the distance to the other bound:
    +inf where that bound is infinite, 0 where the bounds coincide."""
    prob = QpProblem(np.array([[2.0]]), np.array([-2.0]), lower=np.zeros(1),
                     upper=np.array([upper]))
    cand = Workspace(prob)._polish_candidate(np.array([-1], dtype=np.int8))
    assert cand.primal.tolist() == [0.0] and cand.bound_duals.tolist() == [2.0]
    assert cand.kkt_residual == check_kkt(prob, cand) == want


def test_a_solve_forms_its_objective_once(monkeypatch):
    """x^2 + 2x over 0 <= x <= 1 puts x on its lower bound; with the
    linear term moved to -1 the warm re-solve's first candidate, on that
    set, has a wrong-signed multiplier, and the walk accepts the free
    x = 0.5.  The solve forms one objective, that of the point it
    returns."""
    prob = QpProblem(np.array([[2.0]]), np.array([2.0]), lower=np.zeros(1),
                     upper=np.ones(1))
    ws = Workspace(prob)
    assert ws.solve().primal.tolist() == [0.0]
    ws.update(linear_term=np.array([-1.0]))
    formed, points = [], []
    candidate, objective = Workspace._polish_candidate, QpProblem.objective_value

    def record_candidate(self, active):
        cand = candidate(self, active)
        formed.append(cand)
        return cand

    def record_objective(self, x):
        points.append(np.array(x))
        return objective(self, x)

    monkeypatch.setattr(Workspace, "_polish_candidate", record_candidate)
    monkeypatch.setattr(QpProblem, "objective_value", record_objective)
    sol = ws.solve()
    assert sol.status is QpStatus.OPTIMAL and sol.iterations == 0
    assert len(formed) == 2 and formed[0].kkt_residual > 1e-8
    assert sol is formed[1] and sol.primal.tolist() == [0.5]
    assert len(points) == 1 and np.array_equal(points[0], sol.primal)
    assert sol.objective == -0.25


def test_gate_scores_a_non_finite_bound_multiplier_inf():
    """A NaN in the linear term at a fixed variable reaches only that
    variable's bound multiplier, not the refinement residual: the gate
    still scores the candidate +inf, as check_kkt does."""
    prob = QpProblem(2.0 * np.eye(2), np.array([np.nan, -1.0]),
                     lower=np.zeros(2), upper=np.ones(2))
    cand = Workspace(prob)._polish_candidate(np.array([-1, 0], dtype=np.int8))
    assert cand.primal == pytest.approx([0.0, 0.5], abs=1e-12)
    assert np.isnan(cand.bound_duals[0])
    assert cand.kkt_residual == check_kkt(prob, cand) == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_warm_resolve_rejects_a_non_finite_linear_term(bad):
    rng = np.random.default_rng(4)
    prob = strictly_convex_qp(rng, n=5)
    ws = Workspace(prob)
    assert ws.solve().status is QpStatus.OPTIMAL
    c = prob.linear_term.copy()
    c[2] = bad
    ws.update(linear_term=c)
    with pytest.raises(ValueError, match="infs or NaNs"):
        ws.solve()


def test_apply_keeps_the_checks_of_a_solve():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(7, 7))
    b = rng.normal(size=7)
    inverse = np.linalg.inv(a)
    assert np.allclose(qp._apply(inverse, b), np.linalg.solve(a, b),
                       rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="incompatible"):
        qp._apply(inverse, np.ones(6))
    for bad in (np.nan, np.inf, -np.inf):
        b[3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            qp._apply(inverse, b)


@pytest.mark.parametrize("seed", range(5))
def test_reduced_splitting_step_matches_the_stacked_kkt_solve(seed):
    """x~ = M^-1 (sigma x - c + A'(rho z - y)), z~ = A x~ is the step the
    stacked system [[Q + sigma I, A'], [A, -1/rho]] [x~; nu] =
    [sigma x - c; z - y/rho], z~ = z + (nu - y)/rho, takes.  Odd seeds
    give the box as bounds, whose identity rows A then holds."""
    rng = np.random.default_rng(seed)
    prob = random_box_qp(rng, n=8, general_rows=3, n_eq=2,
                         box_rows=not seed % 2)
    ws = Workspace(prob)
    rho = ws._make_rho(qp._RHO)
    inverse = ws._factorize(rho)
    n, m = prob.n, ws._A.shape[0]
    assert m == 2 + 3 + (8 if seed % 2 else 2 * 8)
    x, z, y = rng.normal(size=n), rng.normal(size=m), rng.normal(size=m)
    xt, zt = ws._split_step(rho, inverse, x, z, y)

    sigma, a = qp._SIGMA, ws._A
    kkt = np.block([[prob.quadratic_term + sigma * np.eye(n), a.T],
                    [a, -np.diag(1.0 / rho)]])
    sol = np.linalg.solve(kkt, np.concatenate([sigma * x - prob.linear_term,
                                               z - y / rho]))
    want_x, want_z = sol[:n], z + (sol[n:] - y) / rho
    assert np.linalg.norm(xt - want_x) <= 1e-10 * np.linalg.norm(want_x)
    assert np.linalg.norm(zt - want_z) <= 1e-10 * np.linalg.norm(want_z)


def test_splitting_after_a_failed_walk_starts_cold_and_keeps_nothing(
        monkeypatch):
    """A warm solve whose walk fails runs splitting from x = 0, y = 0,
    not from the last accepted optimum, and once a solve returns the
    workspace holds no n x n array: no splitting inverse survives it."""
    rng = np.random.default_rng(7)
    prob = random_box_qp(rng, n=6, general_rows=2, n_eq=1, box_rows=False)
    ws = Workspace(prob)
    first = ws.solve()
    assert first.status is QpStatus.OPTIMAL
    assert np.any(first.primal != 0.0) and np.any(first.eq_duals != 0.0)

    fail_walk, starts = [True], []
    polish, split_step = Workspace._polish, Workspace._split_step

    def failing_polish(self, *args):
        if fail_walk:  # the warm walk, the solve's first polish
            fail_walk.pop()
            return None
        return polish(self, *args)

    def recorded_step(self, *args):
        x, _, y = args[-3:]
        starts.append((x.copy(), y.copy()))
        return split_step(self, *args)

    monkeypatch.setattr(Workspace, "_polish", failing_polish)
    monkeypatch.setattr(Workspace, "_split_step", recorded_step)
    ws.update(linear_term=prob.linear_term + rng.normal(size=prob.n) * 0.1)
    sol = ws.solve()
    assert not fail_walk and starts
    x0, y0 = starts[0]
    assert not x0.any() and not y0.any()
    assert sol.status is QpStatus.OPTIMAL
    assert check_kkt(prob, sol) <= 1e-8
    n = prob.n
    assert ws._A.shape != (n, n)
    assert not [name for name, value in vars(ws).items()
                if isinstance(value, np.ndarray) and value.shape == (n, n)]


def full_kkt_polish(prob, general, fixed, values, delta=1e-8):
    """The polish without bound elimination: the regularized KKT system
    over every variable, the equality rows, the active general rows and
    an identity row e_i'x = values for each fixed variable i, three
    refinement steps.  Returns the point, the equality and general row
    multipliers and the bound multipliers."""
    n, me, mg = prob.n, prob.n_eq, int(np.count_nonzero(general))
    g = np.vstack([prob.eq_matrix, prob.ineq_matrix[general], np.eye(n)[fixed]])
    ma = g.shape[0]
    exact = np.block([[prob.quadratic_term, g.T], [g, np.zeros((ma, ma))]])
    kreg = exact + np.diag(np.r_[np.full(n, delta), np.full(ma, -delta)])
    rhs = np.concatenate([-prob.linear_term, prob.eq_rhs,
                          prob.ineq_rhs[general], values])
    t = np.linalg.solve(kreg, rhs)
    for _ in range(3):
        t = t + np.linalg.solve(kreg, rhs - exact @ t)
    mu = np.zeros(prob.n_ineq)
    mu[general] = t[n + me:n + me + mg]
    nu = np.zeros(n)
    nu[fixed] = t[n + me + mg:]
    return t[:n], t[n:n + me], mu, nu


def pinned_epigraph_qp():
    """Five variables, one pinned by lb == ub, a priced peak over three of
    them and an equality row."""
    b = QpBuilder()
    x = b.add_vars(5, "x", lb=[0.0, 0.0, 0.7, -1.0, 0.0],
                   ub=[2.0, 1.0, 0.7, 1.0, 3.0])
    peak = epigraph_max(b, x[:3])
    b.add_linear([peak], [2.0])
    for i, center in enumerate([1.5, 2.0, 0.0, -3.0, 1.0]):
        b.add_square(x[i], 0.5 + i, center=center)
    b.add_eq([x[3], x[4]], [1.0, 1.0], 0.5)
    return b.build()


@pytest.mark.parametrize("seed", [None, 0, 1, 2, "coupled"])
def test_bound_eliminated_polish_matches_the_full_kkt_polish(seed):
    """On the optimum's active set the reduced system returns the full
    system's point and multipliers, also for a variable pinned by
    lb == ub, for an epigraph row, and for a dense core under four
    active general rows."""
    if seed is None:
        prob = pinned_epigraph_qp()
    elif seed == "coupled":
        prob = random_box_qp(np.random.default_rng(8), n=12, general_rows=4,
                             n_eq=2, box_rows=False)
    else:
        prob = random_box_qp(np.random.default_rng(seed), n=7, general_rows=2,
                             n_eq=1, box_rows=False)
    x = solve(prob).primal
    general = prob.ineq_rhs - prob.ineq_matrix @ x < 1e-9
    side = np.where(prob.upper - x < 1e-9, 1, np.where(x - prob.lower < 1e-9, -1, 0))
    if seed is None:
        # x2 is pinned, and the epigraph rows are the only rows
        assert side[2] != 0 and general.any()
    else:
        assert np.isfinite(prob.lower).all() and np.isfinite(prob.upper).all()
        assert side.any()
    ws = Workspace(prob)
    if seed == "coupled":
        # no free variable is eliminated in closed form
        assert general.sum() == 4 and not ws._separable.any()
    # the active-set vector names a side for each bounded variable only
    cand = ws._polish_candidate(
        np.concatenate([general, side[ws._bounded]]).astype(np.int8))
    fixed = np.flatnonzero(side)
    values = np.where(side[fixed] > 0, prob.upper[fixed], prob.lower[fixed])
    want_x, want_eq, want_mu, want_nu = full_kkt_polish(prob, general, fixed,
                                                        values)
    assert cand.primal == pytest.approx(want_x, abs=1e-9)
    assert cand.eq_duals == pytest.approx(want_eq, abs=1e-9)
    assert cand.ineq_duals == pytest.approx(want_mu, abs=1e-9)
    assert cand.bound_duals == pytest.approx(want_nu, abs=1e-9)
    assert check_kkt(prob, cand) <= 1e-8


@pytest.mark.parametrize("seed", [None, 0])
def test_cached_polish_factor_keeps_no_copy_of_the_kkt_system(seed):
    """Besides its core inverse, a cached active set holds index lists,
    its rows and vectors, its start point among them: no array larger
    than its rows `g`."""
    if seed is None:
        prob = pinned_epigraph_qp()
    else:
        prob = random_box_qp(np.random.default_rng(seed), n=7, general_rows=2,
                             n_eq=1, box_rows=False)
    ws = Workspace(prob)
    first = ws.solve()
    ws.update(linear_term=prob.linear_term + 0.01)
    second = ws.solve()
    assert first.status == second.status == QpStatus.OPTIMAL
    factors = [f for f in ws._polish_cache.values() if f is not None]
    assert factors
    assert any(f.start is not None for f in factors)
    for f in factors:
        for name, value in f._asdict().items():
            if name == "start":
                for part in value or ():
                    assert part.size <= f.g.size, name
            elif name != "inverse":
                assert value.size <= f.g.size, name


def test_a_workspace_keeps_at_most_six_active_sets():
    """Re-solves under large changes in the linear term visit more than
    six active sets, but the workspace keeps at most six records, and
    the set it accepted last is among them, holding the point it
    accepted there."""
    rng = np.random.default_rng(3)
    prob = random_box_qp(rng, n=8, general_rows=3, n_eq=1, box_rows=False)
    ws = Workspace(prob)
    seen = set()
    for _ in range(40):
        ws.update(linear_term=rng.normal(size=prob.n) * 20.0)
        sol = ws.solve()
        assert sol.status is QpStatus.OPTIMAL
        assert len(ws._polish_cache) <= 6
        seen.update(ws._polish_cache)
        if ws._active is not None:
            start = ws._polish_cache[ws._active.tobytes()].start
            assert start is not None
            assert start[0] == pytest.approx(sol.primal, abs=1e-8)
    assert len(seen) > 6


def test_solve_puts_a_primal_within_tol_of_a_bound_on_it(monkeypatch):
    b = QpBuilder()
    x = b.add_vars(4, "x", lb=0.0, ub=1.0)
    b.add_ineq([x[3]], [-2.0], 1.0)  # x3 >= -0.5, a general row
    b.add_linear(x, [1.0, -1.0, 0.5, 0.25])
    prob = b.build()
    ws = Workspace(prob)
    raw = np.array([-1e-12, 1.0 + 1e-12, -1e-3, 0.5])
    monkeypatch.setattr(ws, "_solve", lambda tol, max_iter: QpSolution(
        raw.copy(), np.zeros(0), np.zeros(prob.n_ineq), 0.0,
        QpStatus.OPTIMAL, 0.0, 1))
    sol = ws.solve(tol=1e-8)
    # x2 is 1e-3 outside its bound, far beyond tol: left for the caller
    # to see, not hidden
    assert sol.primal.tolist() == [0.0, 1.0, -1e-3, 0.5]
    assert sol.objective == prob.objective_value(sol.primal)


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    """The solver uses numpy alone, infeasibility included: neither
    importing the package, a feasible negotiation, in process or over
    sockets, nor an infeasible solve loads any scipy module.  The
    socket run blocks scipy first, and its forked agents inherit the
    block, so an agent that imported scipy would fail the run; the
    hot-box home of the CLI tests is then declared infeasible under the
    same block."""
    src = str(Path(hvactrade.__file__).resolve().parent.parent)
    fixture = Path(src).parent / "scenarios" / "two_user_complementary.yaml"
    hot_box = tmp_path / "hotbox.yaml"
    hot_box.write_text(HOT_BOX)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hvactrade\n"
         "from hvactrade.agent import solve_emp\n"
         "from hvactrade.errors import InfeasibleError\n"
         "scipy = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
         "print(scipy())\n"
         "scenario = hvactrade.load_scenario(sys.argv[1])\n"
         "print(hvactrade.run(scenario).converged, scipy())\n"
         "sys.modules['scipy'] = None\n"
         "print(hvactrade.run(scenario, transport='socket').converged)\n"
         "hot = hvactrade.load_scenario(sys.argv[2])\n"
         "try:\n"
         "    solve_emp(hot.users[0], hot.tariff, hot.grid)\n"
         "except InfeasibleError:\n"
         "    print('infeasible')",
         str(fixture), str(hot_box)],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split("\n")[:4] == ["[]", "True []", "True", "infeasible"]


# --- builder and epigraph ----------------------------------------------

def test_builder_round_trip():
    b = QpBuilder()
    x = b.add_vars(2, "x", lb=0.0, ub=[2.0, 3.0])
    b.add_square(x[0], 1.0, center=5.0)
    b.add_linear([x[1]], [1.0])
    b.add_eq(x, [1.0, 1.0], 4.0)
    prob = b.build()
    assert prob.n == 2
    assert prob.n_eq == 1
    assert prob.n_ineq == 0  # bounds stay bounds, not rows
    assert prob.lower.tolist() == [0.0, 0.0]
    assert prob.upper.tolist() == [2.0, 3.0]
    sol = solve(prob)
    # (x0-5)^2 + x1 with x0+x1=4, x0<=2: push x0 to its cap
    assert sol.primal[0] == pytest.approx(2.0, abs=1e-7)
    assert sol.primal[1] == pytest.approx(2.0, abs=1e-7)


def test_epigraph_variable_equals_max():
    b = QpBuilder()
    x = b.add_vars(3, "x", lb=[1.0, 3.0, 2.0], ub=[1.0, 3.0, 2.0])
    m = epigraph_max(b, x)
    b.add_linear([m], [1.0])  # price the peak so it binds
    prob = b.build()
    sol = solve(prob)
    assert sol.status is QpStatus.OPTIMAL
    assert sol.primal[m] == pytest.approx(3.0, abs=1e-7)


def test_epigraph_prices_peak_flattening():
    # one unit of demand can be split over two slots; pricing the peak
    # splits it evenly
    b = QpBuilder()
    x = b.add_vars(2, "x", lb=0.0)
    b.add_eq(x, [1.0, 1.0], 1.0)
    m = epigraph_max(b, x)
    b.add_linear([m], [10.0])
    prob = b.build()
    sol = solve(prob)
    assert sol.primal[m] == pytest.approx(0.5, abs=1e-6)
    assert np.allclose(sol.primal[list(x)], [0.5, 0.5], atol=1e-6)

