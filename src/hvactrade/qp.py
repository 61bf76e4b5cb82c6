"""Dense convex quadratic programming.

Problems have the form

    minimize    0.5 x'Qx + c'x + offset
    subject to  A_eq x  = b_eq
                A_in x <= b_in
                lower <= x <= upper

with Q symmetric positive semidefinite and any bound possibly
infinite.  The solver polishes an active set: each variable at an
active bound is fixed there, and a regularized KKT system over the free
variables, the equality rows and the active general rows is solved with
iterative refinement, after free variables with a diagonal row of Q are
eliminated from it in closed form.  Each refinement step measures the
exact KKT residual at the current point from the problem's own Q and
rows, so a cached active set keeps only its core inverse and its rows,
and refinement stops once that residual reaches the rounding floor.
A candidate is accepted once its KKT residual is at most the
tolerance.  That residual is check_kkt's, but gathered from the last
refinement residual, which already holds the stationarity of the free
variables and the residuals of the active rows, plus the few terms it
lacks, instead of being formed again from Q and every row.  Where the
candidate fails, a primal-dual active-set walk releases wrong-signed
multipliers and activates violated bounds and rows, for at most four
sets.

A warm re-solve polishes on the active set it last accepted, whose
inverse is cached, starting from the point and multipliers accepted
there, and walks from it on a miss.  A cold solve, or a warm one whose
walk fails, runs an over-relaxed operator-splitting iteration on the
form l <= Ax <= u of Stellato et al. (*OSQP*, 2020), and polishes the
set its iterates suggest: A stacks the equality rows, the general rows
and one identity row per bounded variable, whose interval is [lower,
upper].  In the reduced form (section 3.1) each step applies the
inverse of the n x n positive definite matrix Q + sigma I + A' diag(rho)
A.  Each splitting run starts from zero with the initial penalty, forms
that inverse itself, again whenever it changes the penalty, and keeps
none of its state once the solve returns, so what it does depends on
the current problem alone.  The first polish comes as soon as both
splitting residuals are within 1e-2 of their scales, and after each
failed one the threshold tightens a hundredfold.  An early polish costs
little: the walk reaches the optimal set from a nearby one, and the
polished point depends only on the set it lands on, not on the iterate
that suggested it.  The kernels use numpy alone.

A problem is declared infeasible from the splitting iterates alone: a
dual step dy that translates the iterates, with A'dy negligible and a
negative support u'dy+ + l'dy-, certifies it (Banjac, Goulart, Stellato
and Boyd, JOTA 2019; OSQP section 3.4).  Without such a certificate the
solve ends at the iteration limit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "QpStatus",
    "QpProblem",
    "QpSolution",
    "Workspace",
    "solve",
    "check_kkt",
]


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


def _matrix(m, name, ncols):
    if m is None:
        return np.zeros((0, ncols))
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != ncols:
        raise ValueError(f"{name} must be 2-D with {ncols} columns, got {arr.shape}")
    return arr


def _vector(v, name, length, fill=0.0):
    if v is None:
        return np.full(length, fill)
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {arr.shape}")
    return arr


@dataclass
class QpProblem:
    quadratic_term: np.ndarray
    linear_term: np.ndarray
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    lower: np.ndarray | None = None  # per-variable bounds, default -inf
    upper: np.ndarray | None = None  # default +inf
    offset: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.quadratic_term, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"quadratic_term must be square, got shape {q.shape}")
        n = q.shape[0]
        c = np.asarray(self.linear_term, dtype=np.float64)
        if c.shape != (n,):
            raise ValueError(f"linear_term must have shape ({n},), got {c.shape}")
        scale = max(1.0, float(np.max(np.abs(q))) if n else 1.0)
        if n and float(np.max(np.abs(q - q.T))) > 1e-9 * scale:
            raise ValueError("quadratic_term must be symmetric")
        # PSD gate: Gershgorin lower bound first, exact eigenvalue as fallback.
        if n:
            diag = np.diag(q)
            gersh = float(np.min(diag - (np.sum(np.abs(q), axis=1) - np.abs(diag))))
            if gersh < -1e-8 * scale:
                lo = float(np.min(np.linalg.eigvalsh(q))) if n <= 2000 else gersh
                if lo < -1e-8 * scale:
                    raise ValueError(
                        f"quadratic_term is not positive semidefinite "
                        f"(smallest eigenvalue estimate {lo:.3e})"
                    )
        self.quadratic_term = q
        self.linear_term = c
        self.eq_matrix = _matrix(self.eq_matrix, "eq_matrix", n)
        self.eq_rhs = _vector(self.eq_rhs, "eq_rhs", self.eq_matrix.shape[0])
        self.ineq_matrix = _matrix(self.ineq_matrix, "ineq_matrix", n)
        self.ineq_rhs = _vector(self.ineq_rhs, "ineq_rhs", self.ineq_matrix.shape[0])
        self.lower = _vector(self.lower, "lower", n, -np.inf)
        self.upper = _vector(self.upper, "upper", n, np.inf)
        # the comparisons are False at a NaN
        if not np.all((self.lower <= self.upper) & (self.lower < np.inf)
                      & (self.upper > -np.inf)):
            raise ValueError("bounds must satisfy lower <= upper, lower < +inf "
                             "and upper > -inf, with no NaN")
        self.offset = float(self.offset)

    @property
    def n(self) -> int:
        return self.quadratic_term.shape[0]

    @property
    def n_eq(self) -> int:
        return self.eq_matrix.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.ineq_matrix.shape[0]

    def objective_value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * x @ self.quadratic_term @ x + self.linear_term @ x
                     + self.offset)


@dataclass
class QpSolution:
    primal: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    objective: float
    status: QpStatus
    kkt_residual: float
    iterations: int
    # one per variable: positive at its upper bound, negative at its lower
    bound_duals: np.ndarray | None = None

    def __post_init__(self):
        if self.bound_duals is None:
            self.bound_duals = np.zeros(len(self.primal))


def check_kkt(problem: QpProblem, solution: QpSolution) -> float:
    """Max-norm KKT residual, recomputed from scratch.

    Covers stationarity, primal feasibility, dual sign, and
    complementary slackness; uses only the problem data and the
    candidate point, no solver internals.  A bound multiplier holds its
    variable at the bound its sign names, so one on an infinite bound
    scores +inf.  A non-finite input or term scores +inf, never as
    optimal.
    """
    x, lam, mu, nu = (np.asarray(v, dtype=np.float64) for v in (
        solution.primal, solution.eq_duals, solution.ineq_duals,
        solution.bound_duals))
    if not all(np.isfinite(v).all() for v in (x, lam, mu, nu)):
        return float("inf")
    grad = problem.quadratic_term @ x + problem.linear_term + nu
    lower, upper = problem.lower, problem.upper
    # the bound each multiplier's sign names, and x itself at a zero one;
    # negative terms are harmless, the maximum starts at zero
    held = np.where(nu > 0.0, upper, np.where(nu < 0.0, lower, x))
    terms = [lower - x, x - upper, np.abs(nu * (held - x))]
    if problem.n_eq:
        grad = grad + problem.eq_matrix.T @ lam
        terms.append(np.abs(problem.eq_matrix @ x - problem.eq_rhs))
    if problem.n_ineq:
        grad = grad + problem.ineq_matrix.T @ mu
        viol = problem.ineq_matrix @ x - problem.ineq_rhs
        terms += [np.maximum(viol, 0.0), -mu, np.abs(mu * viol)]
    terms.append(np.abs(grad))
    # np.max propagates a NaN, where Python's max(0.0, nan) is 0.0
    res = float(np.max(np.concatenate(terms), initial=0.0))
    return float("inf") if math.isnan(res) else res


def _apply(inverse: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`inverse @ b` for one right-hand side, with the checks of a LAPACK
    solve: the shapes must agree, and a non-finite right-hand side
    raises ValueError."""
    if b.shape != (inverse.shape[1],):
        raise ValueError(
            f"Shapes of inverse {inverse.shape} and b {b.shape} are incompatible")
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    return inverse @ b


def _magnitude(*arrays) -> float:
    """The largest finite magnitude in the arrays, and at least 1."""
    v = np.abs(np.concatenate(arrays))
    return max(1.0, float(np.max(v, initial=0.0, where=np.isfinite(v))))


# Splitting settings: the initial penalty of a general or bound row
# (equality rows take 1e3 times it), the proximal weight sigma and the
# over-relaxation factor.
_RHO = 0.1
_SIGMA = 1e-6
_ALPHA = 1.6

# Refinement on an active set stops once the largest entry of the
# reduced KKT residual is at most this fraction of the linear term's
# scale: past it, further steps only move the last bits.
_FLOOR = 1e-13


class _PolishFactor(NamedTuple):
    """The regularized reduced KKT system of one active set.

    The variables at an active bound are fixed at `x_fixed`.  The
    unknowns are the free variables, in the order `free` (first the
    core ones, then the separable ones), and the multipliers of the
    equality rows and the active general rows `g`, whose right-hand
    sides are `b`.  The separable variables are eliminated in closed
    form, and `inverse` is that of the remaining core.  The exact system
    is not stored; refinement forms its residual from Q and the rows."""

    free: np.ndarray  # indices of the free variables
    x_fixed: np.ndarray  # fixed values, zero at the free variables
    general: np.ndarray  # indices of the active general inequality rows
    g: np.ndarray  # equality rows, then the active general rows
    b: np.ndarray  # their right-hand sides
    fixed: np.ndarray  # indices of the variables at an active bound
    bound_sign: np.ndarray  # +1.0 where that bound is the upper, else -1.0
    h_sep: np.ndarray  # Q_jj + delta of the separable free variables
    g_sep: np.ndarray  # their columns of g
    inverse: np.ndarray  # of the regularized core system

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The regularized system's solution for the right-hand side r."""
        nf = self.free.size
        nc = nf - self.h_sep.size
        v = r[nc:nf] / self.h_sep
        core = _apply(self.inverse,
                      np.concatenate([r[:nc], r[nf:] - self.g_sep @ v]))
        out = np.empty(r.size)
        out[:nc] = core[:nc]
        out[nf:] = core[nc:]
        np.subtract(v, (self.g_sep.T @ core[nc:]) / self.h_sep, out=out[nc:nf])
        return out


class Workspace:
    """Reusable solve state for one problem structure.

    Keeps the polish systems of the last six active sets, with the point
    last accepted on each, so a sequence of solves that only change the
    linear term (the trading subproblem across iterations) forms each
    once and warm-starts each subsequent solve on the set accepted last.
    The splitting iteration keeps nothing between solves.
    An active set is an int8 vector: 1 at each active general row, then
    for each bounded variable +1 at its upper bound, -1 at its lower
    bound and 0 when it is free.
    """

    def __init__(self, problem: QpProblem):
        self.problem = problem
        n = problem.n
        self._bounded = np.flatnonzero(np.isfinite(problem.lower)
                                       | np.isfinite(problem.upper))
        self._A = np.vstack([problem.eq_matrix, problem.ineq_matrix,
                             np.eye(n)[self._bounded]])
        self._me = problem.n_eq
        self._mi = self._me + problem.n_ineq  # the first bound row
        self._lower = np.concatenate([problem.eq_rhs,
                                      np.full(problem.n_ineq, -np.inf),
                                      problem.lower[self._bounded]])
        self._upper = np.concatenate([problem.eq_rhs, problem.ineq_rhs,
                                      problem.upper[self._bounded]])
        self._active = None  # active set of the last accepted polish
        self._keyed = (None, b"")  # the last active set keyed, and its key
        self._polish_cache = {}  # active-set bytes -> _PolishFactor or None
        # active-set bytes -> the primal and row multipliers last accepted
        # on that set, where its refinement starts
        self._polish_start = {}
        # Variables whose row of Q holds only a diagonal entry that is not
        # small next to the constraint coefficients: the polish eliminates
        # them in closed form, and each pivot adds entries of at most 1e3
        # to the system that remains.
        q = problem.quadratic_term
        a_max = max(1.0, float(np.max(np.abs(self._A), initial=0.0)))
        self._separable = ((np.count_nonzero(q, axis=1) == 1)
                           & (np.diag(q) >= 1e-3 * a_max ** 2))

    def _make_rho(self, base):
        rho = np.full(self._A.shape[0], base)
        rho[:self._me] *= 1e3  # stiffer weight keeps equality rows tight
        return np.clip(rho, 1e-6, 1e6)

    def _factorize(self, rho):
        """The inverse of M = Q + sigma I + A' diag(rho) A."""
        a = self._A
        m = self.problem.quadratic_term + a.T @ (rho[:, None] * a)
        m[np.diag_indices_from(m)] += _SIGMA
        return np.linalg.inv(m)

    def _split_step(self, rho, inverse, x, z, y):
        """The splitting subproblem at (x, z, y), in reduced form:
        x~ = M^-1 (sigma x - c + A'(rho z - y)) and z~ = A x~, the same
        point as the stacked KKT system [[Q + sigma I, A'], [A, -1/rho]]
        gives."""
        a = self._A
        rhs = _SIGMA * x - self.problem.linear_term + a.T @ (rho * z - y)
        xt = _apply(inverse, rhs)
        return xt, a @ xt

    def update(self, linear_term=None, offset=None):
        """Swap the linear term and the offset.  The cached polish sets
        and the points last accepted on them stay, so the next solve
        starts on the set accepted last."""
        if linear_term is not None:
            c = np.asarray(linear_term, dtype=np.float64)
            if c.shape != (self.problem.n,):
                raise ValueError("linear_term shape mismatch")
            self.problem.linear_term = c
        if offset is not None:
            self.problem.offset = float(offset)

    def _key(self, active):
        """An active set's cache key, its bytes.  The walk hands one array
        to each stage of a candidate, so the key is formed once for it."""
        if self._keyed[0] is not active:
            self._keyed = (active, active.tobytes())
        return self._keyed[1]

    def _adopt(self, cand, active):
        """Accept a polished optimum: its active set is tried first by the
        next solve, and its point and row multipliers are where the next
        refinement on that set starts."""
        self._active = active
        key = self._key(active)
        general = self._polish_cache[key].general
        self._polish_start[key] = (
            cand.primal.copy(),
            np.concatenate([cand.eq_duals, cand.ineq_duals[general]]))

    def _iterate(self, x, y, status, k):
        """The splitting iterate (x, y) as a solution, scored by check_kkt."""
        nu = np.zeros(self.problem.n)
        nu[self._bounded] = y[self._mi:]
        sol = QpSolution(x.copy(), y[:self._me].copy(),
                         np.maximum(y[self._me:self._mi], 0.0),
                         math.nan, status, 0.0, k, nu)
        sol.kkt_residual = check_kkt(self.problem, sol)
        return sol

    def solve(self, tol: float = 1e-8, max_iter: int = 20000) -> QpSolution:
        """Solve the current problem.

        A primal coordinate that lies outside its bound by at most `tol`
        is returned on the bound, so an optimum with an active bound
        never sits a rounding error outside it.  The objective is that
        of the returned point, formed once here; the KKT residual is
        that of the solver's own iterate.
        """
        sol = self._solve(tol, max_iter)
        x, lower, upper = sol.primal, self.problem.lower, self.problem.upper
        below, above = x < lower, x > upper
        if below.any() or above.any():
            outside = ((below & (x >= lower - tol))
                       | (above & (x <= upper + tol)))
            if outside.any():
                sol.primal = np.where(outside, np.where(below, lower, upper), x)
        sol.objective = self.problem.objective_value(sol.primal)
        return sol

    def _solve(self, tol, max_iter) -> QpSolution:
        prob = self.problem
        if prob.n == 0:
            return QpSolution(np.zeros(0), np.zeros(0), np.zeros(0),
                              prob.offset, QpStatus.OPTIMAL, 0.0, 0)

        formed = {}  # active-set bytes -> its candidate, for this solve
        if self._active is not None:
            # The previous optimum's active set usually survives a small
            # change in the linear term, and a direct solve on it is far
            # cheaper than splitting iterations; where it does not, the
            # walk from it usually reaches the new set.
            cand, active = self._polish(self._active, formed, tol)
            if cand is not None and cand.kkt_residual <= tol:
                self._adopt(cand, active)
                return cand

        q = prob.quadratic_term
        c = prob.linear_term
        A = self._A
        lower, upper = self._lower, self._upper
        rho_base = _RHO
        rho = self._make_rho(rho_base)
        inverse = self._factorize(rho)
        x, y = np.zeros(prob.n), np.zeros(A.shape[0])
        z = np.clip(0.0, lower, upper)

        check_every = 10
        polish_gate = max(1e-2, tol)
        best = None
        y_mark = y.copy()
        rho_updates = 0
        k = 0
        while k < max_iter:
            k += 1
            xt, zt = self._split_step(rho, inverse, x, z, y)
            x = _ALPHA * xt + (1.0 - _ALPHA) * x
            ztmp = _ALPHA * zt + (1.0 - _ALPHA) * z + y / rho
            z = np.clip(ztmp, lower, upper)
            y = rho * (ztmp - z)

            if k % check_every and k != max_iter:
                continue
            ax = A @ x
            qx = q @ x
            aty = A.T @ y
            r_prim = float(np.max(np.abs(ax - z), initial=0.0))
            r_dual = float(np.max(np.abs(qx + c + aty)))
            s_prim = max(1.0, float(np.max(np.abs(ax), initial=0.0)),
                         float(np.max(np.abs(z), initial=0.0)))
            s_dual = max(1.0, float(np.max(np.abs(qx))), float(np.max(np.abs(aty))),
                         float(np.max(np.abs(c), initial=0.0)))

            if r_prim <= polish_gate * s_prim and r_dual <= polish_gate * s_dual:
                cand, active = self._polish(self._detect(x, y), formed, tol)
                if cand is not None and cand.kkt_residual <= tol:
                    self._adopt(cand, active)
                    cand.iterations = k
                    return cand
                polish_gate = max(polish_gate * 1e-2, tol * 1e-2)

            if r_prim <= tol and r_dual <= tol:
                raw = self._iterate(x, y, QpStatus.OPTIMAL, k)
                if raw.kkt_residual <= tol:
                    self._active = None
                    return raw
                best = raw

            # Divergence watch: a translating dual step certifies
            # infeasibility; see the module docstring.
            dy = y - y_mark
            y_mark = y.copy()
            dy_norm = float(np.max(np.abs(dy), initial=0.0))
            if dy_norm > 1e-12 and k > 200:
                aty_dy = float(np.max(np.abs(A.T @ dy)))
                lo, up = np.isfinite(lower), np.isfinite(upper)
                # no push against an infinite side of a row's interval
                sign_ok = bool(np.all(dy[~lo] >= -1e-6 * dy_norm)
                               and np.all(dy[~up] <= 1e-6 * dy_norm))
                support = float(upper[up] @ np.maximum(dy[up], 0.0)
                                + lower[lo] @ np.minimum(dy[lo], 0.0))
                if sign_ok and aty_dy <= 1e-6 * dy_norm and support < -1e-6 * dy_norm:
                    return QpSolution(np.full(prob.n, np.nan), np.zeros(self._me),
                                      np.zeros(prob.n_ineq), float("nan"),
                                      QpStatus.INFEASIBLE, float("inf"), k)

            # Residual-balancing penalty update; refactors, so rate-limited.
            if k % (check_every * 20) == 0 and rho_updates < 15:
                ratio = (r_prim / s_prim) / max(r_dual / s_dual, 1e-16)
                if ratio > 25.0 or ratio < 0.04:
                    rho_base = float(np.clip(rho_base * np.sqrt(ratio),
                                             1e-6, 1e6))
                    rho = self._make_rho(rho_base)
                    inverse = self._factorize(rho)
                    rho_updates += 1

        if best is None:
            best = self._iterate(x, y, QpStatus.ITERATION_LIMIT, max_iter)
        best.status = QpStatus.ITERATION_LIMIT
        best.iterations = max_iter
        return best

    def _polish_factor(self, active):
        """The reduced KKT system of an active set, cached by its bytes.

        Each variable at an active bound is fixed there.  Only the free
        variables, the equality rows and the active general rows remain.
        The system involves only the quadratic term and the constraint
        rows, so it survives linear-term updates across repeated solves.
        """
        key = self._key(active)
        if key in self._polish_cache:
            return self._polish_cache[key]
        prob = self.problem
        n = prob.n
        general = np.flatnonzero(active[:prob.n_ineq])
        side = active[prob.n_ineq:]
        fixed = self._bounded[side != 0]
        at_upper = side[side != 0] > 0
        x_fixed = np.zeros(n)
        x_fixed[fixed] = np.where(at_upper, prob.upper[fixed], prob.lower[fixed])
        is_fixed = np.zeros(n, dtype=bool)
        is_fixed[fixed] = True
        sep = self._separable & ~is_fixed
        free = np.concatenate([np.flatnonzero(~(is_fixed | sep)),
                               np.flatnonzero(sep)])
        q = prob.quadratic_term
        g = np.vstack([prob.eq_matrix, prob.ineq_matrix[general]])
        ma = g.shape[0]
        delta = 1e-8
        # Eliminating the separable free variables S, with H_S = Q_SS +
        # delta I diagonal, leaves the core over the other free variables
        # C and the rows: [[Q_CC + delta I, G_C'], [G_C, -delta I - G_S
        # H_S^-1 G_S']].
        nc = free.size - np.count_nonzero(sep)
        core = free[:nc]
        h_sep = np.diag(q)[sep] + delta
        g_sep = g[:, free[nc:]]
        kreg = np.empty((nc + ma, nc + ma))
        kreg[:nc, :nc] = q[np.ix_(core, core)] + delta * np.eye(nc)
        kreg[:nc, nc:] = g[:, core].T
        kreg[nc:, :nc] = g[:, core]
        kreg[nc:, nc:] = -delta * np.eye(ma) - (g_sep / h_sep) @ g_sep.T
        try:
            entry = _PolishFactor(
                free, x_fixed, general, g,
                np.concatenate([prob.eq_rhs, prob.ineq_rhs[general]]), fixed,
                np.where(at_upper, 1.0, -1.0), h_sep, g_sep, np.linalg.inv(kreg))
        except np.linalg.LinAlgError:
            entry = None
        if len(self._polish_cache) >= 6:
            old = next(iter(self._polish_cache))
            self._polish_cache.pop(old)
            self._polish_start.pop(old, None)
        self._polish_cache[key] = entry
        return entry

    def _polish_candidate(self, active):
        """Direct KKT solve on an active set.

        Starts from the primal and row multipliers last accepted on the
        set, or from its fixed values and zero multipliers, and takes
        steps of the regularized system against the exact KKT residual
        at the current point, formed from the problem's Q and rows,
        until that residual is at the rounding floor: at most four, a
        solve and then iterative refinement.  The last stationarity
        residual gives the bound multipliers.  Returns None when the
        system is singular or the point is not finite.

        The candidate's KKT residual is check_kkt's, gathered from that
        last residual instead of formed again: its entries are the
        stationarity of the free variables and the residuals of the
        equality rows.  The bound multipliers make the stationarity of
        the fixed variables zero, and each fixed variable sits on its
        bound.  What the residual lacks is added: the general rows'
        violations, the sign and complementarity of the active rows'
        multipliers, the bounds, which only a free variable can cross, and,
        for a bound
        multiplier of the wrong sign, its product with the distance to
        the other bound.  The two agree up to rounding.
        """
        f = self._polish_factor(active)
        if f is None:
            return None
        prob = self.problem
        q, c = prob.quadratic_term, prob.linear_term
        nf, me = f.free.size, self._me
        start = self._polish_start.get(self._key(active))
        if start is None:
            xp, lam = f.x_fixed.copy(), np.zeros(f.g.shape[0])
        else:
            xp, lam = start[0].copy(), start[1].copy()
        grad = q @ xp + c + f.g.T @ lam
        floor = _FLOOR * max(1.0, float(np.abs(c).max(initial=0.0)))
        for steps in range(5):
            r = np.concatenate([-grad[f.free], f.b - f.g @ xp])
            size = np.abs(r)
            if steps == 4 or size.max(initial=0.0) <= floor:
                break
            step = f.solve(r)
            xp[f.free] += step[:nf]
            lam += step[nf:]
            grad = q @ xp + c + f.g.T @ lam
        if not np.isfinite(xp).all():
            return None
        mu = np.zeros(prob.n_ineq)
        mu[f.general] = lam[me:]
        nu = np.zeros(prob.n)
        nu_fixed = -grad[f.fixed]
        nu[f.fixed] = nu_fixed
        cand = QpSolution(xp, lam[:me], mu, math.nan, QpStatus.OPTIMAL,
                          0.0, 0, nu)

        # check_kkt's terms, from the last residual and the few it lacks
        terms = [size[:nf + me], prob.lower - xp, xp - prob.upper]
        if prob.n_ineq:
            terms += [prob.ineq_matrix @ xp - prob.ineq_rhs, -lam[me:],
                      np.abs(lam[me:] * r[nf + me:])]
        wrong = nu_fixed * f.bound_sign < 0.0
        if wrong.any():
            j = f.fixed[wrong]
            terms.append(np.abs(nu_fixed[wrong]) * (prob.upper[j] - prob.lower[j]))
        res = float(np.concatenate(terms).max(initial=0.0))
        # a NaN anywhere, or a non-finite bound multiplier, scores +inf
        finite = not math.isnan(res) and np.isfinite(nu_fixed).all()
        cand.kkt_residual = res if finite else float("inf")
        return cand

    def _detect(self, x, y):
        """The active set the splitting iterates (x, y) suggest.

        A general row is active where its multiplier exceeds 1e-6 of the
        largest, or its slack is under 1e-7 of the rows' scale.  A bound
        is active where its multiplier is that large, at the side the
        multiplier's sign names, or else where x lies that near it.
        """
        prob = self.problem
        me, mi = self._me, self._mi
        lower, upper = self._lower[mi:], self._upper[mi:]
        xb = x[self._bounded]
        y_in, y_b = y[me:mi], y[mi:]
        slack = prob.ineq_rhs - prob.ineq_matrix @ x
        ty = 1e-6 * max(1.0, float(np.max(np.abs(y[me:]), initial=0.0)))
        ts = 1e-7 * _magnitude(self._lower[me:], self._upper[me:])
        near = np.where(upper - xb < ts, 1, np.where(xb - lower < ts, -1, 0))
        side = np.where(np.abs(y_b) > ty, np.sign(y_b), near)
        return np.concatenate([(y_in > ty) | (slack < ts), side]).astype(np.int8)

    def _polish(self, active, formed, tol):
        """Polish on an active set, walking to a neighbouring set while
        the candidate fails the KKT check.

        Returns the best candidate and its active set, or (None, None).
        `formed` maps each active set's bytes to the candidate already
        formed on it under the current linear term; a set found there is
        not solved again, and each new one is added.  Each step of the
        walk, a primal-dual active-set step (Hintermueller, Ito and
        Kunisch, SIAM J. Optim. 13, 2002), releases every row and bound
        whose multiplier has the wrong sign, fixes every free bounded
        variable that lies more than `tol` beyond a bound at that bound,
        and activates every inactive general row violated by more than
        `tol`.  Stops at the first candidate whose residual is at most
        `tol`, when no such change remains, or after four sets.
        """
        prob = self.problem
        lower, upper = self._lower[self._mi:], self._upper[self._mi:]
        best = best_active = None
        for _ in range(4):
            key = self._key(active)
            if key not in formed:
                formed[key] = self._polish_candidate(active)
            cand = formed[key]
            if cand is None:
                break
            if best is None or cand.kkt_residual < best.kkt_residual:
                best, best_active = cand, active
            if best.kkt_residual <= tol:
                break
            # each multiplier times its sign in `active`: negative where
            # it is wrong-signed, zero where inactive.  A rank-deficient
            # row set can yield one even at the true optimum.
            held = active * np.concatenate(
                [cand.ineq_duals, cand.bound_duals[self._bounded]])
            scale = max(1.0, float(np.max(np.abs(held), initial=0.0)))
            wrong = held < -1e-9 * scale
            # a variable with lower == upper takes either sign
            wrong[prob.n_ineq:] &= lower < upper
            # each inactive general row the candidate violates, and each
            # free bounded variable beyond a bound, at the side it crossed
            xb = cand.primal[self._bounded]
            enter = (active == 0) * np.concatenate([
                prob.ineq_matrix @ cand.primal - prob.ineq_rhs > tol,
                np.where(xb > upper + tol, 1, np.where(xb < lower - tol, -1, 0))])
            if not (wrong.any() or enter.any()):
                break
            active = (np.where(wrong, 0, active) + enter).astype(np.int8)
        return best, best_active


def solve(problem: QpProblem, tol: float = 1e-8, max_iter: int = 20000) -> QpSolution:
    """One-shot solve; see Workspace for reuse across related problems."""
    return Workspace(problem).solve(tol=tol, max_iter=max_iter)

