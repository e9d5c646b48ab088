"""Dense two-phase simplex for small linear programs with variable bounds.

Solves max (or min) of c @ x subject to a_ub @ x <= b_ub and
lower <= x <= upper. Nonbasic variables rest at one of their bounds, so box
constraints never enter the tableau, and Bland's smallest-index rule guards
against cycling. Determinism matters more than speed here: the basis is
refactored from scratch every iteration.

The tests' LP oracle: it solves the planner's knapsack instances as general
LPs (``_oracles.lp_assign``), independently of the greedy fill, and is itself
checked against a vertex-enumeration oracle and against HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from venplan import INFEASIBLE, OPTIMAL, VenplanError

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
_PIVOT_TOL = 1e-10
_RATIO_TIE_TOL = 1e-12

_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3

UNBOUNDED = "unbounded"


class SolverError(VenplanError):
    """The LP solver failed numerically; the message carries diagnostics."""


@dataclass
class LPResult:
    """Solution vector and status returned by :func:`solve_lp`."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray
    objective: float
    iterations: int


class _BoundedSimplex:
    """Working state: equality system [a_ub | I] z = b over bounded variables."""

    def __init__(self, a_ub, b_ub, lower, upper):
        m, n = a_ub.shape
        self.m = m
        self.cols = np.hstack([a_ub, np.eye(m)])
        self.b = b_ub
        self.lo = np.concatenate([lower, np.zeros(m)])
        self.up = np.concatenate([upper, np.full(m, np.inf)])
        self.total = n + m
        self.status = np.empty(self.total, dtype=np.int8)
        self.values = np.zeros(self.total)
        for j in range(n):
            if self.lo[j] > -np.inf:
                self.status[j] = _AT_LOWER
                self.values[j] = self.lo[j]
            elif self.up[j] < np.inf:
                self.status[j] = _AT_UPPER
                self.values[j] = self.up[j]
            else:
                self.status[j] = _FREE
                self.values[j] = 0.0
        self.status[n:] = _BASIC
        self.basis = list(range(n, n + m))
        self.values[n:] = b_ub - a_ub @ self.values[:n]
        self.iterations = 0

    def add_artificials(self, rows: np.ndarray) -> None:
        """Append one artificial column per infeasible row and make it basic."""
        k = rows.size
        extra = np.zeros((self.m, k))
        for idx, i in enumerate(rows):
            extra[i, idx] = -1.0
        self.cols = np.hstack([self.cols, extra])
        self.lo = np.concatenate([self.lo, np.zeros(k)])
        self.up = np.concatenate([self.up, np.full(k, np.inf)])
        self.status = np.concatenate([self.status, np.full(k, _BASIC, dtype=np.int8)])
        art_values = np.empty(k)
        for idx, i in enumerate(rows):
            col = self.total + idx
            slack = self.basis[i]
            art_values[idx] = -self.values[slack]
            self.status[slack] = _AT_LOWER
            self.values[slack] = 0.0
            self.basis[i] = col
        self.values = np.concatenate([self.values, art_values])
        self.total += k

    def pin(self, cols: range) -> None:
        """Fix columns at zero so they can never re-enter the basis."""
        self.lo[list(cols)] = 0.0
        self.up[list(cols)] = 0.0

    def run(self, cost: np.ndarray) -> str:
        """Maximize ``cost @ z`` from the current basis; returns a status."""
        max_iter = 200 + 50 * self.total
        while True:
            self.iterations += 1
            if self.iterations > max_iter:
                raise SolverError(
                    f"simplex iteration limit {max_iter} exceeded "
                    f"(m={self.m}, n={self.total - self.m})"
                )
            basis_matrix = self.cols[:, self.basis]
            nonbasic_values = self.values.copy()
            nonbasic_values[self.basis] = 0.0
            rhs = self.b - self.cols @ nonbasic_values
            try:
                self.values[self.basis] = np.linalg.solve(basis_matrix, rhs)
                shadow = np.linalg.solve(basis_matrix.T, cost[self.basis])
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular basis encountered: {exc}") from exc
            reduced = cost - self.cols.T @ shadow

            entering = -1
            direction = 0
            for j in range(self.total):
                st = self.status[j]
                if st == _BASIC or self.lo[j] == self.up[j]:
                    continue
                dj = reduced[j]
                if st == _AT_LOWER and dj > OPTIMALITY_TOL:
                    entering, direction = j, 1
                    break
                if st == _AT_UPPER and dj < -OPTIMALITY_TOL:
                    entering, direction = j, -1
                    break
                if st == _FREE and abs(dj) > OPTIMALITY_TOL:
                    entering, direction = j, (1 if dj > 0 else -1)
                    break
            if entering < 0:
                return OPTIMAL

            step_col = np.linalg.solve(basis_matrix, self.cols[:, entering])
            # Entering variable moves by direction * t; basic i changes at
            # rate -direction * step_col[i]. The step is limited by whichever
            # bound is hit first, including the entering variable's own span.
            t_limit = self.up[entering] - self.lo[entering]
            leave_row = -1
            leave_to = _AT_LOWER
            for i in range(self.m):
                rate = -direction * step_col[i]
                var = self.basis[i]
                if rate < -_PIVOT_TOL and self.lo[var] > -np.inf:
                    ratio = (self.values[var] - self.lo[var]) / (-rate)
                    hit = _AT_LOWER
                elif rate > _PIVOT_TOL and self.up[var] < np.inf:
                    ratio = (self.up[var] - self.values[var]) / rate
                    hit = _AT_UPPER
                else:
                    continue
                if ratio < 0.0:
                    ratio = 0.0
                better = ratio < t_limit - _RATIO_TIE_TOL
                tie = abs(ratio - t_limit) <= _RATIO_TIE_TOL and (
                    leave_row < 0 or var < self.basis[leave_row]
                )
                if better or tie:
                    t_limit = ratio
                    leave_row = i
                    leave_to = hit
            if not np.isfinite(t_limit):
                return UNBOUNDED

            self.values[entering] += direction * t_limit
            if leave_row < 0:
                # Bound flip: the entering variable crosses to its other bound.
                if direction > 0:
                    self.status[entering] = _AT_UPPER
                    self.values[entering] = self.up[entering]
                else:
                    self.status[entering] = _AT_LOWER
                    self.values[entering] = self.lo[entering]
            else:
                leaving = self.basis[leave_row]
                self.status[leaving] = leave_to
                self.values[leaving] = (
                    self.lo[leaving] if leave_to == _AT_LOWER else self.up[leaving]
                )
                self.basis[leave_row] = entering
                self.status[entering] = _BASIC


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    lower=None,
    upper=None,
    maximize: bool = True,
) -> LPResult:
    """Solve max/min c @ x subject to a_ub @ x <= b_ub, lower <= x <= upper.

    Bounds default to [0, +inf) and may contain -inf/+inf entries; the
    constraint data must be finite. Raises ValueError on malformed input and
    SolverError on numerical failure; infeasibility and unboundedness are
    reported through the result status, with NaNs standing in for the
    missing solution.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("objective must be a non-empty vector")
    n = c.size
    if a_ub is None:
        a = np.zeros((0, n))
        b = np.zeros(0)
    else:
        a = np.asarray(a_ub, dtype=float)
        if a.ndim != 2 or a.shape[1] != n:
            raise ValueError(
                f"constraint matrix shape {a.shape} does not match {n} variables"
            )
        b = np.asarray(b_ub, dtype=float).reshape(-1)
        if b.size != a.shape[0]:
            raise ValueError(
                f"{a.shape[0]} constraint rows but {b.size} right-hand sides"
            )
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("objective and constraint data must be finite")

    lo = _as_bound(lower, n, -1)
    up = _as_bound(upper, n, +1)
    if np.any(np.isnan(lo)) or np.any(np.isnan(up)):
        raise ValueError("bounds must not contain NaN")
    nan_x = np.full(n, np.nan)
    if np.any(lo > up):
        return LPResult(INFEASIBLE, nan_x, np.nan, 0)

    state = _BoundedSimplex(a, b, lo, up)
    feas_tol = FEASIBILITY_TOL * (1.0 + (np.abs(b).max() if b.size else 0.0))
    bad_rows = np.flatnonzero(state.values[n:] < -feas_tol)
    if bad_rows.size:
        first_artificial = state.total
        state.add_artificials(bad_rows)
        phase1_cost = np.zeros(state.total)
        phase1_cost[first_artificial:] = -1.0
        if state.run(phase1_cost) == UNBOUNDED:
            raise SolverError("phase-1 objective unbounded; inconsistent state")
        infeasibility = state.values[first_artificial:].sum()
        if infeasibility > feas_tol:
            return LPResult(INFEASIBLE, nan_x, np.nan, state.iterations)
        state.pin(range(first_artificial, state.total))

    cost = np.zeros(state.total)
    cost[:n] = c if maximize else -c
    status = state.run(cost)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, nan_x, np.nan, state.iterations)
    x = state.values[:n].copy()
    return LPResult(OPTIMAL, x, float(c @ x), state.iterations)


def _as_bound(bound, n: int, side: int) -> np.ndarray:
    if bound is None:
        fill = 0.0 if side < 0 else np.inf
        return np.full(n, fill)
    arr = np.asarray(bound, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"bounds shape {arr.shape} does not match {n} variables")
    return arr.copy()
