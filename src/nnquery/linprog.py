"""Exact linear optimization over the rationals.

Floating-point LP would poison the engine's exactness guarantees, so this
module implements, entirely over `fractions.Fraction`, a two-phase tableau
simplex (Bland's rule, hence terminating) for minimizing a linear objective
over a closed polyhedron.

Conventions: an affine functional over R^d is a tuple (a_0, a_1, …, a_d)
denoting a_0 + Σ a_i·x_i.  A constraint is (functional, rel) with rel one of
'ge' (≥ 0) or 'eq' (= 0).
"""

from __future__ import annotations

from fractions import Fraction


def affine_eval(f, x) -> Fraction:
    """Value of the functional f = (a_0..a_d) at the point x = (x_1..x_d)."""
    total = f[0]
    for a, v in zip(f[1:], x):
        total += a * v
    return total


def scaled_eval(f, num, den: int):
    """den times the value of f = (a_0..a_d) at the point num/den, given as
    integer numerators over one positive denominator: its sign is the sign
    of f there, and integer f keeps it in integers."""
    total = f[0] * den
    for a, n in zip(f[1:], num):
        total += a * n
    return total


# ---------------------------------------------------------------------------
# Exact two-phase simplex
# ---------------------------------------------------------------------------

def minimize(objective, constraints, d: int):
    """Minimize objective (a_0..a_d) over a closed system ('ge'/'eq' only).

    Returns ('optimal', value, point), ('infeasible',), or ('unbounded',).
    Free variables are split x = u − v with u, v ≥ 0; inequalities get
    surplus variables; phase 1 drives artificial variables to zero.
    """
    objective = tuple(Fraction(a) for a in objective)
    rows = []
    rels = []
    for f, rel in constraints:
        if rel not in ("ge", "eq"):
            raise ValueError("minimize accepts only 'ge'/'eq' constraints")
        rows.append(tuple(Fraction(a) for a in f))
        rels.append(rel)

    n_free = 2 * d
    n_surplus = sum(1 for r in rels if r == "ge")
    n = n_free + n_surplus
    m = len(rows)

    # A x' = b with x' ≥ 0: columns u_1, v_1, …, u_d, v_d, s_1…, then artificials.
    A = []
    b = []
    si = 0
    for f, rel in zip(rows, rels):
        row = []
        for i in range(1, d + 1):
            row.extend([f[i], -f[i]])
        surplus = [Fraction(0)] * n_surplus
        if rel == "ge":
            surplus[si] = Fraction(-1)
            si += 1
        row.extend(surplus)
        rhs = -f[0]
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
        A.append(row)
        b.append(rhs)

    # artificial columns
    total = n + m
    for i, row in enumerate(A):
        row.extend(Fraction(1) if k == i else Fraction(0) for k in range(m))

    basis = list(range(n, n + m))

    def pivot(T, basis, row, col):
        piv = T[row][col]
        T[row] = [v / piv for v in T[row]]
        for r in range(len(T)):
            if r != row and T[r][col] != 0:
                factor = T[r][col]
                T[r] = [v - factor * w for v, w in zip(T[r], T[row])]
        basis[row - 1] = col  # row 0 is the objective row

    def run_simplex(T, basis, ncols):
        # T[0] = objective row (reduced costs, last entry = -value)
        while True:
            col = next((j for j in range(ncols) if T[0][j] < 0), None)
            if col is None:
                return "optimal"
            best = None
            for r in range(1, len(T)):
                if T[r][col] > 0:
                    ratio = T[r][-1] / T[r][col]
                    if best is None or ratio < best[0] or (
                        ratio == best[0] and basis[r - 1] < basis[best[1] - 1]
                    ):
                        best = (ratio, r)
            if best is None:
                return "unbounded"
            pivot(T, basis, best[1], col)

    # Phase 1
    T = [[Fraction(0)] * total + [Fraction(0)]]
    for i in range(m):
        T.append(list(A[i]) + [b[i]])
    # phase-1 objective: sum of artificials; express in terms of non-basic vars
    for j in range(total):
        T[0][j] = -sum(T[i + 1][j] for i in range(m)) if j < n else Fraction(0)
    T[0][-1] = -sum(b)
    # (minimize sum artificials == maximize -(sum); tableau uses reduced costs
    #  with Bland-compatible most-negative-free selection)
    status = run_simplex(T, basis, n)  # artificials may not re-enter
    if status != "optimal":
        raise RuntimeError("phase 1 must end optimal: its objective is bounded below by 0")
    phase1_value = -T[0][-1]
    if phase1_value != 0:
        return ("infeasible",)

    # Drive any artificial still in the basis out (degenerate rows).
    for r in range(1, m + 1):
        if basis[r - 1] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                pivot(T, basis, r, col)
            # else: the row is all-zero in original columns — redundant

    # Phase 2
    obj_row = [Fraction(0)] * (total + 1)
    for i in range(1, d + 1):
        obj_row[2 * (i - 1)] = objective[i]
        obj_row[2 * (i - 1) + 1] = -objective[i]
    T[0] = obj_row
    # zero out reduced costs of basic columns
    for r in range(1, m + 1):
        j = basis[r - 1]
        if T[0][j] != 0:
            factor = T[0][j]
            T[0] = [v - factor * w for v, w in zip(T[0], T[r])]
    status = run_simplex(T, basis, n)
    if status == "unbounded":
        return ("unbounded",)
    xprime = [Fraction(0)] * total
    for r in range(1, m + 1):
        if basis[r - 1] < total:
            xprime[basis[r - 1]] = T[r][-1]
    point = [xprime[2 * (i - 1)] - xprime[2 * (i - 1) + 1] for i in range(1, d + 1)]
    value = objective[0] + sum(
        objective[i] * point[i - 1] for i in range(1, d + 1)
    )
    return ("optimal", value, point)
