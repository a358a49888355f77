"""Exact linear feasibility and optimization over the rationals.

Floating-point LP would poison the engine's exactness guarantees, so this
module implements the two primitives the geometric pipeline needs from first
principles, entirely over `fractions.Fraction`:

* Fourier–Motzkin elimination for feasibility of mixed strict/non-strict
  linear systems, with witness extraction by back-substitution; and
* a two-phase tableau simplex (Bland's rule, hence terminating) for
  minimizing a linear objective over a closed polyhedron.

Conventions: an affine functional over R^d is a tuple (a_0, a_1, …, a_d)
denoting a_0 + Σ a_i·x_i.  A constraint is (functional, rel) with rel one of
'gt' (> 0), 'ge' (≥ 0), 'eq' (= 0).
"""

from __future__ import annotations

from fractions import Fraction


def affine_eval(f, x) -> Fraction:
    """Value of the functional f = (a_0..a_d) at the point x = (x_1..x_d)."""
    total = f[0]
    for a, v in zip(f[1:], x):
        total += a * v
    return total


def _substitute(f, j: int, expr) -> tuple:
    """Replace x_j by the affine expr (a tuple with coefficient 0 at j)."""
    c = f[j]
    if c == 0:
        return f
    return tuple(
        (fi if i != j else Fraction(0)) + c * expr[i] for i, fi in enumerate(f)
    )


def fm_solve(constraints, d: int):
    """Witness point for a mixed strict/non-strict system, or None.

    Equalities are removed by exact Gaussian substitution first; the
    remaining inequalities are eliminated variable by variable (highest
    index first), pairing lower and upper bounds; a witness is rebuilt by
    back-substitution, choosing midpoints of the residual intervals.
    """
    work = []
    for f, rel in constraints:
        f = tuple(Fraction(a) for a in f)
        if len(f) != d + 1:
            raise ValueError(f"functional of wrong dimension: {f}")
        work.append((f, rel))

    # Phase A: eliminate equalities by substitution.
    subs = []  # chronological (j, expr): x_j := expr, expr[j] == 0
    while True:
        pick = None
        for k, (f, rel) in enumerate(work):
            if rel == "eq" and any(f[j] != 0 for j in range(1, d + 1)):
                pick = (k, f)
                break
        if pick is None:
            break
        k, f = pick
        j = max(i for i in range(1, d + 1) if f[i] != 0)
        c = f[j]
        expr = tuple(
            Fraction(0) if i == j else -f[i] / c for i in range(d + 1)
        )
        del work[k]
        work = [(_substitute(g, j, expr), rel) for g, rel in work]
        subs.append((j, expr))

    eliminated = {j for j, _ in subs}

    def split_constants(cons):
        rest = []
        for f, rel in cons:
            if all(f[i] == 0 for i in range(1, d + 1)):
                v = f[0]
                ok = v > 0 if rel == "gt" else (v >= 0 if rel == "ge" else v == 0)
                if not ok:
                    return None
            else:
                rest.append((f, rel))
        return rest

    work = split_constants(work)
    if work is None:
        return None

    # Phase B: Fourier–Motzkin on the inequalities.
    stack = []  # (j, lowers, uppers) in elimination order
    for j in sorted(set(range(1, d + 1)) - eliminated, reverse=True):
        lowers, uppers, rest = [], [], []
        for f, rel in work:
            c = f[j]
            if c == 0:
                rest.append((f, rel))
                continue
            bound = tuple(
                Fraction(0) if i == j else -f[i] / c for i in range(d + 1)
            )
            (lowers if c > 0 else uppers).append((bound, rel))
        new = rest
        for lb, rl in lowers:
            for ub, ru in uppers:
                diff = tuple(u - l for u, l in zip(ub, lb))
                rel = "gt" if "gt" in (rl, ru) else "ge"
                new.append((diff, rel))
        stack.append((j, lowers, uppers))
        work = split_constants(new)
        if work is None:
            return None

    # Back-substitution: assign FM-eliminated variables in reverse order,
    # then the equality-eliminated ones in reverse chronological order.
    x = [Fraction(0)] * (d + 1)
    x[0] = Fraction(1)
    for j, lowers, uppers in reversed(stack):
        lo = hi = None
        lo_strict = hi_strict = False
        for bound, rel in lowers:
            v = sum(b * xi for b, xi in zip(bound, x))
            if lo is None or v > lo:
                lo, lo_strict = v, rel == "gt"
            elif v == lo:
                lo_strict = lo_strict or rel == "gt"
        for bound, rel in uppers:
            v = sum(b * xi for b, xi in zip(bound, x))
            if hi is None or v < hi:
                hi, hi_strict = v, rel == "gt"
            elif v == hi:
                hi_strict = hi_strict or rel == "gt"
        if lo is None and hi is None:
            x[j] = Fraction(0)
        elif lo is None:
            x[j] = hi - 1 if hi_strict else hi
        elif hi is None:
            x[j] = lo + 1 if lo_strict else lo
        elif lo == hi:
            x[j] = lo  # both must be non-strict or FM would have failed
        else:
            x[j] = (lo + hi) / 2
    for j, expr in reversed(subs):
        x[j] = sum(e * xi for e, xi in zip(expr, x))
    return x[1:]


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
