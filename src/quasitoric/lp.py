"""Strict linear-program feasibility over the ordered field.

Fourier-Motzkin elimination with first-class strict inequalities (Schrijver,
Theory of Linear and Integer Programming, 12.2).  Sized for fan/polytope
instances: at most 16 free variables left after the equalities are
eliminated.  Equalities are removed first, by one reduced row echelon
form of [A | b] (linalg.rref_rows): each reduced row solves its pivot
variable in the free variables, and each inequality is rewritten in the
free variables alone, so the doubling step only ever sees inequalities.
The witness is deterministic: free variables are fixed at the midpoint
of their final bound interval.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InternalInvariantError, VariableBudgetExceeded
from .linalg import dot, rref_rows, sub_multiple

VARIABLE_BUDGET = 16

# relations accepted in the public constraint format
_RELATIONS = (">", ">=", "=")


def strict_lp_feasible(constraints: Sequence[tuple], num_vars: int,
                       field=None) -> Optional[tuple]:
    """Feasibility of { <a, x> rel b } with rel in {">", ">=", "="}.

    `constraints` is a sequence of (coefficients, rhs, relation).  Returns
    an exact witness vector or None.  The returned witness is re-checked
    against every constraint before being handed out.
    """
    if field is None:
        if not constraints:
            raise ValueError("cannot infer the field from zero constraints")
        field = constraints[0][1].field
    zero, one = field.zero, field.one

    equalities = []   # rows [a | b]
    inequalities = []  # (coeffs list, rhs, strict)
    for coeffs, rhs, rel in constraints:
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        row = list(coeffs)
        if len(row) != num_vars:
            raise ValueError("constraint width disagrees with num_vars")
        if rel == "=":
            equalities.append([*row, rhs])
        else:
            inequalities.append((row, rhs, rel == ">"))

    # --- equalities: reduced row echelon form of [A | b] ------------------
    # (pivot, row): x_pivot = row[-1] - <row[:-1], x> over the free
    # variables; a pivot in the b column is the row 0 = 1
    solved = [(next(j for j, x in enumerate(row) if not x.is_zero()), row)
              for row in rref_rows(equalities)]
    if solved and solved[-1][0] == num_vars:
        return None
    free = num_vars - len(solved)
    if free > VARIABLE_BUDGET:
        raise VariableBudgetExceeded(
            f"{free} variables exceed the budget of {VARIABLE_BUDGET}")
    substituted = []
    for c, b, s in inequalities:
        row = [*c, b]
        for p, eq in solved:
            if not row[p].is_zero():
                row = sub_multiple(row, row[p], eq)
        substituted.append((row[:-1], row[-1], s))

    # --- Fourier-Motzkin on the remaining inequalities ------------------
    inequalities = _dedup(substituted, zero)
    eliminated = []  # (var, lowers, uppers) for back-substitution
    active = set(range(num_vars)).difference(p for p, _ in solved)
    while True:
        # one sign per (row, active variable), read by the counts and the
        # split alike
        signs = [{v: c[v].sign() for v in active} for c, _, _ in inequalities]
        candidates = []
        for v in sorted(active):
            pos = sum(1 for row in signs if row[v] > 0)
            neg = sum(1 for row in signs if row[v] < 0)
            if pos or neg:
                candidates.append((pos * neg, v))
        if not candidates:
            break
        _, v = min(candidates)
        lowers, uppers, passthrough = [], [], []
        for (c, b, s), row in zip(inequalities, signs):
            sg = row[v]
            if sg > 0:
                lowers.append((c, b, s))
            elif sg < 0:
                uppers.append((c, b, s))
            else:
                passthrough.append((c, b, s))
        new = passthrough
        for cl, bl, sl in lowers:
            for cu, bu, su in uppers:
                # (-cu[v]) * lower + cl[v] * upper, variable v cancels
                ml, mu = -cu[v], cl[v]
                coeffs = [ml * a + mu * d for a, d in zip(cl, cu)]
                coeffs[v] = zero
                new.append((coeffs, ml * bl + mu * bu, sl or su))
        inequalities = _dedup(new, zero)
        eliminated.append((v, lowers, uppers))
        active.discard(v)
        # quick contradiction scan
        for c, b, s in inequalities:
            if all(x.is_zero() for x in c):
                bs = b.sign()
                if bs > 0 or (bs == 0 and s):
                    return None

    for c, b, s in inequalities:
        if all(x.is_zero() for x in c):
            bs = b.sign()
            if bs > 0 or (bs == 0 and s):
                return None

    # --- back-substitution ----------------------------------------------
    # variables never eliminated stay zero; witness[v] is still zero when
    # v's bounds are taken, so the full dot product leaves it out
    witness = [zero] * num_vars
    for v, lowers, uppers in reversed(eliminated):
        lo = hi = None
        lo_strict = hi_strict = False
        for c, b, s in lowers:
            val = (b - dot(c, witness)) / c[v]
            if lo is None or val > lo:
                lo, lo_strict = val, s
            elif val == lo:
                lo_strict = lo_strict or s
        for c, b, s in uppers:
            val = (b - dot(c, witness)) / c[v]
            if hi is None or val < hi:
                hi, hi_strict = val, s
            elif val == hi:
                hi_strict = hi_strict or s
        if hi is None:
            witness[v] = lo + one
        elif lo is None:
            witness[v] = hi - one
        else:
            cmp = (hi - lo).sign()
            if cmp < 0:
                raise InternalInvariantError(
                    "Fourier-Motzkin produced an empty interval")
            if cmp == 0:
                if lo_strict or hi_strict:
                    raise InternalInvariantError(
                        "Fourier-Motzkin produced an empty open interval")
                witness[v] = lo
            else:
                witness[v] = (lo + hi) / 2
    # a reduced row is zero on the other pivots, and witness[p] is zero
    for p, eq in solved:
        witness[p] = eq[-1] - dot(eq[:-1], witness)

    # --- exact recheck ----------------------------------------------------
    for coeffs, rhs, rel in constraints:
        val = dot(coeffs, witness) if num_vars else zero
        diff = (val - rhs).sign()
        ok = diff == 0 if rel == "=" else (diff > 0 if rel == ">"
                                           else diff >= 0)
        if not ok:
            raise InternalInvariantError("witness failed the exact recheck")
    return tuple(witness)


def _dedup(inequalities, zero):
    """Canonicalize rows to unit leading-coefficient magnitude and keep
    only the strongest constraint per normal direction."""
    best = {}
    order = []
    for c, b, s in inequalities:
        lead = next((x for x in c if not x.is_zero()), None)
        if lead is not None:
            scale = abs(lead).inverse()
            c = [scale * x for x in c]
            b = scale * b
        key = tuple(c)
        if key not in best:
            best[key] = (b, s)
            order.append(key)
        else:
            ob, os = best[key]
            cmp = (b - ob).sign()
            if cmp > 0 or (cmp == 0 and s and not os):
                best[key] = (b, s)
    return [(list(key), best[key][0], best[key][1]) for key in order]
