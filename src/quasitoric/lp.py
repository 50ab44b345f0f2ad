"""Strict linear-program feasibility over the ordered field.

Fourier-Motzkin elimination with first-class strict inequalities (Schrijver,
Theory of Linear and Integer Programming, 12.2).  Sized for fan/polytope
instances: at most 16 free variables left after the equalities are
eliminated.  Equalities are removed first, by one reduced row echelon
form of [A | b] (linalg.rref_rows): each reduced row solves its pivot
variable in the free variables, and each inequality is rewritten in the
free variables alone, so the doubling step only ever sees inequalities.

The rounds run on integer numerator rows [c | b] with the kernels of the
double description, fraction-free in the spirit of Bareiss (1968): a row
is kept in the form of field.ray_numerators, a positive rational multiple
of the row scaled to a leading +-1, so each sign is decided on a positive
rational multiple of that row's value and refines the field's isolating
interval as far, and over Q no row takes an inverse.  A row whose normal
vanishes keeps b as the rows scaled to a leading +-1 give it: such rows
merge by the sign of b - b', which rescaled b would change.
The witness is deterministic: free variables are fixed at the midpoint
of their final bound interval.  Back-substitution flattens the witness
into one numerator vector per eliminated variable and takes each bound
(b - <c, x>) / c_v straight from the integer row; the exact recheck
flattens the finished witness once and asks each sign of a positive
multiple of <a, x> - b over 1.  A rational value, every value over Q,
reads its sign off the integer (field.numerator_sign).
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from .errors import InternalInvariantError, VariableBudgetExceeded
from .field import (flat_numerators, from_numerators, numerator_difference,
                    numerator_dot, numerator_sign, numerators,
                    ray_numerators)
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
    d = field.degree
    width = num_vars * d
    rows = []  # (row, g, strict), as _dedup reads them
    for c, b, s in inequalities:
        row = [*c, b]
        for p, eq in solved:
            if not row[p].is_zero():
                row = sub_multiple(row, row[p], eq)
        if any(not x.is_zero() for x in row[:-1]):
            row = ray_numerators(field, numerators(field, row))
            rows.append((row, gcd(*row[:width]), s))
        else:
            # coerced as numerators coerces the other rows
            b = field.element(row[-1])
            rows.append(((0,) * width + b.num, b.den, s))

    # --- Fourier-Motzkin on integer rows ---------------------------------
    rows = _dedup(rows, width, field)
    eliminated = []  # (var, lowers, uppers) for back-substitution
    active = set(range(num_vars)).difference(p for p, _ in solved)
    while True:
        # one sign per (row, active variable), read by the counts and the
        # split alike
        signs = [{v: numerator_sign(field, row[v * d:v * d + d])
                  for v in active}
                 for row, _, _ in rows]
        candidates = []
        for v in sorted(active):
            pos = sum(1 for row in signs if row[v] > 0)
            neg = sum(1 for row in signs if row[v] < 0)
            if pos or neg:
                candidates.append((pos * neg, v))
        if not candidates:
            break
        _, v = min(candidates)
        lowers, uppers, new = [], [], []
        for item, row in zip(rows, signs):
            sg = row[v]
            (lowers if sg > 0 else uppers if sg < 0 else new).append(item)
        for rl, _, sl in lowers:
            for ru, _, su in uppers:
                # c_l[v] * upper - c_u[v] * lower, variable v cancels
                raw = numerator_difference(field, rl[v * d:v * d + d], ru,
                                           ru[v * d:v * d + d], rl)
                if any(raw[:width]):
                    row = ray_numerators(field, raw)
                    new.append((row, gcd(*row[:width]), sl or su))
                else:
                    # b unnormalised: the combination of the two rows
                    # scaled to a leading +-1, whose leads are integers
                    leads = next(filter(None, rl)) * next(filter(None, ru))
                    new.append((tuple(raw), field.scale * abs(leads),
                                sl or su))
        rows = _dedup(new, width, field)
        eliminated.append((v, lowers, uppers))
        active.discard(v)
        if _contradiction(rows, width, field):
            return None
    if _contradiction(rows, width, field):
        return None

    witness = _back_substitution(field, num_vars, solved, eliminated)
    _recheck(field, constraints, witness)
    return tuple(witness)


def _dedup(rows, width, field):
    """Keep only the strongest row per normal direction.

    A row (r, g, strict) states <c, x> >= b with [c | b] = r / g over
    the implicit denominator 1, and c content 1 or zero; with c fixed, a
    larger b is stronger, and a strict row beats an equal one."""
    best = {}
    for row, g, s in rows:
        key = row[:width] if g == 1 else tuple([x // g for x in row[:width]])
        old = best.get(key)
        if old is not None:
            orow, og, os = old
            # a positive multiple of b - b'
            cmp = numerator_sign(field, [x * og - y * g for x, y in
                                         zip(row[width:], orow[width:])])
            if cmp < 0 or (cmp == 0 and (os or not s)):
                continue
        best[key] = (row, g, s)
    return list(best.values())


def _contradiction(rows, width, field) -> bool:
    """Whether a row with a vanished normal states a false 0 >= b or
    0 > b."""
    for row, _, s in rows:
        if not any(row[:width]):
            bs = numerator_sign(field, row[width:])
            if bs > 0 or (bs == 0 and s):
                return True
    return False


def _bound(field, row, v, w, w_den):
    """(b - <c, x>) / c_v for the integer row [c | b] over 1 and the
    point x with numerator vector w over w_den: numerator_dot gives
    scale * w_den * <c, x> over 1, and a rational c_v divides the
    numerators of the difference with no inverse."""
    d = field.degree
    k = w_den * field.scale
    width = len(w)
    diff = [k * b - t for b, t in
            zip(row[width:], numerator_dot(field, row[:width], w))]
    c = row[v * d:v * d + d]
    if any(c[1:]):
        (c,) = from_numerators(field, c)
        (top,) = from_numerators(field, diff, k)
        return top / c
    if c[0] < 0:
        diff = [-x for x in diff]
    (bound,) = from_numerators(field, diff, k * abs(c[0]))
    return bound


def _back_substitution(field, num_vars, solved, eliminated) -> list:
    """The witness: each eliminated variable, last first, fixed at the
    midpoint of its bound interval (or one past its only bound), then
    each pivot variable of the equalities read off its reduced row.

    Each bound (b - <c, x>) / c_v is taken by _bound from the integer
    row and the numerator vector of the witness so far, flattened once
    per variable.  Variables never eliminated stay zero; witness[v] is
    still zero when v's bounds are taken, so the full dot product
    leaves it out."""
    zero, one = field.zero, field.one
    witness = [zero] * num_vars
    for v, lowers, uppers in reversed(eliminated):
        w, w_den = flat_numerators(field, witness)
        lo = hi = None
        lo_strict = hi_strict = False
        for row, _, s in lowers:
            val = _bound(field, row, v, w, w_den)
            if lo is None or val > lo:
                lo, lo_strict = val, s
            elif val == lo:
                lo_strict = lo_strict or s
        for row, _, s in uppers:
            val = _bound(field, row, v, w, w_den)
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
    return witness


def _recheck(field, constraints, witness) -> None:
    """Raise InternalInvariantError unless the witness satisfies every
    constraint exactly.  The witness is flattened once, and each sign is
    asked of a positive multiple of <coeffs, witness> - rhs over 1."""
    w, w_den = flat_numerators(field, witness)
    k = w_den * field.scale
    width = len(w)
    for coeffs, rhs, rel in constraints:
        row, _ = flat_numerators(field, [*coeffs, rhs])
        diff = numerator_sign(field, [
            t - k * b for t, b in
            zip(numerator_dot(field, row[:width], w), row[width:])])
        ok = diff == 0 if rel == "=" else (diff > 0 if rel == ">"
                                           else diff >= 0)
        if not ok:
            raise InternalInvariantError("witness failed the exact recheck")
