"""Strict linear-program feasibility over the ordered field.

Fourier-Motzkin elimination with first-class strict inequalities.  Sized
for fan/polytope instances (at most 16 variables); equalities are removed
by exact substitution before any elimination so the doubling step only
ever sees inequalities.  The witness is deterministic: free variables are
fixed at the midpoint of their final bound interval.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InternalInvariantError, VariableBudgetExceeded

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
    if num_vars > VARIABLE_BUDGET:
        raise VariableBudgetExceeded(
            f"{num_vars} variables exceed the budget of {VARIABLE_BUDGET}")
    if field is None:
        if not constraints:
            raise ValueError("cannot infer the field from zero constraints")
        field = constraints[0][1].field
    zero, one = field.zero, field.one

    equalities = []   # (coeffs list, rhs)
    inequalities = []  # (coeffs list, rhs, strict)
    for coeffs, rhs, rel in constraints:
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        row = list(coeffs)
        if len(row) != num_vars:
            raise ValueError("constraint width disagrees with num_vars")
        if rel == "=":
            equalities.append((row, rhs))
        else:
            inequalities.append((row, rhs, rel == ">"))

    # --- exact substitution of equalities -------------------------------
    # each entry: (var, coeffs over the other vars, const) meaning
    # x_var = const + sum(coeffs[j] * x_j)
    substitutions = []
    while equalities:
        row, rhs = equalities.pop(0)
        pivot = next((j for j, c in enumerate(row) if not c.is_zero()), None)
        if pivot is None:
            if not rhs.is_zero():
                return None
            continue
        inv = row[pivot].inverse()
        expr = [-inv * c for c in row]
        expr[pivot] = zero
        const = inv * rhs
        substitutions.append((pivot, expr, const))

        def substitute(coeffs, b):
            f = coeffs[pivot]
            if f.is_zero():
                return coeffs, b
            out = [c + f * e for c, e in zip(coeffs, expr)]
            out[pivot] = zero
            return out, b - f * const

        equalities = [substitute(c, b) for c, b in equalities]
        inequalities = [(*substitute(c, b), s) for c, b, s in inequalities]

    # --- Fourier-Motzkin on the remaining inequalities ------------------
    inequalities = _dedup(inequalities, zero)
    eliminated = []  # (var, lowers, uppers) for back-substitution
    remaining = [v for v in range(num_vars)
                 if v not in {s[0] for s in substitutions}]
    active = set(remaining)
    while True:
        candidates = []
        for v in sorted(active):
            pos = sum(1 for c, _, _ in inequalities if c[v].sign() > 0)
            neg = sum(1 for c, _, _ in inequalities if c[v].sign() < 0)
            if pos or neg:
                candidates.append((pos * neg, v, pos, neg))
        if not candidates:
            break
        _, v, _, _ = min(candidates)
        lowers, uppers, passthrough = [], [], []
        for c, b, s in inequalities:
            sg = c[v].sign()
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
    witness = [zero] * num_vars
    assigned = set()
    for v in sorted(active):
        witness[v] = zero  # unconstrained variables
        assigned.add(v)
    for v, lowers, uppers in reversed(eliminated):
        lo = hi = None
        lo_strict = hi_strict = False
        for c, b, s in lowers:
            val = (b - sum((c[j] * witness[j] for j in range(num_vars)
                            if j != v), zero)) / c[v]
            if lo is None or val > lo:
                lo, lo_strict = val, s
            elif val == lo:
                lo_strict = lo_strict or s
        for c, b, s in uppers:
            val = (b - sum((c[j] * witness[j] for j in range(num_vars)
                            if j != v), zero)) / c[v]
            if hi is None or val < hi:
                hi, hi_strict = val, s
            elif val == hi:
                hi_strict = hi_strict or s
        if lo is None and hi is None:
            witness[v] = zero
        elif hi is None:
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
        assigned.add(v)
    for v, expr, const in reversed(substitutions):
        witness[v] = const + sum((e * witness[j]
                                  for j, e in enumerate(expr)
                                  if not e.is_zero()), zero)

    # --- exact recheck ----------------------------------------------------
    for coeffs, rhs, rel in constraints:
        val = sum((c * w for c, w in zip(coeffs, witness)), zero)
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
