from fractions import Fraction

from quasitoric.field import rational_field

Q = rational_field()


def qel(x):
    return Q.element(x)


def qvec(*xs):
    return tuple(Q.element(x) for x in xs)


def fvec(field, *xs):
    return tuple(field.element(x) for x in xs)


def as_fractions(vec):
    return tuple(c.as_fraction() for c in vec)


def scalar_dot(u, v):
    """The dot product as a loop of scalar operators, each + and *
    reduced: the reference of the field's dot kernel."""
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc
