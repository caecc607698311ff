"""Central finite differences with one level of Richardson extrapolation.

Every difference quotient in the package is formed here: the numerical
oracles and the derivatives of derived surface fields. A consumer that needs
second derivatives calls :func:`derivatives`, which samples the field once at
each stencil point and returns its value, gradient and Hessian; one that
needs only a gradient calls :func:`partial1` or :func:`d1`, whose 4-point
stencils skip the centre and the corners. Both form the same quotients, so a
derivative is the same number on either path. Each consumer is one stencil
level over its field, except ``biharmonic.angle_shape_alt_assembly``, which
differentiates e1(phi) along e1: a stencil over stencils.
``f`` may return a float or a numpy array; the result has its shape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["d1", "d2", "partial1", "derivatives"]


def _extrapolate(stencil, h):
    coarse = stencil(h)
    return (4.0 * stencil(0.5 * h) - coarse) / 3.0


def d1(f, x: float, h: float) -> float:
    """First derivative of a scalar function of one variable at ``x``."""
    return _extrapolate(lambda s: (f(x + s) - f(x - s)) / (2.0 * s), h)


def d2(f, x: float, h: float) -> float:
    """Second derivative of a scalar function of one variable at ``x``."""
    return derivatives(lambda q: f(q[0]), (x,), h)[2][0, 0]


def _shift(p, i, step):
    q = list(p)
    q[i] += step
    return q


def partial1(f, p, i: int, h: float) -> float:
    """``df/dp_i`` for a function of a point (sequence of floats)."""
    return d1(lambda t: f(_shift(p, i, t)), 0.0, h)


def derivatives(f, p, h: float):
    """(value, gradient, Hessian) of a function of a point of one or two
    coordinates, sampled once at each of its 5 or 17 stencil points: p,
    p +- s along each coordinate and, for two, the corners (+-s, +-s), for
    s in {h, h/2}. The gradient is :func:`partial1`'s; the mixed entry is
    the cross quotient with the lower coordinate first."""
    samples = {}

    def at(q):
        key = tuple(q)
        if key not in samples:
            samples[key] = f(q)
        return samples[key]

    def second(i, j, s):
        if i == j:
            return (at(_shift(p, i, s)) - 2.0 * at(list(p))
                    + at(_shift(p, i, -s))) / (s * s)
        pp, pm, mp, mm = (at(_shift(_shift(p, i, a), j, b))
                          for a, b in ((s, s), (s, -s), (-s, s), (-s, -s)))
        return (pp - pm - mp + mm) / (4.0 * s * s)

    n = range(len(p))
    hess = [[_extrapolate(lambda s: second(min(i, j), max(i, j), s), h)
             for j in n] for i in n]
    return (at(list(p)), np.array([partial1(at, p, i, h) for i in n]),
            np.array(hess))
