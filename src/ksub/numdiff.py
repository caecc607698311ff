"""Central finite differences with one level of Richardson extrapolation.

Every difference quotient in the package is formed here from one stencil
table: :func:`_abscissae` lists the points around p in a fixed order, and
from a column of a field's samples there :func:`_slopes` forms the first
derivatives, :func:`_quotients` the value, gradient and Hessian.
:func:`derivatives` samples the whole table once; :func:`partial1`,
:func:`d1` and :func:`d2` sample the part they read, so a derivative is the
same number on every path. No stencil nests in another.
``f`` may return a float or a numpy array; the result has its shape. A
coordinate may be an array of points: ``f`` then sees arrays, and each
entry of the result is that point's own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["d1", "d2", "partial1", "derivatives"]


def _axis(p, i: int, h: float) -> list[list[float]]:
    """The points of the table along coordinate i: p + h e_i, p - h e_i,
    p + h/2 e_i, p - h/2 e_i."""
    points = [list(p) for _ in range(4)]
    for q, t in zip(points, (h, -h, 0.5 * h, -0.5 * h)):
        q[i] = q[i] + t  # not +=: the 4 points share an array coordinate
    return points


def _abscissae(p, h: float) -> list[list[float]]:
    """The 5 or 17 stencil points around p, in table order: p, the
    :func:`_axis` points of each coordinate and, in two coordinates, the
    corners p + (s, s), (s, -s), (-s, s), (-s, -s) for s = h, then h/2."""
    table = [list(p)]
    for i in range(len(p)):
        table += _axis(p, i, h)
    if len(p) == 2:
        table += [[p[0] + a, p[1] + b] for s in (h, 0.5 * h)
                  for a, b in ((s, s), (s, -s), (-s, s), (-s, -s))]
    return table


def _richardson(coarse, fine):
    return (4.0 * fine - coarse) / 3.0


def _first(plus, minus, half_plus, half_minus, h: float):
    """df/dp_i from the samples at p +- h e_i and p +- h/2 e_i."""
    return _richardson((plus - minus) / (2.0 * h),
                       (half_plus - half_minus) / (2.0 * (0.5 * h)))


def _axes(samples) -> list:
    """The :func:`_axis` samples of each coordinate in a column of samples
    in table order (5 samples in one coordinate, 9 or 17 in two)."""
    return [samples[1 + 4 * i:5 + 4 * i]
            for i in range(1 if len(samples) == 5 else 2)]


def _slopes(samples, h: float):
    """The first derivative along each coordinate, stacked, from a column
    of samples in table order (see :func:`_axes`)."""
    return np.array([_first(*a, h) for a in _axes(samples)])


def _quotients(samples, h: float):
    """(value, gradient, Hessian) from the samples at :func:`_abscissae`;
    the mixed entry is the cross quotient with the lower coordinate first."""
    centre, axes = samples[0], _axes(samples)

    def second(plus, minus, s):
        return (plus - 2.0 * centre + minus) / (s * s)

    def cross(pp, pm, mp, mm, s):
        return (pp - pm - mp + mm) / (4.0 * s * s)

    hess = [[_richardson(second(*a[:2], h), second(*a[2:], 0.5 * h))
             for a in axes]]
    if len(axes) == 2:
        mixed = _richardson(cross(*samples[9:13], h),
                            cross(*samples[13:], 0.5 * h))
        hess = [[hess[0][0], mixed], [mixed, hess[0][1]]]
    return centre, _slopes(samples, h), np.array(hess)


def derivatives(f, p, h: float):
    """(value, gradient, Hessian) of a function of a point of one or two
    coordinates, sampled once at each of its 5 or 17 stencil points."""
    return _quotients([f(q) for q in _abscissae(p, h)], h)


def partial1(f, p, i: int, h: float) -> float:
    """``df/dp_i`` for a function of a point (sequence of floats), from the
    four points of the table along coordinate i."""
    return _first(*[f(q) for q in _axis(p, i, h)], h)


def d1(f, x: float, h: float) -> float:
    """First derivative of a scalar function of one variable at ``x``."""
    return _first(*[f(q[0]) for q in _axis((x,), 0, h)], h)


def d2(f, x: float, h: float) -> float:
    """Second derivative of a scalar function of one variable at ``x``."""
    return derivatives(lambda q: f(q[0]), (x,), h)[2][0, 0]
