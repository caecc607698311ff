"""Central finite differences with one level of Richardson extrapolation.

Every difference quotient in the package is formed here: the numerical
oracles and the derivatives of derived surface fields. Each is a single
stencil level over its field; no consumer nests one stencil inside another,
since the first form's derivatives come exactly from the point's jets.
``f`` may return a float or a numpy array; the result has its shape.
"""

from __future__ import annotations

__all__ = ["d1", "d2", "partial1", "partial2", "mixed2"]


def _extrapolate(stencil, h):
    coarse = stencil(h)
    return (4.0 * stencil(0.5 * h) - coarse) / 3.0


def d1(f, x: float, h: float) -> float:
    """First derivative of a scalar function of one variable at ``x``."""
    def stencil(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    return _extrapolate(stencil, h)


def d2(f, x: float, h: float) -> float:
    """Second derivative of a scalar function of one variable at ``x``."""
    center = f(x)

    def stencil(step):
        return (f(x + step) - 2.0 * center + f(x - step)) / (step * step)

    return _extrapolate(stencil, h)


def _shift(p, i, step):
    q = list(p)
    q[i] += step
    return q


def partial1(f, p, i: int, h: float) -> float:
    """``df/dp_i`` for a function of a point (sequence of floats)."""
    return d1(lambda t: f(_shift(p, i, t)), 0.0, h)


def partial2(f, p, i: int, h: float) -> float:
    """``d2f/dp_i^2`` for a function of a point."""
    return d2(lambda t: f(_shift(p, i, t)), 0.0, h)


def mixed2(f, p, i: int, j: int, h: float) -> float:
    """``d2f/dp_i dp_j`` (i != j) by the 4-point cross stencil."""
    def stencil(step):
        pp = f(_shift(_shift(p, i, step), j, step))
        pm = f(_shift(_shift(p, i, step), j, -step))
        mp = f(_shift(_shift(p, i, -step), j, step))
        mm = f(_shift(_shift(p, i, -step), j, -step))
        return (pp - pm - mp + mm) / (4.0 * step * step)

    return _extrapolate(stencil, h)
