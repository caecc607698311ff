"""Mutation table of ``verify-paper``: which checks catch a closed form of
``ksub.geometry`` that is off by a factor (1 + eps).

Each row scales what one closed form returns (every part of a tuple) through
a monkeypatched ``geometry`` attribute, so every caller in the package reads
the scaled values, and runs ``verify.run_checks()`` with its pinned
tolerances. The checks that fail must be exactly the listed ones.

Two gaps are known, and no tolerance was changed to close them:

- ``connection`` scaled by 1 + 1e-7 fails no check; the oracle's tolerance
  (1e-6, on a finite-difference table) first sees it at 1e-5.
- ``gauss_curvature`` scaled by 1 + 1e-9 fails no check; bcv-constants
  (tolerance 1e-8 on G, |G| <= 4) first sees it at 1e-7.
"""

import pytest

from ksub import geometry as geo
from ksub import verify

TABLE = [
    ("connection", 1e-5, {"connection-oracle", "curvature-formula", "ricci"}),
    ("bundle_curvature", 1e-9, {"bcv-constants"}),
    ("gauss_curvature", 1e-7, {"bcv-constants"}),
    ("ricci", 1e-7, {"ricci"}),
]


def _scaled(closed_form, eps: float):
    def wrapped(*args):
        out = closed_form(*args)
        if isinstance(out, tuple):
            return tuple(part * (1.0 + eps) for part in out)
        return out * (1.0 + eps)
    return wrapped


def test_the_checks_pass_unmutated():
    assert [r.name for r in verify.run_checks() if r.status != "pass"] == []


@pytest.mark.parametrize("name, eps, caught", TABLE)
def test_a_scaled_closed_form_fails_its_checks(name, eps, caught,
                                               monkeypatch):
    monkeypatch.setattr(geo, name, _scaled(getattr(geo, name), eps))
    assert {r.name for r in verify.run_checks()
            if r.status != "pass"} == caught
