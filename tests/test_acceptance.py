"""End-to-end acceptance battery.

Each criterion is an independent check in signforge.acceptance; this module
pins every one of them green.  The same battery is reachable from the
command line as `signforge reproduce`.
"""

import pytest

from signforge import acceptance
from signforge.acceptance import CRITERIA, run_one


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in CRITERIA],
    ids=[f"{num:02d}-{name}" for num, name, _ in CRITERIA])
def test_criterion(number, name):
    r = run_one(number)
    assert r.passed, f"criterion {number} ({name}): {r.detail}"


def test_ladder_criterion_checks_the_witness_cuts(monkeypatch):
    build = acceptance.ghat_planar

    def wrong_cuts(t):
        g, rot, _ = build(t)
        return g, rot, (frozenset({"w"}),)  # 3 positive, 1 negative edge

    monkeypatch.setattr(acceptance, "ghat_planar", wrong_cuts)
    r = run_one(8)
    assert not r.passed
    assert "witness cut not equilibrated" in r.detail
