"""Invariants that must hold over the admissible parameter domain, on a fixed grid.

The grid has no random draws, so a failure names its config: 8 wave numbers
spread evenly over [1.05, 8] at 6 levels; Model I at C1 in {0.05, 0.2, 0.4,
0.49} on each of its four branches, Model II on each of its four sign
branches.  Every report that runs must pass its forced claims, read the
factorization identities at rounding and pair the Dt*D and D*Dt levels
within the Galerkin doubling tolerance; every other branch must be refused
with the error its region calls for.  The (+, -) levels are not asserted:
the oracle does not yet solve that branch's pole condition.
"""
import numpy as np
import pytest

from dirac_sphere import cli, gauge, oracle
from dirac_sphere.errors import DomainError, PoleError

KS = [float(k) for k in np.linspace(1.05, 8.0, 8)]
LEVELS = 6
C1S = (0.05, 0.2, 0.4, 0.49)


def _config(k, model, block):
    return cli.parse_config({"model": model, "R": 1.0, "k": k, "levels": LEVELS, f"model{model}": block})


def _report(cfg):
    return oracle.consistency_report(cfg.model, cfg.params(), cfg.k, cfg.R, levels=cfg.levels)


REPORTED = [
    pytest.param(k, 1, {"C1": c1, "branch": b}, id=f"m1-{b}-C1={c1}-k={k:.4g}")
    for k in KS for c1 in C1S for b in gauge.BRANCH_LABELS
] + [
    # the two sign branches with no real pole; (+,-) only past k = 2 (see below)
    pytest.param(k, 2, {"sign_a": sa, "sign_b": sb}, id=f"m2({sa},{sb})-k={k:.4g}")
    for sa, sb in (("-", "+"), ("+", "-")) for k in KS if sa == "-" or k > 2
]


@pytest.mark.parametrize("k, model, block", REPORTED)
def test_report_invariants(k, model, block):
    claims = {c.claim_id: c for c in _report(_config(k, model, block)).claims}
    failed = [i for i, c in claims.items() if i.startswith("f.") and c.verdict != "pass"]
    assert not failed, failed
    match = claims["conventions.factorization-match"]
    assert match.metric <= 1e-12 and match.details["match_j2"] <= 1e-12, (match.metric, match.details)
    partners = [c for i, c in claims.items() if i.startswith("e.partner.")]
    assert len(partners) == LEVELS - 1
    for c in partners:
        e1, e2 = c.details["e1"], c.details["e2"]
        assert c.metric <= 1e-9 * (1.0 + max(abs(e1), abs(e2))), (c.claim_id, e1, e2)


@pytest.mark.parametrize("k", KS, ids=[f"k={k:.4g}" for k in KS])
def test_model2_refusals_by_region(k):
    # (-,-) has a real pole at every k; on (+,+) and (+,-), alpha = 1/(1 - k)
    # <= -1 for k <= 2, which params() refuses, and (+,+) has a real pole past it
    with pytest.raises(PoleError):
        _report(_config(k, 2, {"sign_a": "-", "sign_b": "-"}))
    if k < 2:
        for sb in ("+", "-"):
            with pytest.raises(DomainError, match="alpha"):
                _config(k, 2, {"sign_a": "+", "sign_b": sb}).params()
    else:  # no k of the grid is 2
        with pytest.raises(PoleError):
            _report(_config(k, 2, {"sign_a": "+", "sign_b": "+"}))
