"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""
import json
import math
import time

import numpy as np
import pytest

from dirac_sphere import gauge, oracle, specfun, spectra

ONES = lambda w: np.ones_like(np.asarray(w, dtype=float))
ZERO = lambda w: np.zeros_like(np.asarray(w, dtype=float))


def _announce(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def p2_closed(a, b, x):
    s = a + b
    return 0.125 * ((s + 3) * (s + 4) * x * x + 2 * (s + 3) * (a - b) * x + (a - b) ** 2 - (s + 4))


def test_criterion_1_special_functions():
    start = time.perf_counter()
    ok = True
    # orthogonality <= 1e-8
    for a in (0.0, 1 / 3, 1.0):
        for b in (0.0, 1 / 3, 1.0):
            for n in range(1, 7):
                for m in range(n):
                    val = specfun.integrate(
                        lambda x: (1 - x) ** a * (1 + x) ** b
                        * specfun.jacobi(m, a, b, x) * specfun.jacobi(n, a, b, x),
                        -1.0, 1.0, tol=1e-9,
                    ).value
                    ok &= abs(val) <= 1e-8
    # recurrence vs closed forms <= 1e-12 relative, 20 random triples
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.uniform(-0.9, 2.5)
        b = rng.uniform(-0.9, 2.5)
        x = rng.uniform(-1.0, 1.0)
        for n, closed in enumerate([1.0, (a - b) / 2 + (a + b + 2) / 2 * x, p2_closed(a, b, x)]):
            ok &= abs(specfun.jacobi(n, a, b, x) - closed) <= 1e-12 * (1 + abs(closed))
    # reflection symmetry <= 1e-12
    for _ in range(40):
        a = rng.uniform(-0.9, 2.5)
        b = rng.uniform(-0.9, 2.5)
        x = rng.uniform(-1.0, 1.0)
        n = rng.integers(0, 7)
        left = specfun.jacobi(int(n), a, b, -x)
        right = (-1) ** n * specfun.jacobi(int(n), b, a, x)
        ok &= abs(left - right) <= 1e-12 * (1 + abs(right))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _announce(1, f"special functions, {elapsed:.2f}s", ok)


def test_criterion_2_geometry():
    from dirac_sphere import geometry

    start = time.perf_counter()
    v = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 10_000)
    w = geometry.w_from_v(v)
    ok = float(np.max(np.abs(np.cosh(w) * np.cos(v) - 1.0))) <= 1e-12
    ok &= float(np.max(np.abs(geometry.v_from_w(w) - v))) <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _announce(2, f"geometry identities, {elapsed:.2f}s", ok)


def test_criterion_3_constraint_algebra():
    ok = True
    for k in (0.0, 2.0, 5.0):
        ok &= gauge.model1_branches(k) == [(-0.5, k), (0.5, k - 1.0), (0.5, k + 1.0), (1.5, k)]
    p = gauge.model2_derive_params(0.3, -2 / 3, 4 / 3, 2.0)
    ok &= abs(p.C3 - 5 / 6) <= 1e-14
    ok &= abs(p.C4 - 8 / 3) <= 1e-14 * (1 + 8 / 3)
    _announce(3, "constraint algebra", ok)


def test_criterion_4_closed_form_arithmetic():
    l1 = spectra.energy_model2(1, 1.0, 1 / 3, 2.0, 1.0)
    ok = abs(l1.E_plus * 1.0 - 2.2) <= 1e-12
    l0 = spectra.energy_model2(0, 1.0, 1 / 3, 2.0, 1.0)
    ok &= abs(l0.E_sq_bar - 113 / 75) <= 1e-12
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    line = spectra.energy_model1(0, p, 2.0, 1.0)
    ok &= (not line.physical) and abs(line.E_sq_bar - (-4.34)) <= 1e-12
    _announce(4, "closed-form arithmetic", ok)


def test_criterion_5_oracle_quality():
    ok = True
    # box eigenvalues within 1e-3 at N = 1999, eigensolve under 10 s
    start = time.perf_counter()
    m = oracle.build_sl_matrix(ONES, ZERO, oracle.Grid(math.pi / 2, 1999))
    vals = oracle.eig_lowest(m, 3)
    solve_time = time.perf_counter() - start
    ok &= bool(np.all(np.abs(vals - np.array([1.0, 4.0, 9.0])) <= 1e-3))
    ok &= solve_time < 10.0
    # second-order convergence: refinement ratio in [3.5, 4.5]
    exact = np.array([1.0, 4.0, 9.0])
    v1 = oracle.eig_lowest(
        oracle.build_sl_matrix(ONES, ZERO, oracle.Grid(math.pi / 2, 499)), 3)
    v2 = oracle.eig_lowest(
        oracle.build_sl_matrix(ONES, ZERO, oracle.Grid(math.pi / 2, 999)), 3)
    ratio = (v1 - exact) / (v2 - exact)
    ok &= bool(np.all((ratio >= 3.5) & (ratio <= 4.5)))
    # truncation stability under L -> L + 2 at fixed h for a deep bound state
    q = lambda w: -5.0 / np.cosh(np.asarray(w, dtype=float)) ** 2
    h = 0.005
    got = []
    for L in (12.0, 14.0):
        N = int(round(2 * L / h)) - 1
        mm = oracle.build_sl_matrix(ONES, q, oracle.Grid(L, N))
        got.append(oracle.eig_lowest(mm, 1)[0])
    ok &= abs(got[0] - got[1]) < 1e-6
    _announce(5, f"oracle quality, eigensolve {solve_time:.2f}s", ok)


def test_criterion_6_forced_susy_invariant():
    grid = oracle.Grid(4.0, 401)
    ok = True
    profiles = []
    p1 = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    profiles.append((gauge.a_u_model1(p1), 2.0))
    alpha, beta = gauge.alpha_beta(2.0, "-", "+")
    p2 = gauge.model2_derive_params(0.5, beta - alpha, beta + alpha, 2.0)
    profiles.append((gauge.a_u_model2(p2), 2.0))
    rng = np.random.default_rng(2024)
    for _ in range(5):
        c = rng.uniform(-2.0, 2.0, size=4)
        k = rng.uniform(3.5, 5.0)  # keeps the first-order factor well conditioned

        def prof(w, c=c):
            w = np.asarray(w, dtype=float)
            return c[0] + c[1] * np.tanh(w) + c[2] / np.cosh(w) ** 2 + c[3] * np.tanh(w / 2)

        profiles.append((prof, k))
    for a_fn, k in profiles:
        m1, m2 = oracle.compose_factorized(a_fn, k, grid)
        metric, _, _ = oracle.isospectrality_metric(m1, m2)
        ok &= metric <= 1e-8
    _announce(6, "forced isospectrality (must pass)", ok)


def _reports():
    p1 = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    r1 = oracle.consistency_report(1, p1, 2.0, 1.0, levels=3)
    alpha, beta = gauge.alpha_beta(2.0, "-", "+")
    p2 = gauge.model2_derive_params(0.5, beta - alpha, beta + alpha, 2.0)
    r2 = oracle.consistency_report(2, p2, 2.0, 1.0, levels=3)
    return r1, r2


def test_criterion_7_report_completeness():
    start = time.perf_counter()
    r1, r2 = _reports()
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    for rep in (r1, r2):
        ids = [c.claim_id for c in rep.claims]
        for family in ("f.", "a.", "b.", "c.", "d.", "e.", "g."):
            ok &= any(i.startswith(family) for i in ids)
        for c in rep.claims:
            if c.claim_id.startswith("f."):
                ok &= c.verdict == "pass"
            elif c.verdict == "recorded":
                ok &= math.isfinite(c.metric)
                ok &= bool(c.grid)
    ids2 = [c.claim_id for c in r2.claims]
    ok &= any(i.startswith("d.eigenfunction.classical") for i in ids2)
    ok &= any(i.startswith("d.eigenfunction.x1") for i in ids2)
    # determinism: a repeated run serializes identically
    r1b = oracle.consistency_report(
        1, gauge.Model1Params.from_branch(0.4, 2.0, "half-up"), 2.0, 1.0, levels=3
    )
    ok &= json.dumps(r1.as_dict()) == json.dumps(r1b.as_dict())
    _announce(7, f"report completeness, {elapsed:.1f}s", ok)


def test_criterion_8_constancy_checks():
    r1, r2 = _reports()
    a1 = r1.claim("a.veff1-expansion")
    b2 = r2.claim("b.veff1-constrained")
    ok = a1.metric <= 1e-9 and b2.metric <= 1e-9
    ok &= "additive_constant" in a1.details and "additive_constant" in b2.details
    print(
        f"   expansion-identity constant: {a1.details['additive_constant']:+.3e}; "
        f"closed-form bookkeeping constant: {b2.details['additive_constant']:+.3e}"
    )
    _announce(8, "transcription constancy", ok)


def test_criterion_9_scaling_and_symmetry():
    ok = True
    base = spectra.energy_model2(0, 1.0, 1 / 3, 2.0, 1.0)
    for R in (0.5, 1.0, 2.0, 10.0):
        line = spectra.energy_model2(0, 1.0, 1 / 3, 2.0, R)
        ok &= abs(line.E_plus * R - base.E_plus) <= 1e-14
        ok &= line.E_minus == -line.E_plus
        ok &= line.E_sq_bar == base.E_sq_bar
    big = spectra.energy_model2(0, 1.0, 1 / 3, 2.0, 1e6)
    ok &= abs(big.E_plus) < 1e-5
    p = gauge.Model1Params.from_branch(0.4999, 2.0, "half-down")
    big1 = spectra.energy_model1(0, p, 2.0, 1e6)
    ok &= abs(big1.E_plus) < 1e-5
    _announce(9, "R-scaling and spectral symmetry", ok)
