import math
from fractions import Fraction

import pytest

from multclass import numtheory as nt
from multclass.arith import ArithFn, classical, dirichlet, pointwise_product, scale
from multclass.classes import (
    CONSISTENT,
    IDENTICALLY_ZERO,
    MULTIPLICATIVE,
    QUASIMULTIPLICATIVE,
    REFUTED,
    SELBERG,
    SEMIMULTIPLICATIVE,
    check_multiplicative,
    check_quasimultiplicative,
    check_rearick,
    check_semimultiplicative,
    classify_all,
    extract_selberg,
    recheck_witness,
)
from multclass.corpus import corpus
from multclass.ramanujan import c_bar_fn, c_fn, mu_bar_fn

mobius = classical("mobius")
phi = classical("euler_phi")
zero = ArithFn("zero", lambda n: 0)
nplus1 = ArithFn("nplus1", lambda n: n + 1)


def brute_multiplicative(f, window):
    for m in range(1, window + 1):
        for n in range(1, window // m + 1):
            if math.gcd(m, n) == 1 and f(m * n) != f(m) * f(n):
                return False
    return True


def brute_rearick(f, window):
    """The least pair m < n <= window with n % m != 0 at which
    f(m) f(n) != f(gcd) f(lcm), with both sides evaluated in full (the lcm
    may lie beyond the window), as (m, n, lhs, rhs, reason); else None."""
    for m in range(1, window + 1):
        for n in range(m + 1, window + 1):
            if n % m == 0:
                continue
            g, l = math.gcd(m, n), math.lcm(m, n)
            lhs, rhs = f(m) * f(n), f(g) * f(l)
            if lhs != rhs:
                return m, n, lhs, rhs, f"f({m})*f({n}) = {lhs} but f({g})*f({l}) = {rhs}"
    return None


def perturb(f, at, value):
    return ArithFn(f"{f.name}!", lambda n: value if n == at else f(n))


def test_check_multiplicative_matches_brute():
    fns = [mobius, phi, scale(mobius, 2), c_fn(4), c_fn(9), c_bar_fn(12), nplus1]
    for f in fns:
        rep = check_multiplicative(f, 40)
        assert rep.consistent == brute_multiplicative(f, 40), f.name
        if rep.witness is not None:
            assert recheck_witness(f, rep.witness)


def test_scale_two_mobius_witness():
    rep = check_multiplicative(scale(mobius, 2), 64)
    assert rep.verdict == REFUTED
    w = rep.witness
    assert (w.m, w.n, w.lhs, w.rhs) == (1, 1, 2, 4)


def test_quasimultiplicative_constants():
    assert check_quasimultiplicative(mobius, 64).c == 1
    assert check_quasimultiplicative(scale(mobius, 2), 64).c == 2
    rep = check_quasimultiplicative(scale(mobius, Fraction(-3, 2)), 64)
    assert rep.verdict == CONSISTENT
    assert rep.c == Fraction(-3, 2)


def test_quasimultiplicative_needs_nonzero_at_one():
    # c_4(1) = 0 while c_4(2) != 0, so no constant works
    rep = check_quasimultiplicative(c_fn(4), 64)
    assert rep.verdict == REFUTED
    assert recheck_witness(c_fn(4), rep.witness)


def test_semimultiplicative_shift_of_c4():
    rep = check_semimultiplicative(c_fn(4), 64)
    assert rep.verdict == CONSISTENT
    assert rep.a == 2
    assert rep.c == -2


def test_semimultiplicative_shift_of_c_bar12():
    rep = check_semimultiplicative(c_bar_fn(12), 96)
    assert rep.verdict == CONSISTENT
    assert rep.a == 3
    assert rep.c == 3


def test_rearick_agrees_with_brute():
    fns = corpus() + [nplus1, scale(c_fn(5), Fraction(3, 2))]
    fns += [perturb(c_bar_fn(12), at, 5) for at in (4, 12)]
    fns += [perturb(mu_bar_fn(18), at, 5) for at in (8, 9)]
    for f in fns:
        rep = check_rearick(f, 32)
        expected = brute_rearick(f, 32)
        if expected is None:
            assert (rep.verdict, rep.witness, rep.reason) == (CONSISTENT, None, ""), f.name
        else:
            w = rep.witness
            assert (rep.verdict, w.m, w.n, w.lhs, w.rhs, rep.reason) == (REFUTED, *expected), f.name


def test_rearick_refutes_n_plus_one():
    rep = check_rearick(nplus1, 10)
    assert rep.verdict == REFUTED
    w = rep.witness
    # f(2)f(3) = 12 versus f(1)f(6) = 14 at the first coprime pair
    assert (w.m, w.n, w.lhs, w.rhs) == (2, 3, 12, 14)


def test_zero_function_verdicts():
    # the bare product law holds for the zero function; the other classes
    # need a nonzero constant, so they report the degenerate verdict
    assert check_multiplicative(zero, 32).verdict == CONSISTENT
    assert check_quasimultiplicative(zero, 32).verdict == IDENTICALLY_ZERO
    assert check_semimultiplicative(zero, 32).verdict == IDENTICALLY_ZERO
    assert check_rearick(zero, 32).verdict == CONSISTENT


def test_extract_selberg_c4():
    fac = extract_selberg(c_fn(4), 64)
    assert fac.constant == -2
    assert fac.a == 2
    assert fac.tables[2][0] == 0
    assert fac.tables[2][1] == 1
    assert fac.tables[2][2] == -1
    for p in fac.tables:
        if p != 2:
            assert all(v == 1 for v in fac.tables[p].values()), p


def test_extract_selberg_requires_consistency():
    with pytest.raises(ValueError):
        extract_selberg(nplus1, 32)


def test_reconstruction_matches_on_window():
    window = 64
    for f in [mobius, phi, scale(mobius, 2), c_fn(4), c_fn(9), c_fn(12), c_bar_fn(12)]:
        fac = extract_selberg(f, window)
        for n in range(1, window + 1):
            assert fac.reconstruct(n) == f(n), (f.name, n)


def test_factor_probes_beyond_window():
    # a = 2: reconstructing 4 * 25 needs F_5(2), first probed at 50 > 16
    fac = extract_selberg(c_fn(4), 16)
    assert fac.reconstruct(100) == c_fn(4)(100)


def test_classify_all_hierarchy_rows():
    reps = classify_all(mobius, 64)
    assert set(reps) == {MULTIPLICATIVE, QUASIMULTIPLICATIVE, SEMIMULTIPLICATIVE, SELBERG}
    assert all(r.consistent for r in reps.values())
    assert reps[SELBERG].selberg is not None

    reps = classify_all(c_fn(4), 64)
    assert reps[MULTIPLICATIVE].verdict == REFUTED
    assert reps[QUASIMULTIPLICATIVE].verdict == REFUTED
    assert reps[SEMIMULTIPLICATIVE].verdict == CONSISTENT
    assert reps[SELBERG].verdict == CONSISTENT


def test_dirichlet_of_multiplicative_stays_multiplicative():
    f = dirichlet(mobius, phi)
    assert check_multiplicative(f, 64).verdict == CONSISTENT


def test_pointwise_product_of_multiplicative_stays_multiplicative():
    f = pointwise_product(mobius, phi)
    assert check_multiplicative(f, 64).verdict == CONSISTENT


def test_shifted_law_on_semimultiplicative():
    # f(a) f(a m n) = f(a m) f(a n) for coprime m, n on any consistent case
    f = c_fn(8)
    rep = check_semimultiplicative(f, 96)
    assert rep.verdict == CONSISTENT
    a = rep.a
    for m in range(1, 12):
        for n in range(1, 12):
            if math.gcd(m, n) == 1 and a * m * n <= 96:
                assert f(a) * f(a * m * n) == f(a * m) * f(a * n), (m, n)
