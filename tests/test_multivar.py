import math
from fractions import Fraction
from itertools import product

import pytest

import multclass
from multclass.arith import classical, scale
from multclass.classes import (
    CONSISTENT,
    IDENTICALLY_ZERO,
    MULTIPLICATIVE,
    QUASIMULTIPLICATIVE,
    REFUTED,
    SELBERG,
    SEMIMULTIPLICATIVE,
)
from multclass.multivar import (
    MultiArithFn,
    check_multiplicative_u,
    check_quasimultiplicative_u,
    check_selberg_u,
    check_semimultiplicative_u,
    check_two_variable_theorem,
    classify_all_u,
    dirichlet_u,
    extract_selberg_u,
    recheck_multi_witness,
    selberg_not_semimultiplicative,
    tensor,
)
from multclass.ramanujan import c_bar_fn, c_bar_two_var, c_fn, c_two_var

mobius = classical("mobius")
phi = classical("euler_phi")

counterexample = selberg_not_semimultiplicative()
sum2 = MultiArithFn("sum2", 2, lambda pt: pt[0] + pt[1])
zero2 = MultiArithFn("zero2", 2, lambda pt: 0)


def test_counterexample_values():
    # zero exactly when both coordinates are odd
    for n1, n2 in product(range(1, 9), repeat=2):
        expected = 0 if (n1 % 2 and n2 % 2) else 1
        assert counterexample((n1, n2)) == expected


def test_multiarithfn_validates():
    with pytest.raises(ValueError):
        sum2((1,))
    with pytest.raises(ValueError):
        sum2((0, 3))
    for arity in (0, 2.0, True):
        with pytest.raises(ValueError, match="arity must be a positive integer"):
            MultiArithFn("x", arity, lambda pt: 1)


def test_tensor_splits():
    t = tensor(mobius, phi)
    for n1, n2 in product(range(1, 13), repeat=2):
        assert t((n1, n2)) == mobius(n1) * phi(n2)


def test_tensor_of_multiplicative_is_multiplicative():
    t = tensor(mobius, phi)
    assert check_multiplicative_u(t, 12).verdict == CONSISTENT


def test_dirichlet_u_brute():
    f = tensor(mobius, mobius)
    g = tensor(phi, phi)
    h = dirichlet_u(f, g)
    for n1, n2 in product(range(1, 9), repeat=2):
        total = 0
        for d1 in range(1, n1 + 1):
            if n1 % d1:
                continue
            for d2 in range(1, n2 + 1):
                if n2 % d2:
                    continue
                total += f((d1, d2)) * g((n1 // d1, n2 // d2))
        assert h((n1, n2)) == total, (n1, n2)


def test_counterexample_multiplicative_refuted():
    rep = check_multiplicative_u(counterexample, 8)
    assert rep.verdict == REFUTED
    w = rep.witness
    assert (w.n, w.m) == ((1, 1), (1, 2))
    assert recheck_multi_witness(counterexample, w)


def test_counterexample_semimultiplicative_refuted_with_chain():
    rep = check_semimultiplicative_u(counterexample, 8)
    assert rep.verdict == REFUTED
    # support forces a = (1, 1) where the function vanishes
    assert rep.a == (1, 1)
    assert rep.forcing == ((1, 2), (2, 1))
    assert counterexample(rep.a) == 0
    assert recheck_multi_witness(counterexample, rep.witness)


def test_counterexample_selberg_consistent():
    rep = check_selberg_u(counterexample, 8)
    assert rep.verdict == CONSISTENT
    system = rep.system
    assert system.constant == 1
    assert system.exceptions == (2,)
    assert system.tables[2][(0, 0)] == 0
    assert system.predict((3, 5)) == 0
    assert system.predict((3, 4)) == 1


def test_classify_all_u_counterexample():
    reps = classify_all_u(counterexample, 8)
    assert reps[MULTIPLICATIVE].verdict == REFUTED
    assert reps[QUASIMULTIPLICATIVE].verdict == REFUTED
    assert reps[SEMIMULTIPLICATIVE].verdict == REFUTED
    assert reps[SELBERG].verdict == CONSISTENT


def test_sum2_selberg_refuted_small_window():
    rep = check_selberg_u(sum2, 3)
    assert rep.verdict == REFUTED
    w = rep.witness
    assert w.n == (2, 3)
    assert (w.lhs, w.rhs) == (5, 6)
    assert recheck_multi_witness(sum2, w)


def test_sum2_selberg_refuted_window_six():
    rep = check_selberg_u(sum2, 6)
    assert rep.verdict == REFUTED
    w = rep.witness
    # constant 2, F_2(0,1) = 3/2 from (1,2), F_3(0,1) = 2 from (1,3)
    assert w.n == (1, 6)
    assert (w.lhs, w.rhs) == (7, 6)


def test_sum2_window_two_underdetermined():
    # a 2x2 window has one free table entry per signature: no obstruction yet
    assert check_selberg_u(sum2, 2).verdict == CONSISTENT


def test_zero_function_multivar_verdicts():
    assert check_quasimultiplicative_u(zero2, 6).verdict == IDENTICALLY_ZERO
    assert check_semimultiplicative_u(zero2, 6).verdict == IDENTICALLY_ZERO
    assert check_selberg_u(zero2, 6).verdict == IDENTICALLY_ZERO


def test_extract_selberg_u_tensor():
    t = tensor(mobius, phi)
    fac = extract_selberg_u(t, 12)
    assert fac.constant == 1
    assert fac.a == (1, 1)
    assert fac.tables[2][(1, 1)] == -1
    assert fac.tables[2][(1, 2)] == -2
    assert fac.tables[2][(2, 0)] == 0
    for n1, n2 in product(range(1, 13), repeat=2):
        assert fac.reconstruct((n1, n2)) == t((n1, n2)), (n1, n2)


def test_extract_selberg_u_reconstructs_beyond_window():
    t = tensor(scale(mobius, 2), phi)
    fac = extract_selberg_u(t, 10)
    assert fac.constant == 2
    assert fac.reconstruct((25, 4)) == t((25, 4))


def test_extract_selberg_u_arity_three():
    t = tensor(c_fn(4), phi, c_bar_fn(12))
    fac = extract_selberg_u(t, 6)
    assert fac.a == (2, 1, 3)
    assert fac.constant == t((2, 1, 3))
    for pt in product(range(1, 7), repeat=3):
        assert fac.reconstruct(pt) == t(pt), pt
    assert fac.reconstruct((8, 7, 36)) == t((8, 7, 36))


def test_one_factor_system_type():
    assert multclass.MultiSelbergFactorization is multclass.SelbergFactorization


def test_selberg_system_gauge_check():
    # consistency must hold across signatures that mix several primes
    t = tensor(mobius, mobius)
    rep = check_selberg_u(t, 10)
    assert rep.verdict == CONSISTENT
    sys_ = rep.system
    for n1, n2 in product(range(1, 11), repeat=2):
        assert sys_.predict((n1, n2)) == t((n1, n2)), (n1, n2)


def test_two_variable_theorem_families():
    for fam in (c_two_var(), c_bar_two_var()):
        rep = check_two_variable_theorem(fam, 20)
        assert rep.even_ok
        assert rep.mult_in_modulus_ok
        assert rep.conclusion.verdict == CONSISTENT
        assert rep.chain_ok
        assert rep.ok


def test_two_variable_theorem_needs_evenness():
    proj1 = MultiArithFn("proj1", 2, lambda pt: pt[0])
    rep = check_two_variable_theorem(proj1, 10)
    assert not rep.even_ok
    # f(2, 1) = 2 but f(gcd(2,1), 1) = 1
    assert rep.even_witness == (1, 2, 2, 1)
    assert not rep.ok


def test_quasimultiplicative_u_constant():
    f = MultiArithFn("two_mob", 2, lambda pt: 2 * mobius(pt[0]) * mobius(pt[1]))
    rep = check_quasimultiplicative_u(f, 10)
    assert rep.verdict == CONSISTENT
    assert rep.c == 2
    assert check_multiplicative_u(f, 10).verdict == REFUTED


def test_semimultiplicative_u_shifted_tensor():
    # dilate each coordinate: support starts at (2, 3)
    f = MultiArithFn(
        "shifted", 2,
        lambda pt: mobius(pt[0] // 2) * phi(pt[1] // 3)
        if pt[0] % 2 == 0 and pt[1] % 3 == 0
        else 0,
    )
    rep = check_semimultiplicative_u(f, 12)
    assert rep.verdict == CONSISTENT
    assert rep.a == (2, 3)
    assert rep.c == 1


def test_window_guards():
    with pytest.raises(ValueError):
        check_multiplicative_u(sum2, 0)
    three = MultiArithFn("three", 4, lambda pt: 1)
    with pytest.raises(ValueError):
        check_multiplicative_u(three, 4)
