import math
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multclass
from multclass import multivar
from multclass import numtheory as nt
from multclass.arith import classical, scale
from multclass.classes import (
    CONSISTENT,
    IDENTICALLY_ZERO,
    LAW_FORCED_SHIFT,
    LAW_MULT_U,
    LAW_QUASI_U,
    LAW_SHIFTED_U,
    LAW_UNIT_U,
    MULTIPLICATIVE,
    QUASIMULTIPLICATIVE,
    REFUTED,
    SELBERG,
    SEMIMULTIPLICATIVE,
    ClassReport,
    _pmul,
    _report,
    _signature,
    _sweep,
)
from multclass.multivar import (
    MultiArithFn,
    _coprime_tuple_pairs,
    _signature_column,
    _tuple_splits,
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
    for bad in ((True, 2), (2, False), (2.0, 2)):
        with pytest.raises(ValueError, match="defined on positive integers"):
            tensor(phi, phi)(bad)
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


@pytest.mark.parametrize(
    "caps, splits, pairs", [((14, 14, 14), 5370, 19499), ((40, 40), 3114, 10695), ((1, 1), 1, 1)]
)
def test_tuple_splits_are_two_per_point_of_several_primes(caps, splits, pairs):
    several = sum(
        1 for pt in product(*(range(1, c + 1) for c in caps)) if nt.omega(math.prod(pt)) >= 2
    )
    got = list(_tuple_splits(caps))
    assert len(got) == math.prod(caps) + several == splits
    assert sum(1 for _ in _coprime_tuple_pairs(caps)) == pairs
    points = [_pmul(m, n) for m, n in got if m == (1,) * len(caps)]
    assert points == sorted(points, key=lambda pt: (math.prod(pt), pt))


def test_refuted_tuple_sweep_keeps_the_lexicographic_witness():
    # (6, 1) is the least failing product, but the lexicographic sweep of
    # (n, m) meets n = (1, 2), m = (1, 5) before n = (2, 1), m = (3, 1)
    broken = {(6, 1): 7, (1, 10): 5}
    f = MultiArithFn("two-bumps", 2, lambda pt: broken.get(pt, 1))
    first = _sweep(f, LAW_MULT_U, _tuple_splits((12, 12)), _pmul)
    assert _pmul(first.m, first.n) == (6, 1)
    rep = check_multiplicative_u(f, 12)
    w = rep.witness
    assert (w.m, w.n, w.lhs, w.rhs) == ((1, 5), (1, 2), 5, 1)
    assert rep.reason == "f((1, 10)) = 5 but f((1, 2))*f((1, 5)) = 1"
    lexicographic = ((m, n) for n, m in _coprime_tuple_pairs((12, 12)))
    assert w == _sweep(f, LAW_MULT_U, lexicographic, _pmul)


def lexicographic_reports(f, window):
    """The multiplicative, quasimultiplicative and semimultiplicative
    reports as a lexicographic sweep of every coprime tuple pair, reading f
    directly, gives them."""
    u = f.arity
    ones = (1,) * u
    swapped = [(m, n) for n, m in _coprime_tuple_pairs((window,) * u)]
    mult = _report(MULTIPLICATIVE, window, _sweep(f, LAW_MULT_U, swapped, _pmul), arity=u)
    support = [pt for pt in product(range(1, window + 1), repeat=u) if f(pt) != 0]
    if not support:
        return (
            mult,
            ClassReport(QUASIMULTIPLICATIVE, IDENTICALLY_ZERO, window, arity=u),
            ClassReport(SEMIMULTIPLICATIVE, IDENTICALLY_ZERO, window, arity=u),
        )
    w = _sweep(f, LAW_UNIT_U, [(support[0], ones)], _pmul)
    if w is None:
        w = _sweep(f, LAW_QUASI_U, swapped, _pmul, c=f(ones))
        quasi = _report(QUASIMULTIPLICATIVE, window, w, arity=u, c=f(ones))
    else:
        quasi = _report(QUASIMULTIPLICATIVE, window, w, arity=u)
    a, forcing = support[0], [support[0]]
    for pt in support:
        if tuple(map(math.gcd, a, pt)) != a:
            a = tuple(map(math.gcd, a, pt))
            forcing.append(pt)
    known = {"arity": u, "a": a, "forcing": tuple(forcing)}
    w = _sweep(f, LAW_FORCED_SHIFT, [(forcing[0], a)], _pmul)
    if w is None:
        caps = tuple(window // ai for ai in a)
        w = _sweep(f, LAW_SHIFTED_U, _coprime_tuple_pairs(caps), _pmul, c=f(a), a=a)
        semi = _report(SEMIMULTIPLICATIVE, window, w, c=f(a), **known)
    else:
        semi = _report(SEMIMULTIPLICATIVE, window, w, **known)
        chain = "; ".join(f"f{pt} != 0 forces a | {pt}" for pt in forcing)
        semi.reason = f"{chain}; {semi.reason}"
    return mult, quasi, semi


def report_fields(rep):
    w = rep.witness
    seen = None if w is None else (w.m, w.n, w.lhs, w.rhs, w.law, w.shift)
    return rep.klass, rep.verdict, rep.c, rep.a, rep.forcing, rep.reason, seen


VALUES = [0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def per_prime_products(draw, largest=(12, 8)):
    """C * prod_p F_p(signature at p) on the multiples of a shift, else 0,
    with random columns for p <= W (zero entries included) and up to two
    exception primes, F_p(0, ..., 0) = 0; then three times in four one
    window value is changed. W runs up to largest[arity - 2]."""
    arity = draw(st.integers(2, 3))
    # arity 3 stops at W = 8 by default, which keeps the oracle's full
    # sweeps short
    window = draw(st.integers(1, largest[arity - 2]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    zero_p = draw(st.sampled_from([0.0, 0.0, 0.1, 0.3]))
    primes = nt.primes_up_to(window)
    exceptions = set()
    if primes and draw(st.booleans()):
        exceptions = draw(st.sets(st.sampled_from(primes[:3]), min_size=1, max_size=2))
    ones = (1,) * arity
    shift = draw(st.sampled_from([ones, ones, ones, (2,) + ones[1:], (1, 3) + ones[2:]]))
    columns = {}
    for p in primes:
        top = 0  # the largest exponent of p in the window
        while p ** (top + 1) <= window:
            top += 1
        col = columns[p] = {}
        for sig in product(range(top + 1), repeat=arity):
            col[sig] = 0 if rng.random() < zero_p else rng.choice(VALUES[1:])
        col[(0,) * arity] = 0 if p in exceptions else 1
    changes = {}
    if draw(st.integers(0, 3)):
        pt = tuple(draw(st.integers(1, window)) for _ in range(arity))
        changes[pt] = draw(st.sampled_from(VALUES))
    return arity, window, draw(st.sampled_from([1, 2, Fraction(-3, 2)])), shift, columns, changes


def build_product(arity, window, C, shift, columns, changes):
    def member(pt):
        if any(x % a for x, a in zip(pt, shift)):
            return 0
        sigs = [dict(nt.factorize(x // a).pairs) for x, a in zip(pt, shift)]
        value = C
        for p, col in columns.items():
            value *= col[tuple(sig.get(p, 0) for sig in sigs)]
        return value

    return MultiArithFn("product", arity, lambda pt: changes[pt] if pt in changes else member(pt))


@settings(max_examples=300, deadline=None)
@given(per_prime_products())
# f(1, 1) != 1 makes the unit splits ((1, 1), N) of LAW_MULT_U instances of
# their own: f(1, 1) = 2 fails at ((1, 1), (1, 1)), f(1, 1) = 0 at the first
# N with f(N) != 0
@example((2, 6, 1, (1, 1), {}, {(1, 1): 2}))
@example((2, 6, 1, (1, 1), {}, {(1, 1): 0}))
def test_tuple_checkers_match_the_lexicographic_sweep(spec):
    f = build_product(*spec)
    window = spec[1]
    got = (
        check_multiplicative_u(f, window),
        check_quasimultiplicative_u(f, window),
        check_semimultiplicative_u(f, window),
    )
    assert [report_fields(r) for r in got] == [
        report_fields(r) for r in lexicographic_reports(f, window)
    ]


def flat_product(arity, window, C, exceptions=(), changes=None):
    """A per_prime_products spec with shift (1, ..., 1) and every column 1,
    except F_p(0, ..., 0) = 0 at the exception primes."""
    columns = {}
    for p in nt.primes_up_to(window):
        top = next(e for e in range(window) if p ** (e + 1) > window)
        columns[p] = {sig: 1 for sig in product(range(top + 1), repeat=arity)}
        columns[p][(0,) * arity] = 0 if p in exceptions else 1
    return arity, window, C, (1,) * arity, columns, changes or {}


@settings(max_examples=150, deadline=None)
@given(per_prime_products(largest=(10, 10)))
# f(1, 1) = 0 with support gcd (1, 1): refuted by LAW_FORCED_SHIFT, so c is None
@example(flat_product(2, 6, 1, exceptions=(2,)))
@example(flat_product(3, 4, 2, exceptions=(3,)))
# c = 1 and c != 1, consistent and refuted at a pair with m != n
@example(flat_product(2, 6, 1))
@example(flat_product(3, 6, Fraction(-3, 2)))
@example(flat_product(2, 6, 1, changes={(2, 3): 5}))
@example(flat_product(2, 6, 2, changes={(6, 1): 3}))
@example(flat_product(3, 5, 1, exceptions=(2, 3), changes={(1, 1, 1): 1}))
# the zero function
@example(flat_product(2, 1, 1, changes={(1, 1): 0}))
def test_classify_all_u_matches_the_three_checkers(spec):
    f = build_product(*spec)
    window = spec[1]
    # the Selberg row is check_selberg_u's own, which can still raise
    with mock.patch.object(multivar, "check_selberg_u", lambda f, window: None):
        reports = classify_all_u(f, window)
    got = [reports[k] for k in (MULTIPLICATIVE, QUASIMULTIPLICATIVE, SEMIMULTIPLICATIVE)]
    want = (
        check_multiplicative_u(f, window),
        check_quasimultiplicative_u(f, window),
        check_semimultiplicative_u(f, window),
    )
    assert [report_fields(r) for r in got] == [report_fields(r) for r in want]
    assert all(r.arity == spec[0] for r in got)


@pytest.mark.parametrize("u", [1, 2, 3])
def test_signature_columns_match_the_signatures(u):
    for window in range(1, 13):
        for p in nt.primes_up_to(window):
            points = product(range(1, window + 1), repeat=u)
            assert _signature_column(p, window, u) == [_signature(p, pt) for pt in points]
