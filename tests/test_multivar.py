import math
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import compress, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import multclass
from multclass import classes, multivar
from multclass import numtheory as nt
from multclass.arith import classical, scale
from multclass.classes import (
    CONSISTENT,
    IDENTICALLY_ZERO,
    LAWS,
    LAW_COVER,
    LAW_FORCED_SHIFT,
    LAW_MULT_U,
    LAW_QUASI_U,
    LAW_RATIO,
    LAW_SHIFTED_U,
    LAW_UNIT_U,
    MULTIPLICATIVE,
    QUASIMULTIPLICATIVE,
    REFUTED,
    SELBERG,
    SEMIMULTIPLICATIVE,
    ClassReport,
    SelbergFactorization,
    Witness,
    _WindowValues,
    _coords,
    _coprime_tuple_pairs,
    _like,
    _pmul,
    _report,
    _row,
    _signature,
    _sweep,
    check_semimultiplicative,
    classify_all,
    coprime_pairs,
    extract_selberg,
)
from multclass.corpus import corpus
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


def test_selberg_system_refuses_points_outside_its_window():
    # at window 6 no column holds the prime 7, and the 2-column stops at 2^2
    system = check_selberg_u(tensor(phi, phi), 6).system
    assert system.predict((6, 5)) == phi(6) * phi(5)
    with pytest.raises(ValueError, match=r"no F_7\(1, 0\), which \(7, 1\) needs"):
        system.predict((7, 1))
    with pytest.raises(ValueError, match=r"no F_2\(3, 0\), which \(8, 1\) needs"):
        system.predict((8, 1))


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
    assert check_multiplicative_u(zero2, 6).verdict == CONSISTENT
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


@pytest.mark.parametrize(
    "evaluate, pt, kind",
    [
        (lambda: extract_selberg(phi, 16).reconstruct, (4, 6), "an int"),
        (lambda: extract_selberg_u(tensor(c_fn(4), c_fn(1)), 8).reconstruct, (4, 1, 1), "a 2-tuple"),
        (lambda: check_selberg_u(tensor(phi, phi), 6).system.predict, 5, "a 2-tuple"),
        # window 1 has no primes, so the system's tables are empty
        (lambda: check_selberg_u(tensor(phi, phi), 1).system.predict, (1, 1, 1), "a 2-tuple"),
        (lambda: check_selberg_u(tensor(phi, phi), 1).system.predict, 1, "a 2-tuple"),
    ],
    ids=["one-variable-at-a-pair", "pair-at-a-triple", "system-at-an-int",
         "window-1-system-at-a-triple", "window-1-system-at-an-int"],
)
def test_factor_systems_refuse_points_of_another_kind(evaluate, pt, kind):
    # zip once cut the first two points to the system's arity, and len()
    # failed on the int; a window-1 system once read its arity off its
    # empty tables and took any point
    with pytest.raises(ValueError, match=re.escape(f"the system evaluates {kind}, got {pt!r}")):
        evaluate()(pt)


@pytest.mark.parametrize("name", [
    "check_multiplicative_u", "check_quasimultiplicative_u", "check_semimultiplicative_u",
    "extract_selberg_u", "check_selberg_u", "classify_all_u",
])
def test_tuple_checkers_are_defined_once_in_classes(name):
    # the benchmark patches every binding of one object; a wrapper in
    # multivar would hide the calls classes makes
    assert getattr(multivar, name) is getattr(classes, name) is getattr(multclass, name)
    assert getattr(classes, name).__module__ == "multclass.classes"


def test_factor_systems_compare_by_value():
    t = tensor(phi, phi)
    assert check_selberg_u(t, 6) == check_selberg_u(t, 6)
    assert check_selberg_u(t, 6) != check_selberg_u(tensor(phi, mobius), 6)
    assert classify_all(phi, 16) == classify_all(phi, 16)
    assert classify_all_u(t, 6) == classify_all_u(t, 6)
    # the function a factorization was read off is not part of its value
    fac = extract_selberg(phi, 16)
    assert replace(fac, source=mobius) == fac and fac != extract_selberg(phi, 8)


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


def test_refuted_tuple_sweep_keeps_the_lexicographic_witness():
    # (6, 1) is the least failing product, but the lexicographic sweep of
    # (n, m) meets n = (1, 2), m = (1, 5) before n = (2, 1), m = (3, 1)
    broken = {(6, 1): 7, (1, 10): 5}
    f = MultiArithFn("two-bumps", 2, lambda pt: broken.get(pt, 1))
    # each point of coprime_pairs stands for its splits (unit, N) and (q, r), if any
    items = coprime_pairs((12, 12))
    splits = (s for n, q, r in items for s in [((1, 1), n), (q, r)][: 1 + (q is not None)])
    first = _sweep(f, LAW_MULT_U, splits, _pmul)
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
def per_prime_products(
    draw, largest=None, arities=(2, 3), most_exceptions=2, zero_ps=(0.0, 0.0, 0.1, 0.3)
):
    """C * prod_p F_p(signature at p) on the multiples of a shift, else 0,
    with random columns for p <= W (zero entries, with probability drawn
    from zero_ps, included) and up to most_exceptions exception primes,
    F_p(0, ..., 0) = 0; then three times in four one window value is
    changed. The arity runs over arities and W up to largest[arity]."""
    # arity 3 stops at W = 8 by default, which keeps the oracle's full
    # sweeps short
    largest = largest or {2: 12, 3: 8}
    arity = draw(st.integers(*arities))
    window = draw(st.integers(1, largest[arity]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    zero_p = draw(st.sampled_from(zero_ps))
    primes = nt.primes_up_to(window)
    exceptions = set()
    if primes and draw(st.booleans()):
        exceptions = draw(
            st.sets(st.sampled_from(primes[:3]), min_size=1, max_size=most_exceptions)
        )
    ones = (1,) * arity
    shift = draw(st.sampled_from([ones, ones, ones, (2,) + ones[1:], (1, 3)[-arity:] + ones[2:]]))
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


def test_tuple_witness_sweep_skips_the_pairs_the_induction_proved(monkeypatch):
    # the least failing point is (2, 3, 1), of product 6: a pair of smaller
    # product splits a point before it, and the two splits per point that
    # decided the law prove every split of those; the least pair that fails
    # can still split a later point
    f = build_product(*flat_product(3, 6, 2, changes={(2, 3, 1): 5}))
    want = lexicographic_reports(f, 6)[2]
    law, seen = LAWS[LAW_SHIFTED_U], []

    def recording(f, m, n, *rest):
        seen.append((m, n))
        return law.evaluate(f, m, n, *rest)

    monkeypatch.setitem(LAWS, LAW_SHIFTED_U, replace(law, evaluate=recording))
    rep = check_semimultiplicative_u(f, 6)
    assert rep.verdict == REFUTED
    assert seen and all(math.prod(m) * math.prod(n) >= 6 for m, n in seen)
    assert report_fields(rep) == report_fields(want)


@settings(max_examples=150, deadline=None)
@given(per_prime_products(largest={2: 10, 3: 10}))
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
    with mock.patch.object(classes, "check_selberg_u", lambda f, window: None):
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
    # a sparse row holds the nonzero entries of the dense columns at pt
    for window in range(1, 13):
        primes = nt.primes_up_to(window)
        for pt in product(range(1, window + 1), repeat=u):
            dense = [(p, _signature(p, pt)) for p in primes]
            assert _row(pt) == tuple((p, s) for p, s in dense if any(s)), pt


def dense_selberg_u(f, window):
    """check_selberg_u as it was decided from dense columns: one signature
    column per prime p <= W over the whole box, zipped at every point, and
    every value read through the window table as a Fraction."""
    u = f.arity
    pts = list(product(range(1, window + 1), repeat=u))
    values = _WindowValues(f, window).__getitem__
    nonzero = [values(pt) != 0 for pt in pts]
    if not any(nonzero):
        return ClassReport(SELBERG, IDENTICALLY_ZERO, window, arity=u)
    primes = nt.primes_up_to(window) if window >= 2 else []
    zero_vec = (0,) * u
    support = list(compress(pts, nonzero))

    # owner[p][e]: the first support point of p-signature e (dict keeps the last write)
    cols, owner, zero_sigs = {}, {}, {}
    for p in primes:
        column = cols[p] = list(product(_signature(p, range(1, window + 1)), repeat=u))
        owner[p] = dict(zip(reversed(list(compress(column, nonzero))), reversed(support)))
        zero_sigs[p] = frozenset(set(column) - owner[p].keys())

    # phase 1: every zero must be explained by some candidate zero signature
    for pt, nz, *row in zip(pts, nonzero, *cols.values()):
        if not nz and not any(s in zero_sigs[p] for p, s in zip(primes, row)):
            sharers = [(p, owner[p][s]) for p, s in zip(primes, row)]
            _, owner0 = sharers[0] if sharers else (None, None)
            detail = "; ".join(f"f{q} != 0 shares the {p}-signature" for p, q in sharers)
            return ClassReport(
                SELBERG,
                REFUTED,
                window,
                arity=u,
                witness=Witness(
                    owner0, pt, values(pt), values(owner0) if owner0 else 1, LAW_COVER
                ),
                reason=f"f{pt} = 0 is not explained by any per-prime zero pattern ({detail})",
            )

    exceptions = tuple(p for p in primes if zero_vec in zero_sigs[p])
    ones = (1,) * u
    constant = Fraction(values(ones)) if values(ones) != 0 else Fraction(1)

    known = {}
    anchors = []
    for p in exceptions[1:]:
        live = sorted(owner[p])
        if live:
            known[(p, live[0])] = Fraction(1)
            anchors.append((p, live[0]))
    defining = {}

    equations = []
    for pt, *row in zip(support, *(compress(c, nonzero) for c in cols.values())):
        factors = tuple((p, s) for p, s in zip(primes, row) if s != zero_vec)
        equations.append((pt, Fraction(values(pt)), factors))

    changed = True
    while changed:
        changed = False
        for pt, value, factors in equations:
            unknown = [key for key in factors if key not in known]
            if len(unknown) != 1:
                continue
            rest = constant
            for key in factors:
                if key != unknown[0]:
                    rest *= known[key]
            if rest == 0:
                continue
            known[unknown[0]] = value / rest
            defining[unknown[0]] = pt
            changed = True

    stuck = [
        (pt, factors)
        for pt, _, factors in equations
        if any(key not in known for key in factors)
    ]
    if stuck:
        raise RuntimeError(
            f"window {window} leaves the factor system underdetermined at "
            f"{stuck[0][0]}; enlarge the window"
        )

    for pt, value, factors in equations:
        pred = constant
        for key in factors:
            pred *= known[key]
        if pred != value:
            origin = "; ".join(
                f"F_{p}{sig} = {known[(p, sig)]} pinned at {defining.get((p, sig), 'anchor')}"
                for p, sig in factors
            )
            return ClassReport(
                SELBERG,
                REFUTED,
                window,
                arity=u,
                witness=Witness(None, pt, Fraction(values(pt)), pred, LAW_RATIO),
                reason=(
                    f"with constant {constant} and {origin}, the product at {pt} "
                    f"is {pred} but f{pt} = {value}"
                ),
            )

    tables = {}
    for p in primes:
        col = {}
        for s in sorted(owner[p].keys() | zero_sigs[p]):
            if s in zero_sigs[p]:
                col[s] = Fraction(0)
            elif s == zero_vec:
                col[s] = Fraction(1)
            else:
                col[s] = known[(p, s)]
        tables[p] = col
    system = SelbergFactorization(constant, tables, exceptions=exceptions, anchors=tuple(anchors))
    return ClassReport(SELBERG, CONSISTENT, window, arity=u, system=system)


def selberg_fields(check, f, window):
    """Every field of a Selberg report, the system's included, as text, so
    that types count too; or the message of the RuntimeError raised."""
    try:
        rep = check(f, window)
    except RuntimeError as exc:
        return "raises", str(exc)
    s = rep.system
    system = None if s is None else (s.constant, s.tables, s.exceptions, s.anchors)
    return repr((report_fields(rep), rep.window, rep.arity, system))


@settings(max_examples=150, deadline=None)
@given(
    per_prime_products(
        largest={1: 12, 2: 12, 3: 12},
        arities=(1, 3),
        most_exceptions=3,
        zero_ps=(0.0, 0.1, 0.3, 1.0),
    )
)
# an exception prime explains every zero whose product it does not divide
@example(flat_product(2, 6, 1, exceptions=(2,)))
@example(flat_product(1, 12, 2, exceptions=(3,)))
@example(flat_product(3, 6, 1, exceptions=(2, 3, 5)))
# refuted by the zero pattern (the cover sharers) and by a ratio
@example(flat_product(2, 6, 1, changes={(2, 3): 0}))
@example(flat_product(3, 5, 1, exceptions=(2,), changes={(2, 3, 2): 0}))
@example(flat_product(2, 6, 1, changes={(2, 3): 5}))
# a ratio refutation with a negative constant and a Fraction prediction
@example(flat_product(2, 6, Fraction(-3, 2), changes={(2, 3): Fraction(-2, 3)}))
def test_selberg_u_matches_the_dense_solver(spec):
    f = build_product(*spec)
    window = spec[1]
    assert selberg_fields(check_selberg_u, f, window) == selberg_fields(dense_selberg_u, f, window)


def test_selberg_u_reads_each_box_value_once_under_the_memo():
    reads = Counter()

    class Checked(MultiArithFn):
        __slots__ = ()

        def __call__(self, point):
            reads["checked"] += 1
            return super().__call__(point)

    def hole(pt):
        reads[pt] += 1
        return 0 if pt in ((2, 3), (5, 5)) else 1

    for window, verdict in ((6, REFUTED), (4, REFUTED), (1, CONSISTENT)):
        reads.clear()
        f = Checked("hole", 2, hole)
        assert check_selberg_u(f, window).verdict == verdict
        assert reads == Counter(dict.fromkeys(product(range(1, window + 1), repeat=2), 1))


def system_predict(system, pt):
    """SelbergSystem.predict, kept as it was before one type held every
    factor system: the constant times every column's entry at pt."""
    sigs = dict.fromkeys(system.tables, (0,) * len(pt)) | dict(_row(pt))
    for p, s in sigs.items():
        if s not in system.tables.get(p, ()):
            raise ValueError(f"the system has no F_{p}{s}, which {pt} needs")
    return math.prod((system.tables[p][s] for p, s in sigs.items()), start=system.constant)


def factorization_reconstruct(fac, pt):
    """SelbergFactorization.reconstruct, with its factor(), kept as it was
    before one type held every factor system."""

    def factor(p, e):
        if e in fac.tables.get(p, ()):
            return fac.tables[p][e]
        probe = []
        for ai, ei in zip(_coords(fac.a), _coords(e)):
            na = nt.nu(p, ai)
            if ei < na:
                return Fraction(0)
            probe.append(ai * p ** (ei - na))
        return Fraction(fac.source(_like(fac.a, probe))) / Fraction(fac.constant)

    coords = _coords(pt)
    if any(x % ai for x, ai in zip(coords, _coords(fac.a))):
        return Fraction(0)
    ps = {p for x in coords for p, _ in nt.factorize(x)}
    val = Fraction(fac.constant)
    for p in sorted(ps):
        val *= factor(p, _like(pt, _signature(p, coords)))
    return val


def outcome(evaluate, pt):
    """The value as repr, so that its type counts, or the ValueError's text."""
    try:
        return repr(evaluate(pt))
    except ValueError as exc:
        return "raises", str(exc)


def window_and_past(arity, window, seed, count=40):
    """Every window point, then count random points of coordinates up to
    3W + 3, past the window in most draws."""
    rng = random.Random(seed)
    box = product(range(1, window + 1), repeat=arity)
    past = [tuple(rng.randint(1, 3 * window + 3) for _ in range(arity)) for _ in range(count)]
    return [*box, *past]


@settings(max_examples=100, deadline=None)
@given(per_prime_products(), st.integers(0, 2**32))
@example(flat_product(2, 6, 1, exceptions=(2,)), 0)
@example(flat_product(3, 5, 2, exceptions=(2, 3)), 1)
@example(flat_product(2, 12, Fraction(-3, 2)), 2)
def test_one_evaluator_matches_the_system_predict(spec, seed):
    # the product without its changed value, so that the solver fits a system
    f, (arity, window) = build_product(*spec[:5], {}), spec[:2]
    try:
        system = check_selberg_u(f, window).system
    except RuntimeError:  # an underdetermined window, ROADMAP item 1
        return
    if system is None:
        return
    for pt in window_and_past(arity, window, seed):
        got, want = outcome(system.predict, pt), outcome(partial(system_predict, system), pt)
        if max(pt) > window and any(math.prod(pt) % p for p in system.exceptions):
            # F_p(0, ..., 0) = 0 at such a prime: 0 without reading a factor,
            # where the old predict raised for a factor the window lacks
            assert got == repr(Fraction(0)) and want in (got, ("raises", want[1])), pt
        else:
            assert got == want, pt


# one-variable functions by least support point: tensors of them have the
# shifts (1, 1), (2, 1) and (12, 2)
SHIFTED = {1: (mobius, phi, scale(mobius, 2)), 2: (c_fn(4), c_fn(12)), 12: (c_fn(72),)}
CORPUS = corpus()


@st.composite
def factorizations(draw):
    """A SelbergFactorization from extract_selberg, of a one-variable
    corpus function or of a tensor with one of the shifts above, with the
    arity and window it was read on."""
    if draw(st.booleans()):
        f, window = draw(st.sampled_from(CORPUS)), draw(st.integers(1, 48))
        arity = 1
    else:
        shift = draw(st.sampled_from([(1, 1), (2, 1), (12, 2)]))
        f = tensor(*(draw(st.sampled_from(SHIFTED[a])) for a in shift))
        window, arity = draw(st.integers(max(shift), 16)), 2
    rep = (check_semimultiplicative_u if arity > 1 else check_semimultiplicative)(f, window)
    assume(rep.verdict == CONSISTENT)
    return extract_selberg(f, window, report=rep), arity, window


@settings(max_examples=100, deadline=None)
@given(factorizations(), st.integers(0, 2**32))
def test_one_evaluator_matches_the_factorization_reconstruct(fac_spec, seed):
    fac, arity, window = fac_spec
    for pt in window_and_past(arity, window, seed):
        pt = pt[0] if arity == 1 else pt
        want = outcome(partial(factorization_reconstruct, fac), pt)
        assert outcome(fac.reconstruct, pt) == want == outcome(fac.predict, pt), pt
