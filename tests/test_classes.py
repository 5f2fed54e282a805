import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multclass import numtheory as nt
from multclass.arith import MEMO_SIZE, ArithFn, classical, dirichlet, pointwise_product, scale
from multclass.classes import (
    CONSISTENT,
    IDENTICALLY_ZERO,
    LAW_MULT,
    LAW_QUASI,
    LAW_REARICK,
    LAW_SHIFTED,
    LAW_SUPPORT,
    LAW_UNIT,
    MULTIPLICATIVE,
    QUASIMULTIPLICATIVE,
    REARICK,
    REFUTED,
    SELBERG,
    SEMIMULTIPLICATIVE,
    ClassReport,
    _least_support,
    _report,
    _splits,
    _sweep,
    _wide_splits,
    check_multiplicative,
    check_quasimultiplicative,
    check_rearick,
    check_semimultiplicative,
    classify_all,
    coprime_pairs,
    extract_selberg,
    recheck_witness,
)
from multclass.corpus import corpus
from multclass.multivar import (
    check_quasimultiplicative_u,
    check_semimultiplicative_u,
    classify_all_u,
    extract_selberg_u,
    tensor,
)
from multclass.ramanujan import c_bar_fn, c_fn, mu_bar_fn
from multclass.suites import run_suite

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


def test_extract_selberg_tables_are_the_probe_ratios():
    window = 48
    for f in corpus() + [scale(c_fn(5), Fraction(3, 2)), scale(c_bar_fn(12), Fraction(-5, 7))]:
        semi = check_semimultiplicative(f, window)
        if semi.verdict != CONSISTENT:
            continue
        a, c = semi.a, Fraction(semi.c)
        for p, col in extract_selberg(f, window, report=semi).tables.items():
            na = nt.nu(p, a)
            top = na  # the largest exponent whose probe fits in the window
            while a * p ** (top + 1 - na) <= window:
                top += 1
            assert sorted(col) == list(range(top + 1)), (f.name, p)
            for e, v in col.items():
                want = Fraction(0) if e < na else Fraction(f(a * p ** (e - na))) / c
                assert type(v) is Fraction and v == want, (f.name, p, e)


def test_extract_selberg_requires_consistency():
    with pytest.raises(ValueError):
        extract_selberg(nplus1, 32)


def test_extract_selberg_refuses_a_plain_callable_with_value_error():
    # a plain callable has no name; the message falls back to its repr
    with pytest.raises(ValueError, match="is not semimultiplicative-consistent on window 10"):
        extract_selberg(lambda n: n + 1, 10)


def test_extract_selberg_names_the_multivariable_extractor():
    with pytest.raises(ValueError, match="extract_selberg_u"):
        extract_selberg(tensor(c_fn(4), phi), 8)


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


def every_split(bound):
    """Every ordered coprime pair (m, n) with m*n <= bound, by (m*n, m): the
    full sweep that the two-split coprime_pairs replaces."""
    return (pair for prod in range(1, bound + 1) for pair in _splits(1, prod))


def full_sweep_reports(f, window):
    """The multiplicative, quasimultiplicative and semimultiplicative
    reports as a sweep over every coprime split gives them."""
    mult = _report(MULTIPLICATIVE, window, _sweep(f, LAW_MULT, every_split(window)))
    k = _least_support(f, range(1, window + 1))
    if k is None:
        return (
            mult,
            ClassReport(QUASIMULTIPLICATIVE, IDENTICALLY_ZERO, window),
            ClassReport(SEMIMULTIPLICATIVE, IDENTICALLY_ZERO, window),
        )
    w = _sweep(f, LAW_UNIT, [(1, k)])
    if w is not None:
        quasi = _report(QUASIMULTIPLICATIVE, window, w)
    else:
        w = _sweep(f, LAW_QUASI, every_split(window), c=f(1))
        quasi = _report(QUASIMULTIPLICATIVE, window, w, c=f(1))
    w = _sweep(f, LAW_SUPPORT, ((k, n) for n in range(k + 1, window + 1)), a=k)
    if w is None:
        w = _sweep(f, LAW_SHIFTED, every_split(window // k), c=f(k), a=k)
        semi = _report(SEMIMULTIPLICATIVE, window, w, c=f(k), a=k)
    else:
        semi = _report(SEMIMULTIPLICATIVE, window, w, a=k)
    return mult, quasi, semi


def coprime_reports(f, window):
    return (
        check_multiplicative(f, window),
        check_quasimultiplicative(f, window),
        check_semimultiplicative(f, window),
    )


def report_fields(rep):
    w = rep.witness
    seen = None if w is None else (w.m, w.n, w.lhs, w.rhs, w.law, w.shift)
    return rep.klass, rep.verdict, rep.c, rep.a, rep.reason, seen


def test_coprime_checkers_match_the_full_sweep_on_the_corpus():
    for f in corpus():
        got = [report_fields(r) for r in coprime_reports(f, 64)]
        assert got == [report_fields(r) for r in full_sweep_reports(f, 64)], f.name


VALUES = st.sampled_from([0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def near_members(draw):
    """C * prod_p F_p(nu_p(n / a)) on the multiples of a, else 0, with
    random columns for p <= 7 and F_p(e) = tail**e past 7; then f(1) may be
    overridden and up to three window values changed."""
    window = draw(st.integers(1, 150))
    changes = {}
    one = draw(st.sampled_from([None, 0, 2, Fraction(1, 2)]))
    if one is not None:
        changes[1] = one
    for _ in range(draw(st.integers(0, 3))):
        changes[draw(st.integers(1, window))] = draw(VALUES)
    return dict(
        window=window,
        C=draw(st.sampled_from([1, 2, Fraction(3, 2), -1])),
        a=draw(st.sampled_from([1, 2, 3, 4, 6])),
        columns={p: draw(st.lists(VALUES, min_size=1, max_size=7)) for p in (2, 3, 5, 7)},
        tail=draw(VALUES),
        changes=changes,
    )


def build_near_member(window, C, a, columns, tail, changes):
    def factor(p, e):
        col = columns.get(p)
        return tail**e if col is None else col[min(e, len(col)) - 1]

    def member(n):
        if n % a:
            return 0
        value = C
        for p, e in nt.factorize(n // a):
            value *= factor(p, e)
        return value

    return ArithFn("near", lambda n: changes[n] if n in changes else member(n))


def member_spec(window, changes):
    """A near_members spec: multiplicative (C = 1, a = 1, every column 2,
    tail 3) but for the changed values."""
    columns = {p: [2] for p in (2, 3, 5, 7)}
    return dict(window=window, C=1, a=1, columns=columns, tail=3, changes=changes)


@settings(max_examples=300, deadline=None)
@given(near_members())
# f(1) != 1 makes the unit splits (1, N) of LAW_MULT instances of their own:
# f(1) = 0 fails at (1, k), k the least support point, f(1) = 1/2 at (1, 1)
@example(member_spec(30, {1: 0}))
@example(member_spec(30, {1: 0, 2: 0, 3: 0}))
@example(member_spec(30, {1: Fraction(1, 2)}))
def test_coprime_checkers_match_the_full_sweep(spec):
    f = build_near_member(**spec)
    got = [report_fields(r) for r in coprime_reports(f, spec["window"])]
    assert got == [report_fields(r) for r in full_sweep_reports(f, spec["window"])]


def classify_all_by_three_checkers(f, window):
    """classify_all as one call of each coprime-pair checker gives it."""
    semi = check_semimultiplicative(f, window)
    selberg = replace(semi, klass=SELBERG)
    if semi.verdict == CONSISTENT:
        selberg.selberg = extract_selberg(f, window, report=semi)
    return {
        MULTIPLICATIVE: check_multiplicative(f, window),
        QUASIMULTIPLICATIVE: check_quasimultiplicative(f, window),
        SEMIMULTIPLICATIVE: semi,
        SELBERG: selberg,
    }


def all_fields(reports):
    """Every row's fields, by repr, so that 1 and Fraction(1) differ."""
    out = {}
    for klass, rep in reports.items():
        fac = rep.selberg
        tables = None if fac is None else (repr(fac.constant), fac.a, repr(fac.tables))
        out[klass] = (repr(report_fields(rep)), tables)
    return out


@settings(max_examples=300, deadline=None)
@given(near_members())
def test_classify_all_matches_the_three_checkers(spec):
    f, window = build_near_member(**spec), spec["window"]
    got = classify_all(f, window)
    expected = classify_all_by_three_checkers(f, window)
    assert list(got) == list(expected)
    assert all_fields(got) == all_fields(expected)


def test_classify_all_evaluates_the_law_of_each_row():
    # f(1) = Fraction(1), so the multiplicative row is derived too, with
    # its own law and sides and no shift
    f = ArithFn("near", lambda n: 5 if n == 6 else Fraction(1) * mobius(n))
    reps = classify_all(f, 16)
    assert all_fields(reps) == all_fields(classify_all_by_three_checkers(f, 16))
    rows = [reps[k].witness for k in (MULTIPLICATIVE, QUASIMULTIPLICATIVE, SEMIMULTIPLICATIVE)]
    assert [(w.m, w.n, w.law, w.shift) for w in rows] == [
        (2, 3, LAW_MULT, None),
        (2, 3, LAW_QUASI, None),
        (2, 3, LAW_SHIFTED, 1),
    ]
    assert reps[QUASIMULTIPLICATIVE].reason == "f(1)*f(6) = 5 but f(2)*f(3) = 1"


@st.composite
def lcm_perturbed(draw):
    """A near member on a window of at most 40, with up to three more values
    changed at a * lcm(u, v) for u, v <= W // a: points the Rearick identity
    reaches past the window through the lcm of two multiples of a."""
    spec = draw(near_members())
    window = spec["window"] = draw(st.integers(1, 40))
    top = max(1, window // spec["a"])
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(1, top)), draw(st.integers(1, top))
        spec["changes"][spec["a"] * math.lcm(u, v)] = draw(VALUES)
    return spec


def rearick_fields(rep):
    w = rep.witness
    seen = None if w is None else (w.m, w.n, w.lhs, w.rhs, rep.reason)
    return rep.klass, rep.verdict, rep.c, rep.a, seen


@settings(max_examples=300, deadline=None)
@given(lcm_perturbed())
def test_rearick_matches_the_pair_sweep(spec):
    f, window = build_near_member(**spec), spec["window"]
    rep = check_rearick(f, window)
    expected = brute_rearick(f, window)
    verdict = CONSISTENT if expected is None else REFUTED
    assert rearick_fields(rep) == (REARICK, verdict, None, None, expected)
    if rep.witness is not None:
        assert rep.witness.law == LAW_REARICK
        assert recheck_witness(f, rep.witness)


def test_rearick_reads_products_past_the_window():
    # semimultiplicative on 1..40, but f(42) breaks f(6) f(7) = f(1) f(42)
    f = perturb(phi, 42, 0)
    assert check_semimultiplicative(f, 40).verdict == CONSISTENT
    rep = check_rearick(f, 40)
    w = rep.witness
    assert (rep.verdict, w.m, w.n, w.lhs, w.rhs, rep.reason) == (REFUTED, *brute_rearick(f, 40))
    assert math.lcm(w.m, w.n) == 42


@pytest.mark.parametrize("at, verdict", [(None, CONSISTENT), (66, REFUTED)])
def test_rearick_keeps_values_past_the_window_out_of_the_memo(at, verdict):
    # at 66 = 6 * 11 > 64 the window stays semimultiplicative, so the
    # decision and then the pair sweep read lcm values past the window
    g = ArithFn("phi'", lambda n: 0 if n == at else nt.euler_phi(n))
    assert check_rearick(g, 64).verdict == verdict
    assert g._eval.cache_info().currsize <= 64


def test_rearick_bounds_the_memo_of_an_inner_function():
    inner = ArithFn("phi'", nt.euler_phi)
    assert check_rearick(scale(inner, 2), 160).verdict == CONSISTENT
    info = inner._eval.cache_info()
    assert info.currsize <= MEMO_SIZE < info.misses


def test_rearick_takes_the_semimultiplicative_report():
    for f in corpus():
        semi = check_semimultiplicative(f, 32)
        assert check_rearick(f, 32, semi) == check_rearick(f, 32), f.name
    semi = check_semimultiplicative(phi, 32)
    for field in ({"window": 16}, {"klass": QUASIMULTIPLICATIVE}, {"arity": 2}):
        with pytest.raises(ValueError, match="semimultiplicative report on window 32"):
            check_rearick(phi, 32, replace(semi, **field))


@pytest.mark.parametrize("check", [check_rearick, extract_selberg, extract_selberg_u])
@pytest.mark.parametrize("other", ["window", "class", "arity"])
def test_a_handed_in_report_must_be_the_semimultiplicative_one(check, other):
    # f is phi on 1..32 but f(40) = 99: from the window-32 report,
    # extract_selberg(f, 64) would predict f(40) = 16
    f1 = perturb(phi, 40, 99)
    fu = tensor(f1, classical("one"))
    semi = {f1: check_semimultiplicative(f1, 32), fu: check_semimultiplicative_u(fu, 32)}
    f, g = (fu, f1) if check is extract_selberg_u else (f1, fu)
    quasi = check_quasimultiplicative if f is f1 else check_quasimultiplicative_u
    window, report = {
        "window": (64, semi[f]),
        "class": (32, quasi(f, 32)),
        "arity": (32, semi[g]),
    }[other]
    assert report.verdict == CONSISTENT
    with pytest.raises(ValueError, match="semimultiplicative report on window"):
        check(f, window, report)


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 10, 31])
def test_wide_splits_visit_each_product_past_the_bound_once(bound):
    products = {
        u * v
        for u in range(1, bound + 1)
        for v in range(u + 1, bound + 1)
        if math.gcd(u, v) == 1 and u * v > bound
    }
    for block in (1, 7, 1 << 20):
        splits = list(_wide_splits(bound, block))
        assert all(u < v <= bound and math.gcd(u, v) == 1 for u, v in splits)
        assert sorted(u * v for u, v in splits) == sorted(products)


@pytest.mark.parametrize("window, count", [(1, 1), (64, 100), (16384, 30806)])
def test_coprime_pairs_yields_two_splits_per_composite_product(window, count):
    several = sum(1 for n in range(1, window + 1) if nt.omega(n) >= 2)
    assert sum(1 for _ in coprime_pairs(window)) == window + several == count


def test_classify_all_reads_each_window_value_once():
    # the semimultiplicative decision reads f once per window point, the
    # derived rows read nothing, and extract_selberg reads only its probes
    # p**e, at most once more
    calls = Counter()

    def counted(n):
        calls[n] += 1
        return nt.euler_phi(n)

    reps = classify_all(ArithFn("phi", counted), 512)
    assert all(rep.verdict == CONSISTENT for rep in reps.values())
    assert reps[SEMIMULTIPLICATIVE].a == 1
    assert sorted(calls) == list(range(1, 513))
    assert all(k == 1 for n, k in calls.items() if nt.omega(n) != 1)
    assert max(calls.values()) <= 2


def raising_past(bound, fn):
    def guarded(n):
        if n > bound:
            raise ValueError(f"evaluated at {n}")
        return fn(n)

    return ArithFn(f"guarded:{bound}", guarded)


def test_multiplicative_evaluates_only_up_to_the_first_failure():
    f = raising_past(10, lambda n: 2 if n == 1 else n)
    rep = check_multiplicative(f, 1000)
    assert rep.verdict == REFUTED
    assert (rep.witness.m, rep.witness.n) == (1, 1)


def test_rearick_evaluates_only_up_to_the_first_failure():
    rep = check_rearick(raising_past(6, lambda n: n + 1), 20)
    assert rep.verdict == REFUTED
    w = rep.witness
    assert (w.m, w.n, w.lhs, w.rhs) == (2, 3, 12, 14)


@pytest.mark.parametrize("window", [True, 10.0, "10", 0])
@pytest.mark.parametrize(
    "check",
    [
        lambda w: classify_all(phi, w),
        lambda w: check_rearick(phi, w),
        lambda w: classify_all_u(tensor(mobius, phi), w),
        lambda w: run_suite("mu-bar-dual", w),
        lambda w: run_suite("quasi-identities", w),
        lambda w: run_suite("lahiri-rs", w),
    ],
    ids=[
        "classify_all",
        "check_rearick",
        "classify_all_u",
        "mu-bar-dual",
        "quasi-identities",
        "lahiri-rs",
    ],
)
def test_windows_must_be_positive_integers(check, window):
    with pytest.raises(ValueError, match="window must be a positive integer"):
        check(window)
