import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multclass import arith
from multclass import numtheory as nt
from multclass.arith import (
    ArithFn,
    classical,
    compose,
    dirichlet,
    eta,
    format_rational,
    pointwise_product,
    scale,
    sum_of_squares,
    unitary,
)

mobius = classical("mobius")
phi = classical("euler_phi")
one = classical("one")
identity_n = classical("identity_n")

WINDOW = 200


def test_classical_tables():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert [phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert [one(n) for n in range(1, 5)] == [1, 1, 1, 1]
    assert [identity_n(n) for n in range(1, 5)] == [1, 2, 3, 4]


def test_arithfn_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mobius(0)
    with pytest.raises(ValueError):
        mobius(-3)
    with pytest.raises(ValueError):
        mobius(2.5)
    for bad in (True, False):
        with pytest.raises(ValueError, match="phi is defined on positive integers"):
            phi(bad)


def test_dirichlet_mobius_one_is_unit():
    # mu * 1 = e, the convolution identity
    e = dirichlet(mobius, one)
    assert e(1) == 1
    for n in range(2, WINDOW + 1):
        assert e(n) == 0, n


def test_dirichlet_phi_one_is_n():
    f = dirichlet(phi, one)
    for n in range(1, WINDOW + 1):
        assert f(n) == n


def test_dirichlet_mobius_n_is_phi():
    f = dirichlet(mobius, identity_n)
    for n in range(1, WINDOW + 1):
        assert f(n) == phi(n)


def test_dirichlet_brute():
    f = dirichlet(phi, phi)
    for n in range(1, 60):
        assert f(n) == sum(phi(d) * phi(n // d) for d in nt.divisors(n))


def test_unitary_brute():
    f = unitary(mobius, phi)
    for n in range(1, 60):
        assert f(n) == sum(
            mobius(d) * phi(n // d)
            for d in nt.divisors(n)
            if math.gcd(d, n // d) == 1
        )


def test_pointwise_product():
    f = pointwise_product(mobius, phi)
    for n in range(1, 40):
        assert f(n) == mobius(n) * phi(n)


def test_scale():
    f = scale(mobius, 2)
    assert [f(n) for n in range(1, 7)] == [2, -2, -2, 0, -2, 2]
    g = scale(phi, Fraction(-3, 2))
    assert g(4) == -3
    assert g(5) == -6
    with pytest.raises(ValueError):
        scale(mobius, 0)


def test_compose_dilate():
    f = compose(phi, "dilate_kn", 3)
    for n in range(1, 40):
        assert f(n) == phi(3 * n)


def test_compose_k_over_n():
    # f(n) = phi(12/n) when n | 12, else 0
    f = compose(phi, "k_over_n", 12)
    assert [f(n) for n in range(1, 14)] == [4, 2, 2, 2, 0, 1, 0, 0, 0, 0, 0, 1, 0]


def test_compose_n_over_k():
    f = compose(phi, "n_over_k", 4)
    assert [f(n) for n in range(1, 13)] == [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2]


def test_compose_gcd_lcm():
    f = compose(phi, "gcd_k", 12)
    g = compose(phi, "lcm_k", 4)
    for n in range(1, 40):
        assert f(n) == phi(math.gcd(n, 12))
        assert g(n) == phi((n * 4) // math.gcd(n, 4))


def test_compose_rejects_unknown_kind():
    with pytest.raises(ValueError):
        compose(phi, "quotient", 3)


def test_eta():
    f = eta(6)
    assert [f(n) for n in range(1, 8)] == [1, 2, 3, 0, 0, 6, 0]


def test_sum_of_squares_brute():
    def brute(s, n):
        # all integer s-tuples with squares summing to n
        bound = math.isqrt(n)
        counts = [0] * (n + 1)
        counts[0] = 1
        for _ in range(s):
            nxt = [0] * (n + 1)
            for total in range(n + 1):
                if counts[total] == 0:
                    continue
                for x in range(-bound, bound + 1):
                    t = total + x * x
                    if t <= n:
                        nxt[t] += counts[total]
            counts = nxt
        return counts[n]

    for s in (2, 4, 8):
        f = sum_of_squares(s)
        for n in range(1, 30):
            assert f(n) == brute(s, n), (s, n)


def test_sum_of_squares_known_values():
    r2 = sum_of_squares(2)
    assert [r2(n) for n in (1, 2, 3, 4, 5, 25)] == [4, 4, 0, 4, 8, 12]
    assert sum_of_squares(4)(1) == 8
    assert sum_of_squares(8)(1) == 16
    for s in (3, 2.0, 4.0, True):
        with pytest.raises(ValueError):
            sum_of_squares(s)


def test_square_tables_stop_doubling_at_the_budget(monkeypatch):
    monkeypatch.setattr(arith, "_square_tables", {})
    monkeypatch.setattr(arith, "SQUARES_BUDGET", 300)
    assert len(arith._square_rep_counts(2, 200)) == 257
    # doubling would build 512 entries; the budget caps the build at 300
    counts = arith._square_rep_counts(2, 257)
    assert len(counts) == 301
    assert [counts[n] for n in (1, 2, 3, 4, 5, 25, 289)] == [4, 4, 0, 4, 8, 12, 12]
    # an argument past the budget still gets its table
    assert len(arith._square_rep_counts(2, 400)) == 401


def test_format_rational():
    assert format_rational(5) == "5"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 2)) == "-3/2"


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
def test_dirichlet_commutes(m, n):
    f = dirichlet(mobius, phi)
    g = dirichlet(phi, mobius)
    assert f(m) == g(m)
    assert f(n) == g(n)


def test_names_are_stable():
    assert mobius.name == "mobius"
    assert eta(4).name == "eta:4"
    assert sum_of_squares(2).name == "r2"
    assert dirichlet(mobius, one).name == "dirichlet(mobius,one)"
    assert compose(phi, "gcd_k", 12).name == "gcdk:12(phi)"


# convolution specs over the CLI leaves, with fractional scales and the
# zero-heavy eta:k and noverk:k(...) among their operands
_LEAVES = st.one_of(
    st.sampled_from(["phi", "mobius", "one", "identity"]),
    st.builds("{}:{}".format, st.sampled_from(["c", "c_bar", "mu_bar", "eta", "g"]),
              st.integers(1, 48)),
)


def _unary_or_binary(inner):
    return st.one_of(
        st.builds("scale:{}({})".format, st.sampled_from(["2", "-1", "1/2", "3/2", "-2/3"]), inner),
        st.builds("{}:{}({})".format, st.sampled_from(["noverk", "kovern", "dilate", "gcdk", "lcmk"]),
                  st.integers(1, 6), inner),
        st.builds("{}({},{})".format, st.sampled_from(["dirichlet", "unitary", "product"]),
                  inner, inner),
    )


_OPERANDS = st.recursive(_LEAVES, _unary_or_binary, max_leaves=4)
_CONVOLUTIONS = st.builds("{}({},{})".format, st.sampled_from(["dirichlet", "unitary"]),
                          _OPERANDS, _OPERANDS)


@settings(max_examples=120, deadline=None)
@given(_CONVOLUTIONS, st.integers(1, 300), st.randoms(use_true_random=False))
@example("dirichlet(noverk:2(phi),scale:1/2(phi))", 300, random.Random(0))
def test_convolution_window_reads_equal_the_per_point_values(spec, window, rng):
    from multclass.classes import _WindowValues
    from multclass.cli import parse_fn_spec

    f = parse_fn_spec(spec)
    values = _WindowValues(f, window)
    points = list(range(1, window + 3))
    rng.shuffle(points)
    for n in points:
        got, want = values.past(n), f._eval.__wrapped__(n)
        assert (got, type(got)) == (want, type(want)), (spec, n)
        got = values[n]
        assert (got, type(got)) == (want, type(want)), (spec, n)


def test_a_convolution_sweep_reads_its_window_off_the_sieve(monkeypatch):
    from multclass.classes import check_semimultiplicative

    calls = []
    divisors = nt.divisors
    monkeypatch.setattr(nt, "divisors", lambda n: calls.append(n) or divisors(n))
    assert check_semimultiplicative(dirichlet(mobius, phi), 512).consistent
    # only the least-support read of f(1) goes point by point
    assert calls == [1]


def test_an_early_refutation_reads_a_convolution_to_twice_its_point():
    from multclass.classes import REFUTED, classify_all

    seen = []
    g = ArithFn("g", lambda n: seen.append(n) or (5 if n == 6 else mobius(n)))
    reports = classify_all(dirichlet(one, g), 4096)
    assert {r.verdict for r in reports.values()} == {REFUTED}
    assert reports["semimultiplicative"].witness.n == 3
    assert max(seen) <= 12


# operator trees over the CLI leaves: fractional scales, products, the five
# compositions and both convolutions, over zero-heavy leaves among others
_OP_TREES = st.recursive(_LEAVES, _unary_or_binary, max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(_OP_TREES, st.integers(1, 300), st.randoms(use_true_random=False))
@example("unitary(scale:-2/3(mobius),c:29)", 3352, random.Random(0))
@example("scale:3/2(dirichlet(eta:12,scale:-1(noverk:2(mobius))))", 200, random.Random(1))
def test_op_readers_equal_the_per_point_values(spec, window, rng):
    from multclass.cli import parse_fn_spec

    f = parse_fn_spec(spec)
    read = f.reader(window)
    points = [*range(1, window + 1), window + 1, window + 7, 2 * window + 1, 3 * window]
    rng.shuffle(points)
    for n in points:
        got, want = read(n), f._eval.__wrapped__(n)
        assert (got, type(got)) == (want, type(want)), (spec, n)


def test_a_convolution_under_a_unary_op_reads_its_window_off_the_sieve(monkeypatch):
    from multclass.classes import check_semimultiplicative
    from multclass.cli import parse_fn_spec

    calls = []
    divisors = nt.divisors
    monkeypatch.setattr(nt, "divisors", lambda n: calls.append(n) or divisors(n))
    for op in ("scale:2/3", "noverk:2", "kovern:12", "gcdk:12"):
        calls.clear()
        f = parse_fn_spec(f"{op}(dirichlet(mobius,phi))")
        check_semimultiplicative(f, 512)
        # at most the least-support reads go point by point
        assert len(calls) <= 2, (op, calls)
