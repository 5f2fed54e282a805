import cmath
import math
from fractions import Fraction

import pytest

from multclass import numtheory as nt
from multclass.arith import ArithFn, classical, compose, dirichlet, eta, one, pointwise_product
from multclass.classes import CONSISTENT, check_multiplicative, check_semimultiplicative
from multclass.ramanujan import (
    c,
    c_bar,
    c_bar_fn,
    c_bar_oracle,
    c_fn,
    c_oracle,
    even_profile,
    g,
    mu_bar,
    mu_bar_fn,
    mu_bar_indicator,
    mu_bar_oracle,
    semimult_params_c,
    semimult_params_c_bar,
)
from multclass.suites import quasi_failure

mobius = classical("mobius")

TOL = 1e-9


def close(z, v):
    return abs(z - v) <= TOL


def test_c_frozen_tables():
    assert [c(4, n) for n in (1, 2, 3, 4, 6, 8, 12)] == [0, -2, 0, 2, -2, 2, 2]
    assert [c(9, n) for n in range(1, 10)] == [0, 0, -3, 0, 0, -3, 0, 0, 6]
    assert [c(1, n) for n in range(1, 5)] == [1, 1, 1, 1]


def test_c_at_one_is_mobius():
    for r in range(1, 120):
        assert c(r, 1) == mobius(r), r


def test_c_at_r_is_phi():
    for r in range(1, 120):
        assert c(r, r) == nt.euler_phi(r), r


def test_c_divisor_sum_definition():
    # sum of d * mu(r/d) over d | gcd(n, r)
    for r in range(1, 40):
        for n in range(1, 40):
            total = sum(d * mobius(r // d) for d in nt.divisors(math.gcd(n, r)))
            assert c(r, n) == total, (r, n)


def test_c_oracle_is_exponential_sum():
    for r in range(1, 16):
        for n in range(1, 16):
            z = sum(
                cmath.exp(2j * cmath.pi * a * n / r)
                for a in range(1, r + 1)
                if math.gcd(a, r) == 1
            )
            w = c_oracle(r, n)
            assert close(w.real, z.real) and close(w.imag, z.imag), (r, n)


def test_c_against_oracle():
    for r in range(1, 50):
        for n in range(1, 50):
            z = c_oracle(r, n)
            assert abs(z.imag) <= 1e-6, (r, n)
            assert abs(z.real - c(r, n)) <= 1e-6, (r, n)


def test_c_prime_power_cases():
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            q = p**k
            for n in range(1, 3 * q):
                e = nt.nu(p, n)
                if e >= k:
                    expected = q - q // p
                elif e == k - 1:
                    expected = -(q // p)
                else:
                    expected = 0
                assert c(q, n) == expected, (q, n)


def test_g_is_unitary_divisor_indicator():
    for r in range(1, 60):
        for n in range(1, 60):
            expected = 1 if r % n == 0 and math.gcd(n, r // n) == 1 else 0
            assert g(r, n) == expected, (r, n)


def test_mu_bar_frozen_values():
    assert [mu_bar(12, n) for n in (1, 2, 3, 4, 6, 9, 12)] == [1, -1, 0, 1, 0, -1, 0]
    assert mu_bar(5, 2) == -1
    assert mu_bar(4, 2) == -1
    assert mu_bar(4, 4) == 1
    assert mu_bar(4, 8) == -1
    assert mu_bar(4, 16) == 0


def test_mu_bar_is_multiplicative():
    for r in (4, 9, 12, 30, 36):
        rep = check_multiplicative(mu_bar_fn(r), 48)
        assert rep.verdict == CONSISTENT, r


def test_mu_bar_matches_mobius_inversion():
    # mu_bar = g_r * mu, the inverse route to the prime-power recipe
    for r in range(1, 80):
        for n in range(1, 80):
            assert mu_bar(r, n) == mu_bar_oracle(r, n), (r, n)


def test_mu_bar_dual_sum():
    # summing mu_bar over divisors recovers the unitary indicator g_r
    for r in range(1, 60):
        for n in range(1, 60):
            total = sum(mu_bar(r, d) for d in nt.divisors(n))
            assert total == g(r, n), (r, n)


def test_c_bar_frozen_values():
    assert c_bar(12, 12) == 9
    assert c_bar(12, 1) == 0
    assert c_bar(12, 3) == 3
    assert c_bar(9, 3) == -2
    assert c_bar(46, 46) == 46
    assert c_bar(46, 1) == 0


def test_c_bar_unitary_sum_of_c():
    for r in range(1, 80):
        for n in range(1, 80):
            total = sum(c(d, n) for d in nt.unitary_divisors(r))
            assert c_bar(r, n) == total, (r, n)


def test_c_bar_prime_powers():
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            q = p**k
            for n in range(1, 2 * q):
                assert c_bar(q, n) == 1 + c(q, n), (q, n)


def test_c_bar_at_one_is_mu_bar_indicator():
    for r in range(1, 100):
        assert c_bar(r, 1) == mu_bar_indicator(r), r


def test_mu_bar_indicator():
    hits = [r for r in range(1, 40) if mu_bar_indicator(r) == 1]
    assert hits == [1, 4, 8, 9, 16, 25, 27, 32, 36]


def test_c_bar_against_oracle():
    for r in range(1, 40):
        for n in range(1, 40):
            z = c_bar_oracle(r, n)
            assert abs(z.imag) <= 1e-6, (r, n)
            assert abs(z.real - c_bar(r, n)) <= 1e-6, (r, n)


def test_even_profile_of_c():
    for r in (1, 4, 12, 18):
        prof = even_profile(c_fn(r), r)
        assert prof.is_periodic and prof.is_even, r


def test_even_profile_counterexample():
    prof = even_profile(classical("identity_n"), 3)
    assert not prof.is_even
    assert prof.witness is not None


def test_semimult_params_c():
    assert semimult_params_c(4) == (2, -2)
    assert semimult_params_c(12) == (2, 2)
    assert semimult_params_c(9) == (3, -3)
    for r in (1, 2, 6, 30):
        # squarefree: a = 1 and the value at 1 is mu(r)
        assert semimult_params_c(r) == (1, mobius(r)), r


def test_semimult_params_match_checker():
    for r in range(1, 25):
        a, value = semimult_params_c(r)
        rep = check_semimultiplicative(c_fn(r), 4 * r)
        assert rep.verdict == CONSISTENT
        assert (rep.a, rep.c) == (a, value), r


def test_semimult_params_c_bar():
    assert semimult_params_c_bar(12) == (3, 3)
    assert semimult_params_c_bar(46) == (46, 46)
    assert semimult_params_c_bar(8) == (1, 1)
    for r in range(1, 20):
        a, value = semimult_params_c_bar(r)
        rep = check_semimultiplicative(c_bar_fn(r), 4 * r)
        assert rep.verdict == CONSISTENT
        assert (rep.a, rep.c) == (a, value), r


def test_c_as_convolution_in_n():
    # c_r = (eta_r . mu(r/.)) * 1 pointwise on an initial segment
    for r in (1, 4, 6, 12):
        lhs = dirichlet(
            pointwise_product(eta(r), compose(mobius, "k_over_n", r)), one
        )
        f = c_fn(r)
        for n in range(1, 4 * r + 1):
            assert lhs(n) == f(n), (r, n)


def test_quasi_identity_families():
    for r in range(1, 33):
        mur = mobius(r)
        mbr = mu_bar_indicator(r)
        for m in range(1, 33):
            for n in range(1, 33):
                if math.gcd(m, n) != 1:
                    continue
                assert c(r, m) * c(r, n) == mur * c(r, m * n), (r, m, n)
                assert c_bar(r, m) * c_bar(r, n) == mbr * c_bar(r, m * n), (r, m, n)


def nested_quasi_detail(f, const, window):
    """The quasi-identities suite's former inline check, kept as the oracle."""
    for m in range(1, window + 1):
        for n in range(1, window + 1):
            if math.gcd(m, n) != 1:
                continue
            if f(m) * f(n) != const * f(m * n):
                return f"fails at {(m, n)}"
    return ""


def changed_at(f, point, value):
    return ArithFn(f"{f.name}@{point}", lambda n: value if n == point else f(n))


@pytest.mark.parametrize(
    "fn, const", [(c_fn, mobius), (c_bar_fn, mu_bar_indicator)], ids=["c", "c_bar"]
)
def test_quasi_failure_matches_the_nested_loop(fn, const):
    window = 12
    details = []
    for r in (1, 2, 4, 6, 8, 9, 12):
        f, k = fn(r), const(r)
        cases = [(f, k)]
        cases += [(f, wrong) for wrong in (k + 1, -k - 1, 2 * k - 1, Fraction(1, 2))]
        cases += [(changed_at(f, point, f(point) + 3), k) for point in (1, 6, 12, 35, 77)]
        for g, cc in cases:
            detail = quasi_failure(g, cc, window)
            assert detail == nested_quasi_detail(g, cc, window), (g.name, cc)
            details.append(detail)
    assert details[0] == ""
    assert sum(1 for d in details if d) > len(details) // 2


def test_quasi_failure_details():
    assert quasi_failure(c_fn(6), mobius(6), 20) == ""
    assert quasi_failure(c_fn(6), -1, 20) == "fails at (1, 1)"
    assert quasi_failure(changed_at(c_fn(6), 35, 7), 1, 8) == "fails at (5, 7)"


@pytest.mark.parametrize(
    "entry",
    [
        eta,
        lambda k: compose(classical("phi"), "gcd_k", k),
        lambda r: nt.is_regular_mod(3, r),
        nt.regular_residues,
        lambda r: even_profile(mobius, r),
        semimult_params_c,
        semimult_params_c_bar,
        mu_bar_indicator,
    ],
    ids=[
        "eta",
        "compose",
        "is_regular_mod",
        "regular_residues",
        "even_profile",
        "semimult_params_c",
        "semimult_params_c_bar",
        "mu_bar_indicator",
    ],
)
def test_parameters_must_be_positive_integers(entry):
    for bad in (2.0, "3", 0):
        with pytest.raises(ValueError, match="must be a positive integer, got"):
            entry(bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda: eta(True),
        lambda: compose(classical("phi"), "dilate_kn", True),
        lambda: c(True, 3),
        lambda: c(4, True),
        lambda: c_fn(0),
        lambda: c_fn(True),
    ],
    ids=["eta(True)", "compose-True", "c(True,3)", "c(4,True)", "c_fn(0)", "c_fn(True)"],
)
def test_bool_and_zero_parameters_are_refused_up_front(make):
    # a bool is no integer argument, and a factory checks its modulus when
    # it builds the function, not when the function is first called
    with pytest.raises(ValueError, match=r"must be an? (\w+ )?integer, got (True|0)$"):
        make()
