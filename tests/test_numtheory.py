import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multclass import numtheory as nt


def test_primes_up_to_small():
    assert nt.primes_up_to(1) == []
    assert nt.primes_up_to(2) == [2]
    assert nt.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_brute():
    for n in range(1, 500):
        naive = n > 1 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))
        assert nt.is_prime(n) == naive, n


def test_factorize_known():
    assert nt.factorize(1).pairs == ()
    assert nt.factorize(12).pairs == ((2, 2), (3, 1))
    assert nt.factorize(97).pairs == ((97, 1),)
    assert nt.factorize(360).pairs == ((2, 3), (3, 2), (5, 1))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        nt.factorize(0)
    with pytest.raises(ValueError):
        nt.factorize(-6)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_round_trip(n):
    fac = nt.factorize(n)
    assert fac.value() == n
    assert math.prod(p**e for p, e in fac) == n
    for p, e in fac:
        assert nt.is_prime(p)
        assert e >= 1


@given(st.integers(min_value=1, max_value=5000))
@settings(max_examples=60)
def test_divisors_brute(n):
    expected = [d for d in range(1, n + 1) if n % d == 0]
    assert list(nt.divisors(n)) == expected


def test_unitary_divisors_brute():
    for n in range(1, 200):
        expected = [
            d for d in range(1, n + 1) if n % d == 0 and math.gcd(d, n // d) == 1
        ]
        assert list(nt.unitary_divisors(n)) == expected, n


def test_euler_phi_brute():
    for n in range(1, 300):
        assert nt.euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_radical_and_omega():
    assert nt.radical(1) == 1
    assert nt.radical(12) == 6
    assert nt.radical(360) == 30
    assert nt.omega(1) == 0
    assert nt.omega(12) == 2
    assert nt.omega(30030) == 6


def test_nu():
    assert nt.nu(2, 40) == 3
    assert nt.nu(5, 40) == 1
    assert nt.nu(7, 40) == 0
    assert nt.nu(2, 1) == 0


def test_is_squareful():
    # 1 is squareful by the empty-product convention
    assert nt.is_squareful(1)
    squareful = [n for n in range(1, 73) if nt.is_squareful(n)]
    assert squareful == [1, 4, 8, 9, 16, 25, 27, 32, 36, 49, 64, 72]


def test_is_regular_mod_brute():
    # a is regular mod r iff a*a*x == a (mod r) has a solution
    for r in range(1, 40):
        for a in range(r):
            brute = any((a * a * x - a) % r == 0 for x in range(r))
            assert nt.is_regular_mod(a, r) == brute, (a, r)


def test_regular_residues_count_is_multiplicative_formula():
    for r in range(1, 120):
        expected = math.prod(nt.euler_phi(p**e) + 1 for p, e in nt.factorize(r))
        assert len(nt.regular_residues(r)) == expected, r


def test_sieve_bound_guard(monkeypatch):
    monkeypatch.setenv(nt.SIEVE_BOUND_ENV, "100")
    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(100)
        assert nt.primes_up_to(100)[-1] == 97
        with pytest.raises(nt.SieveBoundError):
            nt.primes_up_to(101)
    finally:
        nt.set_sieve_bound(old)


def test_is_prime_above_the_sieve_bound():
    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(100)
        for n in range(101, 10_001):
            naive = all(n % d for d in range(2, math.isqrt(n) + 1))
            assert nt.is_prime(n) == naive, n
        with pytest.raises(nt.SieveBoundError):
            nt.is_prime(100 * 100 + 1)
    finally:
        nt.set_sieve_bound(old)
