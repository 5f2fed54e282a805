import math
import pickle
import re

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


def test_factorization_contract():
    fac = nt.factorize(360)
    assert fac.pairs == ((2, 3), (3, 2), (5, 1))
    assert fac.pairs is fac.pairs  # a stored attribute, not rebuilt per read
    assert list(fac) == list(fac.pairs) and len(fac) == 3 and fac.value() == 360
    assert len(nt.factorize(1)) == 0 and nt.factorize(1).value() == 1
    same = nt.Factorization(((2, 3), (3, 2), (5, 1)))
    assert same == fac and hash(same) == hash(fac) and len({same, fac}) == 1
    assert fac != nt.factorize(180) and fac != fac.pairs
    for change in (lambda: setattr(fac, "pairs", ()), lambda: delattr(fac, "pairs"),
                   lambda: setattr(fac, "other", 1)):
        with pytest.raises(AttributeError):
            change()
    assert fac.pairs == ((2, 3), (3, 2), (5, 1))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_factorization_survives_pickle(protocol):
    for n in (1, 97, 360):
        fac = nt.factorize(n)
        back = pickle.loads(pickle.dumps(fac, protocol))
        assert type(back) is nt.Factorization and back == fac and back.pairs == fac.pairs
        with pytest.raises(AttributeError):
            back.pairs = ()


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


@pytest.mark.parametrize("bound", [5.5, True, 3, "64"])
def test_set_sieve_bound_takes_only_integers_of_at_least_four(bound):
    old = nt.sieve_bound()
    with pytest.raises(
        ValueError,
        match=rf"^the sieve bound \(MULTCLASS_SIEVE_BOUND\) must be an integer of at least 4, "
        rf"got {re.escape(repr(bound))}$",
    ):
        nt.set_sieve_bound(bound)
    assert nt.sieve_bound() == old
    assert nt.factorize(12).pairs == ((2, 2), (3, 1))


@pytest.mark.parametrize("raw, shown", [("0", "0"), ("2", "2"), ("abc", "'abc'"), ("5.5", "'5.5'")])
def test_sieve_bound_from_the_environment_is_checked(monkeypatch, raw, shown):
    monkeypatch.setenv(nt.SIEVE_BOUND_ENV, raw)
    monkeypatch.setattr(nt, "_sieve_bound", None)
    for _ in range(2):  # a refused value is not kept
        with pytest.raises(ValueError, match=rf"\(MULTCLASS_SIEVE_BOUND\) .* got {shown}$"):
            nt.sieve_bound()
    monkeypatch.setenv(nt.SIEVE_BOUND_ENV, " 64 ")
    assert nt.sieve_bound() == 64


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


def _trial_division(n):
    pairs = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


@pytest.mark.parametrize(
    "fn, args",
    [
        (nt.is_prime, (2.0,)),
        (nt.is_prime, ("7",)),
        (nt.is_regular_mod, (2.0, 3)),
        (nt.is_unitary_divisor, (2.0, 4)),
        (nt.nu, (2.0, 8)),
        (nt.primes_up_to, (10.5,)),
        (nt.factorize, (True,)),
        (nt.divisors, (True,)),
        (nt.euler_phi, (True,)),
        (nt.regular_residues, (True,)),
        (nt.radical, (True,)),
        (nt.radical, (2.0,)),
        (nt.omega, (True,)),
        (nt.omega, (2.0,)),
        (nt.unitary_divisors, (True,)),
        (nt.unitary_divisors, (2.0,)),
    ],
    ids=lambda x: getattr(x, "__name__", repr(x)),
)
def test_non_integer_arguments_raise_value_error(fn, args):
    with pytest.raises(ValueError, match=r"must be an? (\w+ )?integer, got"):
        fn(*args)


def test_factorize_matches_trial_division_across_table_growth():
    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(old)  # start from an empty table
        for n in range(1, 50_001):
            assert nt.factorize(n).pairs == _trial_division(n), n
    finally:
        nt.set_sieve_bound(old)


def test_factorize_past_a_small_bound():
    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(100)
        for n in range(101, 10_001):
            assert nt.factorize(n).pairs == _trial_division(n), n
        with pytest.raises(nt.SieveBoundError):
            nt.factorize(2 * 101 * 103)  # cofactor 10403 > 100**2
    finally:
        nt.set_sieve_bound(old)


def test_walk_equals_factorize():
    for n in range(1, 5001):
        assert tuple(nt._walk(n)) == nt.factorize(n).pairs, n


def test_walk_past_a_shrunk_bound():
    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(64)
        for n in range(1, 64**2 + 1):
            assert tuple(nt._walk(n)) == _trial_division(n), n
        # 2 * 1999: the cofactor 1999 is a prime above the bound
        assert tuple(nt._walk(2 * 1999)) == ((2, 1), (1999, 1))
        with pytest.raises(nt.SieveBoundError):
            list(nt._walk(67 * 71))  # 4757 > 64**2, no prime factor up to 64
    finally:
        nt.set_sieve_bound(old)


def test_least_prime_power():
    def expected(n):
        p, e = nt.factorize(n).pairs[0]
        return p**e

    assert nt.least_prime_power(1) == 1
    for bad in (0, 12.0):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            nt.least_prime_power(bad)
    for n in range(2, 100_001):
        assert nt.least_prime_power(n) == expected(n), n
    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(100)
        for n in range(2, 10_001):
            assert nt.least_prime_power(n) == expected(n), n
    finally:
        nt.set_sieve_bound(old)


def test_primes_stay_consistent_across_table_growth():
    def brute(n):
        return [k for k in range(2, n + 1) if _trial_division(k) == ((k, 1),)]

    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(10**6)
        assert nt.primes_up_to(30) == brute(30)
        assert nt.factorize(500_000).pairs == ((2, 5), (5, 6))
        assert nt.primes_up_to(1000) == brute(1000)
    finally:
        nt.set_sieve_bound(old)


def test_table_grows_only_as_far_as_used():
    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(10**6)
        nt.sieve_bound()
        nt.factorize(97)
        assert len(nt._spf_upto(1)) < 2**13 + 1
    finally:
        nt.set_sieve_bound(old)


def test_table_is_built_at_the_bound_once_twice_n_reaches_three_quarters(monkeypatch):
    sizes = []
    sieve = nt._sieve

    def recording(size):
        sizes.append(size)
        return sieve(size)

    old = nt.sieve_bound()
    try:
        monkeypatch.setattr(nt, "_sieve", recording)
        nt.set_sieve_bound(100_000)
        for n in (5_000, 37_499, 90_000):
            nt.factorize(n)
        nt.set_sieve_bound(100_000)
        for n in (37_500, 90_000):
            nt.factorize(n)
        # a W = 512 Rearick lcm still gets a table of twice its size
        nt.set_sieve_bound(10**6)
        nt.factorize(2**18)
        # the sieve's recursive calls for the square root stay below 2**12
        assert [s for s in sizes if s >= 1 << 12] == [10_000, 74_998, 100_000, 100_000, 2**19]
    finally:
        nt.set_sieve_bound(old)


def test_two_byte_table_agrees_with_trial_division_across_two_to_the_sixteen():
    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(200_000)
        t = nt._sieve(200_000)
        assert t.itemsize == 2
        for k in range(2, 200_001, 97):
            least = _trial_division(k)[0][0]
            assert t[k] == (0 if least == k else least), k
        for k in range(65_000, 66_100):
            least = _trial_division(k)[0][0]
            assert t[k] == (0 if least == k else least), k
        assert nt.factorize(2 * 65537).pairs == ((2, 1), (65537, 1))
        assert nt.least_prime_power(65537) == 65537
        assert nt.least_prime_power(3**10 * 65537) == 3**10
        primes = [k for k in range(65_500, 65_601) if _trial_division(k) == ((k, 1),)]
        assert nt.primes_up_to(65_600)[-3:] == primes[-3:]
    finally:
        nt.set_sieve_bound(old)


def test_cached_factorizations_share_their_pairs():
    nt.factorize.cache_clear()
    assert nt.factorize(12).pairs[0] is nt.factorize(20).pairs[0]
    assert nt.factorize(20).pairs == ((2, 2), (5, 1))


def test_least_prime_powers_agree_with_trial_division_across_growth():
    from multclass.classes import _least_powers

    def expected(k):
        if k < 2:
            return k
        p, e = _trial_division(k)[0]
        return p**e

    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(200_000)
        small = nt._spf_upto(100, 2, _least_powers)
        assert len(small) == (1 << 12) + 1  # 0..2**12: at least 2**12, as the table
        assert all(small[k] == expected(k) for k in range(len(small)))
        # twice 80,000 reaches 3/4 of the bound: built at it
        grown = nt._spf_upto(80_000, 2, _least_powers)
        assert len(grown) == 200_001 and nt._spf_upto(1, 2, _least_powers) is grown
        for k in [*range(65_000, 66_100), *range(2, 200_001, 97), 199_999, 200_000]:
            assert grown[k] == expected(k), k
        assert nt.least_prime_power(3**10) == 3**10 and nt.least_prime_power(2 * 65537) == 2
        # a new bound drops the table with its parts
        nt.set_sieve_bound(200_000)
        assert nt._table[2] is None and len(nt._spf_upto(5000, 2, _least_powers)) == 10_001
    finally:
        nt.set_sieve_bound(old)
