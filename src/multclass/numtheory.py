"""Exact integer arithmetic primitives.

Table-backed factorization, p-adic valuations, divisor structure, and the
regular-residue test. Everything runs on plain Python ints, so nothing
overflows, and nothing in this module touches floating point.

All functions are pure. The smallest-prime-factor table, two bytes an
entry, grows on demand, never past the sieve bound, and each growth is
published whole: the table and the parts made from it (its primes, the
sweeps' least prime powers) are rebound together as one value. A caller
therefore only ever reads a table with its own parts, so concurrent
callers are safe; results never depend on call order. Cached
factorizations share their (p, e) pairs through one bounded cache.

The module loads no other multclass module and, beyond `array`, only
standard-library modules the interpreter loads at start-up (no dataclasses,
no fractions), so it is cheap to load on its own.
"""

import bisect
import math
import os
from array import array
from collections.abc import Iterator
from functools import lru_cache
from itertools import compress, islice, starmap
from operator import not_

DEFAULT_SIEVE_BOUND = 10**6
SIEVE_BOUND_ENV = "MULTCLASS_SIEVE_BOUND"


class SieveBoundError(ValueError):
    """Raised when an input would need primes beyond the sieve bound."""


_sieve_bound: int | None = None
# The smallest-prime-factor table t (t[k] is the least prime of a composite
# k, else 0), then its primes and its least prime powers, once made.
_EMPTY: tuple = (array("H", [0, 0]), None, None)
_table = _EMPTY


def _check_int(x: int, what: str, least: int | None = 1) -> None:
    """Raise ValueError unless x is an int >= least (any int when least is
    None); a bool is not taken for an int. The package's one integer
    check: ArithFn and MultiArithFn inline the same test per call."""
    # exact ints take one type test; other types pay for the bool test
    ok = type(x) is int or isinstance(x, int) and not isinstance(x, bool)
    if not ok or least is not None and x < least:
        kinds = {1: "a positive integer", 0: "a nonnegative integer", None: "an integer"}
        kind = kinds.get(least, f"an integer of at least {least}")
        raise ValueError(f"{what} must be {kind}, got {x!r}")


def _sieve(size: int) -> array:
    """The smallest-prime-factor table of 0..size: the least prime of each
    composite, 0 at 0, 1 and the primes. A composite's least prime is at
    most isqrt(size), so two bytes an entry hold it below 2**32 entries."""
    code = "H" if size < 1 << 32 else "I"
    t = array(code, [0]) * (size + 1)
    if size < 4:
        return t
    root = math.isqrt(size)
    small = _sieve(root)
    # descending, so each entry ends with the smallest prime written to it
    for p in range(root, 1, -1):
        if not small[p]:
            t[p * p :: p] = array(code, [p]) * len(range(p * p, size + 1, p))
    return t


def _primes(t: array) -> array:
    return array("I", compress(range(2, len(t)), map(not_, islice(t, 2, None))))


def _spf_upto(n: int, i: int = 0, build=None) -> array:
    """Part i of the table grown to cover n <= sieve_bound(): the
    smallest-prime-factor table itself (i = 0), else build(table), made once
    per table: its primes, ascending (i = 1, build _primes), or the least
    prime powers of classes.coprime_pairs (i = 2, classes._least_powers).

    A table too short for n is rebuilt at twice n (at least 2**12), so a
    process pays only for the arguments it reaches and rebuilds O(log n)
    times. Once twice n reaches 3/4 of the bound the table is built at the
    bound: a build just short of it would soon be followed by a second,
    full one."""
    global _table
    held = _table
    if n >= len(held[0]):
        # free the old table before the new one is built
        held = _table = _EMPTY
        size = max(2 * n, 1 << 12)
        bound = sieve_bound()
        held = _table = (_sieve(bound if 4 * size >= 3 * bound else size), None, None)
    if held[i] is None:
        held = _table = held[:i] + (build(held[0]),) + held[i + 1 :]
    return held[i]


def sieve_bound() -> int:
    """The largest argument the table may cover (settable via MULTCLASS_SIEVE_BOUND).

    Reading it builds nothing."""
    global _sieve_bound
    if _sieve_bound is None:
        raw = os.environ.get(SIEVE_BOUND_ENV, str(DEFAULT_SIEVE_BOUND))
        bound = int(raw) if raw.strip().isdecimal() else raw  # other text is refused as text
        _check_int(bound, f"the sieve bound ({SIEVE_BOUND_ENV})", 4)
        _sieve_bound = bound
    return _sieve_bound


def set_sieve_bound(bound: int) -> None:
    """Set a new bound and drop the table and the caches built under the old
    one; nothing is rebuilt until used. The tests shrink it to reach past it."""
    global _sieve_bound, _table
    _check_int(bound, f"the sieve bound ({SIEVE_BOUND_ENV})", 4)
    _sieve_bound = bound
    _table = _EMPTY
    factorize.cache_clear()
    divisors.cache_clear()


def primes_up_to(n: int) -> list[int]:
    """Primes <= n, ascending. n must stay within the sieve bound."""
    _check_int(n, "n", None)
    bound = sieve_bound()
    if n > bound:
        raise SieveBoundError(
            f"primes_up_to({n}) exceeds the sieve bound {bound}; "
            f"set {SIEVE_BOUND_ENV} to raise it"
        )
    primes = _spf_upto(n, 1, _primes)
    return primes[: bisect.bisect_right(primes, n)].tolist()


def is_prime(n: int) -> bool:
    """Primality within the certified range (up to the sieve bound squared)."""
    _check_int(n, "n", None)
    if n < 2:
        return False
    bound = sieve_bound()
    if n > bound * bound:
        raise SieveBoundError(
            f"cannot certify primality of {n} with sieve bound {bound}; "
            f"set {SIEVE_BOUND_ENV} to raise it"
        )
    return next(_walk(n)) == (n, 1)


class Factorization:
    """Canonical factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ...

    Exponents are >= 1; the empty tuple represents 1. `value()` recovers the
    factored integer exactly. Immutable; equal and hashed by its pairs.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "pairs", pairs)

    def _frozen(self, name, *value):
        raise AttributeError(f"Factorization is immutable; cannot change {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        return self.pairs == other.pairs if type(other) is Factorization else NotImplemented

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __reduce__(self):  # pickle through __init__, not the refusing __setattr__
        return Factorization, (self.pairs,)

    def __repr__(self) -> str:
        return f"Factorization(pairs={self.pairs!r})"

    def value(self) -> int:
        return math.prod(p**e for p, e in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _walk(n: int) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime p of n >= 1, ascending, with its exponent e.

    The one factorization walk, with no cache. An int within the table
    passes one type test; anything else goes through _check_int. Past the
    sieve bound, n is trial-divided by the table's primes until its
    cofactor is within the bound, and the table takes over: exact while
    that cofactor is <= sieve_bound()**2, else SieveBoundError, not a guess."""
    t, m = _table[0], n
    if not (type(m) is int and 0 < m < len(t)):
        _check_int(n, "n")
        bound = sieve_bound()
        if m > bound:
            for p in _spf_upto(min(bound, math.isqrt(m)), 1, _primes):
                if p * p > m:
                    break
                if m % p == 0:
                    m //= p
                    e = 1
                    while m % p == 0:
                        m //= p
                        e += 1
                    yield p, e
                    if m <= bound:
                        break
            else:
                if m > bound * bound:
                    raise SieveBoundError(
                        f"cofactor {m} of {n} exceeds the square of the sieve bound "
                        f"{bound}; set {SIEVE_BOUND_ENV} to raise it"
                    )
            if m > bound:  # no prime factor below its square root: m is prime
                yield m, 1
                return
        t = _spf_upto(m)
    while m > 1:
        p = t[m] or m
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        yield p, e


# one tuple per pair (p, e) or (p, signature), shared by the cached
# factorizations and multivariable rows that hold it
_pair = lru_cache(maxsize=1 << 12)(lambda p, x: (p, x))


@lru_cache(maxsize=1 << 14)
def factorize(n: int) -> Factorization:
    """Factor n >= 1 by walking the smallest-prime-factor table (_walk), sharing pairs."""
    return Factorization(tuple(starmap(_pair, _walk(n))))


def least_prime_power(n: int) -> int:
    """p**e for the least prime p of n and its full exponent e; 1 at n = 1.
    The sweeps read theirs off an array kept with the table instead."""
    p, e = next(_walk(n), (1, 0))
    return p**e


def _nu(p: int, n: int) -> int:
    """The exponent of p > 1 in n >= 1 by plain division, unchecked."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def nu(p: int, n: int) -> int:
    """Exponent of the prime p in n (0 when p does not divide n)."""
    _check_int(p, "p")
    if not is_prime(p):
        raise ValueError(f"nu requires a prime first argument, got {p}")
    _check_int(n, "n")
    return _nu(p, n)


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    return math.prod(p for p, _ in _walk(n))


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return sum(1 for _ in _walk(n))


def euler_phi(n: int) -> int:
    """Count of 1 <= a <= n with gcd(a, n) = 1."""
    out = n
    for p, _ in _walk(n):
        out -= out // p
    return out


@lru_cache(maxsize=1 << 16)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in _walk(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def unitary_divisors(n: int) -> tuple[int, ...]:
    """Divisors d of n with gcd(d, n/d) = 1, ascending; there are 2**omega(n)."""
    ds = [1]
    for p, e in _walk(n):
        q = p**e
        ds += [d * q for d in ds]
    return tuple(sorted(ds))


def is_unitary_divisor(d: int, n: int) -> bool:
    """Whether d | n with gcd(d, n/d) = 1."""
    _check_int(d, "d")
    _check_int(n, "n")
    return n % d == 0 and math.gcd(d, n // d) == 1


def is_regular_mod(a: int, r: int) -> bool:
    """Whether a*a*x == a (mod r) is solvable for some x.

    Uses the structural criterion: a is regular mod r exactly when
    gcd(a, r) is a unitary divisor of r. The brute-force definition is
    kept to the tests as an independent check.
    """
    _check_int(r, "modulus")
    _check_int(a, "residue", 0)
    d = math.gcd(a % r, r)
    return math.gcd(d, r // d) == 1


def regular_residues(r: int) -> list[int]:
    """All regular residues in [0, r)."""
    _check_int(r, "modulus")
    return [a for a in range(r) if is_regular_mod(a, r)]


def is_squareful(n: int) -> bool:
    """True when every prime in n has exponent >= 2; vacuously true at n = 1."""
    return all(e >= 2 for _, e in _walk(n))
