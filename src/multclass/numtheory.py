"""Exact integer arithmetic primitives.

Sieve-backed factorization, p-adic valuations, divisor structure, and the
regular-residue test. Everything runs on plain Python ints, so nothing
overflows, and nothing in this module touches floating point.

All functions are pure. The prime sieve is built once (lazily) and only
read afterwards, so concurrent callers are safe; results never depend on
call order.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_SIEVE_BOUND = 10**6
SIEVE_BOUND_ENV = "MULTCLASS_SIEVE_BOUND"


class SieveBoundError(ValueError):
    """Raised when an input would need primes beyond the sieve bound."""


_sieve_bound: int | None = None
_sieve_flags: bytearray | None = None
_sieve_primes: list[int] | None = None


def _build_sieve(bound: int) -> None:
    global _sieve_bound, _sieve_flags, _sieve_primes
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, bound + 1, p)))
    _sieve_bound = bound
    _sieve_flags = flags
    _sieve_primes = [i for i in range(2, bound + 1) if flags[i]]
    factorize.cache_clear()
    divisors.cache_clear()
    unitary_divisors.cache_clear()


def _ensure_sieve() -> None:
    if _sieve_flags is None:
        _build_sieve(int(os.environ.get(SIEVE_BOUND_ENV, DEFAULT_SIEVE_BOUND)))


def sieve_bound() -> int:
    """The current trial-division bound (settable via MULTCLASS_SIEVE_BOUND)."""
    _ensure_sieve()
    assert _sieve_bound is not None
    return _sieve_bound


def set_sieve_bound(bound: int) -> None:
    """Rebuild the sieve with a new bound; the tests shrink it to reach past it."""
    if bound < 4:
        raise ValueError(f"sieve bound must be at least 4, got {bound}")
    _build_sieve(bound)


def primes_up_to(n: int) -> list[int]:
    """Primes <= n, ascending. n must stay within the sieve bound."""
    _ensure_sieve()
    assert _sieve_primes is not None and _sieve_bound is not None
    if n > _sieve_bound:
        raise SieveBoundError(
            f"primes_up_to({n}) exceeds the sieve bound {_sieve_bound}; "
            f"set {SIEVE_BOUND_ENV} to raise it"
        )
    return _sieve_primes[: bisect.bisect_right(_sieve_primes, n)]


def is_prime(n: int) -> bool:
    """Primality within the certified range (up to the sieve bound squared)."""
    _ensure_sieve()
    assert _sieve_flags is not None and _sieve_bound is not None
    if n < 2:
        return False
    if n <= _sieve_bound:
        return bool(_sieve_flags[n])
    if n > _sieve_bound * _sieve_bound:
        raise SieveBoundError(
            f"cannot certify primality of {n} with sieve bound {_sieve_bound}; "
            f"set {SIEVE_BOUND_ENV} to raise it"
        )
    return factorize(n).pairs == ((n, 1),)


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ...

    Exponents are >= 1; the empty tuple represents 1. `value()` recovers the
    factored integer exactly.
    """

    pairs: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@lru_cache(maxsize=1 << 18)
def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division against the sieve primes.

    Deterministic, and exact for any n whose unfactored cofactor can be
    certified prime, i.e. cofactor <= sieve_bound()**2. Anything larger
    raises SieveBoundError rather than guessing.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n!r}")
    _ensure_sieve()
    assert _sieve_primes is not None and _sieve_bound is not None
    pairs = []
    m = n
    for p in _sieve_primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
    else:
        if m > 1 and m > _sieve_bound * _sieve_bound:
            raise SieveBoundError(
                f"cofactor {m} of {n} exceeds the square of the sieve bound "
                f"{_sieve_bound}; set {SIEVE_BOUND_ENV} to raise it"
            )
    if m > 1:
        pairs.append((m, 1))
    return Factorization(tuple(pairs))


def nu(p: int, n: int) -> int:
    """Exponent of the prime p in n (0 when p does not divide n)."""
    if not is_prime(p):
        raise ValueError(f"nu requires a prime first argument, got {p}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"nu expects a positive integer, got {n!r}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    out = 1
    for p, _ in factorize(n):
        out *= p
    return out


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(factorize(n))


def euler_phi(n: int) -> int:
    """Count of 1 <= a <= n with gcd(a, n) = 1."""
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


@lru_cache(maxsize=1 << 16)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


@lru_cache(maxsize=1 << 14)
def unitary_divisors(n: int) -> tuple[int, ...]:
    """Divisors d of n with gcd(d, n/d) = 1, ascending; there are 2**omega(n)."""
    ds = [1]
    for p, e in factorize(n):
        q = p**e
        ds += [d * q for d in ds]
    return tuple(sorted(ds))


def is_unitary_divisor(d: int, n: int) -> bool:
    """Whether d | n with gcd(d, n/d) = 1."""
    if d < 1 or n < 1:
        raise ValueError("is_unitary_divisor expects positive integers")
    return n % d == 0 and math.gcd(d, n // d) == 1


def _check_modulus(r: int) -> None:
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"modulus must be a positive integer, got {r!r}")


def is_regular_mod(a: int, r: int) -> bool:
    """Whether a*a*x == a (mod r) is solvable for some x.

    Uses the structural criterion: a is regular mod r exactly when
    gcd(a, r) is a unitary divisor of r. The brute-force definition is
    kept to the tests as an independent check.
    """
    _check_modulus(r)
    if a < 0:
        raise ValueError(f"residue must be nonnegative, got {a}")
    d = math.gcd(a % r, r)
    return math.gcd(d, r // d) == 1


def regular_residues(r: int) -> list[int]:
    """All regular residues in [0, r)."""
    _check_modulus(r)
    return [a for a in range(r) if is_regular_mod(a, r)]


def is_squareful(n: int) -> bool:
    """True when every prime in n has exponent >= 2; vacuously true at n = 1."""
    if n < 1:
        raise ValueError(f"is_squareful expects a positive integer, got {n!r}")
    return all(e >= 2 for _, e in factorize(n))
