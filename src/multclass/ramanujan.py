"""Ramanujan sums, the regular-integer analogue, and even-function checks.

The modulus comes first: c(r, n), c_bar(r, n). Both sums depend on n only
through gcd(|n|, r), with gcd(0, r) = r, so n may be any integer even
though the classifiers only ever look at positive n.

Everything exact is integer arithmetic over divisor sums. The exponential
sums c_oracle and c_bar_oracle are floating point on purpose: they are
independent cross-checks for the tests and are never used by the library
itself. Angles are reduced exactly ((a*n) mod r before dividing by r) so
the rounding error stays near machine epsilon times the residue count.

The two-variable forms c_two_var and c_bar_two_var load multivar when
called; the one-variable sums never load it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import numtheory as nt
from .arith import ArithFn, Rational, mobius
from .numtheory import _check_int

_TWO_PI = 2.0 * math.pi


def _gcd_level(r: int, n: int) -> int:
    _check_int(r, "modulus")
    _check_int(n, "argument", None)
    return math.gcd(abs(n), r)


@lru_cache(maxsize=1 << 16)
def _c_at(r: int, level: int) -> int:
    return sum(d * mobius._eval(r // d) for d in nt.divisors(level))


def c(r: int, n: int) -> int:
    """Ramanujan's sum c_r(n) = sum of d*mu(r/d) over d | gcd(n, r)."""
    return _c_at(r, _gcd_level(r, n))


@lru_cache(maxsize=512)
def _residues(r: int) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
    """The r-th roots of unity, the invertible residues and the regular ones."""
    roots = tuple(cmath.exp(complex(0.0, _TWO_PI * k / r)) for k in range(r))
    coprime = tuple(a for a in range(1, r + 1) if math.gcd(a, r) == 1)
    return roots, coprime, tuple(nt.regular_residues(r))


def _exp_sum(r: int, n: int, regular: bool) -> complex:
    _check_int(r, "modulus")
    roots, *sets = _residues(r)
    return sum(roots[(a * n) % r] for a in sets[regular])


def c_oracle(r: int, n: int) -> complex:
    """Exponential-sum form of c_r(n) over the invertible residues."""
    return _exp_sum(r, n, False)


def g(r: int, n: int) -> int:
    """Characteristic function of the unitary divisors of r."""
    _check_int(n, "argument")
    _check_int(r, "modulus")
    return 1 if nt.is_unitary_divisor(n, r) else 0


def mu_bar(r: int, n: int) -> int:
    """The Moebius companion of g_r, multiplicative in n.

    At a prime power p^j the value depends on a = nu_p(r): for a = 1 it is
    -1 at j = 2 and 0 otherwise; for a >= 2 it is -1 at j = 1 and j = a+1,
    +1 at j = a, else 0; for p not dividing r it is plain mu at p^j.
    """
    _check_int(n, "argument")
    _check_int(r, "modulus")
    out = 1
    for p, j in nt._walk(n):
        a = nt._nu(p, r)  # p is a prime of n, so nu_p(r) by plain division
        v = 1 if a >= 2 and j == a else -1 if j == a + 1 or (a >= 2 and j == 1) else 0
        if v == 0:
            return 0
        out *= v
    return out


def mu_bar_oracle(r: int, n: int) -> int:
    """mu_bar via Moebius inversion of mu_bar_r * 1 = g_r, over the d | n
    that g_r marks: the unitary divisors of r."""
    _check_int(r, "modulus")
    mu = mobius._eval
    return sum(mu(n // d) for d in nt.divisors(n) if r % d == 0 and math.gcd(d, r // d) == 1)


@lru_cache(maxsize=1 << 16)
def _c_bar_at(r: int, level: int) -> int:
    return sum(d * mu_bar(r, r // d) for d in nt.divisors(level))


def c_bar(r: int, n: int) -> int:
    """Regular-residue Ramanujan sum: sum of d*mu_bar_r(r/d) over
    d | gcd(n, r); equals the exponential sum over the regular residues."""
    return _c_bar_at(r, _gcd_level(r, n))


def c_bar_oracle(r: int, n: int) -> complex:
    """Exponential-sum form of c_bar_r(n) over the regular residues."""
    return _exp_sum(r, n, True)


@dataclass(frozen=True)
class EvenFnProfile:
    """Periodicity and evenness of one function against one modulus.

    witness, when a check fails, is (n, comparison point, f(n), f(point)):
    the comparison point is n + r for a periodicity failure and gcd(n, r)
    for an evenness failure.
    """

    modulus: int
    is_periodic: bool
    is_even: bool
    witness: Optional[tuple[int, int, Rational, Rational]] = None


def even_profile(f: ArithFn, r: int) -> EvenFnProfile:
    """Scan f on [1, 2r] for r-periodicity and r-evenness."""
    _check_int(r, "modulus")
    # the first (n, comparison point) at which each check fails
    periodic = next(((n, n + r) for n in range(1, r + 1) if f(n) != f(n + r)), None)
    even = next(
        ((n, math.gcd(n, r)) for n in range(1, 2 * r + 1) if f(n) != f(math.gcd(n, r))), None
    )
    bad = periodic or even
    witness = None if bad is None else (*bad, f(bad[0]), f(bad[1]))
    return EvenFnProfile(r, periodic is None, even is None, witness)


def semimult_params_c(r: int) -> tuple[int, int]:
    """Closed-form shift and value for n -> c_r(n): a = r/radical(r)."""
    _check_int(r, "modulus")
    a = r // nt.radical(r)
    return a, c(r, a)


def semimult_params_c_bar(r: int) -> tuple[int, int]:
    """Closed-form shift and value for n -> c_bar_r(n): a is the product
    of the primes appearing in r with exponent exactly 1."""
    _check_int(r, "modulus")
    a = math.prod(p for p, e in nt.factorize(r) if e == 1)
    return a, c_bar(r, a)


def mu_bar_indicator(r: int) -> int:
    """The constant in the quasimultiplicativity identity for c_bar_r:
    1 when r = 1 or r is squareful, else 0; equals c_bar_r(1)."""
    _check_int(r, "modulus")
    return 1 if r == 1 or nt.is_squareful(r) else 0


def c_fn(r: int) -> ArithFn:
    """n -> c_r(n) as a one-variable function."""
    _check_int(r, "modulus")
    return ArithFn(f"c:{r}", lambda n: _c_at(r, math.gcd(n, r)))


def c_bar_fn(r: int) -> ArithFn:
    """n -> c_bar_r(n) as a one-variable function."""
    _check_int(r, "modulus")
    return ArithFn(f"c_bar:{r}", lambda n: _c_bar_at(r, math.gcd(n, r)))


def mu_bar_fn(r: int) -> ArithFn:
    """n -> mu_bar_r(n) as a one-variable function."""
    _check_int(r, "modulus")
    return ArithFn(f"mu_bar:{r}", lambda n: mu_bar(r, n))


def g_fn(r: int) -> ArithFn:
    """n -> g_r(n) as a one-variable function."""
    _check_int(r, "modulus")
    return ArithFn(f"g:{r}", lambda n: g(r, n))


def c_two_var() -> MultiArithFn:
    """(n, r) -> c_r(n) with the modulus in the second slot."""
    from .multivar import MultiArithFn  # loaded by the two-variable forms only

    return MultiArithFn("c-two-var", 2, lambda pt: c(pt[1], pt[0]))


def c_bar_two_var() -> MultiArithFn:
    """(n, r) -> c_bar_r(n) with the modulus in the second slot."""
    from .multivar import MultiArithFn

    return MultiArithFn("c-bar-two-var", 2, lambda pt: c_bar(pt[1], pt[0]))
