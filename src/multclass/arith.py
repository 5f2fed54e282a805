"""Arithmetical functions with exact rational values.

An ArithFn pairs a total map from positive integers to ints or Fractions
with a short printable name. Values stay exact end to end: convolutions and
products are computed over the divisor lattice with integer/Fraction
arithmetic only. Every function memoizes its evaluation, at most
MEMO_SIZE values each; the combinators call their inner functions' memos
(_eval) without the argument check, as the library made every inner
argument. reader(window) hands out a fresh evaluator for one window's
reads with no memo at any level: a combinator's (_Op: scale, product, the
compositions, the convolutions) applies its rule to its operands' readers,
and a convolution's sieves its values up to the window, in that reader,
never on the function. The cache only skips recomputation and never
changes a value, so sharing a function between threads is safe. Integer
parameters are checked when built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

from . import numtheory as nt

Rational = Union[int, Fraction]


def format_rational(v: Rational) -> str:
    """Canonical text form: "7", "-2", "3/2"."""
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


MEMO_SIZE = 1 << 12  # per ArithFn and MultiArithFn; as fast as 2**17 on the benchmark


class ArithFn:
    """A named total function on positive integers with exact values."""

    __slots__ = ("name", "_eval")

    def __init__(self, name: str, fn: Callable[[int], Rational]):
        self.name = name
        self._eval = lru_cache(maxsize=MEMO_SIZE)(fn)

    def __call__(self, n: int) -> Rational:
        # exact ints take one type test; other types pay for the bool test
        if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)) or n < 1:
            raise ValueError(f"{self.name} is defined on positive integers, got {n!r}")
        return self._eval(n)

    def reader(self, window: int) -> Callable[[int], Rational]:
        """A fresh evaluator for one window's reads, with no memo and no
        argument check: the plain evaluator for a function of no operand."""
        return self._eval.__wrapped__

    def __repr__(self) -> str:
        return f"ArithFn({self.name})"


class _Op(ArithFn):
    """A function built by rule from operand functions: rule(*evaluators)
    is its evaluator, over the operands' memos under its own memo and over
    their readers in reader(window), so a window's reads meet no memo."""

    __slots__ = ("_rule", "_parts")

    def __init__(self, name: str, rule: Callable, *parts: ArithFn):
        super().__init__(name, rule(*(g._eval for g in parts)))
        self._rule, self._parts = rule, parts

    def reader(self, window: int) -> Callable[[int], Rational]:
        return self._rule(*(g.reader(window) for g in self._parts))


class _Convolution(_Op):
    """n -> sum of f(d) g(n/d) over the divisors d of n, or its unitary ones (d, n/d coprime)."""

    __slots__ = ("_unitary",)

    def __init__(self, f: ArithFn, g: ArithFn, unitary: bool):
        divisors = nt.unitary_divisors if unitary else nt.divisors
        rule = lambda fe, ge: lambda n: sum(fe(d) * ge(n // d) for d in divisors(n))
        super().__init__(f"{'unitary' if unitary else 'dirichlet'}({f.name},{g.name})", rule, f, g)
        self._unitary = unitary

    def reader(self, window: int) -> Callable[[int], Rational]:
        """Values up to the window from a divisor sieve H, which a read of n
        past its end grows to min(window, 2n) by adding each f(d) g(k) with
        d k in the new range, once: a zero term adds nothing but its type,
        so values keep the per-point sum's. Reads past the window go point
        by point, through the operands' memos."""
        (f, g), unitary, point = self._parts, self._unitary, self._eval.__wrapped__
        rf, rg = f.reader(window), g.reader(window)
        F, G, H = [0], [0], [0]  # index 0 unused

        def add_row(x: int, X: list, Y: list, ys: range) -> None:
            # H[x y] += X[x] Y[y] along one row of the pairs; a zero term only passes its type
            v, at = X[x], slice(x * ys.start, x * ys.stop, x)
            fv = type(v) is Fraction
            H[at] = [h if unitary and math.gcd(x, y) != 1 else h + v * w if v and w
                     else h if type(h) is Fraction or not fv and type(w) is not Fraction
                     else Fraction(h)
                     for h, y, w in zip(H[at], ys, Y[ys.start : ys.stop])]

        def read(n: int) -> Rational:
            if n > window:
                return point(n)
            end = len(H) - 1
            if n > end:
                top = min(window, 2 * n)
                new = range(end + 1, top + 1)
                F.extend(map(rf, new))
                G.extend(map(rg, new))
                H.extend([0] * len(new))
                root = math.isqrt(top)  # rows by d up to the root, the rest by k
                for d in range(1, root + 1):
                    add_row(d, F, G, range(end // d + 1, top // d + 1))
                for k in range(1, top // (root + 1) + 1):
                    add_row(k, G, F, range(max(root, end // k) + 1, top // k + 1))
            return H[n]

        return read


def _mobius_eval(n: int) -> int:
    es = [e for _, e in nt._walk(n)]
    return 0 if any(e >= 2 for e in es) else -1 if len(es) % 2 else 1


mobius = ArithFn("mobius", _mobius_eval)
euler_phi = ArithFn("phi", nt.euler_phi)
one = ArithFn("one", lambda n: 1)
identity_n = ArithFn("identity", lambda n: n)

_CLASSICAL = {
    "mobius": mobius,
    "mu": mobius,
    "euler_phi": euler_phi,
    "phi": euler_phi,
    "one": one,
    "identity_n": identity_n,
    "identity": identity_n,
}


def classical(name: str) -> ArithFn:
    """One of the stock functions: mobius, euler_phi, one, identity_n."""
    try:
        return _CLASSICAL[name]
    except KeyError:
        raise ValueError(f"unknown classical function {name!r}") from None


def eta(k: int) -> ArithFn:
    """m -> m when m divides k, else 0."""
    nt._check_int(k, "eta parameter")
    return ArithFn(f"eta:{k}", lambda m: m if k % m == 0 else 0)


def dirichlet(f: ArithFn, g: ArithFn) -> ArithFn:
    """Dirichlet convolution: n -> sum of f(d) g(n/d) over divisors d of n."""
    return _Convolution(f, g, False)


def unitary(f: ArithFn, g: ArithFn) -> ArithFn:
    """Unitary convolution: the divisor sum restricted to gcd(d, n/d) = 1."""
    return _Convolution(f, g, True)


def pointwise_product(f: ArithFn, g: ArithFn) -> ArithFn:
    """n -> f(n) * g(n)."""
    return _Op(f"product({f.name},{g.name})", lambda fe, ge: lambda n: fe(n) * ge(n), f, g)


def scale(f: ArithFn, c: Rational) -> ArithFn:
    """n -> c * f(n) for a nonzero constant c."""
    cf = Fraction(c)
    if cf == 0:
        raise ValueError("scale constant must be nonzero")
    cv: Rational = cf.numerator if cf.denominator == 1 else cf
    return _Op(f"scale:{format_rational(cf)}({f.name})", lambda fe: lambda n: cv * fe(n), f)


# compose kind -> (its token in names and specs, its rule over f's evaluator fe)
_COMPOSE = {
    "dilate_kn": ("dilate", lambda k, fe: lambda n: fe(k * n)),
    "k_over_n": ("kovern", lambda k, fe: lambda n: fe(k // n) if k % n == 0 else 0),
    "n_over_k": ("noverk", lambda k, fe: lambda n: fe(n // k) if n % k == 0 else 0),
    "gcd_k": ("gcdk", lambda k, fe: lambda n: fe(math.gcd(k, n))),
    "lcm_k": ("lcmk", lambda k, fe: lambda n: fe(math.lcm(k, n))),
}
COMPOSE_KINDS = tuple(_COMPOSE)


def compose(f: ArithFn, kind: str, k: int) -> ArithFn:
    """The five parameterized composition transforms of f by k.

    dilate_kn: f(k*n); k_over_n: f(k/n); n_over_k: f(n/k);
    gcd_k: f(gcd(k, n)); lcm_k: f(lcm(k, n)). Quotients that are not
    positive integers contribute 0 (zero extension).
    """
    nt._check_int(k, "composition parameter")
    if kind not in _COMPOSE:
        raise ValueError(f"unknown composition kind {kind!r}")
    token, rule = _COMPOSE[kind]
    return _Op(f"{token}:{k}({f.name})", lambda fe: rule(k, fe), f)


# counts[m] = number of integer tuples (x_1, ..., x_s) with sum of squares m;
# built one coordinate at a time, so each level is a plain enumeration over
# the last coordinate (no closed-form shortcuts).
_square_tables: dict[int, list[int]] = {}


def _square_rep_counts(s: int, upper: int) -> list[int]:
    have = _square_tables.get(s)
    if have is not None and len(have) > upper:
        return have
    # doubling stops at the enumeration budget, past which fn raises anyway
    grown = 2 * (len(have) - 1) if have else 0
    target = max(upper, min(max(grown, 256), SQUARES_BUDGET))
    counts = [1] + [0] * target
    for _ in range(s):
        nxt = [0] * (target + 1)
        for m in range(target + 1):
            c = counts[m]
            x = 1
            while x * x <= m:
                c += 2 * counts[m - x * x]
                x += 1
            nxt[m] = c
        counts = nxt
    _square_tables[s] = counts
    return counts


SQUARES_BUDGET = 20000


def sum_of_squares(s: int) -> ArithFn:
    """r_s(n): representations of n as an ordered sum of s signed squares.

    Counted by exhaustive enumeration; no divisor-sum evaluation is used
    anywhere. Arguments above SQUARES_BUDGET are rejected to keep the
    enumeration bounded.
    """
    if isinstance(s, bool) or not isinstance(s, int) or s not in (2, 4, 8):
        raise ValueError(f"s must be 2, 4 or 8, got {s!r}")

    def fn(n: int) -> int:
        if n > SQUARES_BUDGET:
            raise ValueError(f"r{s} enumeration is budgeted to n <= {SQUARES_BUDGET}, got {n}")
        return _square_rep_counts(s, n)[n]

    return ArithFn(f"r{s}", fn)
