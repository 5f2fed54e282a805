"""Window classifiers for the multiplicative-function hierarchy.

Each checker sweeps every instance of its defining identity that fits in a
finite window and returns a ClassReport. A "consistent" verdict means no
counterexample exists up to the window; it is finite evidence, not a proof.
A "refuted" verdict always carries a witness that recheck_witness
re-evaluates from scratch.

Every law is defined here, once, in LAWS, keyed by its LAW_* text: it maps
an instance (m, n, shift) to (lhs, rhs) and says when that pair is a
violation. Points are ints here and tuples in multivar, whose checkers use
the same table, sweeps and recheck. The coprime-pair classes share one
identity, c f(a m n) = f(a m) f(a n): multiplicative is c = 1, a = 1;
quasimultiplicative is c = f(1), a = 1; semimultiplicative is c = f(a) at
the shift a. One engine, _least_sweep, decides it in every arity from a
table of f(a N) over two splits per product (coprime_pairs) or per box
point (multivar._tuple_splits). Only a failure runs _sweep, the plain
sweep of a law, for the least witness: by (m*n, m) for one-variable pairs,
lexicographically for tuple pairs. classify_all and multivar.classify_all_u
derive two rows from the semimultiplicative sweep (_derived). check_rearick
decides its law by Rearick's theorem and sweeps every pair, by (m, n), only
for a refutation's witness. One factor-system type, SelbergFactorization,
and one extractor, extract_selberg, serve every arity.

Checkers only read their input function, hence are safe to run
concurrently.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import numtheory as nt
from .arith import ArithFn, Rational

MULTIPLICATIVE = "multiplicative"
QUASIMULTIPLICATIVE = "quasimultiplicative"
SEMIMULTIPLICATIVE = "semimultiplicative"
SELBERG = "selberg"
REARICK = "rearick"

CONSISTENT = "consistent"
REFUTED = "refuted"
IDENTICALLY_ZERO = "identically_zero"

LAW_MULT = "f(m*n) = f(m)*f(n)"
LAW_QUASI = "f(1)*f(m*n) = f(m)*f(n)"
LAW_UNIT = "f(1) != 0 on a function with nonzero values"
LAW_SUPPORT = "f(n) = 0 whenever a does not divide n"
LAW_SHIFTED = "f(a)*f(a*m*n) = f(a*m)*f(a*n)"
LAW_REARICK = "f(m)*f(n) = f(gcd(m,n))*f(lcm(m,n))"
LAW_MULT_U = "f(n.m) = f(n)*f(m) for componentwise products of coprime points"
LAW_QUASI_U = "f(1)*f(n.m) = f(n)*f(m)"
LAW_UNIT_U = "f(1,...,1) != 0 on a function with nonzero values"
LAW_FORCED_SHIFT = "f(a) != 0 at the shift a forced by the support"
LAW_SHIFTED_U = "f(a)*f(a.m.n) = f(a.m)*f(a.n)"
LAW_COVER = "every zero must follow from a per-prime zero pattern"
LAW_RATIO = "window values must equal constant * product of per-prime factors"

# A point is an int in one variable and a tuple of ints in several.
AnyPoint = Union[int, tuple[int, ...]]


@dataclass(frozen=True)
class Witness:
    """A concrete failed instance of a law at (m, n).

    m is None for LAW_RATIO, which fails at the single point n."""

    m: Optional[AnyPoint]
    n: AnyPoint
    lhs: Rational
    rhs: Rational
    law: str
    shift: Optional[AnyPoint] = None  # the a in shifted laws


def _pmul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Componentwise product of two tuple points."""
    return tuple(map(operator.mul, x, y))


def _point_product(pt: AnyPoint) -> Callable:
    return operator.mul if isinstance(pt, int) else _pmul


def _unit(pt: AnyPoint) -> AnyPoint:
    return 1 if isinstance(pt, int) else (1,) * len(pt)


def _plain(f, m, n, c, a, mul):
    return f(mul(m, n)), f(m) * f(n)


def _scaled(f, m, n, c, a, mul):
    return c * f(mul(m, n)), f(m) * f(n)


def _shifted(f, m, n, c, a, mul):
    return c * f(mul(a, mul(m, n))), f(mul(a, m)) * f(mul(a, n))


def _rearick(f, m, n, c, a, mul):
    # 0 * f(lcm) = 0 for every value of f(lcm), so f is not evaluated at the
    # lcm, which may lie far beyond the window, when f(gcd) = 0.
    g = f(math.gcd(m, n))
    return f(m) * f(n), g * f(math.lcm(m, n)) if g else g


def _vanishes_first(lhs: Rational, rhs: Rational) -> bool:
    return lhs == 0 and rhs != 0


@dataclass(frozen=True)
class Law:
    """One law: evaluate(f, m, n, c, a, mul) gives (lhs, rhs) at the
    instance (m, n) with constant c, shift a and point product mul, and
    broken says when that pair is a violation. reason is a template over
    the witness's m, n, a, lhs, rhs and the points derived from them."""

    evaluate: Callable
    reason: str
    scaled: bool = False  # c = f(a), with a the shift or else the unit point; unused otherwise
    broken: Callable[[Rational, Rational], bool] = operator.ne


LAWS: dict[str, Law] = {
    LAW_MULT: Law(_plain, "f({mn}) = {lhs} but f({m})*f({n}) = {rhs}"),
    LAW_QUASI: Law(_scaled, "f(1)*f({mn}) = {lhs} but f({m})*f({n}) = {rhs}", scaled=True),
    LAW_UNIT: Law(
        lambda f, m, n, c, a, mul: (f(m), f(n)),
        "f(1) = 0 although f({n}) = {rhs} != 0, so the forced constant vanishes",
        broken=_vanishes_first,
    ),
    LAW_SUPPORT: Law(
        lambda f, m, n, c, a, mul: (f(n) if n % a else 0, 0),
        "least support point is a = {a}, yet f({n}) = {lhs} with {a} not dividing {n}",
    ),
    LAW_SHIFTED: Law(_shifted, "f({a})*f({amn}) = {lhs} but f({am})*f({an}) = {rhs}", scaled=True),
    LAW_REARICK: Law(_rearick, "f({m})*f({n}) = {lhs} but f({gcd})*f({lcm}) = {rhs}"),
    LAW_MULT_U: Law(_plain, "f({mn}) = {lhs} but f({n})*f({m}) = {rhs}"),
    LAW_QUASI_U: Law(_scaled, "f{unit}*f({mn}) = {lhs} but f({n})*f({m}) = {rhs}", scaled=True),
    LAW_UNIT_U: Law(
        lambda f, m, n, c, a, mul: (f(n), f(m)),
        "f{n} = 0 although f{m} = {rhs} != 0",
        broken=_vanishes_first,
    ),
    LAW_FORCED_SHIFT: Law(
        lambda f, m, n, c, a, mul: (f(n), f(m)),
        "hence a = {n}, but f{n} = 0",
        broken=_vanishes_first,
    ),
    LAW_SHIFTED_U: Law(_shifted, "f{a}*f({amn}) = {lhs} but f({am})*f({an}) = {rhs}", scaled=True),
}


def _reason(w: Witness) -> str:
    """The witness's law reason, filled in with the points it involves."""
    mul = _point_product(w.n)
    names = {"m": w.m, "n": w.n, "a": w.shift, "lhs": w.lhs, "rhs": w.rhs, "unit": _unit(w.n)}
    if w.m is not None:
        names["mn"] = mul(w.m, w.n)
        if w.shift is not None:
            names.update(amn=mul(w.shift, names["mn"]), am=mul(w.shift, w.m), an=mul(w.shift, w.n))
        if isinstance(w.n, int):
            names.update(gcd=math.gcd(w.m, w.n), lcm=math.lcm(w.m, w.n))
    return LAWS[w.law].reason.format(**names)


def _sweep(
    f: Callable,
    law: str,
    instances: Iterable[tuple],
    mul: Callable = operator.mul,
    c: Rational = 1,
    a: Optional[AnyPoint] = None,
) -> Optional[Witness]:
    """The first instance (m, n) at which the law fails, as a witness."""
    spec = LAWS[law]
    evaluate, broken = spec.evaluate, spec.broken
    for m, n in instances:
        lhs, rhs = evaluate(f, m, n, c, a, mul)
        if lhs != rhs and broken(lhs, rhs):  # every law's violation has lhs != rhs
            return Witness(m, n, lhs, rhs, law, a)
    return None


def recheck_witness(f: Callable, w: Witness) -> bool:
    """Re-evaluate the witness's law from scratch, for a witness of any
    arity; True when the violation reproduces.

    The Selberg solver laws, LAW_COVER and LAW_RATIO, only replay the
    value at w.n against the stored sides."""
    if w.law in (LAW_COVER, LAW_RATIO):
        return f(w.n) == w.lhs and w.lhs != w.rhs
    spec = LAWS.get(w.law)
    if spec is None:
        raise ValueError(f"unknown law {w.law!r}")
    c: Rational = 1
    if spec.scaled:
        c = f(w.shift if w.shift is not None else _unit(w.n))
    return spec.broken(*spec.evaluate(f, w.m, w.n, c, w.shift, _point_product(w.n)))


@dataclass
class ClassReport:
    """Outcome of one class check over one window, in any arity.

    forcing lists the support points that forced a multivariable shift.
    selberg (one-variable Selberg row) and factorization (multivariable
    semimultiplicative row) both hold a SelbergFactorization, under two JSON
    keys; system holds the multivariable Selberg row's SelbergSystem."""

    klass: str
    verdict: str
    window: int
    c: Optional[Rational] = None
    a: Optional[AnyPoint] = None
    selberg: "Optional[SelbergFactorization]" = None
    witness: Optional[Witness] = None
    reason: str = ""
    arity: int = 1
    forcing: tuple = ()
    system: "Optional[SelbergSystem]" = None
    factorization: "Optional[SelbergFactorization]" = None

    @property
    def consistent(self) -> bool:
        return self.verdict == CONSISTENT


def _report(klass: str, window: int, w: Optional[Witness], **known) -> ClassReport:
    """The report of a sweep: refuted at w, else consistent."""
    if w is None:
        return ClassReport(klass, CONSISTENT, window, **known)
    return ClassReport(klass, REFUTED, window, witness=w, reason=_reason(w), **known)


def coprime_pairs(bound: int) -> Iterator[tuple[int, int]]:
    """Two coprime splits of each product N = 1..bound, ascending: (1, N),
    then (q, N // q) when N has two or more prime factors, where q is the
    full power of N's least prime.

    These two suffice for any law c F(m n) = F(m) F(n) with c != 0. If it
    holds at every split of every product below N and at these two, take a
    split m n = N with q | m, m = q m'. Then c^2 F(N) = c F(q) F(m' n) =
    F(q) F(m') F(n) = c F(m) F(n). So the first product with a failing
    split is the first N failing here; _splits then gives the least
    witness. With c = F(1), each (1, N) holds by itself (_least_sweep).
    """
    for prod in range(1, bound + 1):
        yield 1, prod
        # prod & -prod is the full power of 2 in an even prod; it spares the
        # sweep half of its calls
        q = prod & -prod if prod % 2 == 0 else nt.least_prime_power(prod)
        if q != prod:
            yield q, prod // q


def _splits(m: int, n: int) -> Iterator[tuple[int, int]]:
    """Every ordered coprime pair (d, m*n // d): d runs over the unitary
    divisors of m*n, ascending."""
    prod = m * n
    for d in nt.unitary_divisors(prod):
        yield d, prod // d


def _least_sweep(
    f: Callable,
    law: str,
    splits: Iterable[tuple],
    witness_pairs: Callable[[AnyPoint, AnyPoint], Iterable[tuple]],
    mul: Callable = operator.mul,
    c: Rational = 1,
    a: Optional[AnyPoint] = None,
) -> Optional[Witness]:
    """The least instance at which a coprime-pair law fails, in any arity.

    f is a _WindowValues read. With F(N) = f(a N), a the unit when None,
    the law reads c F(m n) = F(m) F(n), where c = F(unit) but for
    LAW_MULT(_U) at f(unit) != 1, swept plainly. So in the two-split order
    (coprime_pairs, multivar._tuple_splits) each (unit, N) only stores F(N),
    read through f's past function, and the (q, N / q) after it compares
    c F(N) with F(q) F(N / q); a failure there sweeps witness_pairs(q, N / q)."""
    splits = iter(splits)
    unit = next(splits)[0]  # every split order opens with (unit, unit)
    last = f(unit if a is None else a)
    if last != c:
        w = _sweep(f, law, itertools.chain([(unit, unit)], splits), mul, c, a)
        return None if w is None else _sweep(f, law, witness_pairs(w.m, w.n), mul, c, a)
    # in one variable N runs 1, 2, ..., so F is a list and insert(N, v) appends
    F = [None, last] if unit == 1 else {unit: last}
    put, past = F.insert if unit == 1 else F.__setitem__, f.__self__.past
    for m, n in splits:
        if m == unit:
            put(n, last := past(n if a is None else mul(a, n)))
        elif c * last != F[m] * F[n]:
            return _sweep(f, law, witness_pairs(m, n), mul, c, a)
    return None


def _require_window(window: int, arity: int = 1) -> None:
    nt._check_int(window, "window")
    if arity > 3:
        raise ValueError(f"windows are capped at arity 3, got {arity}")


def _require_semi(rep: ClassReport, window: int, arity: int) -> None:
    """Refuse a handed-in report that is not f's semimultiplicative report
    on this window and arity."""
    if (rep.klass, rep.window, rep.arity) != (SEMIMULTIPLICATIVE, window, arity):
        what = "a one-variable" if arity == 1 else f"an arity-{arity}"
        raise ValueError(f"need {what} semimultiplicative report on window {window}")


def _least_support(f: Callable, points: Iterable) -> Optional[AnyPoint]:
    return next((pt for pt in points if f(pt) != 0), None)


class _WindowValues(dict):
    """f read through one table, filled on first use: a value at 1..window
    is evaluated once and kept. Values read once are kept nowhere but read
    through past, for an ArithFn the function under its memo, else f: an
    argument past the window, such as a Rearick product, and the window
    values that _least_sweep keeps in its own table or that the support law
    reads off the multiples of a.

    For a function of arity u > 1, points are tuples and the window is the
    corner (W, ..., W) of the window box. Tuples compare lexicographically,
    so every box point is kept; every tuple checker reads only box points."""

    def __init__(self, f: Callable, window: int):
        super().__init__()
        self.f, self.window = f, window if getattr(f, "arity", 1) == 1 else (window,) * f.arity
        self.past = f._eval.__wrapped__ if isinstance(f, ArithFn) else f

    def __missing__(self, n: AnyPoint) -> Rational:
        if n > self.window:
            return self.past(n)
        value = self[n] = self.f(n)
        return value


def check_multiplicative(f: ArithFn, window: int) -> ClassReport:
    """Sweep f(mn) = f(m) f(n) over coprime m, n with mn <= window."""
    _require_window(window)
    values = _WindowValues(f, window).__getitem__
    w = _least_sweep(values, LAW_MULT, coprime_pairs(window), _splits)
    return _report(MULTIPLICATIVE, window, w)


def check_quasimultiplicative(f: ArithFn, window: int) -> ClassReport:
    """Sweep c f(mn) = f(m) f(n) over coprime pairs; c is forced to f(1).

    A function with any nonzero value but f(1) = 0 is refuted outright:
    the pair (k, 1) with f(k) != 0 forces c = f(1) = 0, which the class
    forbids.
    """
    _require_window(window)
    values = _WindowValues(f, window).__getitem__
    k = _least_support(values, range(1, window + 1))
    if k is None:
        return ClassReport(QUASIMULTIPLICATIVE, IDENTICALLY_ZERO, window)
    w = _sweep(values, LAW_UNIT, [(1, k)])
    if w is not None:
        return _report(QUASIMULTIPLICATIVE, window, w)
    f1 = values(1)
    w = _least_sweep(values, LAW_QUASI, coprime_pairs(window), _splits, c=f1)
    return _report(QUASIMULTIPLICATIVE, window, w, c=f1)


def check_semimultiplicative(f: ArithFn, window: int) -> ClassReport:
    """Locate the least support point a, require the support to lie in a's
    multiples, then sweep f(a) f(amn) = f(am) f(an) over coprime m, n."""
    _require_window(window)
    values = _WindowValues(f, window).__getitem__
    a = _least_support(values, range(1, window + 1))
    if a is None:
        return ClassReport(SEMIMULTIPLICATIVE, IDENTICALLY_ZERO, window)
    off = ((a, n) for n in range(a + 1, window + 1) if n % a)  # multiples of a hold
    w = _sweep(values.__self__.past, LAW_SUPPORT, off, a=a)
    if w is not None:
        return _report(SEMIMULTIPLICATIVE, window, w, a=a)
    fa = values(a)
    w = _least_sweep(values, LAW_SHIFTED, coprime_pairs(window // a), _splits, c=fa, a=a)
    return _report(SEMIMULTIPLICATIVE, window, w, c=fa, a=a)


def _wide_splits(bound: int, block: int = 1 << 20) -> Iterator[tuple[int, int]]:
    """One coprime split (u, v), u < v <= bound, of each product u v past
    bound: products in blocks of `block`, within a block by u, then v; a
    bytearray per block marks the products already visited."""
    for low in range(bound + 1, bound * bound, block):
        high = min(low + block, bound * bound)
        seen = bytearray(high - low)
        for u in range(2, math.isqrt(high - 1) + 1):
            # distinct v give distinct products, so only earlier u mark them
            vs = range(max(u + 1, -(-low // u)), min(bound, (high - 1) // u) + 1)
            for v in [v for v in vs if not seen[u * v - low] and math.gcd(u, v) == 1]:
                seen[u * v - low] = 1
                yield u, v


def check_rearick(f: ArithFn, window: int, semi: Optional[ClassReport] = None) -> ClassReport:
    """Decide the gcd-lcm identity f(m) f(n) = f((m,n)) f([m,n]) for all
    m, n <= window; a refutation carries the (m, n)-least failing pair.
    semi is f's check_semimultiplicative report on the window, if at hand.

    With a the least support point, W' = W // a and c = f(a), the identity
    holds on 1..W exactly when check_semimultiplicative is consistent or
    identically zero and c f(a u v) = f(a u) f(a v) at one coprime split
    u < v <= W' of each product u v > W' (_wide_splits).
    =>: Rearick at (a u, a v), (u, v) = 1, reads f(a) f(a u v) =
    f(a u) f(a v); a semimultiplicative witness (m, n) gives the Rearick
    witness (a m, a n), a support witness n gives (a, n), as f(gcd) = 0.
    <=: G(N) = f(a N) / c is multiplicative on 1..W' (the two-split
    induction of coprime_pairs), so each N = u v > W' has G(N) = G(u) G(v)
    = prod G(p^e), all p^e <= W'. For m, n <= W with a not dividing m,
    f(m) = 0 = f((m,n)). Otherwise m = a m', n = a n', and [m',n'] is <= W'
    or the product of its unitary divisors in m' and in n', so both sides
    c^2 G(m') G(n') and c^2 G((m',n')) G([m',n']) reduce prime by prime to
    G(p^e_m) G(p^e_n), as {min, max} = {e_m, e_n}.

    So a failed decision always has a pair witness, and only then does the
    sweep of every pair m < n <= W run, in (m, n) order, for the least one.
    It evaluates f(lcm), possibly past the window, only when f(gcd) != 0,
    and skips pairs where {gcd, lcm} = {m, n}, which hold trivially.
    """
    _require_window(window)
    semi = semi or check_semimultiplicative(f, window)
    _require_semi(semi, window, 1)
    if semi.verdict == IDENTICALLY_ZERO:
        return _report(REARICK, window, None)
    values = _WindowValues(f, window).__getitem__
    a = semi.a
    if semi.consistent and (
        _sweep(values, LAW_SHIFTED, _wide_splits(window // a), c=semi.c, a=a) is None
    ):
        return _report(REARICK, window, None)
    pairs = (
        (m, n) for m in range(1, window + 1) for n in range(m + 1, window + 1) if n % m
    )
    return _report(REARICK, window, _sweep(values, LAW_REARICK, pairs))


# A point, a shift or an exponent as coordinates, and coordinates back in
# the shape of a point: an int in one variable, a tuple in several.
def _coords(pt: AnyPoint) -> tuple[int, ...]:
    return (pt,) if isinstance(pt, int) else tuple(pt)


def _like(pt: AnyPoint, coords: Sequence[int]) -> AnyPoint:
    return coords[0] if isinstance(pt, int) else tuple(coords)


def _signature(p: int, coords: Sequence[int]) -> tuple[int, ...]:
    """The exponent of p in each coordinate; p is a known prime, not retested."""
    out = []
    for x in coords:
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        out.append(e)
    return tuple(out)


@dataclass(eq=False)
class SelbergFactorization:
    """Leading constant f(a) plus per-prime factor columns F_p(e), in any
    arity: a, points and exponents are ints in one variable, else tuples.

    Stored columns cover every e whose probe point a_i p^(e_i - nu_p(a_i))
    fits in the window; factor() computes anything further on demand from
    the source function. Primes absent from the tables behave as F_p(0) = 1.
    """

    constant: Rational
    a: AnyPoint
    tables: dict[int, dict[AnyPoint, Fraction]]
    source: Callable

    def factor(self, p: int, e: AnyPoint) -> Fraction:
        col = self.tables.get(p)
        if col is not None and e in col:
            return col[e]
        probe = []
        for ai, ei in zip(_coords(self.a), _coords(e)):
            na = nt.nu(p, ai)
            if ei < na:
                return Fraction(0)
            probe.append(ai * p ** (ei - na))
        return Fraction(self.source(_like(self.a, probe))) / Fraction(self.constant)

    def reconstruct(self, pt: AnyPoint) -> Fraction:
        """constant * product of F_p(nu_p(pt)) over the relevant primes."""
        coords = _coords(pt)
        ps = {p for x in coords + _coords(self.a) for p in nt.factorize(x).primes()}
        val = Fraction(self.constant)
        for p in sorted(ps):
            val *= self.factor(p, _like(pt, _signature(p, coords)))
        return val


def extract_selberg(
    f: Callable, window: int, report: Optional[ClassReport] = None
) -> SelbergFactorization:
    """Read the per-prime factor system off a window-consistent
    semimultiplicative function of any arity: F_p(e) = f(probe) / f(a) with
    probe_i = a_i p^(e_i - nu_p(a_i)), and F_p(e) = 0 as soon as one e_i
    drops below nu_p(a_i). The report defaults to the one-variable check,
    so a multivariable f needs a report or extract_selberg_u."""
    arity, name = getattr(f, "arity", 1), getattr(f, "name", repr(f))
    if report is None and arity != 1:
        raise ValueError(f"{name} has arity {arity}; use extract_selberg_u or pass a report")
    rep = report if report is not None else check_semimultiplicative(f, window)
    _require_semi(rep, window, arity)
    if rep.verdict != CONSISTENT:
        raise ValueError(
            f"{name} is not semimultiplicative-consistent on window {window} "
            f"(verdict {rep.verdict})"
        )
    a, (num, den) = rep.a, Fraction(rep.c).as_integer_ratio()
    coords, one_var, zero, one = _coords(a), isinstance(a, int), Fraction(0), Fraction(1)
    tables: dict[int, dict[AnyPoint, Fraction]] = {}
    for p in nt.primes_up_to(window):
        axes = []  # per coordinate, the probe by exponent: None below nu_p(a_i)
        for ai, na in zip(coords, _signature(p, coords)):
            axes.append([None] * na)
            while ai <= window:
                axes[-1].append(ai)
                ai *= p
        exponents = itertools.product(*(range(len(axis)) for axis in axes))
        col: dict[AnyPoint, Fraction] = {}
        for e, probe in zip(exponents, itertools.product(*axes)):
            key, pt = (e[0], probe[0]) if one_var else (e, probe)
            if None in probe:
                col[key] = zero
            elif pt == a:
                col[key] = one  # f(a) / c with c = f(a)
            else:
                v = f(pt)  # f(pt) / c, normalized once
                col[key] = Fraction(v.numerator * den, v.denominator * num)
        tables[p] = col
    return SelbergFactorization(rep.c, a, tables, f)


def _derived(klass: str, law: str, semi: ClassReport, f: Callable, check: Callable) -> ClassReport:
    """The row of a coprime law from semi, in any arity. At the shift a =
    unit with c = f(unit) set, and c = 1 too for an unscaled law, the row's
    instances and values are semi's: it takes semi's verdict, and the law
    evaluated afresh at semi's witness pair, swapped for tuples (the tuple
    coprime checkers sweep (n, m)). Any other f gets check(f, window)."""
    scaled = LAWS[law].scaled
    if semi.c is None or semi.a != _unit(semi.a) or not scaled and semi.c != 1:
        return check(f, semi.window)
    w = semi.witness
    if w is not None:
        pair = (w.m, w.n) if isinstance(w.n, int) else (w.n, w.m)
        w = _sweep(f, law, [pair], _point_product(w.n), c=semi.c)
    return _report(klass, semi.window, w, arity=semi.arity, c=semi.c if scaled else None)


def classify_all(f: ArithFn, window: int) -> dict[str, ClassReport]:
    """All four class checks for one function.

    At the shift a = 1 the quasimultiplicative instances and values are the
    semimultiplicative ones, as are the multiplicative ones when also
    f(1) = 1, so those rows take its verdict; any other f refutes them fast.

    In one variable the Selberg class coincides with the semimultiplicative
    class, so the selberg report carries the semimultiplicative verdict plus
    the extracted factor system when consistent.
    """
    semi = check_semimultiplicative(f, window)
    quasi = _derived(QUASIMULTIPLICATIVE, LAW_QUASI, semi, f, check_quasimultiplicative)
    mult = _derived(MULTIPLICATIVE, LAW_MULT, semi, f, check_multiplicative)
    selberg = replace(semi, klass=SELBERG)
    if semi.verdict == CONSISTENT:
        selberg.selberg = extract_selberg(f, window, report=semi)
    return {
        MULTIPLICATIVE: mult,
        QUASIMULTIPLICATIVE: quasi,
        SEMIMULTIPLICATIVE: semi,
        SELBERG: selberg,
    }
