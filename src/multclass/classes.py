"""Window classifiers for the multiplicative-function hierarchy, in every arity.

Each checker sweeps every instance of its defining identity that fits in a
finite window and returns a ClassReport. A "consistent" verdict means no
counterexample exists up to the window; it is finite evidence, not a proof.
A "refuted" verdict always carries a witness that recheck_witness
re-evaluates from scratch.

Points are ints in one variable. For a function with an arity u
(multivar.MultiArithFn), which the _u checkers take, they are u-tuples in
the window box [1, W]^u, with componentwise products and coprimality read
off the products of the coordinates. Every law is defined here, once, in
LAWS, keyed by its LAW_* text: it maps an instance (m, n, shift) to
(lhs, rhs) and says when that pair is a violation. The coprime-pair classes
share one identity, c f(a m n) = f(a m) f(a n): multiplicative is c = 1,
a = 1; quasimultiplicative is c = f(1), a = 1; semimultiplicative is
c = f(a) at the shift a, for tuples the componentwise gcd of the support.
One engine, _least_sweep, decides the shifted law in every arity: one
iterator, coprime_pairs, hands it each int or box point N once with its
least-prime split, and it stores f(a N) and checks that split in one step.
Only a failure runs _sweep for the least witness: by (m*n, m) for
one-variable pairs, lexicographically for tuple pairs (_coprime_tuple_pairs,
from the pairs whose product reaches the failing point's). _coprime_row
reads the other two rows off f(unit) and that sweep; check_rearick decides
its law by Rearick's theorem and sweeps every pair only for a witness. One
extractor, extract_selberg, reads every arity's SelbergFactorization off
the sweep's table, prime by prime. In several variables the Selberg class
is strictly larger than the semimultiplicative one, so no shift decides it:
check_selberg_u, the tuple solver, fits a factor system of the same type to
the window's zero pattern and values. That type evaluates every system.

Checkers only read their input function, hence are safe to run
concurrently.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import numtheory as nt
from .arith import MEMO_SIZE, ArithFn, Rational

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
Point = tuple[int, ...]
AnyPoint = Union[int, Point]


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
    selberg (one-variable Selberg row), factorization (multivariable
    semimultiplicative row) and system (multivariable Selberg row) each hold
    a SelbergFactorization, under three JSON keys.
    table, f(a N) by N <= W // a as the semimultiplicative decision read
    it, serves extract_selberg and check_rearick in place of f."""

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
    system: "Optional[SelbergFactorization]" = None
    factorization: "Optional[SelbergFactorization]" = None
    table: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def consistent(self) -> bool:
        return self.verdict == CONSISTENT


def _report(klass: str, window: int, w: Optional[Witness], **known) -> ClassReport:
    """The report of a sweep: refuted at w, else consistent."""
    if w is None:
        return ClassReport(klass, CONSISTENT, window, **known)
    return ClassReport(klass, REFUTED, window, witness=w, reason=_reason(w), **known)


def _least_powers(t: array) -> array:
    """p**e at k for the least prime p of k and its full exponent e, and k at
    0 and 1, over the smallest-prime-factor table t of numtheory."""
    size = len(t)
    lpp = array("I" if size <= 1 << 32 else "Q", range(size))
    # only primes up to the root divide composites; descending, the least writes last
    for p in [p for p in range(math.isqrt(size - 1), 1, -1) if not t[p]]:
        q = p
        while q < size:
            lpp[q::q] = array(lpp.typecode, [q]) * len(range(q, size, q))
            q *= p
    return lpp


def coprime_pairs(caps: Union[int, tuple[int, ...]]) -> Iterator[tuple]:
    """Each point N up to caps once, by (prod N, N), with its least-prime
    split: (N, Q, N / Q), Q the componentwise full power of the least prime
    of prod N, or (N, None, None) when prod N is a prime power or 1. An int
    caps gives the ints 1..caps, a tuple caps the box of tuples N with
    N_i <= caps[i]; Q comes off _least_powers, kept with numtheory's table.

    These splits suffice for any law c F(m.n) = F(m) F(n) with c = F(unit)
    != 0. If it holds at every split of every point before N and at N's, a
    coprime split m.n = N sends all of Q to one side, m = Q.m'. Then
    c^2 F(N) = c F(Q) F(m'.n) = F(Q) F(m') F(n) = c F(m) F(n): each point
    reduced to has a smaller product, and componentwise divisors of N stay
    in the box. So the first point with a failing split is the first N
    failing here; (unit, N) holds by itself.
    """
    top = caps if isinstance(caps, int) else math.prod(caps)
    # past the sieve bound, least_prime_power factors each product
    table = nt._spf_upto(top, 2, _least_powers) if top <= nt.sieve_bound() else None
    if isinstance(caps, int):
        points = range(1, caps + 1)
        qs = itertools.islice(table, 1, None) if table else map(nt.least_prime_power, points)
        for n, q in zip(points, qs):
            yield (n, None, None) if q == n else (n, q, n // q)
        return
    least = table.__getitem__ if table else nt.least_prime_power
    # the box comes lexicographically and sorted() is stable: (prod N, N)
    points = sorted(itertools.product(*(range(1, c + 1) for c in caps)), key=math.prod)
    for pt, prod in zip(points, map(math.prod, points)):
        q = least(prod)
        if q == prod:
            yield pt, None, None
            continue
        qvec = tuple(math.gcd(x, q) for x in pt)  # the least prime's full power in each N_i
        yield pt, qvec, tuple(map(operator.floordiv, pt, qvec))


def _splits(m: int, n: int) -> Iterator[tuple[int, int]]:
    """Every ordered coprime pair (d, m*n // d): d runs over the unitary
    divisors of m*n, ascending."""
    return ((d, m * n // d) for d in nt.unitary_divisors(m * n))


def _coprime_tuple_pairs(caps: Sequence[int], least: int = 1) -> Iterator[tuple[Point, Point]]:
    """Pairs (n, m) with n_i * m_i <= caps[i], gcd(prod n, prod m) = 1 and
    prod n * prod m >= least, in lexicographic order of (n, m)."""
    for nvec in itertools.product(*(range(1, c + 1) for c in caps)):
        pn = math.prod(nvec)
        for mvec in itertools.product(*(range(1, c // x + 1) for c, x in zip(caps, nvec))):
            pm = math.prod(mvec)
            if pn * pm >= least and math.gcd(pn, pm) == 1:
                yield nvec, mvec


def _points(window: int, u: int) -> Iterator[Point]:
    return itertools.product(range(1, window + 1), repeat=u)


@lru_cache(maxsize=MEMO_SIZE)
def _row(pt: Point) -> tuple[tuple[int, Point], ...]:
    """(p, _signature(p, pt)) for each prime p of the product of pt's
    coordinates, ascending: pt's sparse row of signatures."""
    exps: dict[int, list[int]] = {}
    for i, x in enumerate(pt):
        for p, e in nt._walk(x):
            exps.setdefault(p, [0] * len(pt))[i] = e
    return tuple(nt._pair(p, tuple(exps[p])) for p in sorted(exps))


def _least_sweep(
    f: Callable,
    law: str,
    caps: Union[int, tuple[int, ...]],
    witness_pairs: Callable[[AnyPoint, AnyPoint], Iterable[tuple]],
    c: Rational,
    a: AnyPoint,
) -> tuple[Optional[Witness], dict]:
    """The least instance at which the shifted law fails, in any arity.

    f is a _WindowValues read and c = f(a) != 0. With F(N) = f(a N) the law
    reads c F(m n) = F(m) F(n), so each point N of coprime_pairs(caps), in
    order, stores F(N), read through f's past function, and compares c F(N)
    with F(q) F(N / q) at its split (q, N / q), if any, as integer cross
    products (as_integer_ratio, for int and Fraction); a failure sweeps
    witness_pairs(q, N / q). Returns the witness or None, and F as read, a
    dict by point N."""
    unit, mul, past = _unit(a), _point_product(a), f.__self__.past
    F = {unit: c}
    cn, cd = c.as_integer_ratio()
    # the leading unit would read f(a) = c again
    for n, q, r in itertools.islice(coprime_pairs(caps), 1, None):
        F[n] = v = past(mul(a, n))
        if q is not None:
            (vn, vd), (xn, xd) = v.as_integer_ratio(), F[q].as_integer_ratio()
            yn, yd = F[r].as_integer_ratio()
            if cn * vn * xd * yd != xn * yn * cd * vd:
                return _sweep(f, law, witness_pairs(q, r), mul, c, a), F
    return None, F


def _require_window(f: Callable, window: int, tuples: bool, other: str) -> None:
    """Refuse a window that is not a positive integer, and f of the wrong
    kind for an entry point of tuples (at most 3) or of ints; other names
    the entry point for f's kind."""
    nt._check_int(window, "window")
    if hasattr(f, "arity") != tuples:
        kind = "is a one-variable function" if tuples else f"has arity {f.arity}"
        raise ValueError(f"{getattr(f, 'name', repr(f))} {kind}; use {other}")
    if tuples and f.arity > 3:
        raise ValueError(f"windows are capped at arity 3, got {f.arity}")


def _require_semi(rep: ClassReport, window: int, f: Callable) -> None:
    """Refuse a handed-in report that is not f's semimultiplicative report
    on this window and arity, or whose shift is not of f's kind: a tuple for
    a function with an arity, 1 included, else an int."""
    tuples = hasattr(f, "arity")
    arity = f.arity if tuples else 1
    if (rep.klass, rep.window, rep.arity) != (SEMIMULTIPLICATIVE, window, arity) or (
        rep.a is not None and isinstance(rep.a, tuple) != tuples
    ):
        what = f"an arity-{arity}" if tuples else "a one-variable"
        raise ValueError(f"need {what} semimultiplicative report on window {window}")


def _least_support(f: Callable, points: Iterable) -> Optional[AnyPoint]:
    return next((pt for pt in points if f(pt) != 0), None)


class _WindowValues(dict):
    """f read through one table, filled on first use: a value at 1..window
    is evaluated once and kept. Values read once, kept nowhere, are read
    through past: for an ArithFn its reader for the window (arith), memo-free
    at every level and sieving convolutions; the memo of a MultiArithFn
    (every point is the checkers' own, so none needs the argument check);
    else f. Such are the arguments past the window, as a Rearick product,
    and the window values that _least_sweep keeps in its own table or that
    the support search reads off the multiples of a.

    For a function with an arity, 1 included, points are tuples and the
    window is the corner (W, ..., W) of the window box. Tuples compare
    lexicographically: every box point is kept, and tuple checkers read no other."""

    def __init__(self, f: Callable, window: int):
        super().__init__()
        self.f, self.window = f, (window,) * f.arity if hasattr(f, "arity") else window
        self.past = f.reader(window) if isinstance(f, ArithFn) else getattr(f, "_eval", f)

    def __missing__(self, n: AnyPoint) -> Rational:
        if n > self.window:
            return self.past(n)
        value = self[n] = self.f(n)
        return value


# the law of each coprime row, by whether f has an arity
_ROW_LAWS = {MULTIPLICATIVE: (LAW_MULT, LAW_MULT_U), QUASIMULTIPLICATIVE: (LAW_QUASI, LAW_QUASI_U)}


def _coprime_row(
    klass: str, f: Callable, window: int, semi: Optional[ClassReport] = None
) -> ClassReport:
    """The multiplicative or quasimultiplicative row of f, in any arity,
    with its law off _ROW_LAWS, decided by f(unit) first:
    - f(unit) = 0: with no support in the window, quasi is identically
      zero and mult vacuously consistent; else both fail at (unit, k), k
      the least support point (lexicographic for tuples), quasi by
      LAW_UNIT(_U), as k forces c = f(unit) = 0.
    - f(unit) not in {0, 1} refutes mult at (unit, unit).
    - Otherwise the row's instances and values are those of semi, f's
      semimultiplicative report, at a = unit with c = f(unit): it takes its
      verdict, and the law evaluated afresh at its witness pair, swapped for
      tuples (tuple rows read (n, m)). Only this case runs the checker of
      f's arity, and only when no semi is handed in."""
    tuples = hasattr(f, "arity")
    law, arity = _ROW_LAWS[klass][tuples], f.arity if tuples else 1
    scaled = LAWS[law].scaled
    unit, mul = ((1,) * arity, _pmul) if tuples else (1, operator.mul)
    values = _WindowValues(f, window).__getitem__
    c = values(unit)
    if c == 0:
        k = _least_support(values, _points(window, arity) if tuples else range(1, window + 1))
        if k is None:
            verdict = IDENTICALLY_ZERO if scaled else CONSISTENT
            return ClassReport(klass, verdict, window, arity=arity)
        law = (LAW_UNIT, LAW_UNIT_U)[tuples] if scaled else law
        pairs = [(k, unit) if tuples else (unit, k)]
    elif c != 1 and not scaled:
        pairs = [(unit, unit)]
    else:
        if semi is None:
            semi = (check_semimultiplicative_u if tuples else check_semimultiplicative)(f, window)
        w = semi.witness
        pairs = [] if w is None else [(w.n, w.m) if tuples else (w.m, w.n)]
    w = _sweep(values, law, pairs, mul, c)
    return _report(klass, window, w, arity=arity, c=c if scaled and c != 0 else None)


def check_multiplicative(f: ArithFn, window: int) -> ClassReport:
    """Decide f(mn) = f(m) f(n) over coprime m, n with mn <= window."""
    _require_window(f, window, False, "check_multiplicative_u")
    return _coprime_row(MULTIPLICATIVE, f, window)


def check_multiplicative_u(f: Callable, window: int) -> ClassReport:
    """Decide f(n.m) = f(n) f(m) over pairs with coprime coordinate products."""
    _require_window(f, window, True, "check_multiplicative")
    return _coprime_row(MULTIPLICATIVE, f, window)


def check_quasimultiplicative(f: ArithFn, window: int) -> ClassReport:
    """Decide c f(mn) = f(m) f(n) over coprime pairs, c forced to f(1)."""
    _require_window(f, window, False, "check_quasimultiplicative_u")
    return _coprime_row(QUASIMULTIPLICATIVE, f, window)


def check_quasimultiplicative_u(f: Callable, window: int) -> ClassReport:
    """Decide c f(n.m) = f(n) f(m) with the constant forced to f(1, ..., 1)."""
    _require_window(f, window, True, "check_quasimultiplicative")
    return _coprime_row(QUASIMULTIPLICATIVE, f, window)


def check_semimultiplicative(f: ArithFn, window: int) -> ClassReport:
    """Locate the least support point a, require the support to lie in a's
    multiples, then sweep f(a) f(amn) = f(am) f(an) over coprime m, n."""
    _require_window(f, window, False, "check_semimultiplicative_u")
    values = _WindowValues(f, window).__getitem__
    a = _least_support(values, range(1, window + 1))
    if a is None:
        return ClassReport(SEMIMULTIPLICATIVE, IDENTICALLY_ZERO, window)
    # the first support point off the multiples of a, which at a = 1 are all
    past, off = values.__self__.past, range(a + 1, window + 1) if a > 1 else ()
    off = next((n for n in off if n % a and past(n) != 0), None)
    if off is not None:
        return _report(SEMIMULTIPLICATIVE, window, _sweep(past, LAW_SUPPORT, [(a, off)], a=a), a=a)
    fa = values(a)
    w, F = _least_sweep(values, LAW_SHIFTED, window // a, _splits, fa, a)
    return _report(SEMIMULTIPLICATIVE, window, w, c=fa, a=a, table=F)


def check_semimultiplicative_u(f: Callable, window: int) -> ClassReport:
    """Determine the shift forced by the support, then sweep the shifted law.

    Any admissible shift must divide every support point componentwise and
    itself carry a nonzero value; the componentwise gcd of the support is
    therefore the only candidate. The forcing points recorded in the report
    are the support points at which the running gcd drops.
    """
    _require_window(f, window, True, "check_semimultiplicative")
    u = f.arity
    values = _WindowValues(f, window).__getitem__
    support_iter = (pt for pt in _points(window, u) if values(pt) != 0)
    first = next(support_iter, None)
    if first is None:
        return ClassReport(SEMIMULTIPLICATIVE, IDENTICALLY_ZERO, window, arity=u)
    avec, forcing = first, [first]
    for pt in support_iter:
        new = tuple(math.gcd(a, b) for a, b in zip(avec, pt))
        if new != avec:
            forcing.append(pt)
            avec = new
        if avec == (1,) * u:
            break
    known = {"arity": u, "a": avec, "forcing": tuple(forcing)}
    w = _sweep(values, LAW_FORCED_SHIFT, [(forcing[0], avec)], _pmul)
    if w is not None:
        rep = _report(SEMIMULTIPLICATIVE, window, w, **known)
        chain = "; ".join(f"f{pt} != 0 forces a | {pt}" for pt in forcing)
        rep.reason = f"{chain}; {rep.reason}"
        return rep
    fa = values(avec)
    caps = tuple(window // ai for ai in avec)
    unproven = lambda q, r: _coprime_tuple_pairs(caps, math.prod(q) * math.prod(r))
    w, F = _least_sweep(values, LAW_SHIFTED_U, caps, unproven, fa, avec)
    return _report(SEMIMULTIPLICATIVE, window, w, c=fa, table=F, **known)


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

    The decision reads f(a u) and f(a v) off semi's table, so it evaluates f
    only at the products past the window. A failed decision always has a
    pair witness, and only then does the sweep of every pair m < n <= W
    run, in (m, n) order, for the least one.
    It evaluates f(lcm), possibly past the window, only when f(gcd) != 0,
    and skips pairs where {gcd, lcm} = {m, n}, which hold trivially.
    """
    _require_window(f, window, False, "a one-variable function")
    semi = semi or check_semimultiplicative(f, window)
    _require_semi(semi, window, f)
    if semi.verdict == IDENTICALLY_ZERO:
        return _report(REARICK, window, None)
    values = _WindowValues(f, window).__getitem__
    if semi.consistent:
        a, c, past = semi.a, semi.c, values.__self__.past
        # semi's table, or else read afresh for a report made by hand
        F = semi.table or {n: values(a * n) for n in range(1, window // a + 1)}
        if all(c * past(a * u * v) == F[u] * F[v] for u, v in _wide_splits(window // a)):
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
    return tuple(nt._nu(p, x) for x in coords)


@dataclass
class SelbergFactorization:
    """One factor system in any arity, constant * prod_p F_p(e) with e the
    point's p-signature and F_p(e) in tables; points and exponents are ints
    in one variable, else tuples. extract_selberg fills the shift a and
    source, the f it read: factor() reads off source any F_p(e) whose probe
    point a_i p^(e_i - nu_p(a_i)) lies past the window. check_selberg_u fills
    exceptions, the primes with F_p(0, ..., 0) = 0, and anchors, its gauge
    choices F_p(e) = 1. Any other prime absent from a point contributes 1.
    arity is the length of the tuples a system without a shift evaluates.
    Systems compare by value, source aside.
    """

    constant: Rational
    tables: dict[int, dict[AnyPoint, Fraction]]
    a: Optional[AnyPoint] = None
    source: Optional[Callable] = field(default=None, compare=False)
    exceptions: tuple[int, ...] = ()
    anchors: tuple[tuple[int, AnyPoint], ...] = ()
    arity: int = 1

    def factor(self, p: int, e: AnyPoint) -> Fraction:
        if e in self.tables.get(p, ()):
            return self.tables[p][e]
        if self.source is None:
            raise ValueError(f"the system has no F_{p}{e}")
        probe = []
        for ai, ei in zip(_coords(self.a), _coords(e)):
            na = nt.nu(p, ai)
            if ei < na:
                return Fraction(0)
            probe.append(ai * p ** (ei - na))
        return Fraction(self.source(_like(self.a, probe))) / Fraction(self.constant)

    def reconstruct(self, pt: AnyPoint) -> Fraction:
        """constant * product of F_p(nu_p(pt)) over the primes of pt: 0, and
        no factor read, when a does not divide pt componentwise (some F_p(e)
        with e_i < nu_p(a_i) is 0; else a's primes are among pt's) or an
        exception prime does not divide pt's product. predict is the same."""
        like = self.a if self.a is not None else (1,) * self.arity
        coords, want = _coords(pt), _coords(like)
        if isinstance(pt, int) != isinstance(like, int) or len(coords) != len(want):
            kind = "an int" if isinstance(like, int) else f"a {len(want)}-tuple"
            raise ValueError(f"the system evaluates {kind}, got {pt!r}")
        if self.a is not None and any(map(operator.mod, coords, want)) or any(
                math.prod(coords) % p for p in self.exceptions):
            return Fraction(0)
        val = Fraction(self.constant)
        for p in sorted({p for x in coords for p, _ in nt.factorize(x)}):
            e = _like(pt, _signature(p, coords))
            if self.source is None and e not in self.tables.get(p, ()):
                raise ValueError(f"the system has no F_{p}{e}, which {pt} needs")
            val *= self.factor(p, e)
        return val

    predict = reconstruct


def extract_selberg(
    f: Callable, window: int, report: Optional[ClassReport] = None
) -> SelbergFactorization:
    """Read the factor system of a window-consistent semimultiplicative f of
    any arity off its report's table, one column per prime, one Fraction per
    entry: F_p(e) = f(probe) / f(a), probe_i = a_i p^(e_i - nu_p(a_i)), or 0
    once an e_i drops below nu_p(a_i). The report defaults to the one-variable
    check, so a multivariable f needs a report or extract_selberg_u."""
    arity, name = getattr(f, "arity", 1), getattr(f, "name", repr(f))
    if report is None and hasattr(f, "arity"):
        raise ValueError(f"{name} has arity {arity}; use extract_selberg_u or pass a report")
    rep = report if report is not None else check_semimultiplicative(f, window)
    _require_semi(rep, window, f)
    if rep.verdict != CONSISTENT:
        raise ValueError(
            f"{name} is not semimultiplicative-consistent on window {window} "
            f"(verdict {rep.verdict})"
        )
    a, c, F = rep.a, rep.c, rep.table
    coords, one_var, zero, one = _coords(a), isinstance(a, int), Fraction(0), Fraction(1)
    unit, mul, (num, den) = _unit(a), _point_product(a), Fraction(c).as_integer_ratio()
    read = F.__getitem__ if F is not None else lambda N: f(mul(a, N))  # None: a report made by hand
    # F(N) / c, one Fraction an entry; no gcd at c = 1
    ratio = (lambda v: v if type(v) is Fraction else Fraction(v)) if c == 1 else (
        lambda v: Fraction(v.numerator * den, v.denominator * num))
    tables: dict[int, dict[AnyPoint, Fraction]] = {}
    for p in nt.primes_up_to(window):
        axes = []  # per coordinate, N_i by exponent, probe_i = a_i N_i: None below nu_p(a_i)
        for ai in coords:
            axes.append([None] * nt._nu(p, ai))
            q = 1
            while ai * q <= window:
                axes[-1].append(q)
                q *= p
        # the points N by exponent; in several variables N is None as soon as one N_i is
        pts = enumerate(axes[0]) if one_var else zip(
            itertools.product(*map(range, map(len, axes))),
            (None if None in N else N for N in itertools.product(*axes)))
        tables[p] = {e: zero if N is None else one if N == unit else ratio(read(N)) for e, N in pts}
    return SelbergFactorization(rep.c, tables, a, f, arity=arity)


def extract_selberg_u(f: Callable, window: int, report: Optional[ClassReport] = None):
    """extract_selberg, with the multivariable check as the default report."""
    _require_window(f, window, True, "extract_selberg")
    return extract_selberg(f, window, report or check_semimultiplicative_u(f, window))


def check_selberg_u(f: Callable, window: int) -> ClassReport:
    """Decide whether any per-prime factor system matches the window.

    Each box point is read once, under f's memo, with its sparse row
    (_row). A p-signature is live when a support point carries it, else a
    candidate zero of F_p; (0, ..., 0) is one exactly for the exception
    primes, which divide every support product.

    Phase 1 (zero pattern): every zero of f must carry a candidate zero (an
    exception prime does not divide its product, or a prime of its row has
    a dead signature there); no factor system can produce any other zero.

    Phase 2 (ratios): on the support, anchor F_p(0,...,0) = 1 for every
    prime whose zero pattern allows it (the rest are the exception primes;
    gauge freedom lets all but the first of them take one more unit
    anchor), propagate single-unknown product equations to a fixpoint (a
    pass keeps for the next only the equations left with two unknowns or
    more; support values, and so the factors they define, are nonzero),
    then verify every support equation in integer cross products. The first
    failing point, together with the equations that pinned its factors,
    forms the inconsistent set.
    """
    _require_window(f, window, True, "classify_all")
    u = f.arity
    primes = nt.primes_up_to(window)
    # owner[p][e]: the first support point of nonzero p-signature e;
    # divides[p]: how many support points p divides
    owner: dict[int, dict[Point, Point]] = {p: {} for p in primes}
    divides = dict.fromkeys(primes, 0)
    equations, zeros = [], []  # (pt, value, row) on the support, and off it
    for pt in _points(window, u):
        value = f._eval(pt)
        (equations if value != 0 else zeros).append((pt, value, _row(pt)))
    for pt, _, row in equations:
        for p, s in row:
            owner[p].setdefault(s, pt)
            divides[p] += 1
    if not equations:
        return ClassReport(SELBERG, IDENTICALLY_ZERO, window, arity=u)
    exceptions = tuple(p for p in primes if divides[p] == len(equations))

    # phase 1: every zero must be explained by some candidate zero signature
    for pt, value, row in zeros:
        sigs = dict(row)
        if all(p in sigs for p in exceptions) and all(s in owner[p] for p, s in row):
            # each prime <= W (2 at least, as W > 1) shares pt's signature
            sharers = [
                (p, owner[p][sigs[p]] if p in sigs else
                 next(q for q, _, _ in equations if math.prod(q) % p))
                for p in primes
            ]
            q0 = sharers[0][1]
            w = Witness(q0, pt, value, next(v for q, v, _ in equations if q == q0), LAW_COVER)
            detail = "; ".join(f"f{q} != 0 shares the {p}-signature" for p, q in sharers)
            return ClassReport(
                SELBERG, REFUTED, window, arity=u, witness=w,
                reason=f"f{pt} = 0 is not explained by any per-prime zero pattern ({detail})",
            )

    ones = (1,) * u
    constant = Fraction(equations[0][1]) if equations[0][0] == ones else Fraction(1)
    anchors = tuple((p, min(owner[p])) for p in exceptions[1:])
    known: dict[tuple[int, Point], Fraction] = dict.fromkeys(anchors, Fraction(1))
    defining: dict[tuple[int, Point], Point] = {}

    todo, changed = equations, True
    while changed:
        changed, scan, todo = False, todo, []
        for eq in scan:
            unknown = [key for key in eq[2] if key not in known]
            if len(unknown) > 1:
                todo.append(eq)
            elif unknown:
                rest = (known[key] for key in eq[2] if key != unknown[0])
                known[unknown[0]] = eq[1] / math.prod(rest, start=constant)
                defining[unknown[0]] = eq[0]
                changed = True
    if todo:
        raise RuntimeError(
            f"window {window} leaves the factor system underdetermined at "
            f"{todo[0][0]}; enlarge the window"
        )

    cn, cd = constant.as_integer_ratio()
    for pt, value, factors in equations:
        pn, pd = cn, cd
        for key in factors:
            kn, kd = known[key].as_integer_ratio()
            pn, pd = pn * kn, pd * kd
        vn, vd = value.as_integer_ratio()
        if pn * vd != vn * pd:
            pred = Fraction(pn, pd)
            origin = "; ".join(
                f"F_{p}{sig} = {known[(p, sig)]} pinned at {defining.get((p, sig), 'anchor')}"
                for p, sig in factors
            )
            return ClassReport(
                SELBERG, REFUTED, window, arity=u,
                witness=Witness(None, pt, Fraction(value), pred, LAW_RATIO),
                reason=(f"with constant {constant} and {origin}, the product at {pt} "
                        f"is {pred} but f{pt} = {Fraction(value)}"),
            )

    tables: dict[int, dict[Point, Fraction]] = {}
    zero, one = Fraction(0), Fraction(1)
    for p in primes:
        # keyed by {0, ..., top}^u, top the largest exponent of p in the window
        top = next(e for e in itertools.count(1) if p ** (e + 1) > window)
        tables[p] = {
            s: known[(p, s)] if s in owner[p] else zero if any(s) or p in exceptions else one
            for s in itertools.product(range(top + 1), repeat=u)
        }
    system = SelbergFactorization(constant, tables, exceptions=exceptions, anchors=anchors, arity=u)
    return ClassReport(SELBERG, CONSISTENT, window, arity=u, system=system)


def _classify(f: Callable, window: int) -> dict:
    """The four rows of f in any arity around its semimultiplicative report
    semi, from the checkers of f's arity. The quasimultiplicative and
    multiplicative rows are read off f(unit) and semi (_coprime_row). A
    consistent semi's factor system goes, in one variable, on the Selberg
    row, there semi's own; with an arity, on semi, and check_selberg_u
    decides the row."""
    tuples = hasattr(f, "arity")
    semi = (check_semimultiplicative_u if tuples else check_semimultiplicative)(f, window)
    quasi, mult = (_coprime_row(k, f, window, semi) for k in (QUASIMULTIPLICATIVE, MULTIPLICATIVE))
    extract = extract_selberg_u if tuples else extract_selberg
    fac = extract(f, window, report=semi) if semi.verdict == CONSISTENT else None
    if tuples:
        semi.factorization, selberg = fac, check_selberg_u(f, window)
    else:
        selberg = replace(semi, klass=SELBERG, selberg=fac)
    return {MULTIPLICATIVE: mult, QUASIMULTIPLICATIVE: quasi,
            SEMIMULTIPLICATIVE: semi, SELBERG: selberg}


def classify_all(f: ArithFn, window: int) -> dict[str, ClassReport]:
    """All four class checks for one function (_classify): the selberg row
    is the semimultiplicative one, with its factor system when consistent."""
    _require_window(f, window, False, "classify_all_u")
    return _classify(f, window)


def classify_all_u(f: Callable, window: int) -> dict[str, ClassReport]:
    """All four multivariable class checks for one function (_classify)."""
    _require_window(f, window, True, "classify_all")
    return _classify(f, window)
