"""Arithmetical functions of several variables and their classifiers.

Points are u-tuples of positive integers and windows are hypercubes
[1, N]^u. The definitions mirror the one-variable ones with componentwise
products, componentwise divisibility, and coprimality read off the
products of the coordinates. The laws are entries of classes.LAWS
(LAW_*_U and LAW_FORCED_SHIFT), and the checkers here run them through the
same sweep as the one-variable checkers, over tuple points; witnesses and
reports are the classes module's Witness and ClassReport, and
recheck_multi_witness is classes.recheck_witness. Every factor system, the
shift-based one that classes.extract_selberg reads off and the one that
check_selberg_u fits, is a classes.SelbergFactorization with tuple points.

In several variables the Selberg class is strictly larger than the
semimultiplicative class, so deciding Selberg membership cannot go through
a shift parameter. check_selberg_u instead decides whether any per-prime
factor system reproduces the window: first the zero set must be a union of
per-prime zero patterns, then the nonzero values must satisfy the ratio
constraints once the per-prime gauge freedom is fixed by anchoring
F_p(0,...,0) = 1 wherever the support permits.

Every checker reads f through one value table of the window box
(classes._WindowValues), but check_selberg_u reads each box point once,
under f's memo, with its sparse row of signatures (_row).
check_semimultiplicative_u runs classes._least_sweep over the box points
of classes.coprime_pairs, each with its least-prime split, and only a
refuted law sweeps the coprime pairs lexicographically
(_coprime_tuple_pairs) for the least witness, from the pairs whose product
reaches the failing point's: the sweep has proven every smaller product.
The multiplicative and quasimultiplicative rows are read off f(1, ..., 1)
and that sweep (classes._coprime_row).

Everything here is pure and deterministically ordered, so witnesses are
reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import floordiv
from typing import Callable, Iterator, Optional, Sequence

from . import numtheory as nt
from .arith import MEMO_SIZE, ArithFn, Rational
from .classes import (
    CONSISTENT,
    IDENTICALLY_ZERO,
    LAW_COVER,
    LAW_FORCED_SHIFT,
    LAW_MULT_U,
    LAW_QUASI_U,
    LAW_RATIO,
    LAW_SHIFTED_U,
    MULTIPLICATIVE,
    QUASIMULTIPLICATIVE,
    REFUTED,
    SELBERG,
    SEMIMULTIPLICATIVE,
    ClassReport,
    SelbergFactorization,
    Witness,
    _WindowValues,
    _classify,
    _coprime_row,
    _least_sweep,
    _pmul,
    _report,
    _require_window,
    _sweep,
    check_multiplicative,
    extract_selberg,
    recheck_witness,
)

# one recheck serves every arity; the name stays for existing callers
recheck_multi_witness = recheck_witness

Point = tuple[int, ...]


class MultiArithFn:
    """A named total function on u-tuples of positive integers."""

    __slots__ = ("name", "arity", "_eval")

    def __init__(self, name: str, arity: int, fn: Callable[[Point], Rational]):
        nt._check_int(arity, "arity")
        self.name = name
        self.arity = arity
        self._eval = lru_cache(maxsize=MEMO_SIZE)(fn)

    def __call__(self, point: Sequence[int]) -> Rational:
        pt = tuple(point)
        if len(pt) != self.arity:
            raise ValueError(f"{self.name} expects {self.arity}-tuples, got {pt!r}")
        if any(
            type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)) or x < 1
            for x in pt
        ):
            raise ValueError(f"{self.name} is defined on positive integers, got {pt!r}")
        return self._eval(pt)

    def __repr__(self) -> str:
        return f"MultiArithFn({self.name}, arity={self.arity})"


def tensor(*fns: ArithFn) -> MultiArithFn:
    """Outer product (n_1, ..., n_u) -> f_1(n_1) * ... * f_u(n_u)."""
    if not fns:
        raise ValueError("tensor needs at least one factor")
    name = "tensor(" + ",".join(f.name for f in fns) + ")"
    return MultiArithFn(name, len(fns), lambda pt: math.prod(f._eval(x) for f, x in zip(fns, pt)))


def dirichlet_u(f: MultiArithFn, g: MultiArithFn) -> MultiArithFn:
    """Componentwise-divisor convolution of two functions of equal arity."""
    if f.arity != g.arity:
        raise ValueError("convolution needs equal arities")
    divisor_box = lambda pt: itertools.product(*map(nt.divisors, pt))
    ev = lambda pt: sum(f._eval(d) * g._eval(tuple(map(floordiv, pt, d))) for d in divisor_box(pt))
    return MultiArithFn(f"dirichlet({f.name},{g.name})", f.arity, ev)


def selberg_not_semimultiplicative() -> MultiArithFn:
    """The two-variable gap witness: 0 when both coordinates are odd, else 1.

    It factors through per-prime tables (F_2(0,0) = 0, every other value 1)
    but no shift works: f(1,2) and f(2,1) force a = (1,1) where f vanishes.
    """
    return MultiArithFn(
        "selberg-not-semi", 2, lambda pt: 0 if pt[0] % 2 and pt[1] % 2 else 1
    )


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


def _coprime_tuple_pairs(caps: Sequence[int], least: int = 1) -> Iterator[tuple[Point, Point]]:
    """Pairs (n, m) with n_i * m_i <= caps[i], gcd(prod n, prod m) = 1 and
    prod n * prod m >= least, in lexicographic order of (n, m)."""
    for nvec in itertools.product(*(range(1, c + 1) for c in caps)):
        pn = math.prod(nvec)
        for mvec in itertools.product(*(range(1, c // x + 1) for c, x in zip(caps, nvec))):
            pm = math.prod(mvec)
            if pn * pm >= least and math.gcd(pn, pm) == 1:
                yield nvec, mvec


def check_multiplicative_u(f: MultiArithFn, window: int) -> ClassReport:
    """Decide f(n.m) = f(n) f(m) over pairs with coprime coordinate products."""
    _require_window(f, window, True, "check_multiplicative")
    return _coprime_row(MULTIPLICATIVE, LAW_MULT_U, f, window, check_semimultiplicative_u)


def check_quasimultiplicative_u(f: MultiArithFn, window: int) -> ClassReport:
    """Decide c f(n.m) = f(n) f(m) with the constant forced to f(1, ..., 1)."""
    _require_window(f, window, True, "check_quasimultiplicative")
    return _coprime_row(QUASIMULTIPLICATIVE, LAW_QUASI_U, f, window, check_semimultiplicative_u)


def check_semimultiplicative_u(f: MultiArithFn, window: int) -> ClassReport:
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


def extract_selberg_u(f: MultiArithFn, window: int, report: Optional[ClassReport] = None):
    """classes.extract_selberg, with the multivariable check as the default report."""
    _require_window(f, window, True, "extract_selberg")
    return extract_selberg(f, window, report or check_semimultiplicative_u(f, window))


def check_selberg_u(f: MultiArithFn, window: int) -> ClassReport:
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
    primes = nt.primes_up_to(window) if window >= 2 else []
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
    system = SelbergFactorization(constant, tables, exceptions=exceptions, anchors=anchors)
    return ClassReport(SELBERG, CONSISTENT, window, arity=u, system=system)


@dataclass
class TwoVariableReport:
    """Hypotheses and conclusion of the two-variable multiplicativity theorem.

    For f(n, r): evenness in n for every modulus r, multiplicativity in r
    for every n, the resulting two-variable multiplicativity, and the
    four-step product chain on sampled coprime quadruples. Each check
    holds exactly when it has no witness.
    """

    window: int
    even_witness: Optional[tuple]
    mult_witness: Optional[tuple]
    conclusion: ClassReport
    chain_witness: Optional[tuple]

    @property
    def even_ok(self) -> bool:
        return self.even_witness is None

    @property
    def mult_in_modulus_ok(self) -> bool:
        return self.mult_witness is None

    @property
    def chain_ok(self) -> bool:
        return self.chain_witness is None

    @property
    def hypotheses_ok(self) -> bool:
        return self.even_ok and self.mult_in_modulus_ok

    @property
    def ok(self) -> bool:
        return self.hypotheses_ok and self.conclusion.consistent and self.chain_ok


def check_two_variable_theorem(f: MultiArithFn, window: int) -> TwoVariableReport:
    """Check the even-times-multiplicative route to two-variable
    multiplicativity for f(n, r), the modulus in the second slot."""
    _require_window(f, window, True, "an arity-2 function")
    if f.arity != 2:
        raise ValueError("the two-variable theorem needs an arity-2 function")

    # each hypothesis's first failure, in order
    axis = range(1, window + 1)
    even = ((r, n, f((n, r)), f((math.gcd(n, r), r))) for r in axis for n in axis)
    even_witness = next((w for w in even if w[2] != w[3]), None)
    inner = lambda n: ArithFn(f"{f.name}@{n}", lambda r: f._eval((n, r)))
    mults = ((n, check_multiplicative(inner(n), window).witness) for n in axis)
    mult_witness = next(((n, w.m, w.n, w.lhs, w.rhs) for n, w in mults if w is not None), None)

    conclusion = check_multiplicative_u(f, window)

    chain_witness = None
    # the chain samples coprime quadruples in [1, 8]^4
    for m, r, n, s in itertools.product(range(1, min(window, 8) + 1), repeat=4):
        if math.gcd(m * r, n * s) == 1:
            mn, g = m * n, math.gcd
            steps = (f((mn, r * s)), f((mn, r)) * f((mn, s)), f((g(mn, r), r)) * f((g(mn, s), s)),
                     f((g(m, r), r)) * f((g(n, s), s)), f((m, r)) * f((n, s)))
            if len(set(steps)) > 1:
                chain_witness = (m, r, n, s, steps)
                break

    return TwoVariableReport(window, even_witness, mult_witness, conclusion, chain_witness)


def classify_all_u(f: MultiArithFn, window: int) -> dict[str, ClassReport]:
    """All four multivariable class checks for one function (classes._classify)."""
    _require_window(f, window, True, "classify_all")
    semi = check_semimultiplicative_u(f, window)
    multi = (extract_selberg_u, check_selberg_u)
    return _classify(f, window, semi, (LAW_QUASI_U, LAW_MULT_U), multi)
