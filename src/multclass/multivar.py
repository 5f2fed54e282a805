"""Arithmetical functions of several variables and their classifiers.

Points are u-tuples of positive integers and windows are hypercubes
[1, N]^u. The definitions mirror the one-variable ones with componentwise
products, componentwise divisibility, and coprimality read off the
products of the coordinates. The laws are entries of classes.LAWS
(LAW_*_U and LAW_FORCED_SHIFT), and the checkers here run them through the
same sweep as the one-variable checkers, over tuple points; witnesses and
reports are the classes module's Witness and ClassReport, and
recheck_multi_witness is classes.recheck_witness. The shift-based factor
system is classes.SelbergFactorization with tuple points, read off by
classes.extract_selberg.

In several variables the Selberg class is strictly larger than the
semimultiplicative class, so deciding Selberg membership cannot go through
a shift parameter. check_selberg_u instead decides whether any per-prime
factor system reproduces the window: first the zero set must be a union of
per-prime zero patterns, then the nonzero values must satisfy the ratio
constraints once the per-prime gauge freedom is fixed by anchoring
F_p(0,...,0) = 1 wherever the support permits.

Every checker reads f through one value table of the window box
(classes._WindowValues), check_selberg_u each prime's signatures as one
column over the box (_signature_column). The coprime-pair checkers run
classes._least_sweep: from a table of f(a N), two coprime splits per box
point (_tuple_splits) decide, and only a refuted law reruns the
lexicographic sweep of every coprime pair (_coprime_tuple_pairs) for the
least witness. classify_all_u derives the first two rows from the third at
the shift (1, ..., 1).

Everything here is pure and deterministically ordered, so witnesses are
reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    LAW_UNIT_U,
    MULTIPLICATIVE,
    QUASIMULTIPLICATIVE,
    REFUTED,
    SELBERG,
    SEMIMULTIPLICATIVE,
    ClassReport,
    SelbergFactorization,
    Witness,
    _WindowValues,
    _derived,
    _least_support,
    _least_sweep,
    _pmul,
    _report,
    _require_window,
    _signature,
    _sweep,
    check_multiplicative,
    extract_selberg,
    recheck_witness,
)

# One recheck and one factor-system type serve every arity; the names stay
# for existing callers.
recheck_multi_witness = recheck_witness
MultiSelbergFactorization = SelbergFactorization

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

    def ev(pt: Point) -> Rational:
        out: Rational = 1
        for f, x in zip(fns, pt):
            out = out * f(x)
        return out

    return MultiArithFn(name, len(fns), ev)


def dirichlet_u(f: MultiArithFn, g: MultiArithFn) -> MultiArithFn:
    """Componentwise-divisor convolution of two functions of equal arity."""
    if f.arity != g.arity:
        raise ValueError("convolution needs equal arities")

    def ev(pt: Point) -> Rational:
        total: Rational = 0
        for dvec in itertools.product(*(nt.divisors(x) for x in pt)):
            qvec = tuple(x // d for x, d in zip(pt, dvec))
            total += f(dvec) * g(qvec)
        return total

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


def _signature_column(p: int, window: int, u: int) -> list[Point]:
    """_signature(p, pt) at every window box point, in _points order."""
    return list(itertools.product(_signature(p, range(1, window + 1)), repeat=u))


def _coprime_tuple_pairs(caps: Sequence[int]) -> Iterator[tuple[Point, Point]]:
    """Pairs (n, m) with n_i * m_i <= caps[i] and gcd(prod n, prod m) = 1,
    in lexicographic order of (n, m)."""
    for nvec in itertools.product(*(range(1, c + 1) for c in caps)):
        pn = math.prod(nvec)
        for mvec in itertools.product(*(range(1, c // x + 1) for c, x in zip(caps, nvec))):
            if math.gcd(pn, math.prod(mvec)) == 1:
                yield nvec, mvec


def _tuple_splits(caps: Sequence[int]) -> Iterator[tuple[Point, Point]]:
    """Two coprime splits of each point N of the box, ordered by (prod N, N):
    (1, N), then (Q, N / Q) when prod N has two or more prime factors,
    where Q is the componentwise full power of the least prime of prod N.

    classes.coprime_pairs's induction goes through unchanged for any law
    c F(m.n) = F(m) F(n) with c != 0: a coprime split of N sends all of Q
    to one side, every product it reduces to is smaller, and componentwise
    divisors of N stay in the box. So these two splits fail somewhere
    exactly when some coprime pair of the box does. (1, N) comes just
    before (Q, N / Q) and holds by itself when c = F(1), so
    classes._least_sweep only reads F(N) there.
    """
    ones = (1,) * len(caps)
    box = itertools.product(*(range(1, c + 1) for c in caps))
    # the box comes lexicographically and sorted() is stable: (prod N, N)
    for pt in sorted(box, key=math.prod):
        yield ones, pt
        prod = math.prod(pt)
        # q is the least prime's full power in prod N, so gcd(N_i, q) is its
        # full power in N_i
        q = prod & -prod if prod % 2 == 0 else nt.least_prime_power(prod)
        if q != prod:
            qvec = tuple(math.gcd(x, q) for x in pt)
            yield qvec, tuple(x // y for x, y in zip(pt, qvec))


def check_multiplicative_u(f: MultiArithFn, window: int) -> ClassReport:
    """Sweep f(n.m) = f(n) f(m) over pairs with coprime coordinate products."""
    _require_window(window, f.arity)
    caps = (window,) * f.arity
    pairs = ((m, n) for n, m in _coprime_tuple_pairs(caps))
    values = _WindowValues(f, window).__getitem__
    w = _least_sweep(values, LAW_MULT_U, _tuple_splits(caps), lambda m, n: pairs, _pmul)
    return _report(MULTIPLICATIVE, window, w, arity=f.arity)


def check_quasimultiplicative_u(f: MultiArithFn, window: int) -> ClassReport:
    """Sweep c f(n.m) = f(n) f(m) with the constant forced to f(1, ..., 1)."""
    _require_window(window, f.arity)
    values = _WindowValues(f, window).__getitem__
    ones = (1,) * f.arity
    least = _least_support(values, _points(window, f.arity))
    if least is None:
        return ClassReport(QUASIMULTIPLICATIVE, IDENTICALLY_ZERO, window, arity=f.arity)
    w = _sweep(values, LAW_UNIT_U, [(least, ones)], _pmul)
    if w is not None:
        return _report(QUASIMULTIPLICATIVE, window, w, arity=f.arity)
    f1 = values(ones)
    caps = (window,) * f.arity
    pairs = ((m, n) for n, m in _coprime_tuple_pairs(caps))
    w = _least_sweep(values, LAW_QUASI_U, _tuple_splits(caps), lambda m, n: pairs, _pmul, f1)
    return _report(QUASIMULTIPLICATIVE, window, w, arity=f.arity, c=f1)


def check_semimultiplicative_u(f: MultiArithFn, window: int) -> ClassReport:
    """Determine the shift forced by the support, then sweep the shifted law.

    Any admissible shift must divide every support point componentwise and
    itself carry a nonzero value; the componentwise gcd of the support is
    therefore the only candidate. The forcing points recorded in the report
    are the support points at which the running gcd drops.
    """
    _require_window(window, f.arity)
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
    splits, pairs = _tuple_splits(caps), _coprime_tuple_pairs(caps)
    w = _least_sweep(values, LAW_SHIFTED_U, splits, lambda m, n: pairs, _pmul, fa, avec)
    return _report(SEMIMULTIPLICATIVE, window, w, c=fa, **known)


def extract_selberg_u(f: MultiArithFn, window: int, report: Optional[ClassReport] = None):
    """classes.extract_selberg, with the multivariable check as the default report."""
    return extract_selberg(f, window, report or check_semimultiplicative_u(f, window))


@dataclass
class SelbergSystem:
    """A concrete per-prime factor system fitted to one window.

    predict() multiplies the constant by every stored column's entry at the
    point's signature, so rescaling one column and compensating in another
    leaves all predictions unchanged (the gauge freedom). exceptions are
    the primes whose column could not be anchored to F_p(0,...,0) = 1.
    """

    constant: Fraction
    tables: dict[int, dict[Point, Fraction]]
    exceptions: tuple[int, ...]
    anchors: tuple[tuple[int, Point], ...]

    def predict(self, pt: Point) -> Fraction:
        val = self.constant
        for p, col in self.tables.items():
            val *= col[_signature(p, pt)]
        return val


def check_selberg_u(f: MultiArithFn, window: int) -> ClassReport:
    """Decide whether any per-prime factor system matches the window.

    Phase 1 (zero pattern): a signature e of prime p is a candidate zero,
    Z_p, when every window point carrying it vanishes; every zero of f must
    carry at least one candidate-zero signature, otherwise no factor system
    can produce it.

    Phase 2 (ratios): on the support, anchor F_p(0,...,0) = 1 for every
    prime whose zero pattern allows it (the rest are the exception primes;
    gauge freedom lets all but the first of them take one more unit
    anchor), propagate single-unknown product equations to a fixpoint, then
    verify every support equation. The first failing point, together with
    the equations that pinned its factors, forms the inconsistent set.
    """
    _require_window(window, f.arity)
    u = f.arity
    pts = list(_points(window, u))
    values = _WindowValues(f, window).__getitem__
    nonzero = [values(pt) != 0 for pt in pts]
    if not any(nonzero):
        return ClassReport(SELBERG, IDENTICALLY_ZERO, window, arity=u)
    primes = nt.primes_up_to(window) if window >= 2 else []
    zero_vec = (0,) * u
    support = list(itertools.compress(pts, nonzero))

    # owner[p][e]: the first support point of p-signature e (dict keeps the last write)
    cols, owner, zero_sigs = {}, {}, {}
    for p in primes:
        column = cols[p] = _signature_column(p, window, u)
        owner[p] = dict(zip(reversed(list(itertools.compress(column, nonzero))), reversed(support)))
        zero_sigs[p] = frozenset(set(column) - owner[p].keys())

    # phase 1: every zero must be explained by some candidate zero signature
    for pt, nz, *row in zip(pts, nonzero, *cols.values()):
        if not nz and not any(s in zero_sigs[p] for p, s in zip(primes, row)):
            sharers = [(p, owner[p][s]) for p, s in zip(primes, row)]
            _, owner0 = sharers[0] if sharers else (None, None)
            detail = "; ".join(f"f{q} != 0 shares the {p}-signature" for p, q in sharers)
            return ClassReport(
                SELBERG,
                REFUTED,
                window,
                arity=u,
                witness=Witness(
                    owner0, pt, values(pt), values(owner0) if owner0 else 1, LAW_COVER
                ),
                reason=f"f{pt} = 0 is not explained by any per-prime zero pattern ({detail})",
            )

    exceptions = tuple(p for p in primes if zero_vec in zero_sigs[p])
    ones = (1,) * u
    constant = Fraction(values(ones)) if values(ones) != 0 else Fraction(1)

    known: dict[tuple[int, Point], Fraction] = {}
    anchors: list[tuple[int, Point]] = []
    for p in exceptions[1:]:
        live = sorted(owner[p])
        if live:
            known[(p, live[0])] = Fraction(1)
            anchors.append((p, live[0]))
    defining: dict[tuple[int, Point], Point] = {}

    equations = []
    for pt, *row in zip(support, *(itertools.compress(c, nonzero) for c in cols.values())):
        factors = tuple((p, s) for p, s in zip(primes, row) if s != zero_vec)
        equations.append((pt, Fraction(values(pt)), factors))

    changed = True
    while changed:
        changed = False
        for pt, value, factors in equations:
            unknown = [key for key in factors if key not in known]
            if len(unknown) != 1:
                continue
            rest = constant
            for key in factors:
                if key != unknown[0]:
                    rest *= known[key]
            if rest == 0:
                continue
            known[unknown[0]] = value / rest
            defining[unknown[0]] = pt
            changed = True

    stuck = [
        (pt, factors)
        for pt, _, factors in equations
        if any(key not in known for key in factors)
    ]
    if stuck:
        raise RuntimeError(
            f"window {window} leaves the factor system underdetermined at "
            f"{stuck[0][0]}; enlarge the window"
        )

    for pt, value, factors in equations:
        pred = constant
        for key in factors:
            pred *= known[key]
        if pred != value:
            origin = "; ".join(
                f"F_{p}{sig} = {known[(p, sig)]} pinned at {defining.get((p, sig), 'anchor')}"
                for p, sig in factors
            )
            return ClassReport(
                SELBERG,
                REFUTED,
                window,
                arity=u,
                witness=Witness(None, pt, Fraction(values(pt)), pred, LAW_RATIO),
                reason=(
                    f"with constant {constant} and {origin}, the product at {pt} "
                    f"is {pred} but f{pt} = {value}"
                ),
            )

    tables: dict[int, dict[Point, Fraction]] = {}
    for p in primes:
        col: dict[Point, Fraction] = {}
        for s in sorted(owner[p].keys() | zero_sigs[p]):
            if s in zero_sigs[p]:
                col[s] = Fraction(0)
            elif s == zero_vec:
                col[s] = Fraction(1)
            else:
                col[s] = known[(p, s)]
        tables[p] = col
    system = SelbergSystem(constant, tables, exceptions, tuple(anchors))
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
    if f.arity != 2:
        raise ValueError("the two-variable theorem needs an arity-2 function")
    _require_window(window, 2)

    even_witness = None
    for r, n in itertools.product(range(1, window + 1), repeat=2):
        lhs, rhs = f((n, r)), f((math.gcd(n, r), r))
        if lhs != rhs:
            even_witness = (r, n, lhs, rhs)
            break

    mult_witness = None
    for n in range(1, window + 1):
        inner = ArithFn(f"{f.name}@{n}", lambda r, _n=n: f((_n, r)))
        w = check_multiplicative(inner, window).witness
        if w is not None:
            mult_witness = (n, w.m, w.n, w.lhs, w.rhs)
            break

    conclusion = check_multiplicative_u(f, window)

    chain_witness = None
    b = min(window, 8)  # the chain samples quadruples in [1, 8]^4
    for m, r, n, s in itertools.product(range(1, b + 1), repeat=4):
        if math.gcd(m * r, n * s) != 1:
            continue
        v1 = f((m * n, r * s))
        v2 = f((m * n, r)) * f((m * n, s))
        v3 = f((math.gcd(m * n, r), r)) * f((math.gcd(m * n, s), s))
        v4 = f((math.gcd(m, r), r)) * f((math.gcd(n, s), s))
        v5 = f((m, r)) * f((n, s))
        steps = (v1, v2, v3, v4, v5)
        if any(steps[i] != steps[i + 1] for i in range(4)):
            chain_witness = (m, r, n, s, steps)
            break

    return TwoVariableReport(window, even_witness, mult_witness, conclusion, chain_witness)


def classify_all_u(f: MultiArithFn, window: int) -> dict[str, ClassReport]:
    """All four multivariable class checks for one function.

    At the shift (1, ..., 1) with c = f(1, ..., 1) != 0 (semi's c is set),
    the quasimultiplicative instances and values are the semimultiplicative
    ones, as are the multiplicative ones when also c = 1, so those rows take
    its verdict (classes._derived); any other f refutes them within a few
    instances."""
    semi = check_semimultiplicative_u(f, window)
    quasi = _derived(QUASIMULTIPLICATIVE, LAW_QUASI_U, semi, f, check_quasimultiplicative_u)
    mult = _derived(MULTIPLICATIVE, LAW_MULT_U, semi, f, check_multiplicative_u)
    if semi.verdict == CONSISTENT:
        semi.factorization = extract_selberg_u(f, window, report=semi)
    return {
        MULTIPLICATIVE: mult,
        QUASIMULTIPLICATIVE: quasi,
        SEMIMULTIPLICATIVE: semi,
        SELBERG: check_selberg_u(f, window),
    }
