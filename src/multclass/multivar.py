"""Arithmetical functions of several variables, and the two-variable theorem.

Points are u-tuples of positive integers and windows are hypercubes
[1, N]^u. MultiArithFn is a function on them; tensor and dirichlet_u build
products and convolutions. The checkers of every arity live in classes,
which decides tuple points through the same laws, sweeps and recheck as
ints; their _u names, classify_all_u included, are bound here as well, so
multivar.check_selberg_u is classes.check_selberg_u, and
recheck_multi_witness is classes.recheck_witness. What stays here is the
two-variable multiplicativity theorem (check_two_variable_theorem) and the
gap witness selberg_not_semimultiplicative.

Everything here is pure and deterministically ordered, so witnesses are
reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import floordiv
from typing import Callable, Optional, Sequence

from . import numtheory as nt
from .arith import MEMO_SIZE, ArithFn, Rational
from .classes import (
    ClassReport,
    _require_window,
    check_multiplicative,
    check_multiplicative_u,
    check_quasimultiplicative_u,
    check_selberg_u,
    check_semimultiplicative_u,
    classify_all_u,
    extract_selberg_u,
)
from .classes import recheck_witness as recheck_multi_witness

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
