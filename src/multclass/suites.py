"""Named verification suites behind the command-line verify command.

Each suite sweeps one family of identities or classifier properties over a
window and returns per-item checks with short deterministic details, so a
JSON report of a suite run is stable enough for golden files.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import numtheory as nt
from . import ramanujan as rj
from .arith import (
    COMPOSE_KINDS,
    Rational,
    compose,
    dirichlet,
    eta,
    euler_phi,
    mobius,
    one,
    pointwise_product,
    scale,
    sum_of_squares,
    unitary,
)
from .classes import (
    CONSISTENT,
    IDENTICALLY_ZERO,
    LAW_QUASI,
    _WindowValues,
    _sweep,
    check_multiplicative,
    check_quasimultiplicative,
    check_rearick,
    check_semimultiplicative,
    extract_selberg,
)
from .corpus import corpus
from .multivar import (
    check_semimultiplicative_u,
    check_two_variable_theorem,
    dirichlet_u,
    extract_selberg_u,
    tensor,
)

ORACLE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    window: int
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _agree(name: str, lhs, rhs, points, ok: str = "", at: str = "mismatch at n=") -> Check:
    """lhs and rhs agree at every point; else the detail names the first
    point, in order, where they differ."""
    bad = next((x for x in points if lhs(x) != rhs(x)), None)
    return Check(name, bad is None, ok if bad is None else f"{at}{bad}")


def suite_rearick(window: int) -> SuiteResult:
    """The gcd-lcm identity holds exactly for the semimultiplicative corpus
    members (the zero function satisfies it vacuously)."""
    checks = []
    for f in corpus():
        semi = check_semimultiplicative(f, window)
        rea = check_rearick(f, window, semi)
        semi_ok = semi.verdict in (CONSISTENT, IDENTICALLY_ZERO)
        agree = (rea.verdict == CONSISTENT) == semi_ok
        checks.append(Check(f.name, agree, f"rearick={rea.verdict} semi={semi.verdict}"))
    return SuiteResult("rearick", window, checks)


def suite_selberg_reconstruct(window: int) -> SuiteResult:
    """Factor tables read off each consistent corpus function reproduce it."""
    checks = []
    for f in corpus():
        rep = check_semimultiplicative(f, window)
        if rep.verdict != CONSISTENT:
            checks.append(Check(f.name, True, f"skipped: {rep.verdict}"))
            continue
        fac = extract_selberg(f, window, report=rep)
        checks.append(_agree(f.name, fac.reconstruct, f, range(1, window + 1), ok="reconstructed"))
    uw = min(window, 12)
    for mf in (
        tensor(mobius, mobius),
        tensor(rj.c_fn(4), rj.c_fn(4)),
        tensor(scale(mobius, 2), euler_phi),
    ):
        rep = check_semimultiplicative_u(mf, uw)
        if rep.verdict != CONSISTENT:
            checks.append(Check(mf.name, False, f"unexpected verdict {rep.verdict}"))
            continue
        fac = extract_selberg_u(mf, uw, report=rep)
        pts = itertools.product(range(1, uw + 1), repeat=mf.arity)
        checks.append(_agree(mf.name, fac.reconstruct, mf, pts, "reconstructed", "mismatch at "))
    return SuiteResult("selberg-reconstruct", window, checks)


def suite_mu_bar_dual(window: int) -> SuiteResult:
    """Prime-power recipe vs Moebius inversion of mu_bar * 1 = g."""
    checks = []
    for r in range(1, window + 1):
        lhs, rhs = partial(rj.mu_bar, r), partial(rj.mu_bar_oracle, r)
        checks.append(_agree(f"r={r}", lhs, rhs, range(1, window + 1)))
    return SuiteResult("mu-bar-dual", window, checks)


def suite_unitary_identity(window: int) -> SuiteResult:
    """c_bar as a unitary-divisor sum of c, and both families as Dirichlet
    convolutions in n of their eta twists with the constant 1."""
    checks = []
    for r in range(1, window + 1):
        uds = nt.unitary_divisors(r)
        rhs = lambda n: sum(rj.c(d, n) for d in uds)
        checks.append(_agree(f"unitary:r={r}", partial(rj.c_bar, r), rhs, range(1, window + 1)))
    for r in range(1, min(window, 64) + 1):
        for label, mu_r, family in (("c", mobius, rj.c), ("c_bar", rj.mu_bar_fn(r), rj.c_bar)):
            conv = dirichlet(pointwise_product(eta(r), compose(mu_r, "k_over_n", r)), one)
            name = f"conv-n:{label}:r={r}"
            checks.append(_agree(name, conv, partial(family, r), range(1, 4 * r + 1)))
    return SuiteResult("unitary-identity", window, checks)


def quasi_failure(f: Callable, const: Rational, window: int) -> str:
    """LAW_QUASI with the given constant over coprime m, n <= window: ""
    when it holds, else "fails at (m, n)" at the lexicographically least
    failing pair. Every value read, m*n included, is kept for the sweep."""
    ms = range(1, window + 1)
    box = ((m, n) for m in ms for n in ms if math.gcd(m, n) == 1)
    w = _sweep(_WindowValues(f, window * window).__getitem__, LAW_QUASI, box, c=const)
    return "" if w is None else f"fails at ({w.m}, {w.n})"


def suite_quasi_identities(window: int) -> SuiteResult:
    """c_r(m)c_r(n) = mu(r) c_r(mn) and the c_bar analogue with the
    squareful indicator, for coprime m, n <= window. The constants are the
    paper's, not read off f(1)."""
    checks = []
    for label, fn, const in (("c", rj.c_fn, mobius), ("c_bar", rj.c_bar_fn, rj.mu_bar_indicator)):
        for r in range(1, window + 1):
            detail = quasi_failure(fn(r), const(r), window)
            checks.append(Check(f"{label}:r={r}", not detail, detail))
    return SuiteResult("quasi-identities", window, checks)


def _off(z: complex, exact: int) -> bool:
    return abs(z.real - exact) > ORACLE_TOLERANCE or abs(z.imag) > ORACLE_TOLERANCE


def suite_oracle_agreement(window: int) -> SuiteResult:
    """Divisor-sum values vs exponential sums, both families."""
    families = (("c", rj.c, rj.c_oracle), ("c_bar", rj.c_bar, rj.c_bar_oracle))
    checks = []
    for r in range(1, window + 1):
        # the first n, and at it the first family, where a part of the sum is off
        bad = next((f"{label} at n={n}" for n in range(1, window + 1)
                    for label, exact, oracle in families if _off(oracle(r, n), exact(r, n))), "")
        checks.append(Check(f"r={r}", not bad, bad))
    return SuiteResult("oracle-agreement", window, checks)


def _regular_count_brute(r: int) -> int:
    return sum(
        1 for a in range(r) if any((a * a * x - a) % r == 0 for x in range(r))
    )


def suite_two_variable_theorem(window: int) -> SuiteResult:
    """Evenness in n plus multiplicativity in r imply two-variable
    multiplicativity, for both families; regular-residue counts agree with
    brute-forced solvability of a*a*x = a (mod r) and the totient formula."""
    checks = []
    w = min(window, 30)
    for mf, label in ((rj.c_two_var(), "c"), (rj.c_bar_two_var(), "c_bar")):
        rep = check_two_variable_theorem(mf, w)
        checks.append(
            Check(
                label,
                rep.ok,
                f"even={rep.even_ok} mult_r={rep.mult_in_modulus_ok} "
                f"twovar={rep.conclusion.verdict} chain={rep.chain_ok}",
            )
        )
    # brute force and the totient formula against the count of regular residues
    formula = lambda r: math.prod(nt.euler_phi(p**k) + 1 for p, k in nt.factorize(r))
    counts = lambda r: (_regular_count_brute(r), formula(r))
    regular = lambda r: (len(nt.regular_residues(r)),) * 2
    checks.append(_agree("regular-count", counts, regular, range(1, window + 1), at="fails at r="))
    return SuiteResult("two-variable-theorem", window, checks)


def suite_closure_properties(window: int) -> SuiteResult:
    """Algebraic laws of the convolutions and the class-closure statements
    exercised on concrete pairs."""
    w = min(window, 48)
    checks = []

    for name, lhs, rhs in (
        ("mobius-inversion", dirichlet(mobius, one), lambda n: 1 if n == 1 else 0),
        ("dirichlet-commutes", dirichlet(mobius, euler_phi), dirichlet(euler_phi, mobius)),
        (
            "dirichlet-associates",
            dirichlet(dirichlet(mobius, euler_phi), one),
            dirichlet(mobius, dirichlet(euler_phi, one)),
        ),
        ("unitary-commutes", unitary(mobius, euler_phi), unitary(euler_phi, mobius)),
        (
            "unitary-associates",
            unitary(unitary(mobius, euler_phi), one),
            unitary(mobius, unitary(euler_phi, one)),
        ),
    ):
        checks.append(_agree(name, lhs, rhs, range(1, w + 1), at="at n="))

    rep = check_multiplicative(dirichlet(mobius, euler_phi), w)
    checks.append(Check("dirichlet-multiplicative", rep.verdict == CONSISTENT, rep.verdict))

    fc, gc = rj.c_fn(4), rj.c_bar_fn(12)
    closure_cases = [
        ("dirichlet", dirichlet(fc, gc)),
        ("product", pointwise_product(fc, gc)),
    ]
    closure_cases.extend((f"compose:{kind}", compose(fc, kind, 2)) for kind in COMPOSE_KINDS)
    for name, fn in closure_cases:
        rep = check_semimultiplicative(fn, w)
        checks.append(Check(f"semi-closure:{name}", rep.verdict == CONSISTENT, rep.verdict))

    rep = check_semimultiplicative(compose(euler_phi, "gcd_k", 12), w)
    checks.append(Check("semi-closure:gcdk-of-multiplicative", rep.verdict == CONSISTENT, rep.verdict))

    uw = min(window, 10)
    conv = dirichlet_u(tensor(mobius, mobius), tensor(euler_phi, euler_phi))
    urep = check_semimultiplicative_u(conv, uw)
    checks.append(Check("dirichlet-u-semi", urep.verdict == CONSISTENT, urep.verdict))

    return SuiteResult("closure-properties", window, checks)


def suite_lahiri_rs(window: int) -> SuiteResult:
    """The square-count functions are quasimultiplicative with c = r_s(1)."""
    w = min(window, 200)
    checks = []
    for s in (2, 4, 8):
        f = sum_of_squares(s)
        rep = check_quasimultiplicative(f, w)
        ok = rep.verdict == CONSISTENT and rep.c == f(1)
        checks.append(Check(f"r{s}", ok, f"verdict={rep.verdict} c={rep.c}"))
    return SuiteResult("lahiri-rs", window, checks)


SUITES: dict[str, Callable[[int], SuiteResult]] = {
    "rearick": suite_rearick,
    "selberg-reconstruct": suite_selberg_reconstruct,
    "mu-bar-dual": suite_mu_bar_dual,
    "unitary-identity": suite_unitary_identity,
    "quasi-identities": suite_quasi_identities,
    "oracle-agreement": suite_oracle_agreement,
    "two-variable-theorem": suite_two_variable_theorem,
    "closure-properties": suite_closure_properties,
    "lahiri-rs": suite_lahiri_rs,
}


def run_suite(name: str, window: int) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    nt._check_int(window, "window")
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    return SUITES[name](window)
