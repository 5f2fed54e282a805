"""Every law text has a fixture it refutes, with the exact least witness and
reason, and every witness replays through recheck_witness."""

from fractions import Fraction

import pytest

from multclass import classes
from multclass.arith import ArithFn, classical, compose, one, scale
from multclass.classes import (
    check_multiplicative,
    check_quasimultiplicative,
    check_rearick,
    check_semimultiplicative,
    recheck_witness,
)
from multclass.multivar import (
    MultiArithFn,
    check_multiplicative_u,
    check_quasimultiplicative_u,
    check_selberg_u,
    check_semimultiplicative_u,
    recheck_multi_witness,
    selberg_not_semimultiplicative,
    tensor,
)
from multclass.ramanujan import c_fn

mobius = classical("mobius")
phi = classical("euler_phi")
half_phi = compose(phi, "n_over_k", 2)  # noverk:2(phi), semimultiplicative with a = 2
shifted2 = MultiArithFn(
    "shifted2", 2,
    lambda pt: mobius(pt[0] // 2) * phi(pt[1] // 3) if pt[0] % 2 == 0 and pt[1] % 3 == 0 else 0,
)
not_semi = selberg_not_semimultiplicative()


def perturb(f, at, value):
    """f with the single value at `at` replaced."""
    if isinstance(f, ArithFn):
        return ArithFn(f"{f.name}!", lambda n: value if n == at else f(n))
    return MultiArithFn(f"{f.name}!", f.arity, lambda pt: value if pt == at else f(pt))


# law constant name -> (checker, refuted fixture, window, (m, n, lhs, rhs, shift),
#                       reason, a class member the witness must not refute)
CASES = {
    "LAW_MULT": (
        check_multiplicative, scale(mobius, 2), 32, (1, 1, 2, 4, None),
        "f(1) = 2 but f(1)*f(1) = 4", mobius,
    ),
    "LAW_UNIT": (
        check_quasimultiplicative, c_fn(4), 32, (1, 2, 0, -2, None),
        "f(1) = 0 although f(2) = -2 != 0, so the forced constant vanishes", mobius,
    ),
    "LAW_QUASI": (
        check_quasimultiplicative, perturb(mobius, 6, 2), 32, (2, 3, 2, 1, None),
        "f(1)*f(6) = 2 but f(2)*f(3) = 1", scale(mobius, 2),
    ),
    "LAW_SUPPORT": (
        check_semimultiplicative, perturb(half_phi, 3, 1), 32, (2, 3, 1, 0, 2),
        "least support point is a = 2, yet f(3) = 1 with 2 not dividing 3", half_phi,
    ),
    "LAW_SHIFTED": (
        check_semimultiplicative, perturb(half_phi, 12, 5), 32, (2, 3, 5, 2, 2),
        "f(2)*f(12) = 5 but f(4)*f(6) = 2", half_phi,
    ),
    "LAW_REARICK": (
        check_rearick, perturb(mobius, 6, 2), 32, (2, 3, 1, 2, None),
        "f(2)*f(3) = 1 but f(1)*f(6) = 2", c_fn(4),
    ),
    "LAW_MULT_U": (
        check_multiplicative_u, not_semi, 8, ((1, 2), (1, 1), 1, 0, None),
        "f((1, 2)) = 1 but f((1, 1))*f((1, 2)) = 0", tensor(mobius, phi),
    ),
    "LAW_UNIT_U": (
        check_quasimultiplicative_u, not_semi, 8, ((1, 2), (1, 1), 0, 1, None),
        "f(1, 1) = 0 although f(1, 2) = 1 != 0", tensor(mobius, phi),
    ),
    "LAW_QUASI_U": (
        check_quasimultiplicative_u, perturb(tensor(scale(mobius, 2), phi), (2, 3), 7), 8,
        ((2, 1), (1, 3), 14, -8, None),
        "f(1, 1)*f((2, 3)) = 14 but f((1, 3))*f((2, 1)) = -8", tensor(scale(mobius, 2), phi),
    ),
    "LAW_FORCED_SHIFT": (
        check_semimultiplicative_u, not_semi, 8, ((1, 2), (1, 1), 0, 1, None),
        "f(1, 2) != 0 forces a | (1, 2); f(2, 1) != 0 forces a | (2, 1); "
        "hence a = (1, 1), but f(1, 1) = 0",
        tensor(mobius, phi),
    ),
    "LAW_SHIFTED_U": (
        check_semimultiplicative_u, perturb(shifted2, (4, 9), 5), 12,
        ((1, 3), (2, 1), 5, -2, (2, 3)),
        "f(2, 3)*f((4, 9)) = 5 but f((2, 9))*f((4, 3)) = -2", shifted2,
    ),
    "LAW_COVER": (
        check_selberg_u, MultiArithFn("hole", 2, lambda pt: 0 if pt == (2, 3) else 1), 4,
        ((2, 1), (2, 3), 0, 1, None),
        "f(2, 3) = 0 is not explained by any per-prime zero pattern "
        "(f(2, 1) != 0 shares the 2-signature; f(1, 3) != 0 shares the 3-signature)",
        None,
    ),
    "LAW_RATIO": (
        check_selberg_u, MultiArithFn("sum2", 2, lambda pt: pt[0] + pt[1]), 3,
        (None, (2, 3), Fraction(5), Fraction(6), None),
        "with constant 2 and F_2(1, 0) = 3/2 pinned at (2, 1); F_3(0, 1) = 2 pinned at "
        "(1, 3), the product at (2, 3) is 6 but f(2, 3) = 5",
        None,
    ),
}

LAW_NAMES = sorted(name for name in vars(classes) if name.startswith("LAW_"))


@pytest.mark.parametrize("name", LAW_NAMES)
def test_law_refutes_its_fixture(name):
    checker, f, window, expected, reason, member = CASES[name]
    rep = checker(f, window)
    w = rep.witness
    assert rep.verdict == classes.REFUTED
    assert w.law == getattr(classes, name)
    assert (w.m, w.n, w.lhs, w.rhs, w.shift) == expected
    assert rep.reason == reason
    assert recheck_witness(f, w)
    if member is not None:
        assert not recheck_witness(member, w)


def test_one_recheck_for_every_arity():
    assert recheck_multi_witness is recheck_witness
    assert set(classes.LAWS) == {
        getattr(classes, name) for name in LAW_NAMES
    } - {classes.LAW_COVER, classes.LAW_RATIO}


def test_rearick_zero_gcd_skips_the_lcm():
    # f(1) = 0 makes the rhs 0 whatever f(6) is, so f(6) is never evaluated
    indicator = ArithFn("ind{2,3}", lambda n: 1 if n in (2, 3) else 0)
    rep = check_rearick(indicator, 8)
    w = rep.witness
    assert (w.m, w.n, w.lhs, w.rhs, w.shift) == (2, 3, 1, 0, None)
    assert rep.reason == "f(2)*f(3) = 1 but f(1)*f(6) = 0"
    assert recheck_witness(indicator, w)

    def raises_at_6(n):
        if n == 6:
            raise AssertionError("f(6) evaluated")
        return indicator(n)

    assert recheck_witness(ArithFn("ind{2,3}?", raises_at_6), w)
    assert not recheck_witness(mobius, w)


# Both Selberg-product replays below wrongly return True: the recheck of
# LAW_RATIO and LAW_COVER compares f(w.n) with the stored sides only.
@pytest.mark.xfail(strict=True, reason="LAW_RATIO recheck trusts the stored sides")
def test_ratio_recheck_rejects_a_selberg_product():
    _, f, window, *_ = CASES["LAW_RATIO"]
    w = check_selberg_u(f, window).witness
    assert not recheck_witness(MultiArithFn("five", 2, lambda pt: 5), w)


@pytest.mark.xfail(strict=True, reason="LAW_COVER recheck trusts the stored sides")
def test_cover_recheck_rejects_a_selberg_product():
    _, f, window, *_ = CASES["LAW_COVER"]
    w = check_selberg_u(f, window).witness
    no3 = ArithFn("no3", lambda n: 0 if n % 3 == 0 else 1)
    assert not recheck_witness(tensor(one, no3), w)
