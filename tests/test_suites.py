"""Failure details of the verification suites, pinned by planting one wrong
value in a check and reading the detail string it reports."""

from fractions import Fraction

from multclass import ramanujan as rj
from multclass import suites
from multclass.arith import ArithFn


def off_by_one_at(fn, bad_args):
    """fn, except that its value at the arguments bad_args is one larger."""
    return lambda *args: fn(*args) + (args == bad_args)


def failures(result):
    """The failing checks' details by name."""
    return {c.name: c.detail for c in result.checks if not c.ok}


def pass_details(result):
    """The set of details the passing checks carry."""
    return {c.detail for c in result.checks if c.ok}


def test_mu_bar_dual_names_the_first_mismatch(monkeypatch):
    monkeypatch.setattr(rj, "mu_bar_oracle", off_by_one_at(rj.mu_bar_oracle, (3, 5)))
    result = suites.run_suite("mu-bar-dual", 8)
    assert failures(result) == {"r=3": "mismatch at n=5"}
    assert pass_details(result) == {""}


def test_unitary_identity_names_the_first_mismatch(monkeypatch):
    monkeypatch.setattr(rj, "c_bar", off_by_one_at(rj.c_bar, (4, 6)))
    result = suites.run_suite("unitary-identity", 8)
    assert failures(result) == {
        "unitary:r=4": "mismatch at n=6",
        "conv-n:c_bar:r=4": "mismatch at n=6",
    }
    assert pass_details(result) == {""}


def test_closure_laws_name_the_first_mismatch(monkeypatch):
    monkeypatch.setattr(suites, "one", ArithFn("one", lambda n: 2 if n == 5 else 1))
    result = suites.run_suite("closure-properties", 8)
    assert failures(result) == {"mobius-inversion": "at n=5"}
    laws = ("dirichlet-commutes", "dirichlet-associates", "unitary-commutes", "unitary-associates")
    assert [c.detail for c in result.checks if c.name in laws] == ["", "", "", ""]


def test_selberg_reconstruct_names_the_first_mismatch(monkeypatch):
    extract, extract_u = suites.extract_selberg, suites.extract_selberg_u

    def corrupt(f, window, report=None):
        fac = extract(f, window, report=report)
        if f.name == "c:4":
            fac.tables[3][1] = Fraction(5)  # reconstruct(6) = -2 * 1 * 5
        return fac

    def corrupt_u(f, window, report=None):
        fac = extract_u(f, window, report=report)
        if f.name == "tensor(mobius,mobius)":
            fac.tables[2][(1, 0)] = Fraction(7)
        return fac

    monkeypatch.setattr(suites, "extract_selberg", corrupt)
    monkeypatch.setattr(suites, "extract_selberg_u", corrupt_u)
    result = suites.run_suite("selberg-reconstruct", 16)
    assert failures(result) == {
        "c:4": "mismatch at n=6",
        "tensor(mobius,mobius)": "mismatch at (2, 1)",
    }
    assert {d for d in pass_details(result) if not d.startswith("skipped:")} == {"reconstructed"}
