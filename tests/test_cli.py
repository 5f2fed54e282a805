import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multclass import numtheory as nt
from multclass.arith import (
    COMPOSE_KINDS,
    classical,
    compose,
    dirichlet,
    pointwise_product,
    scale,
    unitary,
)
from multclass.cli import (
    _BINARY,
    _LEAVES,
    _UNARY,
    EXPECT_CHOICES,
    SPEC_DEPTH_LIMIT,
    FnSpecError,
    parse_fn_spec,
    run,
)
from multclass.corpus import corpus
from multclass.multivar import tensor
from multclass.ramanujan import c_bar_fn, c_fn

GOLDEN = Path(__file__).parent / "golden"


def read_schema():
    text = resources.files("multclass.schemas").joinpath("report.schema.json").read_text()
    return json.loads(text)


def run_capture(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, out


def test_eval_tsv_golden(capsys):
    rc, out = run_capture(capsys, ["eval", "--fn", "c:4", "--n", "1..8", "--no-timing"])
    assert rc == 0
    assert out == GOLDEN.joinpath("eval_c4.tsv").read_text()


def test_eval_json_golden(capsys):
    rc, out = run_capture(capsys, ["eval", "--fn", "c:4", "--n", "1..8", "--json", "--no-timing"])
    assert rc == 0
    assert out == GOLDEN.joinpath("eval_c4.json").read_text()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("classify_c4.json", ["--fn", "c:4", "--window", "32", "--json"]),
        ("classify_c4.tsv", ["--fn", "c:4", "--window", "32"]),
        # the only golden with a u-variable factorization table
        ("classify_tensor.json", ["--fn", "tensor(c:4,phi)", "--window", "8", "--json"]),
        # Rearick and Selberg at the shift a = 7, read off one value table
        (
            "classify_shift7.json",
            ["--fn", "dirichlet(c_bar:7,mu_bar:29)", "--window", "96", "--json"],
        ),
        # ... and at the constant c = -3/2
        ("classify_scaled.json", ["--fn", "scale:3/2(c:5)", "--window", "96", "--json"]),
    ],
    ids=["c4-json", "c4-tsv", "tensor-json", "shift7-json", "scaled-json"],
)
def test_classify_json_golden(capsys, golden, argv):
    rc, out = run_capture(capsys, ["classify", *argv, "--no-timing"])
    assert rc == 0
    assert out == GOLDEN.joinpath(golden).read_text()


@pytest.mark.parametrize(
    "golden, fmt",
    [("classify_counterexample.json", ["--json"]), ("classify_counterexample.tsv", [])],
    ids=["json", "tsv"],
)
def test_classify_counterexample_golden(capsys, golden, fmt):
    rc, out = run_capture(
        capsys,
        ["classify", "--fn", "selberg-not-semi", "--window", "8", *fmt, "--no-timing"],
    )
    assert rc == 0
    assert out == GOLDEN.joinpath(golden).read_text()


def test_verify_json_golden(capsys):
    rc, out = run_capture(
        capsys, ["verify", "--suite", "lahiri-rs", "--window", "32", "--json", "--no-timing"]
    )
    assert rc == 0
    assert out == GOLDEN.joinpath("verify_lahiri.json").read_text()


def test_reports_validate_against_schema(capsys):
    schema = read_schema()
    jsonschema.Draft7Validator.check_schema(schema)
    argvs = [
        ["eval", "--fn", "mobius", "--json", "--no-timing"],
        ["eval", "--fn", "scale:-3/2(phi)", "--n", "2..5", "--json"],
        ["classify", "--fn", "mobius", "--window", "20", "--json"],
        ["classify", "--fn", "tensor(mobius, phi)", "--window", "8", "--json", "--no-timing"],
        ["classify", "--fn", "c_bar:12", "--window", "48", "--json", "--no-timing"],
        ["verify", "--suite", "mu-bar-dual", "--window", "16", "--json"],
    ]
    for argv in argvs:
        rc, out = run_capture(capsys, argv)
        assert rc == 0, argv
        jsonschema.validate(json.loads(out), schema)


def test_golden_files_validate_against_schema():
    schema = read_schema()
    for path in sorted(GOLDEN.glob("*.json")):
        jsonschema.validate(json.loads(path.read_text()), schema)


def test_eval_flag_parameters(capsys):
    rc_flag, out_flag = run_capture(capsys, ["eval", "--fn", "c", "--r", "4", "--no-timing"])
    rc_colon, out_colon = run_capture(capsys, ["eval", "--fn", "c:4", "--no-timing"])
    assert rc_flag == rc_colon == 0
    assert out_flag == out_colon


def test_eval_range_single_value(capsys):
    rc, out = run_capture(capsys, ["eval", "--fn", "phi", "--n", "7", "--no-timing"])
    assert rc == 0
    assert out == "n\tvalue\n7\t6\n"


def test_expect_pass_and_fail(capsys):
    rc, _ = run_capture(
        capsys,
        ["classify", "--fn", "mobius", "--window", "16", "--expect", "multiplicative"],
    )
    assert rc == 0
    rc, out = run_capture(
        capsys,
        ["classify", "--fn", "scale:2(mobius)", "--window", "16", "--expect", "multiplicative"],
    )
    assert rc == 1
    assert "expectation failed" in out


def test_expect_rearick_row(capsys):
    rc, _ = run_capture(
        capsys, ["classify", "--fn", "c:4", "--window", "16", "--expect", "rearick"]
    )
    assert rc == 0


def test_usage_errors_exit_two(capsys):
    assert run(["eval", "--fn", "nosuchfn"]) == 2
    assert run(["eval", "--fn", "c:4", "--n", "5..2"]) == 2
    assert run(["eval", "--fn", "selberg-not-semi"]) == 2
    assert run(["eval", "--fn", "c"]) == 2  # bare c without --r
    assert run(["verify", "--suite", "bogus"]) == 2
    assert run(["classify", "--fn", "mobius", "--arity", "2"]) == 2
    assert run(["classify", "--fn", "mobius", "--window", "1"]) == 2
    capsys.readouterr()
    # the Rearick row needs r2 at lcm arguments past its enumeration budget
    assert run(["classify", "--fn", "r2", "--window", "150"]) == 2
    err = capsys.readouterr().err
    assert "r2 enumeration is budgeted to n <= 20000" in err
    assert "Traceback" not in err
    # leaves without a parameter reject one instead of dropping it
    for spec in ("mobius:3", "r2:9", "selberg-not-semi:5"):
        assert run(["eval", "--fn", spec]) == 2, spec
        name = spec.partition(":")[0]
        assert capsys.readouterr().err == f"error: {name} takes no ':' parameter\n"
    # suite errors reach stderr as raised by run_suite
    for argv, err in (
        (["--suite", "rearick", "--window", "1"], "window must be at least 2, got 1"),
        (["--suite", "rearick", "--window", "0"], "window must be a positive integer, got 0"),
        (
            ["--suite", "bogus"],
            "unknown suite 'bogus'; known: closure-properties, lahiri-rs, mu-bar-dual, "
            "oracle-agreement, quasi-identities, rearick, selberg-reconstruct, "
            "two-variable-theorem, unitary-identity",
        ),
    ):
        assert run(["verify", *argv]) == 2, argv
        assert capsys.readouterr().err == f"error: {err}\n"


def test_spec_nesting_limit(capsys):
    # d_(k+1)(8) = C(k + 3, 3) for k nested dirichlet(one, ...) around one
    def chain(depth):
        return "dirichlet(one," * depth + "one" + ")" * depth

    at, past = chain(SPEC_DEPTH_LIMIT), chain(SPEC_DEPTH_LIMIT + 1)
    rc, out = run_capture(capsys, ["eval", "--fn", at, "--n", "8", "--no-timing"])
    assert rc == 0 and out.splitlines()[1] == f"8\t{math.comb(SPEC_DEPTH_LIMIT + 3, 3)}"
    assert run(["classify", "--fn", at, "--window", "8", "--no-timing"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    # the message names the position of the first "(" past the limit
    scales = "scale:2(" * 500 + "phi" + ")" * 500
    for spec, pos in ((past, 14 * SPEC_DEPTH_LIMIT + 9), (scales, 8 * SPEC_DEPTH_LIMIT + 7)):
        for argv in (["eval", "--fn", spec], ["classify", "--fn", spec, "--window", "8"]):
            assert run(argv) == 2
            assert capsys.readouterr().err == (
                f"error: specs nest at most {SPEC_DEPTH_LIMIT} deep (at position {pos})\n"
            )


# specs from the grammar, mostly well formed: every leaf and operator with
# the parameter it takes, one time in eight with none or a bad one (zero,
# negative, fractional, not a number, empty), and an unknown name
_BAD_PARAMS = st.none() | st.sampled_from(["0", "-3", "3/2", "1/0", "x", ""])
_INTS = st.integers(1, 12).map(str)


def _mostly(good, bad, odds=7):
    """good, odds times in odds + 1, else bad."""
    return st.sampled_from([good] * odds + [bad]).flatmap(lambda strategy: strategy)


def _named(name, good):
    return _mostly(good, _BAD_PARAMS).map(lambda p: name if p is None else f"{name}:{p}")


_LEAF = st.sampled_from([*_LEAVES, "nosuch"]).flatmap(
    lambda name: _named(name, _INTS if _LEAVES.get(name, (None, None))[1] else st.none())
)


def _apply(inner):
    unary = st.builds(
        lambda op, x: f"{op}({x})",
        st.sampled_from(_UNARY).flatmap(lambda op: _named(op, st.sampled_from(
            ["2", "-3", "3/2", "-2/3"]) if op == "scale" else _INTS)),
        inner,
    )
    binary = st.builds(
        lambda op, x, y, sep: f"{op}({x},{sep}{y})",
        st.sampled_from(_BINARY), inner, inner, st.sampled_from(["", " "]),
    )
    return unary | binary


# a chain of one wrapper around a leaf, from just inside the nesting limit to past it
_DEEP = st.builds(
    lambda depth, wrap, leaf: wrap * depth + leaf + ")" * depth,
    st.integers(SPEC_DEPTH_LIMIT - 2, SPEC_DEPTH_LIMIT + 2),
    st.sampled_from(["scale:2(", "gcdk:6(", "dilate:2(", "dirichlet(one,", "unitary(mobius,",
                     "product(c:4,", "tensor(one,", "dirichlet(tensor(one,one),"]),
    _LEAF,
)
_SPECS = _mostly(st.recursive(_LEAF, _apply, max_leaves=6), _DEEP, odds=3)
_RANGES = st.one_of(
    st.builds(lambda lo, hi: f"{lo}..{hi}", st.integers(0, 32), st.integers(0, 32)),
    st.integers(0, 32).map(str),
    st.sampled_from(["", "..", "a..3", "3.."]),
)


def _flags(draw, *names):
    """Each named flag or not, then --json and --no-timing or not."""
    argv = []
    for name in names:
        value = draw(st.none() | st.integers(-1, 12))
        argv += [] if value is None else [name, str(value)]
    return argv + [flag for flag in ("--json", "--no-timing") if draw(st.booleans())]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["eval", "classify", "verify"]))
    if command == "verify":
        from multclass.suites import SUITES

        suite = draw(st.sampled_from([*SUITES, "bogus"]))
        return ["verify", "--suite", suite, "--window", str(draw(st.integers(-1, 8)))] + _flags(draw)
    spec = draw(_SPECS)
    if command == "eval":
        return ["eval", "--fn", spec, "--n", draw(_RANGES)] + _flags(draw, "--r", "--k")
    tuples = any(name in spec for name in ("tensor", "two-var", "selberg-not-semi"))
    window = draw(st.integers(-1, 8 if tuples else 24))
    argv = ["classify", "--fn", spec, "--window", str(window)] + _flags(draw, "--r", "--k")
    expect = _mostly(st.sampled_from(EXPECT_CHOICES), st.just("bogus"))
    for expected in draw(st.lists(expect, max_size=2)):
        argv += ["--expect", expected]
    arity = draw(st.none() | st.integers(0, 3))
    return argv + ([] if arity is None else ["--arity", str(arity)])


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_no_arguments_end_in_a_traceback(argv):
    # 0 pass, 1 failed expectation or suite, 2 usage error; never a traceback
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            rc = run(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue()


def test_sieve_bound_refusal_exits_two(capsys):
    old = nt.sieve_bound()
    try:
        nt.set_sieve_bound(50)
        capsys.readouterr()
        assert run(["classify", "--fn", "phi", "--window", "64"]) == 2
        assert capsys.readouterr().err == (
            "error: primes_up_to(64) exceeds the sieve bound 50; "
            "set MULTCLASS_SIEVE_BOUND to raise it\n"
        )
    finally:
        nt.set_sieve_bound(old)


@pytest.mark.parametrize("raw, shown", [("0", "0"), ("2", "2"), ("abc", "'abc'")])
def test_bad_sieve_bound_variable_exits_two(capsys, monkeypatch, raw, shown):
    monkeypatch.setenv(nt.SIEVE_BOUND_ENV, raw)
    monkeypatch.setattr(nt, "_sieve_bound", None)
    capsys.readouterr()
    assert run(["classify", "--fn", "phi", "--window", "8"]) == 2
    assert capsys.readouterr().err == (
        "error: the sieve bound (MULTCLASS_SIEVE_BOUND) must be an integer of at least 4, "
        f"got {shown}\n"
    )


def test_verify_failure_exits_one(capsys, monkeypatch):
    import multclass.suites as suites
    from multclass.suites import Check, SuiteResult

    def broken(window):
        return SuiteResult("rearick", window, (Check("boom", False, "synthetic"),))

    monkeypatch.setitem(suites.SUITES, "rearick", broken)
    rc, out = run_capture(capsys, ["verify", "--suite", "rearick", "--window", "4"])
    assert rc == 1
    assert "FAIL" in out


def test_json_deterministic(capsys):
    argv = ["classify", "--fn", "dirichlet(c:4, one)", "--window", "24", "--json", "--no-timing"]
    rc1, out1 = run_capture(capsys, argv)
    rc2, out2 = run_capture(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_timing_present_by_default(capsys):
    rc, out = run_capture(capsys, ["eval", "--fn", "one", "--n", "1..2", "--json"])
    assert rc == 0
    assert "timing" in json.loads(out)
    rc, out = run_capture(capsys, ["eval", "--fn", "one", "--n", "1..2", "--json", "--no-timing"])
    assert "timing" not in json.loads(out)


def test_parse_fn_spec_shapes():
    assert parse_fn_spec("mobius").name == "mobius"
    assert parse_fn_spec("mu") is parse_fn_spec("mobius")
    assert parse_fn_spec("c:12").name == "c:12"
    assert parse_fn_spec("dirichlet(c:4, one)").name == "dirichlet(c:4,one)"
    assert parse_fn_spec("gcdk:12(phi)").name == "gcdk:12(phi)"
    assert parse_fn_spec("tensor(mobius, phi)").arity == 2
    assert parse_fn_spec("scale:-3/2(phi)")(4) == -3


@pytest.mark.parametrize("kind", COMPOSE_KINDS)
def test_compose_names_round_trip(kind):
    name = compose(classical("phi"), kind, 3).name
    assert parse_fn_spec(name).name == name


# spaces may come before a name, before ',' or ')' and at the end, nowhere else
@pytest.mark.parametrize(
    "text, name",
    [(" dirichlet(c:4 , one) ", "dirichlet(c:4,one)"), ("tensor(mobius,  phi)", "tensor(mobius,phi)")],
)
def test_parse_fn_spec_accepts_spaces(text, name):
    assert parse_fn_spec(text).name == name


@pytest.mark.parametrize(
    "text, error",
    [
        ("dirichlet (c:4, one)", "trailing characters (at position 10"),
        ("c :4", "trailing characters (at position 2"),
        ("c: 4", "c: expected a parameter after ':' (at position 2"),
        ("c:4(", "expected a function name (at position 4"),
        ("scale:3/2(phi", "expected ',' or ')' (at position 13"),
    ],
)
def test_parse_fn_spec_rejects_misplaced_text(text, error):
    with pytest.raises(FnSpecError) as exc:
        parse_fn_spec(text)
    assert str(exc.value) == f"{error} in {text!r})"


def test_names_parse_back_to_themselves():
    phi, leaves = classical("phi"), corpus()
    fns = leaves + [scale(phi, Fraction(-3, 2)), tensor(c_fn(4), phi)]
    fns += [compose(c_fn(4), kind, 3) for kind in COMPOSE_KINDS]
    for lhs, rhs in zip(leaves[::7], leaves[3::7]):
        fns += [dirichlet(lhs, rhs), pointwise_product(lhs, rhs), unitary(lhs, rhs)]
    for f in fns:
        assert parse_fn_spec(f.name).name == f.name


def test_parse_fn_spec_errors():
    for bad in (
        "",
        "c:",
        "c:0",
        "scale(mobius)",
        "scale:0(mobius)",
        "dirichlet(mobius)",
        "dirichlet(mobius, one, phi)",
        "tensor(mobius, tensor(one, one))",
        "mobius(one)",
        "c:4 trailing",
        "product(tensor(one,one), mobius)",
        "mobius:3",
        "mu:2",
        "r2:9",
        "selberg-not-semi:5",
        "c-two-var:4",
    ):
        with pytest.raises(FnSpecError):
            parse_fn_spec(bad)


def test_every_suite_runs_clean(capsys):
    from multclass.suites import SUITES

    for name in SUITES:
        rc, out = run_capture(capsys, ["verify", "--suite", name, "--window", "8", "--no-timing"])
        assert rc == 0, (name, out)


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "multclass", "eval", "--fn", "mobius", "--n", "1..4", "--no-timing"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n\tvalue\n1\t1\n2\t-1\n3\t-1\n4\t0\n"
