"""Command-line surface: value tables, classification reports, suites.

Function specs form a tiny expression language over the built-ins, e.g.

    mobius
    c:4                          (or: --fn c --r 4)
    scale:-3/2(phi)
    dirichlet(c:4, c_bar:12)
    gcdk:12(phi)
    tensor(mobius, phi)

Output is TSV by default, a JSON report with --json. Reports are
byte-identical for identical inputs when --no-timing is passed.
Exit codes: 0 pass, 1 failed expectation or failed suite, 2 usage error.

The suites, and the corpus they sweep, load only when verify runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import ramanujan as rj
from .arith import (
    ArithFn,
    _CLASSICAL,
    _COMPOSE,
    compose,
    dirichlet,
    eta,
    format_rational,
    pointwise_product,
    scale,
    sum_of_squares,
    unitary,
)
from .classes import (
    CONSISTENT,
    MULTIPLICATIVE,
    QUASIMULTIPLICATIVE,
    REARICK,
    SELBERG,
    SEMIMULTIPLICATIVE,
    AnyPoint,
    ClassReport,
    SelbergFactorization,
    Witness,
    check_rearick,
    classify_all,
)
from .multivar import (
    MultiArithFn,
    classify_all_u,
    dirichlet_u,
    selberg_not_semimultiplicative,
    tensor,
)

SCHEMA_VERSION = "1"

EXPECT_CHOICES = (MULTIPLICATIVE, QUASIMULTIPLICATIVE, SEMIMULTIPLICATIVE, SELBERG, REARICK)


class FnSpecError(ValueError):
    """A function spec that cannot be parsed or resolved."""


# a name with its optional ":param" after optional spaces; a separator
# after optional spaces, empty when neither ',' nor ')' follows
_NAME = re.compile(r" *([a-z0-9_-]*)(?::([0-9/-]*))?")
_SEP = re.compile(r" *([,)]?)")
# deepest "(" nesting of a spec: each level adds stack frames to parse and evaluate
SPEC_DEPTH_LIMIT = 100

# spec token -> compose kind, the inverse of the tokens compose puts in names
_UNARY_KIND = {token: kind for kind, (token, _) in _COMPOSE.items()}
_UNARY = ("scale", *_UNARY_KIND)
_BINARY = ("dirichlet", "product", "unitary", "tensor")
# leaf -> (builder, the flag a bare leaf reads its parameter from); a leaf
# whose flag is None takes no parameter
_LEAVES = {
    **{name: (lambda fn=fn: fn, None) for name, fn in _CLASSICAL.items()},
    "c": (rj.c_fn, "r"),
    "c_bar": (rj.c_bar_fn, "r"),
    "mu_bar": (rj.mu_bar_fn, "r"),
    "g": (rj.g_fn, "r"),
    "eta": (eta, "k"),
    **{f"r{s}": (lambda s=s: sum_of_squares(s), None) for s in (2, 4, 8)},
    "selberg-not-semi": (selberg_not_semimultiplicative, None),
    "c-two-var": (rj.c_two_var, None),
    "c-bar-two-var": (rj.c_bar_two_var, None),
}

Fn = Union[ArithFn, MultiArithFn]


def _int_param(name: str, param: Optional[str], fallback: Optional[int], what: str) -> int:
    if param is not None:
        try:
            value = int(param)
        except ValueError:
            raise FnSpecError(f"{name}: parameter {param!r} is not an integer")
    elif fallback is not None:
        value = fallback
    else:
        raise FnSpecError(f"{name} needs a parameter: write {name}:{what.upper()} or pass --{what}")
    if value < 1:
        raise FnSpecError(f"{name}: {what} must be a positive integer, got {value}")
    return value


def _build(node: tuple, r: Optional[int], k: Optional[int]) -> Fn:
    name, param, args = node

    if name in _UNARY:
        if len(args) != 1:
            raise FnSpecError(f"{name} takes exactly one argument, got {len(args)}")
        if param is None:
            raise FnSpecError(f"{name} needs a parameter, e.g. {name}:2(...)")
        inner = _build(args[0], r, k)
        if not isinstance(inner, ArithFn):
            raise FnSpecError(f"{name} applies to one-variable functions only")
        if name == "scale":
            try:
                const = Fraction(param)
            except (ValueError, ZeroDivisionError):
                raise FnSpecError(f"scale: bad constant {param!r}")
            if const == 0:
                raise FnSpecError("scale: constant must be nonzero")
            return scale(inner, const)
        return compose(inner, _UNARY_KIND[name], _int_param(name, param, None, "parameter"))

    if name in _BINARY:
        if len(args) != 2:
            raise FnSpecError(f"{name} takes exactly two arguments, got {len(args)}")
        if param is not None:
            raise FnSpecError(f"{name} takes no ':' parameter")
        lhs = _build(args[0], r, k)
        rhs = _build(args[1], r, k)
        both_one = isinstance(lhs, ArithFn) and isinstance(rhs, ArithFn)
        if name == "tensor":
            if not both_one:
                raise FnSpecError("tensor combines one-variable functions")
            return tensor(lhs, rhs)
        if name == "dirichlet":
            if both_one:
                return dirichlet(lhs, rhs)
            if isinstance(lhs, MultiArithFn) and isinstance(rhs, MultiArithFn):
                return dirichlet_u(lhs, rhs)
            raise FnSpecError("dirichlet needs two functions of the same arity")
        if not both_one:
            raise FnSpecError(f"{name} combines one-variable functions")
        return pointwise_product(lhs, rhs) if name == "product" else unitary(lhs, rhs)

    if args:
        raise FnSpecError(f"{name} takes no arguments")

    if name not in _LEAVES:
        raise FnSpecError(f"unknown function {name!r}")
    build, flag = _LEAVES[name]
    if flag is None:
        if param is not None:
            raise FnSpecError(f"{name} takes no ':' parameter")
        return build()
    return build(_int_param(name, param, {"r": r, "k": k}[flag], flag))


def _syntax_error(msg: str, text: str, pos: int) -> FnSpecError:
    return FnSpecError(f"{msg} (at position {pos} in {text!r})")


def _expr(text: str, pos: int, depth: int = 0) -> tuple[tuple, int]:
    """The (name, param, args) node at pos, depth levels deep, and the position after it."""
    m = _NAME.match(text, pos)
    name, param = m.groups()
    if not name:
        raise _syntax_error("expected a function name", text, m.start(1))
    if param == "":
        raise _syntax_error(f"{name}: expected a parameter after ':'", text, m.end())
    pos, args = m.end(), []
    if text.startswith("(", pos):
        if depth == SPEC_DEPTH_LIMIT:
            raise FnSpecError(f"specs nest at most {SPEC_DEPTH_LIMIT} deep (at position {pos})")
        sep = ","
        while sep == ",":
            node, pos = _expr(text, pos + 1, depth + 1)
            args.append(node)
            m = _SEP.match(text, pos)
            sep, pos = m.group(1), m.start(1)
        if sep != ")":
            raise _syntax_error("expected ',' or ')'", text, pos)
        pos += 1
    return (name, param, args), pos


def parse_fn_spec(text: str, r: Optional[int] = None, k: Optional[int] = None) -> Fn:
    """Resolve a function spec string to a callable function object."""
    node, pos = _expr(text, 0)
    pos = _SEP.match(text, pos).start(1)
    if pos != len(text):
        raise _syntax_error("trailing characters", text, pos)
    return _build(node, r, k)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise FnSpecError(f"bad range {text!r}; write LO..HI")
    if lo < 1 or hi < lo:
        raise FnSpecError(f"bad range {text!r}; need 1 <= LO <= HI")
    return lo, hi


def _point_obj(x: Optional[AnyPoint]) -> Union[int, list, None]:
    return list(x) if isinstance(x, tuple) else x


def _text(x) -> str:
    """TSV form of a JSON value: "" for null and "e1,e2" for a point."""
    if x is None:
        return ""
    return ",".join(map(str, x)) if isinstance(x, (list, tuple)) else str(x)


def _witness_obj(w: Witness) -> dict:
    out = {
        "m": _point_obj(w.m),
        "n": _point_obj(w.n),
        "lhs": format_rational(w.lhs),
        "rhs": format_rational(w.rhs),
        "law": w.law,
    }
    if w.shift is not None:
        out["shift"] = _point_obj(w.shift)
    return out


def _witness_text(obj: Optional[dict]) -> str:
    """m= before n= in one variable, n= before m= in several."""
    if obj is None:
        return ""
    m, n = f"m={_text(obj['m']) or '-'}", f"n={_text(obj['n'])}"
    s = f"{m} {n} " if isinstance(obj["n"], int) else f"{n} {m} "
    s += f"lhs={obj['lhs']} rhs={obj['rhs']}"
    if "shift" in obj:
        s += f" a={_text(obj['shift'])}"
    return s


def _tables_obj(fac: SelbergFactorization) -> dict:
    """A factor system with per-prime tables, and its shift when it has one
    (selberg, factorization), else its gauge (system)."""
    out = {
        "constant": format_rational(fac.constant),
        "tables": {
            str(p): {_text(e): format_rational(v) for e, v in sorted(col.items())}
            for p, col in sorted(fac.tables.items())
        },
    }
    if fac.a is not None:
        out["a"] = _point_obj(fac.a)
    else:
        out["exceptions"] = list(fac.exceptions)
        out["anchors"] = [[p, list(sig)] for p, sig in fac.anchors]
    return out


def _row(rep: ClassReport) -> dict:
    """One classify result; the TSV line is read off this JSON row."""
    row = {
        "class": rep.klass,
        "verdict": rep.verdict,
        "c": format_rational(rep.c) if rep.c is not None else None,
        "a": _point_obj(rep.a),
        "witness": _witness_obj(rep.witness) if rep.witness else None,
        "reason": rep.reason,
    }
    if rep.forcing:
        row["forcing"] = [list(pt) for pt in rep.forcing]
    for key in ("selberg", "factorization", "system"):
        if getattr(rep, key) is not None:
            row[key] = _tables_obj(getattr(rep, key))
    return row


def _cmd_eval(args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    fn = parse_fn_spec(args.fn, args.r, args.k)
    if not isinstance(fn, ArithFn):
        raise FnSpecError("eval supports one-variable functions; use classify --arity 2")
    lo, hi = _parse_range(args.n)
    rows = [(n, format_rational(fn(n))) for n in range(lo, hi + 1)]
    report = {"fn": fn.name, "results": [{"n": n, "value": v} for n, v in rows]}
    lines = ["n\tvalue"] + [f"{n}\t{v}" for n, v in rows]
    return report, lines, False


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    fn = parse_fn_spec(args.fn, args.r, args.k)
    if args.window < 2:
        raise FnSpecError(f"window must be at least 2, got {args.window}")
    arity = getattr(fn, "arity", 1)
    if args.arity is not None and args.arity != arity:
        raise FnSpecError(f"--arity {args.arity} does not match {fn.name} (arity {arity})")
    if isinstance(fn, ArithFn):
        reports = classify_all(fn, args.window)
        reports[REARICK] = check_rearick(fn, args.window, reports[SEMIMULTIPLICATIVE])
    else:
        reports = classify_all_u(fn, args.window)
    rows = [_row(rep) for rep in reports.values()]
    lines = ["class\tverdict\tc\ta\twitness\treason"]
    for r in rows:
        cells = [r["class"], r["verdict"], _text(r["c"]), _text(r["a"])]
        lines.append("\t".join(cells + [_witness_text(r["witness"]), r["reason"]]))
    failed = False
    for expected in args.expect or ():
        if expected not in reports:
            raise FnSpecError(f"--expect {expected} is not available for {fn.name}")
        verdict = reports[expected].verdict
        if verdict != CONSISTENT:
            failed = True
            lines.append(f"# expectation failed: {expected} is {verdict}")
    report = {
        "fn": fn.name,
        "window": args.window,
        "arity": arity,
        "results": rows,
    }
    if args.expect:
        report["expect"] = list(args.expect)
        report["passed"] = not failed
    return report, lines, failed


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    from .suites import run_suite  # the suites and their corpus load for verify only

    result = run_suite(args.suite, args.window)
    rows = [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in result.checks]
    lines = ["check\tok\tdetail"]
    lines.extend(f"{c.name}\t{'pass' if c.ok else 'FAIL'}\t{c.detail}" for c in result.checks)
    report = {
        "suite": result.suite,
        "window": result.window,
        "passed": result.ok,
        "results": rows,
    }
    return report, lines, not result.ok


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multclass",
        description="Classify arithmetical functions and verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument(
            "--no-timing", action="store_true", help="omit timing for byte-identical output"
        )

    p_eval = sub.add_parser("eval", help="print a value table for a function spec")
    p_eval.add_argument("--fn", required=True, help="function spec, e.g. c:4 or dirichlet(mobius,one)")
    p_eval.add_argument("--r", type=int, help="modulus for bare c/c_bar/mu_bar/g")
    p_eval.add_argument("--k", type=int, help="parameter for bare eta")
    p_eval.add_argument("--n", default="1..16", help="range LO..HI (default 1..16)")
    common(p_eval)

    p_cls = sub.add_parser("classify", help="run every class check on a function spec")
    p_cls.add_argument("--fn", required=True, help="function spec")
    p_cls.add_argument("--r", type=int, help="modulus for bare c/c_bar/mu_bar/g")
    p_cls.add_argument("--k", type=int, help="parameter for bare eta")
    p_cls.add_argument("--window", type=int, default=64, help="sweep bound (default 64)")
    p_cls.add_argument("--arity", type=int, help="assert the parsed function's arity")
    p_cls.add_argument(
        "--expect",
        action="append",
        choices=EXPECT_CHOICES,
        help="exit 1 unless this class is consistent (repeatable)",
    )
    common(p_cls)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, help="suite name; see docs")
    p_ver.add_argument("--window", type=int, default=64, help="sweep bound (default 64)")
    common(p_ver)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(argv)
    handlers = {"eval": _cmd_eval, "classify": _cmd_classify, "verify": _cmd_verify}
    start = time.perf_counter()
    try:
        report, lines, failed = handlers[args.command](args)
        report |= {"schema_version": SCHEMA_VERSION, "command": args.command}
    except ValueError as exc:  # FnSpecError and SieveBoundError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    if args.json:
        if not args.no_timing:
            report["timing"] = {"seconds": round(elapsed, 6)}
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        if not args.no_timing:
            lines.append(f"# elapsed_seconds: {elapsed:.6f}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 1 if failed else 0
