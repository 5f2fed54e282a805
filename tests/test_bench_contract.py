"""The names the benchmark wraps and imports exist, and the per-layer spans
and counters see the checkers.

bench/spans.py patches multclass functions from outside and bench/inproc.py
imports a fixed set of names; a refactor that drops or rebinds one of them
would otherwise only show in a traced benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        from spans import Tracer

        yield Tracer()
    finally:
        sys.path.remove(str(BENCH))


def test_inproc_names_import():
    from multclass.arith import ArithFn, format_rational  # noqa: F401
    from multclass.classes import (  # noqa: F401
        CONSISTENT,
        IDENTICALLY_ZERO,
        MULTIPLICATIVE,
        QUASIMULTIPLICATIVE,
        REFUTED,
        SELBERG,
        SEMIMULTIPLICATIVE,
        classify_all,
        recheck_witness,
    )
    from multclass.cli import parse_fn_spec  # noqa: F401
    from multclass.multivar import MultiArithFn, classify_all_u, recheck_multi_witness  # noqa: F401
    from multclass.numtheory import factorize, sieve_bound  # noqa: F401


def test_memo_statistics_stay_readable():
    # spans.py reads cache_info() of every memoized function a traced job
    # calls, and of factorize and divisors
    from multclass import numtheory as nt
    from multclass.arith import ArithFn, classical
    from multclass.multivar import MultiArithFn, tensor

    fns = [classical("euler_phi"), ArithFn("square", lambda n: n * n), tensor(classical("one"))]
    assert isinstance(fns[-1], MultiArithFn)
    for f in fns:
        assert f._eval.cache_info().maxsize > 0, f
    for fn in (nt.factorize, nt.divisors):
        assert fn.cache_info().maxsize > 0, fn


def test_tracer_installs_and_undoes(tracer):
    from multclass import arith, classes, multivar

    before = (classes.check_multiplicative, classes.coprime_pairs, arith.ArithFn.__call__)
    undo = tracer.install()
    try:
        assert classes.check_multiplicative is not before[0]
        assert classes.coprime_pairs is not before[1]
    finally:
        undo()
    assert (classes.check_multiplicative, classes.coprime_pairs, arith.ArithFn.__call__) == before
    assert multivar.check_multiplicative is classes.check_multiplicative


def test_traced_layers_see_the_checkers(tracer):
    from spans import CHECKERS, layer_metrics

    from multclass import classes, multivar
    from multclass.arith import classical

    undo = tracer.install()
    try:
        with tracer.job("contract"):
            # classify_all and classify_all_u derive the multiplicative and
            # quasimultiplicative rows of phi and of mobius x one from their
            # semimultiplicative sweeps, so those checkers are called on
            # their own
            classes.classify_all(classical("euler_phi"), 64)
            classes.check_multiplicative(classical("euler_phi"), 64)
            classes.check_quasimultiplicative(classical("euler_phi"), 64)
            classes.check_rearick(classical("mobius"), 16)
            mobius_one = multivar.tensor(classical("mobius"), classical("one"))
            multivar.classify_all_u(mobius_one, 6)
            multivar.check_multiplicative_u(mobius_one, 6)
            multivar.check_quasimultiplicative_u(mobius_one, 6)
    finally:
        undo()
    metrics = layer_metrics([tracer.summary()], [])
    for module, names in CHECKERS.items():
        for name in names:
            assert metrics[f"{module}.{name}.s"] > 0, f"{module}.{name}"
    # one item per point, with its split: 64 for N <= 64 in each of the
    # three sweeps at window 64, 16 for N <= 16 in check_rearick's
    # semimultiplicative check, whose products past 16 are split by
    # _wide_splits, which is not counted, and 36 for the 6 x 6 box in each
    # of the three tuple sweeps of mobius x one at window 6
    assert metrics["classes.coprime_pairs.pairs"] == 3 * 64 + 16 + 3 * 36
    assert metrics["arith.eval.calls"] > 0
    assert metrics["multivar.eval.calls"] > 0


def test_pinned_digests_name_every_workload():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    pinned = Path(__file__).with_name("bench_digests.txt").read_text().splitlines()
    rows = [line.split() for line in pinned if line and not line.startswith("#")]
    assert [w for w, _ in rows] == [w["name"] for w in spec["workloads"]]
    assert all(d.startswith("sha256:") and len(d) == 71 for _, d in rows)
