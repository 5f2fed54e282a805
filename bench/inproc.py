"""Runs the classify-1v or selberg-u job list in this (fresh) interpreter.

    python bench/inproc.py WORKLOAD SEED SECONDS TRACE

with src/ on PYTHONPATH. Prints one JSON object on stdout: per-job
latencies, errors, validation failures, an output digest, the process's
max RSS after the job loop, and (when TRACE is 1) the trace summary.

Each job's function is built before its timer starts and validated after
it stops; only the one public call is timed.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import signal
import sys
import time

perf = time.perf_counter
JOB_CAP_S = 20


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded the {JOB_CAP_S} s cap")


def _fmt(v) -> str:
    from multclass.arith import format_rational

    if v is None:
        return "-"
    if isinstance(v, tuple):
        return ",".join(map(str, v))
    return format_rational(v) if not isinstance(v, str) else v


def _report_text(reports: dict) -> str:
    """Canonical text of verdicts and witnesses, for the output digest."""
    parts = []
    for klass, rep in reports.items():
        w = rep.witness
        wt = "-" if w is None else "|".join(
            _fmt(x) for x in (w.m, w.n, w.lhs, w.rhs, w.law, w.shift)
        )
        parts.append(f"{klass}:{rep.verdict}:{_fmt(rep.c)}:{_fmt(rep.a)}:{wt}")
    return ";".join(parts)


def _check_1v(job: dict, f, reports: dict) -> list[str]:
    """Problems with one classify_all result; an empty list means valid."""
    from multclass.classes import (
        CONSISTENT, IDENTICALLY_ZERO, MULTIPLICATIVE, QUASIMULTIPLICATIVE, REFUTED,
        SELBERG, SEMIMULTIPLICATIVE, recheck_witness,
    )

    bad = []
    v = {k: r.verdict for k, r in reports.items()}
    for klass, rep in reports.items():
        if rep.witness is not None and not recheck_witness(f, rep.witness):
            bad.append(f"{klass} witness does not replay")
    if v[MULTIPLICATIVE] == CONSISTENT and v[QUASIMULTIPLICATIVE] not in (CONSISTENT, IDENTICALLY_ZERO):
        bad.append("multiplicative but not quasimultiplicative")
    if v[QUASIMULTIPLICATIVE] == CONSISTENT and v[SEMIMULTIPLICATIVE] != CONSISTENT:
        bad.append("quasimultiplicative but not semimultiplicative")
    if v[SELBERG] != v[SEMIMULTIPLICATIVE]:
        bad.append("selberg verdict differs from semimultiplicative")
    if v[SEMIMULTIPLICATIVE] == CONSISTENT:
        fac = reports[SELBERG].selberg
        rng = random.Random(job["id"])
        for n in [1, job["window"]] + [rng.randint(1, job["window"]) for _ in range(30)]:
            if fac.reconstruct(n) != f(n):
                bad.append(f"selberg reconstruction misses f({n})")
                break
    if job["kind"] == "near":
        bad += [f"near-member not refuted as {k}" for k, x in v.items() if x != REFUTED]
    klass = job.get("klass", "")
    need = {
        MULTIPLICATIVE: (MULTIPLICATIVE, QUASIMULTIPLICATIVE, SEMIMULTIPLICATIVE),
        QUASIMULTIPLICATIVE: (QUASIMULTIPLICATIVE, SEMIMULTIPLICATIVE),
        SEMIMULTIPLICATIVE: (SEMIMULTIPLICATIVE,),
    }.get(klass, ())
    ok = (CONSISTENT, IDENTICALLY_ZERO) if job["kind"] == "spec" else (CONSISTENT,)
    bad += [f"known {klass} but {k} is {v[k]}" for k in need if v[k] not in ok]
    return bad


def _check_u(job: dict, f, reports: dict) -> list[str]:
    """Problems with one classify_all_u result; an empty list means valid."""
    import itertools

    from multclass.classes import CONSISTENT, REFUTED
    from multclass.multivar import recheck_multi_witness

    bad = []
    for klass, rep in reports.items():
        if rep.witness is not None and not recheck_multi_witness(f, rep.witness):
            bad.append(f"{klass} witness does not replay")
    sel = reports["selberg"]
    if job["kind"] == "product" and sel.verdict == REFUTED:
        bad.append("a per-prime product is refuted as selberg")
    if sel.verdict == CONSISTENT:
        for pt in itertools.product(range(1, job["window"] + 1), repeat=job["arity"]):
            if sel.system.predict(pt) != f(pt):
                bad.append(f"selberg system misses f{pt}")
                break
    if job["kind"] == "product" and not job["exceptions"]:
        if reports["quasimultiplicative"].verdict != CONSISTENT:
            bad.append("product without exception primes is not quasimultiplicative")
        if job["const"] == 1 and reports["multiplicative"].verdict != CONSISTENT:
            bad.append("product with constant 1 is not multiplicative")
    return bad


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    t0 = perf()
    import multclass  # noqa: F401
    from multclass import numtheory as nt

    import_s = perf() - t0
    t0 = perf()
    nt.sieve_bound()
    sieve_s = perf() - t0

    import gen

    if workload == "classify-1v":
        from multclass.classes import classify_all as call
        check = _check_1v
    elif workload == "selberg-u":
        from multclass.multivar import classify_all_u as call
        check = _check_u
    else:
        raise SystemExit(f"inproc runs classify-1v or selberg-u, not {workload!r}")
    jobs = gen.generate(workload, seed, seconds)

    tracer = undo = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        undo = tracer.install()
        call = getattr(sys.modules[call.__module__], call.__name__)

    signal.signal(signal.SIGALRM, _on_alarm)
    latencies, errors, wrong = [], [], []
    digest = hashlib.sha256()
    for job in jobs:
        f = gen.build(job)
        err = None
        signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
        t0 = perf()
        try:
            if tracer is None:
                reports = call(f, job["window"])
            else:
                with tracer.job(job["id"]):
                    reports = call(f, job["window"])
        except Exception as exc:  # counted as a job error; the run continues
            err = exc
        finally:
            dt = perf() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(dt)
        if err is not None:
            errors.append([job["id"], type(err).__name__, str(err)[:160]])
            digest.update(f"{job['id']}=error:{type(err).__name__}\n".encode())
            continue
        digest.update(f"{job['id']}={_report_text(reports)}\n".encode())
        wrong += [[job["id"], problem] for problem in check(job, f, reports)]
        del f, reports
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if undo is not None:
        undo()

    json.dump(
        {
            "jobs": len(jobs),
            "latencies": latencies,
            "errors": errors,
            "wrong": wrong,
            "digest": digest.hexdigest(),
            "maxrss_kb": maxrss_kb,
            "import_s": import_s,
            "sieve_s": [sieve_s],
            "trace": [tracer.summary()] if tracer else [],
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
