"""Benchmark runner: one workload, one seed, one result line.

    python3 bench/run.py --workload classify-1v --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (src/multclass must exist). The
runner generates the job list from the seed and runs it with at most one
child process at a time:

- classify-1v and selberg-u run in one fresh interpreter (bench/inproc.py);
- cli starts one `python -m multclass` process per job.

With --trace 0 it first times the set-up (import plus sieve build) in fresh
interpreters, then runs the jobs untraced and prints the end-to-end metrics.
With --trace 1 it runs the same job list untraced and then traced, and
prints the per-layer metrics plus the tracing overhead. Every output is
validated outside the timed region. The last stdout line is the JSON result;
the metric names and units come from BENCHMARK.json. The exit code is 1 when
any output is wrong and 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inproc import JOB_CAP_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SCHEMA = SRC / "multclass" / "schemas" / "report.schema.json"

SETUP_RUNS = 7
PASS_CAP_S = 150  # per in-process pass
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import multclass; "
    "multclass.numtheory.sieve_bound(); print(time.perf_counter() - t)"
)

perf = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env.pop("MULTCLASS_SIEVE_BOUND", None)
    return env


def setup_seconds(env: dict) -> list[float]:
    """Import plus sieve build, each in a fresh interpreter; the first,
    untimed probe writes the bytecode caches."""
    out = []
    for i in range(SETUP_RUNS + 1):
        p = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            out.append(float(p.stdout))
    return out


def run_inproc(workload: str, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    p = subprocess.run(
        [sys.executable, str(BENCH / "inproc.py"), workload, str(seed), str(seconds), str(int(trace))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_CAP_S,
    )
    if p.returncode != 0:
        raise RuntimeError(f"inproc.py exited {p.returncode}: {p.stderr[-2000:]}")
    return json.loads(p.stdout.splitlines()[-1])


def run_cli(jobs: list[dict], trace: bool, env: dict) -> dict:
    """One subprocess per job, timed from start to exit; outputs are kept
    for validation after the loop."""
    OUT.mkdir(exist_ok=True)
    latencies, errors, outputs, summaries, sieve_s, process_s = [], [], [], [], [], []
    for job in jobs:
        spans_file = OUT / f"spans-{os.getpid()}.json"
        if trace:
            argv = [sys.executable, str(BENCH / "cli_entry.py"), str(spans_file), job["id"]]
        else:
            argv = [sys.executable, "-m", "multclass"]
        t0 = perf()
        try:
            p = subprocess.run(argv + job["argv"], cwd=ROOT, env=env, capture_output=True,
                               timeout=JOB_CAP_S)
        except subprocess.TimeoutExpired:
            p = None
        dt = perf() - t0
        latencies.append(dt)
        if p is None:
            errors.append([job["id"], "Timeout", f"exceeded the {JOB_CAP_S} s cap"])
        elif p.returncode not in (0, 1) or b"Traceback (most recent call last)" in p.stderr:
            last = p.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            errors.append([job["id"], f"exit {p.returncode}", last[0][:160]])
        if p is not None:
            outputs.append((job, p.returncode, p.stdout))
        if trace and spans_file.exists():
            summary = json.loads(spans_file.read_text())
            spans_file.unlink()
            summaries.append(summary)
            sieve_s.append(summary["sieve_s"])
            run_s = sum(row[5] - row[4] for row in summary["spans"] if row[1] == "cli.run")
            process_s.append(dt - run_s)
    maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    import jsonschema

    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
    digest = hashlib.sha256()
    wrong = []
    for job, code, stdout in outputs:
        digest.update(f"{job['id']}={code}\n".encode() + stdout)
        problem = _check_cli(job, code, stdout, validator)
        if problem:
            wrong.append([job["id"], problem])
    return {
        "jobs": len(jobs),
        "latencies": latencies,
        "errors": errors,
        "wrong": wrong,
        "digest": digest.hexdigest(),
        "maxrss_kb": maxrss_kb,
        "sieve_s": sieve_s,
        "trace": summaries,
        "process_s": sum(process_s),
        "output_bytes": sum(len(stdout) for _, _, stdout in outputs),
    }


def _check_cli(job: dict, code: int, stdout: bytes, validator) -> str:
    """Empty when the job's report is valid: schema-conformant JSON, every
    suite passing, every expectation met."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    errs = sorted(validator.iter_errors(report), key=str)
    if errs:
        return f"schema: {errs[0].message[:120]}"
    if report["command"] == "verify" and not report["passed"]:
        return "suite failed: " + ", ".join(r["name"] for r in report["results"] if not r["ok"])
    if job["expect"] and not (code == 0 and report.get("passed")):
        return f"expected {job['expect']} but exit {code}"
    return ""


def tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest whole percentile with at least ten jobs
    beyond it (nearest rank), and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in range(99, 0, -1):
        idx = max(0, math.ceil(pct * n / 100) - 1)
        if n - 1 - idx >= 10:
            return xs[idx], pct
    return xs[-1], 100


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "multclass" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"error: no multclass sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC)]
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(gen.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.workload == "cli":
        try:
            import jsonschema  # noqa: F401  (validates the cli reports)
        except ImportError:
            print("error: the cli workload needs the jsonschema package", file=sys.stderr)
            return 2
    env = child_env()
    trace = bool(args.trace)
    setup = [] if trace else setup_seconds(env)
    jobs = gen.generate(args.workload, args.seed, args.seconds) if args.workload == "cli" else None

    def one_pass(traced: bool) -> dict:
        if jobs is None:
            return run_inproc(args.workload, args.seed, args.seconds, traced, env)
        return run_cli(jobs, traced, env)

    res = one_pass(False)
    traced = one_pass(True) if trace else None

    lat = res["latencies"]
    attempted, failed = res["jobs"], len(res["errors"])
    wall = sum(lat)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "jobs_per_s": (attempted - failed) / wall,
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_s,
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }
    wanted = spec["end_to_end"]
    if traced is not None:
        from spans import layer_metrics

        metrics = layer_metrics(traced["trace"], traced["sieve_s"])
        metrics["cli.process_s"] = traced.get("process_s", 0.0)
        metrics["cli.output_bytes"] = traced.get("output_bytes", 0)
        metrics["trace.overhead_ratio"] = sum(traced["latencies"]) / wall
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(traced["trace"]))

    wrong = res["wrong"] + (traced["wrong"] if traced else [])
    if traced is not None and traced["digest"] != res["digest"]:
        wrong.append(["*", f"traced digest differs: sha256:{traced['digest']}"])
    n_wrong = len({job_id for job_id, _ in wrong})
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"jobs {attempted}  completed {attempted - failed}  wall {wall:.3f} s")
    print(f"error_rate {failed / attempted:.4f} ({failed}/{attempted})  "
          f"wrong_rate {n_wrong / attempted:.4f} ({n_wrong}/{attempted})")
    print(f"digest sha256:{res['digest']}")
    if traced is None:
        print(f"setup_s over {len(setup)} fresh interpreters: "
              + " ".join(f"{x:.4f}" for x in setup))
        print(f"job_tail_s is p{tail_pct} over {attempted} jobs "
              f"({attempted - math.ceil(tail_pct * attempted / 100)} beyond it)")
    for job_id, kind, msg in res["errors"][:5]:
        print(f"error {job_id}: {kind}: {msg}")
    for job_id, problem in wrong[:5]:
        print(f"WRONG {job_id}: {problem}")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {declared.get(name) or unit_of(name)}")

    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
