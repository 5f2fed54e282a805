"""Traced stand-in for `python -m multclass` in the cli workload.

    python bench/cli_entry.py SPANS_FILE JOB_ID MULTCLASS_ARG...

Builds the sieve (timed), installs the span wrappers, runs
multclass.cli.run(args) as one job and writes the trace summary to
SPANS_FILE on the way out, also when run() raises. Stdout, stderr and the
exit code are those of the CLI.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spans_file, job_id, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import multclass.cli
    from multclass import numtheory as nt
    from spans import Tracer

    t0 = time.perf_counter()
    nt.sieve_bound()
    sieve_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job(job_id):
            return multclass.cli.run(args)
    finally:
        summary = tracer.summary()
        summary["sieve_s"] = sieve_s
        with open(spans_file, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
