"""Spans and per-layer counters, recorded by wrapping multclass from outside.

install() replaces each traced function in every multclass module that
bound it (including names bound with `from ... import` and the suite
table), and returns a function that puts the originals back. Nothing under
src/ changes.

Checker, suite, solver and CLI calls become spans: name, start, end,
parent span and job id. The hot leaves (function evaluation, factorize,
divisors, the Ramanujan sums) are too frequent for a span per call; each
gets one call count and one self time per parent span instead. A span's
self time is its duration minus the time its direct children cover.

Wrappers record only inside a job: outside Tracer.job() they call straight
through, so the benchmark's own validation is never counted.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from functools import wraps

perf = time.perf_counter

# Leaf functions: (module, attribute); the leaf is named module.attribute.
# The two evaluation methods are leaves too: arith.eval and multivar.eval.
LEAVES = (
    ("numtheory", "factorize"),
    ("numtheory", "divisors"),
    ("ramanujan", "c"),
    ("ramanujan", "c_bar"),
    ("ramanujan", "mu_bar"),
)
# Checkers with their own time metric, by layer.
CHECKERS = {
    "classes": ("check_multiplicative", "check_quasimultiplicative", "check_semimultiplicative",
                "check_rearick", "extract_selberg"),
    "multivar": ("check_multiplicative_u", "check_quasimultiplicative_u",
                 "check_semimultiplicative_u", "check_selberg_u", "extract_selberg_u"),
}
# Span functions: (module, attribute); the span is named module.attribute.
# Suite functions are spans too, named suites.<suite name>.
SPANS = [(mod, attr) for mod, attrs in CHECKERS.items() for attr in attrs] + [
    ("classes", "classify_all"),
    ("multivar", "check_two_variable_theorem"),
    ("multivar", "classify_all_u"),
    ("suites", "run_suite"),
    ("corpus", "corpus"),
    ("cli", "run"),
    ("cli", "parse_fn_spec"),
]
LRU = ("numtheory.factorize", "numtheory.divisors")


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class Span:
    __slots__ = ("id", "name", "parent", "job", "start", "end", "child", "error")

    def __init__(self, sid: int, name: str, parent: Span | None, job: str):
        self.id, self.name, self.parent, self.job = sid, name, parent, job
        self.start = self.end = self.child = 0.0
        self.error = ""

    def row(self) -> list:
        parent = self.parent.id if self.parent else None
        return [self.id, self.name, parent, self.job, self.start, self.end, self.child, self.error]


class Tracer:
    def __init__(self) -> None:
        self.stack: list = []  # open spans and leaf frames, innermost last
        self.span: Span | None = None  # innermost open span
        self.spans: list[Span] = []
        self.leaves: dict[tuple[int, str], list] = {}  # (span id, leaf) -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self.lru: dict[str, list[int]] = {name: [0, 0] for name in LRU}  # hits, misses
        self.memo = [0, 0, 0]  # hits, misses, largest entries held by one job's functions
        self._seen: dict = {}  # ArithFn -> cache_info at its first call in this job
        self._lru_fns: dict = {}
        self._job = ""

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> Span:
        s = Span(len(self.spans), name, self.span, self._job)
        self.spans.append(s)
        s.start = perf()
        self.stack.append(s)
        self.span = s
        return s

    def _close(self, s: Span) -> None:
        s.end = perf()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += s.end - s.start
        self.span = s.parent

    @contextmanager
    def job(self, job_id: str):
        """One job: a root span plus cache-statistic deltas over its extent."""
        self._job = job_id
        before = {name: fn.cache_info() for name, fn in self._lru_fns.items()}
        s = self._open("job")
        try:
            yield s
        except Exception as exc:
            s.error = type(exc).__name__
            raise
        finally:
            self._close(s)
            for name, fn in self._lru_fns.items():
                info = fn.cache_info()
                self.lru[name][0] += info.hits - before[name].hits
                self.lru[name][1] += info.misses - before[name].misses
            entries = 0
            for f, info0 in self._seen.items():
                info = f._eval.cache_info()
                self.memo[0] += info.hits - info0.hits
                self.memo[1] += info.misses - info0.misses
                entries += info.currsize
            self.memo[2] = max(self.memo[2], entries)
            self._seen.clear()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers --------------------------------------------------------

    def wrap_span(self, name: str, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            s = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                s.error = type(exc).__name__
                raise
            finally:
                tracer._close(s)
            if name == "corpus.corpus":
                tracer.count("corpus.functions", len(out))
            return out

        return wrapper

    def wrap_leaf(self, name: str, fn, on_call=None):
        tracer = self
        leaves = self.leaves
        stack = self.stack

        @wraps(fn)
        def wrapper(*args):
            if not stack:
                return fn(*args)
            if on_call is not None:
                on_call(args[0])
            frame = _Frame()
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1].child += dt
                key = (tracer.span.id, name)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, dt - frame.child]
                else:
                    agg[0] += 1
                    agg[1] += dt - frame.child

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def wrap_counter(self, name: str, fn):
        """Counts the items a generator function yields inside jobs."""
        tracer = self

        def counted(it):
            n = 0
            try:
                for item in it:
                    n += 1
                    yield item
            finally:
                tracer.count(name, n)

        @wraps(fn)
        def wrapper(*args):
            it = fn(*args)
            return counted(it) if tracer.stack else it

        return wrapper

    def _memo_seen(self, f) -> None:
        if f not in self._seen and hasattr(f._eval, "cache_info"):
            self._seen[f] = f._eval.cache_info()

    # -- install ---------------------------------------------------------

    def install(self):
        """Wrap every traced name; returns a function that restores them."""
        import multclass.cli  # noqa: F401  (load every module that binds a traced name)
        from multclass import arith, multivar, suites

        mods = {name: sys.modules[f"multclass.{name}"] for name in
                ("numtheory", "ramanujan", "classes", "multivar", "suites", "corpus", "cli")}
        restore: list = []

        def patch(orig, wrapper) -> None:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "multclass" and not mod_name.startswith("multclass."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        restore.append((mod, attr, orig))

        for mod, attr in LEAVES:
            name = f"{mod}.{attr}"
            orig = getattr(mods[mod], attr)
            if name in LRU:
                self._lru_fns[name] = orig
            patch(orig, self.wrap_leaf(name, orig))
        for mod, attr in SPANS:
            orig = getattr(mods[mod], attr)
            patch(orig, self.wrap_span(f"{mod}.{attr}", orig))
        orig = mods["classes"].coprime_pairs
        patch(orig, self.wrap_counter("classes.coprime_pairs.pairs", orig))
        for key, orig in list(suites.SUITES.items()):
            wrapper = self.wrap_span(f"suites.{key}", orig)
            suites.SUITES[key] = wrapper
            restore.append((suites.SUITES, key, orig))
        for cls, name, hook in (
            (arith.ArithFn, "arith.eval", self._memo_seen),
            (multivar.MultiArithFn, "multivar.eval", None),
        ):
            orig = cls.__call__
            cls.__call__ = self.wrap_leaf(name, orig, hook)
            restore.append((cls, "__call__", orig))

        def undo() -> None:
            for target, attr, orig in reversed(restore):
                if isinstance(target, dict):
                    target[attr] = orig
                else:
                    setattr(target, attr, orig)

        return undo

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        """Everything recorded, as JSON-ready data that summaries can merge."""
        return {
            "spans": [s.row() for s in self.spans],
            "leaves": [[sid, name, calls, self_s] for (sid, name), (calls, self_s) in self.leaves.items()],
            "counts": dict(self.counts),
            "lru": {k: list(v) for k, v in self.lru.items()},
            "memo": list(self.memo),
        }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(summaries: list[dict], sieve_s: list[float]) -> dict[str, float]:
    """Per-layer metrics from one or more processes' summaries.

    Times are totals over the run in seconds; ratios are pooled over all
    jobs. sieve_s holds one lazy sieve build per process that ran jobs."""
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    calls: dict[str, int] = {}
    leaf_self: dict[str, float] = {}
    counts: dict[str, int] = {}
    lru = {k: [0, 0] for k in LRU}
    memo = [0, 0, 0]
    for s in summaries:
        for _sid, name, _parent, _job, start, end, child, error in s["spans"]:
            dur[name] = dur.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            if error:
                errors[name] = errors.get(name, 0) + 1
        for _sid, name, n, t in s["leaves"]:
            calls[name] = calls.get(name, 0) + n
            leaf_self[name] = leaf_self.get(name, 0.0) + t
        for name, n in s["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, (h, m) in s["lru"].items():
            lru[name][0] += h
            lru[name][1] += m
        memo[0] += s["memo"][0]
        memo[1] += s["memo"][1]
        memo[2] = max(memo[2], s["memo"][2])

    def module_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    out: dict[str, float] = {
        "numtheory.sieve_build_s": statistics.median(sieve_s) if sieve_s else 0.0,
    }
    for leaf in ("factorize", "divisors"):
        name = f"numtheory.{leaf}"
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.hit_ratio"] = _ratio(*lru[name])
        out[f"{name}.self_s"] = leaf_self.get(name, 0.0)
    out["arith.eval.calls"] = calls.get("arith.eval", 0)
    out["arith.eval.self_s"] = leaf_self.get("arith.eval", 0.0)
    out["arith.memo.hit_ratio"] = _ratio(memo[0], memo[1])
    out["arith.memo.entries"] = memo[2]
    for leaf in ("c", "c_bar", "mu_bar"):
        out[f"ramanujan.{leaf}.calls"] = calls.get(f"ramanujan.{leaf}", 0)
    out["ramanujan.self_s"] = sum(leaf_self.get(f"ramanujan.{x}", 0.0) for x in ("c", "c_bar", "mu_bar"))
    for fn in CHECKERS["classes"]:
        out[f"classes.{fn}.s"] = dur.get(f"classes.{fn}", 0.0)
    out["classes.coprime_pairs.pairs"] = counts.get("classes.coprime_pairs.pairs", 0)
    out["classes.self_s"] = module_self("classes.")
    for fn in CHECKERS["multivar"]:
        out[f"multivar.{fn}.s"] = dur.get(f"multivar.{fn}", 0.0)
    out["multivar.eval.calls"] = calls.get("multivar.eval", 0)
    out["multivar.check_selberg_u.errors"] = errors.get("multivar.check_selberg_u", 0)
    out["multivar.self_s"] = module_self("multivar.") + leaf_self.get("multivar.eval", 0.0)
    from multclass.suites import SUITES

    for name in SUITES:
        out[f"suites.{name}.s"] = dur.get(f"suites.{name}", 0.0)
    out["suites.self_s"] = module_self("suites.")
    out["corpus.build_s"] = dur.get("corpus.corpus", 0.0)
    out["corpus.functions"] = counts.get("corpus.functions", 0)
    out["cli.parse_s"] = dur.get("cli.parse_fn_spec", 0.0)
    out["cli.self_s"] = self_s.get("cli.run", 0.0)
    return out
