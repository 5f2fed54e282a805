"""Seeded job lists for the three benchmark workloads.

A job is a plain dict. Generation is pure: the same (workload, seed,
seconds) always gives an equal list, and nothing here calls multclass, so
generating jobs in the measured process leaves its caches cold.
The functions at the bottom turn a job into the function object the program
receives; they are the only place that knows how a generated function is
evaluated.

The lists are stratified rather than drawn independently: windows are
log-uniform but one draw per stratum, job categories (spec shapes, member
classes, exception counts) are dealt over the strata in a fixed order, and
specs come from a stream that does not depend on the seed. Different seeds
then give different windows, tables and perturbations with nearly the same
total work, which keeps the run-to-run spread small.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

WORKLOADS = ("classify-1v", "selberg-u", "cli")

# Job counts per second of --seconds, calibrated so that one untraced run of
# each workload takes about that long on a 2-core x86-64 host.
JOBS_PER_SECOND = {"classify-1v": 5.7, "selberg-u": 72.0, "cli": 2.0}

# Nonzero table values. One-variable members use integers only and get their
# Fraction arithmetic from the constant, so that every member of a class
# costs about the same; the multivariate products mix in fractions.
INTS = (1, -1, 2, -2, 3, -3, 4, 5, -5)
VALUES = INTS + (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), Fraction(-5, 4))
# Alternating integer and fractional constants, dealt out in turn.
CONSTANTS = (2, Fraction(1, 2), -1, Fraction(-3, 2), 3, Fraction(2, 3), -2, Fraction(5, 3))
SCALES = ("2", "-1", "3/2", "-2/3", "5")
SHIFTS = (2, 3, 4, 6, 8, 9, 12)

ONE_W = (1024, 16384)
CLI_W = (64, 512)
CLI_SUITES = (
    ("rearick", 128),
    ("selberg-reconstruct", 64),
    ("mu-bar-dual", 64),
    ("unitary-identity", 64),
    ("quasi-identities", 48),
    ("oracle-agreement", 64),
    ("two-variable-theorem", 30),
    ("closure-properties", 48),
    ("lahiri-rs", 200),
)
CLI_ARITY2 = ("selberg-not-semi", "c-two-var", "c-bar-two-var", "tensor")

MULT = "multiplicative"
QUASI = "quasimultiplicative"
SEMI = "semimultiplicative"


def job_count(workload: str, seconds: int) -> int:
    return max(4, round(JOBS_PER_SECOND[workload] * seconds))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """k log-uniform integers in [lo, hi], one per stratum, ascending."""
    return [min(hi, round(lo * (hi / lo) ** ((i + rng.random()) / k))) for i in range(k)]


def _deal(k: int, options: tuple) -> list:
    """options dealt in turn. Applied to ascending strata, every option gets
    the same spread of sizes, and the same stratum gets the same option on
    every seed: seeds change the inputs, not the mix of work."""
    return [options[i % len(options)] for i in range(k)]


def _primes(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if flags[p]]


def _distinct_primes(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


# ---------------------------------------------------------------- specs


def _leaf(pick: random.Random) -> tuple[str, str]:
    """A corpus leaf and the class it is known to belong to."""
    kind = pick.choice(("phi", "mobius", "c", "c_bar", "mu_bar", "eta"))
    if kind in ("phi", "mobius"):
        return kind, MULT
    r = pick.randint(1, 48)
    if kind in ("c", "c_bar"):
        return f"{kind}:{r}", SEMI
    return f"{kind}:{r}", MULT


def _unary(pick: random.Random, inner: tuple[str, str]) -> tuple[str, str]:
    text, klass = inner
    op = pick.choice(("scale", "dilate", "kovern", "noverk", "gcdk", "lcmk"))
    if op == "scale":
        q = pick.choice(SCALES)
        return f"scale:{q}({text})", QUASI if klass in (MULT, QUASI) else klass
    k = pick.randint(2, 12)
    text = f"{op}:{k}({text})"
    if not klass:
        return text, ""
    # gcd(k, n) preserves coprime factorizations; every composition preserves
    # Rearick's gcd-lcm identity, hence semimultiplicativity.
    return text, MULT if (op == "gcdk" and klass == MULT) else SEMI


def _binary(pick: random.Random, a: tuple[str, str], b: tuple[str, str]) -> tuple[str, str]:
    op = pick.choice(("dirichlet", "product", "unitary"))
    text = f"{op}({a[0]},{b[0]})"
    if a[1] == MULT and b[1] == MULT:
        return text, MULT
    if op == "unitary":
        return text, ""  # no closure theorem for unitary convolution of shifted functions
    return text, SEMI


SHAPES = ("leaf", "unary", "binary", "binary-unary", "unary-binary")


def random_spec(pick: random.Random, shape: str) -> tuple[str, str]:
    """A CLI function spec of the given shape and its known class ('' if none).

    A known class is one that theory guarantees for every window: the
    multiplicative and semimultiplicative classes are closed under Dirichlet
    convolution and pointwise product, and a nonzero multiple of a
    multiplicative function is quasimultiplicative.
    """
    if shape == "leaf":
        return _leaf(pick)
    if shape == "unary":
        return _unary(pick, _leaf(pick))
    if shape == "binary":
        return _binary(pick, _leaf(pick), _leaf(pick))
    if shape == "binary-unary":
        return _binary(pick, _unary(pick, _leaf(pick)), _leaf(pick))
    return _unary(pick, _binary(pick, _leaf(pick), _leaf(pick)))


def _spec_stream(workload: str) -> random.Random:
    """The generator specs are drawn from. It is seeded with the workload
    name, not the seed, so every seed classifies the same spec list at its
    own windows. A spec's cost depends too much on its draw to vary it per
    seed: a convolution at the top window stratum costs ten times a leaf, a
    fractional scale doubles the cost, c:r with r squarefree runs three full
    sweeps instead of one, and dilate:k can double a process's RSS."""
    return random.Random(f"{workload}:specs")


# --------------------------------------------------------- classify-1v


def _member_tables(rng: random.Random, bound: int) -> dict[int, tuple]:
    """F_p(e) for e = 1..max with p^e <= bound, every value nonzero."""
    tables = {}
    for p in _primes(bound):
        e, col = 1, []
        while p**e <= bound:
            col.append(rng.choice(INTS))
            e += 1
        tables[p] = tuple(col)
    return tables


def _member(rng: random.Random, jid: str, klass: str, window: int, const, shift: int) -> dict:
    """Multiplicative members have constant 1 and no shift, quasi members a
    constant, semi members a constant and a shift."""
    if klass == MULT:
        const = 1
    if klass != SEMI:
        shift = 1
    return {
        "id": jid,
        "kind": "member",
        "klass": klass,
        "window": window,
        "const": const,
        "shift": shift,
        "tables": _member_tables(rng, window // shift),
    }


def _near(rng: random.Random, jid: str, member: dict, t: float) -> dict:
    """The member with one value changed at a point whose cofactor n/a has
    two distinct prime factors, so every class refutes it. The point sits
    near the fraction t of the window, which sets how far the sweeps run."""
    shift, window = member["shift"], member["window"]
    k = max(6, round(t * window / shift))
    while _distinct_primes(k) < 2 or shift * k > window:
        k = k + 1 if shift * (k + 1) <= window else 6
    return {
        "id": jid,
        "kind": "near",
        "window": window,
        "base": member,
        "point": shift * k,
        "delta": rng.choice(VALUES),
    }


def classify_1v_jobs(seed: int, seconds: int) -> list[dict]:
    """phi at 16384 plus equal numbers of specs, members and near-members.

    Shapes, classes, constants and shifts are dealt over ascending windows,
    and near-member points follow a jittered golden-ratio sequence, so every
    category sees the same spread of windows and sweep lengths whatever the
    seed."""
    rng = _rng("classify-1v", seed)
    pick = _spec_stream("classify-1v")
    k = max(1, (job_count("classify-1v", seconds) - 1) // 3)
    spec_w = _strata(rng, k, *ONE_W)
    member_w = _strata(rng, k, *ONE_W)
    shapes = _deal(k, SHAPES)
    classes = _deal(k, (MULT, QUASI, SEMI))
    consts = _deal(k, CONSTANTS)
    shifts = _deal(k, SHIFTS)
    jobs = [{"id": "phi@16384", "kind": "spec", "spec": "phi", "klass": MULT, "window": 16384}]
    for i in range(k):
        spec, klass = random_spec(pick, shapes[i])
        jobs.append({"id": f"s{i}", "kind": "spec", "spec": spec, "klass": klass, "window": spec_w[i]})
        member = _member(rng, f"m{i}", classes[i], member_w[i], consts[i], shifts[i])
        jobs.append(member)
        jobs.append(_near(rng, f"n{i}", member, (i * 0.6180339887 + 0.05 * rng.random()) % 1.0))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------ selberg-u


def _product(rng: random.Random, jid: str, arity: int, window: int, n_exc: int, zero_p: float) -> dict:
    primes = _primes(window)
    exceptions = tuple(sorted(rng.sample(primes[:4], min(n_exc, len(primes[:4])))))
    tables = {}
    for p in primes:
        emax = 0
        while p ** (emax + 1) <= window:
            emax += 1
        col = {}
        for sig in itertools.product(range(emax + 1), repeat=arity):
            if not any(sig):
                col[sig] = 0 if p in exceptions else 1
            else:
                col[sig] = 0 if rng.random() < zero_p else rng.choice(VALUES)
        tables[p] = col
    return {
        "id": jid,
        "kind": "product",
        "arity": arity,
        "window": window,
        "const": rng.choice((1,) + CONSTANTS),
        "exceptions": exceptions,
        "tables": tables,
    }


def selberg_u_jobs(seed: int, seconds: int) -> list[dict]:
    """Per-prime products at arity 2 (W <= 24) and 3 (W <= 10), each followed
    by a copy with one window value changed. Exception-prime counts and zero
    densities are dealt over ascending windows."""
    rng = _rng("selberg-u", seed)
    k = max(2, job_count("selberg-u", seconds) // 2)
    half = k // 2
    windows = [(2, w) for w in _strata(rng, half, 6, 24)]
    windows += [(3, w) for w in _strata(rng, k - half, 4, 10)]
    mixes = _deal(k, tuple(itertools.product((0, 1, 2), (0.0, 0.1, 0.25))))
    jobs = []
    for i, (arity, window) in enumerate(windows):
        prod = _product(rng, f"p{i}", arity, window, *mixes[i])
        point = tuple(rng.randint(1, window) for _ in range(arity))
        jobs.append(prod)
        jobs.append(
            {
                "id": f"q{i}",
                "kind": "perturbed",
                "arity": arity,
                "window": window,
                "base": prod,
                "point": point,
                "delta": rng.choice(VALUES),
            }
        )
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ cli

_EXPECT = {MULT: MULT, QUASI: QUASI, SEMI: "rearick"}


def cli_jobs(seed: int, seconds: int) -> list[dict]:
    """Suites at fixed windows, a few arity-2 classifications, and arity-1
    classifications whose O(W^2) Rearick sweep dominates.

    A job with a class known by construction passes --expect; semimultiplicative
    specs expect the Rearick identity, which also holds for a function that
    vanishes on the window."""
    rng = _rng("cli", seed)
    pick = _spec_stream("cli")
    jobs = [
        {"id": f"verify:{name}", "argv": ["verify", "--suite", name, "--window", str(w)], "expect": ""}
        for name, w in CLI_SUITES
    ]
    for name in CLI_ARITY2:
        fn = name
        if name == "tensor":
            fn = f"tensor({_leaf(pick)[0]},{_leaf(pick)[0]})"
        w = rng.randint(8, 14)
        jobs.append(
            {"id": f"u:{name}", "argv": ["classify", "--fn", fn, "--arity", "2", "--window", str(w)], "expect": ""}
        )
    k = max(1, job_count("cli", seconds) - len(jobs))
    windows = _strata(rng, k, *CLI_W)
    shapes = _deal(k, SHAPES)
    for i in range(k):
        spec, klass = random_spec(pick, shapes[i])
        argv = ["classify", "--fn", spec, "--window", str(windows[i])]
        expect = _EXPECT.get(klass, "")
        if expect:
            argv += ["--expect", expect]
        jobs.append({"id": f"c{i}", "argv": argv, "expect": expect})
    rng.shuffle(jobs)
    for job in jobs:
        job["argv"] = job["argv"] + ["--json", "--no-timing"]
    return jobs


GENERATORS = {"classify-1v": classify_1v_jobs, "selberg-u": selberg_u_jobs, "cli": cli_jobs}


def generate(workload: str, seed: int, seconds: int) -> list[dict]:
    return GENERATORS[workload](seed, seconds)


# ------------------------------------------------- job functions


def build(job: dict):
    """The function object a classify-1v or selberg-u job hands the program."""
    from multclass.arith import ArithFn
    from multclass.cli import parse_fn_spec
    from multclass.multivar import MultiArithFn

    kind = job["kind"]
    if kind == "spec":
        return parse_fn_spec(job["spec"])
    if kind == "member":
        return ArithFn(f"member:{job['id']}", member_eval(job))
    if kind == "near":
        base = member_eval(job["base"])
        point, delta = job["point"], job["delta"]
        return ArithFn(
            f"near:{job['id']}", lambda n: base(n) + delta if n == point else base(n)
        )
    if kind == "product":
        return MultiArithFn(f"product:{job['id']}", job["arity"], product_eval(job))
    if kind == "perturbed":
        base = product_eval(job["base"])
        point, delta = job["point"], job["delta"]
        return MultiArithFn(
            f"perturbed:{job['id']}",
            job["arity"],
            lambda pt: base(pt) + delta if pt == point else base(pt),
        )
    raise ValueError(f"unknown job kind {kind!r}")


def member_eval(job: dict):
    """n -> const * prod F_p(nu_p(n / shift)), zero off the multiples of shift.

    Exponents beyond a table (arguments past the window) read as 1, which
    keeps the function total and in its class."""
    from multclass import numtheory as nt

    const, shift, tables = job["const"], job["shift"], job["tables"]

    def ev(n: int):
        if n % shift:
            return 0
        v = const
        for p, e in nt.factorize(n // shift):
            col = tables.get(p)
            if col is not None and e <= len(col):
                v = v * col[e - 1]
        return v

    return ev


def product_eval(job: dict):
    """pt -> const * prod over tabled primes of F_p(signature of pt at p).

    Signatures missing from a table (points past the window) read as 1."""
    from multclass import numtheory as nt

    const, tables = job["const"], job["tables"]

    def ev(pt):
        fz = [dict(nt.factorize(x).pairs) for x in pt]
        v = const
        for p, col in tables.items():
            v = v * col.get(tuple(d.get(p, 0) for d in fz), 1)
            if v == 0:
                return 0
        return v

    return ev
