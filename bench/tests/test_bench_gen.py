"""The job generator: seeded, and its functions are what they claim to be.

    python3 -m pytest bench/tests
"""

import itertools

import pytest

import gen
from multclass import numtheory as nt

SECONDS = 3


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    a = gen.generate(workload, 7, SECONDS)
    assert a == gen.generate(workload, 7, SECONDS)
    assert a != gen.generate(workload, 8, SECONDS)
    assert len({job["id"] for job in a}) == len(a)


def test_members_reproduce_their_tables():
    members = [j for j in gen.generate("classify-1v", 3, SECONDS) if j["kind"] == "member"]
    assert {m["klass"] for m in members} == {gen.MULT, gen.QUASI, gen.SEMI}
    for m in members:
        f = gen.build(m)
        assert f(m["shift"]) == m["const"]
        for p, col in m["tables"].items():
            for e, value in enumerate(col, start=1):
                assert f(m["shift"] * p**e) == m["const"] * value


def test_products_reproduce_their_tables():
    products = [j for j in gen.generate("selberg-u", 3, SECONDS) if j["kind"] == "product"]
    assert {len(p["exceptions"]) for p in products} == {0, 1, 2}
    for prod in products:
        f = gen.build(prod)
        for p, col in prod["tables"].items():
            others_vanish = any(q != p for q in prod["exceptions"])
            for sig, value in col.items():
                pt = tuple(p**e for e in sig)
                assert f(pt) == (0 if others_vanish else prod["const"] * value)


def test_near_members_differ_at_one_point_with_two_prime_factors():
    nears = [j for j in gen.generate("classify-1v", 4, SECONDS) if j["kind"] == "near"]
    assert nears
    for near in nears:
        f, base = gen.build(near), gen.build(near["base"])
        diff = [n for n in range(1, near["window"] + 1) if f(n) != base(n)]
        assert diff == [near["point"]]
        assert len(nt.factorize(near["point"])) >= 2


def test_perturbations_differ_at_one_window_point():
    perturbed = [j for j in gen.generate("selberg-u", 4, SECONDS) if j["kind"] == "perturbed"]
    assert perturbed
    for job in perturbed:
        f, base = gen.build(job), gen.build(job["base"])
        window = range(1, job["window"] + 1)
        diff = [pt for pt in itertools.product(window, repeat=job["arity"]) if f(pt) != base(pt)]
        assert diff == [job["point"]]


def test_windows_stay_in_range():
    for job in gen.generate("classify-1v", 5, 20):
        assert gen.ONE_W[0] <= job["window"] <= gen.ONE_W[1]
    for job in gen.generate("selberg-u", 5, 20):
        assert job["window"] <= (24 if job["arity"] == 2 else 10)
    cli = gen.generate("cli", 5, 20)
    assert {j["argv"][2] for j in cli if j["argv"][0] == "verify"} == {s for s, _ in gen.CLI_SUITES}
    for job in cli:
        assert job["argv"][-2:] == ["--json", "--no-timing"]
        if job["id"].startswith("c"):
            assert gen.CLI_W[0] <= int(job["argv"][4]) <= gen.CLI_W[1]
