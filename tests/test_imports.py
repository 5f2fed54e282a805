"""First-use loading: `import multclass` loads no submodule, and each
entry point loads only the modules it reaches."""

import importlib
import subprocess
import sys

import pytest

import multclass


def new_modules(code: str) -> set[str]:
    """The modules a fresh interpreter adds while it runs code, beyond its
    own start-up set."""
    probe = (
        "import sys; before = set(sys.modules)\n"
        f"{code}\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


@pytest.mark.parametrize(
    "code, loads",
    [
        ("import multclass", ()),
        ("import multclass; multclass.numtheory.sieve_bound()", ("numtheory",)),
        ("from multclass import c_fn", ("numtheory", "arith", "ramanujan")),
    ],
)
def test_first_use_loads_only_what_it_reaches(code, loads):
    added = new_modules(code)
    assert {m for m in added if m.startswith("multclass")} == {
        "multclass", *(f"multclass.{m}" for m in loads)
    }
    if loads == ("numtheory",):
        assert not added & {"dataclasses", "fractions"}


def test_every_exported_name_is_its_modules_object():
    for name in multclass.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"multclass.{multclass._HOME[name]}")
        assert getattr(multclass, name) is getattr(home, name), name
    assert set(multclass.__all__) <= set(dir(multclass))
    assert {"numtheory", "cli", "corpus"} <= set(dir(multclass))


def test_an_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        multclass.nonesuch
    with pytest.raises(ImportError):
        from multclass import nonesuch  # noqa: F401
    assert not hasattr(multclass, "_nonesuch")


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["classify", "--fn", "mobius", "--window", "8", "--no-timing"], False),
        (["verify", "--suite", "quasi-identities", "--window", "4", "--no-timing"], True),
    ],
)
def test_only_verify_loads_the_suites(argv, loads):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "multclass", *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes one "import time: self | cumulative | name" line per module
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "multclass.cli" in loaded
    assert ("multclass.suites" in loaded, "multclass.corpus" in loaded) == (loads, loads)
