"""Classification of arithmetical functions by their multiplicativity laws.

The package checks, over finite windows, whether a function is consistent
with being multiplicative, quasimultiplicative, semimultiplicative, or a
Selberg product, extracts the witnessing data (constant, shift, per-prime
factor tables), and ships the Ramanujan-sum family plus verification
suites exercising their identities.

`import multclass` loads no submodule. Each name below, and each submodule
(`multclass.numtheory`, ...), is imported on first use, so a caller pays
only for the modules it reaches.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "arith": (
        "ArithFn", "classical", "compose", "dirichlet", "eta", "format_rational",
        "pointwise_product", "scale", "sum_of_squares", "unitary",
    ),
    "classes": (
        "CONSISTENT", "IDENTICALLY_ZERO", "MULTIPLICATIVE", "QUASIMULTIPLICATIVE", "REARICK",
        "REFUTED", "SELBERG", "SEMIMULTIPLICATIVE", "ClassReport", "SelbergFactorization",
        "Witness", "check_multiplicative", "check_quasimultiplicative", "check_rearick",
        "check_semimultiplicative", "classify_all", "extract_selberg", "recheck_witness",
    ),
    "multivar": (
        "MultiArithFn", "TwoVariableReport",
        "check_multiplicative_u", "check_quasimultiplicative_u", "check_selberg_u",
        "check_semimultiplicative_u", "check_two_variable_theorem", "classify_all_u",
        "dirichlet_u", "extract_selberg_u", "selberg_not_semimultiplicative", "tensor",
    ),
    "ramanujan": (
        "c", "c_bar", "c_bar_fn", "c_bar_oracle", "c_bar_two_var", "c_fn", "c_oracle",
        "c_two_var", "even_profile", "g", "g_fn", "mu_bar", "mu_bar_fn", "mu_bar_indicator",
        "mu_bar_oracle", "semimult_params_c", "semimult_params_c_bar",
    ),
    "suites": ("SUITES", "Check", "SuiteResult", "run_suite"),
}
_MODULES = (*_EXPORTS, "cli", "corpus", "numtheory")
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    """Import a submodule, or the module an exported name lives in, on first use."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
