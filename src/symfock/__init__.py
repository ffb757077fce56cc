"""Exact Q(t) computer algebra for symmetric functions and fermionic vertex operators.

Each public name is a key of `_SOURCES`, which maps it to the submodule
that defines it, and that submodule is imported on the name's first access
(PEP 562), so importing one submodule, such as `symfock.cli` or
`symfock.ratfun`, compiles only what that submodule imports.
"""

from importlib import import_module

_SOURCES = {
    name: module
    for module, names in {
        "partitions": ("Partition", "conjugate", "multiplicities", "partitions_of", "partitions_up_to", "z_factor"),
        "ratfun": ("RatFun", "rat_from_json", "rat_to_json"),
        "symfunc": ("SymFunc", "perp_apply", "scalar_product", "symfunc_from_json", "symfunc_to_json"),
        "bases": (
            "complete_h",
            "dual_schur",
            "elementary_e",
            "expand_in_variables",
            "hall_littlewood_oracle",
            "hall_littlewood_row",
            "q_coefficient",
            "schur",
            "schur_oracle",
        ),
        "fock": (
            "FERMION_MINUS",
            "FERMION_PLUS",
            "TWISTED_MINUS",
            "TWISTED_PLUS",
            "DEFORMED_MINUS",
            "DEFORMED_PLUS",
            "FockVector",
            "VertexKernel",
            "check_mode_identity",
            "mode_apply",
        ),
        "vertex": ("basis_via_vertex", "crosscheck_corollaries", "generating_coefficient_direct"),
        "kp": ("is_tau", "omega_apply", "search_negative_control"),
    }.items()
    for name in names
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
