"""Exact Q(t) computer algebra for symmetric functions and fermionic vertex operators.

Each public name is looked up in `_SOURCES`, the submodule that defines it,
and that submodule is imported on the name's first access (PEP 562), so
importing one submodule, such as `symfock.cli` or `symfock.ratfun`, compiles
only what that submodule imports.
"""

from importlib import import_module

__all__ = [
    "Partition",
    "RatFun",
    "SymFunc",
    "FockVector",
    "VertexKernel",
    "TensorState",
    "partitions_of",
    "partitions_up_to",
    "conjugate",
    "multiplicities",
    "z_factor",
    "scalar_product",
    "perp_apply",
    "complete_h",
    "elementary_e",
    "q_coefficient",
    "hall_littlewood_row",
    "schur",
    "dual_schur",
    "schur_oracle",
    "hall_littlewood_oracle",
    "expand_in_variables",
    "mode_apply",
    "check_mode_identity",
    "basis_via_vertex",
    "generating_coefficient_direct",
    "crosscheck_corollaries",
    "omega_apply",
    "is_tau",
    "search_negative_control",
    "rat_to_json",
    "rat_from_json",
    "symfunc_to_json",
    "symfunc_from_json",
    "FERMION_PLUS",
    "FERMION_MINUS",
    "TWISTED_PLUS",
    "TWISTED_MINUS",
    "DEFORMED_PLUS",
    "DEFORMED_MINUS",
]

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
        "kp": ("TensorState", "is_tau", "omega_apply", "search_negative_control"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
