"""Exact-arithmetic library for Euler-product powers and the combinatorics
of dominant alcoves and abelian Borel ideals of simple Lie algebras.

The names in `__all__` are loaded on first use (PEP 562), so importing the
package, or one command of its CLI, compiles only the modules it runs.
"""

from importlib import import_module

# Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("AffineElement", "chi_at_type_rho",
                     "enumerate_casimir_bounded", "enumerate_dominant",
                     "ideal_chain", "in_wf2", "reduce_to_fundamental"), "alcove"),
    **dict.fromkeys(("AbelianIdeal", "dim_Ck", "enumerate_abelian_ideals",
                     "ideal_to_sigma", "sigma_to_ideal"), "ideals"),
    **dict.fromkeys(("RootSystem", "build_root_system", "casimir_eigenvalue",
                     "heisenberg_count", "parse_type", "weyl_dimension"),
                    "rootsystem"),
    **dict.fromkeys(("RatPoly", "bigraded_dims", "bott_series", "euler_power",
                     "f_poly", "f_poly_direct", "lehmer_probe"), "series"),
    **dict.fromkeys(("count_null_cores", "m_core", "partition_to_weight",
                     "weight_to_partition"), "typea"),
    **dict.fromkeys(("LieAlgebraTable", "build_chevalley",
                     "casimir_eigenspace_dim", "dg_ideal_dim",
                     "max_casimir_eigenvalue"), "wedge"),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
