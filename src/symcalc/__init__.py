"""Exact calculator for symmetric functions, inner plethysm and stable
(reduced) characters of the symmetric groups.

Each name in ``__all__`` loads its module on first use, so ``import
symcalc`` alone imports no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "alphabets": "invert_sigma lie_character outer_plethysm scale_alphabet "
                 "shift_alphabet sigma_minus_one sigma_series",
    "apps": "braid_poincare endofunction_signature gay_restriction "
            "gay_restriction_perm littlewood_pair stable_cohomology "
            "stable_weight_orbits weight_orbit_decomposition",
    "innerpleth": "adams eigenvalue_eval graded_poly_char inner_plethysm "
                  "perm_char",
    "stable": "CharPolynomial StableChar angle character_polynomial dangle "
              "evaluate_at_n mixed_product reduced_kron "
              "stable_coproduct_tilde_s stable_inner_plethysm stable_kron "
              "tilde_h tilde_h_expand tilde_s tilde_x to_angle_basis "
              "transition",
    "symfunc": "SymExpr character_table convert elem foulkes_derivative "
               "hall_scalar homog internal lr_coefficient mn_character mono "
               "multiply omega power schur skew_schur",
}
_HOME = {n: mod for mod, names in _EXPORTS.items() for n in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
