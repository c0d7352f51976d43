"""The lambda-ring structure on class functions of the symmetric group.

Adams operations, inner plethysm g^[f], permutation-module
characteristics and evaluation on the eigenvalue alphabet of a
permutation matrix.

Adams operations and inner plethysm are pointwise on cycle types: they
read and write the character values chi_f(nu) = <f, p_nu> of
``symfunc._class_values``, ints for integral f.  The Adams operation
psi_k f is the inner plethysm p_k^[f].  Inner plethysm and eigenvalue
evaluation sum g's power-sum terms with int weights L [p_mu]g,
L = (deg g)!, and divide by L once (``symfunc._eval_power_sums``), at
v(k) = chi_f(psi_k nu) for g^[f] and at v(r) = sum_{d | r} d m_d(mu)
for g(Omega_mu).  The parameters of f are scalars here, while
``stable.stable_inner_plethysm`` raises them to the k-th power at p_k.
"""

from __future__ import annotations

from .alphabets import scale_alphabet
from .coeffs import Coeff
from .partitions import (multiplicities, partition, partitions_of,
                         power_cycle_type)
from .symfunc import (SymExpr, _class_values, _eval_power_sums,
                      _from_class_values, _over, _p_weights, homog, power)


def adams(f: SymExpr, k: int) -> SymExpr:
    """Adams operation: the character tau -> chi_f(tau^k), the inner
    plethysm p_k^[f]."""
    if k < 1:
        raise ValueError("k must be positive")
    if not f.is_homogeneous():
        raise ValueError("adams requires a homogeneous input")
    return inner_plethysm(power([k]), f)


def inner_plethysm(g: SymExpr, f: SymExpr) -> SymExpr:
    """g^[f] for f homogeneous of degree n.

    Pointwise on cycle types: g^[f](tau) is g with p_k -> chi_f(tau^k),
    so each p_mu of g contributes prod_{k in mu} chi_f(psi_k(nu)) at the
    class nu, and the empty partition contributes 1.
    """
    if not f.is_homogeneous():
        raise ValueError("inner plethysm requires homogeneous f")
    chi = _class_values(f)
    big, weights = _p_weights(g)
    out = {nu: _eval_power_sums(
               weights, lambda k: chi.get(power_cycle_type(nu, k), 0))
           for nu in partitions_of(f.degree())}
    return _from_class_values(out, f.basis, big)


def eigenvalue_eval(f: SymExpr, mu) -> Coeff:
    """f(Omega_mu): evaluate on the eigenvalues of a permutation of type mu.

    Uses p_r(Omega_mu) = sum_{d | r} d m_d(mu).
    """
    mults = multiplicities(partition(mu))
    big, weights = _p_weights(f)
    return _over(_eval_power_sums(
        weights, lambda r: sum(d * m for d, m in mults.items() if r % d == 0)),
        big)


def perm_char(n: int) -> SymExpr:
    """Characteristic h_{n-1,1} of the permutation representation."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return homog([1])
    return homog([n - 1, 1])


def graded_poly_char(n: int, qcap: int) -> SymExpr:
    """Graded characteristic h_n[X/(1-q)] of the polynomial ring,
    truncated at q-degree qcap."""
    return scale_alphabet(homog([n] if n else []), "X/(1-q)", qcap)
