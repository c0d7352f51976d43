"""The lambda-ring structure on class functions of the symmetric group.

Adams operations, inner plethysm g^[f], permutation-module
characteristics and evaluation on the eigenvalue alphabet of a
permutation matrix.

Inner plethysm is pointwise on cycle types, a zip over the classes nu of
the character values chi_f(psi_k nu) (lists over ``partitions_of(n)``
read through ``power_map``) for g's power-sum terms, which stay keyed by
partitions with int weights L [p_mu]g, L = (deg g)!, divided once; psi_k f
is p_k^[f], and g(Omega_mu) takes v(r) = sum_{d | r} d m_d(mu).  The
parameters of f are scalars here, while ``stable.stable_inner_plethysm``
raises them to the k-th power at p_k.
"""

from __future__ import annotations

from operator import add, mul

from .alphabets import scale_alphabet
from .coeffs import Coeff
from .partitions import multiplicities, partition, partitions_of, power_map
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
    """g^[f] for f homogeneous of degree n: g with p_k -> chi_f(tau^k), so
    p_mu gives prod_{k in mu} chi_f(psi_k nu) at the class nu (1 if mu = ()).
    """
    if not f.is_homogeneous():
        raise ValueError("inner plethysm requires homogeneous f")
    n = f.degree()
    chi = _class_values(f).get(n) or [0] * len(partitions_of(n))
    big, weights = _p_weights(g)
    out = [0] * len(chi)
    for mu, w in weights:   # w prod_{k in mu} chi(psi_k nu), at each nu
        term = [w] * len(chi)
        for k in mu:
            term = list(map(mul, term, map(chi.__getitem__, power_map(n, k))))
        out = list(map(add, out, term))
    return _from_class_values({n: out}, f.basis, big)


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
