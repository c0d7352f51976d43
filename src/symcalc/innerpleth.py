"""The lambda-ring structure on class functions of the symmetric group.

Adams operations, inner plethysm g^[f], permutation-module
characteristics and evaluation on the eigenvalue alphabet of a
permutation matrix.

Adams operations and inner plethysm are pointwise on cycle types: they
read and write the character values chi_f(nu) = <f, p_nu> of
``symfunc._class_values``, with one conversion in and one out.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import Coeff
from .partitions import (multiplicities, partition, partitions_of,
                         power_cycle_type)
from .symfunc import (SymExpr, _class_values, _from_class_values, _to_p,
                      homog)


def adams(f: SymExpr, k: int) -> SymExpr:
    """Adams operation: the character tau -> chi_f(tau^k).

    A reindex of the character values: nu -> chi_f(psi_k(nu)).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not f.is_homogeneous():
        raise ValueError("adams requires a homogeneous input")
    chi = _class_values(f)
    out = {}
    for nu in partitions_of(f.degree()):
        src = power_cycle_type(nu, k)
        if src in chi:
            out[nu] = chi[src]
    return _from_class_values(out, f.basis)


def inner_plethysm(g: SymExpr, f: SymExpr) -> SymExpr:
    """g^[f] for f homogeneous of degree n.

    Pointwise on cycle types: g^[f](tau) is g with p_k -> chi_f(tau^k),
    so each p_mu of g contributes prod_{k in mu} chi_f(psi_k(nu)) at the
    class nu, and the empty partition contributes 1.
    """
    if not f.is_homogeneous():
        raise ValueError("inner plethysm requires homogeneous f")
    chi = _class_values(f)
    gp = _to_p(g)
    out = {}
    for nu in partitions_of(f.degree()):
        psi: dict = {}
        total: Coeff = Fraction(0)
        for mu, c in gp.items():
            for k in mu:
                if k not in psi:
                    psi[k] = chi.get(power_cycle_type(nu, k), 0)
                c = c * psi[k]
            total = total + c
        out[nu] = total
    return _from_class_values(out, f.basis)


def eigenvalue_eval(f: SymExpr, mu) -> Coeff:
    """f(Omega_mu): evaluate on the eigenvalues of a permutation of type mu.

    Uses p_r(Omega_mu) = sum_{d | r} d m_d(mu).
    """
    mu = partition(mu)
    mults = multiplicities(mu)
    fp = _to_p(f)
    total: Coeff = Fraction(0)
    for nu, c in fp.items():
        val = 1
        for r in nu:
            val *= sum(d * m for d, m in mults.items() if r % d == 0)
        if val:
            total = total + c * val
    return total


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
    from .alphabets import scale_alphabet
    return scale_alphabet(homog([n] if n else []), "X/(1-q)", qcap)
