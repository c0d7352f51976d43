from fractions import Fraction
from functools import lru_cache

import pytest

from symcalc.alphabets import (outer_plethysm, shift_alphabet,
                               sigma_minus_one, sigma_series)
from symcalc.apps import stable_weight_orbits
from symcalc.innerpleth import eigenvalue_eval, inner_plethysm, perm_char
from symcalc.partitions import partitions_of, partitions_up_to
from symcalc.stable import (CharPolynomial, StableChar, angle,
                            character_polynomial, dangle, evaluate_at_n,
                            mixed_product, reduced_kron,
                            stable_coproduct_tilde_s, stable_inner_plethysm,
                            stable_kron, tilde_h, tilde_h_expand, tilde_s,
                            tilde_x, to_angle_basis, transition)
from symcalc.stable import _pleth_columns
from symcalc.symfunc import (SymExpr, char_value, hall_scalar, homog,
                             internal, lr_coefficient, mn_character, mono,
                             multiply, power, schur)
from oracles import (charpoly_from_json, eval_cycle_type, from_angle_basis,
                     homogeneous_component, horizontal_strip_subshapes,
                     stable_char_from_json, straighten_schur,
                     vector_partition_count)


def test_straighten():
    assert straighten_schur((2, 2)) == (1, (2, 2))
    assert straighten_schur((1, 2)) is None          # adjacent swap: zero
    assert straighten_schur((0, 2)) == (-1, (1, 1))
    assert straighten_schur((1, 1, 3)) is None   # repeated beta-number


def test_evaluate_angle_at_n():
    # <lam> at n is the irreducible s_{(n-|lam|, lam)} when that is a
    # partition, zero or straightened otherwise
    assert evaluate_at_n(angle([2, 2]), 6) == schur([2, 2, 2]).in_basis("s")
    assert evaluate_at_n(angle([2, 2]), 8) == schur([4, 2, 2]).in_basis("s")
    assert evaluate_at_n(angle([1]), 1) == schur([1]).in_basis("s") * 0
    assert evaluate_at_n(angle([]), 3) == schur([3]).in_basis("s")


def test_angle_at_every_n_is_the_straightened_schur():
    # below the stable range too: n from 0 to 2|lam| + 1, 570 cases
    cases = 0
    for lam in partitions_up_to(7):
        k = sum(lam)
        for n in range(2 * k + 2):
            st = straighten_schur((n - k,) + lam)
            want = SymExpr("s", {} if st is None else {st[1]: st[0]})
            assert evaluate_at_n(angle(lam), n) == want, (lam, n)
            cases += 1
    assert cases == 570


def test_dangle_evaluates_to_young_module():
    # <<mu>> at n is the permutation character h_{(n-|mu|, mu)} sorted
    for n in (4, 5, 6):
        got = evaluate_at_n(dangle([2, 1]), n)
        want = homog(sorted((n - 3, 2, 1), reverse=True)).in_basis("s")
        assert got == want


def test_angle_dangle_change_of_basis():
    # <<1,1>> = <2> + <1,1> + 2<1> + <0>... verified in the angle basis
    assert to_angle_basis(dangle([1, 1])) == \
        {(2,): 1, (1, 1): 1, (1,): 2, (): 1}
    for lam in partitions_up_to(4):
        sc = dangle(lam)
        assert from_angle_basis(to_angle_basis(sc)) == sc


def test_stable_kron_vs_finite_kronecker():
    # stable product evaluated at large n equals the finite internal product
    for lam, mu in [((1,), (1,)), ((2,), (1, 1)), ((2, 1), (1, 1))]:
        prod = stable_kron(angle(lam), angle(mu))
        for n in (8, 9):
            lhs = evaluate_at_n(prod, n)
            rhs = internal(evaluate_at_n(angle(lam), n),
                           evaluate_at_n(angle(mu), n))
            assert lhs == rhs, (lam, mu, n)


def test_angle_one_squared():
    got = to_angle_basis(stable_kron(angle([1]), angle([1])))
    assert got == {(2,): 1, (1, 1): 1, (1,): 1, (): 1}


def test_reduced_kron_totals():
    coeffs = reduced_kron((2, 1), (1, 1))
    assert coeffs[(1,)] == 1
    assert coeffs[(2, 1)] == 4
    # total dimension consistency at n = 8
    lhs = evaluate_at_n(stable_kron(angle((2, 1)), angle((1, 1))), 8)
    rhs = internal(evaluate_at_n(angle((2, 1)), 8),
                   evaluate_at_n(angle((1, 1)), 8))
    assert lhs == rhs


def test_character_polynomial_against_characters():
    # charpoly of lam evaluated on the cycle type of w in S_n equals the
    # character of the irreducible indexed by (n-|lam|, lam)
    for lam in [l for l in partitions_up_to(3) if l]:
        cp = character_polynomial(lam)
        for n in range(5, 9):
            if n < sum(lam) + lam[0]:
                continue  # (n-|lam|, lam) is not a partition yet
            full = (n - sum(lam),) + lam
            for mu in partitions_of(n):
                assert eval_cycle_type(cp, mu) == mn_character(full, mu), \
                    (lam, n, mu)


def test_character_polynomial_known():
    # Xi^(1) = m_1 - 1 (number of fixed points minus one)
    cp = character_polynomial((1,))
    assert eval_cycle_type(cp, (1, 1, 1)) == 2
    assert eval_cycle_type(cp, (3,)) == -1


def test_tilde_h_defining_property():
    # evaluating tilde_h at n via inner plethysm against the permutation
    # character reproduces the stable inner plethysm table rows
    for n in range(2, 7):
        f = perm_char(n)
        for mu in [m for m in partitions_up_to(3) if m]:
            lhs = inner_plethysm(tilde_h(mu), f)
            # <<mu>> evaluated at n
            rhs = evaluate_at_n(dangle(mu), n)
            assert lhs == rhs, (mu, n)


def test_tilde_h_values():
    assert tilde_h((1,)).in_basis("h") == homog([1])
    assert tilde_h((2,)).in_basis("h") == homog([2]) - homog([1])
    assert tilde_h((4,)).in_basis("h") == \
        homog([4]) - homog([2, 1]) + homog([1, 1]) - homog([2])


def test_tilde_s_defining_property():
    # s-tilde evaluated through inner plethysm gives the stable irreducible
    for n in range(2, 7):
        f = perm_char(n)
        for lam in [l for l in partitions_up_to(3) if l]:
            lhs = inner_plethysm(tilde_s(lam), f)
            rhs = evaluate_at_n(angle(lam), n)
            assert lhs == rhs, (lam, n)


def test_tilde_s_22():
    got = tilde_s((2, 2)).in_basis("s")
    want = (schur([2, 2]) - schur([3]) + schur([2, 1], -2)
            + schur([2], 2) + schur([1, 1], 4) - schur([1]))
    assert got == want


def test_tilde_x_defining_property():
    # x-tilde evaluated through inner plethysm gives the stable class
    # sigma_1 * s_lam, i.e. h_{n-|lam|} s_lam at each finite n
    from symcalc.symfunc import multiply
    for n in range(2, 7):
        f = perm_char(n)
        for lam in [l for l in partitions_up_to(3) if l and sum(l) <= n]:
            lhs = inner_plethysm(tilde_x(lam), f)
            rhs = multiply(homog([n - sum(lam)] if n > sum(lam) else []),
                           schur(lam)).in_basis("s")
            assert lhs == rhs, (lam, n)
    assert tilde_x(()).in_basis("s") == schur([])


def test_tilde_h_expand_roundtrip():
    for mu in [m for m in partitions_up_to(4) if m]:
        coeffs = tilde_h_expand(homog(mu))
        rebuilt = sum((tilde_h(nu) * c for nu, c in coeffs.items()),
                      schur([]) * 0).in_basis("h")
        assert rebuilt == homog(mu).in_basis("h")


def test_c_matrix_vs_vector_partitions():
    c = transition("c", 5)
    for (lam, mu), v in c.items():
        if lam and mu:
            assert v == vector_partition_count(lam, mu), (lam, mu)


def test_transition_t_is_the_inverse_of_c():
    c, t = transition("c", 6), transition("t", 6)
    parts = [lam for lam in partitions_up_to(6) if lam]
    for lam in parts:
        for nu in parts:
            got = sum(c.get((lam, mu), 0) * t.get((mu, nu), 0)
                      for mu in parts)
            assert got == (lam == nu), (lam, nu)


def test_transition_duality():
    # <tilde_s_lam, tilde_s_mu-dual> = delta: a-matrix consistency
    a = transition("a", 4)
    for lam in [l for l in partitions_up_to(3) if l]:
        dual = sum((schur(mu) * v for (mu, nu), v in a.items()
                    if nu == lam), schur([]) * 0)
        for rho in [r for r in partitions_up_to(3) if r]:
            got = hall_scalar(tilde_s(rho).in_basis("s"), dual)
            assert got == (1 if rho == lam else 0), (lam, rho)


def test_tilde_h_dual_pairing():
    c = transition("c", 4)
    for lam in [l for l in partitions_up_to(3) if l]:
        dual = sum((mono(mu) * v for (mu, nu), v in c.items()
                    if nu == lam), mono([]) * 0)
        for rho in [r for r in partitions_up_to(3) if r]:
            got = hall_scalar(tilde_h(rho).in_basis("h"), dual)
            assert got == (1 if rho == lam else 0), (lam, rho)


def test_stable_inner_plethysm_composition():
    h2 = stable_inner_plethysm(homog([2]), angle([1]))
    e2 = stable_inner_plethysm(schur([1, 1]), angle([1]))
    assert to_angle_basis(e2) == {(1, 1): 1}
    assert to_angle_basis(h2) == {(2,): 1, (1,): 1, (): 1}
    # their sum is the stable Kronecker square of <1>
    assert to_angle_basis(h2 + e2) == \
        to_angle_basis(stable_kron(angle([1]), angle([1])))


def test_stable_inner_plethysm_matches_finite(n=6):
    # evaluate at n and compare with finite inner plethysm
    for g in (homog([2]), schur([1, 1]), schur([2, 1])):
        for sc in (angle([1]), dangle([2])):
            stable = stable_inner_plethysm(g, sc)
            lhs = evaluate_at_n(stable, n)
            rhs = inner_plethysm(g, evaluate_at_n(sc, n))
            assert lhs == rhs, g


def test_vector_partition_counts():
    # columns summing to (3,2,1) with multiplicity pattern (1,1): pairs of
    # distinct vectors
    assert vector_partition_count((1, 1), (1, 1)) == 1
    assert vector_partition_count((2, 1), (2, 1)) == 1
    assert vector_partition_count((1, 1, 1, 1, 1), (1, 1)) == 15
    assert vector_partition_count((1, 1, 1, 1, 1), (1, 1, 1)) == 25


def test_stable_coproduct():
    # coproduct of tilde-s splits off horizontal strips
    cop = stable_coproduct_tilde_s((2, 1))
    assert all(isinstance(v, int) or v.denominator == 1
               for v in cop.values())
    assert cop  # nonempty


def test_mixed_product():
    assert mixed_product((1,), (1,)) == {(2,): 1, (1, 1): 1, (1,): 2, (): 1}


def test_touchard():
    # iterated stable Kronecker powers of <<1>> have dimensions given by
    # the Bell-polynomial recursion T_k = x (T_{k-1} + T_{k-1}')
    # at n: dim of <<1>>^{# k} evaluated via the k-th moment sequence.
    # We check dimensions at n = 6 against n^k directly: the k-th Kronecker
    # power of the natural permutation module has dimension n^k... restricted
    # to the stable range; here simply compare against finite computation.
    power_sc = dangle([1])
    finite = evaluate_at_n(dangle([1]), 6)
    acc_s = finite
    for _ in range(2):
        power_sc = stable_kron(power_sc, dangle([1]))
        acc_s = internal(acc_s, finite)
        assert evaluate_at_n(power_sc, 6) == acc_s


def test_stable_char_json_roundtrip():
    sc = stable_kron(angle([2]), angle([1, 1]))
    assert stable_char_from_json(sc.to_json()) == sc


def test_charpoly_json_roundtrip():
    cp = character_polynomial((2, 1))
    assert charpoly_from_json(cp.to_json()) == cp


def _evaluate_at_n_by_multiply(sc, n):
    # h_{n-|nu|} s_nu through the power-sum product, as a reference
    total = SymExpr("s")
    for nu, c in sc.reduced.in_basis("s").terms.items():
        k = n - sum(nu)
        if k >= 0:
            total = total + multiply(homog([k] if k else []),
                                     SymExpr("s", {nu: c}))
    return total.in_basis("s")


def test_evaluate_at_n_pieri_matches_products():
    for sc in (angle([2, 1]), angle([2, 2]), dangle([2, 1]),
               angle([3, 1, 1]), angle([])):
        for n in range(10):
            assert evaluate_at_n(sc, n) == _evaluate_at_n_by_multiply(sc, n)
    lam, mu = (2, 1), (1, 1)
    prod = stable_kron(angle(lam), angle(mu))
    for n in (8, 9):
        assert evaluate_at_n(prod, n) == _evaluate_at_n_by_multiply(prod, n)
        assert evaluate_at_n(prod, n) == internal(evaluate_at_n(angle(lam), n),
                                                  evaluate_at_n(angle(mu), n))


def test_evaluate_at_n_degree_20():
    got = evaluate_at_n(angle([2, 1]), 20)
    assert got.basis == "s" and got.terms == {(17, 2, 1): 1}


def _to_angle_basis_by_elimination(sc):
    # reference: unitriangular elimination from the highest degree down
    red = sc.reduced.in_basis("s")
    out = {}
    while red.terms:
        comp = homogeneous_component(red, red.degree())
        for nu, c in comp.terms.items():
            out[nu] = c
            red = red - shift_alphabet(schur(nu), -1).in_basis("s") * c
    return out


def _tilde_h_expand_by_elimination(f):
    # reference: subtract h~_mu for the top-degree terms, degree by degree
    g = f.in_basis("h")
    out = {}
    while g.terms:
        d = g.degree()
        if d == 0:
            out[()] = g.terms[()]
            break
        for mu, c in homogeneous_component(g, d).terms.items():
            out[mu] = c
            g = g - tilde_h(mu).in_basis("h") * c
    return out


def test_angle_and_tilde_h_expansions_match_elimination():
    cases = [mk(lam) for lam in partitions_up_to(4) for mk in (angle, dangle)]
    cases += [stable_kron(angle(lam), angle(mu))
              for lam, mu in [((1,), (1,)), ((2,), (1, 1)), ((2, 1), (1,))]]
    cases += [stable_kron(dangle([2]), angle([1, 1])),
              stable_weight_orbits(homog([2, 1]))]
    for sc in cases:
        assert to_angle_basis(sc) == _to_angle_basis_by_elimination(sc), sc
        assert from_angle_basis(to_angle_basis(sc)) == sc
        assert tilde_h_expand(sc.reduced) == \
            _tilde_h_expand_by_elimination(sc.reduced), sc
    f = homog([2, 1]) + schur([1], 3) - 2
    assert tilde_h_expand(f) == _tilde_h_expand_by_elimination(f)


# References: the tilde layer as it was solved by elimination, one outer
# plethysm per c-matrix entry and a recursion for h~.

def _c_pairing(lam, mu):
    pleth = outer_plethysm(mono(mu), sigma_minus_one(sum(lam)))
    return hall_scalar(homog(lam), pleth.expr)


@lru_cache(maxsize=None)
def _c_ref(lam, mu):
    return _c_pairing(lam, mu)


@lru_cache(maxsize=None)
def _tilde_h_ref(mu):
    result = homog(mu) if mu else SymExpr("h", {(): Fraction(1)})
    for d in range(1, sum(mu)):
        for nu in partitions_of(d):
            c = _c_ref(mu, nu)
            if c:
                result = result - _tilde_h_ref(nu) * c
    return result


def _apply_tilde_h(f):
    total = SymExpr("h")
    for mu, c in f.in_basis("h").terms.items():
        total = total + _tilde_h_ref(mu) * c
    return total


@lru_cache(maxsize=None)
def _tilde_s_ref(lam):
    return _apply_tilde_h(shift_alphabet(schur(lam), -1)).in_basis("s")


def _tilde_h_expand_ref(f):
    out = {}
    for lam, a in f.in_basis("h").terms.items():
        out[lam] = out.get(lam, 0) + a
        for d in range(1, sum(lam)):
            for mu in partitions_of(d):
                c = _c_ref(lam, mu)
                if c:
                    out[mu] = out.get(mu, 0) + a * c
    return {mu: c for mu, c in out.items() if c}


def _stable_inner_plethysm_ref(g, sc):
    F = SymExpr("s")
    for nu, c in to_angle_basis(sc).items():
        F = F + _tilde_s_ref(nu) * c
    G = outer_plethysm(g, F)
    return StableChar(SymExpr("h", _tilde_h_expand_ref(G)))


def _transition_ref(kind, cap):
    parts = [p for p in partitions_up_to(cap) if p]
    out = {}
    if kind == "c":
        for lam in parts:
            for mu in parts:
                if sum(mu) <= sum(lam) and _c_ref(lam, mu):
                    out[(lam, mu)] = _c_ref(lam, mu)
    elif kind == "a":
        # a_lam^mu = <s_lam, sigma_1[sigma_1-1] s_mu[sigma_1-1]>
        sm1 = sigma_minus_one(cap)
        sigma_tw = outer_plethysm(sigma_series("sigma", 1, cap).expr, sm1)
        for mu in partitions_up_to(cap):
            prod = (outer_plethysm(schur(mu), sm1) * sigma_tw).expr
            for lam in parts:
                if sum(mu) <= sum(lam):
                    c = hall_scalar(schur(lam), prod)
                    if c:
                        out[(lam, mu)] = c
    elif kind == "t":
        for lam in parts:
            for mu, c in _tilde_h_ref(lam).terms.items():
                out[(lam, mu)] = c
    else:
        for lam in parts:
            for mu, c in _tilde_s_ref(lam).terms.items():
                out[(lam, mu)] = c
    return out


def _same(got, want):
    assert got.basis == want.basis and got.terms == want.terms, (got, want)


def test_tilde_bases_match_elimination_degree_6():
    for lam in partitions_up_to(6):
        _same(tilde_h(lam), _tilde_h_ref(lam))
        _same(tilde_s(lam), _tilde_s_ref(lam))
        _same(tilde_x(lam), _apply_tilde_h(schur(lam)).in_basis("s"))
        for f in (homog(lam), schur(lam), shift_alphabet(schur(lam), -1)):
            assert tilde_h_expand(f) == _tilde_h_expand_ref(f), (lam, f)
    f = homog([3, 1]) + schur([2], 3) - 2
    assert tilde_h_expand(f) == _tilde_h_expand_ref(f)
    for kind in ("a", "b", "c", "t"):
        assert transition(kind, 6) == _transition_ref(kind, 6), kind


def test_stable_inner_plethysm_matches_elimination():
    cases = [(g, mk(lam)) for g in (homog([2]), schur([1, 1]), power([2]))
             for lam in partitions_up_to(3) for mk in (angle, dangle)]
    cases += [(g, mk(lam)) for g in (homog([3]), schur([2, 1]))
              for lam in partitions_up_to(2) for mk in (angle, dangle)]
    cases += [(homog([2]), angle([1]) + dangle([2]) * 3),
              (homog([2]), stable_weight_orbits(homog([1])))]
    for g, sc in cases:
        got = stable_inner_plethysm(g, sc)
        want = _stable_inner_plethysm_ref(g, sc)
        _same(got.reduced, want.reduced)


def test_h_and_m_tables_are_inverse_degree_8():
    # sum_nu <h_lam, m_nu[sigma_1-1]> <h_nu, m_mu[M]> = delta, M the
    # plethystic inverse of sigma_1 - 1
    for lam in partitions_up_to(8):
        total = {}
        for nu, c in _pleth_columns("H", sum(lam))[lam].items():
            for mu, d in _pleth_columns("M", sum(nu))[nu].items():
                total[mu] = total.get(mu, 0) + c * d
        assert {mu: c for mu, c in total.items() if c} == {lam: 1}, lam


def _coproduct_by_triples(lam):
    # reference: one Littlewood-Richardson coefficient per triple
    out = {}
    for alpha in horizontal_strip_subshapes(lam):
        n = sum(alpha)
        for j in range(n + 1):
            for mu in partitions_of(j):
                for nu in partitions_of(n - j):
                    c = lr_coefficient(mu, nu, alpha)
                    if c:
                        out[(mu, nu)] = out.get((mu, nu), 0) + c
    return out


def test_stable_coproduct_matches_triple_loop():
    for lam in partitions_up_to(6):
        assert stable_coproduct_tilde_s(lam) == _coproduct_by_triples(lam), lam


def test_stable_kron_at_every_n():
    # the stable product is the pointwise product at every n, the
    # unstable range n < |lam| + lam_1 included
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            b = angle(mu)
            for a in (angle(lam), dangle(lam)):
                prod = stable_kron(a, b)
                for n in range(9):
                    assert evaluate_at_n(prod, n) == internal(
                        evaluate_at_n(a, n), evaluate_at_n(b, n)), (lam, mu, n)


def test_char_polynomial_rejects_non_integer_coefficients():
    for terms in ({(1,): Fraction(1, 2), (2,): Fraction(3, 2)},
                  {(2, 1): 2.5}):
        with pytest.raises(ArithmeticError):
            CharPolynomial(terms)
    with pytest.raises(ArithmeticError):
        charpoly_from_json([{"nu": [1], "coeff": 1.5}])
    poly = CharPolynomial({(1,): Fraction(4, 2), (2,): 0, (3,): 1.0, (): 0.0})
    assert poly.terms == {(1,): 2, (3,): 1}
    assert all(type(c) is int for c in poly.terms.values())


def test_tilde_s_evaluates_to_the_straightened_character():
    # Orellana-Zabrocki: s~_lam at the eigenvalues of a permutation of type
    # mu |- n is chi^rho(mu), with eps s_rho the straightened s_{(n-|lam|, lam)}
    for lam in partitions_up_to(4):
        f = tilde_s(lam)
        for n in range(9):
            st = straighten_schur((n - sum(lam), *lam))
            for mu in partitions_of(n):
                want = 0 if st is None else st[0] * char_value(st[1], mu)
                assert eigenvalue_eval(f, mu) == want, (lam, mu)
