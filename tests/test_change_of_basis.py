"""Change of basis through the one integer readout, and the products,
skewing, omega and the alphabet transforms as class-sum maps, against the
Fraction routes they replaced, and an MN oracle off the conversion path.

The ``_ref_*`` functions are the earlier code: ``_ref_to_p`` expands h by
Newton's identity n h_n = sum_k p_k h_{n-k}, e by omega, s by MN
characters over z_nu and m by Hall duality with h; ``_ref_from_p`` has the
three Fraction branches (Newton for h and e, the duality table for m, a
per-lambda MN sum for s).  The product, skew, omega, series product and
alphabet transforms of ``_REFERENCES`` work on p-basis expansions through
these two.  Results are compared term for term, coefficient types and
JSON form included.

``_to_p`` and ``_from_p`` are the p-expansion and its readout through
class values, as the library had them; the other test modules build
their Fraction references on them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from symcalc.alphabets import (TruncatedSeries, scale_alphabet,
                               shift_alphabet, sigma_minus_one, sigma_series)
from symcalc.coeffs import ParamPoly
from symcalc.partitions import (canonical_key, partitions_of,
                                partitions_up_to, z_value)
from symcalc.symfunc import (BASES, SymExpr, _class_values,
                             _from_class_sums, _keyed, _over, _vectors,
                             char_value, convert, elem, foulkes_derivative,
                             homog, mono, multiply, omega, power, schur)
from oracles import plain_product
from test_class_vectors import _add_scaled

MAKERS = {"s": schur, "h": homog, "e": elem, "p": power, "m": mono}
T = ParamPoly.var("t")
Q = ParamPoly.var("q", cap=3)


# -- the Fraction conversion routes, as references ---------------------


@lru_cache(maxsize=None)
def _ref_hn_in_p(n):
    if n == 0:
        return (((), Fraction(1)),)
    acc = {}
    for k in range(1, n + 1):
        p = (((k,), Fraction(1)),)
        _add_scaled(acc, 1, plain_product((p, _ref_hn_in_p(n - k))).items())
    return tuple(sorted(((lam, c / n) for lam, c in acc.items()),
                        key=lambda kv: canonical_key(kv[0])))


@lru_cache(maxsize=None)
def _ref_en_in_p(n):
    return tuple((lam, c if (n - len(lam)) % 2 == 0 else -c)
                 for lam, c in _ref_hn_in_p(n))


@lru_cache(maxsize=None)
def _ref_pk_in_h(k):
    acc = {(k,): Fraction(k)}
    for i in range(1, k):
        h = (((k - i,), Fraction(-1)),)
        _add_scaled(acc, 1, plain_product((h, _ref_pk_in_h(i))).items())
    return tuple((lam, c) for lam, c in acc.items() if c)


@lru_cache(maxsize=None)
def _ref_p_in_h(nu):
    if not nu:
        return (((), Fraction(1)),)
    return tuple(plain_product((_ref_pk_in_h(nu[0]),
                                _ref_p_in_h(nu[1:]))).items())


@lru_cache(maxsize=None)
def _ref_m_in_p_degree(n):
    rows = {lam: [] for lam in partitions_of(n)}
    for nu in partitions_of(n):
        for lam, c in _ref_p_in_h(nu):
            rows[lam].append((nu, c / z_value(nu)))
    return {lam: tuple(row) for lam, row in rows.items()}


@lru_cache(maxsize=None)
def _ref_p_in_m_degree(n):
    rows = {nu: [] for nu in partitions_of(n)}
    for mu in partitions_of(n):
        for nu, c in plain_product(_ref_hn_in_p(part) for part in mu).items():
            rows[nu].append((mu, int(c * z_value(nu))))
    return {nu: tuple(row) for nu, row in rows.items()}


def _ref_to_p(expr):
    if expr.basis == "p":
        return dict(expr.terms)
    out = {}
    for lam, c in expr.terms.items():
        if expr.basis == "h":
            piece = plain_product(_ref_hn_in_p(part) for part in lam).items()
        elif expr.basis == "e":
            piece = plain_product(_ref_en_in_p(part) for part in lam).items()
        elif expr.basis == "s":
            piece = [(nu, Fraction(char_value(lam, nu), z_value(nu)))
                     for nu in partitions_of(sum(lam))
                     if char_value(lam, nu)]
        else:
            piece = _ref_m_in_p_degree(sum(lam))[lam]
        _add_scaled(out, c, piece)
    return {k: v for k, v in out.items() if v}


def _ref_from_p(pterms, target):
    if target == "p":
        return SymExpr("p", pterms)
    out = {}
    if target in ("h", "e"):
        for nu, c in pterms.items():
            if target == "e" and (sum(nu) - len(nu)) % 2:
                c = -c
            _add_scaled(out, c, _ref_p_in_h(nu))
        return SymExpr(target, out)
    if target == "m":
        for nu, c in pterms.items():
            _add_scaled(out, c, _ref_p_in_m_degree(sum(nu))[nu])
        return SymExpr("m", out)
    by_deg = {}
    for nu, c in pterms.items():
        by_deg.setdefault(sum(nu), {})[nu] = c
    for d, terms in by_deg.items():
        for lam in partitions_of(d):
            acc = None
            for nu, c in terms.items():
                chi = char_value(lam, nu)
                if chi:
                    piece = c * chi
                    acc = piece if acc is None else acc + piece
            if acc is not None:
                out[lam] = acc
    return SymExpr(target, out)


def _ref_convert(f, target):
    return f if target == f.basis else _ref_from_p(_ref_to_p(f), target)


def _ref_multiply(f, g, cap=None):
    prod = plain_product((_ref_to_p(f).items(), _ref_to_p(g).items()), cap)
    return _ref_from_p(prod, f.basis)


def _ref_foulkes_derivative(f, g):
    a, b = _ref_to_p(f), _ref_to_p(g)
    out = {}
    for alpha, c in a.items():
        for nu, d in b.items():
            coef = c * d
            rest = list(nu)
            ok = True
            for k in alpha:
                if k not in rest:
                    ok = False
                    break
                coef = coef * (k * rest.count(k))
                rest.remove(k)
            if ok:
                key = tuple(rest)
                prev = out.get(key)
                out[key] = coef if prev is None else prev + coef
    return _ref_from_p({k: v for k, v in out.items() if v}, g.basis)


def _ref_omega(f):
    return _ref_from_p({nu: (-1 if (sum(nu) - len(nu)) % 2 else 1) * c
                        for nu, c in _ref_to_p(f).items()}, f.basis)


def _ref_shift_alphabet(f, c):
    """The p-substitution p_k -> p_k + c."""
    out = {}
    for nu, coef in _ref_to_p(f).items():
        factors = ((((k,), Fraction(1)), ((), Fraction(c))) for k in nu)
        _add_scaled(out, coef, plain_product(factors).items())
    return _ref_from_p({k: v for k, v in out.items() if v}, f.basis)


def _ref_scale_alphabet(f, mode, qcap, param="q"):
    out = {}
    for nu, coef in _ref_to_p(f).items():
        factor = ParamPoly.const(1, (param,), {param: qcap})
        for k in nu:
            if mode == "(1-q)X":
                fk = ParamPoly((param,), {(0,): 1, (k,): -1}, {param: qcap})
            else:
                fk = ParamPoly((param,),
                               {(j,): 1 for j in range(0, qcap + 1, k)},
                               {param: qcap})
            factor = factor * fk
        c = coef * factor
        prev = out.get(nu)
        out[nu] = c if prev is None else prev + c
    return _ref_from_p({k: v for k, v in out.items() if v}, f.basis)


def _ref_series_mul(a, b):
    cap = min(a.cap, b.cap)
    return TruncatedSeries(_ref_multiply(a.expr, b.expr, cap), cap)


_REFERENCES = {multiply: _ref_multiply,
               foulkes_derivative: _ref_foulkes_derivative,
               omega: _ref_omega, shift_alphabet: _ref_shift_alphabet,
               scale_alphabet: _ref_scale_alphabet,
               TruncatedSeries.__mul__: _ref_series_mul}


def _reference(fn, *args):
    """fn(*args) computed by its p-basis reference over the Fraction
    routes."""
    return _REFERENCES[fn](*args)


# -- the p-basis routes through class values ----------------------------


def _to_p(expr):
    """Expansion of expr in the p basis: [p_nu]f = chi_f(nu) / z_nu."""
    if expr.basis == "p":
        return dict(expr.terms)
    return {nu: _over(c, z_value(nu)) for nu, c in _keyed(_class_values(expr))}


def _from_p(pterms, target):
    """sum_nu pterms(nu) p_nu in ``target``: the readout of the class sums
    |nu|! pterms(nu)."""
    return _from_class_sums(_vectors((nu, c * factorial(sum(nu)))
                                     for nu, c in pterms.items()), target)


# -- comparison --------------------------------------------------------


def _same(got, ref):
    if isinstance(ref, TruncatedSeries):
        assert isinstance(got, TruncatedSeries) and got.cap == ref.cap
        got, ref = got.expr, ref.expr
    assert got.basis == ref.basis
    assert got.terms == ref.terms
    assert {k: type(c) for k, c in got.terms.items()} == \
        {k: type(c) for k, c in ref.terms.items()}
    assert got.to_json() == ref.to_json()


def _mixed_inputs():
    """Rational, ParamPoly and inhomogeneous expressions in every basis."""
    out = []
    for b, make in MAKERS.items():
        out += [
            make([2, 1], Fraction(1, 3)) + make([3], Fraction(-5, 7)),
            make([3, 1], T) + make([2, 2], Fraction(2, 5)) + make([4], T * T),
            make([2, 2], Q - 1) + make([1, 1, 1, 1], Q * T),
            make([3]) + make([2]) + make([1], Fraction(1, 2)) + make([], 4),
            make([4, 2], Fraction(1, 6)) + make([1], T) + make([], Q),
        ]
        assert all(f.basis == b for f in out[-5:])
    return out


# -- conversion ----------------------------------------------------------


def test_convert_all_basis_pairs_up_to_degree_9():
    for lam in partitions_up_to(9):
        for b in BASES:
            f = MAKERS[b](lam)
            for target in BASES:
                _same(convert(f, target), _ref_convert(f, target))


def test_convert_rational_parampoly_and_inhomogeneous():
    for f in _mixed_inputs():
        for target in BASES:
            _same(convert(f, target), _ref_convert(f, target))


# -- products, skewing, omega and alphabet transforms ------------------


def test_products_and_involutions_match_fraction_routes():
    small = [lam for lam in partitions_up_to(4) if lam]
    for b, c in product(BASES, repeat=2):
        for lam, mu in [((2, 1), (2,)), ((3,), (1, 1)), ((2, 2), (3, 1))]:
            f, g = MAKERS[b](lam), MAKERS[c](mu)
            _same(multiply(f, g), _reference(multiply, f, g))
            f = f + MAKERS[b]((4, 3))
            _same(foulkes_derivative(g, f),
                  _reference(foulkes_derivative, g, f))
    for b in BASES:
        for lam in small + [(4, 2, 1), (3, 3, 2)]:
            f = MAKERS[b](lam)
            _same(omega(f), _reference(omega, f))
            for sign in (1, -1):
                _same(shift_alphabet(f, sign),
                      _reference(shift_alphabet, f, sign))
    for f in _mixed_inputs():
        g = MAKERS[f.basis]((2, 1), T)
        for fn, args in [(multiply, (f, g)), (omega, (f,)),
                         (foulkes_derivative, (g, f)),
                         (shift_alphabet, (f, -1)),
                         (scale_alphabet, (f, "(1-q)X", 3)),
                         (scale_alphabet, (f, "X/(1-q)", 2))]:
            _same(fn(*args), _reference(fn, *args))


def test_capped_product_is_the_truncated_product():
    inputs = _mixed_inputs() + [MAKERS[b](lam) + MAKERS[b]((2, 1), T)
                                for b in BASES for lam in [(3, 2), (4,)]]
    for f, g in product(inputs[::2], inputs[1::3]):
        full = multiply(f, g)
        for cap in range(full.degree() + 1):
            got, ref = multiply(f, g, cap), full.truncate(cap)
            _same(got, ref)
            assert list(got.terms) == list(ref.terms)


def test_truncated_series_product_matches_fraction_routes():
    series = [sigma_series("sigma", 1, 6), sigma_series("lambda", -1, 5),
              sigma_minus_one(6),
              TruncatedSeries(schur([2, 1], T) + schur([1]) + schur([]), 5)]
    for a, b in product(series, repeat=2):
        _same(a * b, _reference(TruncatedSeries.__mul__, a, b))


# -- MN against Kostka inversion, off the conversion path ----------------


@lru_cache(maxsize=None)
def _p_in_m_count(lam: tuple, mu: tuple) -> int:
    """Coefficient of m_mu in p_lam: assignments of parts of lam to the
    columns of mu with prescribed column sums.

    Not on the conversion path (that is Hall duality with h); kept as the
    independent count the duality tables are tested against."""
    ell = len(mu)

    @lru_cache(maxsize=None)
    def rec(i: int, remaining: tuple) -> int:
        if i == len(lam):
            return 1 if not any(remaining) else 0
        total = 0
        for j in range(ell):
            if remaining[j] >= lam[i]:
                nxt = remaining[:j] + (remaining[j] - lam[i],) + remaining[j + 1:]
                total += rec(i + 1, nxt)
        return total

    return rec(0, mu)


@lru_cache(maxsize=None)
def _kostka(lam, mu):
    """Semistandard tableaux of shape lam and content mu, enumerated by
    their largest entry len(mu): its mu[-1] cells form a horizontal strip
    lam/rho, and removing them leaves a tableau of shape rho."""
    if not mu:
        return 0 if lam else 1
    total = 0
    ranges = [range(lam[i + 1] if i + 1 < len(lam) else 0, lam[i] + 1)
              for i in range(len(lam))]
    for rho in product(*ranges):
        if sum(lam) - sum(rho) == mu[-1]:
            total += _kostka(tuple(x for x in rho if x), mu[:-1])
    return total


def _unitriangular_inverse(k, n):
    """Inverse of the upper unitriangular matrix k[i][j], by back
    substitution, column by column."""
    inv = [[0] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = 1
        for i in range(j - 1, -1, -1):
            inv[i][j] = -sum(k[i][m] * inv[m][j] for m in range(i + 1, j + 1))
    return inv


def test_mn_against_kostka_inversion_up_to_10():
    # p_nu = sum_mu P[nu][mu] m_mu and s_lam = sum_mu K[lam][mu] m_mu give
    # chi^lam(nu) = sum_mu P[nu][mu] (K^-1)[mu][lam]
    for n in range(11):
        parts = partitions_of(n)
        size = len(parts)
        # reverse-lex order extends dominance, so K is upper unitriangular
        kos = [[_kostka(lam, mu) for mu in parts] for lam in parts]
        assert all(kos[i][i] == 1 and not any(kos[i][:i])
                   for i in range(size))
        inv = _unitriangular_inverse(kos, size)
        for nu in parts:
            pm = [_p_in_m_count(nu, mu) for mu in parts]
            for j, lam in enumerate(parts):
                assert char_value(lam, nu) == \
                    sum(pm[i] * inv[i][j] for i in range(size)), (lam, nu)
