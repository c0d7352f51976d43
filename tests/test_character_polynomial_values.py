"""Character polynomials take their defining values at every n.

``character_polynomial(lam)`` at a cycle type mu |- n is the character of
s_{(n-|lam|, lam)}, straightened: eps chi^rho(mu) with (eps, rho) =
``straighten_schur((n-|lam|,) + lam)``, and 0 where that vanishes, also
for n < |lam| + lam_1.  The characters come from the border-strip
recursion of ``test_mn_columns``.  ``straighten_schur`` itself is checked
against the inversion-counting loop it replaced.
"""

from itertools import product

import pytest

from symcalc.partitions import partition, partitions_of, partitions_up_to
from symcalc.stable import character_polynomial
from oracles import eval_cycle_type, straighten_schur
from test_mn_columns import _ref_char_value


def _ref_straighten(alpha):
    """Sort the beta numbers alpha_i + k - 1 - i, one inversion at a time."""
    alpha = tuple(alpha)
    k = len(alpha)
    beta = [alpha[i] + (k - 1 - i) for i in range(k)]
    if any(b < 0 for b in beta) or len(set(beta)) < k:
        return None
    sign = 1
    for i in range(k):
        for j in range(i + 1, k):
            if beta[i] < beta[j]:
                sign = -sign
    beta.sort(reverse=True)
    lam = tuple(beta[i] - (k - 1 - i) for i in range(k))
    return sign, partition(x for x in lam if x)


def test_straighten_schur_matches_the_inversion_loop():
    for k in range(5):
        for alpha in product(range(-4, 5), repeat=k):
            assert straighten_schur(alpha) == _ref_straighten(alpha), alpha


@pytest.mark.parametrize("lam", partitions_up_to(4))
def test_character_polynomial_is_the_straightened_character(lam):
    xi = character_polynomial(lam)
    for n in range(11):
        st = straighten_schur((n - sum(lam),) + lam)
        for mu in partitions_of(n):
            want = 0 if st is None else st[0] * _ref_char_value(st[1], mu)
            assert eval_cycle_type(xi, mu) == want, (lam, n, mu)
