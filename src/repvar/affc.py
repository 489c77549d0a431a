"""Built-in datum for the group of affine transformations of the complex
line, together with its two independent checks: a closed-form genus
formula (``affc_closed_form``) and a recursion that computes the same
values along a different route (``xk_values``, whose value e(X_2g) is
the genus-g one).

The coefficient module has rank 2; its generators are the class supported
at the identity and the class of the nontrivial translations.  All
outputs are polynomials in q.
"""

from collections.abc import Iterator

from .poly import LaurentPoly, ONE, Q, ZERO
from .tqft import GENUS_TUBE, TqftDatum

__all__ = ["affc_datum", "affc_closed_form", "xk_values", "AFFC_E_GROUP"]

#: Class of the group itself: C* x C has class q(q - 1).
AFFC_E_GROUP = Q * (Q - 1)


def affc_datum() -> TqftDatum:
    """Rank-2 datum with the genus-tube matrix stored including its
    overall q(q-1) factor, as the paper states it.  q(q-1) divides every
    tube, so each fold divides it out once (``tqft.fold_form``) and folds
    ``affc_inner_genus_matrix`` instead, with no division at the end of
    the word."""
    f = AFFC_E_GROUP
    genus = tuple(tuple(f * entry for entry in row) for row in affc_inner_genus_matrix())
    return TqftDatum(
        e_g=f,
        tubes={GENUS_TUBE: genus},
        disc_in=(ONE, ZERO),
        disc_out=(ONE, ZERO),
    )


def affc_inner_genus_matrix() -> tuple:
    """The genus-tube matrix with the q(q-1) factor already cancelled:
    the matrix the engine folds, as the genus tube of
    ``tqft.fold_form(affc_datum())``."""
    q = Q
    return (
        (q**3 - q**2, q**4 - 3 * q**3 + 2 * q**2),
        (q**3 - 2 * q**2, q**4 - 3 * q**3 + 3 * q**2),
    )


def affc_closed_form(genus: int) -> LaurentPoly:
    """q^(2g-1) ((q-1)^(2g) + q - 1), expanded term by term: the binomial
    terms C(2g, i) (-1)^i q^(2g-1+i) for i = 0..2g, plus q^(2g) - q^(2g-1).
    Each binomial comes from the one before it,
    C(n, i+1) = C(n, i) (n - i) / (i + 1), which divides exactly."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    n = 2 * genus
    terms = []
    binomial = 1
    for i in range(n + 1):
        terms.append((n - 1 + i, n - 1 + i, -binomial if i % 2 else binomial))
        binomial = binomial * (n - i) // (i + 1)
    return LaurentPoly.from_terms(terms + [(n, n, 1), (n - 1, n - 1, -1)])


def xk_values() -> Iterator[LaurentPoly]:
    """The recursion e(X_1) = 2q - 2 and
    e(X_k) = (q-2) q^(k-1) (q-1)^(k-1) + q e(X_(k-1)), yielding e(X_1),
    e(X_2), ... in turn, one step each.  e(X_2g) must agree with
    affc_closed_form(g); e(X_k) alone is
    ``next(islice(xk_values(), k - 1, None))``."""
    value = 2 * Q - 2
    power = ONE  # q^(k-1) (q-1)^(k-1), carried from one index to the next
    while True:
        yield value
        power *= Q * (Q - 1)
        value = (Q - 2) * power + Q * value
