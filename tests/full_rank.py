"""The full-rank oracle: the TQFT of a finite group on its |G|-dimensional
module, one coordinate per group element.

The package evaluates finite groups in class space only
(``repvar.finite_group.class_datum``, rank = class number).  This module
keeps the independent construction it is tested against: the three
|G| x |G| tube-matrix builders, the full-rank datum, and ``class_reduce``,
which rewrites that datum on class-sum coordinates.  ``class_datum``
must equal ``class_reduce(to_tqft_datum(...))``; acceptance criteria 6
(class reduction, with its timing gate) and 7 (the matrix laws) run on
these builders.  ``insert_identity_tubes`` is the cylinder-insertion
probe of criterion 5.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repvar.finite_group import FiniteGroup, _check_conjugation_closed, conjugacy_classes
from repvar.poly import LaurentPoly, ONE, ZERO
from repvar.tqft import GENUS_TUBE, IDENTITY_TUBE, TqftDatum, puncture_tube


# ----------------------------------------------------------------------
# Transfer matrices (integer form, row index = output generator)
# ----------------------------------------------------------------------


def genus_matrix(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """M[a][g] = number of (g1, g2, h) with h g [g1, g2] h^-1 = a.

    Computed in O(n^3) through the commutator-count vector
    c(k) = #{(g1, g2) : [g1, g2] = k}: summing over h, the count for
    (a, g) is the sum of c(g^-1 h^-1 a h).
    """
    n = group.order
    mult = group.mult
    inv = group.inverse

    comm_count = [0] * n
    for a in range(n):
        for b in range(n):
            comm_count[group.commutator(a, b)] += 1

    # conj[a][h] = h^-1 a h
    conj = [
        [mult[mult[inv[h]][a]][h] for h in range(n)] for a in range(n)
    ]

    rows = []
    for a in range(n):
        conj_a = conj[a]
        row = []
        for g in range(n):
            mult_ginv = mult[inv[g]]
            row.append(sum(comm_count[mult_ginv[x]] for x in conj_a))
        rows.append(tuple(row))
    return tuple(rows)


def puncture_matrix(
    group: FiniteGroup, subset: Iterable[int]
) -> tuple[tuple[int, ...], ...]:
    """M[a][g] = number of (g1, h) in G x subset with g1 g h g1^-1 = a.

    The subset must be closed under conjugation.
    """
    lam = _check_conjugation_closed(group, subset)
    n = group.order
    mult = group.mult
    rows = [[0] * n for _ in range(n)]
    for g in range(n):
        row_g = mult[g]
        for h in lam:
            gh = row_g[h]
            for g1 in range(n):
                rows[group.conjugate(g1, gh)][g] += 1
    return tuple(tuple(row) for row in rows)


def tube_matrix_P(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """M[a][g] = number of h with h g h^-1 = a; nonzero exactly on
    conjugate pairs, where it equals the centralizer order."""
    n = group.order
    rows = [[0] * n for _ in range(n)]
    for g in range(n):
        for h in range(n):
            rows[group.conjugate(h, g)][g] += 1
    return tuple(tuple(row) for row in rows)


# ----------------------------------------------------------------------
# Datum construction
# ----------------------------------------------------------------------


def _lift(matrix: Sequence[Sequence[int]]) -> tuple[tuple[LaurentPoly, ...], ...]:
    return tuple(tuple(LaurentPoly.const(x) for x in row) for row in matrix)


def _unit_vector(rank: int, index: int) -> tuple[LaurentPoly, ...]:
    return tuple(ONE if i == index else ZERO for i in range(rank))


def to_tqft_datum(
    group: FiniteGroup,
    punctures: Mapping[str, Iterable[int]] | None = None,
) -> TqftDatum:
    """Full-rank datum: one coordinate per group element, e_G = |G|,
    disc vectors at the identity coordinate."""
    n = group.order
    tubes = {GENUS_TUBE: _lift(genus_matrix(group)), IDENTITY_TUBE: _lift(tube_matrix_P(group))}
    for label, subset in (punctures or {}).items():
        tubes[puncture_tube(str(label))] = _lift(puncture_matrix(group, subset))
    return TqftDatum(
        e_g=LaurentPoly.const(n),
        tubes=tubes,
        disc_in=_unit_vector(n, group.identity),
        disc_out=_unit_vector(n, group.identity),
    )


def class_reduce(datum: TqftDatum, group: FiniteGroup) -> TqftDatum:
    """Rewrite a full-rank group datum on class-sum coordinates.

    Every tube matrix of a group is conjugation-equivariant, so the span
    of the class sums is invariant and contains the disc vector; the
    reduced datum gives identical normalized results at rank = number of
    conjugacy classes.
    """
    if datum.rank != group.order:
        raise ValueError("datum rank does not match the group order")
    classes = conjugacy_classes(group)
    reps = classes.representatives
    k = len(classes)

    def reduce_matrix(matrix):
        rows = []
        for d in range(k):
            full_row = matrix[reps[d]]
            row = []
            for c in range(k):
                acc = ZERO
                for g in classes.members[c]:
                    acc = acc + full_row[g]
                row.append(acc)
            rows.append(tuple(row))
        return tuple(rows)

    return TqftDatum(
        e_g=datum.e_g,
        tubes={tube: reduce_matrix(m) for tube, m in datum.tubes.items()},
        disc_in=_unit_vector(k, 0),
        disc_out=_unit_vector(k, 0),
    )


# ----------------------------------------------------------------------
# Words
# ----------------------------------------------------------------------


def insert_identity_tubes(word: tuple, k: int) -> tuple:
    """Append k plain cylinders; a consistency probe, since the
    normalized evaluation must not change."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return word + (IDENTITY_TUBE,) * k
