"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import random
import time

from repvar.affc import affc_datum, xk_values
from repvar.finite_group import brute_force_count, conjugacy_classes
from repvar.poly import LaurentPoly, ONE, Q
from repvar.tqft import assemble_word, word_epoly

from conftest import named_group
from full_rank import (
    class_reduce,
    genus_matrix,
    insert_identity_tubes,
    puncture_matrix,
    to_tqft_datum,
    tube_matrix_P,
)

SUITE = ("z2", "z3", "z4", "z2xz2", "s3", "d4", "q8", "a4")
BRUTE_BUDGET = 10**9


def _report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number}: {description} ... {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def _class_sweep(name, max_genus=2, max_punctures=2):
    """Datum with one labeled tube per conjugacy class, plus the genus,
    word and puncture subsets of every (genus, puncture-class multiset)
    surface in range."""
    group = named_group(name)
    classes = conjugacy_classes(group)
    labels = {f"c{i}": classes.members[i] for i in range(len(classes))}
    datum = to_tqft_datum(group, labels)
    surfaces = []
    for genus in range(max_genus + 1):
        for s in range(max_punctures + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(classes)), s
            ):
                word = assemble_word(genus, [f"c{i}" for i in combo])
                subsets = [classes.members[i] for i in combo]
                surfaces.append((genus, word, subsets))
    return group, datum, surfaces


def test_criterion_1_affc_closed_form():
    datum = affc_datum()
    start = time.perf_counter()
    epoly = word_epoly(datum)
    ok = all(
        epoly(assemble_word(g))
        == Q ** (2 * g - 1) * ((Q - 1) ** (2 * g) + Q - 1)
        for g in range(1, 7)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, f"affc closed form g=1..6 in {elapsed * 1000:.0f}ms (<1s)", ok)


def test_criterion_2_affc_recursions():
    epoly = word_epoly(affc_datum())
    engine = {g: epoly(assemble_word(g)) for g in range(1, 7)}
    ok = all(engine[g] == next(itertools.islice(xk_values(), 2 * g - 1, None)) for g in range(1, 7))
    ok = ok and engine[1] == Q**3 - Q**2
    for g in range(2, 7):
        step = Q ** (2 * g) * (Q - 1) ** (2 * g - 2) * (Q - 2)
        ok = ok and engine[g] == step + Q**2 * engine[g - 1]
    _report(2, "affc doubling recursion and genus-step recursion g=1..6", ok)


def test_criterion_3_finite_oracle_equivalence():
    checked = 0
    ok = True
    for name in SUITE:
        group, datum, surfaces = _class_sweep(name)
        epoly = word_epoly(datum)
        for genus, word, subsets in surfaces:
            expected = brute_force_count(group, genus, subsets, budget=BRUTE_BUDGET)
            ok = ok and epoly(word) == LaurentPoly.const(expected)
            checked += 1
    _report(3, f"finite oracle equivalence on {checked} surfaces over {len(SUITE)} groups", ok)


def test_criterion_4_sphere_normalization():
    sphere = assemble_word(0)
    ok = word_epoly(affc_datum())(sphere) == ONE
    for name in SUITE:
        group = named_group(name)
        datum = to_tqft_datum(group)
        ok = ok and word_epoly(datum)(sphere) == ONE
        ok = ok and word_epoly(class_reduce(datum, group))(sphere) == ONE
    _report(4, "sphere evaluates to exactly 1 on every backend", ok)


def test_criterion_5_cylinder_insertion_invariance():
    checked = 0
    ok = True
    for name in SUITE:
        _, datum, surfaces = _class_sweep(name)
        epoly = word_epoly(datum)
        for _, word, _ in surfaces:
            base = epoly(word)
            for k in (1, 2):
                padded = insert_identity_tubes(word, k)
                ok = ok and epoly(padded) == base
                checked += 1
    _report(5, f"normalized result unchanged by {checked} cylinder insertions", ok)


def test_criterion_6_class_reduction():
    ok = True
    for name in SUITE:
        group, datum, surfaces = _class_sweep(name)
        reduced, full = word_epoly(class_reduce(datum, group)), word_epoly(datum)
        for _, word, _ in surfaces:
            ok = ok and reduced(word) == full(word)

    # Timing gate: reduced A4 genus run at least 5x faster than full rank.
    a4 = named_group("a4")
    full = to_tqft_datum(a4)
    reduced = class_reduce(full, a4)
    word = assemble_word(8)

    def sample(datum):
        """Seconds per evaluation, its fold built each time as one
        ``compute`` builds it, over a loop of at least 20 ms: one
        evaluation takes well under a millisecond, so a single timed call
        is at the mercy of every scheduler hiccup."""
        calls, t0 = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - t0) < 0.02:
            word_epoly(datum)(word)
            calls += 1
        return elapsed / calls

    # Best of 10 each, the samples alternating, so that a slow stretch of
    # the host falls on both sides and a fast one is caught by both.
    t_full = t_reduced = float("inf")
    for _ in range(10):
        t_full = min(t_full, sample(full))
        t_reduced = min(t_reduced, sample(reduced))
    speedup = t_full / t_reduced
    ok = ok and speedup >= 5.0
    _report(
        6,
        f"class reduction sound on all surfaces; A4 speedup {speedup:.1f}x (>=5x)",
        ok,
    )


def test_criterion_7_structural_matrix_laws():
    ok = True
    for name in SUITE:
        group = named_group(name)
        n = group.order
        classes = conjugacy_classes(group)
        genus = genus_matrix(group)
        cylinder = tube_matrix_P(group)
        punctures = [puncture_matrix(group, m) for m in classes.members]

        for g in range(n):
            ok = ok and sum(genus[a][g] for a in range(n)) == n**3
            ok = ok and sum(cylinder[a][g] for a in range(n)) == n
            for members, matrix in zip(classes.members, punctures):
                ok = ok and sum(matrix[a][g] for a in range(n)) == n * len(members)

        for matrix in [genus, cylinder, *punctures]:
            for x in range(n):
                for a in range(n):
                    xa = group.conjugate(x, a)
                    for g in range(n):
                        ok = ok and matrix[a][g] == matrix[xa][group.conjugate(x, g)]
    _report(7, "conjugation equivariance and column-sum laws on all suite groups", ok)


def test_criterion_8_polynomial_property_suite():
    rng = random.Random(20260808)

    def random_poly(max_terms=5):
        return LaurentPoly(
            {
                (rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-9, 9)
                for _ in range(rng.randint(0, max_terms))
            }
        )

    def random_nonzero():
        while True:
            p = random_poly()
            if p:
                return p

    checks = 0
    ok = True
    for _ in range(2500):
        p, r, s = random_poly(), random_poly(), random_poly()
        d = random_nonzero()
        ok = ok and (p + r) + s == p + (r + s)
        ok = ok and p * (r + s) == p * r + p * s
        ok = ok and p * r == r * p
        ok = ok and (p * d).exact_div(d) == p
        checks += 4
    ok = ok and checks == 10_000
    _report(8, f"{checks} randomized ring-axiom and exact-division checks", ok)
