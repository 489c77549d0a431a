import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repvar import finite_group
from repvar.finite_group import (
    BudgetExceeded,
    FiniteGroup,
    GroupTooLarge,
    NotAGroup,
    NotConjugationClosed,
    brute_force_count,
    class_datum,
    commutator_slot,
    conjugacy_classes,
    conjugacy_closure,
    from_cayley_table,
    from_permutation_generators,
    group_from_json_dict,
    load_group,
    puncture_slot,
)
from repvar.poly import LaurentPoly, ZERO
from repvar.tqft import assemble_word, word_epoly

from conftest import DATA_GROUPS, GROUP_FILES, GROUP_NAMES, SUITE_GROUP_NAMES, named_group
from full_rank import class_reduce, genus_matrix, puncture_matrix, to_tqft_datum, tube_matrix_P

S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 4, 5, 1, 3, 0],
    [3, 5, 4, 0, 2, 1],
    [4, 2, 1, 5, 0, 3],
    [5, 3, 0, 4, 1, 2],
]

# Same group with the identity parked at index 1.
S3_SHUFFLED = [
    [5, 0, 4, 2, 3, 1],
    [0, 1, 2, 3, 4, 5],
    [3, 2, 1, 0, 5, 4],
    [4, 3, 5, 1, 0, 2],
    [2, 4, 0, 5, 1, 3],
    [1, 5, 3, 4, 2, 0],
]

# Homomorphism counts of closed surfaces, frozen from an independent
# enumeration (and, for genus 1, equal to |G| times the class number).
GENUS_COUNTS = {
    "z2": {1: 4, 2: 16},
    "z3": {1: 9, 2: 81},
    "z4": {1: 16, 2: 256},
    "z2xz2": {1: 16, 2: 256},
    "s3": {1: 18, 2: 486},
    "d4": {1: 40, 2: 2176},
    "q8": {1: 40, 2: 2176},
    "a4": {1: 48, 2: 5376},
}

# Groups beyond the named ones, with more classes and larger centralizers.
PERMUTATION_GROUPS = {
    "d6": (6, [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),
    "agl1_5": (5, [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)]),
    "s4": (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
}


def relabel(group, perm):
    """Cayley table of the group with element x renamed perm[x]."""
    n = group.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.mult[a][b]]
    return table


def scan_orbit(group, x):
    """The conjugates of x, conjugating by every element."""
    return tuple(sorted({group.conjugate(h, x) for h in range(group.order)}))


def scan_classes(group):
    """The classes from every element's orbit: the identity's first, then
    by smallest member."""
    orbits = {scan_orbit(group, x) for x in range(group.order)}
    return sorted(orbits, key=lambda m: (group.identity not in m, m[0]))


def scan_closure(group, elements):
    return tuple(sorted({y for x in elements for y in scan_orbit(group, x)}))


def scan_witness(group, subset):
    """The closure check by conjugating every member by every element:
    for the smallest member x with a conjugate outside the subset, the
    first h x h^-1 outside it, worded as ``NotConjugationClosed`` words
    it; None for a union of classes."""
    member = set(subset)
    for x in sorted(member):
        for h in range(group.order):
            y = group.conjugate(h, x)
            if y not in member:
                return f"conjugate {y} of {x} is missing from the subset"
    return None


def class_punctures(group):
    """One tube per class, plus one for the union of the two classes
    after the identity's."""
    members = conjugacy_classes(group).members
    tubes = {f"c{i}": m for i, m in enumerate(members)}
    if len(members) > 2:
        tubes["union"] = members[1] + members[2]
    return tubes


class TestConstruction:
    def test_empty_table(self):
        with pytest.raises(NotAGroup, match="^empty table$"):
            from_cayley_table([])

    def test_z2_table(self):
        group = from_cayley_table([[0, 1], [1, 0]])
        assert group.order == 2
        assert group.inverse == (0, 1)

    def test_no_identity(self):
        with pytest.raises(NotAGroup, match="identity"):
            from_cayley_table([[1, 0], [1, 0]])

    def test_not_square(self):
        with pytest.raises(NotAGroup):
            from_cayley_table([[0, 1], [1]])

    def test_entries_out_of_range(self):
        with pytest.raises(NotAGroup):
            from_cayley_table([[0, 2], [2, 0]])

    def test_missing_inverse(self):
        # Commutative monoid with absorbing element 1, identity 0.
        with pytest.raises(NotAGroup, match="inverse"):
            from_cayley_table([[0, 1], [1, 1]])

    def test_corrupted_large_table_rejected(self):
        # One wrong entry in Z_1500: a sample of triples misses it, the
        # exact test does not.
        n = 1500
        numbers = list(range(n))
        table = [numbers[i:] + numbers[:i] for i in range(n)]
        table[5][7] = 13
        with pytest.raises(NotAGroup, match=r"associativity fails at triple \(\d+, \d+, \d+\)"):
            from_cayley_table(table)

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(SUITE_GROUP_NAMES)),
        data=st.data(),
    )
    def test_any_single_corrupted_entry_rejected(self, name, data):
        # A changed entry breaks the Latin-square property, so no group
        # table is one entry away from another.
        group = named_group(name)
        n = group.order
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        wrong = data.draw(st.integers(0, n - 1).filter(lambda x: x != group.mult[a][b]))
        table = [list(row) for row in group.mult]
        table[a][b] = wrong
        with pytest.raises(NotAGroup):
            from_cayley_table(table)

    def test_broken_associativity_names_a_witness(self):
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAGroup, match="associativity"):
            from_cayley_table(table)

    def test_s3_table(self):
        group = from_cayley_table(S3_TABLE)
        assert group.order == 6
        assert len(conjugacy_classes(group)) == 3

    def test_identity_keeps_its_table_index(self):
        group = from_cayley_table(S3_SHUFFLED)
        e = group.identity
        assert e == 1
        assert all(group.mult[e][x] == x == group.mult[x][e] for x in range(group.order))
        assert group.mult == tuple(map(tuple, S3_SHUFFLED))
        assert sorted(len(m) for m in conjugacy_classes(group).members) == [1, 2, 3]

    def test_permutation_generators_s3(self):
        group = from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)])
        assert group.order == 6

    def test_permutation_generators_trivial(self):
        group = from_permutation_generators(4, [(0, 1, 2, 3)])
        assert group.order == 1

    def test_permutation_generators_z2(self):
        group = from_permutation_generators(2, [(1, 0)])
        assert group.order == 2

    def test_degree_alone_sizes_no_allocation(self):
        # At degree 10^6 these once peaked at 40-49 MB before any check.
        degree = 10**6
        tracemalloc.start()
        try:
            group = group_from_json_dict({"degree": degree, "generators": []})
            trivial_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(NotAGroup, match=r"generator 0, \[0\],"):
                group_from_json_dict({"degree": degree, "generators": [[0]]})
            short_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert group.order == 1
        assert trivial_peak < 2**20
        assert short_peak < 2**20

    def test_non_permutation_rejected(self):
        with pytest.raises(NotAGroup):
            from_permutation_generators(3, [(0, 0, 2)])

    def test_group_too_large(self, monkeypatch):
        # The bound is read when the closure runs, not when it is defined.
        monkeypatch.setattr(finite_group, "DEFAULT_MAX_ORDER", 3)
        with pytest.raises(GroupTooLarge, match="exceeds 3 elements"):
            from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)])
        monkeypatch.setattr(finite_group, "DEFAULT_MAX_ORDER", 6)
        assert from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)]).order == 6

    def test_named_groups(self, suite_groups):
        expected_orders = {
            "z2": 2, "z3": 3, "z4": 4, "z2xz2": 4,
            "s3": 6, "d4": 8, "q8": 8, "a4": 12,
        }
        for name, group in suite_groups.items():
            assert group.order == expected_orders[name]

    def test_q8_is_not_d4(self):
        # Same order and class sizes, different squaring behavior: Q8 has
        # a single element of order 2.
        q8 = named_group("q8")
        d4 = named_group("d4")
        q8_involutions = sum(
            1 for x in range(q8.order) if x != 0 and q8.mult[x][x] == 0
        )
        d4_involutions = sum(
            1 for x in range(d4.order) if x != 0 and d4.mult[x][x] == 0
        )
        assert q8_involutions == 1
        assert d4_involutions == 5


class TestConjugacy:
    def test_s3_classes(self):
        classes = conjugacy_classes(named_group("s3"))
        assert classes.members == ((0,), (1, 3, 4), (2, 5))
        assert classes.centralizer_orders == (6, 2, 3)

    def test_counting_identity(self, suite_groups):
        for group in suite_groups.values():
            classes = conjugacy_classes(group)
            assert sum(len(m) for m in classes.members) == group.order
            for members, cent in zip(classes.members, classes.centralizer_orders):
                assert len(members) * cent == group.order
                x = members[0]
                assert cent == sum(
                    1 for h in range(group.order) if group.mult[h][x] == group.mult[x][h]
                )

    def test_identity_class_first(self, suite_groups):
        for group in suite_groups.values():
            assert conjugacy_classes(group).members[0] == (0,)

    def test_abelian_classes_are_singletons(self):
        assert len(conjugacy_classes(named_group("z4"))) == 4

    def test_closure_from_representative(self):
        group = named_group("s3")
        assert conjugacy_closure(group, [1]) == (1, 3, 4)
        assert conjugacy_closure(group, [0]) == (0,)

    def test_closure_out_of_range(self):
        with pytest.raises(ValueError):
            conjugacy_closure(named_group("z2"), [7])


class TestGenusMatrix:
    def test_z2(self):
        assert genus_matrix(named_group("z2")) == ((8, 0), (0, 8))

    def test_s3_identity_entry(self):
        # 6 conjugators times 18 commuting pairs.
        assert genus_matrix(named_group("s3"))[0][0] == 108

    def test_column_sums(self, suite_groups):
        for group in suite_groups.values():
            n = group.order
            matrix = genus_matrix(group)
            for g in range(n):
                assert sum(matrix[a][g] for a in range(n)) == n**3

    @pytest.mark.parametrize("name", ["z2", "z2xz2", "s3", "d4", "q8", "a4"])
    def test_against_naive_enumeration(self, name, suite_groups):
        # Secondary oracle: direct four-fold enumeration, usable up to n = 24.
        group = suite_groups[name]
        n = group.order
        naive = [[0] * n for _ in range(n)]
        for g in range(n):
            for g1 in range(n):
                for g2 in range(n):
                    core = group.mult[g][group.commutator(g1, g2)]
                    for h in range(n):
                        naive[group.conjugate(h, core)][g] += 1
        assert genus_matrix(group) == tuple(tuple(row) for row in naive)


class TestPunctureMatrix:
    def test_identity_subset_equals_plain_cylinder(self, suite_groups):
        for group in suite_groups.values():
            assert puncture_matrix(group, (0,)) == tube_matrix_P(group)

    def test_column_sums(self, suite_groups):
        for group in suite_groups.values():
            n = group.order
            classes = conjugacy_classes(group)
            for members in classes.members:
                matrix = puncture_matrix(group, members)
                for g in range(n):
                    assert sum(matrix[a][g] for a in range(n)) == n * len(members)

    def test_s3_transpositions_column_sum(self):
        group = named_group("s3")
        matrix = puncture_matrix(group, (1, 3, 4))
        assert sum(matrix[a][0] for a in range(6)) == 18

    def test_not_conjugation_closed(self):
        with pytest.raises(NotConjugationClosed):
            puncture_matrix(named_group("s3"), (1,))

    def test_union_of_classes_is_accepted(self):
        group = named_group("s3")
        puncture_matrix(group, (0, 2, 5))


class TestPlainCylinderMatrix:
    def test_diagonal_positive(self, suite_groups):
        for group in suite_groups.values():
            matrix = tube_matrix_P(group)
            assert all(matrix[g][g] >= 1 for g in range(group.order))

    def test_abelian_is_scalar(self):
        group = named_group("z4")
        assert tube_matrix_P(group) == tuple(
            tuple(4 if i == j else 0 for j in range(4)) for i in range(4)
        )

    def test_column_sums(self, suite_groups):
        for group in suite_groups.values():
            n = group.order
            matrix = tube_matrix_P(group)
            for g in range(n):
                assert sum(matrix[a][g] for a in range(n)) == n

    def test_entries_are_centralizer_orders(self):
        group = named_group("s3")
        classes = conjugacy_classes(group)
        matrix = tube_matrix_P(group)
        for g in range(group.order):
            cls = classes.class_of[g]
            for a in range(group.order):
                expected = (
                    classes.centralizer_orders[cls]
                    if classes.class_of[a] == cls
                    else 0
                )
                assert matrix[a][g] == expected


class TestEquivariance:
    @pytest.mark.parametrize("name", ["s3", "d4", "q8", "a4"])
    def test_all_tube_matrices(self, name, suite_groups):
        group = suite_groups[name]
        n = group.order
        classes = conjugacy_classes(group)
        matrices = [genus_matrix(group), tube_matrix_P(group)]
        matrices.extend(
            puncture_matrix(group, members) for members in classes.members
        )
        for matrix in matrices:
            for x in range(n):
                for a in range(n):
                    xa = group.conjugate(x, a)
                    for g in range(n):
                        assert matrix[a][g] == matrix[xa][group.conjugate(x, g)]


class TestDatum:
    def test_z2_torus(self):
        datum = to_tqft_datum(named_group("z2"))
        assert word_epoly(datum)(assemble_word(1)) == LaurentPoly.const(4)

    def test_s3_torus(self):
        datum = to_tqft_datum(named_group("s3"))
        assert word_epoly(datum)(assemble_word(1)) == LaurentPoly.const(18)

    def test_s3_sphere_with_transposition_puncture(self):
        group = named_group("s3")
        datum = to_tqft_datum(group, {"t": (1, 3, 4)})
        assert word_epoly(datum)(assemble_word(0, ("t",))) == ZERO

    def test_frozen_genus_counts(self, suite_groups):
        for name, by_genus in GENUS_COUNTS.items():
            epoly = word_epoly(to_tqft_datum(suite_groups[name]))
            for genus, count in by_genus.items():
                result = epoly(assemble_word(genus))
                assert result == LaurentPoly.const(count), (name, genus)

    def test_frozen_punctured_counts(self, suite_groups):
        cases = [
            # (group, genus, class indices, count)
            ("s3", 1, (1,), 0),
            ("s3", 1, (2,), 18),
            ("s3", 2, (1, 2), 0),
            ("a4", 2, (1, 3), 82944),
            ("q8", 1, (2, 2), 128),
            ("d4", 1, (1,), 0),
            ("z4", 1, (2,), 0),
        ]
        for name, genus, combo, count in cases:
            group = suite_groups[name]
            classes = conjugacy_classes(group)
            labels = {f"c{i}": classes.members[i] for i in set(combo)}
            datum = to_tqft_datum(group, labels)
            word = assemble_word(genus, [f"c{i}" for i in combo])
            assert word_epoly(datum)(word) == LaurentPoly.const(count), (name, genus, combo)

    def test_results_are_nonnegative_constants(self, suite_groups):
        for group in suite_groups.values():
            epoly = word_epoly(to_tqft_datum(group))
            for genus in range(4):
                result = epoly(assemble_word(genus))
                assert result.is_constant()
                assert result.constant_value() >= 0


class TestClassReduce:
    def test_abelian_rank_unchanged(self):
        group = named_group("z4")
        reduced = class_reduce(to_tqft_datum(group), group)
        assert reduced.rank == 4

    def test_s3_rank(self):
        group = named_group("s3")
        reduced = class_reduce(to_tqft_datum(group), group)
        assert reduced.rank == 3

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            class_reduce(to_tqft_datum(named_group("z2")), named_group("z4"))

    def test_reduced_results_match(self, suite_groups):
        for name in ("s3", "d4", "q8", "a4"):
            group = suite_groups[name]
            classes = conjugacy_classes(group)
            labels = {f"c{i}": classes.members[i] for i in range(len(classes))}
            datum = to_tqft_datum(group, labels)
            reduced, full = word_epoly(class_reduce(datum, group)), word_epoly(datum)
            for genus in range(3):
                for combo in itertools.combinations_with_replacement(
                    range(len(classes)), 2
                ):
                    word = assemble_word(genus, [f"c{i}" for i in combo])
                    assert reduced(word) == full(word)


class TestClassDatum:
    @pytest.mark.parametrize("name", sorted(GROUP_NAMES))
    def test_named_groups_equal_reduced_full_rank(self, name):
        group = named_group(name)
        tubes = class_punctures(group)
        assert class_datum(group, tubes) == class_reduce(to_tqft_datum(group, tubes), group)

    @pytest.mark.parametrize("name", sorted(GROUP_NAMES))
    def test_entries_are_int_and_e_g_is_the_order(self, name):
        group = named_group(name)
        datum = class_datum(group, class_punctures(group))
        entries = [x for m in datum.tubes.values() for row in m for x in row]
        assert {type(x) for x in [*entries, *datum.disc_in, *datum.disc_out]} == {int}
        assert type(datum.e_g) is LaurentPoly
        assert datum.e_g == LaurentPoly.const(group.order)

    @pytest.mark.parametrize("name", sorted(PERMUTATION_GROUPS))
    def test_permutation_groups_equal_reduced_full_rank(self, name):
        group = from_permutation_generators(*PERMUTATION_GROUPS[name])
        tubes = class_punctures(group)
        assert class_datum(group, tubes) == class_reduce(to_tqft_datum(group, tubes), group)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(["s3", "d4", "q8", "a4"]),
        perm=st.permutations(range(12)),
    )
    def test_relabelled_tables(self, name, perm):
        group = named_group(name)
        perm = [x for x in perm if x < group.order]
        relabelled = from_cayley_table(relabel(group, perm))
        tubes = class_punctures(relabelled)
        datum = class_datum(relabelled, tubes)
        assert datum == class_reduce(to_tqft_datum(relabelled, tubes), relabelled)
        # Invariants do not depend on the labelling.
        assert datum.rank == len(conjugacy_classes(group))
        epoly = word_epoly(datum)
        for genus, count in GENUS_COUNTS[name].items():
            assert epoly(assemble_word(genus)) == count

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(SUITE_GROUP_NAMES)),
        perm=st.permutations(range(12)),
    )
    def test_invariants_survive_any_labelling(self, name, perm):
        # The file's labels are kept, with the identity wherever perm puts it.
        group = named_group(name)
        perm = [x for x in perm if x < group.order]
        relabelled = from_cayley_table(relabel(group, perm))
        assert relabelled.identity == perm[group.identity]
        members = conjugacy_classes(group).members
        mapped = conjugacy_classes(relabelled).members
        assert {frozenset(perm[x] for x in m) for m in members} == set(
            map(frozenset, mapped)
        )
        assert mapped[0] == (relabelled.identity,)
        assert [m[0] for m in mapped[1:]] == sorted(m[0] for m in mapped[1:])
        tubes = {f"c{i}": m for i, m in enumerate(members)}
        epoly = word_epoly(class_datum(group, tubes))
        moved = {label: [perm[x] for x in m] for label, m in tubes.items()}
        moved_epoly = word_epoly(class_datum(relabelled, moved))
        for genus in range(3):
            for combo in [(), *((label,) for label in tubes)]:
                count = brute_force_count(group, genus, [tubes[c] for c in combo])
                assert brute_force_count(relabelled, genus, [moved[c] for c in combo]) == count
                word = assemble_word(genus, combo)
                assert epoly(word) == count
                assert moved_epoly(word) == count

    def test_class_union_puncture_counts(self):
        # Transpositions or 3-cycles in S3: the sum of the two counts.
        group = named_group("s3")
        tubes = {"t": (1, 3, 4), "r": (2, 5), "u": (1, 2, 3, 4, 5)}
        epoly = word_epoly(class_datum(group, tubes))
        for genus in range(3):
            union = epoly(assemble_word(genus, ("u",)))
            parts = [epoly(assemble_word(genus, (x,))) for x in "tr"]
            assert union == parts[0] + parts[1]
            assert union == brute_force_count(group, genus, [tubes["u"]])

    def test_not_conjugation_closed(self):
        with pytest.raises(NotConjugationClosed, match="conjugate"):
            class_datum(named_group("s3"), {"p": (1,)})

    @settings(deadline=None)
    @given(
        name=st.sampled_from(["s3", "d4", "q8", "a4"]),
        perm=st.permutations(range(12)),
        data=st.data(),
    )
    def test_closure_check_matches_the_table_scan(self, name, perm, data):
        # The check conjugates one member per class the subset meets; the
        # scan conjugates every member.  Both accept the same subsets and
        # name the same witness, in any labelling.
        group = named_group(name)
        perm = [x for x in perm if x < group.order]
        group = data.draw(st.sampled_from([group, from_cayley_table(relabel(group, perm))]))
        subset = data.draw(st.sets(st.integers(0, group.order - 1), min_size=1))

        def outcome(build):
            try:
                build(group, subset)
            except NotConjugationClosed as exc:
                return str(exc)
            return None

        expected = scan_witness(group, subset)
        assert outcome(lambda g, lam: class_datum(g, {"p": lam})) == expected
        assert outcome(puncture_slot) == expected
        assert outcome(puncture_matrix) == expected
        closed = all(
            set(members) <= subset or not set(members) & subset
            for members in scan_classes(group)
        )
        assert (expected is None) == closed

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(GROUP_NAMES)),
        perm=st.permutations(range(12)),
        data=st.data(),
    )
    def test_classes_and_closure_match_the_table_scan(self, name, perm, data):
        group = named_group(name)
        perm = [x for x in perm if x < group.order]
        for g in (group, from_cayley_table(relabel(group, perm))):
            classes = conjugacy_classes(g)
            expected = scan_classes(g)
            assert list(classes.members) == expected
            assert classes.class_of == tuple(
                next(i for i, m in enumerate(expected) if y in m) for y in range(g.order)
            )
            elements = data.draw(st.lists(st.integers(0, g.order - 1), max_size=6))
            assert conjugacy_closure(g, elements) == scan_closure(g, elements)

    @pytest.mark.parametrize("subset", [(0, 6), (-1,), (1, 3, 4, 99)])
    def test_out_of_range_puncture_element(self, subset):
        with pytest.raises(ValueError, match="out of range"):
            class_datum(named_group("s3"), {"p": subset})


class TestConjugationWork:
    """Each conjugation scan conjugates one member of each class it meets
    by every element: n conjugations per class, not per member."""

    @pytest.fixture()
    def conjugate_calls(self, monkeypatch):
        calls = []
        original = FiniteGroup.conjugate

        def counted(group, h, g):
            calls.append(1)
            return original(group, h, g)

        monkeypatch.setattr(FiniteGroup, "conjugate", counted)
        return calls

    def test_puncture_slot_on_the_five_cycles_of_s5(self, conjugate_calls):
        group = load_group(DATA_GROUPS / "s5_generators.json")
        (five_cycles,) = [m for m in conjugacy_classes(group).members if len(m) == 24]
        conjugate_calls.clear()
        assert puncture_slot(group, five_cycles) == Counter(five_cycles)
        # A scan of every member by every element makes 24 * 120 = 2 880.
        assert len(conjugate_calls) == 120

    def test_classes_of_s5(self, conjugate_calls):
        group = load_group(DATA_GROUPS / "s5_generators.json")
        assert len(conjugacy_classes(group)) == 7
        assert len(conjugate_calls) == 7 * 120


def literal_count(group, genus, subsets):
    """Walk every tuple (a_1, b_1, ..., a_g, b_g, c_1, ..., c_s) and
    multiply it out: the definition, sharing no logic with the oracle."""
    factors = [range(group.order)] * (2 * genus) + [tuple(lam) for lam in subsets]
    count = 0
    for t in itertools.product(*factors):
        product = group.identity
        for i in range(genus):
            product = group.mult[product][group.commutator(t[2 * i], t[2 * i + 1])]
        for c in t[2 * genus:]:
            product = group.mult[product][c]
        count += product == group.identity
    return count


def pairwise_commutators(group):
    """The commutators [a, b] over all n^2 pairs, each pair read from the
    table: the reference ``commutator_slot`` must equal."""
    mult, inverse = group.mult, group.inverse
    return Counter(
        mult[mult[ab][inv_a]][inv_b]
        for row_a, inv_a in zip(mult, inverse)
        for ab, inv_b in zip(row_a, inverse)
    )


# Generators, irreducible character degrees and the genus-2 count by
# hand, for Mednykh's formula.
MEDNYKH_GROUPS = {
    "s4": (PERMUTATION_GROUPS["s4"], [1, 1, 2, 3, 3], 34_176),
    # Symmetries of the 36-gon: dihedral of order 72.
    "d36": (
        (36, [tuple((i + 1) % 36 for i in range(36)), tuple(-i % 36 for i in range(36))]),
        [1] * 4 + [2] * 17,
        3_079_296,
    ),
}


class TestBruteForce:
    @pytest.mark.parametrize(
        "name", sorted(n for n in GROUP_NAMES if named_group(n).order <= 8)
    )
    def test_matches_literal_enumeration(self, name):
        group = named_group(name)
        subsets = list(class_punctures(group).values())
        for genus in range(3):
            for s in range(3):
                for combo in itertools.combinations_with_replacement(subsets, s):
                    assert brute_force_count(group, genus, combo) == literal_count(
                        group, genus, combo
                    ), (genus, combo)

    @pytest.mark.parametrize("path", GROUP_FILES, ids=lambda path: path.name)
    def test_commutator_slot_counts_every_pair(self, path):
        group = load_group(path)
        assert commutator_slot(group) == pairwise_commutators(group)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(["s3", "d4", "q8", "a4"]),
        perm=st.permutations(range(12)),
    )
    def test_commutator_slot_on_relabelled_tables(self, name, perm):
        group = named_group(name)
        perm = [x for x in perm if x < group.order]
        relabelled = from_cayley_table(relabel(group, perm))
        assert commutator_slot(relabelled) == pairwise_commutators(relabelled)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError, match="^genus must be >= 0$"):
            brute_force_count(named_group("s3"), -1)

    @pytest.mark.parametrize("genus", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(MEDNYKH_GROUPS))
    def test_mednykh_formula(self, name, genus):
        # |Hom(pi_1 Sigma_g, G)| = |G| * sum over irreducible chi of
        # (|G| / chi(1))^(2g - 2).
        generators, degrees, genus_two = MEDNYKH_GROUPS[name]
        group = from_permutation_generators(*generators)
        n = group.order
        assert sum(d * d for d in degrees) == n
        assert len(degrees) == len(conjugacy_classes(group))
        expected = n * sum((n // d) ** (2 * genus - 2) for d in degrees)
        if genus == 2:
            assert expected == genus_two
        assert brute_force_count(group, genus, budget=n ** (2 * genus)) == expected

    def test_empty_surface(self, suite_groups):
        for group in suite_groups.values():
            assert brute_force_count(group, 0) == 1

    def test_s3_torus(self):
        assert brute_force_count(named_group("s3"), 1) == 18

    def test_z2_genus_two(self):
        assert brute_force_count(named_group("z2"), 2) == 16

    def test_frozen_counts(self, suite_groups):
        for name, by_genus in GENUS_COUNTS.items():
            for genus, count in by_genus.items():
                assert brute_force_count(suite_groups[name], genus) == count

    def test_sphere_with_punctures(self):
        group = named_group("s3")
        assert brute_force_count(group, 0, [(1, 3, 4)]) == 0
        assert brute_force_count(group, 0, [(0,)]) == 1
        assert brute_force_count(group, 0, [(1, 3, 4), (1, 3, 4)]) == 3

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_force_count(named_group("a4"), 2, budget=1000)

    def test_puncture_subsets_validated(self):
        with pytest.raises(NotConjugationClosed):
            brute_force_count(named_group("s3"), 0, [(1,)])

    def test_agrees_with_engine_on_random_sample(self, suite_groups):
        for name in ("s3", "d4"):
            group = suite_groups[name]
            classes = conjugacy_classes(group)
            labels = {f"c{i}": classes.members[i] for i in range(len(classes))}
            epoly = word_epoly(to_tqft_datum(group, labels))
            for genus in range(3):
                for combo in itertools.combinations_with_replacement(
                    range(len(classes)), 2
                ):
                    expected = brute_force_count(
                        group, genus, [classes.members[i] for i in combo]
                    )
                    word = assemble_word(genus, [f"c{i}" for i in combo])
                    assert epoly(word) == LaurentPoly.const(expected)


class TestGroupFiles:
    def test_table_round_trip(self):
        # Any group, shipped as a table or as generators, written back as
        # its own table reads as the same group, labels included.
        for path in GROUP_FILES:
            group = load_group(path)
            again = group_from_json_dict({"table": [list(row) for row in group.mult]})
            assert again == group, path.name

    def test_generators_form(self):
        group = group_from_json_dict(
            {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
        )
        assert group.order == 6

    def test_table_over_max_order(self, monkeypatch):
        table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        monkeypatch.setattr(finite_group, "DEFAULT_MAX_ORDER", 4)
        with pytest.raises(GroupTooLarge, match=r"order 5 .* bound of 4 .*25 entries"):
            group_from_json_dict({"table": table})
        monkeypatch.setattr(finite_group, "DEFAULT_MAX_ORDER", 5)
        assert group_from_json_dict({"table": table}).order == 5

    def test_rejects_other_shapes(self):
        with pytest.raises(NotAGroup):
            group_from_json_dict({"order": 6})
        with pytest.raises(NotAGroup):
            group_from_json_dict([1, 2])
        with pytest.raises(NotAGroup, match="list of rows"):
            group_from_json_dict({"table": 5})

    @pytest.mark.parametrize(
        "other",
        [{"degree": 2}, {"generators": [[1, 0]]}, {"degree": 2, "generators": [[1, 0]]}],
        ids=["degree", "generators", "both"],
    )
    def test_rejects_a_table_with_the_generators_form(self, other):
        # Once the table was used and the rest ignored.
        message = "group file needs either 'table' or 'degree' + 'generators', not both"
        with pytest.raises(NotAGroup) as err:
            group_from_json_dict({"table": [[0]], **other})
        assert str(err.value) == message

    def test_order_above_sampling_threshold(self):
        # Order 72 was once above the limit for exhaustive associativity
        # checks; the exact test must accept it.
        table = from_permutation_generators(*MEDNYKH_GROUPS["d36"][0]).mult
        group = from_cayley_table(table)
        assert group.order == 72
        assert len(conjugacy_classes(group)) == 21

    def test_trivial_group(self):
        assert named_group("z1").order == 1


def closure_table(degree, generators):
    """Cayley table of the generated group by composing every pair:
    close the generators breadth-first, then table[a][b] = index of a b
    (b applied first)."""

    def compose(p, q):
        return tuple(p[x] for x in q)

    gens = [tuple(g) for g in generators]
    elements = [tuple(range(degree)) if gens else ()]
    index = {elements[0]: 0}
    for perm in elements:
        for g in gens:
            product = compose(perm, g)
            if product not in index:
                index[product] = len(elements)
                elements.append(product)
    return [[index[compose(a, b)] for b in elements] for a in elements]


def assert_generated_table(degree, generators):
    group = from_permutation_generators(degree, generators)
    assert group.mult == tuple(map(tuple, closure_table(degree, generators)))
    # The table is built unchecked; the exact validation must accept it.
    assert from_cayley_table(group.mult) == group


class TestGeneratorClosure:
    @pytest.mark.parametrize(
        "generators",
        [*PERMUTATION_GROUPS.values(), *(spec[0] for spec in MEDNYKH_GROUPS.values())],
        ids=[*PERMUTATION_GROUPS, *(f"mednykh_{name}" for name in MEDNYKH_GROUPS)],
    )
    def test_rows_equal_the_composed_table(self, generators):
        assert_generated_table(*generators)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 5).flatmap(
            lambda d: st.tuples(st.just(d), st.lists(st.permutations(range(d)), max_size=3))
        )
    )
    def test_random_generators(self, generators):
        assert_generated_table(*generators)
