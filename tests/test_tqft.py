import json
import itertools
import random
from functools import partial, reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repvar.tqft
from repvar.affc import affc_closed_form, affc_datum, affc_inner_genus_matrix
from repvar.finite_group import class_datum, conjugacy_classes, load_group
from repvar.poly import LaurentPoly, NonExactDivision, ONE, Q, QPoly, U, V, ZERO
from repvar.tqft import (
    GENUS_TUBE,
    IDENTITY_TUBE,
    InvalidDatum,
    SurfaceSpec,
    TqftDatum,
    TubeGenerator,
    UnknownPunctureLabel,
    _jump_threshold,
    assemble_word,
    char_poly,
    datum_from_json_dict,
    datum_to_json_dict,
    dot,
    epoly_rep_variety,
    fold_form,
    load_datum,
    mat_vec,
    puncture_tube,
    save_datum,
    word_epoly,
    word_fold,
)

from conftest import GROUP_FILES, named_group
from full_rank import _lift, insert_identity_tubes, to_tqft_datum


def rank_one_datum(e_g=None, genus_entry=None, tubes={}, **overrides):
    """Tiny hand-built datum for structural tests; ``tubes`` adds to or
    replaces its genus tube."""
    fields = dict(
        e_g=e_g if e_g is not None else ONE,
        tubes={GENUS_TUBE: ((genus_entry if genus_entry is not None else ONE,),), **tubes},
        disc_in=(ONE,),
        disc_out=(ONE,),
    )
    fields.update(overrides)
    return TqftDatum(**fields)


class TestWords:
    def test_assemble_closed_surface(self):
        word = assemble_word(SurfaceSpec(2))
        assert word == (GENUS_TUBE, GENUS_TUBE)
        assert len(word) == 2

    def test_assemble_sphere(self):
        word = assemble_word(SurfaceSpec(0))
        assert word == ()

    def test_assemble_punctured_torus(self):
        word = assemble_word(SurfaceSpec(1, ("t",)))
        assert word == (GENUS_TUBE, puncture_tube("t"))

    def test_insert_identity_tubes(self):
        assert insert_identity_tubes((), 1) == (IDENTITY_TUBE,)
        word = insert_identity_tubes((GENUS_TUBE,), 2)
        assert word == (GENUS_TUBE, IDENTITY_TUBE, IDENTITY_TUBE)

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            SurfaceSpec(-1)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            TubeGenerator("pair_of_pants")
        with pytest.raises(ValueError):
            TubeGenerator("genus", "spurious-label")
        with pytest.raises(ValueError):
            TubeGenerator("puncture")


def fold(tubes, vec, word):
    """``vec`` after the word's tubes, one matrix-vector product each, over
    the given tubes and their ring."""
    for tube in word:
        vec = mat_vec(tubes[tube], vec)
    return vec


def stored_form(datum):
    """The datum's own e_G, tubes, cap and cup, in ``fold_form``'s order:
    the form with nothing divided out and no change of ring."""
    return datum.e_g, datum.tubes, datum.disc_in, datum.disc_out


def divided_form(datum):
    """The form with e_G divided out of every tube entry, over
    ``LaurentPoly`` and with no term cap: the sparse reference for a datum
    whose e_G ``fold_form`` divides out."""
    tubes = {
        tube: tuple(tuple(x.exact_div(datum.e_g) for x in row) for row in m)
        for tube, m in datum.tubes.items()
    }
    return ONE, tubes, datum.disc_in, datum.disc_out


def raw_scalar(form, word):
    """cup . M_t ... M_1 . cap over a form ``(e_g, tubes, cap, cup)``,
    folded tube by tube from the cap with no prefix kept: the oracle the
    evaluator's fold and its choice of form are checked against."""
    _, tubes, cap, cup = form
    return dot(cup, fold(tubes, cap, word))


def covector_fold(datum, k):
    """disc_out . L^k . disc_in, multiplying the cup covector by the genus
    tube from the left; the engine folds the cap vector from the right."""
    cov = datum.disc_out
    for _ in range(k):
        cov = tuple(dot(cov, column) for column in zip(*datum.tubes[GENUS_TUBE]))
    return dot(cov, datum.disc_in)


class TestMatrixAlgebra:
    @pytest.mark.parametrize("k", range(7))
    def test_power_matches_iterated_mul_affc(self, k):
        # The engine applies L^k as k matrix-vector products; the same
        # power taken as k covector-matrix products must agree.  The
        # evaluator divides the raw scalar by e_G^k.
        datum = affc_datum()
        word = (GENUS_TUBE,) * k
        assert word_epoly(datum)(word) * datum.e_g**k == covector_fold(datum, k)

    @pytest.mark.parametrize("k", range(7))
    def test_power_matches_iterated_mul_finite(self, k):
        datum = to_tqft_datum(named_group("s3"))
        word = (GENUS_TUBE,) * k
        assert word_epoly(datum)(word) * datum.e_g**k == covector_fold(datum, k)


class TestDatumValidation:
    def test_rank_positive(self):
        with pytest.raises(InvalidDatum):
            rank_one_datum(tubes={GENUS_TUBE: ()}, disc_in=(), disc_out=())

    def test_square_matrices_required(self):
        with pytest.raises(InvalidDatum, match="genus tube must be a 1x1 matrix"):
            rank_one_datum(tubes={GENUS_TUBE: ((ONE, ONE),)})
        with pytest.raises(InvalidDatum):
            rank_one_datum(tubes={puncture_tube("t"): ((ONE, ZERO), (ZERO, ONE))})
        with pytest.raises(InvalidDatum):
            rank_one_datum(tubes={IDENTITY_TUBE: ((ONE, ZERO),)})

    def test_genus_generator_required(self):
        with pytest.raises(InvalidDatum, match="tubes must include the genus tube"):
            TqftDatum(ONE, {puncture_tube("t"): ((ONE,),)}, (ONE,), (ONE,))

    def test_tubes_keyed_by_generators(self):
        with pytest.raises(InvalidDatum, match="tubes must be keyed by TubeGenerator, got 't'"):
            rank_one_datum(tubes={"t": ((ONE,),)})

    def test_disc_lengths(self):
        with pytest.raises(InvalidDatum):
            rank_one_datum(disc_in=(ONE, ZERO))
        with pytest.raises(InvalidDatum):
            rank_one_datum(disc_out=())

    def test_group_class_nonzero(self):
        with pytest.raises(InvalidDatum):
            rank_one_datum(e_g=ZERO)

    def test_sphere_normalization(self):
        with pytest.raises(InvalidDatum) as err:
            rank_one_datum(disc_in=(Q,))
        assert str(err.value) == "sphere normalization fails: disc_out . disc_in = q, not 1"
        with pytest.raises(InvalidDatum) as err:
            TqftDatum(e_g=ONE, tubes={GENUS_TUBE: ((1,),)}, disc_in=(2,), disc_out=(3,))
        assert str(err.value) == "sphere normalization fails: disc_out . disc_in = 6, not 1"

    @pytest.mark.parametrize("e_g", [Q * (Q - 1), LaurentPoly.const(2)], ids=["q(q-1)", "2"])
    def test_int_tube_with_polynomial_discs_rejected(self, e_g):
        # Both were once accepted, then crashed in evaluation.
        with pytest.raises(InvalidDatum) as err:
            TqftDatum(e_g=e_g, tubes={GENUS_TUBE: ((2,),)}, disc_in=(ONE,), disc_out=(ONE,))
        assert str(err.value) == (
            "tube and disc entries must be all int or all LaurentPoly: "
            "genus tube row 0 column 0 is 2"
        )

    @pytest.mark.parametrize(
        "tubes, disc_in, place",
        [
            (
                {puncture_tube("a"): ((Q,),)},
                (1,),
                "puncture tube 'a' row 0 column 0 is LaurentPoly('q')",
            ),
            ({}, (1.0,), "disc_in entry 0 is 1.0"),
            ({}, (ONE, 0), "disc_in entry 1 is 0"),
        ],
    )
    def test_first_entry_of_another_type_is_named(self, tubes, disc_in, place):
        # The first cap entry sets the ring; the genus tube and the cup
        # are filled with its one.
        rank = len(disc_in)
        unit = 1 if type(disc_in[0]) is int else ONE
        with pytest.raises(InvalidDatum) as err:
            TqftDatum(
                e_g=ONE,
                tubes={GENUS_TUBE: ((unit,) * rank,) * rank, **tubes},
                disc_in=disc_in,
                disc_out=(unit,) * rank,
            )
        assert str(err.value) == (
            f"tube and disc entries must be all int or all LaurentPoly: {place}"
        )

    def test_e_g_must_be_a_laurent_poly(self):
        with pytest.raises(InvalidDatum, match=r"^e_G must be a LaurentPoly, got 2$"):
            TqftDatum(e_g=2, tubes={GENUS_TUBE: ((2,),)}, disc_in=(1,), disc_out=(1,))

    def test_identity_tube_consistency(self):
        # cup . P . cap must equal e_G
        with pytest.raises(InvalidDatum) as err:
            rank_one_datum(e_g=LaurentPoly.const(2), tubes={IDENTITY_TUBE: ((ONE,),)})
        assert str(err.value) == (
            "identity-tube consistency fails: disc_out . P . disc_in = 1, not e_G = 2"
        )
        rank_one_datum(e_g=LaurentPoly.const(2), tubes={IDENTITY_TUBE: ((LaurentPoly.const(2),),)})


class TestEvaluation:
    def test_empty_word_is_one(self):
        for datum in (affc_datum(), to_tqft_datum(named_group("s3"))):
            assert word_epoly(datum)(()) == ONE

    def test_sphere_normalizes_to_one(self):
        for datum in (affc_datum(), to_tqft_datum(named_group("q8"))):
            assert epoly_rep_variety(datum, SurfaceSpec(0)) == ONE

    def test_plain_cylinder_counts_group_order(self):
        group = named_group("s3")
        datum = to_tqft_datum(group)
        raw = word_epoly(datum)((IDENTITY_TUBE,)) * datum.e_g
        assert raw == LaurentPoly.const(group.order)

    def test_unknown_puncture_label(self):
        datum = affc_datum()
        with pytest.raises(UnknownPunctureLabel):
            epoly_rep_variety(datum, SurfaceSpec(0, ("nope",)))

    def test_unknown_puncture_label_names_the_provided_labels(self):
        datum = rank_one_datum(tubes={puncture_tube("b"): ((ONE,),), puncture_tube("a"): ((ONE,),)})
        with pytest.raises(UnknownPunctureLabel) as err:
            epoly_rep_variety(datum, SurfaceSpec(0, ("nope",)))
        assert str(err.value) == (
            "unknown puncture label 'nope'; the datum provides: 'a', 'b'"
        )
        assert isinstance(err.value, ValueError) and not isinstance(err.value, KeyError)
        assert (err.value.label, err.value.available) == ("nope", ("a", "b"))

    def test_missing_identity_tube(self):
        datum = affc_datum()
        word = insert_identity_tubes((), 1)
        with pytest.raises(
            InvalidDatum, match="word uses the plain cylinder but the datum has no identity tube"
        ):
            word_epoly(datum)(word)

    def test_normalization_counts_all_tubes(self):
        # Appending plain cylinders scales the raw value by e_G each time
        # and the tube count rises in step, so the quotient is unchanged.
        group = named_group("d4")
        datum = to_tqft_datum(group)
        word = assemble_word(SurfaceSpec(1))
        epoly = word_epoly(datum)
        base = epoly(word)
        for k in (1, 2):
            padded = insert_identity_tubes(word, k)
            assert epoly(padded) == base

    def test_inconsistent_datum_divides_inexactly(self):
        datum = rank_one_datum(e_g=Q - 1)
        with pytest.raises(NonExactDivision):
            epoly_rep_variety(datum, SurfaceSpec(1))

    def test_unit_group_class_divides_into_negative_exponents(self):
        # Unit monomials are invertible in the Laurent ring, so a raw value
        # of 1 normalized by e_G = q is legal and lands at q^-1.
        datum = rank_one_datum(e_g=Q)
        result = epoly_rep_variety(datum, SurfaceSpec(1))
        assert result == LaurentPoly.monomial(-1, -1)

    def test_division_exactness_across_backends(self):
        # No NonExactDivision anywhere in g <= 6, s <= 3.
        for g in range(7):
            epoly_rep_variety(affc_datum(), SurfaceSpec(g))
        group = named_group("s3")
        classes = conjugacy_classes(group)
        datum = to_tqft_datum(group, {"t": classes.members[1], "r": classes.members[2]})
        for g in range(7):
            for punctures in [(), ("t",), ("t", "r"), ("t", "r", "t")]:
                result = epoly_rep_variety(datum, SurfaceSpec(g, punctures))
                assert result.is_constant()

    def test_puncture_order_does_not_change_the_scalar(self):
        # Not a structural guarantee, but it holds for group data; pin it.
        group = named_group("d4")
        classes = conjugacy_classes(group)
        datum = to_tqft_datum(
            group, {"a": classes.members[1], "b": classes.members[4]}
        )
        results = set()
        for punctures in [("a", "b"), ("b", "a")]:
            results.add(epoly_rep_variety(datum, SurfaceSpec(2, punctures)))
        assert len(results) == 1

    def test_interleaving_punctures_with_genus_tubes(self):
        group = named_group("s3")
        classes = conjugacy_classes(group)
        datum = to_tqft_datum(group, {"t": classes.members[1]})
        straight = assemble_word(SurfaceSpec(2, ("t",)))
        shuffled = (GENUS_TUBE, puncture_tube("t"), GENUS_TUBE)
        epoly = word_epoly(datum)
        assert epoly(straight) == epoly(shuffled)


DATUM_FILE = Path(__file__).resolve().parent.parent / "data" / "datums" / "affc.json"
S3_CLASSES_FILE = DATUM_FILE.with_name("s3_classes.json")


def stored_division(datum, word):
    """The normalization as the stored matrices define it: the raw scalar
    over the datum's own tubes, divided by e_G^t at the end."""
    return raw_scalar(stored_form(datum), word).exact_div(datum.e_g ** len(word))


def outcome(evaluate, word):
    try:
        return evaluate(word)
    except NonExactDivision:
        return NonExactDivision


def all_words(datum, max_length):
    generators = list(datum.tubes)
    for length in range(max_length + 1):
        yield from itertools.product(generators, repeat=length)


def partly_divisible_datum():
    """e_G = q - 1 divides the genus tube, the plain cylinder and puncture
    'a', but not entry (1, 1) of puncture 'b'."""
    e = Q - 1
    return TqftDatum(
        e_g=e,
        tubes={
            GENUS_TUBE: ((e * Q, e * 2), (e * (Q + 1), e * U)),
            puncture_tube("a"): ((e * V, ZERO), (e, e * Q)),
            puncture_tube("b"): ((e * 3, e * Q), (e * V, Q + 2)),
            IDENTITY_TUBE: ((e * (1 - Q), e), (e * 4, e * V)),
        },
        disc_in=(ONE, Q),
        disc_out=(ONE, ZERO),
    )


class TestEgFreeForm:
    def test_affc_folds_the_inner_matrix(self):
        datum = affc_datum()
        e_g, tubes, cap, cup = fold_form(datum)
        assert e_g == ONE
        assert tubes[GENUS_TUBE] == affc_inner_genus_matrix()
        assert (cap, cup) == (datum.disc_in, datum.disc_out)
        assert datum == affc_datum()  # the stored datum is unchanged

    def test_single_term_e_g_keeps_the_end_division(self):
        for datum in (
            to_tqft_datum(named_group("s3")),
            rank_one_datum(e_g=Q, genus_entry=Q),
            rank_one_datum(e_g=LaurentPoly.const(2), genus_entry=LaurentPoly.const(4)),
        ):
            assert fold_form(datum)[:2] == (datum.e_g, datum.tubes)

    def test_a_tube_e_g_does_not_divide_keeps_the_end_division(self):
        datum = partly_divisible_datum()
        assert fold_form(datum)[:2] == (datum.e_g, datum.tubes)
        tampered = datum_to_json_dict(affc_datum())
        tampered["L"][0][0] = "q^5"
        datum = datum_from_json_dict(tampered)
        assert fold_form(datum)[:2] == (datum.e_g, datum.tubes)

    @pytest.mark.parametrize("n, divides", [(4, True), (5, False), (2_000, False)])
    def test_a_quotient_longer_than_the_datum_keeps_the_end_division(self, n, divides):
        # q - 1 divides q^n - 1 into n terms; the datum's entries have 4.
        datum = rank_one_datum(e_g=Q - 1, genus_entry=Q**n - 1)
        e_g, tubes, _, _ = fold_form(datum)
        quotient = sum((Q**i for i in range(n)), ZERO)
        assert (e_g, tubes[GENUS_TUBE]) == (
            (ONE, ((quotient,),)) if divides else (datum.e_g, datum.tubes[GENUS_TUBE])
        )
        assert epoly_rep_variety(datum, SurfaceSpec(1)) == quotient

    def test_a_huge_quotient_is_not_divided_out(self):
        # Dividing out e_G would build a quotient of 10^9 terms.
        datum = rank_one_datum(e_g=Q - 1, genus_entry=Q**1_000_000_000 - 1)
        assert fold_form(datum)[:2] == (datum.e_g, datum.tubes)
        assert epoly_rep_variety(datum, SurfaceSpec(0)) == ONE

    @pytest.mark.parametrize(
        "make",
        [affc_datum, lambda: load_datum(DATUM_FILE), partly_divisible_datum],
        ids=["affc_datum", "affc.json", "partly-divisible"],
    )
    def test_matches_the_stored_division(self, make):
        datum = make()
        epoly = word_epoly(datum)
        outcomes = set()
        for word in all_words(datum, 4):
            expected = outcome(partial(stored_division, datum), word)
            assert outcome(epoly, word) == expected
            outcomes.add(expected is NonExactDivision)
        if any(tube.kind == "puncture" for tube in datum.tubes):
            assert outcomes == {False, True}  # both exits are exercised

    @given(data=st.data())
    def test_property_e_g_times_any_datum(self, data):
        small = st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(-3, 3),
            max_size=3,
        ).map(LaurentPoly)
        e_g = data.draw(small.filter(lambda p: len(p) >= 2), label="e_G")
        rank = data.draw(st.integers(1, 2), label="rank")

        def matrix(label):
            return data.draw(
                st.tuples(*[st.tuples(*[small] * rank)] * rank), label=label
            )

        def scaled(m):
            return tuple(tuple(e_g * x for x in row) for row in m)

        # disc_out = (1, 0, ...) and disc_in = (1, x, ...) pair to 1; the
        # plain cylinder's first row is chosen so disc_out . P . disc_in = e_G.
        tail = tuple(data.draw(small, label="disc_in tail") for _ in range(rank - 1))
        disc_in = (ONE,) + tail
        p_inner = [list(row) for row in matrix("P")]
        p_inner[0][0] = ONE - sum((a * b for a, b in zip(p_inner[0][1:], tail)), ZERO)
        datum = TqftDatum(
            e_g=e_g,
            tubes={
                GENUS_TUBE: scaled(matrix("M")),
                puncture_tube("a"): scaled(matrix("A")),
                puncture_tube("b"): scaled(matrix("B")),
                IDENTITY_TUBE: scaled(p_inner),
            },
            disc_in=disc_in,
            disc_out=(ONE,) + (ZERO,) * (rank - 1),
        )
        word = tuple(
            data.draw(
                st.lists(
                    st.sampled_from(
                        [GENUS_TUBE, IDENTITY_TUBE, puncture_tube("a"), puncture_tube("b")]
                    ),
                    max_size=4,
                ),
                label="word",
            )
        )
        assert fold_form(datum)[0] == ONE
        assert word_epoly(datum)(word) == stored_division(datum, word)


def fold_entries(datum):
    """Every tube and disc entry of the form the engine folds."""
    _, tubes, cap, cup = fold_form(datum)
    return [x for m in tubes.values() for row in m for x in row] + [*cap, *cup]


def inverse_q_datum(scale):
    """Rank-2 q-polynomial datum with q^-1 entries.  e_G = q + q^-1
    divides the plain cylinder, and the other tubes too when ``scale`` is
    set."""
    qi = LaurentPoly.monomial(-1, -1)
    e = Q + qi

    def tube(m, factor):
        return tuple(tuple(factor * x for x in row) for row in m)

    f = e if scale else ONE
    return TqftDatum(
        e_g=e,
        tubes={
            GENUS_TUBE: tube(((Q - 1, qi), (2 * qi - Q, Q**2)), f),
            puncture_tube("a"): tube(((qi, ONE - Q), (ZERO, 3 * Q)), f),
            # disc_out . P . disc_in = e_G
            IDENTITY_TUBE: tube(((ZERO, Q), (qi, ONE)), e),
        },
        disc_in=(ONE, qi),
        disc_out=(ONE, ZERO),
    )


class TestFoldRing:
    @pytest.mark.parametrize(
        "make", [affc_datum, lambda: load_datum(DATUM_FILE)], ids=["affc_datum", "affc.json"]
    )
    def test_q_data_folds_dense(self, make):
        datum = make()
        e_g, tubes, _, _ = fold_form(datum)
        assert {type(x) for x in fold_entries(datum)} == {QPoly}
        assert tubes[GENUS_TUBE] == affc_inner_genus_matrix()
        assert type(e_g) is LaurentPoly and e_g == ONE

    def test_finite_and_uv_data_keep_laurent(self):
        group = named_group("s3")
        classes = conjugacy_classes(group)
        # A finite group's class datum is built over int and folds over it.
        finite = class_datum(group, {"t": classes.members[1]})
        assert fold_form(finite) == stored_form(finite)
        assert {type(x) for x in fold_entries(finite)} == {int}
        # Constant LaurentPoly data are not converted.
        for datum in (
            to_tqft_datum(group, {"t": classes.members[1]}),
            rank_one_datum(genus_entry=Q, tubes={puncture_tube("u"): ((U,),)}),
            partly_divisible_datum(),
        ):
            assert fold_form(datum) == stored_form(datum)
            assert {type(x) for x in fold_entries(datum)} == {LaurentPoly}

    @pytest.mark.parametrize(
        "entry, genus_3",
        [
            ("q^1000000000", "q^3000000000"),
            ("q^1000000000 + 1", "q^3000000000 + 3*q^2000000000 + 3*q^1000000000 + 1"),
            ("q^-100000 + q^100000", "q^300000 + 3*q^100000 + 3*q^-100000 + q^-300000"),
        ],
    )
    def test_sparse_high_degree_data_keep_laurent(self, entry, genus_3):
        # A dense list would be as long as the exponent span.
        datum = datum_from_json_dict(
            {"rank": 1, "e_G": "1", "L": [[entry]], "disc_in": ["1"], "disc_out": ["1"]}
        )
        assert fold_form(datum) == stored_form(datum)
        assert {type(x) for x in fold_entries(datum)} == {LaurentPoly}
        assert epoly_rep_variety(datum, SurfaceSpec(3)).to_text() == genus_3

    @pytest.mark.parametrize("scale", [True, False], ids=["e_g-free", "end-division"])
    def test_inverse_q_entries_agree_on_both_rings(self, scale):
        datum = inverse_q_datum(scale)
        assert {type(x) for x in fold_entries(datum)} == {QPoly}
        dense_form = fold_form(datum)
        sparse_form = divided_form(datum) if scale else stored_form(datum)
        assert dense_form[0] == sparse_form[0]
        epoly = word_epoly(datum)
        outcomes = set()
        for word in all_words(datum, 4):
            assert raw_scalar(dense_form, word) == raw_scalar(sparse_form, word)
            expected = outcome(partial(stored_division, datum), word)
            assert outcome(epoly, word) == expected
            outcomes.add(expected is NonExactDivision)
        # scaled tubes always divide; unscaled ones only on some words
        assert outcomes == ({False} if scale else {False, True})

    def test_long_words_with_wide_coefficients_agree_on_both_rings(self):
        # Coefficients near 10^40 and q^-1 entries: over 60 tubes the
        # packed values outgrow their spacing again and again.
        datum = wide_q_datum()
        # e_G = 1, so the sparse reference is the datum as stored.
        dense_form, sparse_form = fold_form(datum), stored_form(datum)
        assert {type(x) for x in fold_entries(datum)} == {QPoly}
        _, dense_tubes, dense, dense_cup = dense_form
        _, sparse_tubes, sparse, sparse_cup = sparse_form
        genus, puncture = (GENUS_TUBE,), (puncture_tube("a"),)
        checked = 0
        for g in range(61):
            # the words genus^g . a^s for s = 0 .. 60 - g, sharing prefixes
            dense_s, sparse_s = dense, sparse
            for s in range(61 - g):
                assert dot(dense_cup, dense_s) == dot(sparse_cup, sparse_s)
                checked += 1
                dense_s = fold(dense_tubes, dense_s, puncture)
                sparse_s = fold(sparse_tubes, sparse_s, puncture)
            dense, sparse = fold(dense_tubes, dense, genus), fold(sparse_tubes, sparse, genus)
        assert checked == 61 * 62 // 2
        for g in (0, 30, 60):
            word = assemble_word(SurfaceSpec(g, ("a",) * (60 - g)))
            assert raw_scalar(dense_form, word) == raw_scalar(sparse_form, word)


def wide_q_datum():
    """Rank-2 q-polynomial datum with coefficients near 10^40 in the
    genus tube and in one entry of the puncture tube, q^-1 entries, and
    e_G = 1, so it folds with no division."""
    qi = LaurentPoly.monomial(-1, -1)
    c = [10**40 + k for k in (3, -7, 11, -13, 17, -19, 23)]
    return TqftDatum(
        e_g=ONE,
        tubes={
            GENUS_TUBE: ((c[0] * Q - c[1], c[2] * qi), (c[3] * qi + c[4] * Q**2, Q - c[5])),
            puncture_tube("a"): ((Q - 2 * qi, c[6] * ONE), (3 * qi, -Q)),
        },
        disc_in=(ONE, qi),
        disc_out=(ONE, ZERO),
    )


def cap_to_cup(datum, word):
    """The E-polynomial of ``word`` folded with the test's own sums over
    the stored tubes: the cap vector through every tube up to the cup, no
    prefix kept, no change of ring, the division at the end."""
    vec = datum.disc_in
    for tube in word:
        matrix = datum.tubes[tube]
        vec = [sum((entry * x for entry, x in zip(row, vec)), ZERO) for row in matrix]
    raw = sum((c * x for c, x in zip(datum.disc_out, vec)), ZERO)
    return raw.exact_div(datum.e_g ** len(word))


def class_data_with_punctures(name):
    group = named_group(name)
    members = conjugacy_classes(group).members
    return class_datum(group, {f"c{i}": m for i, m in enumerate(members)})


WORD_DATA = {
    "s3": class_data_with_punctures("s3"),
    "d4": class_data_with_punctures("d4"),
    "affc": affc_datum(),
    "wide-q": wide_q_datum(),
}


def lifted(datum):
    """The datum with every ``int`` entry lifted to a ``LaurentPoly``
    constant, so that it folds over ``LaurentPoly``."""
    return TqftDatum(
        datum.e_g,
        {tube: _lift(m) for tube, m in datum.tubes.items()},
        *_lift((datum.disc_in, datum.disc_out)),
    )


def value_or_message(epoly, word):
    try:
        return epoly(word)
    except NonExactDivision as exc:
        return str(exc)


class TestIntFold:
    @pytest.mark.parametrize(
        "group",
        list(map(load_group, GROUP_FILES)),
        ids=[path.name for path in GROUP_FILES],
    )
    def test_class_data_agree_with_their_laurent_twin(self, group):
        classes = conjugacy_classes(group)
        tubes = [puncture_tube(f"c{i}") for i in range(len(classes))]
        datum = class_datum(group, {t.label: m for t, m in zip(tubes, classes.members)})
        twin = lifted(datum)
        assert {type(x) for x in fold_entries(twin)} == {LaurentPoly}
        on_int, on_laurent = word_epoly(datum), word_epoly(twin)
        for genus in range(4):
            for s in range(3):
                for combo in itertools.combinations_with_replacement(tubes, s):
                    word = (GENUS_TUBE,) * genus + combo
                    value = on_int(word)
                    assert type(value) is LaurentPoly
                    assert value == on_laurent(word)

    @pytest.mark.parametrize("e_g", [LaurentPoly.const(4), Q - 1], ids=["4", "q - 1"])
    def test_a_remainder_raises_the_laurent_message(self, e_g):
        # The divmod path serves a constant e_G; q - 1 takes the LaurentPoly one.
        datum = TqftDatum(
            e_g=e_g,
            tubes={GENUS_TUBE: ((6, 2), (0, 8)), puncture_tube("a"): ((4, 0), (4, 0))},
            disc_in=(1, 0),
            disc_out=(1, 0),
        )
        assert fold_form(datum) == stored_form(datum)
        twin = lifted(datum)
        on_int, on_laurent = word_epoly(datum), word_epoly(twin)
        for word in all_words(datum, 4):
            assert value_or_message(on_int, word) == value_or_message(on_laurent, word)
        message = f"(6) is not divisible by ({e_g})"
        assert value_or_message(on_int, (GENUS_TUBE,)) == message
        # The puncture's scalar is 4: 4 divides it, q - 1 does not.
        expected = ONE if e_g == 4 else "(4) is not divisible by (q - 1)"
        assert value_or_message(on_int, (puncture_tube("a"),)) == expected

    def test_int_entries_save_as_their_constants(self, tmp_path):
        group = load_group(DATUM_FILE.parent.parent / "groups" / "s3.json")
        classes = conjugacy_classes(group)
        datum = class_datum(group, {f"c{i}": m for i, m in enumerate(classes.members)})
        assert datum_to_json_dict(datum) == datum_to_json_dict(lifted(datum))
        save_datum(datum, tmp_path / "s3.json")
        assert (tmp_path / "s3.json").read_text() == S3_CLASSES_FILE.read_text()
        assert load_datum(tmp_path / "s3.json") == datum

class TestWordEpoly:
    """``word_epoly``, and ``word_fold`` driven one tube at a time, give
    the same value as the fold from cap to cup."""

    @pytest.mark.parametrize("name", WORD_DATA)
    def test_every_word_of_up_to_two_tubes(self, name):
        datum = WORD_DATA[name]
        epoly = word_epoly(datum)
        for word in all_words(datum, 2):
            assert epoly(word) == cap_to_cup(datum, word)

    @given(st.data())
    def test_property_random_words_share_one_evaluator(self, data):
        name = data.draw(st.sampled_from(sorted(WORD_DATA)))
        datum = WORD_DATA[name]
        words = st.lists(st.sampled_from(list(datum.tubes)), max_size=7).map(tuple)
        epoly = word_epoly(datum)
        for word in data.draw(st.lists(words, min_size=1, max_size=6)):
            vec, step, value = word_fold(datum)
            for t in range(len(word) + 1):
                # vec has folded the first t tubes, as verify moves a row
                # from its parent.
                assert value(vec, t) == epoly(word[:t]) == cap_to_cup(datum, word[:t])
                if t < len(word):
                    vec = step(vec, word[t])


class TestWordFold:
    """``word_fold``'s three parts as a walk uses them: a parent's vector
    serves every word that extends it, and the fold keeps no state."""

    @pytest.mark.parametrize("name", WORD_DATA)
    def test_start_is_the_cap_and_values_to_one(self, name):
        datum = WORD_DATA[name]
        start, _, value = word_fold(datum)
        assert start == datum.disc_in
        assert value(start, 0) == ONE  # the sphere

    @pytest.mark.parametrize("name", WORD_DATA)
    def test_one_parent_vector_serves_every_extension(self, name):
        datum = WORD_DATA[name]
        start, step, value = word_fold(datum)
        for parent in all_words(datum, 1):
            vec = reduce(step, parent, start)
            for tube in datum.tubes:
                word = parent + (tube,)
                assert value(step(vec, tube), len(word)) == cap_to_cup(datum, word)
            # Stepping to the children left the parent's vector as it was.
            assert value(vec, len(parent)) == cap_to_cup(datum, parent)

    @pytest.mark.parametrize("name", ["s3", "d4"])
    def test_a_plain_cylinder_pads_a_word_without_changing_its_value(self, name):
        datum = WORD_DATA[name]
        start, step, value = word_fold(datum)
        for word in all_words(datum, 2):
            vec = reduce(step, word, start)
            assert value(step(vec, IDENTITY_TUBE), len(word) + 1) == value(vec, len(word))

    def test_step_looks_up_mat_vec_when_it_runs(self, monkeypatch):
        # A rebinding of tqft.mat_vec after the fold is built is seen.
        datum = WORD_DATA["s3"]
        start, step, _ = word_fold(datum)
        matrices = []

        def recorded(matrix, vec):
            matrices.append(matrix)
            return mat_vec(matrix, vec)

        monkeypatch.setattr(repvar.tqft, "mat_vec", recorded)
        tube = puncture_tube("c1")
        step(step(start, GENUS_TUBE), tube)
        tubes = fold_form(datum)[1]
        assert matrices == [tubes[GENUS_TUBE], tubes[tube]]

    def test_a_step_that_raises_leaves_its_parent_usable(self):
        datum = WORD_DATA["wide-q"]
        start, step, value = word_fold(datum)
        vec = step(start, GENUS_TUBE)
        with pytest.raises(UnknownPunctureLabel):
            step(vec, puncture_tube("b"))
        with pytest.raises(InvalidDatum):
            step(vec, IDENTITY_TUBE)
        word = (GENUS_TUBE, puncture_tube("a"))
        assert value(step(vec, puncture_tube("a")), 2) == cap_to_cup(datum, word)

    def test_a_genus_run_steps_each_genus_from_the_last(self):
        datum = WORD_DATA["affc"]
        epoly = word_epoly(datum)
        vec, step, value = word_fold(datum)
        for genus in range(21):
            assert value(vec, genus) == epoly(assemble_word(SurfaceSpec(genus, ())))
            vec = step(vec, GENUS_TUBE)


def walked(datum, word):
    """The value of ``word``, or its ``NonExactDivision`` message, with
    every tube stepped one at a time: the walk ``verify`` makes, and the
    reference the genus jump is checked against."""
    start, step, value = word_fold(datum)
    return value_or_message(lambda w: value(reduce(step, w, start), len(w)), word)


def ring_units(x):
    """The zero and one of the ring ``x`` is in."""
    if type(x) is int:
        return 0, 1
    if type(x) is QPoly:
        return QPoly.from_laurent(ZERO), QPoly.from_laurent(ONE)
    return ZERO, ONE


def q_poly(coeffs):
    return sum((c * Q**i for i, c in enumerate(coeffs)), ZERO)


def u_poly(coeffs):
    return sum((c * U**i for i, c in enumerate(coeffs)), ZERO)


@st.composite
def jump_datums(draw):
    """A datum of rank 1-5 with a genus tube and a puncture tube ``a``,
    and the ring it folds over: small ``int`` entries with e_G = 1, 2 or 3
    (so many words fail to divide), polynomials in q with e_G = 1, q (the
    end division kept) or q - 1 times every tube (divided out), or
    polynomials in u alone with e_G = 1 or 2."""
    ring = draw(st.sampled_from([int, QPoly, LaurentPoly]))
    rank = draw(st.integers(1, 5))
    if ring is int:
        entry, one, zero, factor = st.integers(-3, 3), 1, 0, 1
        e_g = LaurentPoly.const(draw(st.sampled_from([1, 2, 3])))
    else:
        coeffs = st.lists(st.integers(-2, 2), min_size=1, max_size=3)
        entry, one, zero = coeffs.map(q_poly if ring is QPoly else u_poly), ONE, ZERO
        e_g = draw(st.sampled_from([ONE, Q, Q - 1] if ring is QPoly else [ONE, 2 * ONE]))
        factor = e_g if len(e_g) > 1 else ONE

    def matrix(label):
        row = st.lists(entry, min_size=rank, max_size=rank)
        rows = draw(st.lists(row, min_size=rank, max_size=rank), label=label)
        return tuple(tuple(factor * x for x in row) for row in rows)

    puncture = [list(row) for row in matrix("a")]
    if ring is QPoly:  # one entry that is not constant, so that it folds as QPoly
        puncture[0][0] += factor * Q
    tail = tuple(draw(entry, label="disc_in tail") for _ in range(rank - 1))
    datum = TqftDatum(
        e_g=e_g,
        tubes={GENUS_TUBE: matrix("L"), puncture_tube("a"): puncture},
        disc_in=(one,) + tail,
        disc_out=(one,) + (zero,) * (rank - 1),
    )
    return datum, ring


def nilpotent_datum():
    """A 3 x 3 nilpotent genus tube: every genus from 3 on folds to 0."""
    return TqftDatum(
        e_g=ONE,
        tubes={GENUS_TUBE: ((0, 1, 0), (0, 0, 1), (0, 0, 0))},
        disc_in=(1, 2, 3),
        disc_out=(1, 0, 0),
    )


def singular_datum():
    """A rank-2 q-datum whose genus tube has determinant 0, with a
    single-term e_G = q, which ``fold_form`` keeps for the end division."""
    return TqftDatum(
        e_g=Q,
        tubes={
            GENUS_TUBE: ((Q**2, Q**3), (Q, Q**2)),
            puncture_tube("a"): ((Q, ONE), (ZERO, 2 * Q)),
        },
        disc_in=(ONE, Q - 1),
        disc_out=(ONE, ZERO),
    )


def acyclic_cap_datum():
    """A diagonal genus tube with the cap on one eigenvector, so that the
    Krylov vectors L^i . cap are all multiples of the cap."""
    return TqftDatum(
        e_g=LaurentPoly.const(2),
        tubes={
            GENUS_TUBE: ((2, 0, 0), (0, 4, 0), (0, 0, 6)),
            puncture_tube("a"): ((2, 2, 0), (0, 2, 0), (4, 0, 2)),
        },
        disc_in=(1, 0, 0),
        disc_out=(1, 5, 7),
    )


def failing_datum():
    """affc with q^3 in place of L[0][0]: e_G = q^2 - q no longer divides
    the genus tube, so the division comes at the end and fails."""
    data = datum_to_json_dict(affc_datum())
    data["L"][0][0] = "q^3"
    return datum_from_json_dict(data)


JUMP_DATA = {
    "nilpotent": nilpotent_datum(),
    "singular": singular_datum(),
    "acyclic-cap": acyclic_cap_datum(),
    "failing": failing_datum(),
    "s3_classes.json": load_datum(S3_CLASSES_FILE),
    **WORD_DATA,
}


class TestGenusJump:
    """``word_epoly`` jumps a genus run longer than ``_jump_threshold`` of
    the rank with the genus tube's characteristic polynomial; the value,
    or the ``NonExactDivision`` message, is the walk's."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_the_jump_lands_where_the_walk_does(self, data):
        datum, ring = data.draw(jump_datums(), label="datum")
        assert {type(x) for x in fold_entries(datum)} == {ring}
        threshold = _jump_threshold(datum.rank)
        genus = data.draw(st.integers(0, 3 * threshold), label="genus")
        punctures = data.draw(st.integers(0, 2), label="punctures")
        word = (GENUS_TUBE,) * genus + (puncture_tube("a"),) * punctures
        assert value_or_message(word_epoly(datum), word) == walked(datum, word)

    @pytest.mark.parametrize("name", JUMP_DATA)
    def test_every_genus_on_both_sides_of_the_threshold(self, name):
        datum = JUMP_DATA[name]
        epoly = word_epoly(datum)
        labels = [tube for tube in datum.tubes if tube.kind == "puncture"][:1]
        outcomes = set()
        for genus in range(3 * _jump_threshold(datum.rank) + 1):
            for tail in ((), *((tube,) for tube in labels), tuple(labels * 2)):
                word = (GENUS_TUBE,) * genus + tail
                expected = walked(datum, word)
                assert value_or_message(epoly, word) == expected
                outcomes.add(type(expected))
        # Only the sphere divides when the division fails.
        assert outcomes == ({LaurentPoly, str} if name == "failing" else {LaurentPoly})

    def test_the_end_division_is_kept(self):
        for datum in (singular_datum(), acyclic_cap_datum(), failing_datum()):
            assert fold_form(datum)[0] == datum.e_g != ONE

    def test_a_nilpotent_tube_folds_to_zero(self):
        epoly = word_epoly(nilpotent_datum())
        assert char_poly(nilpotent_datum().tubes[GENUS_TUBE]) == (0, 0, 0)
        assert epoly((GENUS_TUBE,) * 60) == ZERO

    def test_the_failing_message_names_the_raw_scalar(self):
        datum = failing_datum()
        genus = 3 * _jump_threshold(datum.rank)
        message = value_or_message(word_epoly(datum), (GENUS_TUBE,) * genus)
        assert message.endswith(f"is not divisible by ({datum.e_g ** genus})")

    def test_the_polynomial_is_computed_once_and_only_for_a_jump(self, monkeypatch):
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return char_poly(matrix)

        monkeypatch.setattr(repvar.tqft, "char_poly", counted)
        datum = affc_datum()
        epoly = word_epoly(datum)
        threshold = _jump_threshold(datum.rank)
        for genus in range(threshold + 1):
            epoly((GENUS_TUBE,) * genus)
        assert calls == []
        for genus in (threshold + 1, 3 * threshold):
            assert epoly((GENUS_TUBE,) * genus) == affc_closed_form(genus)
        assert calls == [fold_form(datum)[1][GENUS_TUBE]]
        # A run of genus tubes equal to GENUS_TUBE but not it is jumped too.
        word = tuple(TubeGenerator("genus") for _ in range(2 * threshold))
        assert word_epoly(datum)(word) == affc_closed_form(len(word))
        assert len(calls) == 2

    def test_affc_characteristic_polynomial(self):
        expected = (Q**6 - 2 * Q**5 + Q**4, -(Q**4 - 2 * Q**3 + 2 * Q**2))
        assert char_poly(affc_inner_genus_matrix()) == expected
        folded = char_poly(fold_form(affc_datum())[1][GENUS_TUBE])
        assert {type(c) for c in folded} == {QPoly}
        assert folded == expected

    @pytest.mark.parametrize("name", WORD_DATA)
    def test_cayley_hamilton(self, name):
        # chi(L) = L^r + sum of c_i L^i is the zero matrix, column by
        # column, over the ring the fold runs in.
        tube = fold_form(WORD_DATA[name])[1][GENUS_TUBE]
        coeffs = char_poly(tube)
        rank = len(tube)
        zero, one = ring_units(tube[0][0])
        for j in range(rank):
            powers = [tuple(one if i == j else zero for i in range(rank))]
            for _ in range(rank):
                powers.append(mat_vec(tube, powers[-1]))
            for k in range(rank):
                products = (c * power[k] for c, power in zip(coeffs, powers))
                total = reduce(add, products, powers[-1][k])
                assert total == zero

    def test_matches_the_determinant(self):
        # det(x*I - M) by cofactor expansion, at several integer x.
        def det(m):
            if not m:
                return 1
            return sum(
                (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                for j in range(len(m))
            )

        rng = random.Random(5)
        for rank in range(1, 6):
            m = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(rank)]
            coeffs = char_poly(m)
            for x in range(-2, 3):
                shifted = [[(i == j) * x - m[i][j] for j in range(rank)] for i in range(rank)]
                assert det(shifted) == x**rank + sum(c * x**i for i, c in enumerate(coeffs))


class TestDatumFiles:
    def test_round_trip_in_memory(self):
        group = named_group("s3")
        classes = conjugacy_classes(group)
        datum = to_tqft_datum(group, {"t": classes.members[1]})
        again = datum_from_json_dict(datum_to_json_dict(datum))
        assert again == datum

    def test_round_trip_on_disk(self, tmp_path):
        datum = affc_datum()
        path = tmp_path / "affc.json"
        save_datum(datum, path)
        loaded = load_datum(path)
        assert loaded == datum
        assert epoly_rep_variety(loaded, SurfaceSpec(1)) == Q**3 - Q**2

    def test_identity_tube_key_is_optional(self):
        data = datum_to_json_dict(affc_datum())
        assert "P" not in data
        data_with_p = datum_to_json_dict(to_tqft_datum(named_group("z2")))
        assert "P" in data_with_p

    def test_missing_keys(self):
        with pytest.raises(InvalidDatum):
            datum_from_json_dict({"rank": 1})

    def test_bad_polynomial_text(self):
        data = datum_to_json_dict(affc_datum())
        data["e_G"] = "totally not a polynomial"
        with pytest.raises(InvalidDatum):
            datum_from_json_dict(data)

    def test_non_object(self):
        with pytest.raises(InvalidDatum):
            datum_from_json_dict([1, 2, 3])

    def test_structural_invariants_checked_on_load(self):
        data = datum_to_json_dict(affc_datum())
        data["disc_out"] = ["0", "0"]
        with pytest.raises(InvalidDatum):
            datum_from_json_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("disc_in", 5),
            ("disc_in", "10"),
            ("disc_out", "10"),
            ("rank", 2.9),
            ("rank", True),
            ("rank", 3),
        ],
    )
    def test_malformed_vectors_and_rank_rejected(self, key, value):
        # A string vector was once read character by character, a float
        # rank truncated, and a non-list vector raised TypeError.
        data = datum_to_json_dict(affc_datum())
        data[key] = value
        with pytest.raises(InvalidDatum, match=key):
            datum_from_json_dict(data)

    def test_shipped_example_is_the_builtin_affc_datum(self):
        assert load_datum(DATUM_FILE) == affc_datum()
        assert json.loads(DATUM_FILE.read_text()) == datum_to_json_dict(affc_datum())

    def test_shipped_s3_classes_is_the_class_datum(self):
        group = named_group("s3")
        members = conjugacy_classes(group).members
        datum = class_datum(group, {f"c{i}": m for i, m in enumerate(members)})
        data = json.loads(S3_CLASSES_FILE.read_text())
        assert data == datum_to_json_dict(datum)
        assert "P" in data and sorted(data["punctures"]) == ["c0", "c1", "c2"]
        assert load_datum(S3_CLASSES_FILE) == datum
