from itertools import islice
from math import comb

import pytest

from repvar.affc import (
    AFFC_E_GROUP,
    affc_closed_form,
    affc_datum,
    affc_inner_genus_matrix,
    xk_values,
)
from repvar.poly import ONE, LaurentPoly, Q, ZERO
from repvar.tqft import (
    GENUS_TUBE,
    IDENTITY_TUBE,
    assemble_word,
    dot,
    mat_vec,
    word_epoly,
)


class TestDatumEntries:
    def test_group_class(self):
        assert AFFC_E_GROUP == Q**2 - Q
        assert affc_datum().e_g == Q * (Q - 1)

    def test_genus_tube_matrix(self):
        m = affc_datum().tubes[GENUS_TUBE]
        f = Q * (Q - 1)
        assert m[0][0] == f * (Q**3 - Q**2)
        assert m[1][0] == f * (Q**3 - 2 * Q**2)
        assert m[0][1] == f * (Q**4 - 3 * Q**3 + 2 * Q**2)
        assert m[1][1] == f * (Q**4 - 3 * Q**3 + 3 * Q**2)

    def test_disc_vectors(self):
        datum = affc_datum()
        assert datum.disc_in == (ONE, ZERO)
        assert datum.disc_out == (ONE, ZERO)
        assert datum.rank == 2
        assert IDENTITY_TUBE not in datum.tubes
        assert [tube for tube in datum.tubes if tube.kind == "puncture"] == []


class TestRawEvaluation:
    def test_single_genus_tube(self):
        # The cup projects onto the first coordinate of the matrix's
        # first column.
        # The evaluator divides the raw scalar by e_G once per tube.
        datum = affc_datum()
        raw = word_epoly(datum)((GENUS_TUBE,)) * datum.e_g
        assert raw == Q * (Q - 1) * (Q**3 - Q**2)

    def test_empty_word(self):
        assert word_epoly(affc_datum())(()) == ONE


class TestClosedForm:
    def test_genus_one(self):
        assert affc_closed_form(1) == Q**3 - Q**2
        assert affc_closed_form(1) == Q**2 * (Q - 1)

    def test_genus_two(self):
        assert affc_closed_form(2) == Q**3 * ((Q - 1) ** 4 + Q - 1)

    def test_genus_must_be_positive(self):
        with pytest.raises(ValueError):
            affc_closed_form(0)

    def test_expansion_matches_the_formula_as_written(self):
        # The closed form exactly as stated, from LaurentPoly powers;
        # affc_closed_form expands it by binomial coefficients instead.
        for genus in range(1, 41):
            expected = Q ** (2 * genus - 1) * ((Q - 1) ** (2 * genus) + Q - 1)
            assert affc_closed_form(genus) == expected

    def test_binomial_recurrence_matches_math_comb(self):
        # The same expansion with every coefficient from math.comb.
        for genus in range(1, 81):
            n = 2 * genus
            terms = [(n - 1 + i, n - 1 + i, (-1) ** i * comb(n, i)) for i in range(n + 1)]
            expected = LaurentPoly.from_terms(terms + [(n, n, 1), (n - 1, n - 1, -1)])
            assert affc_closed_form(genus) == expected


def xk(k):
    """e(X_k), the k-th value of the recursion."""
    return next(islice(xk_values(), k - 1, None))


class TestRecursion:
    def test_base_case(self):
        assert xk(1) == 2 * Q - 2

    def test_second_value(self):
        assert xk(2) == Q**2 * (Q - 1)
        assert xk(2) == affc_closed_form(1)

    @pytest.mark.parametrize("genus", range(1, 7))
    def test_even_index_matches_closed_form(self, genus):
        assert xk(2 * genus) == affc_closed_form(genus)

    def test_running_product_matches_the_recursion_as_written(self):
        # The recursion exactly as stated, recomputing q^(i-1) (q-1)^(i-1)
        # at every step; xk_values carries that product instead.
        value = 2 * Q - 2
        for k in range(1, 41):
            if k > 1:
                value = (Q - 2) * Q ** (k - 1) * (Q - 1) ** (k - 1) + Q * value
            assert xk(k) == value


class TestEngineAgreement:
    @pytest.mark.parametrize("genus", [*range(1, 9), 200, 512])
    def test_engine_equals_closed_form(self, genus):
        result = word_epoly(affc_datum())(assemble_word(genus))
        assert result == affc_closed_form(genus)

    @pytest.mark.parametrize("genus", range(2, 7))
    def test_genus_step_recursion(self, genus):
        # e(g) = q^(2g) (q-1)^(2g-2) (q-2) + q^2 e(g-1), rooted at q^3 - q^2.
        epoly = word_epoly(affc_datum())
        current = epoly(assemble_word(genus))
        previous = epoly(assemble_word(genus - 1))
        step = Q ** (2 * genus) * (Q - 1) ** (2 * genus - 2) * (Q - 2)
        assert current == step + Q**2 * previous
        assert epoly(assemble_word(1)) == Q**3 - Q**2

    def test_engine_equals_closed_form_at_genus_64(self):
        assert word_epoly(affc_datum())(assemble_word(64)) == affc_closed_form(64)

    @pytest.mark.parametrize("genus", range(0, 7))
    def test_outputs_are_pure_q_polynomials(self, genus):
        assert word_epoly(affc_datum())(assemble_word(genus)).is_diagonal()

    @pytest.mark.parametrize("genus", range(1, 7))
    def test_precancelled_route_agrees(self, genus):
        # Evaluating the matrix without its overall q(q-1) factor needs no
        # normalization division at all; both routes must coincide.
        inner = affc_inner_genus_matrix()
        datum = affc_datum()
        vec = datum.disc_in
        for _ in range(genus):
            vec = mat_vec(inner, vec)
        direct = dot(datum.disc_out, vec)
        assert direct == word_epoly(datum)(assemble_word(genus))
