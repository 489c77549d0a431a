import copy
import doctest
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import repvar.poly
from repvar.affc import affc_datum
from repvar.poly import (
    LaurentPoly,
    NonExactDivision,
    QPoly,
    PolyParseError,
    ZeroBase,
    parse_poly,
    ONE,
    Q,
    U,
    V,
    ZERO,
)

exponents = st.integers(min_value=-4, max_value=4)
coefficients = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(
    st.tuples(exponents, exponents), coefficients, max_size=6
).map(LaurentPoly)
nonzero_polys = polys.filter(bool)
monomials = st.builds(
    LaurentPoly.monomial, exponents, exponents, coefficients.filter(bool)
)
# Wider operands, for divisions long enough that the order of the
# elimination steps matters.
wide_polys = st.dictionaries(
    st.tuples(exponents, exponents), coefficients.filter(bool), min_size=4, max_size=10
).map(LaurentPoly)
q_polys = st.dictionaries(exponents, coefficients, max_size=6).map(
    lambda terms: LaurentPoly({(a, a): c for a, c in terms.items()})
)



def max_scan_exact_div(dividend, divisor, max_terms=None):
    """``exact_div`` as it was before the sorted remainder: the leading
    term is found by scanning the whole remainder at every step.  The
    reference the sorted loop must equal, quotient and message alike."""
    order_key = repvar.poly._order_key
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if not dividend:
        return ZERO
    sa = min(a for (a, _), _ in dividend.items())
    sb = min(b for (_, b), _ in dividend.items())
    da = min(a for (a, _), _ in divisor.items())
    db = min(b for (_, b), _ in divisor.items())
    rem = {(a - sa, b - sb): c for (a, b), c in dividend.items()}
    den = {(a - da, b - db): c for (a, b), c in divisor.items()}
    lead_d = max(den, key=order_key)
    quo = {}
    while rem:
        lead_r = max(rem, key=order_key)
        ea, eb = lead_r[0] - lead_d[0], lead_r[1] - lead_d[1]
        c, residue = divmod(rem[lead_r], den[lead_d])
        if ea < 0 or eb < 0 or residue:
            raise NonExactDivision(f"({dividend}) is not divisible by ({divisor})")
        quo[(ea, eb)] = c
        if max_terms is not None and len(quo) > max_terms:
            raise NonExactDivision(f"({dividend}) / ({divisor}) has more than {max_terms} terms")
        for (na, nb), nc in den.items():
            key = (na + ea, nb + eb)
            value = rem.get(key, 0) - c * nc
            if value:
                rem[key] = value
            else:
                rem.pop(key, None)
    return LaurentPoly({(a + sa - da, b + sb - db): c for (a, b), c in quo.items()})


def division_outcome(divide, dividend, divisor, max_terms):
    try:
        return divide(dividend, divisor, max_terms)
    except NonExactDivision as exc:
        return str(exc)


def test_doctests():
    failures, _ = doctest.testmod(repvar.poly)
    assert failures == 0


class TestArithmetic:
    def test_add_merges_terms(self):
        assert Q + (Q - 1) == 2 * Q - 1

    def test_additive_identity(self):
        p = 3 * Q**2 - U
        assert p + ZERO == p

    def test_add_equal_monomials(self):
        assert U * V + U * V == 2 * Q

    def test_mul(self):
        assert Q * (Q - 1) == Q**2 - Q
        assert (Q - 1) ** 2 == Q**2 - 2 * Q + 1

    def test_group_class_of_affine_group(self):
        # e(C* x C) = q(q-1)
        assert (Q - 1) * Q == Q**2 - Q

    def test_pow(self):
        assert Q**0 == ONE
        assert (Q - 1) ** 2 == Q * Q - 2 * Q + 1
        assert Q**3 == LaurentPoly.monomial(3, 3)

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            Q ** (-1)

    def test_int_coercion(self):
        assert 1 + Q == Q + 1
        assert 2 * Q == Q + Q
        assert Q - 1 == -(1 - Q)

    def test_negative_exponents(self):
        qinv = LaurentPoly.monomial(-1, -1)
        assert Q * qinv == ONE

    def test_hashable(self):
        assert len({Q, U * V, Q + ZERO}) == 1

    @pytest.mark.parametrize("c", [-3, 0, 1, 7])
    def test_constants_hash_like_their_int(self, c):
        # They compare equal to it, so sets and dicts must agree.
        assert LaurentPoly.const(c) == c
        assert hash(LaurentPoly.const(c)) == hash(c)

    def test_constant_value(self):
        assert LaurentPoly.const(-3).constant_value() == -3
        assert ZERO.constant_value() == 0
        for p in (Q, U + 1, LaurentPoly.monomial(0, -1)):
            with pytest.raises(ValueError, match="not a constant polynomial"):
                p.constant_value()

    def test_int_found_in_a_set_of_polys(self):
        assert 1 in {ONE}
        assert 0 in {ZERO}
        assert len({1, ONE}) == 1
        assert {ONE: "one"}[1] == "one"


class TestPicklingAndCopying:
    def test_pickle_round_trip(self):
        for p in (Q, ZERO, ONE, 3 * U**2 - V + 7):
            again = pickle.loads(pickle.dumps(p))
            assert again == p and type(again) is LaurentPoly

    def test_copies_stay_immutable(self):
        for again in (copy.copy(Q), copy.deepcopy(Q)):
            assert again == Q
            with pytest.raises(AttributeError, match="immutable"):
                again._terms = {}

    def test_deepcopy_of_a_datum(self):
        assert copy.deepcopy(affc_datum()) == affc_datum()


class TestExactDiv:
    def test_monomial_divisor(self):
        assert (Q**3 - Q**2).exact_div(Q**2) == Q - 1

    def test_binomial_divisor(self):
        assert (Q**2 - Q).exact_div(Q - 1) == Q

    def test_non_exact(self):
        with pytest.raises(NonExactDivision):
            (Q**2 + 1).exact_div(Q - 1)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            Q.exact_div(ZERO)

    def test_zero_dividend(self):
        assert ZERO.exact_div(Q - 1) == ZERO

    def test_constant_divisor_needs_divisible_coefficients(self):
        assert (6 * Q + 3 * ONE).exact_div(LaurentPoly.const(3)) == 2 * Q + 1
        with pytest.raises(NonExactDivision):
            (6 * Q + 1 * ONE).exact_div(LaurentPoly.const(3))

    def test_laurent_unit_divisor(self):
        # Dividing by a unit monomial shifts exponents, including negatively.
        assert ONE.exact_div(Q) == LaurentPoly.monomial(-1, -1)

    def test_single_term_divisor_shifts_into_negative_exponents(self):
        p = LaurentPoly({(-2, 3): 6, (1, -1): -4})
        quotient = p.exact_div(LaurentPoly.monomial(3, -2, 2))
        assert quotient == LaurentPoly({(-5, 5): 3, (-2, 1): -2})

    def test_integer_divisor_with_remainder(self):
        with pytest.raises(NonExactDivision, match="is not divisible by"):
            (6 * Q + 4 * ONE).exact_div(LaurentPoly.const(4))
        with pytest.raises(NonExactDivision):
            (6 * LaurentPoly.monomial(-1, -1) + 1 * ONE).exact_div(LaurentPoly.const(-3))

    def test_division_by_one_is_identity(self):
        p = (Q - 1) ** 40 + LaurentPoly.monomial(-3, 1)
        assert p.exact_div(ONE) == p
        assert p.exact_div(LaurentPoly.const(-1)) == -p

    def test_a_quotient_past_max_terms_is_refused(self):
        assert (Q**4 - 1).exact_div(Q - 1, 4) == Q**3 + Q**2 + Q + 1
        with pytest.raises(NonExactDivision, match=r"has more than 4 terms"):
            (Q**5 - 1).exact_div(Q - 1, 4)

    def test_each_step_orders_only_the_terms_it_adds(self, monkeypatch):
        # The leading term comes from the sorted remainder, not from a scan
        # of it: about 1 order-key call per term here, n^2 / 2 by scanning.
        calls = []
        order_key = repvar.poly._order_key

        def counted(exponents):
            calls.append(1)
            return order_key(exponents)

        monkeypatch.setattr(repvar.poly, "_order_key", counted)
        quotient = LaurentPoly({(i, i % 7): i + 1 for i in range(2000)})
        dividend = quotient * (3 * Q)
        calls.clear()
        assert dividend.exact_div(3 * Q) == quotient
        assert len(dividend) == 2000
        assert len(calls) <= 20 * len(dividend)

    def test_a_multi_term_divisor_orders_only_the_terms_it_adds(self, monkeypatch):
        # (q - 1)^400 e^3 / e^3 with e = q^2 - q: about 1 order-key call
        # per term, 200 per term by scanning.
        calls = []
        order_key = repvar.poly._order_key

        def counted(exponents):
            calls.append(1)
            return order_key(exponents)

        monkeypatch.setattr(repvar.poly, "_order_key", counted)
        divisor = (Q**2 - Q) ** 3
        dividend = (Q - 1) ** 400 * divisor
        calls.clear()
        assert dividend.exact_div(divisor) == (Q - 1) ** 400
        assert len(calls) <= 20 * len(dividend)

    @given(
        p=polys,
        d=nonzero_polys,
        max_terms=st.none() | st.integers(min_value=0, max_value=6),
    )
    def test_matches_the_max_scan_reference(self, p, d, max_terms):
        assert division_outcome(LaurentPoly.exact_div, p, d, max_terms) == division_outcome(
            max_scan_exact_div, p, d, max_terms
        )

    @settings(max_examples=200, deadline=None)
    @given(
        p=wide_polys,
        d=wide_polys,
        r=st.just(ZERO) | polys,
        max_terms=st.none() | st.integers(min_value=0, max_value=100),
    )
    def test_matches_the_max_scan_reference_near_a_product(self, p, d, r, max_terms):
        # p * d + r: exact when r is zero or a multiple of d, and otherwise
        # refused at a step deep inside the elimination.
        dividend = p * d + r
        assert division_outcome(
            LaurentPoly.exact_div, dividend, d, max_terms
        ) == division_outcome(max_scan_exact_div, dividend, d, max_terms)

    def test_division_by_nonmonomial_of_nondivisible_terminates(self):
        # 1 / (q - 1) has no quotient; the division must detect it, not loop.
        with pytest.raises(NonExactDivision):
            ONE.exact_div(Q - 1)


class TestEvaluate:
    def test_examples(self):
        assert Q.evaluate(1, 1) == 1
        assert (Q**2 - Q).evaluate(2, 1) == 2
        assert LaurentPoly.const(7).evaluate(123, -5) == 7

    def test_rational_points(self):
        assert (U + V).evaluate(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_zero_base_with_negative_exponent(self):
        p = LaurentPoly.monomial(-1, 0)
        with pytest.raises(ZeroBase, match="u = 0"):
            p.evaluate(0, 1)
        assert p.evaluate(2, 0) == Fraction(1, 2)
        p = LaurentPoly.monomial(0, -1)
        with pytest.raises(ZeroBase, match="v = 0"):
            p.evaluate(1, 0)
        assert p.evaluate(0, 2) == Fraction(1, 2)

    def test_zero_base_allowed_without_negative_exponent(self):
        assert (Q + 1).evaluate(0, 0) == 1


class TestText:
    def test_q_form(self):
        assert (Q**3 - Q**2).to_text() == "q^3 - q^2"
        assert (2 * Q - 2).to_text() == "2*q - 2"
        assert ZERO.to_text() == "0"
        assert (-Q).to_text() == "-q"

    def test_uv_form(self):
        assert (Q**3).to_text(force_uv=True) == "u^3*v^3"
        assert (U**2 * V - 4).to_text() == "u^2*v - 4"

    def test_order_is_total_degree_then_u(self):
        p = U * V**2 + U**2 * V
        assert p.to_text() == "u^2*v + u*v^2"

    def test_negative_exponents_print(self):
        assert LaurentPoly.monomial(-1, -1).to_text() == "q^-1"
        assert LaurentPoly.monomial(-2, 3).to_text() == "u^-2*v^3"

    def test_parse_printed_forms(self):
        for text, expected in [
            ("q^3 - q^2", Q**3 - Q**2),
            ("2*q - 2", 2 * Q - 2),
            ("2q - 2", 2 * Q - 2),
            ("u^2v^3", U**2 * V**3),
            ("u^2*v^3", U**2 * V**3),
            ("-4", LaurentPoly.const(-4)),
            ("q^-1 + 3", LaurentPoly.monomial(-1, -1) + 3),
            ("0", ZERO),
            ("+5", LaurentPoly.const(5)),
            ("q*q", Q**2),
            # U+0663 is ARABIC-INDIC DIGIT THREE, a decimal digit int() reads.
            ("\u0663q", 3 * Q),
            ("q^\u0663 - 1\u0663", Q**3 - 13),
        ]:
            assert parse_poly(text) == expected

    @pytest.mark.parametrize(
        "bad",
        ["", "q +", "* q", "q * * q", "q 3", "x + 1", "q^", "2 3", "q*"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(PolyParseError):
            parse_poly(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("", "empty polynomial text"),
            ("   ", "empty polynomial text"),
            ("q^", "missing exponent after '^' at position 0"),
            ("q^-", "missing exponent after '^' at position 0"),
            ("2 + x", "unexpected character 'x' at position 4"),
            # A scanning error anywhere wins over a grammar error before it.
            ("* q x", "unexpected character 'x' at position 4"),
            ("* q", "misplaced '*'"),
            ("q * * q", "misplaced '*'"),
            ("2 3", "integer may only lead a term"),
            ("q 3", "integer may only lead a term"),
            ("q +", "empty term"),
            ("+ - q", "empty term"),
            ("q*", "trailing '*'"),
        ],
    )
    def test_parse_error_messages(self, bad, message):
        with pytest.raises(PolyParseError) as excinfo:
            parse_poly(bad)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("q²", "unexpected character '²' at position 1"),
            ("²q", "unexpected character '²' at position 0"),
            ("q^²", "missing exponent after '^' at position 0"),
        ],
        ids=["after-a-variable", "leading", "exponent"],
    )
    def test_superscript_digits_are_parse_errors(self, bad, message):
        # str.isdigit() accepts superscripts, int() does not: they are
        # not digits of the grammar.
        with pytest.raises(PolyParseError) as excinfo:
            parse_poly(bad)
        assert str(excinfo.value) == message


class TestJson:
    def test_terms_shape(self):
        assert (Q**2 - Q).to_json_terms() == [[2, 2, "1"], [1, 1, "-1"]]


class TestRingProperties:
    @given(p=polys, r=polys, s=polys)
    def test_add_associative(self, p, r, s):
        assert (p + r) + s == p + (r + s)

    @given(p=polys, r=polys, s=polys)
    def test_mul_distributes(self, p, r, s):
        assert p * (r + s) == p * r + p * s

    @given(p=polys, r=polys)
    def test_mul_commutative(self, p, r):
        assert p * r == r * p

    @given(p=polys, d=nonzero_polys)
    def test_exact_div_round_trip(self, p, d):
        assert (p * d).exact_div(d) == p

    @given(p=polys, m=monomials)
    def test_exact_div_by_monomial_round_trip(self, p, m):
        assert (p * m).exact_div(m) == p

    @given(p=nonzero_polys, m=monomials)
    def test_single_term_divisor_with_a_remainder(self, p, m):
        (_, c), = m.items()
        assume(any(coeff % c for _, coeff in p.items()))
        with pytest.raises(NonExactDivision) as excinfo:
            p.exact_div(m)
        assert str(excinfo.value) == f"({p}) is not divisible by ({m})"

    @given(p=polys, k=st.integers(min_value=0, max_value=8))
    def test_pow_matches_iterated_mul(self, p, k):
        expected = ONE
        for _ in range(k):
            expected = expected * p
        assert p**k == expected

    @given(p=polys)
    def test_text_round_trip(self, p):
        assert parse_poly(p.to_text()) == p
        assert parse_poly(p.to_text(force_uv=True)) == p

    @given(p=polys)
    def test_json_round_trip(self, p):
        terms = p.to_json_terms()
        assert LaurentPoly.from_terms((a, b, int(c)) for a, b, c in terms) == p

    @given(p=polys)
    def test_no_zero_coefficients_stored(self, p):
        assert all(c != 0 for _, c in p.items())

    @given(p=polys, r=polys)
    def test_ring_operations_return_canonical_terms(self, p, r):
        # +, - and * build their results through the constructor, whose
        # clean-up gives int exponents and coefficients and no zero terms.
        for result in (p + r, p - r, -p, p * r):
            assert 0 not in result._terms.values()
            assert all(type(a) is type(b) is type(c) is int for (a, b), c in result._terms.items())
            assert result == LaurentPoly(dict(result._terms))


def canonical(dense):
    """The fields of a QPoly, for comparing canonical forms."""
    return dense.low, dense.coeffs


class TestQPoly:
    def test_zero_has_low_zero_and_no_digits(self):
        assert canonical(QPoly.from_laurent(ZERO)) == (0, [])

    def test_from_laurent_reads_q_exponents(self):
        dense = QPoly.from_laurent(LaurentPoly.monomial(-1, -1) - 2 * Q**2)
        assert canonical(dense) == (-1, [1, 0, 0, -2])

    def test_from_laurent_rejects_separate_u_and_v(self):
        for poly in (U, Q + V, U * V**2):
            with pytest.raises(ValueError, match="not a polynomial in q"):
                QPoly.from_laurent(poly)

    def test_equals_its_laurent_form(self):
        dense = QPoly.from_laurent(Q - 1)
        assert dense == Q - 1 and Q - 1 == dense
        assert dense != Q and ONE != QPoly.from_laurent(ZERO)

    def test_equals_another_qpoly_at_any_spacing(self):
        dense = QPoly.from_laurent(3 * Q**2 - 1)
        assert dense == QPoly.from_laurent(3 * Q**2 - 1)
        wide = dense._respaced(dense.bits + 16)
        assert wide.bits != dense.bits
        assert dense == wide and wide == dense
        # Same lowest exponent, so the digits decide, at either spacing.
        other = QPoly.from_laurent(3 * Q**2 + 1)
        assert dense != other and wide != other and other != wide

    def test_cancellation_to_zero(self):
        inverse_square = LaurentPoly.monomial(-2, -2)
        p = QPoly.from_laurent(inverse_square + 3 * Q)
        zero = p + QPoly.from_laurent(-inverse_square - 3 * Q)
        assert canonical(zero) == (0, [])
        assert canonical(p * zero) == (0, [])
        assert canonical(zero * p) == (0, [])
        assert canonical(zero + p) == canonical(p)

    @given(p=q_polys)
    def test_laurent_round_trip(self, p):
        dense = QPoly.from_laurent(p)
        assert dense.to_laurent() == p
        assert dense.coeffs == [] or (dense.coeffs[0] and dense.coeffs[-1])

    @given(p=q_polys, r=q_polys)
    def test_add_and_mul_agree_with_laurent(self, p, r):
        dp, dr = QPoly.from_laurent(p), QPoly.from_laurent(r)
        for dense, sparse in ((dp + dr, p + r), (dp * dr, p * r), (dr * dp, r * p)):
            assert dense.to_laurent() == sparse
            assert canonical(dense) == canonical(QPoly.from_laurent(sparse))

    @given(p=q_polys, r=q_polys)
    def test_sum_trims_cancelled_ends(self, p, r):
        # p + (r - p) cancels every term of p that r lacks, including
        # either end of the coefficient list.
        total = QPoly.from_laurent(p) + QPoly.from_laurent(r - p)
        assert canonical(total) == canonical(QPoly.from_laurent(r))


wide_q_polys = st.dictionaries(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-(2**300), max_value=2**300),
    max_size=12,
).map(lambda terms: LaurentPoly({(a, a): c for a, c in terms.items()}))


def assert_canonical(dense, sparse):
    """``dense`` holds ``sparse``, with canonical fields and a bound that
    covers every coefficient inside the spacing."""
    assert dense.to_laurent() == sparse
    assert dense == sparse
    assert canonical(dense) == canonical(QPoly.from_laurent(sparse))
    coeffs = dense.coeffs
    assert coeffs == [] or (coeffs[0] and coeffs[-1])
    assert dense.bits % 8 == 0
    assert max(map(abs, coeffs), default=0) <= dense.bound < 2 ** (dense.bits - 1)


class TestPackedQPoly:
    """The packed ring against ``LaurentPoly``: coefficients far wider than
    a fresh value's spacing, so sums and products re-space their operands."""

    @given(p=wide_q_polys, r=wide_q_polys)
    def test_add_and_mul_agree_with_laurent(self, p, r):
        dp, dr = QPoly.from_laurent(p), QPoly.from_laurent(r)
        for dense, sparse in ((dp + dr, p + r), (dp * dr, p * r), (dr * dp, r * p)):
            assert_canonical(dense, sparse)

    @given(p=wide_q_polys, r=q_polys)
    def test_mixed_spacings_agree_with_laurent(self, p, r):
        # A narrow operand meets a wide one, in either order.
        dp, dr = QPoly.from_laurent(p), QPoly.from_laurent(r)
        for dense, sparse in ((dp + dr, p + r), (dr + dp, r + p), (dp * dr, p * r), (dr * dp, r * p)):
            assert_canonical(dense, sparse)

    def test_product_chain_widens_repeatedly(self):
        factor = 10**12 * Q - 7
        dense_factor = QPoly.from_laurent(factor)
        dense, sparse = QPoly.from_laurent(ONE), ONE
        spacings = set()
        for _ in range(40):
            dense, sparse = dense * dense_factor, sparse * factor
            assert_canonical(dense, sparse)
            spacings.add(dense.bits)
        assert len(spacings) > 5
        # the chain once more, with the long operand on the left
        dense = QPoly.from_laurent(ONE)
        for _ in range(40):
            dense = dense_factor * dense
        assert dense == sparse

    def test_sum_chain_widens(self):
        p = 3**200 * Q**3 - 5**100 * LaurentPoly.monomial(-2, -2)
        dense, sparse = QPoly.from_laurent(p), p
        spacings = set()
        for _ in range(100):
            dense, sparse = dense + dense + dense + QPoly.from_laurent(p), 3 * sparse + p
            assert_canonical(dense, sparse)
            spacings.add(dense.bits)
        assert len(spacings) > 2

    @given(p=wide_q_polys)
    def test_all_negative_results(self, p):
        negative = LaurentPoly({key: -abs(c) for key, c in p._terms.items()})
        dn = QPoly.from_laurent(negative)
        assert_canonical(dn, negative)
        assert_canonical(dn + dn, negative + negative)
        assert_canonical(dn * QPoly.from_laurent(Q + 2), negative * (Q + 2))

    @given(p=wide_q_polys, r=q_polys)
    def test_negation(self, p, r):
        # A value from data has its digits decoded, a sum's are not yet.
        dp, dr = QPoly.from_laurent(p), QPoly.from_laurent(r)
        for dense, sparse in ((dp, p), (dp + dr, p + r)):
            negated = -dense
            assert_canonical(negated, -sparse)
            assert (negated.bits, negated.bound) == (dense.bits, dense.bound)
            assert canonical(dense + negated) == (0, []) and canonical(negated + dense) == (0, [])
            assert canonical(-negated) == canonical(dense)

    @given(p=wide_q_polys, r=wide_q_polys)
    def test_zero_results(self, p, r):
        dp, dr = QPoly.from_laurent(p), QPoly.from_laurent(r)
        zero = dp + QPoly.from_laurent(-p)
        assert canonical(zero) == (0, [])
        assert zero.to_laurent() == ZERO
        assert canonical(zero * dr) == (0, []) and canonical(dr * zero) == (0, [])
        assert canonical(zero + dr) == canonical(dr) and canonical(dr + zero) == canonical(dr)

    @given(p=wide_q_polys, r=wide_q_polys, low=st.integers(min_value=-50, max_value=50))
    def test_low_end_cancellation(self, p, r, low):
        # The sum keeps r above exponent `low` and cancels everything of
        # p below it, so the lowest digits of the packed sum are zero.
        below = LaurentPoly({key: c for key, c in p._terms.items() if key[0] < low})
        above = LaurentPoly({key: c for key, c in r._terms.items() if key[0] >= low})
        dense = QPoly.from_laurent(below + above) + QPoly.from_laurent(-below)
        assert_canonical(dense, above)
