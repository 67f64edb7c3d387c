"""Exact singularity exponents: resolution formula, monomial classes,
scalar operations, and the text/JSON interfaces."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lctkit import (
    Diagonal,
    DirectSum,
    DivisorRecord,
    ExtRational,
    INFINITY,
    PrincipalMonomial,
    ResolutionData,
    SeparatedSum,
    arnold_multiplicity,
    lct_from_resolution,
    lct_monomial,
    lelong_sandwich,
    parse_spec,
    scale_arnold,
    spec_to_text,
    truncation_gap_bound,
)
from lctkit.errors import InvalidInputError


# ---------------------------------------------------------------------------
# resolution formula


def test_resolution_min_of_two():
    data = ResolutionData((DivisorRecord(0, 2), DivisorRecord(1, 3)))
    assert lct_from_resolution(data) == ExtRational("1/2")


def test_resolution_point_blowup():
    # blow-up of a plane point: discrepancy 1, multiplicity 1 gives
    # exponent 2, the codimension of the point
    data = ResolutionData((DivisorRecord(1, 1),))
    assert lct_from_resolution(data) == ExtRational(2)


def test_resolution_single_power():
    data = ResolutionData((DivisorRecord(0, 7),))
    assert lct_from_resolution(data) == ExtRational("1/7")


def test_resolution_nothing_meets_k():
    data = ResolutionData((DivisorRecord(5, 7, meets_k=False),))
    assert lct_from_resolution(data) == INFINITY


def test_resolution_b_zero_never_constrains():
    # a pure exceptional divisor not in the ideal pullback (b=0) would
    # formally give (a+1)/0; it must be skipped, not treated as 0 or inf
    data = ResolutionData((DivisorRecord(0, 4), DivisorRecord(3, 0)))
    assert lct_from_resolution(data) == ExtRational("1/4")


def test_resolution_empty_is_an_error():
    with pytest.raises(InvalidInputError):
        lct_from_resolution(ResolutionData(()))
    with pytest.raises(InvalidInputError):
        lct_from_resolution("not resolution data")


def test_divisor_record_validation():
    with pytest.raises(InvalidInputError):
        DivisorRecord(0, 0)
    with pytest.raises(InvalidInputError):
        DivisorRecord(-1, 2)
    with pytest.raises(InvalidInputError):
        DivisorRecord(1, -2)
    with pytest.raises(InvalidInputError):
        DivisorRecord(True, 2)
    with pytest.raises(InvalidInputError):
        DivisorRecord(1, 2, meets_k="yes")


def test_resolution_from_json():
    doc = '{"divisors":[{"a":0,"b":2,"meets_k":true},{"a":1,"b":3}]}'
    data = ResolutionData.from_json(doc)
    assert data.divisors == (DivisorRecord(0, 2, True), DivisorRecord(1, 3, True))
    assert lct_from_resolution(data) == ExtRational("1/2")


def test_resolution_from_json_dict_and_bytes():
    data = ResolutionData.from_json({"divisors": [{"a": 5, "b": 7, "meets_k": False}]})
    assert lct_from_resolution(data) == INFINITY
    data = ResolutionData.from_json(b'{"divisors":[{"a":0,"b":1}]}')
    assert lct_from_resolution(data) == ExtRational(1)


def test_resolution_from_json_errors():
    with pytest.raises(InvalidInputError):
        ResolutionData.from_json("not json {")
    with pytest.raises(InvalidInputError):
        ResolutionData.from_json('{"records": []}')
    with pytest.raises(InvalidInputError):
        ResolutionData.from_json('{"divisors": {"a": 1}}')
    with pytest.raises(InvalidInputError):
        ResolutionData.from_json('{"divisors": [42]}')
    with pytest.raises(InvalidInputError):
        ResolutionData.from_json('{"divisors":[{"a":1,"b":2,"extra":0}]}')
    with pytest.raises(InvalidInputError):
        ResolutionData.from_json('{"divisors":[{"a":1}]}')
    for document in (
        '{"divisors":[{"a":' + "1" * 5000 + ',"b":2}]}',  # past int()'s digit limit
        b"\xff\xfe\xff",  # not UTF-8, UTF-16 or UTF-32
        "[" * 100000,  # nested past the decoder's recursion limit
    ):
        with pytest.raises(InvalidInputError, match="not valid JSON"):
            ResolutionData.from_json(document)


# ---------------------------------------------------------------------------
# monomial classes, golden values


def test_diagonal_two_three():
    assert lct_monomial(Diagonal((2, 3))) == ExtRational("5/6")


def test_principal_monomial():
    assert lct_monomial(PrincipalMonomial((3, 2))) == ExtRational("1/3")


def test_separated_sum_of_squares():
    spec = SeparatedSum(PrincipalMonomial((2,)), PrincipalMonomial((2,)))
    assert lct_monomial(spec) == ExtRational(1)


def test_direct_sum_additivity_golden():
    spec = DirectSum(Diagonal((2,)), Diagonal((3,)))
    assert lct_monomial(spec) == ExtRational("5/6")


def test_monomial_zero_exponents_ignored():
    assert lct_monomial(PrincipalMonomial((0, 4, 0))) == ExtRational("1/4")


def test_spec_invariants():
    with pytest.raises(InvalidInputError):
        PrincipalMonomial((0, 0))
    with pytest.raises(InvalidInputError):
        PrincipalMonomial((2, -1))
    with pytest.raises(InvalidInputError):
        Diagonal(())
    with pytest.raises(InvalidInputError):
        Diagonal((2, 0))
    with pytest.raises(InvalidInputError):
        DirectSum(Diagonal((2,)), "diag:3")
    with pytest.raises(InvalidInputError):
        lct_monomial("mono:2")


# ---------------------------------------------------------------------------
# scalar operations


def test_arnold_golden():
    assert arnold_multiplicity(ExtRational("5/6")) == ExtRational("6/5")
    assert arnold_multiplicity("5/6") == ExtRational("6/5")
    assert arnold_multiplicity(0) == INFINITY
    assert arnold_multiplicity(INFINITY) == ExtRational(0)


def test_arnold_rejects_negative():
    with pytest.raises(InvalidInputError):
        arnold_multiplicity(Fraction(-1, 2))


def test_scale_arnold():
    assert scale_arnold(ExtRational("6/5"), 2) == ExtRational("12/5")
    assert scale_arnold(ExtRational("6/5"), 1) == ExtRational("6/5")
    assert scale_arnold(ExtRational("6/5"), 3) == ExtRational("18/5")
    assert scale_arnold(INFINITY, 2) == INFINITY
    # 0 * inf = 0: zero scaling means the zero function, no pole left
    assert scale_arnold(INFINITY, 0) == ExtRational(0)


def test_scale_arnold_rejects_bad_factor():
    with pytest.raises(InvalidInputError):
        scale_arnold(ExtRational(1), -1)
    with pytest.raises(InvalidInputError):
        scale_arnold(ExtRational(1), "inf")


def test_truncation_gap_bound():
    assert truncation_gap_bound(2, 3) == ExtRational("1/2")
    assert truncation_gap_bound(1, 0) == ExtRational(1)
    with pytest.raises(InvalidInputError):
        truncation_gap_bound(0, 3)
    with pytest.raises(InvalidInputError):
        truncation_gap_bound(2, -1)


def test_truncation_gap_covers_exact_truncation():
    # f = z1^2 z2 has degree 3; truncating at k >= 3 changes nothing,
    # so the actual gap 0 must sit under the bound
    for k in range(3, 8):
        assert ExtRational(0) <= truncation_gap_bound(2, k)


def test_lelong_sandwich():
    assert lelong_sandwich(3, 2) == (ExtRational("3/2"), ExtRational(3))
    assert lelong_sandwich(0, 5) == (ExtRational(0), ExtRational(0))
    with pytest.raises(InvalidInputError):
        lelong_sandwich(-1, 2)
    with pytest.raises(InvalidInputError):
        lelong_sandwich("inf", 2)
    with pytest.raises(InvalidInputError):
        lelong_sandwich(1, 0)


def test_lelong_sandwich_encloses_monomial_multiplicity():
    # z1^2 z2^2: total vanishing order 4, multiplicity 1/lct = 2 in [2, 4]
    lam = arnold_multiplicity(lct_monomial(PrincipalMonomial((2, 2))))
    lo, hi = lelong_sandwich(4, 2)
    assert lo <= lam <= hi


# ---------------------------------------------------------------------------
# text grammar


def test_parse_golden():
    assert parse_spec("mono:3,2") == PrincipalMonomial((3, 2))
    assert parse_spec("diag:2,3") == Diagonal((2, 3))
    assert parse_spec("dsum(diag:2;diag:3)") == DirectSum(Diagonal((2,)), Diagonal((3,)))
    assert parse_spec("ssum(mono:2;mono:2)") == SeparatedSum(
        PrincipalMonomial((2,)), PrincipalMonomial((2,))
    )


def test_parse_nested_and_spaces():
    spec = parse_spec(" ssum( mono:2 ; dsum(diag:2,3; mono:1) ) ")
    assert spec == SeparatedSum(
        PrincipalMonomial((2,)),
        DirectSum(Diagonal((2, 3)), PrincipalMonomial((1,))),
    )


def test_parse_errors():
    for bad in (
        "",
        "poly:2",
        "mono:",
        "mono:2,",
        "diag:2 3",
        "dsum(mono:2)",
        "dsum(mono:2;mono:3",
        "mono:2)extra",
        "mono:-2",
        "mono:\u00b2",  # isdigit, but int() refuses superscripts
        "diag:2,\u00b3",
        "mono:" + "9" * 5000,  # past int()'s digit limit
    ):
        with pytest.raises(InvalidInputError):
            parse_spec(bad)
    with pytest.raises(InvalidInputError):
        parse_spec(42)


def test_parse_accepts_unicode_decimal_digits():
    # int() reads every Unicode decimal digit, as the parser always has
    assert parse_spec("mono:\u0663,\uff12") == PrincipalMonomial((3, 2))
    assert parse_spec("diag:" + "0" * 4000 + "7") == Diagonal((7,))


def test_parse_enforces_spec_invariants():
    with pytest.raises(InvalidInputError):
        parse_spec("diag:0,3")
    with pytest.raises(InvalidInputError):
        parse_spec("mono:0,0")


def test_spec_to_text_round_trip():
    for text in (
        "mono:3,2",
        "diag:2,3",
        "dsum(diag:2;diag:3)",
        "ssum(mono:2;ssum(mono:3;mono:5))",
    ):
        assert spec_to_text(parse_spec(text)) == text


# ---------------------------------------------------------------------------
# algebraic properties

positive_ints = st.integers(min_value=1, max_value=60)
exponent_lists = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=5).filter(
    lambda xs: any(x > 0 for x in xs)
)
order_lists = st.lists(positive_ints, min_size=1, max_size=5)


def monomial_specs():
    return exponent_lists.map(lambda xs: PrincipalMonomial(tuple(xs)))


def diagonal_specs():
    return order_lists.map(lambda xs: Diagonal(tuple(xs)))


def any_specs(depth=2):
    base = st.one_of(monomial_specs(), diagonal_specs())
    if depth == 0:
        return base
    inner = any_specs(depth - 1)
    return st.one_of(
        base,
        st.builds(DirectSum, inner, inner),
        st.builds(SeparatedSum, inner, inner),
    )


@given(any_specs())
def test_spec_text_round_trip(spec):
    parsed = parse_spec(spec_to_text(spec))
    assert parsed == spec
    assert spec_to_text(parsed) == spec_to_text(spec)


@given(monomial_specs(), monomial_specs())
def test_separated_sum_is_subadditive(left, right):
    total = lct_monomial(left) + lct_monomial(right)
    assert lct_monomial(SeparatedSum(left, right)) <= total


@given(any_specs(), any_specs())
def test_direct_sum_adds_exactly(left, right):
    assert lct_monomial(DirectSum(left, right)) == lct_monomial(left) + lct_monomial(right)


@given(order_lists, st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=5))
def test_diagonal_monotone_under_order_increase(orders, bumps):
    # growing any order shrinks the ideal, so the exponent cannot rise
    bumps = (bumps * len(orders))[: len(orders)]
    bigger = [m + b for m, b in zip(orders, bumps)]
    assert lct_monomial(Diagonal(tuple(bigger))) <= lct_monomial(Diagonal(tuple(orders)))


@given(order_lists)
def test_diagonal_capped_by_codimension(orders):
    value = lct_monomial(Diagonal(tuple(orders)))
    assert value <= ExtRational(len(orders))
    if value == ExtRational(len(orders)):
        assert all(m == 1 for m in orders)


@given(any_specs(), any_specs())
def test_separated_sum_capped_at_one(left, right):
    value = lct_monomial(SeparatedSum(left, right))
    assert value <= ExtRational(1)
    assert value == min(ExtRational(1), lct_monomial(left) + lct_monomial(right))


@given(st.fractions(min_value=0, max_value=1000))
def test_reciprocal_is_an_involution(q):
    c = ExtRational(Fraction(q))
    assert arnold_multiplicity(arnold_multiplicity(c)) == c


def test_reciprocal_involution_degenerate():
    assert arnold_multiplicity(arnold_multiplicity(ExtRational(0))) == ExtRational(0)
    assert arnold_multiplicity(arnold_multiplicity(INFINITY)) == INFINITY


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
            st.booleans(),
        ).filter(lambda t: t[0] or t[1]),
        min_size=1,
        max_size=8,
    )
)
def test_resolution_matches_naive_scan(rows):
    data = ResolutionData(tuple(DivisorRecord(a, b, m) for a, b, m in rows))
    naive = [Fraction(a + 1, b) for a, b, m in rows if m and b > 0]
    expected = INFINITY if not naive else ExtRational(min(naive))
    assert lct_from_resolution(data) == expected


@given(positive_ints, positive_ints)
def test_separated_binomial_matches_diagonal_ideal(m, p):
    # c0(z1^m + z2^p) = min(1, c0 of the ideal (z1^m, z2^p)) for every
    # nonzero coefficient pair; this family has no exceptional values
    via_sum = lct_monomial(SeparatedSum(PrincipalMonomial((m,)), PrincipalMonomial((p,))))
    via_ideal = min(ExtRational(1), lct_monomial(Diagonal((m, p))))
    assert via_sum == via_ideal
