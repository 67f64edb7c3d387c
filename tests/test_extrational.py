"""Extended-rational value type: order, conventions, arithmetic."""

from fractions import Fraction

import pytest

from lctkit import ExtRational, INFINITY
from lctkit.errors import InvalidInputError, exact_text


def test_construction_variants():
    assert ExtRational(3).as_fraction() == 3
    assert ExtRational(Fraction(5, 6)).as_fraction() == Fraction(5, 6)
    assert ExtRational("5/6").as_fraction() == Fraction(5, 6)
    assert ExtRational("7").as_fraction() == 7
    assert ExtRational(ExtRational(2)).as_fraction() == 2
    assert not ExtRational("inf").is_finite
    assert ExtRational() == ExtRational(0)


def test_infinity_tokens():
    for token in ("inf", "Inf", "INF", "infinity", "+inf", "oo"):
        assert ExtRational(token).is_infinite


def test_rejects_junk():
    with pytest.raises(InvalidInputError):
        ExtRational("five sixths")
    with pytest.raises(InvalidInputError):
        ExtRational(1.5)  # floats are ambiguous; must be explicit
    with pytest.raises(InvalidInputError):
        ExtRational(None)


def test_as_fraction_on_infinity():
    with pytest.raises(InvalidInputError):
        INFINITY.as_fraction()
    with pytest.raises(InvalidInputError):
        INFINITY.numerator


def test_total_order():
    vals = [ExtRational(0), ExtRational("1/3"), ExtRational(1), INFINITY]
    assert vals == sorted(vals)
    assert INFINITY > ExtRational(10**100)
    assert not INFINITY < INFINITY
    assert INFINITY <= INFINITY
    assert INFINITY == ExtRational.infinity()


def test_comparison_with_plain_numbers():
    assert ExtRational("1/2") < Fraction(2, 3)
    assert ExtRational(2) >= 2
    assert ExtRational("1/2") == Fraction(1, 2)


def test_reciprocal_conventions():
    # 1/0 = inf and 1/inf = 0, the degenerate exponent conventions
    assert ExtRational(0).reciprocal() == INFINITY
    assert INFINITY.reciprocal() == ExtRational(0)
    assert ExtRational("2/3").reciprocal() == ExtRational("3/2")
    with pytest.raises(InvalidInputError):
        ExtRational(-1).reciprocal()


def test_addition():
    assert ExtRational("1/2") + ExtRational("1/3") == ExtRational("5/6")
    assert ExtRational("1/2") + Fraction(1, 3) == ExtRational("5/6")
    assert INFINITY + ExtRational(5) == INFINITY
    assert ExtRational(5) + INFINITY == INFINITY
    assert INFINITY + INFINITY == INFINITY


def test_multiplication():
    assert ExtRational("2/3") * ExtRational("3/4") == ExtRational("1/2")
    assert ExtRational(2) * INFINITY == INFINITY
    assert INFINITY * ExtRational("1/7") == INFINITY
    # the 0*inf = 0 convention (zero scaling kills the pole)
    assert ExtRational(0) * INFINITY == ExtRational(0)
    assert INFINITY * ExtRational(0) == ExtRational(0)
    with pytest.raises(InvalidInputError):
        ExtRational(-2) * INFINITY


def test_hash_matches_equality():
    assert hash(ExtRational("2/4")) == hash(ExtRational("1/2"))
    d = {ExtRational("1/2"): "half", INFINITY: "inf"}
    assert d[ExtRational(Fraction(1, 2))] == "half"
    assert d[ExtRational.infinity()] == "inf"


def test_float_and_str():
    assert float(ExtRational("1/4")) == 0.25
    assert float(INFINITY) == float("inf")
    assert str(ExtRational("5/6")) == "5/6"
    assert str(ExtRational(3)) == "3"
    assert str(INFINITY) == "inf"


def test_str_of_a_value_too_long_to_print_names_its_size():
    # Python writes an int of at most 4300 digits as text
    cases = [
        (ExtRational(Fraction(1, 10**4300)), "a fraction of 14285 bits"),
        (ExtRational(-(10**4300)), "a negative integer of 14285 bits"),
    ]
    for value, size in cases:
        with pytest.raises(InvalidInputError, match=f"^{size} is too long to print$"):
            str(value)
    assert exact_text(10**4299) == "1" + "0" * 4299
    with pytest.raises(InvalidInputError, match="^an integer of 14285 bits is too long"):
        exact_text(10**4300)


def test_immutable():
    v = ExtRational(1)
    with pytest.raises(AttributeError):
        v._value = Fraction(2)
