from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chargedfock.scalar import (
    GaussianRational,
    decimal_str,
    make_context,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_mode_validation():
    make_context("exact-rational")
    make_context("exact-gaussian")
    make_context("float", tolerance=1e-12)
    with pytest.raises(ValueError):
        make_context("exact-rational", tolerance=1e-12)
    with pytest.raises(ValueError):
        make_context("float")
    with pytest.raises(ValueError):
        make_context("double")


def test_parse_rationals_and_irrational_tokens():
    exact = make_context("exact-rational")
    assert exact.parse("3/4") == Fraction(3, 4)
    assert exact.parse("-2") == Fraction(-2)
    assert exact.parse("0.125") == Fraction(1, 8)
    with pytest.raises(ValueError):
        exact.parse("1/sqrt2")
    fl = make_context("float", tolerance=1e-12)
    assert fl.parse("1/sqrt2") == pytest.approx(2.0 ** -0.5)
    assert fl.parse("3/4") == 0.75


def test_imaginary_unit_requires_gaussian_or_float():
    with pytest.raises(ValueError):
        make_context("exact-rational").imaginary_unit()
    i = make_context("exact-gaussian").imaginary_unit()
    assert i * i == -1
    assert make_context("float", tolerance=1e-12).imaginary_unit() == 1j


@given(gaussians, gaussians)
def test_gaussian_ring_ops(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == 0
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(rationals, gaussians)
def test_gaussian_mixes_with_fractions(q, a):
    assert q + a == GaussianRational(q) + a
    assert q * a == GaussianRational(q) * a
    assert (q - a) + a == q


def test_json_re_im_formats():
    exact = make_context("exact-gaussian")
    assert exact.json_re_im(GaussianRational(Fraction(1, 3), -2)) == ("1/3", "-2")
    assert exact.json_re_im(Fraction(5, 2)) == ("5/2", "0")
    fl = make_context("float", tolerance=1e-12)
    assert fl.json_re_im(1.5 - 0.25j) == (1.5, -0.25)


def test_decimal_str_30_digits():
    s = decimal_str(Fraction(1, 3))
    assert s == "0.333333333333333333333333333333"
    assert decimal_str(Fraction(2)) == "2"
    assert decimal_str(0.5) == "0.5"


def test_is_zero_tolerance():
    fl = make_context("float", tolerance=1e-9)
    assert fl.is_zero(5e-10)
    assert not fl.is_zero(5e-9)
    exact = make_context("exact-rational")
    assert exact.is_zero(Fraction(0))
    assert not exact.is_zero(Fraction(1, 10**40))
