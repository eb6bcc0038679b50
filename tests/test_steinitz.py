"""Exponent-calculus and Steinitz-class tests."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import steinitzcalc as sc
from steinitzcalc.errors import InadmissibleError

K23 = sc.QuadField(-23)


def test_l_part():
    assert sc.l_part(45, 3) == 9
    assert sc.l_part(45, 5) == 5
    assert sc.l_part(45, 2) == 1


def test_discriminant_exponent():
    assert sc.discriminant_exponent(1, 15) == 0
    assert sc.discriminant_exponent(3, 3) == 2
    assert sc.discriminant_exponent(5, 15) == 12
    with pytest.raises(InadmissibleError):
        sc.discriminant_exponent(4, 15)


def test_discriminant_exponent_even_for_odd_degree():
    for n in range(1, 2001, 2):
        for e in range(1, n + 1):
            if n % e == 0:
                assert sc.discriminant_exponent(e, n) % 2 == 0


def test_ramification_datum_tameness():
    sc.RamificationDatum(2, 3)
    with pytest.raises(InadmissibleError):
        sc.RamificationDatum(3, 3)  # wild
    with pytest.raises(InadmissibleError):
        sc.RamificationDatum(5, 1)  # e < 2


def test_steinitz_from_ramification_examples():
    assert sc.steinitz_from_ramification(K23, [], 3).is_principal
    cls = sc.steinitz_from_ramification(K23, [sc.RamificationDatum(2, 3)], 3)
    assert cls.form == sc.QuadForm(2, 1, 3)
    both = sc.steinitz_from_ramification(
        K23,
        [sc.RamificationDatum(2, 3), sc.RamificationDatum(2, 3, conjugate=True)],
        3,
    )
    assert both.is_principal


def test_steinitz_from_ramification_guards():
    with pytest.raises(InadmissibleError):
        sc.steinitz_from_ramification(K23, [], 4)  # even degree without the flag
    for n in (-3, -1, 0):
        for ram in ([], [sc.RamificationDatum(2, 3)]):
            for flag in (False, True):
                with pytest.raises(InadmissibleError, match="< 1"):
                    sc.steinitz_from_ramification(K23, ram, n, two_sylow_noncyclic=flag)
        with pytest.raises(InadmissibleError):
            sc.discriminant_exponent(3, 3 * n)
    with pytest.raises(InadmissibleError):
        sc.steinitz_from_ramification(K23, [sc.RamificationDatum(5, 3)], 3)  # inert


def test_steinitz_multiplicative():
    r1 = [sc.RamificationDatum(2, 3)]
    r2 = [sc.RamificationDatum(3, 5)]
    a = sc.steinitz_from_ramification(K23, r1, 15)
    b = sc.steinitz_from_ramification(K23, r2, 15)
    ab = sc.steinitz_from_ramification(K23, r1 + r2, 15)
    assert ab == a * b


def test_exponent_gcd_examples():
    assert sc.exponent_gcd(3, 3) == (2, True)
    assert sc.exponent_gcd(15, 15) == (2, True)
    assert sc.exponent_gcd(21, 42) == (4, True)
    with pytest.raises(InadmissibleError):
        sc.exponent_gcd(4, 6)


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=2, max_value=3000), st.integers(min_value=1, max_value=12))
def test_exponent_gcd_always_divides(e, mult):
    m = e * mult
    g, divides = sc.exponent_gcd(e, m)
    assert divides
    assert sc.discriminant_exponent(e, m) % g == 0


def test_alphas_l_examples():
    assert sc.alphas_l(3, 3, 3) == (2, 2, 3)
    assert sc.alphas_l(5, 5, 5) == (4, 4, 6)
    assert sc.alphas_l(3, 9, 9) == (6, 8, 3)
    with pytest.raises(InadmissibleError):
        sc.alphas_l(3, 6, 9)  # o(tau) not a power of 3
    with pytest.raises(InadmissibleError):
        sc.alphas_l(2, 4, 8)  # even


def test_beta_l_examples():
    assert sc.beta_l(3, 3, 3) == 1
    assert sc.beta_l(5, 5, 5) == 2
    assert sc.beta_l(3, 9, 27) == 3
    assert gcd(gcd(18, 24), 9) == 3  # the three-term value at (3, 9, 27)


def test_beta_divides_w_exponent():
    for l in (3, 5, 7, 11, 13):
        o = l
        while o <= 400:
            for n in range(o, 4001, 2 * o):
                assert sc.w_exponent(l, o, 1, n) % sc.beta_l(l, o, n) == 0
            o *= l


def test_w_exponent_examples():
    assert sc.w_exponent(3, 3, 2, 3) == 2
    assert sc.w_exponent(3, 3, 1, 3) == 1
    assert sc.w_exponent(7, 7, 3, 7) == 9
    with pytest.raises(InadmissibleError):
        sc.w_exponent(2, 2, 1, 4)


@pytest.mark.parametrize("m, n", [(-2, 9), (0, 9), (1, -9), (1, 0)])
def test_w_exponent_rejects_degrees_below_one(m, n):
    with pytest.raises(InadmissibleError, match="m, n >= 1"):
        sc.w_exponent(3, 3, m, n)


def test_membership_exponents_examples():
    assert sc.membership_exponents(3, 6) == [(3, 4, 2)]
    assert sc.membership_exponents(15, 15) == [(3, 10, 5), (5, 12, 6)]
    assert sc.membership_exponents(1, 10) == []
    assert sc.membership_exponents(2, 6) == [(2, 3, None)]
    with pytest.raises(InadmissibleError):
        sc.membership_exponents(4, 6)
