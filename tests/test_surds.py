import math
import random
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_surd, random_unimodular
from cuntzfrac import (
    NotIrrational,
    ParseError,
    QuadraticSurd,
    UnimodularMatrix,
    ZeroDenominator,
    approx_decimal,
    cmp_int,
    field_discriminant,
    floor_of,
    format_surd,
    gauss_tau,
    in_omega,
    mobius_apply,
    normalize,
    parse_surd,
    poly_discriminant,
    squarefree_split,
    surd_from_json,
    surd_to_json,
)
from cuntzfrac.surds import DomainError


class TestNormalize:
    def test_gcd_cancellation(self):
        assert normalize(2, 2, 4, 5) == QuadraticSurd(1, 1, 2, 5)

    def test_square_extraction(self):
        assert normalize(0, 1, 1, 8) == QuadraticSurd(0, 2, 1, 2)

    def test_square_radicand_is_rational(self):
        with pytest.raises(NotIrrational):
            normalize(1, 1, 1, 9)

    def test_zero_b_is_rational(self):
        with pytest.raises(NotIrrational):
            normalize(3, 0, 2, 5)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            normalize(1, 1, 0, 5)

    def test_negative_denominator_sign_fix(self):
        assert normalize(1, 1, -2, 5) == QuadraticSurd(-1, -1, 2, 5)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(-50, 50),
        b=st.integers(-9, 9).filter(lambda n: n != 0),
        c=st.integers(1, 30),
        d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 15, 19, 21, 37]),
        common=st.integers(1, 12),
        square=st.integers(1, 6),
    )
    def test_canonicity_under_inflation(self, a, b, c, d, common, square):
        base = normalize(a, b, c, d)
        assert normalize(a * common, b * common, c * common, d) == base
        # sqrt(d * s^2) = s * sqrt(d): same value, different presentation
        assert normalize(a, b, c, d * square * square) == normalize(a, b * square, c, d)
        assert normalize(base.a, base.b, base.c, base.d) == base


class TestSquarefreeSplit:
    @pytest.mark.parametrize("n,expect", [(1, (1, 1)), (8, (2, 2)), (9, (3, 1)),
                                          (148, (2, 37)), (360, (6, 10))])
    def test_known(self, n, expect):
        assert squarefree_split(n) == expect

    def test_large_semiprime_square(self):
        # p^2 * q with both primes beyond the trial-division window
        p, q = 1009, 1013
        assert squarefree_split(p * p * q) == (p, q)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10 ** 7))
    def test_reconstruction_and_squarefreeness(self, n):
        s, f = squarefree_split(n)
        assert s * s * f == n
        for p in range(2, 40):
            assert f % (p * p) != 0


class TestFloor:
    def test_examples(self):
        assert floor_of(normalize(-1, 1, 2, 5)) == 0
        assert floor_of(normalize(1, 1, 2, 5)) == 1
        assert floor_of(normalize(0, 1, 1, 2)) == 1

    def test_negative_values(self):
        assert floor_of(normalize(0, -1, 1, 2)) == -2
        assert floor_of(normalize(-1, -1, 2, 5)) == -2

    def test_against_interval_oracle(self):
        import mpmath
        from mpmath import iv

        iv.prec = 400
        rng = random.Random(20240811)
        for _ in range(10_000):
            d = rng.randint(2, 10_000)
            if math.isqrt(d) ** 2 == d:
                continue
            a = rng.randint(-10 ** 6, 10 ** 6)
            b = rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)
            c = rng.randint(1, 10 ** 6)
            try:
                x = normalize(a, b, c, d)
            except NotIrrational:
                continue
            val = (iv.mpf(x.a) + iv.mpf(x.b) * iv.sqrt(x.d)) / iv.mpf(x.c)
            lo = int(mpmath.floor(val.a))
            hi = int(mpmath.floor(val.b))
            assert lo == hi, "interval too wide to certify the floor"
            assert floor_of(x) == lo


class TestGaussTau:
    def test_golden_fixed_point(self):
        x = normalize(-1, 1, 2, 5)
        assert gauss_tau(x) == x

    def test_sqrt3(self):
        assert gauss_tau(normalize(-1, 1, 1, 3)) == normalize(-1, 1, 2, 3)

    def test_domain_error_outside_unit_interval(self):
        with pytest.raises(DomainError):
            gauss_tau(normalize(1, 1, 2, 5))

    def test_image_stays_in_omega(self):
        rng = random.Random(7)
        for _ in range(300):
            x = random_surd(rng)
            assert in_omega(gauss_tau(x))


class TestMobius:
    def test_determinant_guard(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(1, 0, 0, 2)
        assert UnimodularMatrix(0, 1, 1, 0).det == -1
        assert UnimodularMatrix(2, 1, 1, 1).det == 1

    def test_inverse_composes_to_identity(self):
        m = UnimodularMatrix(2, 1, 1, 1) @ UnimodularMatrix(0, 1, 1, 0)
        assert m @ m.inverse() == UnimodularMatrix.identity()
        assert m.inverse() @ m == UnimodularMatrix.identity()

    def test_identity(self):
        x = normalize(-3, 2, 7, 6)
        assert mobius_apply(UnimodularMatrix.identity(), x) == x

    def test_translation(self):
        m = UnimodularMatrix(1, -1, 0, 1)
        assert mobius_apply(m, normalize(1, 1, 2, 5)) == normalize(-1, 1, 2, 5)

    def test_reciprocal_shift_fixed_point(self):
        m = UnimodularMatrix(0, 1, 1, 1)
        x = normalize(-1, 1, 2, 5)
        assert mobius_apply(m, x) == x

    def test_inverse_round_trip(self):
        rng = random.Random(99)
        for _ in range(300):
            x = random_surd(rng)
            m = random_unimodular(rng)
            assert mobius_apply(m.inverse(), mobius_apply(m, x)) == x

    def test_radicand_class_preserved(self):
        rng = random.Random(100)
        for _ in range(200):
            x = random_surd(rng)
            m = random_unimodular(rng)
            y = mobius_apply(m, x)
            assert y.d == x.d
            assert field_discriminant(y) == field_discriminant(x)


class TestDiscriminants:
    @pytest.mark.parametrize(
        "surd,expect",
        [((-1, 1, 2, 5), 5), ((-1, 1, 1, 2), 8), ((-4, 1, 3, 37), 148)],
    )
    def test_poly(self, surd, expect):
        assert poly_discriminant(normalize(*surd)) == expect

    @pytest.mark.parametrize(
        "surd,expect",
        [((-5, 1, 2, 37), 37), ((-1, 1, 2, 5), 5), ((-1, 1, 1, 2), 8)],
    )
    def test_field(self, surd, expect):
        assert field_discriminant(normalize(*surd)) == expect


class TestOrdering:
    def test_cmp_int(self):
        x = normalize(-1, 1, 2, 5)
        assert cmp_int(x, 0) > 0
        assert cmp_int(x, 1) < 0
        assert in_omega(x)
        assert not in_omega(normalize(1, 1, 2, 5))


class TestTextForms:
    def test_format_example(self):
        assert format_surd(normalize(-1, 1, 2, 5)) == "(-1+1*sqrt(5))/2"
        assert format_surd(normalize(3, -1, 2, 5)) == "(3-1*sqrt(5))/2"

    def test_parse_round_trip(self):
        rng = random.Random(55)
        for _ in range(200):
            x = random_surd(rng)
            assert parse_surd(format_surd(x)) == x

    def test_parse_with_whitespace(self):
        assert parse_surd(" ( -1 + 1 * sqrt( 5 ) ) / 2 ") == normalize(-1, 1, 2, 5)

    @pytest.mark.parametrize("bad", ["", "1+sqrt(5)", "(1+1*sqrt(5))", "(1+1*sqrt(5))/0x2",
                                     "(1+1*sqrt(-5))/2", "sqrt(5)/2"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_surd(bad)

    def test_json_round_trip(self):
        x = normalize(-4, 1, 3, 37)
        obj = surd_to_json(x)
        assert obj == {"a": "-4", "b": "1", "c": "3", "d": "37"}
        assert surd_from_json(obj) == x


class TestApproxDecimal:
    def test_golden_digits(self):
        x = normalize(-1, 1, 2, 5)
        assert approx_decimal(x, 10) == "0.6180339887"

    def test_negative_value(self):
        x = normalize(0, -1, 2, 2)  # -sqrt(2)/2 = -0.7071...
        assert approx_decimal(x, 4) == "-0.7072"  # truncated toward -inf

    def test_zero_digits(self):
        assert approx_decimal(normalize(0, 1, 1, 2), 0) == "1"


# coefficients of 10^4 digits, beyond CPython's default int <-> str limit
BIG_A = "1" + "0" * 9_999 + "7"  # 10**10_000 + 7
BIG_C = "2" + "0" * 9_999 + "1"  # 2 * 10**10_000 + 1


class TestHugeCoefficients:
    def _big(self):
        return normalize(10**10_000 + 7, 3, 2 * 10**10_000 + 1, 5)

    def test_parse_and_format(self):
        text = f"({BIG_A}+3*sqrt(5))/{BIG_C}"
        assert format_surd(self._big()) == str(self._big()) == text
        assert parse_surd(text) == self._big()

    def test_json(self):
        obj = {"a": BIG_A, "b": "3", "c": BIG_C, "d": "5"}
        assert surd_to_json(self._big()) == obj
        assert surd_from_json(obj) == self._big()

    def test_approx(self):
        # the value exceeds 1/2 by about 6.6 * 10**-10_000
        assert approx_decimal(self._big(), 40) == "0.5" + "0" * 39
        assert approx_decimal(self._big(), 10_001) == "0.5" + "0" * 9_998 + "66"

    def test_approx_many_digits(self):
        with localcontext() as ctx:
            ctx.prec = 5_010
            want = str((Decimal(5).sqrt() - 1) / 2)[: 2 + 5_000]
        assert approx_decimal(normalize(-1, 1, 2, 5), 5_000) == want

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str limit")
    def test_limit_is_restored(self):
        before = sys.get_int_max_str_digits()
        format_surd(self._big())
        approx_decimal(self._big(), 5_000)
        with pytest.raises(ParseError):
            parse_surd(f"({BIG_A}+3*sqrt(5)/{BIG_C}")
        assert sys.get_int_max_str_digits() == before
