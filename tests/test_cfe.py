import itertools
import math
import random
import sys

import pytest

from conftest import random_surd
from cuntzfrac import (
    ParseError,
    PeriodicCFE,
    PQState,
    UnimodularMatrix,
    block_from_json,
    block_prefix,
    block_to_json,
    cfe_expand,
    cfe_periodic,
    cfe_step_matrix,
    format_block,
    gauss_tau,
    in_omega,
    minimal_period_normalize,
    mobius_apply,
    normalize,
    parse_block,
    sigma_shift,
    surd_from_cfe,
    to_pq_form,
)
from cuntzfrac.cfe import _FOLD_LEAF, _fold
from cuntzfrac.surds import DomainError
from cuntzfrac.words import is_primitive


class TestPQForm:
    def test_no_scaling_needed(self):
        assert to_pq_form(normalize(-1, 1, 2, 5)) == PQState(-1, 2, 5)

    def test_scaling(self):
        assert to_pq_form(normalize(-1, 1, 3, 2)) == PQState(-3, 9, 18)

    def test_unit_denominator(self):
        assert to_pq_form(normalize(0, 1, 1, 2)) == PQState(0, 1, 2)

    def test_negative_b(self):
        st = to_pq_form(normalize(3, -1, 2, 5))
        assert (st.D - st.P * st.P) % st.Q == 0

    def test_invariant_on_randoms(self):
        rng = random.Random(5)
        for _ in range(300):
            st = to_pq_form(random_surd(rng))
            assert (st.D - st.P * st.P) % st.Q == 0

    def test_state_validation(self):
        with pytest.raises(ValueError):
            PQState(0, 0, 5)
        with pytest.raises(ValueError):
            PQState(0, 1, 4)
        with pytest.raises(ValueError):
            PQState(1, 3, 5)


class TestExpand:
    def test_golden(self):
        assert cfe_expand(normalize(-1, 1, 2, 5), 5) == (1, 1, 1, 1, 1)

    def test_sqrt2(self):
        assert cfe_expand(normalize(-1, 1, 1, 2), 4) == (2, 2, 2, 2)

    def test_sqrt3(self):
        assert cfe_expand(normalize(-1, 1, 1, 3), 4) == (1, 2, 1, 2)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cfe_expand(normalize(1, 1, 2, 5), 4)

    def test_prefix_consistency(self):
        rng = random.Random(11)
        for _ in range(100):
            x = random_surd(rng)
            long = cfe_expand(x, 30)
            assert cfe_expand(x, 12) == long[:12]
            assert all(a >= 1 for a in long)


class TestPeriodic:
    def test_golden(self):
        assert cfe_periodic(normalize(-1, 1, 2, 5)) == PeriodicCFE((), (1,))

    def test_sqrt13(self):
        assert cfe_periodic(normalize(-3, 1, 2, 13)) == PeriodicCFE((), (3,))

    def test_sqrt3(self):
        assert cfe_periodic(normalize(-1, 1, 1, 3)) == PeriodicCFE((), (1, 2))

    def test_matches_expansion(self):
        rng = random.Random(17)
        for _ in range(150):
            x = random_surd(rng)
            e = cfe_periodic(x)
            assert block_prefix(e, 40) == cfe_expand(x, 40)


class TestNormalizeBlock:
    def test_primitive_root(self):
        assert minimal_period_normalize((), (1, 2, 1, 2)) == PeriodicCFE((), (1, 2))

    def test_full_absorption(self):
        assert minimal_period_normalize((1, 1), (1,)) == PeriodicCFE((), (1,))

    def test_single_step_absorption(self):
        assert minimal_period_normalize((2, 1), (1,)) == PeriodicCFE((2,), (1,))

    def test_rotation_absorption(self):
        assert minimal_period_normalize((1, 2), (1, 2)) == PeriodicCFE((), (1, 2))

    def test_sequence_never_changes(self):
        rng = random.Random(23)
        for _ in range(300):
            initial = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4)))
            period = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
            reps = rng.randint(1, 3)
            e = minimal_period_normalize(initial, period * reps)
            n = len(initial) + 3 * len(period) + 5
            raw = (initial + period * 20)[:n]
            assert block_prefix(e, n) == raw

    def test_constructor_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            PeriodicCFE((), (1, 2, 1, 2))
        with pytest.raises(ValueError):
            PeriodicCFE((1,), (1,))
        with pytest.raises(ValueError):
            PeriodicCFE((), ())
        with pytest.raises(ValueError):
            PeriodicCFE((), (0,))


class TestSurdFromCFE:
    def test_golden(self):
        assert surd_from_cfe(PeriodicCFE((), (1,))) == normalize(-1, 1, 2, 5)

    def test_single_letter_family(self):
        for k in range(1, 8):
            assert surd_from_cfe(PeriodicCFE((), (k,))) == normalize(-k, 1, 2, k * k + 4)
        assert surd_from_cfe(PeriodicCFE((), (2,))) == normalize(-2, 1, 2, 8)

    def test_three_letter_block(self):
        assert surd_from_cfe(PeriodicCFE((), (1, 2, 3))) == normalize(-4, 1, 3, 37)

    def test_round_trip_small_blocks(self):
        initials = [()] + [(i,) for i in range(1, 6)] + [(2, 1), (3, 2), (1, 3)]
        for k in range(1, 4):
            for period in itertools.product(range(1, 6), repeat=k):
                if not is_primitive(period):
                    continue
                for initial in initials:
                    if initial and initial[-1] == period[-1]:
                        continue
                    e = PeriodicCFE(initial, period)
                    assert cfe_periodic(surd_from_cfe(e)) == e

    def test_round_trip_from_pq_window(self):
        # every state (P + sqrt(D))/Q in (0, 1) with P, Q in the window around
        # sqrt(D), for every non-square D up to 2000
        count = 0
        for d in range(2, 2001):
            r = math.isqrt(d)
            if r * r == d:
                continue
            for p in range(-r - 1, r + 1):
                num = d - p * p
                for q in range(-2 * r - 1, 2 * r + 2):
                    if q == 0 or num % q:
                        continue
                    x = normalize(p, 1, q, d)
                    if not in_omega(x):
                        continue
                    assert surd_from_cfe(cfe_periodic(x)) == x
                    count += 1
        assert count > 100_000


class TestSigmaShift:
    def test_drops_initial(self):
        assert sigma_shift(PeriodicCFE((5,), (1,))) == PeriodicCFE((), (1,))

    def test_rotates_period(self):
        assert sigma_shift(PeriodicCFE((), (1, 2))) == PeriodicCFE((), (2, 1))

    def test_fixed_point(self):
        assert sigma_shift(PeriodicCFE((), (1,))) == PeriodicCFE((), (1,))

    def test_conjugates_gauss_map(self):
        rng = random.Random(31)
        for _ in range(100):
            x = random_surd(rng)
            assert cfe_periodic(gauss_tau(x)) == sigma_shift(cfe_periodic(x))

    def test_prepend_conjugacy(self):
        rng = random.Random(37)
        for _ in range(100):
            x = random_surd(rng)
            i = rng.randint(1, 7)
            img = mobius_apply(cfe_step_matrix(i), x)
            assert cfe_expand(img, 21) == (i,) + cfe_expand(x, 20)


class TestBlockText:
    def test_format(self):
        assert format_block(PeriodicCFE((), (1, 2, 3))) == "(1,2,3)"
        assert format_block(PeriodicCFE((2, 1), (3, 1, 4))) == "2,1,(3,1,4)"

    def test_parse(self):
        assert parse_block("(1,2,3)") == PeriodicCFE((), (1, 2, 3))
        assert parse_block("2,1,(3,1,4)") == PeriodicCFE((2, 1), (3, 1, 4))

    def test_parse_canonicalizes(self):
        assert parse_block("(2,2)") == PeriodicCFE((), (2,))
        assert parse_block("1,(1)") == PeriodicCFE((), (1,))

    @pytest.mark.parametrize("bad", ["", "1,2,3", "()", "(1,2", "(1,0)", "(a)"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_block(bad)

    def test_json_round_trip(self):
        e = PeriodicCFE((2,), (3, 1))
        obj = block_to_json(e)
        assert obj == {"initial": [2], "period": [3, 1]}
        assert block_from_json(obj) == e


# ---------------------------------------------------------------------------
# oracles: the expansion core as it was before the reduced-state loop and the
# product tree, kept here so the faster code is checked against it


def _seen_dict_periodic(x):
    """Stop at the first repeated (P, Q) state, then canonicalize the block."""
    st = to_pq_form(x)
    p, q, d = -st.P, (st.D - st.P * st.P) // st.Q, st.D
    sd = math.isqrt(d)
    seen = {}
    quotients = []
    while (p, q) not in seen:
        seen[(p, q)] = len(quotients)
        a = (p + sd) // q if q > 0 else (-p - sd - 1) // -q
        quotients.append(a)
        p = a * q - p
        q = (d - p * p) // q
    start = seen[(p, q)]
    return minimal_period_normalize(tuple(quotients[:start]), tuple(quotients[start:]))


def _sequential_fold(w):
    p, q, r, s = 1, 0, 0, 1
    for a in w:
        p, q, r, s = q, p + q * a, s, r + s * a
    return p, q, r, s


def _sequential_surd_from_cfe(e):
    p, q, r, s = _sequential_fold(e.period)
    g = math.gcd(r, s - p, q)
    rr, bb, qq = r // g, (s - p) // g, q // g
    disc = bb * bb + 4 * rr * qq
    y = normalize(-bb, 1, 2 * rr, disc)
    if not in_omega(y):
        y = normalize(-bb, -1, 2 * rr, disc)
    if e.initial:
        m = UnimodularMatrix.identity()
        for a in e.initial:
            m = m @ cfe_step_matrix(a)
        y = mobius_apply(m, y)
    return y


def _needs_scaling(x):
    # to_pq_form must scale when Q does not divide D - P*P as read off x
    p, q = (x.a, x.c) if x.b > 0 else (-x.a, -x.c)
    return (x.b * x.b * x.d - p * p) % q != 0


FOLD_LENGTHS = (1, _FOLD_LEAF - 1, _FOLD_LEAF, _FOLD_LEAF + 1, 2 * _FOLD_LEAF + 1, 1000)


class TestCoreOracles:
    def test_random_surds_match_old_core(self):
        rng = random.Random(41)
        negative_b = scaled = 0
        for i in range(600):
            x = random_surd(rng, max_d=150 if i % 3 else 10**5)
            negative_b += x.b < 0
            scaled += _needs_scaling(x)
            e = cfe_periodic(x)
            assert e == _seen_dict_periodic(x)
            # built without validation, so check that the output is canonical
            assert minimal_period_normalize(e.initial, e.period) == e
            assert PeriodicCFE(e.initial, e.period) == e
            y = surd_from_cfe(e)
            assert y == _sequential_surd_from_cfe(e) == x
        assert negative_b > 100 and scaled > 100

    @pytest.mark.parametrize("n", FOLD_LENGTHS)
    def test_tree_fold_matches_sequential(self, n):
        rng = random.Random(n)
        w = tuple(rng.randint(1, 10**6) for _ in range(n))
        assert _fold(w, 0, n) == _sequential_fold(w)

    @pytest.mark.parametrize("n", FOLD_LENGTHS)
    def test_initial_block_tree(self, n):
        # long initial blocks of large entries in front of a short period
        rng = random.Random(1000 + n)
        initial = tuple(rng.randint(1, 10**6) for _ in range(n))
        period = (1, 2) if initial[-1] == 2 else (2,)
        e = PeriodicCFE(initial, period)
        x = surd_from_cfe(e)
        assert x == _sequential_surd_from_cfe(e)
        assert cfe_periodic(x) == e == _seen_dict_periodic(x)

    def test_long_period_matches_old_core(self):
        # sqrt(1000024) has a period of 1166 quotients: several levels of tree
        d = 1_000_024
        x = normalize(-math.isqrt(d), 1, 1, d)
        e = cfe_periodic(x)
        assert len(e.period) > 2 * _FOLD_LEAF + 1
        assert e == _seen_dict_periodic(x)
        assert surd_from_cfe(e) == _sequential_surd_from_cfe(e) == x
        shifted = minimal_period_normalize((3, 1, 4), e.period)
        assert surd_from_cfe(shifted) == _sequential_surd_from_cfe(shifted)
        assert cfe_periodic(surd_from_cfe(shifted)) == shifted


class TestSympyOracle:
    def test_matches_sympy(self):
        ntheory = pytest.importorskip("sympy.ntheory")
        rng = random.Random(47)
        for _ in range(25):  # sympy spends milliseconds per quotient
            x = random_surd(rng)
            sign = 1 if x.b > 0 else -1
            got = ntheory.continued_fraction_periodic(x.a, x.c, x.b * x.b * x.d, sign)
            *head, period = got
            assert head[0] == 0  # x lies in (0, 1)
            want = minimal_period_normalize(tuple(map(int, head[1:])), tuple(map(int, period)))
            assert cfe_periodic(x) == want


class TestHugeCoefficients:
    # coefficients and quotients far beyond CPython's default limit of 4,300
    # digits for int <-> str conversion

    def test_block_text_and_json(self):
        big_text = "1" + "0" * 9_999 + "7"  # 10**10_000 + 7
        e = PeriodicCFE((10**10_000 + 7, 3), (1,))
        text = f"{big_text},3,(1)"
        assert format_block(e) == str(e) == text
        assert parse_block(text) == e
        assert block_from_json({"initial": [big_text, "3"], "period": ["1"]}) == e

    def test_long_initial_block_round_trip(self):
        e = parse_block("9," * 5000 + "(1)")
        x = surd_from_cfe(e)
        assert x.a.bit_length() > 30_000  # over 9,000 decimal digits
        assert cfe_periodic(x) == e
        assert cfe_expand(x, 5002) == block_prefix(e, 5002)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int<->str limit")
    def test_limit_is_restored(self):
        before = sys.get_int_max_str_digits()
        format_block(PeriodicCFE((10**5000,), (1,)))
        assert sys.get_int_max_str_digits() == before
        with pytest.raises(ParseError):
            parse_block("(" + "1" * 5000 + ",0)")
        assert sys.get_int_max_str_digits() == before
