import itertools
import math
import os
import pickle
import random
import re
import subprocess
import sys

import pytest

from conftest import fresh, random_surd
import cuntzfrac
from cuntzfrac import (
    ParseError,
    PeriodicCFE,
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
)
from cuntzfrac import cfe
from cuntzfrac.cfe import _FOLD_LEAF, _FOLD_MOD, _GUESS_FROM, _fold
from cuntzfrac.surds import DomainError, _floor_pq
from cuntzfrac.words import canonical_rotation, is_primitive


class TestReciprocalState:
    # (P, Q, Q_prev, D) of 1/x: Q_prev * Q = D - P*P and x = (-P + sqrt(D))/Q_prev
    def test_no_scaling_needed(self):
        assert cfe._reciprocal_state(normalize(-1, 1, 2, 5)) == (1, 2, 2, 5)
        assert cfe._reciprocal_state(normalize(0, 1, 1, 2)) == (0, 2, 1, 2)

    def test_scaling(self):
        # (-1+sqrt(2))/3 = (-3+sqrt(18))/9, whose 1/x is 3 + sqrt(18)
        assert cfe._reciprocal_state(normalize(-1, 1, 3, 2)) == (3, 1, 9, 18)

    def test_invariant_on_randoms(self):
        rng = random.Random(5)
        xs = [normalize(3, -1, 2, 5)] + [random_surd(rng) for _ in range(300)]
        for x in xs:
            p, q, q_prev, d = cfe._reciprocal_state(x)
            assert q_prev * q == d - p * p
            assert normalize(-p, 1, q_prev, d) == x


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

    @pytest.mark.parametrize(
        "initial, period, message",
        [
            ((), (), "period must be nonempty"),
            ((0,), (1,), "partial quotients must be integers >= 1"),
            ((1,), (2.0,), "partial quotients must be integers >= 1"),
        ],
    )
    def test_normalize_still_validates(self, initial, period, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            minimal_period_normalize(initial, period)

    def test_prefix_needs_n_at_least_0(self):
        e = PeriodicCFE((1, 2), (3,))
        assert block_prefix(e, 0) == ()
        with pytest.raises(ValueError, match="need n >= 0"):
            block_prefix(e, -1)

    def test_whole_period_folds_in_linear_time(self):
        # an initial block equal to the period folds in completely; one
        # rotation instead of one per symbol keeps this far inside the timeout
        code = (
            "import random\n"
            "from cuntzfrac import PeriodicCFE, minimal_period_normalize, parse_block\n"
            "rng = random.Random(89)\n"
            "w = tuple(rng.randint(1, 9) for _ in range(200_000))\n"
            "t = ','.join(map(str, w))\n"
            "assert str(parse_block(f'{t},({t})')) == f'({t})'\n"
            "assert minimal_period_normalize(w, w) == PeriodicCFE((), w)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cuntzfrac.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr

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

    @pytest.mark.parametrize("guess_from", [_GUESS_FROM, 0])
    def test_root_is_stored_as_normalize_stores_it(self, monkeypatch, guess_from):
        # the root of a purely periodic block is built without normalize; its
        # stored fields are those normalize(-bb, 1, 2*rr, disc) gives
        monkeypatch.setattr(cfe, "_GUESS_FROM", guess_from)
        rng = random.Random(71)
        for _ in range(200):
            raw = [rng.randint(1, 12) for _ in range(rng.randint(1, 12))]
            period = minimal_period_normalize((), raw).period
            p, q, r, s = _fold(period, 0, len(period))
            g = math.gcd(r, s - p, q)
            rr, bb, qq = r // g, (s - p) // g, q // g
            want = normalize(-bb, 1, 2 * rr, bb * bb + 4 * rr * qq)
            y = surd_from_cfe(PeriodicCFE((), period))
            assert (y._a, y._b, y._c, y._d) == (want._a, want._b, want._c, want._d)
            assert cfe_periodic(fresh(y)) == PeriodicCFE((), period)

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
                    assert cfe_periodic(fresh(surd_from_cfe(e))) == e

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


class TestStoredExpansion:
    @staticmethod
    def _walks(monkeypatch):
        # every walk of cfe_periodic starts by reading the reciprocal state
        walked = []
        state = cfe._reciprocal_state

        def spy(x):
            walked.append(x)
            return state(x)

        monkeypatch.setattr(cfe, "_reciprocal_state", spy)
        return walked

    @pytest.mark.parametrize("guess_from", [_GUESS_FROM, 0], ids=["exact-fold", "certified-guess"])
    def test_solved_surd_is_never_walked(self, monkeypatch, guess_from):
        monkeypatch.setattr(cfe, "_GUESS_FROM", guess_from)
        walked = self._walks(monkeypatch)
        for e in (PeriodicCFE((), (1, 2, 3)), PeriodicCFE((9, 2), (1,)), PeriodicCFE((5,), (1, 1024, 2))):
            x = surd_from_cfe(e)
            assert cfe_periodic(x) is e
            assert cuntzfrac.omega_class_label(x) == canonical_rotation(e.period)
            assert cuntzfrac.classify_surd(x) == cuntzfrac.Cycle(e.period)
            assert cuntzfrac.modular_equivalent(x, surd_from_cfe(sigma_shift(e)))
        assert walked == []

    def test_a_value_is_walked_once(self, monkeypatch):
        x = normalize(-4, 1, 3, 37)
        walked = self._walks(monkeypatch)
        e = cfe_periodic(x)
        assert cfe_periodic(x) is e == PeriodicCFE((), (1, 2, 3))
        assert walked == [x]

    def test_pickled_value_comes_back_without_it(self, monkeypatch):
        e = PeriodicCFE((2,), (1, 2, 3))
        y = pickle.loads(pickle.dumps(surd_from_cfe(e)))
        assert y._expansion is None
        walked = self._walks(monkeypatch)
        assert cfe_periodic(y) == e
        assert len(walked) == 1

    def test_value_outside_the_interval_keeps_nothing(self):
        x = normalize(1, 1, 2, 5)  # the golden ratio, above 1
        for _ in range(2):
            with pytest.raises(DomainError):
                cfe_periodic(x)
            assert x._expansion is None


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(0)", "partial quotients must be >= 1: '(0)'"),
            ("1,(0,2)", "partial quotients must be >= 1: '1,(0,2)'"),
            ("1,2", "not a block literal: '1,2'"),
            # the grammar is checked on both parts before any entry is read
            ("(0,x)", "not a block literal: '(0,x)'"),
            ("0,(x)", "not a block literal: '0,(x)'"),
            ("x,(0)", "not a block literal: 'x,(0)'"),
            ("(0,1)", "partial quotients must be >= 1: '(0,1)'"),
        ],
    )
    def test_parse_error_texts(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_block(text)
        assert str(info.value) == message

    def test_parse_matches_normalize(self):
        # whitespace, leading zeros, non-primitive periods and initial tails
        # that fold into the period
        rng = random.Random(83)

        def digits(w):
            return [rng.choice(("", "", "0", "000")) + str(n) for n in w]

        def spaced(text):
            return "".join(c + rng.choice(("", "", " ", "\t", "\n ")) for c in text)

        folded = powers = 0
        for _ in range(600):
            root = tuple(rng.choice((1, 2, 3, 10**30)) for _ in range(rng.randint(1, 4)))
            period = root * rng.choice((1, 1, 2, 3))
            head = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            tail = (period * 3)[len(period) * 3 - rng.randint(0, 2 * len(period)):]
            initial = head + tail
            text = ",".join(digits(initial) + ["(" + ",".join(digits(period)) + ")"])
            want = minimal_period_normalize(initial, period)
            assert parse_block(spaced(text)) == want
            folded += len(want.initial) < len(initial)
            powers += len(want.period) < len(period)
        assert folded > 200 and powers > 100

    def test_codecs_validate_once(self, monkeypatch):
        # a parsed block is checked by its codec and canonicalized trusted:
        # neither the public validator nor the public normalizer runs again
        raw = [((), (1, 2, 3)), ((2, 1), (3, 1, 4)), ((), (2, 2)), ((1,), (1,)),
               ((3, 1, 2), (1, 2)), ((10**30, 2), (1, 2, 1, 2))]
        want = [minimal_period_normalize(i, p) for i, p in raw]

        def refuse(*args, **kwargs):
            raise AssertionError("validated twice")

        monkeypatch.setattr(cfe, "_check_quotients", refuse)
        monkeypatch.setattr(cfe, "minimal_period_normalize", refuse)
        for (initial, period), e in zip(raw, want):
            text = ",".join([*map(str, initial), "(" + ",".join(map(str, period)) + ")"])
            assert parse_block(text) == e
            assert block_from_json({"initial": list(initial), "period": list(period)}) == e

    @pytest.mark.parametrize(
        "entry, digits",
        [(1, "1"), (1023, "1023"), (1024, "1024"), (1025, "1025"),
         (10**30, "1" + "0" * 30), (10**4999, "1" + "0" * 4999)],
        ids=["1", "1023", "1024", "1025", "1e30", "5000-digits"],
    )
    def test_entries_of_any_size(self, entry, digits):
        # below 1024 an entry converts by table lookup, above it by str and
        # int; 5,000 digits pass the default int<->str limit only by the lift
        e = PeriodicCFE((entry, 3), (2, entry))
        assert format_block(e) == str(e) == f"{digits},3,(2,{digits})"
        assert parse_block(f"{digits},3,(2,{digits})") == e
        assert parse_block(f"00{digits},٣,(02,{digits})") == e

    def test_json_round_trip(self):
        e = PeriodicCFE((2,), (3, 1))
        obj = block_to_json(e)
        assert obj == {"initial": [2], "period": [3, 1]}
        assert block_from_json(obj) == e

    @pytest.mark.parametrize("bad", [1.9, 2.0, True, False, None, 0, "1_000"])
    def test_json_rejects_non_integers(self, bad):
        # int() would truncate 1.9 to 1, read True as 1 and "1_000" as 1000;
        # 0 is no quotient
        for obj in ({"initial": [], "period": [bad, 2]}, {"initial": [bad], "period": [2]}):
            with pytest.raises(ParseError):
                block_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"initial": "12", "period": "3"},
            {"initial": {"7": 0}, "period": [3]},
            {"initial": [], "period": "3"},
            {"initial": None, "period": [3]},
            {"initial": [], "period": []},
            None,
        ],
    )
    def test_json_requires_arrays(self, obj):
        # iterating a string or a dict would read its characters or keys
        with pytest.raises(ParseError, match="not a block object"):
            block_from_json(obj)


# ---------------------------------------------------------------------------
# oracles: the expansion core as it was before the reduced-state loop and the
# product tree, kept here so the faster code is checked against it


def _seen_dict_periodic(x):
    """Stop at the first repeated (P, Q) state, then canonicalize the block."""
    # x = (p + sqrt(d))/q from the canonical fields, scaled until q | d - p*p;
    # the walk starts at 1/x = (-p + sqrt(d))/((d - p*p)/q)
    p, q, d = (x.a, x.c, x.b * x.b * x.d) if x.b > 0 else (-x.a, -x.c, x.b * x.b * x.d)
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    p, q = -p, (d - p * p) // q
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
    # the expansion state must scale when Q does not divide D - P*P as read off x
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
        assert cfe_periodic(fresh(x)) == e == _seen_dict_periodic(x)

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
        assert cfe_periodic(fresh(surd_from_cfe(shifted))) == shifted


def _fold_spy(monkeypatch):
    # records (lo, hi, m) of every _fold call, the recursive ones included
    calls = []
    fold = cfe._fold

    def spy(w, lo, hi, m=0):
        calls.append((lo, hi, m))
        return fold(w, lo, hi, m)

    monkeypatch.setattr(cfe, "_fold", spy)
    return calls


class TestGuessedFold:
    def test_long_period_is_guessed(self, monkeypatch):
        # sqrt(5720702249) has a period of 30,330 quotients
        d = 5_720_702_249
        x = normalize(-math.isqrt(d), 1, 1, d)
        e = cfe_periodic(x)
        n = len(e.period)
        assert n > _GUESS_FROM
        calls = _fold_spy(monkeypatch)
        assert surd_from_cfe(e) == x
        assert (0, n, _FOLD_MOD) in calls
        assert all(m for lo, hi, m in calls if (lo, hi) == (0, n))
        assert not [c for c in calls if c[2] == 0 and c[1] - c[0] > _FOLD_LEAF]

    def test_wrong_guesses_are_rejected(self, monkeypatch):
        # a small prime makes most guesses wrong; every answer must still be
        # the exact one, so the certificate has to refuse them
        rng = random.Random(83)
        blocks = [cfe_periodic(random_surd(rng, max_d=10**4)) for _ in range(150)]
        for _ in range(60):
            k = rng.randint(10**20, 10**21)
            d = rng.choice((k * k + 1, k * k + 2, k * k - 1, k * k + k, 4 * k * k + 4))
            assert len(str(d)) >= 40
            blocks.append(cfe_periodic(normalize(-math.isqrt(d), 1, 1, d)))
        for _ in range(60):
            period = tuple(rng.randint(1, 10**rng.randint(1, 22)) for _ in range(rng.randint(1, 4)))
            if is_primitive(period):
                blocks.append(PeriodicCFE((rng.randint(1, 9),) if period[-1] > 9 else (), period))
        assert any(len(e.period) <= 2 and e.initial == () for e in blocks[150:210])
        want = [_sequential_surd_from_cfe(e) for e in blocks]
        verdicts = []
        certified = cfe._certified

        def spy(*args):
            verdicts.append(certified(*args))
            return verdicts[-1]

        monkeypatch.setattr(cfe, "_FOLD_MOD", 10007)
        monkeypatch.setattr(cfe, "_GUESS_FROM", 0)
        monkeypatch.setattr(cfe, "_certified", spy)
        assert [surd_from_cfe(e) for e in blocks] == want
        assert verdicts.count(False) > 20 and verdicts.count(True) > 0

    def test_certificate(self):
        # (A, B, C) stands for the root of A*y^2 + B*y - C in (0, 1)
        assert cfe._certified(1, 1, 1, (1,))  # the golden ratio's (1)
        # sqrt(3) - 1 = [0; 1, 2, 1, 2, ...]: under the period (1) its first
        # quotient matches, but the state does not come back
        assert cfe._certified(1, 2, 2, (1, 2))
        assert not cfe._certified(1, 2, 2, (1,))
        assert not cfe._certified(1, 2, 2, (2, 1))  # first quotient differs
        assert not cfe._certified(1, 1, 2, (1, 1))  # y = 1: the square discriminant 9
        assert not cfe._certified(1, -1, 1, (1,))  # reciprocal below 1: not reduced

    def test_large_answer_falls_back(self, monkeypatch):
        # random entries make coefficients as large as the fold: no
        # reconstruction fits, and the exact tree answers
        rng = random.Random(89)
        e = PeriodicCFE((), tuple(rng.randint(1, 9) for _ in range(_GUESS_FROM + 1)))
        want = _sequential_surd_from_cfe(e)
        n = len(e.period)
        calls = _fold_spy(monkeypatch)
        assert surd_from_cfe(e) == want
        assert (0, n, _FOLD_MOD) in calls and (0, n, 0) in calls


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
        assert cfe_periodic(fresh(x)) == e
        assert cfe_expand(x, 5002) == block_prefix(e, 5002)

    def test_limit_is_restored(self, digit_limit):
        # the limit is as it was: the block codecs never change it
        format_block(PeriodicCFE((10**5000,), (1,)))
        with pytest.raises(ParseError):
            parse_block("(" + "1" * 5000 + ",0)")
        assert digit_limit == []
        assert sys.get_int_max_str_digits() == 4_300


# ---------------------------------------------------------------------------
# the half walk: the full walk of the reduced cycle, as cfe_periodic did it
# before symmetric periods were reflected, is kept here as the oracle


def _full_walk_periodic(x):
    """Every step of the reduced cycle until its first state comes back."""
    p, q, q_prev, d = cfe._reciprocal_state(x)
    sd = math.isqrt(d)
    quotients = []
    while not (0 < p <= sd and sd - p < q <= sd + p):
        a = _floor_pq(p, q, sd)
        quotients.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        p = p_next
    start = len(quotients)
    p0, q0 = p, q
    while True:
        a = (p + sd) // q
        quotients.append(a)
        p_next = a * q - p
        q, q_prev = q_prev + a * (p - p_next), q
        p = p_next
        if p == p0 and q == q0:
            break
    return PeriodicCFE(tuple(quotients[:start]), tuple(quotients[start:]))


def _centres(w):
    """Index sums c with w[i] == w[c - i] for all i, modulo twice the length:
    even c sits on a quotient, odd c between two."""
    n = len(w)
    return [c for c in range(2 * n) if all(w[i] == w[(c - i) % n] for i in range(n))]


def _with_initial(initial, x):
    m = UnimodularMatrix.identity()
    for a in initial:
        m = m @ cfe_step_matrix(a)
    return mobius_apply(m, x)


def _sqrt_part(d):
    return normalize(-math.isqrt(d), 1, 1, d)


def _starts_on_a_centre(x):
    # Q_prev == Q at the first reduced state: the centre between the walks
    p, q, q_prev, d = cfe._reciprocal_state(x)
    sd = math.isqrt(d)
    assert 0 < p <= sd and sd - p < q <= sd + p, "purely periodic x only"
    return q == q_prev


class _CountedRoot(int):
    """isqrt(D) that counts reduced steps: each one adds it to P exactly once."""

    steps = 0

    def __radd__(self, other):
        _CountedRoot.steps += 1
        return int(other) + int(self)


class _CountingMath:
    @staticmethod
    def isqrt(d):
        return _CountedRoot(math.isqrt(d))


def _count_steps(monkeypatch):
    monkeypatch.setattr(cfe, "math", _CountingMath)
    _CountedRoot.steps = 0


@pytest.fixture(params=[1, cfe._REFLECT_FROM], ids=["reflect-at-once", "reflect-from-default"])
def reflect_from(request, monkeypatch):
    # at 1 every symmetric cycle reflects, so short ones exercise it too
    monkeypatch.setattr(cfe, "_REFLECT_FROM", request.param)
    return request.param


@pytest.mark.usefixtures("reflect_from")
class TestHalfWalk:
    def test_sqrt_with_initial_blocks(self):
        # every period of sqrt(d) is symmetric; initial blocks of 0 to 3 entries
        # put the start of the reduced walk anywhere relative to the centres
        rng = random.Random(211)
        ds = [d for d in range(2, 700) if math.isqrt(d) ** 2 != d]
        ds += [rng.randrange(10**6, 10**9) for _ in range(60)]
        for d in ds:
            if math.isqrt(d) ** 2 == d:
                continue
            for k in range(4):
                x = _with_initial(tuple(rng.randint(1, 9) for _ in range(k)), _sqrt_part(d))
                assert cfe_periodic(x) == _full_walk_periodic(x)

    def test_reflected_periods(self):
        # w + reverse(w) and w + reverse(w)[1:], every rotation of them (starts
        # on both sides of a centre and on one), with and without an initial
        # block; both centre kinds, odd and even lengths
        rng = random.Random(223)
        kinds, lengths, on_centre = set(), set(), 0
        for _ in range(400):
            w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 7)))
            for period in (w + w[::-1], w + w[::-1][1:]):
                if not is_primitive(period):
                    continue
                kinds.update(c % 2 for c in _centres(period))
                lengths.add(len(period) % 2)
                for r in range(len(period)):
                    rotated = period[r:] + period[:r]
                    x = fresh(surd_from_cfe(PeriodicCFE((), rotated)))
                    on_centre += _starts_on_a_centre(x)
                    assert cfe_periodic(x) == _full_walk_periodic(x) == PeriodicCFE((), rotated)
                    initial = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
                    y = _with_initial(initial, x)
                    assert cfe_periodic(y) == _full_walk_periodic(y)
        assert kinds == {0, 1} and lengths == {0, 1} and on_centre > 200

    def test_periods_of_length_one_and_two(self):
        for period in [(a,) for a in range(1, 8)] + [
            (a, b) for a in range(1, 8) for b in range(1, 8) if a != b
        ]:
            for initial in ((), (1,), (9, 2), (3, 3, 3)):
                x = _with_initial(initial, surd_from_cfe(PeriodicCFE((), period)))
                assert cfe_periodic(x) == _full_walk_periodic(x)

    def test_cycles_without_a_centre(self):
        rng = random.Random(227)
        seen = 0
        while seen < 300:
            period = tuple(rng.randint(1, 6) for _ in range(rng.randint(3, 40)))
            if not is_primitive(period) or _centres(period):
                continue
            seen += 1
            initial = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 3)))
            x = _with_initial(initial, surd_from_cfe(PeriodicCFE((), period)))
            assert cfe_periodic(x) == _full_walk_periodic(x)

    def test_random_and_scaled_states(self):
        # Q need not divide D - P*P as read off x; the state is then scaled
        rng = random.Random(229)
        scaled = 0
        for i in range(1500):
            x = random_surd(rng, max_d=150 if i % 2 else 10**6)
            scaled += _needs_scaling(x)
            assert cfe_periodic(x) == _full_walk_periodic(x)
        assert scaled > 300

    def test_half_the_steps(self, monkeypatch, reflect_from):
        # a symmetric cycle of n quotients takes (n + k)/2 reduced steps, k the
        # number of its two centres that sit on a quotient, plus the steps it
        # walks on past its first centre to reach _REFLECT_FROM; a cycle no
        # longer than that, or with no centre, takes n
        rng = random.Random(233)
        cases = []
        for _ in range(300):
            w = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 30)))
            period = rng.choice((w, w + w[::-1], w + w[::-1][1:], w[:1] + w + w[:1] + w[::-1]))
            if is_primitive(period):
                cases.append((period, fresh(surd_from_cfe(PeriodicCFE((), period)))))
        _count_steps(monkeypatch)
        halved = 0
        for period, x in cases:
            _CountedRoot.steps = 0
            assert cfe_periodic(x).period == period
            centres = _centres(period)
            n = len(period)
            if n > reflect_from and n > 1 and centres:
                halved += 1
                first = centres[0] // 2 + 1  # steps to the first centre
                on_quotient = sum(c % 2 == 0 for c in centres)
                assert len(centres) == 2
                assert _CountedRoot.steps == (n + on_quotient) // 2 + max(0, reflect_from - first)
            else:
                assert _CountedRoot.steps == n
        assert halved > 100

    def test_half_the_steps_at_period_1e5(self, monkeypatch):
        # sqrt(89151474086): 100,582 quotients; the backward walk is one step
        x = _sqrt_part(89151474086)
        want = _full_walk_periodic(x)
        _count_steps(monkeypatch)
        assert cfe_periodic(x) == want
        assert len(want.period) == 100_582
        assert _CountedRoot.steps == 100_582 // 2 + 1


# ---------------------------------------------------------------------------
# parse_block: the whole-string regex it replaced is kept here as the oracle

_REGEX_BLOCK = re.compile(r"^(?:(\d+(?:,\d+)*),)?\((\d+(?:,\d+)*)\)$")


def _regex_parse_block(text):
    m = _REGEX_BLOCK.match(re.sub(r"\s+", "", text))
    if not m:
        raise ParseError(f"not a block literal: {text!r}")
    head, body = m.groups()
    initial = tuple(map(int, head.split(","))) if head else ()
    period = tuple(map(int, body.split(",")))
    if 0 in initial or 0 in period:
        raise ParseError(f"partial quotients must be >= 1: {text!r}")
    return minimal_period_normalize(initial, period)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


class TestParseWithoutRegex:
    def test_space_and_digit_classes_are_the_regex_classes(self):
        # for str patterns \s is str.isspace and \d is str.isdecimal
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
        assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]

    def test_fuzz_against_the_regex_parser(self):
        rng = random.Random(239)
        noise = list("0123456789,()") + [" ", "\t", "\n", "\x1c", "٣", "²", "_", "+", "-"]
        kinds = {"block": 0, "not a block literal": 0, "partial quotients": 0}
        for _ in range(30_000):
            period = [rng.choice(("0", "00", "1", "7", "01", "12", "٣"))
                      for _ in range(rng.randint(0, 4))]
            initial = [rng.choice(("0", "2", "002", "13", "9")) for _ in range(rng.randint(0, 3))]
            text = ",".join(initial + ["(" + ",".join(period) + ")"])
            chars = list(text)
            for _ in range(rng.choice((0, 0, 1, 2, 4))):
                at = rng.randint(0, len(chars))
                op = rng.randrange(3)
                if op == 0:
                    chars.insert(at, rng.choice(noise))
                elif chars and op == 1:
                    del chars[min(at, len(chars) - 1)]
                elif chars:
                    chars[min(at, len(chars) - 1)] = rng.choice(noise)
            text = "".join(chars)
            want = _outcome(_regex_parse_block, text)
            assert _outcome(parse_block, text) == want, text
            if isinstance(want, PeriodicCFE):
                kinds["block"] += 1
            else:
                kinds[next(k for k in kinds if want.startswith("ParseError: " + k))] += 1
        assert min(kinds.values()) > 2000, kinds
