import copy
import itertools
import pickle
import random
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest

from conftest import fresh, raised, random_surd
from cuntzfrac import (
    BadMultiplicity,
    CheckEntry,
    Cycle,
    EmptyWord,
    IDENTITY,
    LabelSpace,
    NotPrimitive,
    PeriodicCFE,
    UnimodularMatrix,
    WordOperator,
    ZERO,
    apply_word_op,
    block_prefix,
    canonical_cycle,
    cfe_expand,
    cfe_periodic,
    cfe_step_matrix,
    classify_surd,
    cycle_dft_split,
    gp_vector_check,
    intertwiner_check,
    is_nonperiodic,
    label_cons,
    minimal_period_normalize,
    mobius_apply,
    normalize,
    orbit_decompose,
    sigma_shift,
    surd_from_cfe,
    verify_cuntz_relations,
    word_op_mul,
)
from cuntzfrac import cuntz
from cuntzfrac.surds import DomainError


def random_word(rng, max_len=4, alphabet=4, min_len=0):
    return tuple(rng.randint(1, alphabet) for _ in range(rng.randint(min_len, max_len)))


def random_op(rng):
    if rng.random() < 0.05:
        return ZERO
    return WordOperator(random_word(rng), random_word(rng))


def rest(w, k):
    # the label with its first k symbols dropped, as (initial, period)
    if k <= len(w.initial):
        return w.initial[k:], w.period
    m = (k - len(w.initial)) % len(w.period)
    return (), w.period[m:] + w.period[:m]


def random_label(rng):
    while True:
        period = random_word(rng, max_len=3, min_len=1)
        initial = random_word(rng, max_len=2)
        try:
            return PeriodicCFE(initial, period)
        except ValueError:
            continue


class TestWordPredicates:
    def test_is_nonperiodic(self):
        assert is_nonperiodic((1, 2))
        assert not is_nonperiodic((1, 2, 1, 2))
        assert is_nonperiodic((1,))

    def test_empty_word(self):
        with pytest.raises(EmptyWord):
            is_nonperiodic(())

    def test_canonical_cycle(self):
        assert canonical_cycle((2, 3, 1)) == (1, 2, 3)
        assert canonical_cycle((3, 1, 2)) == (1, 2, 3)
        assert canonical_cycle((1,)) == (1,)

    def test_canonical_cycle_rejects_powers(self):
        with pytest.raises(NotPrimitive):
            canonical_cycle((1, 2, 1, 2))


class TestRepClasses:
    def test_cycle_canonicalizes_at_construction(self):
        assert Cycle((2, 3, 1)) == Cycle((1, 2, 3))
        assert str(Cycle((2, 3, 1))) == "P(1,2,3)"

    def test_pj_equivalent_cycles(self):
        # two cycles are P_J-equivalent exactly when they are equal values
        assert Cycle((1, 2, 3)) == Cycle((3, 1, 2))
        assert Cycle((1, 2)) != Cycle((1, 3))
        assert Cycle((1,)) != Cycle((1, 2))

    def test_cycle_rejects_powers(self):
        for word in [(1, 2, 1, 2), (1, 1)]:
            with pytest.raises(NotPrimitive):
                Cycle(word)


class TestHugeEntries:
    def test_text_lifts_the_digit_limit(self):
        # entries far beyond CPython's 4,300-digit int -> str limit
        big, digits = 10**5000, "1" + "0" * 5000
        x = surd_from_cfe(PeriodicCFE((), (big, 1)))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        assert str(Cycle((big, 1))) == f"P(1,{digits})"
        assert str(classify_surd(fresh(x))) == f"P(1,{digits})"
        assert str(WordOperator((big,), ())) == f"s[{digits}]"
        assert str(WordOperator((2,), (big,))) == f"s[2]s[{digits}]*"
        assert [e.instance for e in gp_vector_check((big,))] == [
            f"J=({digits})", f"J=({digits}),labels=1/1"]
        assert [e.verdict for e in gp_vector_check((big,))] == ["pass", "pass"]
        split = cycle_dft_split((big,), 2)
        assert split[0].instance == f"J0=({digits}),n=2,r=0,s=1"
        assert split[-1].instance == f"J=({digits})^2"
        assert limit() == before


class TestClassifySurd:
    def test_examples(self):
        assert classify_surd(normalize(-1, 1, 2, 5)) == Cycle((1,))
        assert classify_surd(normalize(-1, 1, 1, 2)) == Cycle((2,))
        assert classify_surd(normalize(-1, 1, 1, 3)) == Cycle((1, 2))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            classify_surd(normalize(1, 1, 2, 5))

    def test_always_a_cycle(self):
        rng = random.Random(3)
        for _ in range(100):
            assert isinstance(classify_surd(random_surd(rng)), Cycle)

    def test_matches_the_public_cycle(self):
        rng = random.Random(31)
        for x in [random_surd(rng, max_d=5_000) for _ in range(200)]:
            assert classify_surd(x) == Cycle(cfe_periodic(x).period)
        # a 100,582-quotient period
        x = normalize(-298582, 1, 1, 89151474086)
        period = cfe_periodic(x).period
        assert len(period) == 100_582
        got = classify_surd(x)
        assert got == Cycle(period)
        assert got.word == canonical_cycle(period)

    def test_builds_the_class_without_checks(self, monkeypatch):
        # cfe_periodic returns a checked primitive period and orbit keys are
        # rotations of label periods, so neither path checks them again
        rng = random.Random(37)
        xs = [random_surd(rng, max_d=2_000) for _ in range(100)]
        space = LabelSpace.full(4, 3)
        want_classes = [Cycle(cfe_periodic(x).period) for x in xs]
        want_orbits = orbit_decompose(space)

        def refuse(*args):
            raise AssertionError("a checked value was checked again")

        monkeypatch.setattr("cuntzfrac.cfe._check_quotients", refuse)
        monkeypatch.setattr(cuntz, "_check_quotients", refuse)
        monkeypatch.setattr("cuntzfrac.words.primitive_root_length", refuse)
        assert [classify_surd(x) for x in xs] == want_classes
        assert orbit_decompose(space) == want_orbits


class TestWordOperator:
    def test_adjoint_pair_is_identity(self):
        u = WordOperator((), (1,))
        v = WordOperator((1,), ())
        assert word_op_mul(u, v) == IDENTITY

    def test_mismatch_annihilates(self):
        assert word_op_mul(WordOperator((), (1,)), WordOperator((2,), ())) == ZERO

    def test_prefix_cancellation(self):
        u = WordOperator((1,), (1, 2))
        v = WordOperator((1, 2, 3), ())
        assert word_op_mul(u, v) == WordOperator((1, 3), ())

    def test_partial_adjoint_remainder(self):
        u = WordOperator((1,), (1, 2, 3))
        v = WordOperator((1, 2), ())
        assert word_op_mul(u, v) == WordOperator((1,), (3,))

    def test_identity_and_zero_laws(self):
        rng = random.Random(13)
        for _ in range(200):
            u = random_op(rng)
            assert IDENTITY * u == u
            assert u * IDENTITY == u
            assert ZERO * u == ZERO
            assert u * ZERO == ZERO

    def test_text_of_zero_and_identity(self):
        assert str(ZERO) == "0"
        assert str(IDENTITY) == "I"

    def test_adjoint_involution(self):
        rng = random.Random(19)
        for _ in range(100):
            u = random_op(rng)
            assert u.adjoint().adjoint() == u

    def test_associativity_against_label_action(self):
        rng = random.Random(29)
        labels = [random_label(rng) for _ in range(50)]
        for trial in range(10_000):
            u, v, w = random_op(rng), random_op(rng), random_op(rng)
            left = (u * v) * w
            right = u * (v * w)
            assert left == right
            # rotate through the label pool so every label exercises the oracle
            for lab in (labels[trial % 50], labels[(trial * 7 + 3) % 50]):
                via_product = apply_word_op(left, lab)
                step = apply_word_op(w, lab)
                if step is not None:
                    step = apply_word_op(v, step)
                if step is not None:
                    step = apply_word_op(u, step)
                assert via_product == step

    def test_products_and_adjoints_are_trusted(self, monkeypatch):
        # built from checked operators, they skip the check and equal the
        # operators the validating constructor builds
        rng = random.Random(37)
        pairs = [(random_op(rng), random_op(rng)) for _ in range(2_000)]

        def refuse(*args):
            raise AssertionError("indices checked again")

        monkeypatch.setattr(cuntz, "_check_quotients", refuse)
        results = [(word_op_mul(u, v), u.adjoint()) for u, v in pairs]
        monkeypatch.undo()
        for product, adjoint in results:
            for op in (product, adjoint):
                assert op == (ZERO if op.zero else WordOperator(op.left, op.right))
        assert sum(not p.zero for p, _ in results) > 200

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            WordOperator((0,), ())
        with pytest.raises(ValueError):
            WordOperator((1,), (2,), zero=True)


class TestPublicConstructors:
    def test_rejects_bools(self):
        # True is an int to isinstance; no public constructor takes it as 1
        v = PeriodicCFE((), (2,))
        with pytest.raises(ValueError, match="partial quotients"):
            PeriodicCFE((True,), (2,))
        with pytest.raises(ValueError, match="partial quotients"):
            minimal_period_normalize((True,), (2,))
        with pytest.raises(ValueError, match="generator indices"):
            WordOperator((True,), ())
        with pytest.raises(ValueError, match="generator indices start at 1"):
            label_cons(True, v)

    @pytest.mark.parametrize(
        "check",
        [Cycle, canonical_cycle, is_nonperiodic, gp_vector_check, lambda j: cycle_dft_split(j, 2)],
        ids=["Cycle", "canonical_cycle", "is_nonperiodic", "gp_vector_check", "cycle_dft_split"],
    )
    @pytest.mark.parametrize("word", [(0,), (-1, 2), (True, 2), (1.5,), ("1",)])
    def test_words_take_positive_ints_only(self, check, word):
        with pytest.raises(ValueError, match="generator indices must be integers >= 1"):
            check(word)

    def test_lists_are_stored_as_tuples(self):
        for value, want in [
            (PeriodicCFE([2], [3]), PeriodicCFE((2,), (3,))),
            (WordOperator([1], []), WordOperator((1,), ())),
            (WordOperator([], [1, 2]), WordOperator((), (1, 2))),
            (Cycle([2, 1]), Cycle((1, 2))),
        ]:
            assert value == want
            assert hash(value) == hash(want)


def _matched(value):
    # positional class patterns, through each type's __match_args__
    match value:
        case PeriodicCFE(initial, period):
            return initial, period
        case UnimodularMatrix(m11, m12, m21, m22):
            return m11, m12, m21, m22
        case Cycle(word):
            return (word,)
        case WordOperator(left, right, zero):
            return left, right, zero
        case CheckEntry(check, instance, verdict, residual):
            return check, instance, verdict, residual


# (value, an equal value built another way, field names, field values, the
# text a frozen dataclass of those fields prints)
VALUE_TYPES = [
    (PeriodicCFE((1,), (2, 3)), PeriodicCFE._trusted((1,), (2, 3)), ("initial", "period"),
     ((1,), (2, 3)), "PeriodicCFE(initial=(1,), period=(2, 3))"),
    (UnimodularMatrix(2, 1, 1, 1), UnimodularMatrix(1, 1, 0, 1) @ UnimodularMatrix(1, 0, 1, 1),
     ("m11", "m12", "m21", "m22"), (2, 1, 1, 1), "UnimodularMatrix(m11=2, m12=1, m21=1, m22=1)"),
    (Cycle((2, 1)), Cycle._trusted((1, 2)), ("word",), ((1, 2),), "Cycle(word=(1, 2))"),
    (WordOperator(), WordOperator._trusted((), ()), ("left", "right", "zero"), ((), (), False),
     "WordOperator(left=(), right=(), zero=False)"),
    (WordOperator((2,), (1, 3)), WordOperator._trusted((2,), (1, 3)), ("left", "right", "zero"),
     ((2,), (1, 3), False), "WordOperator(left=(2,), right=(1, 3), zero=False)"),
    (CheckEntry("c", "i=1", "pass", residual=None), CheckEntry("c", "i=1", "pass"),
     ("check", "instance", "verdict", "residual"), ("c", "i=1", "pass", None),
     "CheckEntry(check='c', instance='i=1', verdict='pass', residual=None)"),
    (CheckEntry("c", "r=0", "fail", 3), CheckEntry(check="c", instance="r=0", verdict="fail", residual=3),
     ("check", "instance", "verdict", "residual"), ("c", "r=0", "fail", 3),
     "CheckEntry(check='c', instance='r=0', verdict='fail', residual=3)"),
]


class TestValueTypes:
    # the contract the five types kept from frozen dataclasses
    @pytest.mark.parametrize("value, other, names, fields, text", VALUE_TYPES,
                             ids=[repr(v) for v, *_ in VALUE_TYPES])
    def test_frozen_value_contract(self, value, other, names, fields, text):
        cls = type(value)
        assert type(other) is cls and other == value and hash(other) == hash(value) == hash(fields)
        assert tuple(getattr(value, n) for n in names) == fields and cls.__match_args__ == names
        assert cls(*fields) == cls(**dict(zip(names, fields))) == value
        assert value != fields and not value == fields
        assert repr(value) == text
        assert _matched(value) == fields
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, fields[0])
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)
        assert tuple(getattr(value, n) for n in names) == fields
        for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(copied) is cls and copied == value and hash(copied) == hash(value)
            assert repr(copied) == text

    def test_defaults(self):
        assert WordOperator() == IDENTITY and not IDENTITY.zero
        assert WordOperator(zero=True) == ZERO and (ZERO.left, ZERO.right) == ((), ())
        assert CheckEntry("c", "i", "pass").residual is None


class TestLabelAction:
    def test_generator_prepends(self):
        v = PeriodicCFE((), (1,))
        assert apply_word_op(WordOperator((2,), ()), v) == PeriodicCFE((2,), (1,))

    def test_adjoint_strips_or_kills(self):
        v = PeriodicCFE((), (1,))
        assert apply_word_op(WordOperator((), (1,)), v) == v
        assert apply_word_op(WordOperator((), (2,)), v) is None

    def test_cons_absorbs_into_period(self):
        v = PeriodicCFE((), (1, 2))
        assert label_cons(2, v) == PeriodicCFE((), (2, 1))

    def test_canonical_by_rule_without_kmp(self, monkeypatch):
        # a label's period is already primitive and stays so under rotation:
        # prepending and shifting keep labels canonical by an O(1) rule, and the
        # word action by one fold of A into that period, so the label paths
        # never search for a primitive root
        labels = sorted(LabelSpace.full(5, 3), key=str)
        ops = [WordOperator(a, b) for a in ((), (1,), (3, 1)) for b in ((), (2,), (1, 2, 1))]

        want_cons = [[minimal_period_normalize((i,) + w.initial, w.period) for w in labels]
                     for i in range(1, 5)]
        want_shift = [minimal_period_normalize(*rest(w, 1)) for w in labels]
        want_ops = []
        for u in ops:
            for w in labels:
                if block_prefix(w, len(u.right)) != u.right:
                    want_ops.append(None)
                else:
                    initial, period = rest(w, len(u.right))
                    want_ops.append(minimal_period_normalize(u.left + initial, period))

        def refuse(w):
            raise AssertionError("primitivity tested on a label path")

        monkeypatch.setattr("cuntzfrac.words.failure_function", refuse)
        monkeypatch.setattr("cuntzfrac.words.primitive_root_length", refuse)
        assert [[label_cons(i, w) for w in labels] for i in range(1, 5)] == want_cons
        assert [sigma_shift(w) for w in labels] == want_shift
        assert [apply_word_op(u, w) for u in ops for w in labels] == want_ops

    def test_one_fold_per_word_action(self, monkeypatch):
        # s_A s_B* drops B and folds A in once: one label built per call that
        # neither annihilates nor is the identity, and no per-symbol rule
        built = []
        trusted, init = PeriodicCFE._trusted.__func__, PeriodicCFE.__init__

        def spy_trusted(cls, initial, period):
            built.append(1)
            return trusted(cls, initial, period)

        def spy_init(self, initial, period):
            built.append(1)
            init(self, initial, period)

        def refuse(*args):
            raise AssertionError("per-symbol rule in the word action")

        rng = random.Random(61)
        cases = [(random_op(rng), random_label(rng)) for _ in range(400)]
        cases += [(WordOperator((2, 1), block_prefix(w, 9)), w) for _, w in cases[:50]]
        want = [apply_word_op(u, w) for u, w in cases]
        monkeypatch.setattr(PeriodicCFE, "_trusted", classmethod(spy_trusted))
        monkeypatch.setattr(PeriodicCFE, "__init__", spy_init)
        for name in ("cuntzfrac.cuntz.sigma_shift", "cuntzfrac.cuntz.label_cons",
                     "cuntzfrac.cfe.sigma_shift"):
            monkeypatch.setattr(name, refuse)
        counts = {None: 0, "identity": 0, "built": 0}
        for (u, w), image in zip(cases, want):
            del built[:]
            assert apply_word_op(u, w) == image
            if image is None:
                kind = None
            elif not u.left and not u.right:
                kind = "identity"
            else:
                kind = "built"
            assert len(built) == (kind == "built")
            counts[kind] += 1
        assert min(counts.values()) > 0

    def test_long_label(self):
        # period 2*10^4: B is the initial block and half the period, A ends in
        # the tail of the period left after B, so the fold takes most of A in
        rng = random.Random(67)
        period = tuple(rng.randint(1, 9) for _ in range(19_999)) + (10,)
        w = PeriodicCFE((4, 1, 7), period)
        b = block_prefix(w, 3 + 10_000)
        initial, rotated = rest(w, len(b))
        a = (5, 11) + rotated[-7_000:]
        u = WordOperator(a, b)
        want = minimal_period_normalize(a + initial, rotated)
        start = time.perf_counter()
        got = apply_word_op(u, w)
        elapsed = time.perf_counter() - start
        assert got == want
        assert got.initial == (5, 11) and len(got.period) == 20_000
        # linear in the label: well under a millisecond here, where a rule
        # applied per symbol of A and B copies the period about 17,000 times
        assert elapsed < 0.25


class TestLabelSpace:
    def test_enumeration_depth2_alphabet2(self):
        space = LabelSpace.full(2, 2)
        expected = {
            PeriodicCFE((), (1,)),
            PeriodicCFE((2,), (1,)),
            PeriodicCFE((), (2,)),
            PeriodicCFE((1,), (2,)),
            PeriodicCFE((), (1, 2)),
            PeriodicCFE((), (2, 1)),
        }
        assert space == frozenset(expected)

    def test_size_oracle(self):
        # a period of length n leaves d - n stored symbols, and the initial
        # blocks of length m <= d - n not ending in the period's last symbol
        # number 1 + (k - 1)(1 + k + ... + k^(d-n-1)) = k^(d-n); the primitive
        # words of length n number sum over e | n of mu(e) k^(n/e)
        def mobius(e):
            mu, q = 1, 2
            while q * q <= e:
                if e % q == 0:
                    e //= q
                    if e % q == 0:
                        return 0
                    mu = -mu
                q += 1
            return -mu if e > 1 else mu

        def primitive_words(n, k):
            return sum(mobius(e) * k ** (n // e) for e in range(1, n + 1) if n % e == 0)

        for d in range(1, 6):
            for k in range(1, 5):
                want = sum(primitive_words(n, k) * k ** (d - n) for n in range(1, d + 1))
                assert len(LabelSpace.full(d, k)) == want

    def test_labels_distinct_canonical(self):
        space = LabelSpace.full(3, 3)
        assert len(space) == len({str(w) for w in space})

    def test_full_needs_positive_depth(self):
        with pytest.raises(ValueError, match="need depth >= 1"):
            LabelSpace.full(0, 2)

    def test_membership(self):
        space = LabelSpace.full(2, 2)
        assert PeriodicCFE((2,), (1,)) in space
        assert PeriodicCFE((1, 2), (1,)) not in space


class TestRelationChecks:
    def test_no_violations_small(self):
        assert verify_cuntz_relations(3, 3) == []

    def test_one_image_per_generator_and_label(self, monkeypatch):
        # the disjoint, cover and shift-section checks reuse the images
        calls = []

        def spy(i, w):
            calls.append((i, w))
            return label_cons(i, w)

        monkeypatch.setattr("cuntzfrac.cuntz.label_cons", spy)
        assert verify_cuntz_relations(4, 3) == []
        assert len(calls) == len(set(calls)) == 3 * len(LabelSpace.full(4, 3))

    def test_isometry_delta_from_the_normal_form(self, monkeypatch):
        # s_i* s_j is compared with I or 0 once per (i, j), and no label is
        # acted on: the label checks above already cover the action
        real = cuntz.word_op_mul

        def projector(u, v):
            # s_i s_i* in place of s_i* s_i
            return WordOperator(v.left, u.right) if u.right == v.left else real(u, v)

        def leak(u, v):
            # s_3 s_2* in place of s_2* s_3 = 0
            return WordOperator((3,), (2,)) if (u.right, v.left) == ((2,), (3,)) else real(u, v)

        actions = []
        monkeypatch.setattr(cuntz, "apply_word_op", lambda u, w: actions.append(u))
        monkeypatch.setattr(cuntz, "word_op_mul", projector)
        assert verify_cuntz_relations(3, 3) == [
            CheckEntry("isometry-delta", f"i={i},j={i}", "fail") for i in (1, 2, 3)]
        monkeypatch.setattr(cuntz, "word_op_mul", leak)
        assert verify_cuntz_relations(3, 3) == [CheckEntry("isometry-delta", "i=2,j=3", "fail")]
        monkeypatch.setattr(cuntz, "word_op_mul", real)
        assert verify_cuntz_relations(4, 3) == []
        assert actions == []

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            verify_cuntz_relations(0, 3)
        with pytest.raises(ValueError):
            verify_cuntz_relations(3, 1)


class TestOrbitDecompose:
    def test_merges_shifted_labels(self):
        labels = [PeriodicCFE((), (1, 2)), PeriodicCFE((), (1,)),
                  PeriodicCFE((2,), (1,)), PeriodicCFE((), (2,))]
        part = orbit_decompose(labels)
        assert set(part) == {Cycle((1,)), Cycle((2,)), Cycle((1, 2))}
        assert part[Cycle((1,))] == frozenset({PeriodicCFE((), (1,)), PeriodicCFE((2,), (1,))})

    def test_rotations_share_a_class(self):
        part = orbit_decompose([PeriodicCFE((), (1, 2)), PeriodicCFE((), (2, 1))])
        assert len(part) == 1
        assert set(part) == {Cycle((1, 2))}

    def test_singleton(self):
        part = orbit_decompose([PeriodicCFE((), (1, 2, 3))])
        assert part == {Cycle((1, 2, 3)): frozenset({PeriodicCFE((), (1, 2, 3))})}

    def test_order_independent(self):
        rng = random.Random(53)
        labels = [random_label(rng) for _ in range(40)]
        shuffled = labels[:]
        rng.shuffle(shuffled)
        assert orbit_decompose(labels) == orbit_decompose(shuffled)

    def test_accepts_label_space(self):
        space = LabelSpace.full(3, 2)
        part = orbit_decompose(space)
        assert sum(len(v) for v in part.values()) == len(space)
        for cls, members in part.items():
            assert cls == Cycle(cls.word)
            assert all(Cycle(w.period) == cls for w in members)


class TestGPVector:
    @pytest.mark.parametrize("word", [(1,), (1, 2), (1, 2, 3)])
    def test_passes(self, word):
        entries = gp_vector_check(word)
        assert all(e.verdict == "pass" for e in entries)

    def test_rejects_powers(self):
        with pytest.raises(NotPrimitive):
            gp_vector_check((1, 1))

    @pytest.mark.parametrize("depth", [-1, 0, 1, 8, 20])
    def test_one_action_for_the_fixed_point(self, monkeypatch, depth):
        # s_J is applied once, whatever the depth, then one action per suffix
        calls = []
        real = cuntz.apply_word_op

        def spy(u, w):
            calls.append(u)
            return real(u, w)

        monkeypatch.setattr(cuntz, "apply_word_op", spy)
        j = (1, 2, 3)
        assert [e.verdict for e in gp_vector_check(j, depth)] == ["pass", "pass"]
        assert len(calls) == 1 + len(j)
        assert calls[0].left == j and calls[0].right == ()

    def test_moved_fixed_point_fails(self, monkeypatch):
        j = (1, 2, 3)
        real = cuntz.apply_word_op
        moved = []

        def rotate(u, w):
            # the fixed-point check's s_J, the first action, sends v to a
            # rotation of v instead of v; the suffix actions after it, the
            # first of which is s_J again, act as they should
            if u.left == j and not moved:
                moved.append(u)
                return PeriodicCFE((), j[1:] + j[:1])
            return real(u, w)

        monkeypatch.setattr(cuntz, "apply_word_op", rotate)
        assert [e.verdict for e in gp_vector_check(j, 8)] == ["fail", "pass"]

    def test_indices_checked_once(self, monkeypatch):
        # J is checked once on the way in; s_J and its suffix operators are built trusted
        calls = []
        check = cuntz._check_quotients

        def spy(w, what="partial quotients"):
            calls.append(len(w))
            return check(w, what)

        monkeypatch.setattr(cuntz, "_check_quotients", spy)
        rng = random.Random(73)
        for n in (1, 2, 40, 2_000):
            j = tuple(rng.randint(1, 5) for _ in range(n - 1)) + (6,)
            calls.clear()
            assert [e.verdict for e in gp_vector_check(j)] == ["pass", "pass"]
            assert calls == [n]

    def test_fixed_point_memory_does_not_grow_with_depth(self):
        # one s_J action, not s_(J^depth): that tuple alone is 22.9 MiB at depth 10**6
        tracemalloc.start()
        try:
            assert [e.verdict for e in gp_vector_check((1, 2, 3), 10**6)] == ["pass", "pass"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_long_word_through_the_word_action(self, monkeypatch):
        # s_J and each s_{J[start:]} act through apply_word_op, one fold each
        def refuse(*args):
            raise AssertionError("per-symbol rule in the fixed-vector check")

        monkeypatch.setattr("cuntzfrac.cuntz.label_cons", refuse)
        rng = random.Random(71)
        j = tuple(rng.randint(1, 5) for _ in range(1_199)) + (6,)
        entries = gp_vector_check(j)
        assert [e.verdict for e in entries] == ["pass", "pass"]
        assert entries[1].instance.endswith(",labels=1200/1200")


class TestCycleSplit:
    def test_two_fold_split(self):
        entries = cycle_dft_split((1,), 2)
        assert all(e.verdict in ("pass", "reducible") for e in entries)
        orth = [e for e in entries if e.check == "cycle-orthogonality"]
        assert len(orth) == 1 and orth[0].residual <= 1e-9

    def test_three_fold_eigenvalues(self):
        entries = cycle_dft_split((1, 2), 3)
        eig = [e for e in entries if e.check == "cycle-eigenvalue"]
        assert len(eig) == 3
        assert all(e.residual <= 1e-9 for e in eig)

    def test_verdict_entry(self):
        entries = cycle_dft_split((1, 2), 3)
        assert entries[-1].check == "cycle-split-verdict"
        assert entries[-1].verdict == "reducible"

    def test_exact_integer_residuals(self):
        for length in range(1, 5):
            for j0 in itertools.product((1, 2), repeat=length):
                if not is_nonperiodic(j0):
                    continue
                for n in range(2, 13):
                    entries = cycle_dft_split(j0, n)
                    assert len(entries) == n * (n - 1) // 2 + n + 1
                    for e in entries[:-1]:
                        assert type(e.residual) is int and e.residual == 0
                        assert e.verdict == "pass"
                    assert entries[-1].instance == f"J=({','.join(map(str, j0))})^{n}"
                    assert entries[-1].residual is None

    def test_matches_the_per_pair_count(self):
        # the oracle counts the inner product of every pair (r, s) afresh
        def per_pair(j0, n):
            name = ",".join(map(str, j0))
            vecs = [[r * m % n for m in range(n)] for r in range(n)]
            entries = []
            for r in range(n):
                for s in range(r + 1, n):
                    counts = [0] * n
                    for a, b in zip(vecs[r], vecs[s]):
                        counts[(b - a) % n] += 1
                    resid = sum(counts[(e - s + r) % n] != counts[e] for e in range(n))
                    entries.append(CheckEntry("cycle-orthogonality", f"J0=({name}),n={n},r={r},s={s}",
                                              "pass" if resid == 0 else "fail", resid))
            for r in range(n):
                shifted = vecs[r][-1:] + vecs[r][:-1]
                resid = sum(a != (b - r) % n for a, b in zip(shifted, vecs[r]))
                entries.append(CheckEntry("cycle-eigenvalue", f"J0=({name}),n={n},r={r}",
                                          "pass" if resid == 0 else "fail", resid))
            entries.append(CheckEntry("cycle-split-verdict", f"J=({name})^{n}", "reducible", None))
            return entries

        words = [j0 for length in range(1, 5) for j0 in itertools.product((1, 2), repeat=length)
                 if is_nonperiodic(j0)]
        assert len(words) == 2 + 2 + 6 + 12
        for j0 in words:
            for n in range(2, 17):
                assert cycle_dft_split(j0, n) == per_pair(j0, n)

    def test_bad_multiplicity(self):
        with pytest.raises(BadMultiplicity):
            cycle_dft_split((1,), 1)

    def test_not_primitive(self):
        with pytest.raises(NotPrimitive):
            cycle_dft_split((2, 2), 2)


class TestIntertwiner:
    def test_fixed_point_generator(self):
        assert intertwiner_check(normalize(-1, 1, 2, 5), 1, 10)

    def test_sqrt2_with_other_generator(self):
        assert intertwiner_check(normalize(-1, 1, 1, 2), 3, 10)

    def test_sqrt3(self):
        assert intertwiner_check(normalize(-1, 1, 1, 3), 2, 10)

    def test_randoms(self):
        rng = random.Random(59)
        for _ in range(60):
            assert intertwiner_check(random_surd(rng), rng.randint(1, 6), 25)

    def test_verdict_of_the_step_matrix(self):
        # the step 1/(x + i) is applied as integers; the verdict is the one the
        # step matrix gives through mobius_apply
        rng = random.Random(3202)
        for _ in range(200):
            x, i, n = random_surd(rng, max_d=rng.choice((150, 10**9))), rng.randint(1, 9), rng.randint(1, 30)
            img = mobius_apply(cfe_step_matrix(i), x)
            assert intertwiner_check(x, i, n) is (cfe_expand(img, n + 1) == (i,) + cfe_expand(x, n))

    def test_value_outside_omega(self):
        assert raised(intertwiner_check, normalize(1, 1, 2, 5), 2, 5) == (
            DomainError, "(1+1*sqrt(5))/2 is not inside (0, 1)")
        # the generator is checked first
        assert raised(intertwiner_check, normalize(1, 1, 2, 5), 0, 5) == (
            ValueError, "generator indices start at 1")

    @pytest.mark.parametrize("i", [True, False, 2.0, "2", 0])
    def test_generator_must_be_a_positive_int(self, i):
        # the same guard as label_cons: True is an int to isinstance, not index 1
        with pytest.raises(ValueError, match="generator indices start at 1"):
            intertwiner_check(normalize(-1, 1, 2, 5), i, 5)
