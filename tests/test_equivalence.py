import itertools
import random

import pytest

from conftest import random_surd, random_unimodular
from cuntzfrac import (
    PeriodicCFE,
    UnimodularMatrix,
    apply_and_reduce,
    cfe_periodic,
    field_discriminant,
    in_omega,
    mobius_apply,
    modular_equivalent,
    normalize,
    omega_class_label,
    poly_discriminant,
    tail_equivalent,
)
from cuntzfrac import equivalence
from cuntzfrac.surds import DomainError


class TestTailEquivalent:
    def test_initial_blocks_irrelevant(self):
        assert tail_equivalent(PeriodicCFE((), (1,)), PeriodicCFE((5,), (1,)))

    def test_rotation(self):
        assert tail_equivalent(PeriodicCFE((), (1, 2)), PeriodicCFE((), (2, 1)))

    def test_distinct_periods(self):
        assert not tail_equivalent(PeriodicCFE((), (1,)), PeriodicCFE((), (2,)))


class TestModularEquivalent:
    def test_reciprocal_shift_image(self):
        x = normalize(-1, 1, 2, 5)
        y = mobius_apply(UnimodularMatrix(0, 1, 1, 2), x)  # 1/(x + 2)
        assert y == normalize(3, -1, 2, 5)
        assert modular_equivalent(x, y)

    def test_same_field_different_class(self):
        # sqrt(5) - 2 expands with period (4): same field, inequivalent value
        x = normalize(-1, 1, 2, 5)
        y = normalize(-2, 1, 1, 5)
        assert cfe_periodic(y) == PeriodicCFE((), (4,))
        assert not modular_equivalent(x, y)

    def test_inequivalent_fields(self):
        assert not modular_equivalent(normalize(-1, 1, 2, 5), normalize(-1, 1, 1, 2))

    def test_reflexive(self):
        x = normalize(-3, 1, 2, 13)
        assert modular_equivalent(x, x)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            modular_equivalent(normalize(1, 1, 2, 5), normalize(-1, 1, 2, 5))

    def test_discriminants_decide_without_expanding(self, monkeypatch):
        def refuse(x):
            raise AssertionError("expanded although the discriminants differ")

        monkeypatch.setattr(equivalence, "cfe_periodic", refuse)
        assert not modular_equivalent(normalize(-1, 1, 2, 5), normalize(-1, 1, 1, 2))
        # sqrt(5) - 2: same field, discriminant 20 against 5
        assert not modular_equivalent(normalize(-1, 1, 2, 5), normalize(-2, 1, 1, 5))

    def test_equal_discriminants_still_compare_blocks(self):
        # Q(sqrt(10)) has two classes of discriminant 40
        x, y = normalize(-3, 1, 1, 10), normalize(-2, 1, 2, 10)
        assert poly_discriminant(x) == poly_discriminant(y) == 40
        assert not modular_equivalent(x, y)

    def test_shortcut_agrees_with_labels(self):
        rng = random.Random(61)
        for _ in range(200):
            x = random_surd(rng, max_d=30)
            y = random_surd(rng, max_d=30) if rng.random() < 0.5 else apply_and_reduce(random_unimodular(rng), x)
            assert modular_equivalent(x, y) == (omega_class_label(x) == omega_class_label(y))


class TestApplyAndReduce:
    def test_identity(self):
        x = normalize(-1, 1, 2, 5)
        assert apply_and_reduce(UnimodularMatrix.identity(), x) == x

    def test_translation_cancels(self):
        x = normalize(-1, 1, 2, 5)
        assert apply_and_reduce(UnimodularMatrix(1, 1, 0, 1), x) == x

    def test_nontrivial_image_stays_in_class(self):
        x = normalize(-1, 1, 2, 5)
        y = apply_and_reduce(UnimodularMatrix(2, 1, 1, 1), x)
        assert in_omega(y)
        assert omega_class_label(y) == (1,)

    def test_always_lands_in_omega(self):
        rng = random.Random(41)
        for _ in range(200):
            x = random_surd(rng)
            y = apply_and_reduce(random_unimodular(rng), x)
            assert in_omega(y)


class TestClassLabel:
    def test_examples(self):
        assert omega_class_label(normalize(-1, 1, 2, 5)) == (1,)
        assert omega_class_label(normalize(-1, 1, 1, 3)) == (1, 2)

    def test_label_is_least_rotation(self):
        x = normalize(-4, 1, 3, 37)
        y = apply_and_reduce(UnimodularMatrix(0, 1, 1, 2), x)
        assert omega_class_label(x) == omega_class_label(y) == (1, 2, 3)


class TestEquivalenceLaws:
    def _pool(self, n=50):
        rng = random.Random(43)
        return [random_surd(rng, max_d=60) for _ in range(n)]

    def test_relation_laws(self):
        pool = self._pool()
        labels = {x: omega_class_label(x) for x in pool}
        for x in pool:
            assert modular_equivalent(x, x)
        classes: dict[tuple, list] = {}
        for x in pool:
            classes.setdefault(labels[x], []).append(x)
        for members in classes.values():
            for x, y, z in itertools.product(members, repeat=3):
                assert modular_equivalent(x, y)
                assert modular_equivalent(y, x)
                assert modular_equivalent(x, z)

    def test_generator_closure_and_invariance(self):
        rng = random.Random(47)
        pool = self._pool(20)
        for x in pool:
            for _ in range(10):
                m = random_unimodular(rng)
                y = apply_and_reduce(m, x)
                assert modular_equivalent(x, y)
                assert field_discriminant(x) == field_discriminant(y)

    def test_label_soundness(self):
        pool = self._pool(30)
        for x, y in itertools.combinations(pool, 2):
            same_label = omega_class_label(x) == omega_class_label(y)
            assert same_label == modular_equivalent(x, y)
