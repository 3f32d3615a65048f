"""Acceptance sweeps: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time

from conftest import fresh, random_surd, random_unimodular
from cuntzfrac import (
    Cycle,
    PeriodicCFE,
    WordOperator,
    apply_and_reduce,
    apply_word_op,
    cfe_expand,
    cfe_periodic,
    cfe_step_matrix,
    classify_surd,
    cycle_dft_split,
    field_discriminant,
    gauss_tau,
    in_omega,
    mobius_apply,
    modular_equivalent,
    normalize,
    surd_from_cfe,
    verify_cuntz_relations,
    word_op_mul,
)
from cuntzfrac.families import (
    pair_block_surd,
    quad_block_surd,
    single_block_surd,
    triple_block_surd,
)
from cuntzfrac.words import is_primitive


def _verdict(name: str, ok: bool, elapsed: float, budget: float | None) -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"{elapsed:6.2f}s" + (f" / budget {budget:g}s" if budget else "")
    print(f"{tag}  {name}  ({suffix})")
    assert ok, name
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded {budget}s"


def test_c01_golden_family():
    t0 = time.perf_counter()
    ok = (
        classify_surd(normalize(-1, 1, 2, 5)) == Cycle((1,))
        and classify_surd(normalize(-1, 1, 1, 2)) == Cycle((2,))
        and classify_surd(normalize(-3, 1, 2, 13)) == Cycle((3,))
    )
    _verdict("criterion 01: golden/sqrt2/sqrt13 classes", ok, time.perf_counter() - t0, 1)


def test_c02_single_letter_sweep():
    t0 = time.perf_counter()
    ok = all(
        classify_surd(single_block_surd(k)) == Cycle((k,)) for k in range(1, 51)
    )
    _verdict("criterion 02: single-letter blocks k=1..50", ok, time.perf_counter() - t0, 5)


def test_c03_pair_sweep():
    t0 = time.perf_counter()
    ok = True
    for j in range(1, 11):
        for k in range(1, 11):
            x = pair_block_surd(j, k)
            if j == k:
                ok = ok and x == single_block_surd(k)
            else:
                ok = ok and classify_surd(x) == Cycle((j, k))
    _verdict("criterion 03: two-letter blocks j,k<=10", ok, time.perf_counter() - t0, 5)


def test_c04_triple_and_quad_sweep():
    # a closed form that disagrees with the class of its block fails the
    # criterion; nothing overrules it
    t0 = time.perf_counter()
    discrepancies = [
        tup
        for arity, closed_form in ((3, triple_block_surd), (4, quad_block_surd))
        for tup in itertools.product(range(1, 6), repeat=arity)
        if is_primitive(tup) and classify_surd(closed_form(*tup)[0]) != Cycle(tup)
    ]
    x123, d123 = triple_block_surd(1, 2, 3)
    ok = not discrepancies and d123 == 148 and field_discriminant(x123) == 37
    if discrepancies:
        print(f"      closed-form discrepancies: {discrepancies}")
    print(f"      (1,2,3): raw radicand D={d123}, field discriminant {field_discriminant(x123)}")
    _verdict("criterion 04: triple/quad blocks entries<=5", ok, time.perf_counter() - t0, 30)


def _round_trip_cases():
    periods = [
        w
        for k in range(1, 5)
        for w in itertools.product(range(1, 10), repeat=k)
        if is_primitive(w)
    ]
    initials = (
        [()]
        + [(i,) for i in range(1, 10)]
        + list(itertools.product(range(1, 4), repeat=2))
        + list(itertools.product(range(1, 3), repeat=3))
    )
    for period in periods:
        for initial in initials:
            if initial and initial[-1] == period[-1]:
                continue
            yield PeriodicCFE(initial, period)


def test_c05_round_trip_sweep():
    t0 = time.perf_counter()
    n = 0
    ok = True
    for e in _round_trip_cases():
        if cfe_periodic(fresh(surd_from_cfe(e))) != e:
            ok = False
            print(f"      round trip broke at {e}")
            break
        n += 1
    print(f"      {n} round trips")
    ok = ok and n >= 100_000
    _verdict("criterion 05: block -> surd -> block round trip", ok, time.perf_counter() - t0, 120)


def test_c06_conjugacy_suite():
    t0 = time.perf_counter()
    rng = random.Random(2024_06)
    ok = True
    for _ in range(100):
        x = random_surd(rng)
        quotients = cfe_expand(x, 50)
        ok = ok and cfe_expand(gauss_tau(x), 49) == quotients[1:]
        i = rng.randint(1, 9)
        ok = ok and cfe_expand(mobius_apply(cfe_step_matrix(i), x), 50) == (i,) + quotients[:49]
    _verdict("criterion 06: shift/prepend conjugacy, 100 surds x 50 quotients",
             ok, time.perf_counter() - t0, 10)


def _equivalence_pool():
    rng = random.Random(2024_07)
    return rng, [random_surd(rng, max_d=80) for _ in range(50)]


def test_c07_modular_equivalence_suite():
    t0 = time.perf_counter()
    rng, pool = _equivalence_pool()
    ok = True
    for x in pool:
        for _ in range(20):
            m = random_unimodular(rng)
            y = apply_and_reduce(m, x)
            ok = ok and in_omega(y)
            ok = ok and modular_equivalent(x, y)
            ok = ok and field_discriminant(x) == field_discriminant(y)
    _verdict("criterion 07: 50 surds x 20 unimodular maps", ok, time.perf_counter() - t0, 30)


def test_c08_correspondence():
    t0 = time.perf_counter()
    _, pool = _equivalence_pool()
    classes = [classify_surd(x) for x in pool]
    ok = all(isinstance(c, Cycle) for c in classes)
    for (x, cx), (y, cy) in itertools.combinations(zip(pool, classes), 2):
        ok = ok and (cx == cy) == modular_equivalent(x, y)
    _verdict("criterion 08: class labels match equivalence classes", ok,
             time.perf_counter() - t0, None)


def test_c09_cuntz_relations_and_word_oracle():
    t0 = time.perf_counter()
    ok = True
    for depth in range(1, 5):
        for alphabet in range(2, 5):
            ok = ok and verify_cuntz_relations(depth, alphabet) == []

    rng = random.Random(2024_09)

    def rand_word(max_len=4):
        return tuple(rng.randint(1, 4) for _ in range(rng.randint(0, max_len)))

    labels = []
    while len(labels) < 40:
        period = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        initial = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
        try:
            labels.append(PeriodicCFE(initial, period))
        except ValueError:
            continue

    for _ in range(10_000):
        u = WordOperator(rand_word(), rand_word())
        v = WordOperator(rand_word(), rand_word())
        product = word_op_mul(u, v)
        for lab in (labels[rng.randrange(len(labels))], labels[rng.randrange(len(labels))]):
            stepwise = apply_word_op(v, lab)
            if stepwise is not None:
                stepwise = apply_word_op(u, stepwise)
            ok = ok and apply_word_op(product, lab) == stepwise
    _verdict("criterion 09: relations depth<=4 alphabet<=4 + 10^4 product oracle",
             ok, time.perf_counter() - t0, 30)


def test_c10_pj_equivalence_exhaustive():
    t0 = time.perf_counter()
    primitives = [
        w
        for k in range(1, 5)
        for w in itertools.product((1, 2, 3), repeat=k)
        if is_primitive(w)
    ]
    ok = True
    for u in primitives:
        for v in primitives:
            brute = len(u) == len(v) and any(
                v == u[i:] + u[:i] for i in range(len(u))
            )
            ok = ok and (Cycle(u) == Cycle(v)) is brute
    _verdict("criterion 10: cycle equivalence vs rotation oracle (len<=4, alphabet 3)",
             ok, time.perf_counter() - t0, None)


def test_c11_cycle_split_residuals():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for k in range(1, 4):
        for j0 in itertools.product((1, 2, 3), repeat=k):
            if not is_primitive(j0):
                continue
            for n in range(2, 6):
                for entry in cycle_dft_split(j0, n):
                    if entry.residual is not None:
                        worst = max(worst, entry.residual)
                        ok = ok and entry.residual <= 1e-9
                    ok = ok and entry.verdict in ("pass", "reducible")
    print(f"      worst residual {worst:.3e}")
    _verdict("criterion 11: cycle splitting residuals <= 1e-9", ok,
             time.perf_counter() - t0, None)
