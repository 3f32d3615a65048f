import bisect
import copy
import itertools
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import FrozenInstanceError
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raised, random_surd, random_unimodular, unlimited
from cuntzfrac import (
    Chain,
    Cycle,
    NotIrrational,
    ParseError,
    PeriodicCFE,
    QuadraticSurd,
    UnimodularMatrix,
    WordOperator,
    ZeroDenominator,
    apply_and_reduce,
    approx_decimal,
    block_from_json,
    cfe_expand,
    cfe_periodic,
    classify_surd,
    cmp_int,
    cycle_dft_split,
    field_discriminant,
    floor_of,
    format_block,
    format_surd,
    gauss_tau,
    gp_vector_check,
    in_omega,
    intertwiner_check,
    mobius_apply,
    modular_equivalent,
    normalize,
    omega_class_label,
    parse_block,
    parse_surd,
    poly_discriminant,
    shift_by_int,
    squarefree_split,
    surd_from_cfe,
    surd_from_json,
    surd_to_json,
)
from cuntzfrac import surds, words
from cuntzfrac.cli import main
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

    def test_negative_radicand(self):
        with pytest.raises(ValueError, match="radicand must be positive"):
            normalize(1, 1, 1, -5)

    def test_never_equal_to_other_types(self):
        x = normalize(-1, 1, 2, 5)
        assert x.__eq__(1) is NotImplemented
        assert (x == 1) is False

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

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="needs n >= 1"):
            squarefree_split(0)

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

    def test_every_n_below_oracle_limit(self):
        bad = [n for n in range(1, ORACLE_LIMIT) if squarefree_split(n) != _oracle_split(n)]
        assert bad == []

    def test_two_large_prime_factors(self):
        # every prime beyond trial division: products below 1000**3 take the
        # square-root certificate, larger ones Miller-Rabin and Pollard-Brent
        rng = random.Random(31607)
        for _ in range(300):
            p, q = rng.sample(MID_PRIMES, 2)
            r = rng.choice(BIG_PRIMES)
            k = rng.choice((1, 2, 12, 360))
            ks, kf = _oracle_split(k)
            for n, s, f in ((p * q, 1, p * q), (p * p, p, 1), (p * p * q, p, q),
                            (p * r, 1, p * r), (r * r * q, r, q), (p * q * r, 1, p * q * r)):
                assert squarefree_split(k * n) == (ks * s, kf * f)

    def test_certificate_needs_no_primality_test(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"{n} went past the certificate")

        monkeypatch.setattr(surds, "_is_probable_prime", refuse)
        monkeypatch.setattr(surds, "_factor_into", refuse)
        split = squarefree_split.__wrapped__  # past the cache, which may hold these
        rng = random.Random(1009)
        for _ in range(300):
            p, q = rng.sample(MID_PRIMES, 2)
            if p * q < 1000 ** 3:
                assert split(8 * p * q) == (2, 2 * p * q)
            assert split(3 * p * p) == (p, 3)
            assert split(p) == (1, p)

    def test_cache_is_bounded(self):
        assert squarefree_split.cache_info().maxsize is not None


def _primes_below(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [i for i in range(limit) if flags[i]]


@pytest.fixture(scope="module")
def primes_below_10_6():
    return _primes_below(10**6)


def _refuse_factoring(monkeypatch) -> None:
    def refuse(n):
        raise AssertionError(f"{n} went past the certificate")

    for name in ("_is_probable_prime", "_factor_into", "_pollard_brent"):
        monkeypatch.setattr(surds, name, refuse)


class TestGcdCertificate:
    """Cofactors below 10**18 are split by gcds with no primality test."""

    def test_cofactor_shapes_against_construction(self, monkeypatch, primes_below_10_6):
        primes = primes_below_10_6
        past_trial = primes[bisect.bisect_left(primes, 1000):]

        def is_prime(n):
            # trial division by every prime below 10**6 decides n < 10**12
            return all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes))

        def next_prime(n, step):
            while not is_prime(n):
                n += step
            return n

        def pick(bound):
            return rng.choice(past_trial[: bisect.bisect_left(past_trial, bound)])

        rng = random.Random(10**18)
        cases = []  # (cofactor, s, f) with every prime factor above 1,000
        for _ in range(25):
            p = pick(rng.choice((10**4, 10**5, 999_000)))
            q = next_prime(p * p + 1, 1)  # p just below the cube root of p*q
            r = next_prime(p * p - 1, -1)  # p just above the cube root of p*r
            assert p**3 < p * q and p**3 > p * r
            cases += [(p * q, 1, p * q), (p * r, 1, p * r), (p**3, p, p)]
            p, q = pick(10**6), pick(10**6)
            cases.append((p * p * q, p, q) if p != q else (p**3, p, p))
            p, q = rng.sample(past_trial[: bisect.bisect_left(past_trial, 31623)], 2)
            cases.append((p * p * q * q, p * q, 1))
            p, q, r = rng.sample(past_trial, 3)
            cases.append((p * q * r, 1, p * q * r))
            quad = rng.sample(past_trial[: bisect.bisect_left(past_trial, 31623)], 4)
            cases.append((math.prod(quad), 1, math.prod(quad)))
        _refuse_factoring(monkeypatch)
        split = squarefree_split.__wrapped__  # past the cache, which may hold these
        for n, s, f in cases:
            assert 10**9 <= n < 10**18
            for k in (1, 2, 12, 360):
                ks, kf = _oracle_split(k)
                assert split(k * n) == (ks * s, kf * f)

    def test_boundary_of_the_certificate(self, monkeypatch):
        assert surds._CERTIFIED_BELOW == 10**18
        small = math.prod(p for p in range(2, 1000) if _LPF[p] == p)
        below = next(m for m in range(10**18 - 1, 0, -1) if math.gcd(m, small) == 1)
        above = next(m for m in itertools.count(10**18) if math.gcd(m, small) == 1)
        # the Miller-Rabin and Pollard-Brent path is the oracle for `below`
        exps: dict[int, int] = {}
        surds._factor_into(below, exps)
        expect = (math.prod(p ** (e // 2) for p, e in exps.items()),
                  math.prod(p for p, e in exps.items() if e % 2))
        _refuse_factoring(monkeypatch)
        split = squarefree_split.__wrapped__
        assert split(below) == expect
        assert split(10**18 - 1) == (9, (10**18 - 1) // 81)  # 3**4*7*11*13*19*37*52579*333667
        assert split(10**18) == (10**9, 1)
        # the last table prime, alone and cubed, sits right below the bound
        assert split(999_983**3) == (999_983, 999_983)
        with pytest.raises(AssertionError, match="went past the certificate"):
            split(above)

    def test_table_against_independent_sieve(self, primes_below_10_6):
        cached = surds._segment_product.cache_info
        split = squarefree_split.__wrapped__
        surds._segment_product.cache_clear()
        split(10**9 - 63)  # below 1000**3: no prime past 1,000 can be a cube root
        assert cached().currsize == 0
        split(1009**3)
        assert cached().currsize == 1  # built only as far as needed
        expected = primes_below_10_6[bisect.bisect_left(primes_below_10_6, 1000):]
        assert len(expected) == 78_330
        width = surds._WINDOW
        assert len(range(1000, 10**6, width)) == 244
        for k, lo in enumerate(range(1000, 10**6, width)):
            i, j = bisect.bisect_left(expected, lo), bisect.bisect_left(expected, lo + width)
            assert surds._segment_product.__wrapped__(k) == math.prod(expected[i:j])
        assert surds._SMALL_PRODUCT == math.prod(p for p in range(2, 1000) if _LPF[p] == p)

    def test_table_grows_once_under_threads(self):
        rng = random.Random(4096)
        cases = [(p * p * q, p, q) for p, q in (rng.sample(MID_PRIMES, 2) for _ in range(200))]
        cases += [(999_983**3, 999_983, 999_983)]
        split = squarefree_split.__wrapped__
        results = {}

        def run(chunk):
            for n, s, f in chunk:
                results[n] = (split(n), (s, f))

        surds._segment_product.cache_clear()
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(cases[i::4],)) for i in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(saved)
        assert len(results) == len(cases)
        assert all(got == want for got, want in results.values())
        # each window is stored once, and what is stored is its product
        info = surds._segment_product.cache_info()
        assert info.currsize == 244
        for k in range(244):
            assert surds._segment_product(k) == surds._segment_product.__wrapped__(k)
        assert surds._segment_product.cache_info().misses == info.misses

    def test_nothing_is_built_at_import(self):
        code = "import cuntzfrac.surds as s; assert s._segment_product.cache_info().currsize == 0"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(surds.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60, env=env)
        assert done.returncode == 0, done.stderr


class TestPrimePowers:
    # each prime of a Pollard-Brent factor is divided out to its full power,
    # so p**e costs one run, not e runs on numbers of full size
    P, Q = 1_000_003, 1_000_033

    @pytest.mark.parametrize("e", [3, 7, 51, 101, 201])
    def test_split_is_exact(self, e):
        split = squarefree_split.__wrapped__  # past the cache
        start = time.perf_counter()
        assert split(self.P**e * 6) == (self.P ** (e // 2), 6 * self.P ** (e % 2))
        # about 0.6 s at e = 201; one run per exponent level took about 5 s
        assert time.perf_counter() - start < 4

    def test_factor_into_counts_every_exponent(self):
        for e, k in ((5, 3), (21, 2), (40, 17)):
            exps: dict[int, int] = {}
            surds._factor_into(self.P**e * self.Q**k, exps)
            assert exps == {self.P: e, self.Q: k}


class TestMillerRabin:
    # the least strong pseudoprime to all prime bases up to 37
    P, Q = 399165290221, 798330580441

    def test_pseudoprime_to_bases_below_41_is_composite(self):
        assert self.P * self.Q == 318665857834031151167461
        assert not surds._is_probable_prime(self.P * self.Q)
        assert surds._is_probable_prime(self.P) and surds._is_probable_prime(self.Q)

    def test_square_times_prime_splits(self):
        assert squarefree_split.__wrapped__(self.P * self.P * self.Q) == (self.P, self.Q)


ORACLE_LIMIT = 2 * 10**5


def _least_prime_factors(limit: int) -> list[int]:
    lpf = list(range(limit))
    for i in range(2, math.isqrt(limit - 1) + 1):
        if lpf[i] == i:
            for j in range(i * i, limit, i):
                if lpf[j] == j:
                    lpf[j] = i
    return lpf


_LPF = _least_prime_factors(ORACLE_LIMIT)
# primes past trial division whose squares stay below 1000**3
MID_PRIMES = [p for p in range(1009, 31608) if _LPF[p] == p]
BIG_PRIMES = [p for p in range(10**5, ORACLE_LIMIT) if _LPF[p] == p]


def _oracle_split(n: int) -> tuple[int, int]:
    # (s, f) with n = s*s*f, f squarefree, from a least-prime-factor table
    s = f = 1
    while n > 1:
        p, e = _LPF[n], 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        f *= p ** (e % 2)
    return s, f


SQUAREFREE = [f for f in range(2, 400) if _oracle_split(f)[0] == 1]


def _linear_peel(m, h, s, f):
    """surds._peel before repeated squaring: one gcd per exponent level."""
    m //= h
    k = 1
    while h > 1:
        deeper = math.gcd(m, h)
        exact = h // deeper
        s *= exact ** (k // 2)
        if k % 2:
            f *= exact
        m //= deeper
        h = deeper
        k += 1
    return m, s, f


class _CountingMath:
    def __init__(self):
        self.gcds = 0

    def gcd(self, *args):
        self.gcds += 1
        return math.gcd(*args)

    def __getattr__(self, name):
        return getattr(math, name)


class TestPeelBySquaring:
    P7 = 1_000_003  # a 7-digit prime
    # small cofactors as (c, product of the primes of c)
    COFACTORS = ((1, 1), (5, 5), (12, 6), (45, 15), (1001, 1001), (2**3 * 3**5 * 7, 42),
                 (999_983, 999_983), (1_000_003**2 * 11, 1_000_003 * 11))

    def test_matches_the_linear_ladder(self):
        for p in (2, 3, self.P7):
            for e in range(1, 301):
                for i, (c, rad) in enumerate(self.COFACTORS):
                    # every prime of n at once, or p alone on top of a partial split
                    n = p**e * c
                    h, s, f = (math.lcm(p, rad), 1, 1) if (e + i) % 2 else (p, 5, 7)
                    assert surds._peel(n, h, s, f) == _linear_peel(n, h, s, f), (p, e, c)

    def test_split_matches_the_linear_ladder(self):
        split = squarefree_split.__wrapped__  # past the cache
        for p in (2, 3):
            for e in range(1, 301):
                for c, rad in self.COFACTORS[:6]:
                    n = p**e * c
                    assert split(n) == _linear_peel(n, math.lcm(p, rad), 1, 1)[1:], (p, e, c)

    def test_gcds_logarithmic_in_the_exponent(self, monkeypatch):
        counter = _CountingMath()
        monkeypatch.setattr(surds, "math", counter)
        # one gcd for the all-exponents-one test, then two per level each way;
        # the linear ladder took one per exponent
        for e in (1, 2, 3, 7, 8, 64, 255, 256, 300, 1000):
            counter.gcds = 0
            n = 2**e * 3**2 * 5
            assert surds._peel(n, 30, 1, 1) == _linear_peel(n, 30, 1, 1)
            assert counter.gcds <= 1 + 4 * max(e, 2).bit_length(), e


class TestLazyCanonicalForm:
    def test_square_factors_are_pulled_out_only_when_read(self):
        rng = random.Random(4096)
        for _ in range(400):
            f, s = rng.choice(SQUAREFREE), rng.randint(2, 60)
            a, b = rng.randint(-500, 500), rng.choice([-1, 1]) * rng.randint(1, 50)
            c = rng.choice([-1, 1]) * rng.randint(1, 500)
            x = normalize(a, b, c, s * s * f)
            y = normalize(a, b * s, c, f)
            assert x == y and hash(x) == hash(y)
            assert normalize(a, -b, c, s * s * f) != x  # the conjugate
            # the canonical form, as normalize built it when it factored eagerly
            sign = 1 if c > 0 else -1
            g = math.gcd(a, b * s, c)
            ca, cb, cc = sign * a // g, sign * b * s // g, abs(c) // g
            assert (x.a, x.b, x.c, x.d) == (ca, cb, cc, f)
            assert x == QuadraticSurd(ca, cb, cc, f) and hash(x) == hash(QuadraticSurd(ca, cb, cc, f))
            assert str(x) == format_surd(x) == f"({ca}{cb:+d}*sqrt({f}))/{cc}"
            assert repr(x) == f"QuadraticSurd(a={ca}, b={cb}, c={cc}, d={f})"
            assert surd_to_json(x) == {"a": str(ca), "b": str(cb), "c": str(cc), "d": str(f)}

    def test_immutable_and_copyable(self):
        x = normalize(0, 1, 1, 8)
        with pytest.raises(FrozenInstanceError):
            x.a = 1
        with pytest.raises(FrozenInstanceError):
            del x.d
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert y == x and (y.a, y.b, y.c, y.d) == (0, 2, 1, 2)


# the product of two 20-digit primes: factoring it takes hours
TWO_PRIMES = 300000000000000001940000000000000002091


class TestNoFactoring:
    def test_core_never_factors(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(surds, "squarefree_split", refuse)
        r = math.isqrt(TWO_PRIMES)
        big = parse_surd(f"(-{r}+1*sqrt({TWO_PRIMES}))/1")
        x = parse_surd("(-3+1*sqrt(20))/2")  # (-3+2*sqrt(5))/2 once factored
        assert x == normalize(-3, 2, 2, 5) and hash(x) == hash(normalize(-3, 2, 2, 5))
        assert x != normalize(-3, -2, 2, 5)
        assert len({x, normalize(-6, 4, 4, 5), normalize(-3, 1, 2, 20)}) == 1
        assert cfe_expand(big, 8) == (3, 1, 1, 1, 1, 8, 1, 1)
        tau = gauss_tau(big)
        assert cfe_expand(tau, 7) == (1, 1, 1, 1, 8, 1, 1)
        assert approx_decimal(big, 30) == "0." + str(math.isqrt(TWO_PRIMES * 10**60) - r * 10**30).zfill(30)
        assert not modular_equivalent(big, x)  # the period of big is far too long to expand
        assert modular_equivalent(x, normalize(-3, 2, 2, 5))
        assert intertwiner_check(big, 3, 8)
        e = cfe_periodic(x)
        assert e == cfe_periodic(normalize(-3, 2, 2, 5))
        assert surd_from_cfe(e) == x
        assert omega_class_label(x) == omega_class_label(gauss_tau(x))
        assert classify_surd(x).word == omega_class_label(x)


class TestDomainErrorMessage:
    # every check of the open unit interval shows the value as stored, so the
    # error path never factors the radicand
    CHECKS = {
        "gauss_tau": gauss_tau,
        "cfe_expand": lambda x: cfe_expand(x, 3),
        "cfe_periodic": cfe_periodic,
        "classify_surd": classify_surd,
        "intertwiner_check": lambda x: intertwiner_check(x, 1, 3),
        "modular_equivalent": lambda x: modular_equivalent(normalize(-1, 1, 2, 5), x),
        "apply_and_reduce": lambda x: apply_and_reduce(UnimodularMatrix.identity(), x),
        "omega_class_label": omega_class_label,
    }

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_message_needs_no_factoring(self, name, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(surds, "squarefree_split", refuse)
        big = f"(1+1*sqrt({TWO_PRIMES}))/1"
        with pytest.raises(DomainError, match=re.escape(f"{big} is not inside (0, 1)")):
            self.CHECKS[name](parse_surd(big))
        # square factors stay in the message as the value was given
        with pytest.raises(DomainError, match=re.escape("(3+1*sqrt(8))/1 is not inside (0, 1)")):
            self.CHECKS[name](parse_surd("(3+1*sqrt(8))/1"))

    def test_squarefree_radicand_prints_canonical_form(self):
        x = parse_surd("(6+4*sqrt(5))/2")
        with pytest.raises(DomainError, match=re.escape(f"{format_surd(x)} is not inside (0, 1)")):
            gauss_tau(x)


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

    def test_raw_rational_value_raises(self):
        # (1 + sqrt(1))/4 = 1/2, built raw past normalize: its reciprocal has
        # no denominator, and the floor of the image divides by it
        with pytest.raises(ZeroDivisionError):
            gauss_tau(QuadraticSurd(1, 1, 4, 1))


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


def _sign_linear(a, b, d):
    """Sign of a + b*sqrt(d) by squaring alone, with no square root taken;
    b*b*d must not be a perfect square unless b == 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        if a >= 0:
            return 1
        return 1 if b * b * d > a * a else -1
    return -_sign_linear(-a, -b, d)


def _oracle_cmp(x, k):
    # sign of x - k read off the stored coefficients (c > 0), so a large
    # radicand is never factored
    return _sign_linear(x._a - k * x._c, x._b, x._d)


class TestOrdering:
    def test_cmp_int(self):
        x = normalize(-1, 1, 2, 5)
        assert cmp_int(x, 0) > 0
        assert cmp_int(x, 1) < 0
        assert in_omega(x)
        assert not in_omega(normalize(1, 1, 2, 5))

    def _check_against_oracle(self, x):
        f = floor_of(x)
        for k in range(f - 3, f + 4):
            assert cmp_int(x, k) == _oracle_cmp(x, k)
        assert in_omega(x) == (_oracle_cmp(x, 0) > 0 and _oracle_cmp(x, 1) < 0)

    def test_against_sign_oracle(self):
        rng = random.Random(630)
        negative_b = scaled = square_part = 0
        for i in range(600):
            x = shift_by_int(random_surd(rng, max_d=150 if i % 3 else 10**5), rng.randint(-4, 4))
            if i % 2:
                # the stored radicand keeps a square factor
                s = rng.randint(2, 6)
                x = normalize(x._a, x._b, x._c * s, x._d * s * s)
                square_part += 1
            negative_b += x._b < 0
            p, q = (x._a, x._c) if x._b > 0 else (-x._a, -x._c)
            scaled += (x._b * x._b * x._d - p * p) % q != 0
            self._check_against_oracle(x)
        assert negative_b > 100 and scaled > 100 and square_part > 100

    def test_large_numerator_and_denominator(self):
        # a and c of about 31,872 bits with b = 1: the surd that solve returns
        # for the block 9,...,9,(1) with 5,000 nines
        x = surd_from_cfe(parse_block("9," * 5000 + "(1)"))
        assert x._b == 1 and x._a.bit_length() > 31_000 and x._c.bit_length() > 31_000
        assert in_omega(x)
        self._check_against_oracle(x)
        self._check_against_oracle(shift_by_int(x, -7))

    def test_large_radicand_coefficient(self):
        # b and d of 30,000 bits each
        rng = random.Random(631)
        b = rng.getrandbits(30_000) | 1 << 29_999
        d = rng.getrandbits(30_000) | 1 << 29_999 | 1
        while math.isqrt(d) ** 2 == d:
            d += 2
        for sign in (1, -1):
            x = normalize(rng.randint(-10**6, 10**6), sign * b, rng.randint(1, 10**6), d)
            self._check_against_oracle(x)
            y = shift_by_int(x, -floor_of(x))
            assert in_omega(y)
            self._check_against_oracle(y)


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

    @pytest.mark.parametrize("space", ["\t", "\n", "\x1c", "\xa0", "\u3000", " "])
    def test_whitespace_as_the_regex_strips_it(self, space):
        def regex_parse(text):
            m = surds._SURD_RE.match(re.sub(r"\s+", "", text))
            if not m:
                raise ParseError(f"not a surd literal: {text!r}")
            a, b, d, c = (int(g) for g in m.groups())
            return normalize(a, b, c, d)

        def outcome(parse, text):
            try:
                return parse(text)
            except ValueError as exc:
                return f"{type(exc).__name__}: {exc}"

        for literal in ("(-1+1*sqrt(5))/2", "(3-2*sqrt(12))/-4", "(1+0*sqrt(5))/2", "(1+1*sqrt5)/2"):
            for at in range(len(literal) + 1):
                for text in (literal[:at] + space + literal[at:], literal[:at] + space * 3 + literal[at:]):
                    assert outcome(parse_surd, text) == outcome(regex_parse, text), text

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

    @pytest.mark.parametrize("bad", [-1.7, 5.2, 1.0, True, False, None, "1_000"])
    def test_json_rejects_non_integers(self, bad):
        # int() would truncate -1.7 to -1, read True as 1 and "1_000" as 1000
        for key in "abcd":
            obj = {"a": -1, "b": 1, "c": 2, "d": 5, key: bad}
            with pytest.raises(ParseError):
                surd_from_json(obj)

    def test_json_accepts_int_and_decimal_text(self):
        x = normalize(-1, 1, 2, 5)
        assert surd_from_json({"a": -1, "b": "1", "c": 2, "d": "5"}) == x
        assert surd_from_json({"a": "-1", "b": 1, "c": "2", "d": 5}) == x


class TestApproxDecimal:
    def test_golden_digits(self):
        x = normalize(-1, 1, 2, 5)
        assert approx_decimal(x, 10) == "0.6180339887"

    def test_negative_value(self):
        x = normalize(0, -1, 2, 2)  # -sqrt(2)/2 = -0.7071...
        assert approx_decimal(x, 4) == "-0.7072"  # truncated toward -inf

    def test_zero_digits(self):
        assert approx_decimal(normalize(0, 1, 1, 2), 0) == "1"

    def test_negative_digits(self):
        with pytest.raises(ValueError, match="digits must be >= 0"):
            approx_decimal(normalize(0, 1, 1, 2), -1)


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

    @pytest.mark.parametrize("n", [10**5000 + 7, 10**50_005 + 12_345], ids=["5001", "50006"])
    def test_no_codec_changes_the_limit(self, digit_limit, n):
        # every codec of the README's "Large integers" paragraph, at 5,001 and
        # 50,006 digits: right answers under the default limit, which nothing
        # sets, and whose text never passes it
        t, t2 = unlimited(str, n), unlimited(str, 2 * n + 1)
        x = normalize(n, 3, 2 * n + 1, 5)
        text, obj = f"({t}+3*sqrt(5))/{t2}", {"a": t, "b": "3", "c": t2, "d": "5"}
        assert format_surd(x) == text and parse_surd(text) == x
        assert surd_to_json(x) == obj and surd_from_json(obj) == x
        golden = normalize(-1, 1, 2, 5)
        assert approx_decimal(golden, len(t)) == unlimited(approx_decimal, golden, len(t))
        e = PeriodicCFE((n, 3), (1, n))
        assert format_block(e) == f"{t},3,(1,{t})" and parse_block(f"{t},3,(1,{t})") == e
        assert block_from_json({"initial": [t, "3"], "period": ["1", t]}) == e
        assert str(Cycle((n, 1))) == f"P(1,{t})"
        assert str(Chain((n,))) == f"P({t},...)"
        assert str(WordOperator((n,), (2,))) == f"s[{t}]s[2]*"
        assert [c.instance for c in gp_vector_check((n,))] == [f"J=({t})", f"J=({t}),labels=1/1"]
        assert cycle_dft_split((n,), 2)[-1].instance == f"J=({t})^2"
        assert digit_limit == []
        assert sys.get_int_max_str_digits() == 4_300

    def test_json_strings_past_the_limit(self, digit_limit):
        # what int() reads, a signed run of decimal digits inside whitespace,
        # decodes past the limit as it does with the limit lifted
        t = "1" + "0" * 5000 + "7"
        for s in (f" -{t}\n", f"+{t}", f"\t{t} ", "0" * 5000 + "7", "\u0663" * 5001):
            obj = {"a": s, "b": "3", "c": "2", "d": "5"}
            assert surd_from_json(obj) == unlimited(surd_from_json, obj)
            obj = {"initial": [s.replace("-", "+"), "2"], "period": ["1"]}
            assert block_from_json(obj) == unlimited(block_from_json, obj)
        assert digit_limit == []

    def test_error_texts_past_the_limit(self, digit_limit):
        # malformed strings, and malformed objects that hold ints past the
        # limit, raise what they raise with the limit lifted, text and all
        t, n = "1" + "0" * 5000 + "7", 10**5000 + 7
        for s in (f"- {t}", f"{t} 1", f"++{t}", f"{t}x", f"{t}.0", "", " "):
            for fn, obj in ((surd_from_json, {"a": s, "b": "3", "c": "2", "d": "5"}),
                            (block_from_json, {"initial": [s], "period": ["1"]})):
                assert raised(fn, obj) == unlimited(raised, fn, obj)
        for fn, arg in ((surd_from_json, {"a": n, "b": 1, "c": 1, "d": -2}),
                        (surd_from_json, {"a": n, "b": 0, "c": 1, "d": n}),
                        (block_from_json, {"initial": [n], "period": []}),
                        (block_from_json, {"initial": (n,), "period": [0]}),
                        (parse_surd, f"(1+0*sqrt({t}))/1"),
                        (parse_surd, f"(1+1*sqrt({unlimited(str, n * n)}))/1"),
                        (gp_vector_check, (n, n))):
            assert raised(fn, arg) == unlimited(raised, fn, arg)
        assert digit_limit == []

    def test_error_paths_run_once(self, digit_limit, monkeypatch, tmp_path):
        # a codec that fails raises from its one run, in library code and in
        # the command line, which lifts the limit once for the whole command
        calls = []
        entries = words._entries
        monkeypatch.setattr(words, "_entries", lambda parts: calls.append(parts) or entries(parts))
        with pytest.raises(ParseError, match="partial quotients must be >= 1"):
            parse_block("(1,0)")
        assert calls == [[], ["1", "0"]]
        assert digit_limit == []
        calls.clear()
        corpus = tmp_path / "errors.txt"
        corpus.write_text("".join(f"(1,{k},0)\n" for k in range(1, 1_001)))
        assert main(["corpus", str(corpus), "solve"]) == 1
        results = json.loads((tmp_path / "errors.txt.results.json").read_text())
        assert [r["status"] for r in results] == ["error"] * 1_000
        assert len(calls) == 2 * 1_000
        assert digit_limit == [0, 4_300]

    def test_limit_is_restored(self, digit_limit):
        # the limit is as it was: no codec changes it, on success or error
        format_surd(self._big())
        approx_decimal(self._big(), 5_000)
        with pytest.raises(ParseError):
            parse_surd(f"({BIG_A}+3*sqrt(5)/{BIG_C}")
        assert digit_limit == []
        assert sys.get_int_max_str_digits() == 4_300

    def test_limit_is_restored_under_threads(self, digit_limit):
        # threads convert 5,001-digit numbers at once under the default limit,
        # switching every microsecond; each gets the right answers, and the
        # limit is never changed
        x = normalize(10**5000, 1, 1, 2)
        block = PeriodicCFE((), (10**5000, 1))
        approx, text = unlimited(approx_decimal, x, 20), unlimited(format_block, block)
        errors = []

        def work():
            try:
                for _ in range(200):
                    assert approx_decimal(x, 20) == approx
                    assert format_block(block) == text
                    assert parse_block(text) == block
            except Exception as exc:
                errors.append(exc)

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(saved)
        assert errors == []
        assert digit_limit == []
        assert sys.get_int_max_str_digits() == 4_300
