import math
import random
import sys

import pytest

from cuntzfrac import (
    QuadraticSurd,
    UnimodularMatrix,
    floor_of,
    in_omega,
    normalize,
    shift_by_int,
)


def random_surd(rng: random.Random, max_d: int = 150) -> QuadraticSurd:
    """Random quadratic irrational reduced into (0, 1)."""
    while True:
        d = rng.randint(2, max_d)
        if math.isqrt(d) ** 2 == d:
            continue
        b = rng.choice([-1, 1]) * rng.randint(1, 9)
        a = rng.randint(-60, 60)
        c = rng.randint(1, 30)
        x = normalize(a, b, c, d)
        x = shift_by_int(x, -floor_of(x))
        assert in_omega(x)
        return x


def brute_min_rotation(w):
    """Least rotation of a word by trying every start: the oracle of the
    least-rotation code and of the class labels."""
    return min(w[i:] + w[:i] for i in range(len(w)))


def fresh(x: QuadraticSurd) -> QuadraticSurd:
    """A value equal to x that keeps nothing computed on x, so cfe_periodic
    walks it even when x came from surd_from_cfe and carries its block."""
    return QuadraticSurd(x._a, x._b, x._c, x._d)


_SHEAR = UnimodularMatrix(1, 1, 0, 1)
_SWAP = UnimodularMatrix(0, 1, 1, 0)


def random_unimodular(rng: random.Random, max_len: int = 10) -> UnimodularMatrix:
    """Product of up to max_len generators of the integer Moebius group."""
    m = UnimodularMatrix.identity()
    for _ in range(rng.randint(1, max_len)):
        m = m @ (_SHEAR if rng.random() < 0.5 else _SWAP)
    return m


# the real setter, kept before any test replaces it with a spy
_set_limit = getattr(sys, "set_int_max_str_digits", None)


def unlimited(fn, *args):
    """fn(*args) with CPython's int<->str digit limit lifted: the reference
    that conversions under the limit are checked against."""
    if _set_limit is None:
        return fn(*args)
    saved = sys.get_int_max_str_digits()
    _set_limit(0)
    try:
        return fn(*args)
    finally:
        _set_limit(saved)


def raised(fn, *args):
    """The type and text of the exception that fn(*args) raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.type, str(info.value)


@pytest.fixture
def digit_limit(monkeypatch):
    """The digit limit at CPython's default of 4,300, restored afterwards;
    yields the list of the values that anything sets it to meanwhile."""
    if _set_limit is None:
        pytest.skip("no int<->str digit limit")
    saved = sys.get_int_max_str_digits()
    _set_limit(4_300)
    calls = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: calls.append(n) or _set_limit(n))
    try:
        yield calls
    finally:
        _set_limit(saved)


@pytest.fixture(params=[640, 4_300])
def limit(request):
    """The digit limit at 640, the lowest CPython accepts, and at 4,300, its
    default; restored afterwards."""
    if _set_limit is None:
        pytest.skip("no int<->str digit limit")
    saved = sys.get_int_max_str_digits()
    _set_limit(request.param)
    yield request.param
    _set_limit(saved)
