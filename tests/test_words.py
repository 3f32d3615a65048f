import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_min_rotation, unlimited
from cuntzfrac import words
from cuntzfrac.words import (
    _CUT_FROM,
    _ENTRY,
    _TEXT,
    _digits,
    _entries,
    _joined,
    _number,
    _scan,
    _shown,
    canonical_rotation,
    failure_function,
    is_primitive,
    least_rotation_index,
    primitive_root_length,
)

small_words = st.lists(st.integers(1, 4), min_size=1, max_size=9).map(tuple)


def smallest_least_rotation(w):
    # index oracle: among the starts of the least rotation, the smallest
    return min(range(len(w)), key=lambda k: (w[k:] + w[:k], k))


def brute_primitive(w):
    return all(w[i:] + w[:i] != w for i in range(1, len(w)))


@settings(max_examples=300, deadline=None)
@given(small_words)
def test_canonical_rotation_matches_brute_force(w):
    assert canonical_rotation(w) == brute_min_rotation(w)


@settings(max_examples=300, deadline=None)
@given(small_words)
def test_primitivity_matches_brute_force(w):
    assert is_primitive(w) == brute_primitive(w)


def test_exhaustive_small_alphabet():
    for n in range(1, 6):
        for w in itertools.product((1, 2, 3), repeat=n):
            assert canonical_rotation(w) == brute_min_rotation(w)
            assert is_primitive(w) == brute_primitive(w)


def test_primitive_root_length():
    assert primitive_root_length((1, 2, 1, 2)) == 2
    assert primitive_root_length((1, 1, 1)) == 1
    assert primitive_root_length((1, 2, 3)) == 3
    assert primitive_root_length((1, 2, 1)) == 3
    with pytest.raises(ValueError, match="empty word has no primitive root"):
        primitive_root_length(())


def _border_root_length(w):
    # oracle: the shortest period n - f[-1] is the root length when it divides n
    p = len(w) - failure_function(w)[-1]
    return p if len(w) % p == 0 else len(w)


def test_primitive_root_length_matches_border_table():
    for n in range(1, 13):
        for w in itertools.product((1, 2), repeat=n):
            assert primitive_root_length(w) == _border_root_length(w)
    rng = random.Random(73)
    for _ in range(2000):
        u = tuple(rng.randint(1, rng.choice((1, 2, 3, 9))) for _ in range(rng.randint(1, 30)))
        w = u * rng.choice((1, 2, 3, 4, 6, 8, 12, 30, 49))
        if rng.random() < 0.3:  # an almost-power: one symbol changed
            i = rng.randrange(len(w))
            w = w[:i] + (w[i] % 9 + 1,) + w[i + 1:]
        assert primitive_root_length(w) == _border_root_length(w)
    # many distinct prime factors of the length: 72072 = 2^3 * 3^2 * 7 * 11 * 13
    u = tuple(rng.randint(1, 9) for _ in range(72072 // (4 * 3 * 7 * 13)))
    for w in (u * (4 * 3 * 7 * 13), tuple(rng.randint(1, 9) for _ in range(72072))):
        assert primitive_root_length(w) == _border_root_length(w)


def test_primitive_root_length_head_test():
    # near-powers of short roots over {1, 2}, so that candidate periods t leave
    # tails n - t both shorter and longer than the 64 entries compared first
    rng = random.Random(3203)
    short = long = 0
    for i in range(50_000):
        u = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 8)))
        w = u * rng.randint(1, 60)
        if i % 2:
            j = rng.randrange(len(w))
            w = w[:j] + (3 - w[j],) + w[j + 1:]
        r = _border_root_length(w)
        short += len(w) - r < 64 < len(w)
        long += len(w) - r > 64
        assert primitive_root_length(w) == r
    assert short > 1000 and long > 1000


def test_failure_function():
    assert failure_function((1, 2, 1, 2, 1)) == [0, 0, 1, 2, 3]
    assert failure_function((1,)) == [0]


def test_least_rotation_index_examples():
    assert least_rotation_index((2, 3, 1)) == 2
    assert least_rotation_index((3, 1, 2)) == 1
    assert least_rotation_index((1,)) == 0


def test_least_rotation_index_every_short_word():
    assert least_rotation_index(()) == 0
    assert canonical_rotation(()) == ()
    for alphabet, max_len in (((1, 2), 10), ((1, 2, 3), 7)):
        for n in range(1, max_len + 1):
            for w in itertools.product(alphabet, repeat=n):
                assert least_rotation_index(w) == smallest_least_rotation(w), w


def _fibonacci_word(n):
    a, b = (1,), (1, 2)
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _thue_morse_word(n):
    return tuple(1 + bin(i).count("1") % 2 for i in range(n))


_N = 2000
_rng = random.Random(97)
LONG_WORDS = {
    "1^(n-1)2": (1,) * (_N - 1) + (2,),
    "21^(n-1)": (2,) + (1,) * (_N - 1),
    "(12)^k1": (1, 2) * (_N // 2) + (1,),
    "(112)^k": (1, 1, 2) * (_N // 3),
    "fibonacci": _fibonacci_word(_N),
    "thue-morse": _thue_morse_word(_N),
    "random-1-2": tuple(_rng.randint(1, 2) for _ in range(_N)),
    "random-1-1e6": tuple(_rng.randint(1, 10**6) for _ in range(_N)),
}


@pytest.mark.parametrize("name", sorted(LONG_WORDS))
def test_least_rotation_index_long_words(name):
    # words whose scans skip far ahead, restart often, or never mismatch
    w = LONG_WORDS[name]
    assert least_rotation_index(w) == smallest_least_rotation(w)


# ---------------------------------------------------------------------------
# long words are cut at the runs of their least entry and solved in str
# methods; the scan and smallest_least_rotation are the oracles

def _cut_path(monkeypatch, w):
    # the answer, and whether w was cut: the scan never saw all of it
    lengths = []
    monkeypatch.setattr(words, "_scan", lambda v: lengths.append(len(v)) or _scan(v))
    got = least_rotation_index(w)
    monkeypatch.undo()
    assert all(n < _CUT_FROM for n in lengths if n != len(w))
    return got, len(w) not in lengths


def test_cut_at_the_threshold(monkeypatch):
    rng = random.Random(11)
    for n in (_CUT_FROM - 1, _CUT_FROM, _CUT_FROM + 1):
        for low, top in ((1, 2), (1, 3), (1, 9), (1, 10**6), (0, 2), (5, 9)):
            for _ in range(40):
                w = tuple(rng.randint(low, top) for _ in range(n))
                got, cut = _cut_path(monkeypatch, w)
                assert got == smallest_least_rotation(w) == _scan(w), w
                assert cut == (n >= _CUT_FROM)


def test_cut_matches_scan_on_random_words():
    rng = random.Random(12)
    for top in (2, 9, 10**6):
        for n in (300, 1000, 3000, 10_000):
            for _ in range(4):
                w = tuple(rng.randint(1, top) for _ in range(n))
                assert least_rotation_index(w) == _scan(w)
        w = tuple(rng.randint(1, top) for _ in range(2000))
        assert least_rotation_index(w) == smallest_least_rotation(w)


def test_cut_gives_the_smallest_start_of_a_power():
    rng = random.Random(13)
    for _ in range(150):
        u = tuple(rng.randint(1, rng.choice((2, 3, 9))) for _ in range(rng.randint(1, 90)))
        k = rng.randint(2, 3 * _CUT_FROM // len(u) + 2)
        for w in (u * k, u[3:] + u * (k - 1) + u[:3]):
            assert least_rotation_index(w) == smallest_least_rotation(w) < len(u), (u, k)


def _run_word(rng, n, run_max):
    # runs of the least entry 1 of random lengths between larger entries
    w = []
    while len(w) < n:
        w += [1] * rng.randint(1, run_max) + [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
    return tuple(w[:n])


def _after_runs(rng, n, run, top):
    # each random entry after a run of `run` 1's: with run 1 the first cut
    # leaves only one-entry tails
    return tuple(itertools.chain.from_iterable((1,) * run + (rng.randint(2, top),) for _ in range(n // (run + 1))))


@pytest.mark.parametrize("n", [_CUT_FROM, 1000, 10_000])
def test_cut_on_periodic_and_run_families(n):
    rng = random.Random(n)
    k = n // 3
    family = [
        (1, 2) * ((n - 2) // 2) + (1, 3),
        (1, 1, 2) * ((n - 4) // 3) + (1, 1, 2, 2),
        (1,) * (n - 1) + (2,),
        (2,) + (1,) * (n - 1),
        (1,) * n,
        # the longest run wraps around the end of the word
        (1,) * k + (2,) + (3, 1) * (k // 2) + (1,) * (k // 3),
        (1,) * 5 + (2, 1, 1, 3) * (n // 4) + (1,) * 4,
        (1,) * 4 + (2,) + (1,) * 3 + (2,) * 3 + (1, 3) * (n // 2),
        _run_word(rng, n, 3), _run_word(rng, n, 40), _run_word(rng, n, n // 4),
        _thue_morse_word(n), _fibonacci_word(n),
        _after_runs(rng, n, 1, 9), _after_runs(rng, n, 2, 10**6),
        # one tail longer than the rest
        (1, 2) * ((n - 4) // 2) + (1, 3, 3, 2),
    ]
    oracle = smallest_least_rotation if n <= 1000 else _scan
    for w in family:
        assert least_rotation_index(w) == oracle(w), w[:20]
        for r in (1, len(w) // 2, len(w) - 1):
            v = w[r:] + w[:r]
            assert least_rotation_index(v) == _scan(v)


def test_entries_no_code_point_holds_take_the_scan(monkeypatch):
    n = 2 * _CUT_FROM
    rng = random.Random(14)
    fits = [0x10FFFF, 0x10FFFE, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xD7FF, 0xE000, 0]
    for big, on_cut in [(0x10FFFF, True), (0xDFFF, True), (0x110000, False), (2**32 - 1, False),
                        (2**32, False), (10**30, False), (-1, False)]:
        for w in (tuple(rng.choice((big, *fits)) for _ in range(n)),
                  (big,) * (n - 1) + (0xDABC,), (0xD800, big) * (n // 2)):
            got, cut = _cut_path(monkeypatch, w)
            assert got == smallest_least_rotation(w) == _scan(w)
            assert cut == on_cut


def test_words_too_long_to_rank_take_the_scan(monkeypatch):
    # a word of 0x220000 entries can have 0x110000 tails, and a rank that
    # large is no code point
    w = (1,) * (0x220000 - 1) + (2,)
    assert _cut_path(monkeypatch, w) == (0, False)
    assert _cut_path(monkeypatch, w[2:]) == (0, True)


def test_cut_stays_within_twice_the_scan():
    # not a speed claim, a guard against a search that goes quadratic: on
    # (112)^k1122 the cut is faster than the scan, so twice the scan, best of
    # three interleaved runs in this process, leaves room for noise
    w = (1, 1, 2) * 33_332 + (1, 1, 2, 2)
    cut, scan = [], []
    for _ in range(3):
        for f, times in ((least_rotation_index, cut), (_scan, scan)):
            start = time.process_time()
            assert f(w) == 0
            times.append(time.process_time() - start)
    assert min(cut) < 2 * min(scan)


# ---------------------------------------------------------------------------
# word text: the oracle is the conversion the tables replace

@pytest.mark.parametrize(
    "w", [(1,), (1023,), (1024,), (1025,), (10**30,), (1, 1023, 1024, 1025, 10**30, 7)]
)
def test_word_text_matches_str_and_int(w):
    text = _joined(w)
    assert text == ",".join(map(str, w))
    assert _entries(text.split(",")) == tuple(map(int, text.split(","))) == w


def test_entries_read_what_isdecimal_admits():
    parts = ["٣", "007", "01", "01023", "1024", "٠٠٢"]
    assert all(map(str.isdecimal, parts))
    assert _entries(parts) == tuple(map(int, parts)) == (3, 7, 1, 1023, 1024, 2)


@pytest.mark.parametrize("part", [" 5", "5 ", "+5", "-5", "5_0", "", "1.0", "²", "0x1", "五",
                                  "0", "00", "٠"])
def test_entries_refuse_what_isdecimal_refuses(part):
    # int() reads signs, whitespace and underscores; an entry is digits only,
    # and a partial quotient is never zero
    assert not part.isdecimal() or int(part) == 0
    for parts in ([part], ["7", part], [part, "1024"], ["2000", part]):
        with pytest.raises(ValueError):
            _entries(parts)


def test_tables_stay_bounded(monkeypatch):
    # the tables fill on first lookup and only grow: only canonical keys
    # inside them are ever stored, each with its own value, and every answer
    # is the one the full tables built at import gave; other keys convert on
    # each lookup
    old_text = {n: str(n) for n in range(1024)}
    old_entry = {t: n for n, t in old_text.items() if n}
    keys = list(range(5001)) + ["007", "٣", "+5", "1_0", "0"]
    random.Random(28).shuffle(keys)
    for text, entry in ((words._Text(), words._Entry()), (_TEXT, _ENTRY)):
        assert text.items() <= old_text.items() and entry.items() <= old_entry.items()
        monkeypatch.setattr(words, "_TEXT", text)
        monkeypatch.setattr(words, "_ENTRY", entry)
        # keys equal to an entry but not ints are never stored, or 1 would
        # come back as "True"
        _joined((True, False, 1.0))
        for key in keys:
            t = str(key)
            if type(key) is int:
                assert _joined((key,)) == old_text.get(key, t)
            if t.isdecimal() and int(t):
                assert _entries([t]) == (old_entry.get(t, int(t)),)
            else:
                with pytest.raises(ValueError):
                    _entries([t])
            assert len(text) <= 1024 and len(entry) <= 1023
        assert _joined((1024, 10**30)) == "1024," + "1" + "0" * 30
        assert _entries(["1024", "٣", "007"]) == (1024, 3, 7)
        assert text == old_text and entry == old_entry
        assert all(type(n) is int for n in text) and all(type(n) is int for n in entry.values())


# ---------------------------------------------------------------------------
# numbers past the int<->str digit limit: the oracle is str, int and repr
# with the limit lifted

def _edges(limit):
    # limit - 1, limit and limit + 1 digits, powers of ten and the numbers
    # below them, low halves that need zero padding, and their negatives
    edges = [0, 7, 10 ** (limit - 2), 10 ** (limit - 1), 10**limit - 1, 10**limit,
             10 ** (limit + 1) - 1, 10**5000 - 1, 10**5000, 10**5000 + 1, 10**5000 + 7,
             unlimited(int, "123456789" * 556), 10**50_005 + 12_345]
    return edges + [-n for n in edges]


def test_digits_match_str(limit):
    for n in _edges(limit):
        assert _digits(n) == unlimited(str, n)
    assert sys.get_int_max_str_digits() == limit


def test_number_matches_int(limit):
    for n in _edges(limit):
        s = unlimited(str, n)
        assert _number(s) == n
        if n >= 0:
            assert _number("+" + s) == _number("0" * limit + s) == n
    # non-ASCII decimal digits: Arabic-Indic, Devanagari, fullwidth
    for s in ("\u0663" * (limit + 1), "\u0966\u0967\u0968\u0969\u096f" * (limit // 4),
              "-" + "\uff17" * limit + "1"):
        assert s[-1].isdecimal()
        assert _number(s) == unlimited(int, s)
    assert sys.get_int_max_str_digits() == limit


def test_shown_matches_repr(limit):
    big = 10**limit + 7
    for v in ({"a": big, "b": [1, -big, (big,)], "c": "x"}, (big,), [big, (1, 2)], -big, "x" * limit):
        assert _shown(v) == unlimited(repr, v)
