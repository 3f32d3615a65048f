"""Finite-word utilities: border tables, primitivity, canonical rotations (a
scan, or for long words cuts at the runs of the least entry), the
comma-separated text of a word, and integer text of any size."""

from __future__ import annotations

import sys

Word = tuple[int, ...]


def _digits(n: int) -> str:
    """str(n), also past CPython's int<->str digit limit, which it never changes.

    A number past the limit is cut by divmod at about half its digits, and
    each half is written the same way; the low half is padded with zeros.
    """
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _digits(-n)
        k = n.bit_length() * 1233 >> 13  # 1233/2**12 < log10(2): at most half the digits
        hi, lo = divmod(n, 10**k)
        return _digits(hi) + _digits(lo).zfill(k)


def _number(s: str) -> int:
    """int(s) for a run of decimal digits with an optional sign, also past the limit.

    A grammar must have checked s: int() also reads surrounding whitespace
    and underscores, which a cut through the run would let inside it.
    """
    try:
        return int(s)
    except ValueError:
        if s[0] in "+-":
            n = _number(s[1:])
            return -n if s[0] == "-" else n
        k = len(s) // 2
        return _number(s[:k]) * 10 ** (len(s) - k) + _number(s[k:])


def _shown(v) -> str:
    """repr(v), also where dicts, lists and tuples in v hold ints past the limit."""
    try:
        return repr(v)
    except ValueError:
        if type(v) is dict:
            return "{" + ", ".join(f"{_shown(k)}: {_shown(x)}" for k, x in v.items()) + "}"
        if type(v) in (list, tuple):
            inner = ", ".join(map(_shown, v)) + "," * (type(v) is tuple and len(v) == 1)
            return f"[{inner}]" if type(v) is list else f"({inner})"
        return _digits(v)


# entries from 1 to 1023 convert by one lookup, both ways (0 only to text),
# once the first lookup of each has stored it: start-up builds no table.
# Others, and text with leading zeros or non-ASCII digits, are checked and
# converted on each lookup and never stored, so neither table outgrows 1,024
class _Text(dict):
    def __missing__(self, n: int) -> str:
        t = _digits(n)
        if type(n) is int and 0 <= n < 1024:
            self[n] = t
        return t


class _Entry(dict):
    def __missing__(self, t: str) -> int:
        # int() would also read signs, spaces and underscores
        n = _number(t) if t.isdecimal() else 0
        if not n:
            raise ValueError(f"not a positive run of decimal digits: {t!r}")
        if n < 1024 and t == str(n):
            self[t] = n
        return n


_TEXT = _Text()
_ENTRY = _Entry()


def _joined(w: Word) -> str:
    """The entries of w in decimal, separated by commas: the one word text."""
    return ",".join(map(_TEXT.__getitem__, w))


def _entries(parts: list[str]) -> Word:
    """The integers that the decimal strings in parts spell; ValueError if a
    part is not a nonempty run of decimal digits or spells 0."""
    return tuple(map(_ENTRY.__getitem__, parts))


def failure_function(w: Word) -> list[int]:
    """KMP border table: f[i] = length of the longest proper border of w[:i+1]."""
    f = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = f[k - 1]
        if w[i] == w[k]:
            k += 1
        f[i] = k
    return f


def primitive_root_length(w: Word) -> int:
    """Length of the shortest u with w = u^m; equals len(w) iff w is primitive.

    The root length r divides n = len(w), and w = u^(n/t) for a divisor t of
    n exactly when w has period t, which one slice comparison decides.  For
    each prime p dividing n, r is divided by p while w has period r/p; the r
    left is the root length, after O(n * Omega(n)) compared symbols.

    >>> primitive_root_length((1, 2) * 6)
    2
    """
    n = len(w)
    if not n:
        raise ValueError("empty word has no primitive root")
    r, k, p = n, n, 2
    while k > 1:
        if p * p > k:
            p = k  # what is left of k is prime
        if k % p == 0:
            while k % p == 0:
                k //= p
            while r % p == 0:
                t = r // p
                # on a tail past 64 entries the first 64 refuse most wrong t cheaply
                if n - t > 64 and w[t:t + 64] != w[:64] or w[t:] != w[: n - t]:
                    break
                r = t
        p += 1
    return r


def is_primitive(w: Word) -> bool:
    return primitive_root_length(w) == len(w)


def _scan(w) -> int:
    """Smallest start of the least rotation of w, a tuple or str: the
    two-pointer scan over w + w.  Starts i < j are compared k symbols in, and
    a mismatch rules out the larger start and the k starts after it.  Linear
    time, no auxiliary array; 0 for the empty word."""
    n = len(w)
    s = w + w
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
        elif a > b:
            i, j, k = j, max(j + 1, i + k + 1), 0
        else:
            j, k = j + k + 1, 0
    return i


# below this length the scan is faster: on the periods of sqrt(d) the cut
# costs 2.2x the scan at 32-63 entries, 1.1x at 96-127 and 0.8x at 128-159
_CUT_FROM = 128


def _least_start(s: str, m: str) -> int:
    """Smallest start of the least rotation of s, whose least character is m."""
    n = len(s)
    if n < _CUT_FROM:
        return _scan(s)
    t = n - len(s.rstrip(m))
    if t == n:
        return 0
    v = s[n - t:] + s[:n - t]  # s[0] is v[t]; v ends above m, so no run of m wraps
    k = 1
    while m * (2 * k) in v:  # k <= R < 2k: a run of k or more m's holds one cut
        k *= 2
    cut = m * k
    head, *tails = v.split(cut)
    if head or not t:
        tails[-1] += head
        start = len(head) - t
    else:  # v starts with a cut: at s[n - t], after every other cut of s
        start = k + len(tails[0]) - t
        tails.append(tails.pop(0))
    rank = dict(zip(sorted(set(tails)), map(chr, range(n))))
    q = _least_start("".join(map(rank.__getitem__, tails)), "\0")
    return start + q * k + sum(map(len, tails[:q]))


def least_rotation_index(w: Word) -> int:
    """Smallest start index of the lexicographically least rotation.

    From _CUT_FROM entries on (below, the cut's fixed cost loses to the scan),
    w is read as text, one code point an entry.  With m the least entry, R its
    longest cyclic run and k the largest power of two <= R, each run of k or
    more m's (none has 2k) starts a block with the cut m^k; the block's tail
    runs to the next cut.  The least rotation starts at a run of R m's, so at
    a cut, and rotations from cuts compare as their sequences of tails,
    compared as strings: where a tail is a proper prefix of another, the next
    cut meets fewer than k m's and then a larger entry.  So the word of the
    tails' ranks, in block order and at most half as long, is solved the same
    way, and its smallest start gives the answer: O(n) str work plus sorting
    the distinct tails, against about 100 ns an entry for the scan (Booth, IPL
    10 (1980); Shiloach, J. Algorithms 2 (1981)).  Short words, words too
    long for their ranks to be code points, and entries that are no code point
    (negative, 0x110000 or more) take the scan, the tests' oracle.

    >>> least_rotation_index((2, 3, 1))
    2
    >>> least_rotation_index((1,))
    0
    """
    if not _CUT_FROM <= len(w) < 0x220000:  # up to n/2 tails, ranked as code points
        return _scan(w)
    from array import array  # on first use: start-up never loads it
    try:
        s = array("I", w).tobytes().decode(f"utf-32-{sys.byteorder[0]}e", "surrogatepass")
    except (OverflowError, ValueError):  # an entry is negative, or 0x110000 or more
        return _scan(w)
    # nearly every period holds a 1, found at memchr speed; min() is 12 ns an entry
    m = next(filter(s.__contains__, map(chr, range(8))), None) or chr(min(w))
    return _least_start(s, m)


def canonical_rotation(w: Word) -> Word:
    k = least_rotation_index(w)
    return w[k:] + w[:k]
