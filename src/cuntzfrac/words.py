"""Finite-word utilities: border tables, primitivity, canonical rotations,
and the comma-separated text of a word."""

from __future__ import annotations

Word = tuple[int, ...]


class _Text(dict):
    def __missing__(self, n: int) -> str:
        return str(n)


class _Entry(dict):
    def __missing__(self, text: str) -> int:
        return int(text)


# entries below 1024 convert by one lookup, both ways.  Others, and text with
# leading zeros or non-ASCII digits, convert on each lookup and are never
# stored, so the tables stay fixed; past the int<->str digit limit the
# conversion raises ValueError, for the caller's unlimited_digits to retry
_TEXT = _Text((n, str(n)) for n in range(1024))
_ENTRY = _Entry((t, n) for n, t in _TEXT.items())


def _joined(w: Word) -> str:
    """The entries of w in decimal, separated by commas: the one word text."""
    return ",".join(map(_TEXT.__getitem__, w))


def _entries(parts: list[str]) -> Word:
    """The integers that the decimal strings in parts spell."""
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
            while r % p == 0 and w[r // p:] == w[: n - r // p]:
                r //= p
        p += 1
    return r


def is_primitive(w: Word) -> bool:
    return primitive_root_length(w) == len(w)


def least_rotation_index(w: Word) -> int:
    """Smallest start index of the lexicographically least rotation.

    Two-pointer scan over w + w: starts i < j are compared k symbols in, and
    a mismatch rules out the larger start and the k starts after it.  Linear
    time, no auxiliary array; 0 for the empty word.

    >>> least_rotation_index((2, 3, 1))
    2
    >>> least_rotation_index((1,))
    0
    """
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


def canonical_rotation(w: Word) -> Word:
    k = least_rotation_index(w)
    return w[k:] + w[:k]
