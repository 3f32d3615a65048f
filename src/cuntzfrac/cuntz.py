"""Symbolic engine for permutative representation classes of the Cuntz algebra
on countably many generators.

Products of generators s_i and adjoints s_i* reduce to the normal form
s_A s_B* (or to zero).  Basis labels are eventually periodic positive-integer
sequences; each generator acts by prepending its index, the shift is the
common left inverse, and everything stays exact and finite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import words
from .cfe import (
    PeriodicCFE,
    _check_quotients,
    _fold_in,
    block_prefix,
    cfe_expand,
    cfe_periodic,
    cfe_step_matrix,
    sigma_shift,
)
from .surds import QuadraticSurd, _require_omega, mobius_apply

Word = words.Word


class EmptyWord(ValueError):
    """A nonempty word was required."""


class NotPrimitive(ValueError):
    """The word is a proper power of a shorter word."""


class BadMultiplicity(ValueError):
    """Cycle splitting needs multiplicity n >= 2."""


class LabelSpaceOverflow(RuntimeError):
    """A label grew past the truncation cap of the space."""


# ---------------------------------------------------------------------------
# words and representation classes

def _word(j: Word) -> Word:
    # the one check of a word's entries for the cycle classes and their checks
    j = tuple(j)
    if not j:
        raise EmptyWord("word must be nonempty")
    _check_quotients(j, "generator indices")
    return j


def is_nonperiodic(j: Word) -> bool:
    """True when no nontrivial cyclic rotation fixes the word."""
    return words.is_primitive(_word(j))


def _primitive(j: Word) -> Word:
    j = _word(j)
    if not words.is_primitive(j):
        raise NotPrimitive(f"{words._shown(j)} is a proper power")
    return j


def canonical_cycle(j: Word) -> Word:
    """Lexicographically least rotation of a primitive word."""
    return words.canonical_rotation(_primitive(j))


@dataclass(frozen=True)
class Cycle:
    """Class of the cyclic representation fixed by a finite word.

    The word is stored as its least rotation, so equality of Cycle values is
    equality of classes.
    """

    word: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", canonical_cycle(self.word))

    @classmethod
    def _of(cls, word: Word) -> "Cycle":
        # for the least rotation of a checked, primitive period: skips __post_init__
        c = object.__new__(cls)
        object.__setattr__(c, "word", word)
        return c

    def __str__(self) -> str:
        return "P(" + words._joined(self.word) + ")"


@dataclass(frozen=True)
class Chain:
    """Class of a chain representation, known only by a finite prefix.

    `continuation` names the undisclosed remainder of the stream; two chains
    naming the same continuation share a tail by construction.  The default
    "?" is anonymous and never matches.
    """

    prefix: Word
    continuation: str = "?"

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(self.prefix))
        _check_quotients(self.prefix, "prefix entries")

    def __str__(self) -> str:
        return "P(" + words._joined(self.prefix) + ",...)"


RepClass = Cycle | Chain


def pj_equivalent(j: RepClass, k: RepClass) -> bool | None:
    """Unitary equivalence of two classes; None when a finite prefix cannot
    decide (chain against chain with unrelated continuations)."""
    if isinstance(j, Cycle) and isinstance(k, Cycle):
        return j.word == k.word
    if isinstance(j, Cycle) or isinstance(k, Cycle):
        return False
    if j.continuation != "?" and j.continuation == k.continuation:
        return True
    return None


def classify_surd(x: QuadraticSurd) -> Cycle:
    """Cycle class attached to a quadratic irrational through its repeating block."""
    return Cycle._of(words.canonical_rotation(cfe_periodic(x).period))


# ---------------------------------------------------------------------------
# word operators

@dataclass(frozen=True)
class WordOperator:
    """Normal form s_A s_B* of a product of generators and adjoints.

    `left` is A, `right` is B; both empty means the identity.  The
    distinguished zero element carries no words.
    """

    left: Word = ()
    right: Word = ()
    zero: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if self.zero and (self.left or self.right):
            raise ValueError("the zero operator carries no words")
        _check_quotients(self.left + self.right, "generator indices")

    @classmethod
    def _trusted(cls, left: Word, right: Word) -> "WordOperator":
        # for words whose indices are already checked: skips __post_init__
        u = object.__new__(cls)
        object.__setattr__(u, "left", left)
        object.__setattr__(u, "right", right)
        object.__setattr__(u, "zero", False)
        return u

    def __mul__(self, other: "WordOperator") -> "WordOperator":
        return word_op_mul(self, other)

    def adjoint(self) -> "WordOperator":
        if self.zero:
            return self
        return WordOperator._trusted(self.right, self.left)

    def __str__(self) -> str:
        if self.zero:
            return "0"
        if not self.left and not self.right:
            return "I"
        parts = []
        if self.left:
            parts.append("s[" + words._joined(self.left) + "]")
        if self.right:
            parts.append("s[" + words._joined(self.right) + "]*")
        return "".join(parts)


ZERO = WordOperator(zero=True)
IDENTITY = WordOperator()


def word_op_mul(u: WordOperator, v: WordOperator) -> WordOperator:
    """Product in normal form: adjacent s_B* s_C cancels along common prefixes,
    mismatching words annihilate."""
    if u.zero or v.zero:
        return ZERO
    b, c = u.right, v.left
    if c[: len(b)] == b:
        return WordOperator._trusted(u.left + c[len(b):], v.right)
    if b[: len(c)] == c:
        return WordOperator._trusted(u.left, v.right + b[len(c):])
    return ZERO


# ---------------------------------------------------------------------------
# label spaces and the branching action

def _check_generator(i: int) -> None:
    if isinstance(i, bool) or not isinstance(i, int) or i < 1:
        raise ValueError("generator indices start at 1")


def label_cons(i: int, label: PeriodicCFE) -> PeriodicCFE:
    """Prepend a symbol to a label; the branching action of generator i.  The
    result is canonical as built unless i completes the period it precedes."""
    _check_generator(i)
    p = label.period
    if not label.initial and i == p[-1]:
        return PeriodicCFE._trusted((), p[-1:] + p[:-1])
    return PeriodicCFE._trusted((i,) + label.initial, p)


def apply_word_op(u: WordOperator, label: PeriodicCFE) -> PeriodicCFE | None:
    """Image of a basis label under s_A s_B*; None when annihilated.  B drops
    as one slice or one rotation of the period and A folds in front once, in
    time linear in the label."""
    if u.zero:
        return None
    if not u.left and not u.right:
        return label
    k = len(u.right)
    if block_prefix(label, k) != u.right:
        return None
    p = label.period
    if k > len(label.initial):
        m = (k - len(label.initial)) % len(p)
        p = p[m:] + p[:m]
    return _fold_in(u.left + label.initial[k:], p)


class LabelSpace:
    """Finite set of distinct canonical labels, extensible up to a hard cap.

    There is no finite unit-preserving model, so any finite label set is a
    truncation; growth past the cap raises instead of silently clipping.
    """

    def __init__(self, labels=(), cap: int = 32):
        self.cap = cap
        self._labels: set[PeriodicCFE] = set()
        for lab in labels:
            self.admit(lab)

    @classmethod
    def full(cls, depth: int, alphabet: int, cap: int | None = None) -> "LabelSpace":
        """All canonical labels with entries <= alphabet and at most `depth`
        stored symbols (initial plus period)."""
        if depth < 1 or alphabet < 1:
            raise ValueError("need depth >= 1 and alphabet >= 1")
        if cap is None:
            cap = depth + 8
        syms = range(1, alphabet + 1)
        labels = []
        for k in range(1, depth + 1):
            for period in itertools.product(syms, repeat=k):
                if not words.is_primitive(period):
                    continue
                for m in range(0, depth - k + 1):
                    for initial in itertools.product(syms, repeat=m):
                        if m and initial[-1] == period[-1]:
                            continue
                        labels.append(PeriodicCFE._trusted(initial, period))
        return cls(labels, cap=cap)

    def admit(self, label: PeriodicCFE) -> PeriodicCFE:
        size = len(label.initial) + len(label.period)
        if size > self.cap:
            raise LabelSpaceOverflow(f"label needs {size} symbols, cap is {self.cap}")
        self._labels.add(label)
        return label

    def __iter__(self):
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: PeriodicCFE) -> bool:
        return label in self._labels

    @property
    def labels(self) -> frozenset[PeriodicCFE]:
        return frozenset(self._labels)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class CheckEntry:
    check: str
    instance: str
    verdict: str
    residual: int | None = None


def report_to_json(entries) -> list[dict]:
    return [
        {"check": e.check, "instance": e.instance, "verdict": e.verdict, "residual": e.residual}
        for e in entries
    ]


# ---------------------------------------------------------------------------
# finite verifications

def verify_cuntz_relations(depth: int, alphabet: int) -> list[CheckEntry]:
    """Check the defining relations on a truncated label space.

    Verifies that each prepend map is injective, that images of distinct
    generators are disjoint and jointly cover the space, that the shift is a
    left inverse of every prepend, and that s_i* s_j acts as delta_ij on
    labels.  Returns the list of violations; empty means all relations hold.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    if alphabet < 2:
        raise ValueError("need alphabet >= 2")
    base = sorted(LabelSpace.full(depth, alphabet), key=str)
    bad: list[CheckEntry] = []

    # images[i] maps label_cons(i, w) back to w
    images: dict[int, dict[PeriodicCFE, PeriodicCFE]] = {}
    for i in range(1, alphabet + 1):
        img = {label_cons(i, w): w for w in base}
        if len(img) != len(base):
            bad.append(CheckEntry("branch-injective", f"i={i}", "fail"))
        images[i] = img

    for i in range(1, alphabet + 1):
        for j in range(i + 1, alphabet + 1):
            overlap = images[i].keys() & images[j].keys()
            if overlap:
                witness = min(overlap, key=str)
                bad.append(
                    CheckEntry("branch-disjoint", f"i={i},j={j},label={witness}", "fail")
                )

    for w in base:
        if w not in images[(w.initial or w.period)[0]]:
            bad.append(CheckEntry("branch-cover", f"label={w}", "fail"))

    for i in range(1, alphabet + 1):
        for v, w in images[i].items():
            if sigma_shift(v) != w:
                bad.append(CheckEntry("shift-section", f"i={i},label={w}", "fail"))

    for i in range(1, alphabet + 1):
        for j in range(1, alphabet + 1):
            op = word_op_mul(WordOperator((), (i,)), WordOperator((j,), ()))
            for w in base:
                got = apply_word_op(op, w)
                want = w if i == j else None
                if got != want:
                    bad.append(
                        CheckEntry("isometry-delta", f"i={i},j={j},label={w}", "fail")
                    )
    return bad


def orbit_decompose(space) -> dict[Cycle, frozenset[PeriodicCFE]]:
    """Partition labels into tail-equivalence classes, keyed by cycle class.

    Two eventually periodic labels share a class exactly when their primitive
    periods are rotations of each other; the partition does not depend on
    iteration order.
    """
    buckets: dict[Word, set[PeriodicCFE]] = {}
    for w in space:
        buckets.setdefault(words.canonical_rotation(w.period), set()).add(w)
    return {Cycle._of(k): frozenset(v) for k, v in buckets.items()}


def gp_vector_check(j: Word, depth: int = 8) -> list[CheckEntry]:
    """Verify the cyclic fixed vector of a primitive word symbolically.

    The purely periodic label v = j^infinity must be fixed by prepending j
    (repeated `depth` times for good measure), and the labels reached by
    prepending the suffixes of j must be pairwise distinct basis labels.
    """
    j = _primitive(j)
    name = words._joined(j)
    v = PeriodicCFE._trusted((), j)
    entries = []

    s_j, w = WordOperator._trusted(j, ()), v
    for _ in range(max(1, depth)):
        w = apply_word_op(s_j, w)
        if w != v:
            break
    entries.append(
        CheckEntry("gp-fixed-point", f"J=({name})", "pass" if w == v else "fail")
    )

    cycle_labels = {
        apply_word_op(WordOperator._trusted(j[start:], ()), v) for start in range(len(j))
    }
    distinct = len(cycle_labels) == len(j)
    entries.append(
        CheckEntry(
            "gp-orthonormal-family",
            f"J=({name}),labels={len(cycle_labels)}/{len(j)}",
            "pass" if distinct else "fail",
        )
    )
    return entries


def cycle_dft_split(j0: Word, n: int) -> list[CheckEntry]:
    """Split the n-fold cycle over a primitive word into eigenvectors.

    In the n-dimensional model where the word acts as the cyclic shift, the
    discrete Fourier vectors w_r = sum_m zeta^(r m) (shift^m v) must be
    pairwise orthogonal with shift eigenvalue zeta^(-r).  Each zeta^e is
    stored as its exponent e mod n, so the checks are exact; a residual counts
    wrong coefficients and any nonzero one fails.  The final entry records
    that the n-fold power word is reducible (n >= 2 splits the space).
    """
    j0 = _primitive(j0)
    if n < 2:
        raise BadMultiplicity("need multiplicity n >= 2")
    name = words._joined(j0)
    vecs = [[r * m % n for m in range(n)] for r in range(n)]
    entries = []
    for r in range(n):
        for s in range(r + 1, n):
            # <w_r, w_s> = C(zeta), C[e] counting the terms conj(zeta^a) zeta^b = zeta^e;
            # (x^(s-r) - 1) C(x) = 0 mod x^n - 1 and zeta^(s-r) != 1 prove C(zeta) = 0
            counts = [0] * n
            for a, b in zip(vecs[r], vecs[s]):
                counts[(b - a) % n] += 1
            resid = sum(counts[(e - s + r) % n] != counts[e] for e in range(n))
            entries.append(
                CheckEntry(
                    "cycle-orthogonality",
                    f"J0=({name}),n={n},r={r},s={s}",
                    "pass" if resid == 0 else "fail",
                    resid,
                )
            )
    for r in range(n):
        # the generator word sends basis vector m to m+1 (mod n)
        shifted = vecs[r][-1:] + vecs[r][:-1]
        resid = sum(a != (b - r) % n for a, b in zip(shifted, vecs[r]))
        entries.append(
            CheckEntry(
                "cycle-eigenvalue",
                f"J0=({name}),n={n},r={r}",
                "pass" if resid == 0 else "fail",
                resid,
            )
        )
    entries.append(CheckEntry("cycle-split-verdict", f"J=({name})^{n}", "reducible", None))
    return entries


def intertwiner_check(x: QuadraticSurd, i: int, n: int) -> bool:
    """Prepending generator i must match expanding the image 1/(x + i).

    This is the basis-vector content of the unitary carrying one model of the
    representation to the other, checked to n quotients.
    """
    _check_generator(i)
    _require_omega(x)
    img = mobius_apply(cfe_step_matrix(i), x)
    return cfe_expand(img, n + 1) == (i,) + cfe_expand(x, n)
