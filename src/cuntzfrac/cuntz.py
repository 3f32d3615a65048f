"""Symbolic engine for permutative representation classes of the Cuntz algebra
on countably many generators.

Products of generators s_i and adjoints s_i* reduce to the normal form
s_A s_B* (or to zero).  Basis labels are eventually periodic positive-integer
sequences; each generator acts by prepending its index, the shift is the
common left inverse, and everything stays exact and finite.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from . import words
from .cfe import (
    PeriodicCFE,
    block_prefix,
    cfe_expand,
    cfe_periodic,
    cfe_step_matrix,
    minimal_period_normalize,
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

def is_nonperiodic(j: Word) -> bool:
    """True when no nontrivial cyclic rotation fixes the word."""
    if not j:
        raise EmptyWord("word must be nonempty")
    return words.is_primitive(tuple(j))


def canonical_cycle(j: Word) -> Word:
    """Lexicographically least rotation of a primitive word."""
    j = tuple(j)
    if not is_nonperiodic(j):
        raise NotPrimitive(f"{j} is a proper power")
    return words.canonical_rotation(j)


@dataclass(frozen=True)
class Cycle:
    """Class of the cyclic representation fixed by a finite word.

    The word is stored as its least rotation, so equality of Cycle values is
    equality of classes.
    """

    word: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", canonical_cycle(tuple(self.word)))

    def __str__(self) -> str:
        return "P(" + ",".join(map(str, self.word)) + ")"


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
        for n in self.prefix:
            if not isinstance(n, int) or n < 1:
                raise ValueError("prefix entries must be integers >= 1")

    def __str__(self) -> str:
        return "P(" + ",".join(map(str, self.prefix)) + ",...)"


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
    _require_omega(x)
    return Cycle(cfe_periodic(x).period)


def format_repclass(rc: RepClass) -> str:
    return str(rc)


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
        if self.zero and (self.left or self.right):
            raise ValueError("the zero operator carries no words")
        for n in self.left + self.right:
            if not isinstance(n, int) or n < 1:
                raise ValueError("generator indices must be integers >= 1")

    def __mul__(self, other: "WordOperator") -> "WordOperator":
        return word_op_mul(self, other)

    def adjoint(self) -> "WordOperator":
        if self.zero:
            return self
        return WordOperator(self.right, self.left)

    def __str__(self) -> str:
        if self.zero:
            return "0"
        if not self.left and not self.right:
            return "I"
        parts = []
        if self.left:
            parts.append("s[" + ",".join(map(str, self.left)) + "]")
        if self.right:
            parts.append("s[" + ",".join(map(str, self.right)) + "]*")
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
        return WordOperator(u.left + c[len(b):], v.right)
    if b[: len(c)] == c:
        return WordOperator(u.left, v.right + b[len(c):])
    return ZERO


# ---------------------------------------------------------------------------
# label spaces and the branching action

def label_size(label: PeriodicCFE) -> int:
    return len(label.initial) + len(label.period)


def label_head(label: PeriodicCFE) -> int:
    return label.initial[0] if label.initial else label.period[0]


def label_cons(i: int, label: PeriodicCFE) -> PeriodicCFE:
    """Prepend a symbol to a label; the branching action of generator i."""
    if i < 1:
        raise ValueError("generator indices start at 1")
    return minimal_period_normalize((i,) + label.initial, label.period)


def apply_word_op(u: WordOperator, label: PeriodicCFE) -> PeriodicCFE | None:
    """Image of a basis label under s_A s_B*; None when annihilated."""
    if u.zero:
        return None
    k = len(u.right)
    if k:
        if block_prefix(label, k) != u.right:
            return None
        for _ in range(k):
            label = sigma_shift(label)
    for sym in reversed(u.left):
        label = label_cons(sym, label)
    return label


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
                        labels.append(PeriodicCFE(initial, period))
        return cls(labels, cap=cap)

    def admit(self, label: PeriodicCFE) -> PeriodicCFE:
        if label_size(label) > self.cap:
            raise LabelSpaceOverflow(
                f"label needs {label_size(label)} symbols, cap is {self.cap}"
            )
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
    residual: float | None = None


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
    work = LabelSpace(base, cap=depth + 2)
    bad: list[CheckEntry] = []

    images: dict[int, set[PeriodicCFE]] = {}
    for i in range(1, alphabet + 1):
        img = set()
        for w in base:
            img.add(work.admit(label_cons(i, w)))
        if len(img) != len(base):
            bad.append(CheckEntry("branch-injective", f"i={i}", "fail"))
        images[i] = img

    for i in range(1, alphabet + 1):
        for j in range(i + 1, alphabet + 1):
            overlap = images[i] & images[j]
            if overlap:
                witness = min(overlap, key=str)
                bad.append(
                    CheckEntry("branch-disjoint", f"i={i},j={j},label={witness}", "fail")
                )

    for w in base:
        if w not in images[label_head(w)]:
            bad.append(CheckEntry("branch-cover", f"label={w}", "fail"))

    for i in range(1, alphabet + 1):
        for w in base:
            if sigma_shift(label_cons(i, w)) != w:
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
    buckets: dict[Cycle, set[PeriodicCFE]] = {}
    for w in space:
        buckets.setdefault(Cycle(w.period), set()).add(w)
    return {k: frozenset(v) for k, v in buckets.items()}


def gp_vector_check(j: Word, depth: int = 8) -> list[CheckEntry]:
    """Verify the cyclic fixed vector of a primitive word symbolically.

    The purely periodic label v = j^infinity must be fixed by prepending j
    (repeated `depth` times for good measure), and the labels reached by
    prepending the suffixes of j must be pairwise distinct basis labels.
    """
    j = tuple(j)
    if not j:
        raise EmptyWord("word must be nonempty")
    if not words.is_primitive(j):
        raise NotPrimitive(f"{j} is a proper power")
    name = ",".join(map(str, j))
    v = PeriodicCFE((), j)
    entries = []

    w = v
    fixed = True
    for _ in range(max(1, depth)):
        for sym in reversed(j):
            w = label_cons(sym, w)
        if w != v:
            fixed = False
            break
    entries.append(
        CheckEntry("gp-fixed-point", f"J=({name})", "pass" if fixed else "fail")
    )

    cycle_labels = set()
    for start in range(len(j)):
        lab = v
        for sym in reversed(j[start:]):
            lab = label_cons(sym, lab)
        cycle_labels.add(lab)
    distinct = len(cycle_labels) == len(j)
    entries.append(
        CheckEntry(
            "gp-orthonormal-family",
            f"J=({name}),labels={len(cycle_labels)}/{len(j)}",
            "pass" if distinct else "fail",
        )
    )
    return entries


@dataclass(frozen=True)
class CycleSpaceVector:
    """Coefficient vector over the n cyclic basis vectors above a fixed vector."""

    coeffs: tuple[complex, ...]

    def shifted(self) -> "CycleSpaceVector":
        # the generator word sends basis vector m to m+1 (mod n)
        c = self.coeffs
        return CycleSpaceVector((c[-1],) + c[:-1])

    def dot(self, other: "CycleSpaceVector") -> complex:
        return sum(a.conjugate() * b for a, b in zip(self.coeffs, other.coeffs))

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.coeffs))


def cycle_dft_split(j0: Word, n: int, tol: float = 1e-9) -> list[CheckEntry]:
    """Split the n-fold cycle over a primitive word into eigenvectors.

    In the n-dimensional model where the word acts as the cyclic shift, the
    discrete Fourier vectors w_r = sum_m zeta^(r m) (shift^m v) must be
    pairwise orthogonal with shift eigenvalue zeta^(-r).  Nonzero residuals
    beyond `tol` are reported as failures; the final entry records that the
    n-fold power word is reducible (n >= 2 splits the space).
    """
    j0 = tuple(j0)
    if not j0:
        raise EmptyWord("word must be nonempty")
    if not words.is_primitive(j0):
        raise NotPrimitive(f"{j0} is a proper power")
    if n < 2:
        raise BadMultiplicity("need multiplicity n >= 2")
    name = ",".join(map(str, j0))
    zeta = cmath.exp(2j * math.pi / n)
    vecs = [
        CycleSpaceVector(tuple(zeta ** (r * m) for m in range(n))) for r in range(n)
    ]
    entries = []
    for r in range(n):
        for s in range(r + 1, n):
            resid = abs(vecs[r].dot(vecs[s]))
            entries.append(
                CheckEntry(
                    "cycle-orthogonality",
                    f"J0=({name}),n={n},r={r},s={s}",
                    "pass" if resid <= tol else "fail",
                    resid,
                )
            )
    for r in range(n):
        shifted = vecs[r].shifted()
        lam = zeta ** (-r)
        resid = math.sqrt(
            sum(abs(a - lam * b) ** 2 for a, b in zip(shifted.coeffs, vecs[r].coeffs))
        )
        entries.append(
            CheckEntry(
                "cycle-eigenvalue",
                f"J0=({name}),n={n},r={r}",
                "pass" if resid <= tol else "fail",
                resid,
            )
        )
    entries.append(
        CheckEntry("cycle-split-verdict", f"J=({name})^{n},tol={tol:g}", "reducible", None)
    )
    return entries


def intertwiner_check(x: QuadraticSurd, i: int, n: int) -> bool:
    """Prepending generator i must match expanding the image 1/(x + i).

    This is the basis-vector content of the unitary carrying one model of the
    representation to the other, checked to n quotients.
    """
    if i < 1:
        raise ValueError("generator indices start at 1")
    _require_omega(x)
    img = mobius_apply(cfe_step_matrix(i), x)
    return cfe_expand(img, n + 1) == (i,) + cfe_expand(x, n)
