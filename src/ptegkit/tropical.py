"""Exact max-plus / min-plus matrix arithmetic.

Scalars are extended reals: a finite numeric payload (int, float, or
Fraction) or one of the two sentinels NEG_INF / POS_INF.  Which sentinel
acts as the neutral element and which one absorbs depends on the semiring:

* MAXPLUS: addition is max, multiplication is +, zero is -inf, top is +inf.
* MINPLUS: addition is min, multiplication is +, zero is +inf, top is -inf.

One rule gives the product in both: it is the semiring zero when either
factor is the zero (the zero absorbs, even the top), and otherwise it is
native +.  Native + is exact on everything else, because an infinity
plus a finite value or plus the same infinity is that infinity; the one
case where it would give NaN, zero plus top, is the case the rule takes
first.  Every kernel loop below is built on that rule.  All matrices are
immutable values; every operation returns a fresh matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

NEG_INF = float("-inf")
POS_INF = float("inf")

Number = int | float | Fraction


class TropicalError(Exception):
    """Base class for contract violations in tropical arithmetic."""


class DimensionMismatch(TropicalError):
    pass


class TagMismatch(TropicalError):
    pass


class StarDivergence(TropicalError):
    """The Kleene star is unbounded: the precedence graph has a circuit of
    positive weight (max-plus) or negative weight (min-plus)."""

    def __init__(self, node: int):
        super().__init__(f"closure diverges: unbounded circuit through node {node}")
        self.node = node


class SemiringTag(Enum):
    MAXPLUS = "maxplus"
    MINPLUS = "minplus"

    @property
    def zero(self) -> float:
        return NEG_INF if self is SemiringTag.MAXPLUS else POS_INF

    @property
    def top(self) -> float:
        return POS_INF if self is SemiringTag.MAXPLUS else NEG_INF

    @property
    def dual(self) -> "SemiringTag":
        return SemiringTag.MINPLUS if self is SemiringTag.MAXPLUS else SemiringTag.MAXPLUS


MAXPLUS = SemiringTag.MAXPLUS
MINPLUS = SemiringTag.MINPLUS

#: multiplicative unit, shared by both semirings
UNIT = 0


def is_finite(a: Number) -> bool:
    return a != NEG_INF and a != POS_INF


def scalar_add(a: Number, b: Number, tag: SemiringTag) -> Number:
    """Semiring addition: max under MAXPLUS, min under MINPLUS."""
    return max(a, b) if tag is MAXPLUS else min(a, b)


def scalar_mul(a: Number, b: Number, tag: SemiringTag) -> Number:
    """Semiring multiplication: the zero when either factor is the zero
    (-inf wins against +inf under MAXPLUS, +inf against -inf under
    MINPLUS), otherwise native +."""
    return tag.zero if tag.zero in (a, b) else a + b


def _check_payload(v: Number) -> Number:
    if isinstance(v, float) and math.isnan(v):
        raise TropicalError("NaN is not a valid tropical scalar")
    return v


@dataclass(frozen=True)
class TropicalMatrix:
    """Dense rectangular matrix over one of the two tropical semirings."""

    rows: int
    cols: int
    tag: SemiringTag
    entries: tuple[Number, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for v in self.entries:
            _check_payload(v)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Number]], tag: SemiringTag) -> "TropicalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged row lengths")
        return cls(r, c, tag, tuple(v for row in rows for v in row))

    @classmethod
    def zeros(cls, rows: int, cols: int, tag: SemiringTag) -> "TropicalMatrix":
        """Matrix filled with the semiring zero (the neutral element)."""
        return cls(rows, cols, tag, (tag.zero,) * (rows * cols))

    @classmethod
    def identity(cls, n: int, tag: SemiringTag) -> "TropicalMatrix":
        z = tag.zero
        return cls(n, n, tag, tuple(UNIT if i == j else z for i in range(n) for j in range(n)))

    @classmethod
    def column(cls, values: Iterable[Number], tag: SemiringTag) -> "TropicalMatrix":
        vals = tuple(values)
        return cls(len(vals), 1, tag, vals)

    def __getitem__(self, ij: tuple[int, int]) -> Number:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Number, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Number, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[Number]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def _require_same_shape(a: TropicalMatrix, b: TropicalMatrix) -> None:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise DimensionMismatch(f"{a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def _require_same_tag(a: TropicalMatrix, b: TropicalMatrix) -> None:
    if a.tag is not b.tag:
        raise TagMismatch(f"{a.tag.value} vs {b.tag.value}")


def mat_add(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Entrywise semiring addition; operands must share shape and tag."""
    _require_same_shape(a, b)
    _require_same_tag(a, b)
    if a.tag is MAXPLUS:
        ent = tuple(map(max, a.entries, b.entries))
    else:
        ent = tuple(map(min, a.entries, b.entries))
    return TropicalMatrix(a.rows, a.cols, a.tag, ent)


def mat_mul(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Semiring matrix product; inner dimensions and tags must match."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dims {a.cols} vs {b.rows}")
    _require_same_tag(a, b)
    tag = a.tag
    n, m, p = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    cols = [be[j::p] for j in range(p)]
    out: list[Number] = []
    maxplus = tag is MAXPLUS
    zero = tag.zero
    for i in range(n):
        arow = ae[i * m : (i + 1) * m]
        for col in cols:
            best: Number = zero
            for x, y in zip(arow, col):
                if x != zero and y != zero:
                    v = x + y
                    if (v > best) if maxplus else (v < best):
                        best = v
            out.append(best)
    return TropicalMatrix(n, p, tag, tuple(out))


def mat_pow(a: TropicalMatrix, k: int) -> TropicalMatrix:
    """k-th semiring power of a square matrix, k >= 0."""
    if not a.is_square:
        raise DimensionMismatch("power of a non-square matrix")
    if k < 0:
        raise ValueError("negative power")
    result = TropicalMatrix.identity(a.rows, a.tag)
    for _ in range(k):
        result = mat_mul(result, a)
    return result


def scale(a: TropicalMatrix, s: Number) -> TropicalMatrix:
    """Multiply every entry by the finite scalar s (tropically: add s)."""
    if not is_finite(s):
        raise TropicalError("scale factor must be finite")
    ent = tuple(v + s for v in a.entries)
    return TropicalMatrix(a.rows, a.cols, a.tag, ent)


def conjugate(a: TropicalMatrix) -> TropicalMatrix:
    """Transpose of the entrywise inverse; flips the semiring tag.

    Finite entries are negated, NEG_INF maps to POS_INF and vice versa.
    Realizes residuation as a dual product: A-under-x equals A# (x)' x.
    """
    neg = negate(a)
    return TropicalMatrix(a.cols, a.rows, neg.tag, tuple(v for j in range(a.cols) for v in neg.col(j)))


def negate(a: TropicalMatrix) -> TropicalMatrix:
    """Entrywise inverse without transposition; flips the semiring tag.

    Circuits of the precedence graph keep their support, with negated
    weights, which is what the min-plus / max-plus dualities rely on.
    """
    return TropicalMatrix(a.rows, a.cols, a.tag.dual, tuple(-v for v in a.entries))


def retag(a: TropicalMatrix, tag: SemiringTag) -> TropicalMatrix:
    """Reinterpret the same numeric entries under another tag.

    This is an explicit escape hatch for the few places where a matrix
    produced in one semiring participates in the other one, e.g. when the
    conjugated upper-bound matrix joins a max-plus sum.
    """
    return TropicalMatrix(a.rows, a.cols, tag, a.entries)


def kleene_star(a: TropicalMatrix) -> TropicalMatrix:
    """Identity plus the Floyd-Warshall closure of kleene_plus, in O(d^3).

    Raises StarDivergence, read off the closure's diagonal, when a circuit
    has positive weight (max-plus) or negative weight (min-plus).
    """
    if not a.is_square:
        raise DimensionMismatch("star of a non-square matrix")
    return mat_add(TropicalMatrix.identity(a.rows, a.tag), _plus_closure(a))


def kleene_plus(a: TropicalMatrix) -> TropicalMatrix:
    """Floyd-Warshall closure, equal to a (x) kleene_star(a); diverges alike."""
    if not a.is_square:
        raise DimensionMismatch("plus-closure of a non-square matrix")
    return _plus_closure(a)


def _plus_closure(a: TropicalMatrix) -> TropicalMatrix:
    """Pivot k lets entry (i, j), the best walk from j to i, pass through k;
    a diagonal entry better than UNIT diverges."""
    tag = a.tag
    maxplus = tag is MAXPLUS
    zero = tag.zero
    d = a.to_rows()
    for k, pivot in enumerate(d):
        for row in d:
            rk = row[k]
            if rk != zero:
                for j, kj in enumerate(pivot):
                    if kj != zero:
                        v = rk + kj
                        if (v > row[j]) if maxplus else (v < row[j]):
                            row[j] = v
    for i, row in enumerate(d):
        if (row[i] > UNIT) if maxplus else (row[i] < UNIT):
            raise StarDivergence(i)
    return TropicalMatrix.from_rows(d, tag)


def residual_left(a: TropicalMatrix, y: TropicalMatrix) -> TropicalMatrix:
    """Greatest x with a (x) x <= y, computed as a# (x)' y.

    The result carries the dual tag of a; retag it explicitly if it feeds
    back into products under a's own semiring.
    """
    if a.tag is not MAXPLUS:
        raise TagMismatch("residual_left expects a max-plus left operand")
    if a.rows != y.rows:
        raise DimensionMismatch(f"{a.rows} rows vs {y.rows}")
    return mat_mul(conjugate(a), retag(y, MINPLUS))


def leq(a: TropicalMatrix, b: TropicalMatrix) -> bool:
    """Entrywise comparison in the standard order on extended reals.

    Tags are ignored on purpose: the recurrent inequalities compare
    max-plus lower bounds against min-plus upper bounds.
    """
    _require_same_shape(a, b)
    return all(x <= y for x, y in zip(a.entries, b.entries))


def format_number(v: Number) -> str:
    """Shortest exact token: integers bare, sentinels as -inf / +inf."""
    if v == NEG_INF:
        return "-inf"
    if v == POS_INF:
        return "+inf"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        if v.is_integer():
            return str(int(v))
        return repr(v)
    return str(v)


def parse_number(token: str) -> Number:
    """Inverse of format_number; integer tokens stay exact ints."""
    t = token.strip()
    if t in ("-inf", "-Inf"):
        return NEG_INF
    if t in ("+inf", "inf", "Inf", "+Inf"):
        return POS_INF
    if "/" in t:
        return Fraction(t)
    try:
        return int(t)
    except ValueError:
        return _check_payload(float(t))


def format_matrix(a: TropicalMatrix) -> str:
    """Text form: a 'rows cols tag' header line, then one line per row."""
    lines = [f"{a.rows} {a.cols} {a.tag.value}"]
    for i in range(a.rows):
        lines.append(" ".join(format_number(v) for v in a.row(i)))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> TropicalMatrix:
    """Parse the text form produced by format_matrix."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TropicalError("empty matrix document")
    head = lines[0].split()
    if len(head) != 3:
        raise TropicalError(f"bad header {lines[0]!r}: want 'rows cols tag'")
    rows, cols = int(head[0]), int(head[1])
    try:
        tag = SemiringTag(head[2])
    except ValueError:
        raise TropicalError(f"unknown semiring tag {head[2]!r}") from None
    if len(lines) - 1 != rows:
        raise TropicalError(f"expected {rows} rows, got {len(lines) - 1}")
    entries: list[Number] = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols:
            raise TropicalError(f"expected {cols} columns in {ln!r}")
        entries.extend(parse_number(t) for t in toks)
    return TropicalMatrix(rows, cols, tag, tuple(entries))
