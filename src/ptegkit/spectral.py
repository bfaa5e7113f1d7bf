"""Spectral analysis of tropical matrices.

Cycle means, eigenvalues, eigenvector bases, critical graphs, cyclicity
and coupling (transient) indices, all on the precedence graph of a square
matrix.  Arithmetic is exact: ints stay ints; Fractions only where the
data or rho needs them, so criticality and eigen-residuals are exact.

All of these are read off one spectrum per matrix (`_Spectrum`): the
exact max-plus matrix, its irreducibility (by reachability from node 0),
its cycle mean rho from one Karp run over the whole graph, and, built on
first use, the matrix normalized by rho, its plus-closure, and from that
closure the critical graph (components included) and the eigenvector
basis.  The spectrum keeps these, the module keeps nothing; every
function below accepts a matrix or a spectrum, so a caller that asks
several questions of one matrix builds its spectrum once.  Min-plus
matrices enter through negation duality at the spectrum's constructor
only: negating every entry preserves the circuit structure and swaps
minima for maxima, and the spectrum's sign maps eigenvalues and vectors
back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Sequence

from .tropical import (
    MAXPLUS,
    MINPLUS,
    NEG_INF,
    UNIT,
    DimensionMismatch,
    Number,
    TropicalError,
    TropicalMatrix,
    is_finite,
    kleene_plus,
    mat_mul,
    mat_pow,
    negate,
    scale,
)


class NoCircuit(TropicalError):
    """The precedence graph is acyclic; there is no cycle mean."""


class NotIrreducible(TropicalError):
    """The precedence graph is not strongly connected."""


@dataclass(frozen=True)
class PrecedenceGraph:
    """Weighted digraph of a square matrix: entry A[i, j] != zero is an
    arc from node j to node i carrying weight A[i, j]."""

    node_count: int
    arcs: tuple[tuple[int, int, Number], ...]


@dataclass(frozen=True)
class CriticalGraph:
    """Nodes and arcs lying on circuits of extremal mean weight."""

    nodes: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]
    cyclicities: tuple[int, ...]


@dataclass(frozen=True)
class SpectralReport:
    eigenvalue: Number
    eigenvectors: tuple[tuple[Number, ...], ...]
    cyclicity: int
    critical: CriticalGraph
    coupling_index: int | None
    irreducible: bool


def build_graph(a: TropicalMatrix) -> PrecedenceGraph:
    """Precedence graph of a square matrix; arcs at non-zero entries.

    Entries equal to the semiring top are rejected: an unbounded arc
    weight has no graph-theoretic reading and poisons every cycle mean.
    """
    if not a.is_square:
        raise DimensionMismatch("precedence graph of a non-square matrix")
    zero = a.tag.zero
    top = a.tag.top
    arcs = []
    for i in range(a.rows):
        for j in range(a.cols):
            v = a[i, j]
            if v == top:
                raise TropicalError(f"matrix has a top entry at ({i}, {j})")
            if v != zero:
                arcs.append((j, i, v))
    return PrecedenceGraph(a.rows, tuple(arcs))


def is_irreducible(a: TropicalMatrix) -> bool:
    """True when the precedence graph is strongly connected, that is when
    node 0 reaches every node along the arcs and against them."""
    g = build_graph(a)
    n = g.node_count
    forward: list[list[int]] = [[] for _ in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for s, d, _ in g.arcs:
        forward[s].append(d)
        backward[d].append(s)
    return n > 0 and _reach_count(forward) == _reach_count(backward) == n


def _reach_count(succ: list[list[int]]) -> int:
    """Number of nodes reachable from node 0 in an adjacency list."""
    seen = {0}
    stack = [0]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def _exact(v: Number) -> Number:
    """Finite floats become Fractions; everything else passes through."""
    if isinstance(v, float) and is_finite(v):
        return Fraction(v)
    return v


def _simplify(v: Number) -> Number:
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _karp(n: int, arcs: Sequence[tuple[int, int, Number]]) -> Fraction | None:
    """Maximum cycle mean of a digraph on nodes 0..n-1; None when acyclic.

    Classic dynamic program over walk lengths: F[k][v] is the best weight
    of a k-arc walk ending in v, and the answer is max over v of min over k
    of (F[n][v] - F[k][v]) / (n - k).  Every node starts at weight 0, which
    is Karp's extra source joined to all nodes, so one run covers a graph
    that is not strongly connected, and a node with an n-arc walk has a
    k-arc walk, its suffix, for every k.
    """
    local = [(s, d, _exact(w)) for (s, d, w) in arcs]
    F: list[list[Number]] = [[0] * n]
    for k in range(1, n + 1):
        prev = F[k - 1]
        cur: list[Number] = [NEG_INF] * n
        for s, d, w in local:
            v = prev[s] + w
            if v > cur[d]:
                cur[d] = v
        F.append(cur)
    means = [
        min(Fraction(F[n][v] - F[k][v], n - k) for k in range(n))
        for v in range(n)
        if is_finite(F[n][v])
    ]
    return max(means, default=None)


def max_cycle_mean(a: TropicalMatrix) -> Number | None:
    """Maximum mean weight over the circuits of the precedence graph.

    Computed by one run of Karp's algorithm over the whole graph; None
    when the graph is acyclic.
    """
    if a.tag is not MAXPLUS:
        raise TropicalError("max_cycle_mean expects a max-plus matrix")
    g = build_graph(a)
    return _simplify(_karp(g.node_count, g.arcs))


def min_cycle_mean(b: TropicalMatrix) -> Number | None:
    """Minimal circuit mean of a min-plus matrix, via negation duality."""
    if b.tag is not MINPLUS:
        raise TropicalError("min_cycle_mean expects a min-plus matrix")
    return _Spectrum(b).eigenvalue


class _Spectrum:
    """Spectral data of one square matrix, shared by every function that is
    passed the spectrum.

    A min-plus matrix is stored as its max-plus negation with sign -1:
    negation keeps the circuits and turns the minimal cycle mean into the
    maximal one, and `sign` maps eigenvalues and vectors back.  This is the
    one place where the two semirings are told apart.
    """

    def __init__(self, a: TropicalMatrix):
        self.tag = a.tag
        self.sign = -1 if a.tag is MINPLUS else 1
        m = negate(a) if self.sign < 0 else a
        self.matrix = TropicalMatrix(m.rows, m.cols, MAXPLUS, tuple(map(_exact, m.entries)))
        self.irreducible = is_irreducible(self.matrix)
        self.rho = max_cycle_mean(self.matrix)  # of the max-plus side

    @property
    def eigenvalue(self) -> Number | None:
        """Cycle mean in the semiring of the input matrix."""
        return None if self.rho is None else _simplify(self.sign * self.rho)

    def mean(self, message: str = "matrix has an acyclic precedence graph") -> Number:
        """rho, an int or a Fraction; NoCircuit with the message when there is none."""
        if self.rho is None:
            raise NoCircuit(message)
        return self.rho

    @cached_property
    def normalized(self) -> TropicalMatrix:
        """The max-plus side minus rho: its heaviest circuits weigh 0."""
        return scale(self.matrix, -self.mean())

    @cached_property
    def closure(self) -> TropicalMatrix:
        """Plus-closure of the normalized matrix."""
        return kleene_plus(self.normalized)

    @cached_property
    def critical(self) -> CriticalGraph:
        """The critical graph of the max-plus side; see `critical_graph`."""
        shifted, closure = self.normalized, self.closure
        nodes = tuple(i for i in range(shifted.rows) if closure[i, i] == UNIT)
        arcs = tuple(sorted(
            (j, i)
            for i in nodes
            for j in nodes
            if shifted[i, j] + (UNIT if i == j else closure[j, i]) == UNIT
        ))
        comps: list[tuple[int, ...]] = []
        for i in nodes:
            if not any(i in c for c in comps):
                comps.append(tuple(j for j in nodes if closure[i, j] + closure[j, i] == UNIT))
        cyclicities = tuple(_component_cyclicity(c, arcs) for c in comps)
        return CriticalGraph(nodes, arcs, tuple(comps), cyclicities)

    @cached_property
    def basis(self) -> tuple[tuple[Number, ...], ...]:
        """Eigenvector basis, in the input's semiring, of an irreducible matrix."""
        if not self.irreducible:
            raise NotIrreducible("eigenvector basis needs a strongly connected graph")
        return tuple(self.vector(v) for v in _critical_columns(self.closure))

    def vector(self, v: Sequence[Number]) -> tuple[Number, ...]:
        """A vector of the max-plus side, mapped back to the input's semiring."""
        return tuple(_simplify(self.sign * x) for x in v)


def _spectrum(a: TropicalMatrix | _Spectrum) -> _Spectrum:
    return a if isinstance(a, _Spectrum) else _Spectrum(a)


def critical_graph(a: TropicalMatrix | _Spectrum) -> CriticalGraph:
    """Critical nodes, arcs and components of a square matrix.

    After normalizing by the extremal cycle mean, node i is critical when
    the plus-closure has 0 at (i, i), and arc j->i is critical when the
    normalized weight of the arc plus the best return path closes a
    zero-weight circuit.  Two critical nodes i and j share a component
    when the closure closes a zero-weight circuit through both, that is
    when closure[i, j] + closure[j, i] = 0.  A min-plus matrix has the
    critical graph of its negation.
    """
    return _spectrum(a).critical


def _component_cyclicity(component: Sequence[int], arcs: Sequence[tuple[int, int]]) -> int:
    """Gcd of the circuit lengths inside one critical component, computed from
    search-level differences along its arcs, none of which leaves it."""
    succ: dict[int, list[int]] = {v: [] for v in component}
    for s, d in arcs:
        if s in succ:
            succ[s].append(d)
    root = component[0]
    level = {root: 0}
    queue = [root]
    g = 0
    while queue:
        v = queue.pop()
        for w in succ[v]:
            if w in level:
                g = gcd(g, abs(level[v] + 1 - level[w]))
            else:
                level[w] = level[v] + 1
                queue.append(w)
    return g if g > 0 else 1


def cyclicity(a: TropicalMatrix | _Spectrum) -> int:
    """Lcm over critical components of the gcd of their circuit lengths."""
    return lcm(*critical_graph(a).cyclicities)


def eigenvectors(a: TropicalMatrix | _Spectrum) -> list[tuple[Number, ...]]:
    """Basis of the eigenspace of an irreducible max-plus matrix.

    Columns of the normalized plus-closure with unit diagonal, pruned so
    that no column is a tropical multiple of an earlier one.  Every
    returned vector v satisfies a (x) v = rho (x) v exactly.
    """
    if a.tag is not MAXPLUS:
        raise TropicalError("eigenvectors expects a max-plus matrix; see min_eigenvectors")
    return list(_spectrum(a).basis)


def min_eigenvectors(b: TropicalMatrix | _Spectrum) -> list[tuple[Number, ...]]:
    """Eigenvector basis of an irreducible min-plus matrix.

    Duality: v is a min-plus eigenvector of b exactly when its negation
    is a max-plus eigenvector of the negated matrix.
    """
    if b.tag is not MINPLUS:
        raise TropicalError("min_eigenvectors expects a min-plus matrix")
    return list(_spectrum(b).basis)


def _critical_columns(closure: TropicalMatrix, keep: Callable | None = None) -> list[tuple[Number, ...]]:
    """Columns of a normalized plus-closure with unit diagonal that pass
    keep, pruned so that no column is a tropical multiple of an earlier one."""
    out: list[tuple[Number, ...]] = []
    for j in range(closure.rows):
        col = closure.col(j)
        if closure[j, j] != UNIT or (keep is not None and not keep(col)):
            continue
        if not any(_proportional(col, kept) for kept in out):
            out.append(col)
    return out


def _proportional(u: Sequence[Number], v: Sequence[Number]) -> bool:
    """Tropical proportionality: equal sentinel patterns and a constant
    finite difference."""
    if any(is_finite(x) != is_finite(y) or not is_finite(x) and x != y for x, y in zip(u, v)):
        return False
    return len({x - y for x, y in zip(u, v) if is_finite(x)}) <= 1


def periodic_eigenvectors(a: TropicalMatrix | _Spectrum, p: int) -> list[tuple[Number, ...]]:
    """Finite eigenvectors of a^p for the eigenvalue p * rho(a).

    Phase starts for p-periodic regimes.  The p-th power of a p-cyclic
    matrix is reducible in general, so the usual critical-column
    characterization does not apply directly; candidate columns of the
    normalized closure are kept only when they are finite everywhere and
    satisfy the eigen equation exactly.
    """
    spec = _spectrum(a)
    shift = -p * spec.mean()
    shifted = scale(mat_pow(spec.matrix, p), shift)

    def is_eigenvector(col: tuple[Number, ...]) -> bool:
        if not all(map(is_finite, col)):
            return False
        return mat_mul(shifted, TropicalMatrix.column(col, MAXPLUS)).entries == col

    columns = _critical_columns(kleene_plus(shifted), is_eigenvector)
    return [spec.vector(v) for v in columns]


def coupling_index(a: TropicalMatrix | _Spectrum, cap: int | None = None) -> int | None:
    """Smallest N with a^(N+c) = rho^c (x) a^N, c the cyclicity.

    Searched by bounded iteration; None when no such N <= cap exists.
    The default cap is 10 d^2 for dimension d.
    """
    spec = _spectrum(a)
    rho = spec.mean("coupling index undefined for acyclic matrices")
    c = cyclicity(spec)
    exact = spec.matrix
    if cap is None:
        cap = 10 * exact.rows * exact.rows
    shift = rho * c
    window = deque([TropicalMatrix.identity(exact.rows, MAXPLUS)], maxlen=c + 1)
    for _ in range(c):
        window.append(mat_mul(window[-1], exact))
    for n in range(cap + 1):  # window holds a^n .. a^(n+c)
        if window[-1].entries == scale(window[0], shift).entries:
            return n
        window.append(mat_mul(window[-1], exact))
    return None


def spectral_report(a: TropicalMatrix | _Spectrum, coupling_cap: int | None = None) -> SpectralReport:
    """Full spectral summary for a square matrix of either tag."""
    spec = _spectrum(a)
    spec.mean("spectral report needs at least one circuit")  # NoCircuit when acyclic
    crit = critical_graph(spec)
    irr = spec.irreducible
    return SpectralReport(
        eigenvalue=spec.eigenvalue,
        eigenvectors=spec.basis if irr else (),
        cyclicity=lcm(*crit.cyclicities),
        critical=crit,
        coupling_index=coupling_index(spec, coupling_cap) if irr else None,
        irreducible=irr,
    )
