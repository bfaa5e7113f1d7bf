"""First-order analysis of P-time event graphs.

From the characteristic matrices of a normalized model this module builds
the tightened one-step bounds

    calA = B* (x) A (x) B*          (max-plus, lower bound)
    calB = B#* (x)' C (x)' B#*      (min-plus, upper bound)

so that a trajectory is admissible exactly when
calA (x) x(k-1) <= x(k) <= calB (x)' x(k-1) and x(k) = B* (x) x(k).
Existence of admissible behavior hinges on the constraint matrix
H = calB# (x) calA (+) B: its star is finite exactly when the combined
fixpoint system has solutions, and extremal periodic runs start from
eigenvectors of calA (fastest) or calB (slowest) that stay inside the
image of H*.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

from .model import MatrixBundle, ModelError
from .spectral import (
    NotIrreducible,
    _Spectrum,
    coupling_index,
    cyclicity,
    eigenvectors,
    min_eigenvectors,
    periodic_eigenvectors,
)
from .tropical import (
    MAXPLUS,
    NEG_INF,
    POS_INF,
    DimensionMismatch,
    Number,
    StarDivergence,
    TropicalMatrix,
    _check_payload,
    conjugate,
    format_number,
    is_finite,
    kleene_star,
    leq,
    mat_add,
    mat_mul,
)


class CouplingNotFound(Exception):
    """The coupling index search exceeded its cap; the necessary-condition
    horizon cannot be established."""


class TrajectoryMode(Enum):
    FASTEST = "fastest"
    SLOWEST = "slowest"
    CUSTOM = "custom"


@dataclass(frozen=True)
class CombinedModel:
    bundle: MatrixBundle
    Bstar: TropicalMatrix
    calA: TropicalMatrix
    calB: TropicalMatrix
    H: TropicalMatrix
    Hstar: TropicalMatrix | None  # None when the star diverges

    @property
    def transitions(self) -> tuple[str, ...]:
        return self.bundle.index_map

    # Built on first use and kept by this model, so that every analysis of
    # it shares one cycle mean and one normalized closure per matrix.
    @cached_property
    def calA_spectrum(self) -> _Spectrum:
        return _Spectrum(self.calA)

    @cached_property
    def calB_spectrum(self) -> _Spectrum:
        return _Spectrum(self.calB)


@dataclass(frozen=True)
class ExistenceReport:
    rho_calA: Number | None
    rho_prime_calB: Number | None
    rho_H_nonpositive: bool
    necessary_order_ok: bool
    entrywise_ok: bool
    verdict: str  # NO_SOLUTION or CANDIDATES_EXIST

    NO_SOLUTION = "NO_SOLUTION"
    CANDIDATES_EXIST = "CANDIDATES_EXIST"


@dataclass(frozen=True)
class Candidate:
    """Admissible periodic initialization: x0 with period p and rate lam."""

    x0: tuple[Number, ...]
    period: int
    rate: Number


@dataclass(frozen=True)
class Trajectory:
    states: tuple[tuple[Number, ...], ...]
    mode: TrajectoryMode
    period_scalar: tuple[Number, int] | None = None  # (rate, period)

    def __post_init__(self):
        if not self.states:
            raise ValueError("trajectory needs at least one state")
        for x in self.states:
            if NEG_INF in x or POS_INF in x:
                raise ValueError("trajectory states must be finite")


@dataclass(frozen=True)
class Violation:
    step: int
    transition: str
    side: str  # "lower", "upper" or "initial"
    slack: Number | str

    def describe(self) -> str:
        return f"k={self.step} transition={self.transition} side={self.side} slack={self.slack}"


@dataclass(frozen=True)
class NecessaryReport:
    ok: bool
    failing_n: int | None
    order_ok: bool
    n_checked: int


def build_combined(bundle: MatrixBundle) -> CombinedModel:
    """Tightened one-step bounds and the solution-space matrix H."""
    try:
        bstar = kleene_star(bundle.B)
    except StarDivergence as exc:
        raise ModelError(
            "B* diverges: the token-free constraint graph has a positive circuit"
        ) from exc
    cal_a = mat_mul(mat_mul(bstar, bundle.A), bstar)
    bsharp_star = conjugate(bstar)  # (B*)# = (B#)*
    cal_b = mat_mul(mat_mul(bsharp_star, bundle.C), bsharp_star)
    h = mat_add(mat_mul(conjugate(cal_b), cal_a), bundle.B)
    try:
        hstar: TropicalMatrix | None = kleene_star(h)
    except StarDivergence:
        hstar = None
    return CombinedModel(bundle=bundle, Bstar=bstar, calA=cal_a, calB=cal_b, H=h, Hstar=hstar)


def existence_report(cm: CombinedModel) -> ExistenceReport:
    """Necessary conditions for admissible behavior, plus the verdict."""
    rho_a = cm.calA_spectrum.eigenvalue
    rho_b = cm.calB_spectrum.eigenvalue
    h_ok = cm.Hstar is not None  # the star diverges exactly on a positive circuit
    order_ok = rho_a is None or rho_b is None or rho_a <= rho_b
    entrywise_ok = leq(cm.calA, cm.calB)
    verdict = (
        ExistenceReport.CANDIDATES_EXIST
        if h_ok and order_ok and entrywise_ok
        else ExistenceReport.NO_SOLUTION
    )
    return ExistenceReport(
        rho_calA=rho_a,
        rho_prime_calB=rho_b,
        rho_H_nonpositive=h_ok,
        necessary_order_ok=order_ok,
        entrywise_ok=entrywise_ok,
        verdict=verdict,
    )


def in_image_star(m: TropicalMatrix, x: Sequence[Number]) -> bool:
    """Membership of x in the image of m*: m (x) x <= x entrywise.

    Uses the fixpoint characterization instead of materializing the star.
    """
    if not m.is_square or m.rows != len(x):
        raise ValueError(f"vector of length {len(x)} against {m.rows}x{m.cols} matrix")
    col = TropicalMatrix.column(x, m.tag)
    return leq(mat_mul(m, col), col)


def necessary_check(cm: CombinedModel, x0: Sequence[Number], cap: int | None = None) -> NecessaryReport:
    """Finite-horizon necessary condition for x0 to start a solution.

    Requires calA and calB# irreducible; checks the cycle-time ordering
    and (calB#)^n (x) calA^n (x) x0 <= x0 for n up to the larger coupling
    index.  calB# is the transpose of the negation of calB, so it shares
    the irreducibility and the coupling index of calB's spectrum.
    """
    spec_a, spec_b = cm.calA_spectrum, cm.calB_spectrum
    if not spec_a.irreducible:
        raise NotIrreducible("calA is not irreducible")
    if not spec_b.irreducible:
        raise NotIrreducible("calB# is not irreducible")
    n_a = coupling_index(spec_a, cap)
    n_b = coupling_index(spec_b, cap)
    if n_a is None or n_b is None:
        raise CouplingNotFound("coupling index not found under the cap")
    rho_a, rho_b = spec_a.eigenvalue, spec_b.eigenvalue
    bsharp = conjugate(cm.calB)
    order_ok = rho_a is None or rho_b is None or rho_a <= rho_b
    horizon = max(1, n_a, n_b)
    col = TropicalMatrix.column(x0, MAXPLUS)
    failing: int | None = None
    power_a = TropicalMatrix.identity(cm.calA.rows, MAXPLUS)
    power_bs = TropicalMatrix.identity(cm.calA.rows, MAXPLUS)
    for n in range(1, horizon + 1):
        power_a = mat_mul(power_a, cm.calA)
        power_bs = mat_mul(power_bs, bsharp)
        lhs = mat_mul(power_bs, mat_mul(power_a, col))
        if not leq(lhs, col):
            failing = n
            break
    return NecessaryReport(
        ok=order_ok and failing is None,
        failing_n=failing,
        order_ok=order_ok,
        n_checked=horizon,
    )


def _candidate_pool(vectors: list[tuple[Number, ...]]) -> list[tuple[Number, ...]]:
    """Shift every vector so its minimum finite entry is 0, dropping duplicates."""
    pool: list[tuple[Number, ...]] = []
    for vec in vectors:
        m = min((x for x in vec if is_finite(x)), default=0)
        shifted = tuple(x - m for x in vec)
        if shifted not in pool:
            pool.append(shifted)
    return pool


def fastest_init(cm: CombinedModel) -> list[Candidate]:
    """Admissible initializations of the fastest periodic behavior.

    Candidates are eigenvectors of calA and, when the cyclicity p exceeds
    one, of its p-th power as well; the eigenspace of the power basis
    alone can miss admissible starts that are combinations of its
    generators.  A candidate is kept when every phase
    x(i) = calA^i (x) x0 stays in the image of (calB# (x) calA)*, and is
    shifted so its minimum entry is 0.  An empty result means no
    candidate passes, not an error.
    """
    return _periodic_starts(cm, cm.calA, cm.calA_spectrum, eigenvectors, "calA")


def slowest_init(cm: CombinedModel) -> list[Candidate]:
    """Admissible initializations of the slowest periodic behavior.

    Dual of fastest_init: candidates come from the min-plus eigenvectors
    of calB and, for cyclicity q > 1, of its q-th power, and every phase
    x(i) = calB^i (x)' x0 must stay in the image of (calB# (x) calA)*.
    """
    return _periodic_starts(cm, cm.calB, cm.calB_spectrum, min_eigenvectors, "calB")


def _periodic_starts(
    cm: CombinedModel, matrix: TropicalMatrix, spectrum: _Spectrum, basis: Callable, name: str
) -> list[Candidate]:
    """Candidates of fastest_init (calA) or slowest_init (calB): the
    eigenvectors of the matrix, and of its p-th power for cyclicity p > 1,
    whose p phases under the matrix all lie in the image of
    (calB# (x) calA)*."""
    if not spectrum.irreducible:
        raise NotIrreducible(f"{name} is not irreducible")
    p = cyclicity(spectrum)
    vectors = basis(spectrum)
    if p > 1:
        vectors = vectors + periodic_eigenvectors(spectrum, p)
    guard = mat_mul(conjugate(cm.calB), cm.calA)
    return [
        Candidate(x0=x0, period=p, rate=spectrum.eigenvalue)
        for x0 in _candidate_pool(vectors)
        if all(in_image_star(guard, x) for x in _orbit(matrix, x0, p))
    ]


def _orbit(matrix: TropicalMatrix, x0: Sequence[Number], count: int):
    """The first count states x0, matrix (x) x0, ..., each computed when
    the consumer asks for it."""
    state = TropicalMatrix.column(x0, matrix.tag)
    yield state.entries
    for _ in range(count - 1):
        state = mat_mul(matrix, state)
        yield state.entries


def run_trajectory(
    cm: CombinedModel,
    x0: Sequence[Number],
    mode: TrajectoryMode,
    steps: int,
    period_scalar: tuple[Number, int] | None = None,
) -> Trajectory:
    """Iterate the extremal recursion for the given number of steps.

    FASTEST steps with x(k) = calA (x) x(k-1), SLOWEST with
    x(k) = calB (x)' x(k-1); the result holds steps+1 states.
    """
    if mode is TrajectoryMode.FASTEST:
        matrix = cm.calA
    elif mode is TrajectoryMode.SLOWEST:
        matrix = cm.calB
    else:
        raise ValueError("run_trajectory generates fastest or slowest runs only")
    states = tuple(_orbit(matrix, x0, steps + 1))
    return Trajectory(states=states, mode=mode, period_scalar=period_scalar)


def verify_trajectory(bundle: MatrixBundle, traj: Trajectory) -> list[Violation]:
    """Check a trajectory against the raw per-step constraints.

    For every k >= 1 the lower bound x(k) >= A (x) x(k-1) (+) Blow (x) x(k)
    and the upper bound x(k) <= B# (x)' x(k) (+)' C (x)' x(k-1) must hold;
    the initial state must satisfy B (x) x(0) <= x(0).  Violations name
    the step, transition, bound side and the signed slack.

    The matrices are read once into arc lists, and a step makes one pass
    over them on the pair x(k-1), x(k) as one tuple (x(k)_j at n + j).
    Each bound follows the kernel's product rule (the zero was dropped
    with the arcs, native + does the rest, the first best term wins a
    tie, A before Blow and B# before C), so it has the value and the type
    of the dense formula.
    """
    states = traj.states
    if len(states) < 2:
        raise ValueError("verification needs at least two states")
    names = bundle.index_map
    n = len(names)
    if any(len(x) != n for x in states):
        raise DimensionMismatch(f"trajectory states must have {n} entries")
    out: list[Violation] = []
    x0 = states[0]
    for i, arcs in enumerate(_arcs(bundle.B)):
        bound = max([w + x0[j] for j, w in arcs], default=NEG_INF)
        if not x0[i] >= bound:
            _check_payload(x0[i])  # a NaN date fails every comparison
            out.append(Violation(0, names[i], "initial", _slack(x0[i], bound)))
    lower_arcs = [a + blow for a, blow in zip(_arcs(bundle.A), _arcs(bundle.Blow, n))]
    upper_arcs = [bsharp + c for bsharp, c in zip(_arcs(conjugate(bundle.B), n), _arcs(bundle.C))]
    rows = list(zip(range(n, 2 * n), names, lower_arcs, upper_arcs))
    for k in range(1, len(states)):
        pair = states[k - 1] + states[k]
        for i, name, lower_row, upper_row in rows:
            have = pair[i]
            lower = NEG_INF
            for j, w in lower_row:
                v = w + pair[j]
                if v > lower:
                    lower = v
            if not have >= lower:
                _check_payload(have)
                out.append(Violation(k, name, "lower", _slack(have, lower)))
            upper = POS_INF
            for j, w in upper_row:
                v = w + pair[j]
                if v < upper:
                    upper = v
            if not have <= upper:
                out.append(Violation(k, name, "upper", _slack(upper, have)))
    return out


def _arcs(m: TropicalMatrix, offset: int = 0) -> list[tuple[tuple[int, Number], ...]]:
    """Per row i, the (offset + j, w) pairs of the entries that are not the
    semiring zero, in column order."""
    zero = m.tag.zero
    return [
        tuple((offset + j, w) for j, w in enumerate(m.row(i)) if w != zero) for i in range(m.rows)
    ]


def _slack(have: Number, bound: Number) -> Number | str:
    """Signed margin have - bound; symbolic when a sentinel is involved."""
    if is_finite(have) and is_finite(bound):
        return have - bound
    return f"{format_number(have)} vs {format_number(bound)}"
