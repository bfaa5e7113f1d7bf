"""P-time event graph models: parsing, validation, normalization and
extraction of the characteristic matrices.

A model is a set of named transitions plus places, each place running
from one transition to another with an initial token count and a sojourn
interval [tmin, tmax] in abstract time units.  The file format is line
oriented:

    pteg <name>
    transitions t1 t2 ... tn
    place <name> from <t> to <t> tokens <k> interval <tmin> <tmax|inf>

Blank lines and lines starting with '#' are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from .tropical import (
    MAXPLUS,
    MINPLUS,
    NEG_INF,
    POS_INF,
    Number,
    TropicalError,
    TropicalMatrix,
    conjugate,
    format_number,
    is_finite,
    mat_add,
    parse_number,
    retag,
)


class ModelError(Exception):
    """Parse failure or structurally invalid model, with location info."""

    def __init__(self, message: str, line: int | None = None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(loc + message)
        self.line = line


@dataclass(frozen=True)
class PlaceSpec:
    name: str
    source: str
    target: str
    tokens: int
    tmin: Number
    tmax: Number


@dataclass(frozen=True)
class PtegModel:
    name: str
    transitions: tuple[str, ...]
    places: tuple[PlaceSpec, ...]


@dataclass(frozen=True)
class MatrixBundle:
    """Characteristic matrices of a normalized model.

    A and C hold the one-token place bounds, Blow and Bupp the zero-token
    place bounds.  Bupp defaults to +inf off-support so that conjugation
    turns absent upper bounds into the min-plus zero.  B is the combined
    same-index constraint matrix Blow (+) conjugate(Bupp).
    """

    A: TropicalMatrix
    Blow: TropicalMatrix
    Bupp: TropicalMatrix
    B: TropicalMatrix
    C: TropicalMatrix
    index_map: tuple[str, ...]


def parse_model(text: str) -> PtegModel:
    """Parse the model file format; raises ModelError with a location."""
    name: str | None = None
    transitions: list[str] = []
    places: list[PlaceSpec] = []
    seen_places: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "pteg":
            if len(fields) != 2:
                raise ModelError("expected 'pteg <name>'", lineno)
            name = fields[1]
        elif keyword == "transitions":
            if len(fields) < 2:
                raise ModelError("expected at least one transition name", lineno)
            transitions = fields[1:]
            for t in transitions:
                _check_name("transition", t, lineno)
            dupes = {t for t in transitions if transitions.count(t) > 1}
            if dupes:
                raise ModelError(f"duplicate transition name {sorted(dupes)[0]!r}", lineno)
        elif keyword == "place":
            if (
                len(fields) != 11
                or fields[2] != "from"
                or fields[4] != "to"
                or fields[6] != "tokens"
                or fields[8] != "interval"
            ):
                raise ModelError(
                    "expected 'place <name> from <t> to <t> tokens <k> "
                    "interval <tmin> <tmax|inf>'",
                    lineno,
                )
            pname, src, dst = fields[1], fields[3], fields[5]
            _check_name("place", pname, lineno)
            if pname in seen_places:
                raise ModelError(f"duplicate place name {pname!r}", lineno)
            seen_places.add(pname)
            for t in (src, dst):
                if t not in transitions:
                    raise ModelError(
                        f"place {pname!r} references unknown transition {t!r}", lineno
                    )
            try:
                tokens = int(fields[7])
            except ValueError:
                raise ModelError(f"bad token count {fields[7]!r}", lineno) from None
            try:
                tmin = parse_number(fields[9])
                tmax = parse_number(fields[10])
            except (ValueError, ZeroDivisionError, TropicalError):
                raise ModelError(f"bad interval bound in {line!r}", lineno) from None
            if tokens < 0:
                raise ModelError(f"place {pname!r} has a negative token count", lineno)
            if tmin == NEG_INF or tmin == POS_INF or (is_finite(tmin) and tmin < 0):
                raise ModelError(f"place {pname!r} needs a finite nonnegative tmin", lineno)
            if tmax == NEG_INF or (is_finite(tmax) and tmax < tmin):
                raise ModelError(f"place {pname!r} has tmin > tmax", lineno)
            places.append(PlaceSpec(pname, src, dst, tokens, tmin, tmax))
        else:
            raise ModelError(f"unknown keyword {keyword!r}", lineno)
    if name is None:
        raise ModelError("missing 'pteg <name>' header")
    if not transitions:
        raise ModelError("missing or empty 'transitions' line")
    return PtegModel(name, tuple(transitions), tuple(places))


def _check_name(kind: str, name: str, line: int) -> None:
    """Names head the columns of a trajectory CSV (a place's synthetic
    transitions as '<place>#k'), so none may hold a comma."""
    if "," in name:
        raise ModelError(f"{kind} name {name!r} contains a comma", line)


def serialize_model(m: PtegModel) -> str:
    """Inverse of parse_model up to comments and blank lines."""
    lines = [f"pteg {m.name}", "transitions " + " ".join(m.transitions)]
    for p in m.places:
        lines.append(
            f"place {p.name} from {p.source} to {p.target} tokens {p.tokens} "
            f"interval {format_number(p.tmin)} "
            + ("inf" if p.tmax == POS_INF else format_number(p.tmax))
        )
    return "\n".join(lines) + "\n"


def validate(m: PtegModel) -> list[str]:
    """Structural diagnostics; an empty list means the model is valid.

    Checks interval sanity, connectivity of the underlying graph, absence
    of circuits whose places all carry zero tokens, and consistency of the
    zero-token timing windows: their lower/upper constraint arcs must not
    compose into a positive-weight circuit, which would make the same-step
    constraint system unsatisfiable.
    """
    diags: list[str] = []
    index = {t: i for i, t in enumerate(m.transitions)}
    for p in m.places:
        if is_finite(p.tmax) and p.tmax < p.tmin:
            diags.append(f"place {p.name}: tmin > tmax")
        if p.tokens < 0:
            diags.append(f"place {p.name}: negative token count")
    if not m.places and len(m.transitions) > 1:
        diags.append("not connected: model has no places")
    n = len(m.transitions)
    undirected: list[set[int]] = [set() for _ in range(n)]
    zero_succ: list[list[int]] = [[] for _ in range(n)]
    constraint_arcs: list[tuple[int, int, Number]] = []
    for p in m.places:
        s, t = index[p.source], index[p.target]
        undirected[s].add(t)
        undirected[t].add(s)
        if p.tokens == 0:
            zero_succ[s].append(t)
            constraint_arcs.append((s, t, p.tmin))
            if is_finite(p.tmax):
                constraint_arcs.append((t, s, -p.tmax))
    if n:
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in undirected[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            missing = [m.transitions[i] for i in range(n) if i not in seen]
            diags.append("not connected: unreachable transitions " + " ".join(sorted(missing)))
    cycle = _find_cycle(n, zero_succ)
    if cycle is not None:
        names = " -> ".join(m.transitions[v] for v in cycle)
        diags.append(f"token-free circuit: {names}")
    positive = _positive_circuit(n, constraint_arcs)
    if positive is not None:
        names = " -> ".join(m.transitions[v] for v in positive)
        diags.append(f"contradictory timing windows: positive constraint circuit {names}")
    return diags


def _positive_circuit(n: int, arcs: list[tuple[int, int, Number]]) -> list[int] | None:
    """Nodes of some positive-weight circuit, found by Bellman-Ford on the
    negated weights; None when every circuit has nonpositive weight."""
    dist: list[Number] = [0] * n
    pred: list[int | None] = [None] * n
    marked: int | None = None
    for round_ in range(n):
        changed = False
        for u, v, w in arcs:
            if dist[u] - w < dist[v]:
                dist[v] = dist[u] - w
                pred[v] = u
                changed = True
                if round_ == n - 1:
                    marked = v
        if not changed:
            return None
    if marked is None:
        return None
    node: int = marked
    for _ in range(n):
        node = pred[node]  # type: ignore[assignment]
    cycle = [node]
    cur = pred[node]
    while cur is not None and cur != node:
        cycle.append(cur)
        cur = pred[cur]
    cycle.append(node)
    cycle.reverse()
    return cycle


def _find_cycle(n: int, succ: list[list[int]]) -> list[int] | None:
    """First directed cycle found by DFS, as a node sequence, else None."""
    color = [0] * n  # 0 fresh, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for root in range(n):
        if color[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            v, pi = stack[-1]
            if pi < len(succ[v]):
                stack[-1] = (v, pi + 1)
                w = succ[v][pi]
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, 0))
                elif color[w] == 1:
                    cycle = [v]
                    while cycle[-1] != w:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    cycle.append(w)
                    return cycle
            else:
                color[v] = 2
                stack.pop()
    return None


def is_normalized(m: PtegModel) -> bool:
    return all(p.tokens <= 1 for p in m.places)


def normalize(m: PtegModel) -> PtegModel:
    """Expand every place with m >= 2 tokens into a chain of one-token
    places.

    The chain runs: source -> [0,0] place -> synthetic transition -> ...
    with m-1 synthetic transitions, and the place adjacent to the original
    target keeps the original interval.  Synthetic transitions are named
    '<place>#k', chain places '<place>#segk', so output is deterministic.
    Behavior is preserved; the state dimension grows by tokens-1 per
    expanded place.
    """
    if is_normalized(m):
        return m
    transitions = list(m.transitions)
    places: list[PlaceSpec] = []
    for p in m.places:
        if p.tokens <= 1:
            places.append(p)
            continue
        hops = [p.source]
        for k in range(1, p.tokens):
            synth = f"{p.name}#{k}"
            if synth in transitions:
                raise ModelError(f"synthetic transition name {synth!r} already taken")
            transitions.append(synth)
            hops.append(synth)
        hops.append(p.target)
        for k in range(p.tokens):
            last = k == p.tokens - 1
            places.append(
                PlaceSpec(
                    name=f"{p.name}#seg{k + 1}",
                    source=hops[k],
                    target=hops[k + 1],
                    tokens=1,
                    tmin=p.tmin if last else 0,
                    tmax=p.tmax if last else 0,
                )
            )
    return PtegModel(m.name, tuple(transitions), tuple(places))


def extract_matrices(m: PtegModel) -> MatrixBundle:
    """Characteristic matrices of a normalized model.

    A one-token place i -> j contributes A[j, i] = tmin and C[j, i] = tmax;
    a zero-token place contributes to Blow / Bupp the same way.  Parallel
    places merge to the tightest constraint: max of lower bounds, min of
    upper bounds.
    """
    if not is_normalized(m):
        raise ModelError("extract_matrices needs a normalized model (tokens <= 1)")
    n = len(m.transitions)
    index = {t: i for i, t in enumerate(m.transitions)}
    a = [[NEG_INF] * n for _ in range(n)]
    c = [[POS_INF] * n for _ in range(n)]
    blow = [[NEG_INF] * n for _ in range(n)]
    bupp = [[POS_INF] * n for _ in range(n)]
    for p in m.places:
        i, j = index[p.source], index[p.target]
        if p.tokens == 1:
            a[j][i] = max(a[j][i], p.tmin)
            c[j][i] = min(c[j][i], p.tmax)
        else:
            blow[j][i] = max(blow[j][i], p.tmin)
            bupp[j][i] = min(bupp[j][i], p.tmax)
    A = TropicalMatrix.from_rows(a, MAXPLUS)
    C = TropicalMatrix.from_rows(c, MINPLUS)
    Blow = TropicalMatrix.from_rows(blow, MAXPLUS)
    Bupp = TropicalMatrix.from_rows(bupp, MAXPLUS)
    B = mat_add(Blow, retag(conjugate(Bupp), MAXPLUS))
    return MatrixBundle(A=A, Blow=Blow, Bupp=Bupp, B=B, C=C, index_map=tuple(m.transitions))
