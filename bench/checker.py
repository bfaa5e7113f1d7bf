"""Independent correctness checks for benchmark answers.

Nothing here imports ptegkit.  The checks work from the documented file
formats alone (model files, trajectory CSV, the `analyze` report) and
from the raw place windows

    tmin <= x_j(k) - x_i(k - m) <= tmax

of a place i -> j holding m tokens.  A place with m >= 2 tokens is
expanded by ptegkit into synthetic transitions `<place>#1 .. #m-1`; a
trajectory carries their columns.  The check requires the chain
`p#1(k) = x_i(k-1)`, `p#j(k) = p#(j-1)(k-1)` for every k >= 1 and reads
x_i(k - m) as `p#(m-1)(k-1)`, which the chain makes equal to it and which
also covers k < m, where row 0 of the synthetic columns holds the history.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

INF = float("inf")


@dataclass(frozen=True)
class Place:
    name: str
    src: str
    dst: str
    tokens: int
    tmin: int
    tmax: float  # an int, or INF for no upper bound


@dataclass(frozen=True)
class Net:
    name: str
    transitions: tuple[str, ...]
    places: tuple[Place, ...]

    def state_names(self) -> tuple[str, ...]:
        """Declared transitions, then synthetic ones in creation order."""
        extra = [f"{p.name}#{k}" for p in self.places for k in range(1, p.tokens)]
        return self.transitions + tuple(extra)

    @property
    def dim(self) -> int:
        return len(self.state_names())


def format_net(net: Net) -> str:
    lines = [f"pteg {net.name}", "transitions " + " ".join(net.transitions)]
    for p in net.places:
        hi = "inf" if p.tmax == INF else str(p.tmax)
        lines.append(
            f"place {p.name} from {p.src} to {p.dst} tokens {p.tokens} interval {p.tmin} {hi}"
        )
    return "\n".join(lines) + "\n"


def parse_net(text: str) -> Net:
    name, transitions, places = None, (), []
    for raw in text.splitlines():
        f = raw.split()
        if not f or f[0].startswith("#"):
            continue
        if f[0] == "pteg":
            name = f[1]
        elif f[0] == "transitions":
            transitions = tuple(f[1:])
        elif f[0] == "place":
            hi = INF if f[10] == "inf" else int(f[10])
            places.append(Place(f[1], f[3], f[5], int(f[7]), int(f[9]), hi))
        else:
            raise ValueError(f"unknown model line {raw!r}")
    if name is None:
        raise ValueError("model has no 'pteg' header")
    return Net(name, transitions, tuple(places))


def parse_csv(text: str) -> tuple[dict[str, str], tuple[str, ...], list[list[Fraction]]]:
    """Comment fields (`# key = value`), column names and rows of a trajectory CSV."""
    meta: dict[str, str] = {}
    header: tuple[str, ...] = ()
    rows: list[list[Fraction]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif not header:
            header = tuple(c.strip() for c in line.split(","))
        elif line.strip():
            cells = line.split(",")
            if int(cells[0]) != len(rows):
                raise ValueError(f"row {len(rows)} is numbered {cells[0]}")
            rows.append([Fraction(c) for c in cells[1:]])
    if not header or header[0] != "k":
        raise ValueError("trajectory CSV has no 'k,...' header")
    return meta, header[1:], rows


def violating_steps(net: Net, columns: tuple[str, ...], rows: list[list[Fraction]]) -> set[int]:
    """Steps k at which some raw window or synthetic chain equality fails."""
    if columns != net.state_names():
        raise ValueError(f"columns {columns} do not match the model states {net.state_names()}")
    col = {name: i for i, name in enumerate(columns)}
    bad: set[int] = set()
    for k, row in enumerate(rows):
        for p in net.places:
            j = col[p.dst]
            if p.tokens == 0:
                lag = row[col[p.src]]
            elif k == 0:
                continue
            elif p.tokens == 1:
                lag = rows[k - 1][col[p.src]]
            else:
                lag = rows[k - 1][col[f"{p.name}#{p.tokens - 1}"]]
            d = row[j] - lag
            if d < p.tmin or d > p.tmax:
                bad.add(k)
            if k >= 1:
                prev = rows[k - 1]
                for h in range(1, p.tokens):
                    before = prev[col[p.src]] if h == 1 else prev[col[f"{p.name}#{h - 1}"]]
                    if row[col[f"{p.name}#{h}"]] != before:
                        bad.add(k)
    return bad


def circuit_window(net: Net, place_names: list[str]) -> tuple[Fraction, Fraction]:
    """Rate window [sum tmin / M, sum tmax / M] of a circuit of places.

    Raises ValueError unless the places chain head to tail and close, and
    carry M >= 1 tokens in total.
    """
    by_name = {p.name: p for p in net.places}
    ps = [by_name[n] for n in place_names]
    for a, b in zip(ps, ps[1:] + ps[:1]):
        if a.dst != b.src:
            raise ValueError(f"places {a.name} and {b.name} do not chain")
    tokens = sum(p.tokens for p in ps)
    if tokens < 1:
        raise ValueError("circuit carries no token")
    hi = sum(p.tmax for p in ps)
    return Fraction(sum(p.tmin for p in ps), tokens), (
        Fraction(hi, tokens) if hi != INF else INF
    )


def parse_report(text: str) -> dict:
    """Fields of an `analyze` report that the checks compare."""
    out: dict = {"fastest": [], "slowest": []}
    section = None
    for line in text.splitlines():
        key, _, value = line.strip().partition(": ")
        if line.startswith("fastest_candidates"):
            section = "fastest"
        elif line.startswith("slowest_candidates"):
            section = "slowest"
        elif section and key == "candidate":
            out[section].append(value)
        elif key in ("verdict", "rho_calA", "rho_prime_calB"):
            out[key] = value
    return out


def number(token: str) -> Fraction | None:
    return None if token in ("none", "") else Fraction(token)
