"""Seeded instance generators with ground truth known by construction.

Every instance is a single-hoist electroplating line that generalizes
`models/electro.pteg` (cyclic hoist scheduling, Phillips & Unger 1976):
K tanks between an input and an output station, moves 0..K with a lift
transition `l<i>` and a drop transition `d<i>`, one hoist that performs
the moves in a fixed cyclic order starting with move 0.  A periodic
schedule x(k) = x0 + k*lam is planted first, and every window is then
set around the sojourn that this schedule realizes, so the planted
schedule is admissible and the verdict is CANDIDATES_EXIST.  A chosen
number of tanks keep each carrier for more than one cycle and hold 2
tokens; ptegkit adds one synthetic transition for each of them.  The hoist circuit visits every
transition, so every net is strongly connected.

An infeasible variant adds one `drift` place from a lift back to `l0`.
It closes a second circuit through `l0` whose rate window
[sum tmin / M, sum tmax / M] lies strictly above the hoist circuit's,
so no common cycle time exists and the verdict is NO_SOLUTION.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from checker import Net, Place, format_net, violating_steps

HISTORY = 2  # most tokens a generated place holds, so the steps of history a trajectory needs


@dataclass(frozen=True)
class Instance:
    net: Net
    verdict: str  # CANDIDATES_EXIST or NO_SOLUTION
    rate: int | None = None  # planted cycle time
    x0: dict[str, int] = field(default_factory=dict)  # planted first-period dates
    circuits: tuple[tuple[str, ...], ...] = ()  # disjoint-window circuits, infeasible only

    @property
    def text(self) -> str:
        return format_net(self.net)


@dataclass(frozen=True)
class VerifyCase:
    instance: Instance
    csv: str
    planted: frozenset[int]  # steps where a violation was planted
    violating: frozenset[int]  # every violating step, from the independent checker
    states: int

    @property
    def expected_exit(self) -> int:
        return 2 if self.violating else 0


def _travel(a: int, b: int) -> int:
    """Empty hoist travel time between stations a and b."""
    return 6 + 4 * abs(a - b)


def hoist_line(rng: random.Random, name: str, tanks: int, two_carrier: int,
               slack: int) -> Instance:
    """Planted single-hoist line with `tanks` tanks, `two_carrier` of which
    hold 2 carriers, so its normalized dimension is 2 * (tanks + 1) +
    two_carrier; windows open up to `slack` around the planted sojourns."""
    order = [0] + rng.sample(range(1, tanks + 1), tanks)
    move = [rng.randint(20, 60) for _ in range(tanks + 1)]
    x0: dict[str, int] = {}
    places: list[Place] = []

    def window(pname: str, src: str, dst: str, tokens: int, sojourn: int, floor: int = 0):
        lo = max(floor, sojourn - rng.randint(0, slack))
        places.append(Place(pname, src, dst, tokens, lo, sojourn + rng.randint(0, slack)))

    t = 0
    for r, i in enumerate(order):
        if r:
            t += _travel(order[r - 1] + 1, i) + rng.randint(0, 3 * slack)
        x0[f"l{i}"] = t
        t += move[i]
        x0[f"d{i}"] = t
        places.append(Place(f"move{i}", f"l{i}", f"d{i}", 0, move[i], move[i]))
    rate = t + _travel(order[-1] + 1, 0) + rng.randint(0, 3 * slack)
    for r in range(tanks):
        a, b = order[r], order[r + 1]
        gap = x0[f"l{b}"] - x0[f"d{a}"]
        window(f"seq{r}", f"d{a}", f"l{b}", 0, gap, _travel(a + 1, b))
    back = rate - x0[f"d{order[-1]}"]
    window("return", f"d{order[-1]}", "l0", 1, back, _travel(order[-1] + 1, 0))
    doubled = set(rng.sample(range(1, tanks + 1), two_carrier))
    for tank in range(1, tanks + 1):
        base = x0[f"l{tank}"] - x0[f"d{tank - 1}"]
        tokens = 2 if tank in doubled else int(base <= 0)
        window(f"soak{tank}", f"d{tank - 1}", f"l{tank}", tokens, base + tokens * rate)
    transitions = tuple(f"{kind}{i}" for i in range(tanks + 1) for kind in ("l", "d"))
    net = Net(name, transitions, tuple(places))
    return Instance(net, "CANDIDATES_EXIST", rate, x0)


def infeasible(rng: random.Random, base: Instance) -> Instance:
    """Add a drift place that closes a circuit with a rate window above the hoist's."""
    net = base.net
    by_dst = {p.dst: p for p in net.places if p.tokens == 0 and not p.name.startswith("soak")}
    hoist = hoist_order(net)
    hoist_hi = sum(p.tmax for p in hoist)
    lifts = [t for t in net.transitions if t.startswith("l") and t != "l0"]
    target = rng.choice(lifts)
    path: list[Place] = []
    node = target
    while node != "l0":
        path.append(by_dst[node])
        node = path[-1].src
    path.reverse()
    lo = hoist_hi - sum(p.tmin for p in path) + rng.randint(1, 40)
    drift = Place("drift", target, "l0", 1, lo, lo + rng.randint(0, 40))
    bad = Net(net.name + "-x", net.transitions, net.places + (drift,))
    circuits = (tuple(p.name for p in hoist), tuple(p.name for p in path) + ("drift",))
    return Instance(bad, "NO_SOLUTION", circuits=circuits)


def hoist_order(net: Net) -> list[Place]:
    """The hoist circuit: from l0 along move/seq places back via `return`."""
    out: list[Place] = []
    by_src = {p.src: p for p in net.places if not p.name.startswith(("soak", "drift"))}
    node = "l0"
    while True:
        out.append(by_src[node])
        node = out[-1].dst
        if node == "l0":
            return out


def sweep_stream(seed: int) -> Iterator[Instance]:
    """Lines of 1-3 tanks, every other one with a 2-carrier tank (normalized
    dimension 4-9); every fourth one is made infeasible."""
    rng = random.Random(f"sweep-{seed}")
    for n in itertools.count():
        inst = hoist_line(rng, f"sweep{n}", 1 + n % 3, (n // 3) % 2, slack=12)
        yield infeasible(rng, inst) if n % 4 == 3 else inst


def planted_states(inst: Instance, rng: random.Random, steps: int,
                   jitter: int) -> list[dict[str, int]]:
    """Dates x(k) = x0 + k*lam + delta_k for k = -HISTORY..steps, stored at
    index k + HISTORY, with one shift delta_k per step drawn from [0, jitter]."""
    states = []
    for k in range(-HISTORY, steps + 1):
        delta = rng.randint(0, jitter) if k > 0 else 0
        states.append({t: v + k * inst.rate + delta for t, v in inst.x0.items()})
    return states


def min_slack(inst: Instance) -> int:
    """Smallest margin between a planted sojourn and its window bounds,
    over the places that hold tokens."""
    rate, x0, out = inst.rate, inst.x0, None
    for p in inst.net.places:
        if not p.tokens:
            continue  # same-step places keep their sojourn under a per-step shift
        s = x0[p.dst] - x0[p.src] + p.tokens * rate
        m = min(s - p.tmin, p.tmax - s)
        out = m if out is None else min(out, m)
    return out


def verify_stream(seed: int, steps: int = 1000) -> Iterator[VerifyCase]:
    """Long trajectories on lines of 3-5 tanks with one 2-carrier tank
    (normalized dimension 9, 11, 13): even cases admissible, odd ones with
    violations planted at three steps."""
    rng = random.Random(f"verify-{seed}")
    for n in itertools.count():
        inst = hoist_line(rng, f"verify{n}", 3 + n % 3, 1, slack=15)
        yield verify_case(rng, inst, steps, plant=n % 2 == 1)


def verify_case(rng: random.Random, inst: Instance, steps: int, plant: bool) -> VerifyCase:
    """A jittered run of the planted schedule, optionally pushed past a
    window's upper bound at three random steps, as trajectory CSV text."""
    dated = planted_states(inst, rng, steps, jitter=min_slack(inst) // 2)
    planted: set[int] = set()
    if plant:
        for _ in range(3):
            k = rng.randint(3, steps)
            p = rng.choice(inst.net.places)
            dated[k + HISTORY][p.dst] += p.tmax - p.tmin + rng.randint(1, 30)
            planted.add(k)
    names = inst.net.state_names()
    rows = state_rows(inst.net, dated, steps)
    csv = "k," + ",".join(names) + "\n" + "".join(
        f"{k}," + ",".join(map(str, r)) + "\n" for k, r in enumerate(rows)
    )
    bad = violating_steps(inst.net, names, rows)
    return VerifyCase(inst, csv, frozenset(planted), frozenset(bad), steps + 1)


def state_rows(net: Net, dated: list[dict[str, int]], steps: int) -> list[list[int]]:
    """Rows k = 0..steps in state order; the synthetic column `p#h` holds
    the date of p's source h steps earlier."""
    rows = []
    for k in range(steps + 1):
        row = dict(dated[k + HISTORY])
        for p in net.places:
            for h in range(1, p.tokens):
                row[f"{p.name}#{h}"] = dated[k + HISTORY - h][p.src]
        rows.append([row[t] for t in net.state_names()])
    return rows
