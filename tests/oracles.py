"""Independent brute-force oracles used to cross-check library results.

Everything in here is deliberately naive: straight loops, explicit
sentinel handling and exhaustive enumeration, so that agreement with the
library is meaningful.
"""

from __future__ import annotations

from fractions import Fraction

NEG = float("-inf")
POS = float("inf")


def naive_mul(a_rows, b_rows, maxplus=True):
    """Triple-loop tropical product on plain row lists."""
    n, m, p = len(a_rows), len(b_rows), len(b_rows[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            best = NEG if maxplus else POS
            for k in range(m):
                x, y = a_rows[i][k], b_rows[k][j]
                if maxplus:
                    if x == NEG or y == NEG:
                        continue
                    v = POS if (x == POS or y == POS) else x + y
                    best = v if v > best else best
                else:
                    if x == POS or y == POS:
                        continue
                    v = NEG if (x == NEG or y == NEG) else x + y
                    best = v if v < best else best
            row.append(best)
        out.append(row)
    return out


def naive_power(rows, k, maxplus=True):
    n = len(rows)
    zero = NEG if maxplus else POS
    acc = [[0 if i == j else zero for j in range(n)] for i in range(n)]
    for _ in range(k):
        acc = naive_mul(acc, rows, maxplus)
    return acc


def naive_star(rows, terms, maxplus=True):
    """Sum of the first `terms` powers including the identity."""
    n = len(rows)
    zero = NEG if maxplus else POS
    pick = max if maxplus else min
    acc = [[0 if i == j else zero for j in range(n)] for i in range(n)]
    power = [row[:] for row in acc]
    for _ in range(terms):
        power = naive_mul(power, rows, maxplus)
        acc = [[pick(a, p) for a, p in zip(ra, rp)] for ra, rp in zip(acc, power)]
    return acc


def elementary_circuits(rows, maxplus=True):
    """All elementary circuits of the precedence graph, as arc lists.

    Entry rows[i][j] != zero is an arc j -> i.  Each circuit is reported
    once, anchored at its smallest node.
    """
    n = len(rows)
    zero = NEG if maxplus else POS
    succ = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rows[i][j] != zero:
                succ[j].append((i, rows[i][j]))
    circuits = []

    def walk(start, node, path, weight, visited):
        for nxt, w in succ[node]:
            if nxt == start:
                circuits.append((path + [(node, nxt)], weight + w))
            elif nxt > start and nxt not in visited:
                walk(start, nxt, path + [(node, nxt)], weight + w, visited | {nxt})

    for s in range(n):
        walk(s, s, [], 0, {s})
    return circuits


def circuit_means(rows, maxplus=True):
    """Exact means of all elementary circuits."""
    return [
        (arcs, Fraction(Fraction(weight), len(arcs)))
        for arcs, weight in elementary_circuits(rows, maxplus)
    ]


def extremal_cycle_mean(rows, maxplus=True):
    """Max (or min) circuit mean by full enumeration; None when acyclic."""
    means = [m for _, m in circuit_means(rows, maxplus)]
    if not means:
        return None
    return max(means) if maxplus else min(means)


def trace_formula_mean(rows):
    """Max-plus spectral radius via max over k of tr(A^k) / k."""
    n = len(rows)
    best = None
    power = rows
    for k in range(1, n + 1):
        tr = max(power[i][i] for i in range(n))
        if tr != NEG:
            mean = Fraction(Fraction(tr), k)
            if best is None or mean > best:
                best = mean
        if k < n:
            power = naive_mul(power, rows)
    return best


def critical_arcs_by_enumeration(rows):
    """Arcs lying on some circuit of maximal mean, as (src, dst) pairs."""
    rho = extremal_cycle_mean(rows)
    if rho is None:
        return set()
    arcs = set()
    for arc_list, mean in circuit_means(rows):
        if mean == rho:
            for node, nxt in arc_list:
                arcs.add((node, nxt))
    return arcs


def strongly_connected(rows, maxplus=True):
    """True when every node reaches every node along the arcs, by a plain
    boolean transitive closure; a graph without nodes is not connected."""
    n = len(rows)
    zero = NEG if maxplus else POS
    reach = [[i == j or rows[j][i] != zero for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if reach[i][k] and reach[k][j]:
                    reach[i][j] = True
    return n > 0 and all(all(row) for row in reach)


def critical_components_by_enumeration(rows, maxplus=True):
    """Node sets of the circuits of extremal mean, merged wherever two of
    them share a node, as sorted tuples in ascending order."""
    rho = extremal_cycle_mean(rows, maxplus)
    comps = []
    for arc_list, mean in circuit_means(rows, maxplus):
        if mean != rho:
            continue
        nodes = {node for node, _ in arc_list}
        for comp in [c for c in comps if c & nodes]:
            nodes |= comp
            comps.remove(comp)
        comps.append(nodes)
    return sorted(tuple(sorted(c)) for c in comps)


def def8_admissible(bundle, states):
    """Raw per-step admissibility on plain tuples, written from scratch."""
    names = bundle.index_map
    n = len(names)
    a = bundle.A.to_rows()
    blow = bundle.Blow.to_rows()
    bupp = bundle.Bupp.to_rows()
    c = bundle.C.to_rows()
    b = bundle.B.to_rows()
    bsharp = [[POS if b[j][i] == NEG else NEG if b[j][i] == POS else -b[j][i] for j in range(n)] for i in range(n)]

    def maxdot(rows, vec, i):
        best = NEG
        for k in range(n):
            x = rows[i][k]
            if x == NEG or vec[k] == NEG:
                continue
            v = POS if (x == POS or vec[k] == POS) else x + vec[k]
            best = v if v > best else best
        return best

    def mindot(rows, vec, i):
        best = POS
        for k in range(n):
            x = rows[i][k]
            if x == POS or vec[k] == POS:
                continue
            v = NEG if (x == NEG or vec[k] == NEG) else x + vec[k]
            best = v if v < best else best
        return best

    x0 = states[0]
    for i in range(n):
        if not x0[i] >= maxdot(b, x0, i):
            return False
    for k in range(1, len(states)):
        prev, cur = states[k - 1], states[k]
        for i in range(n):
            low = max(maxdot(a, prev, i), maxdot(blow, cur, i))
            if not cur[i] >= low:
                return False
            up = min(mindot(bsharp, cur, i), mindot(c, prev, i))
            if not cur[i] <= up:
                return False
    return True


def first_order_admissible(cm, states):
    """Tightened one-step admissibility on plain tuples."""
    n = len(cm.transitions)
    cal_a = cm.calA.to_rows()
    cal_b = cm.calB.to_rows()
    bstar = cm.Bstar.to_rows()

    def maxdot(rows, vec, i):
        best = NEG
        for k in range(n):
            x = rows[i][k]
            if x == NEG or vec[k] == NEG:
                continue
            v = POS if (x == POS or vec[k] == POS) else x + vec[k]
            best = v if v > best else best
        return best

    def mindot(rows, vec, i):
        best = POS
        for k in range(n):
            x = rows[i][k]
            if x == POS or vec[k] == POS:
                continue
            v = NEG if (x == NEG or vec[k] == NEG) else x + vec[k]
            best = v if v < best else best
        return best

    for state in states:
        for i in range(n):
            if state[i] != maxdot(bstar, state, i):
                return False
    for k in range(1, len(states)):
        prev, cur = states[k - 1], states[k]
        for i in range(n):
            if not (maxdot(cal_a, prev, i) <= cur[i] <= mindot(cal_b, prev, i)):
                return False
    return True


def violations_by_rows(names, a, blow, b, c, states):
    """Violations of the raw per-step bounds as (step, transition, side,
    slack), from dense row lists with straight loops.

    A product term is skipped when either factor is the semiring zero and
    is native + otherwise; the first strictly best term wins, and so does
    the first operand of a sum on a tie (A before Blow, B# before C).  The
    bundles this is used on have only finite bounds where a bound can be
    violated, so every slack is a plain difference.
    """
    n = len(names)
    bsharp = [[POS if b[j][i] == NEG else NEG if b[j][i] == POS else -b[j][i] for j in range(n)] for i in range(n)]

    def dot(rows, vec, i, maxplus):
        zero = NEG if maxplus else POS
        best = zero
        for j in range(n):
            if rows[i][j] == zero or vec[j] == zero:
                continue
            v = rows[i][j] + vec[j]
            if (v > best) if maxplus else (v < best):
                best = v
        return best

    out = []
    x0 = states[0]
    for i in range(n):
        bound = dot(b, x0, i, True)
        if not x0[i] >= bound:
            out.append((0, names[i], "initial", x0[i] - bound))
    for k in range(1, len(states)):
        prev, cur = states[k - 1], states[k]
        for i in range(n):
            low_a, low_blow = dot(a, prev, i, True), dot(blow, cur, i, True)
            low = low_blow if low_blow > low_a else low_a
            if not cur[i] >= low:
                out.append((k, names[i], "lower", cur[i] - low))
            up_bsharp, up_c = dot(bsharp, cur, i, False), dot(c, prev, i, False)
            up = up_c if up_c < up_bsharp else up_bsharp
            if not cur[i] <= up:
                out.append((k, names[i], "upper", up - cur[i]))
    return out
