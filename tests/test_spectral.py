"""Spectral machinery: cycle means, critical graphs, eigenvectors,
cyclicity and coupling indices, cross-checked against enumeration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ptegkit import (
    MAXPLUS,
    MINPLUS,
    NEG_INF,
    POS_INF,
    NoCircuit,
    NotIrreducible,
    TropicalMatrix,
    build_graph,
    conjugate,
    coupling_index,
    critical_graph,
    cyclicity,
    eigenvectors,
    is_irreducible,
    kleene_plus,
    mat_mul,
    mat_pow,
    max_cycle_mean,
    min_cycle_mean,
    min_eigenvectors,
    negate,
    scale,
    spectral_report,
)

from conftest import random_irreducible, random_matrix
from oracles import (
    critical_arcs_by_enumeration,
    critical_components_by_enumeration,
    extremal_cycle_mean,
    strongly_connected,
    trace_formula_mean,
)

M = lambda rows, tag=MAXPLUS: TropicalMatrix.from_rows(rows, tag)
E = NEG_INF


# ------------------------------------------------------------ build_graph


def test_graph_of_epsilon_matrix_has_no_arcs():
    g = build_graph(TropicalMatrix.zeros(3, 3, MAXPLUS))
    assert g.node_count == 3 and g.arcs == ()


def test_graph_of_running_a(running_bundle):
    g = build_graph(running_bundle.A)
    assert set(g.arcs) == {(0, 1, 0), (1, 2, 0)}


def test_graph_arc_count_matches_support():
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(rng, 5, density=0.4)
        nonzero = sum(1 for v in a.entries if v != NEG_INF)
        assert len(build_graph(a).arcs) == nonzero


# --------------------------------------------------------- irreducibility


def test_single_node_with_finite_entry_is_irreducible():
    assert is_irreducible(M([[5]]))


def test_electro_lower_bound_matrix_is_irreducible(electro_cm):
    assert is_irreducible(electro_cm.calA)


def test_running_a_alone_is_reducible(running_bundle):
    assert not is_irreducible(running_bundle.A)


# ----------------------------------------------------------- cycle means


def test_electro_max_cycle_mean(electro_cm):
    assert max_cycle_mean(electro_cm.calA) == 549


def test_running_mod_max_cycle_mean(running_mod_cm):
    assert max_cycle_mean(running_mod_cm.calA) == 1


def test_acyclic_matrix_has_no_cycle_mean():
    a = M([[E, 3], [E, E]])
    assert max_cycle_mean(a) is None


def test_karp_equals_trace_formula_and_enumeration():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, density=rng.uniform(0.3, 0.9))
        karp = max_cycle_mean(a)
        trace = trace_formula_mean(a.to_rows())
        enum = extremal_cycle_mean(a.to_rows())
        if karp is None:
            assert trace is None and enum is None
        else:
            assert Fraction(karp) == trace == enum


def test_electro_min_cycle_mean(electro_cm):
    assert min_cycle_mean(electro_cm.calB) == 578


def test_min_cycle_mean_single_self_loop():
    assert min_cycle_mean(M([[7]], MINPLUS)) == 7


def test_min_cycle_mean_equals_negated_conjugate_radius():
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randint(2, 5)
        b = random_matrix(rng, n, MINPLUS, density=0.6)
        rho_prime = min_cycle_mean(b)
        rho_conj = max_cycle_mean(conjugate(b))
        if rho_prime is None:
            assert rho_conj is None
        else:
            assert rho_prime == -rho_conj


def test_negation_duality_exact():
    rng = random.Random(19)
    for _ in range(60):
        b = random_matrix(rng, 4, MINPLUS, density=0.6)
        got = min_cycle_mean(b)
        dual = max_cycle_mean(negate(b))
        assert (got is None) == (dual is None)
        if got is not None:
            assert got == -dual


# -------------------------------------------------------- critical graph


def test_single_self_loop_critical():
    crit = critical_graph(M([[4]]))
    assert crit.nodes == (0,)
    assert crit.arcs == ((0, 0),)
    assert crit.components == ((0,),)
    assert crit.cyclicities == (1,)


def test_running_mod_critical_graph_spans_all_nodes(running_mod_cm):
    crit = critical_graph(running_mod_cm.calA)
    assert crit.nodes == (0, 1, 2, 3)


def test_critical_arcs_match_enumeration():
    rng = random.Random(23)
    done = 0
    while done < 60:
        a = random_matrix(rng, 4, density=0.6)
        if max_cycle_mean(a) is None:
            continue
        done += 1
        crit = critical_graph(a)
        assert set(crit.arcs) == critical_arcs_by_enumeration(a.to_rows())


def test_critical_nodes_are_unit_diagonal_of_normalized_plus():
    rng = random.Random(29)
    for _ in range(40):
        a = random_irreducible(rng, 4)
        rho = max_cycle_mean(a)
        exact = TropicalMatrix.from_rows(
            [[Fraction(v) - Fraction(rho) if v != NEG_INF else v for v in row] for row in a.to_rows()],
            MAXPLUS,
        )
        plus = kleene_plus(exact)
        expected = tuple(i for i in range(4) if plus[i, i] == 0)
        assert critical_graph(a).nodes == expected


def test_min_plus_critical_graph_is_that_of_the_negation():
    rng = random.Random(31)
    for _ in range(20):
        b = random_irreducible(rng, 4, MINPLUS)
        assert critical_graph(b) == critical_graph(negate(b)) == spectral_report(b).critical


def test_irreducibility_and_critical_components_match_oracles():
    """Reachability and closure-derived components against plain boolean
    reachability and the union of enumerated extremal circuits, on
    matrices of both tags with small weight ranges so that means tie."""
    rng = random.Random(37)
    seen = {"reducible": 0, "irreducible": 0, "multi_component": 0}
    for trial in range(160):
        tag = (MAXPLUS, MINPLUS)[trial % 2]
        n = rng.randint(1, 6)
        width = rng.choice((1, 3, 9))
        if trial % 3 == 0:
            a = random_irreducible(rng, n, tag, lo=-width, hi=width)
        else:
            a = random_matrix(rng, n, tag, rng.choice((0.2, 0.4, 0.7)), -width, width)
        rows = a.to_rows()
        irreducible = is_irreducible(a)
        assert irreducible == strongly_connected(rows, tag is MAXPLUS)
        seen["irreducible" if irreducible else "reducible"] += 1
        if extremal_cycle_mean(rows, tag is MAXPLUS) is None:
            continue
        components = critical_graph(a).components
        assert list(components) == critical_components_by_enumeration(rows, tag is MAXPLUS)
        seen["multi_component"] += len(components) > 1
    assert min(seen.values()) >= 10, seen


def test_acyclic_critical_graph_raises():
    with pytest.raises(NoCircuit):
        critical_graph(M([[E, 1], [E, E]]))


# -------------------------------------------------------------- cyclicity


def test_electro_cyclicities(electro_cm):
    assert cyclicity(electro_cm.calA) == 1
    assert cyclicity(electro_cm.calB) == 3


def test_two_circuit_cyclicity():
    a = M([[E, 1], [1, E]])
    assert cyclicity(a) == 2


def test_cyclicity_lcm_over_components():
    # two disjoint critical circuits of lengths 2 and 3, same mean
    a = M(
        [
            [E, 1, E, E, E],
            [1, E, E, E, E],
            [E, E, E, E, 1],
            [E, E, 1, E, E],
            [E, E, E, 1, E],
        ]
    )
    crit = critical_graph(a)
    assert sorted(map(len, crit.components)) == [2, 3]
    assert cyclicity(a) == 6


# ------------------------------------------------------------ eigenvectors


def test_electro_eigenvector_basis(electro_cm):
    basis = eigenvectors(electro_cm.calA)
    assert basis == [(0, 40, 437, 495, 307, 365, 156, 214, -54)]


def test_running_mod_eigenvector_basis(running_mod_cm):
    assert eigenvectors(running_mod_cm.calA) == [(0, 1, 0, 1)]


def test_eigenvector_residual_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 5)
        a = random_irreducible(rng, n)
        rho = max_cycle_mean(a)
        for v in eigenvectors(a):
            col = TropicalMatrix.column(v, MAXPLUS)
            lhs = mat_mul(a, col)
            rhs = scale(col, rho)
            assert lhs.entries == rhs.entries


def test_eigenvectors_refuse_reducible(running_bundle):
    with pytest.raises(NotIrreducible):
        eigenvectors(running_bundle.A)


def test_electro_min_eigenvector_basis(electro_cm):
    basis = min_eigenvectors(electro_cm.calB)
    assert basis == [(0, 40, 440, 498, 264, 322, 94, 152, -80)]


def test_min_eigenvector_single_self_loop():
    assert min_eigenvectors(M([[5]], MINPLUS)) == [(0,)]


def test_min_eigenvector_residual_random():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(2, 5)
        b = random_irreducible(rng, n, MINPLUS)
        lam = min_cycle_mean(b)
        for v in min_eigenvectors(b):
            col = TropicalMatrix.column(v, MINPLUS)
            assert mat_mul(b, col).entries == scale(col, lam).entries


# ---------------------------------------------------------- coupling index


def test_coupling_index_of_running_mod(running_mod_cm):
    # calA^2 = 1 (x) calA but calA^1 != 1 (x) E
    a = running_mod_cm.calA
    assert coupling_index(a) == 1
    assert mat_pow(a, 2) == scale(a, 1)


def test_coupling_index_single_self_loop():
    assert coupling_index(M([[3]])) == 0


def test_coupling_index_makes_one_product_per_step(monkeypatch):
    """A sliding window of a^n .. a^(n+c): c products to fill it, then one
    per step, so c + N products in all."""
    import ptegkit.spectral
    import ptegkit.tropical

    a = M([[E, 2, 0], [2, E, E], [0, E, 0]])  # 2-cycle of mean 2 and a slower loop
    c = cyclicity(a)
    products = 0

    def counting(x, y):
        nonlocal products
        products += 1
        return mat_mul(x, y)

    monkeypatch.setattr(ptegkit.spectral, "mat_mul", counting)
    monkeypatch.setattr(ptegkit.tropical, "mat_mul", counting)
    n = coupling_index(a)
    assert (c, n) == (2, 4)
    assert products == c + n


def test_coupling_index_cap_consistency():
    rng = random.Random(41)
    for _ in range(30):
        a = random_irreducible(rng, 4)
        n1 = coupling_index(a, cap=200)
        n2 = coupling_index(a, cap=400)
        assert n1 == n2
        assert n1 is not None


def test_coupling_persistence():
    rng = random.Random(43)
    for _ in range(20):
        a = random_irreducible(rng, 4)
        n = coupling_index(a)
        c = cyclicity(a)
        rho = max_cycle_mean(a)
        exact = TropicalMatrix.from_rows(
            [[Fraction(v) if v != NEG_INF else v for v in row] for row in a.to_rows()],
            MAXPLUS,
        )
        shift = Fraction(rho) * c
        for extra in range(4):
            power = mat_pow(exact, n + extra)
            assert mat_mul(power, mat_pow(exact, c)).entries == scale(power, shift).entries


def test_coupling_not_found_returns_none():
    # reducible matrix with two different diagonal rates never couples
    a = M([[1, 0], [E, 2]])
    assert coupling_index(a, cap=15) is None


# --------------------------------------------------------- full report


def test_spectral_report_electro_lower(electro_cm):
    rep = spectral_report(electro_cm.calA)
    assert rep.eigenvalue == 549
    assert rep.cyclicity == 1
    assert rep.irreducible
    assert rep.eigenvectors == ((0, 40, 437, 495, 307, 365, 156, 214, -54),)
    assert rep.critical.nodes == (0, 1, 2, 3)


def test_spectral_report_electro_upper(electro_cm):
    rep = spectral_report(electro_cm.calB)
    assert rep.eigenvalue == 578
    assert rep.cyclicity == 3
    assert rep.irreducible
    assert rep.eigenvectors == ((0, 40, 440, 498, 264, 322, 94, 152, -80),)
    assert rep.critical.nodes == tuple(range(9))


def test_graph_rejects_top_entries():
    from ptegkit import TropicalError

    with pytest.raises(TropicalError, match="top entry"):
        build_graph(M([[POS_INF, 0], [0, 0]]))
