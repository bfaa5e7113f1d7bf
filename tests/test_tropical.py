"""Core semiring arithmetic: scalars, matrices, closures, residuation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptegkit import (
    MAXPLUS,
    MINPLUS,
    NEG_INF,
    POS_INF,
    DimensionMismatch,
    StarDivergence,
    TagMismatch,
    TropicalMatrix,
    conjugate,
    format_matrix,
    is_finite,
    kleene_plus,
    kleene_star,
    leq,
    mat_add,
    mat_mul,
    negate,
    parse_matrix,
    residual_left,
    retag,
    scalar_add,
    scalar_mul,
)

from conftest import random_matrix, random_nondiverging
from oracles import elementary_circuits, naive_mul, naive_star

M = lambda rows, tag=MAXPLUS: TropicalMatrix.from_rows(rows, tag)
E = NEG_INF


# ---------------------------------------------------------------- scalars


def test_scalar_mul_absorption_maxplus():
    assert scalar_mul(NEG_INF, POS_INF, MAXPLUS) == NEG_INF
    assert scalar_mul(POS_INF, NEG_INF, MAXPLUS) == NEG_INF


def test_scalar_mul_absorption_minplus():
    assert scalar_mul(POS_INF, NEG_INF, MINPLUS) == POS_INF
    assert scalar_mul(NEG_INF, POS_INF, MINPLUS) == POS_INF


def test_scalar_mul_unit():
    assert scalar_mul(0, 549, MAXPLUS) == 549
    assert scalar_mul(0, 549, MINPLUS) == 549


def test_scalar_mul_top_with_finite():
    assert scalar_mul(POS_INF, 3, MAXPLUS) == POS_INF
    assert scalar_mul(NEG_INF, 3, MINPLUS) == NEG_INF


# ---------------------------------------------------------------- mat_add


def test_mat_add_entrywise_max():
    a = M([[1, E], [E, 2]])
    z = M([[0, 0], [0, 0]])
    assert mat_add(a, z) == M([[1, 0], [0, 2]])


def test_mat_add_idempotent():
    a = M([[1, -3], [E, 7]])
    assert mat_add(a, a) == a


def test_mat_add_rejects_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_add(M([[1]]), M([[1, 2]]))
    with pytest.raises(TagMismatch):
        mat_add(M([[1]]), M([[1]], MINPLUS))


def test_blow_plus_conjugated_bupp_reproduces_b(running_bundle):
    b = mat_add(running_bundle.Blow, retag(conjugate(running_bundle.Bupp), MAXPLUS))
    assert b == running_bundle.B
    assert b == M([[E, E, 0, -2], [E, E, E, 0], [0, E, E, -2], [1, 0, 0, E]])


# ---------------------------------------------------------------- mat_mul


def test_identity_is_neutral():
    rng = random.Random(7)
    a = random_matrix(rng, 4)
    e = TropicalMatrix.identity(4, MAXPLUS)
    assert mat_mul(e, a) == a
    assert mat_mul(a, e) == a


def test_mat_mul_matches_shared_eigenvector(running_mod_cm):
    x = TropicalMatrix.column((0, 1, 0, 1), MAXPLUS)
    assert mat_mul(running_mod_cm.calA, x) == TropicalMatrix.column((1, 2, 1, 2), MAXPLUS)


def assert_mixed_products_match_naive_oracle(rng, tag):
    """Rectangular shapes, top entries, and int, Fraction and float payloads:
    the same entries of the same types as the oracle."""
    maxplus = tag is MAXPLUS
    payloads = [
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        lambda: rng.randint(-18, 18) / 4,
    ]

    def entry():
        u = rng.random()
        return tag.zero if u < 0.3 else tag.top if u < 0.4 else rng.choice(payloads)()

    seen_top = 0
    for _ in range(200):
        n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[entry() for _ in range(m)] for _ in range(n)]
        b = [[entry() for _ in range(p)] for _ in range(m)]
        got = mat_mul(M(a, tag), M(b, tag)).to_rows()
        want = naive_mul(a, b, maxplus)
        assert got == want
        assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in want]
        seen_top += any(tag.top in row for row in got)
    assert seen_top >= 50


def test_mat_mul_matches_naive_oracle():
    rng = random.Random(2024)
    for _ in range(50):
        a = random_matrix(rng, 3, density=0.6)
        b = random_matrix(rng, 3, density=0.6)
        assert mat_mul(a, b).to_rows() == naive_mul(a.to_rows(), b.to_rows())
    assert_mixed_products_match_naive_oracle(rng, MAXPLUS)


def test_mat_mul_minplus_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(50):
        a = random_matrix(rng, 3, MINPLUS, density=0.6)
        b = random_matrix(rng, 3, MINPLUS, density=0.6)
        assert mat_mul(a, b).to_rows() == naive_mul(a.to_rows(), b.to_rows(), maxplus=False)
    assert_mixed_products_match_naive_oracle(rng, MINPLUS)


def test_closures_make_no_scalar_calls(monkeypatch):
    """The Floyd-Warshall step applies the product rule inline."""
    import ptegkit.tropical

    def forbidden(*args):
        raise AssertionError("per-entry call to a public scalar operation")

    monkeypatch.setattr(ptegkit.tropical, "scalar_add", forbidden)
    monkeypatch.setattr(ptegkit.tropical, "scalar_mul", forbidden)
    rng = random.Random(31)
    for tag in (MAXPLUS, MINPLUS):
        for _ in range(5):
            a = random_nondiverging(rng, 4, tag)
            assert kleene_plus(a) == mat_mul(a, kleene_star(a))
    with pytest.raises(StarDivergence):
        kleene_star(M([[1]]))


def test_mat_mul_rejects_mixed_tags():
    with pytest.raises(TagMismatch):
        mat_mul(M([[1]]), M([[1]], MINPLUS))


# ------------------------------------------------------------- conjugate


def test_conjugate_involution():
    rng = random.Random(5)
    for _ in range(20):
        a = random_matrix(rng, 4, density=0.5)
        assert conjugate(conjugate(a)) == a


def test_conjugate_definitional():
    a = M([[1, E], [3, 2]])
    c = conjugate(a)
    assert c.tag is MINPLUS
    assert c.to_rows() == [[-1, -3], [POS_INF, -2]]


def test_conjugate_product_law():
    rng = random.Random(11)
    for _ in range(30):
        a = random_matrix(rng, 4, density=0.6)
        b = random_matrix(rng, 4, density=0.6)
        assert conjugate(mat_mul(a, b)) == mat_mul(conjugate(b), conjugate(a))


def test_conjugate_sum_law():
    rng = random.Random(12)
    for _ in range(30):
        a = random_matrix(rng, 3, density=0.6)
        b = random_matrix(rng, 3, density=0.6)
        assert conjugate(mat_add(a, b)) == mat_add(conjugate(a), conjugate(b))


def test_conjugate_star_law():
    rng = random.Random(13)
    for _ in range(30):
        a = random_nondiverging(rng, 4)
        assert conjugate(kleene_star(a)) == kleene_star(conjugate(a))


# ------------------------------------------------------------ kleene star


def test_star_of_epsilon_matrix_is_identity():
    a = TropicalMatrix.zeros(3, 3, MAXPLUS)
    assert kleene_star(a) == TropicalMatrix.identity(3, MAXPLUS)


def test_star_of_running_b_gives_combined_lower_bound(running_bundle, running_cm):
    bstar = kleene_star(running_bundle.B)
    got = mat_mul(mat_mul(bstar, running_bundle.A), bstar)
    assert got == running_cm.calA


def test_star_diverges_on_positive_circuit():
    a = M([[E, 1], [0, E]])
    with pytest.raises(StarDivergence):
        kleene_star(a)


def test_min_star_diverges_on_negative_circuit():
    a = TropicalMatrix.from_rows([[POS_INF, -1], [0, POS_INF]], MINPLUS)
    with pytest.raises(StarDivergence):
        kleene_star(a)


def test_star_truncation_stabilizes():
    rng = random.Random(21)
    for _ in range(30):
        a = random_nondiverging(rng, 4)
        star = kleene_star(a)
        assert star.to_rows() == naive_star(a.to_rows(), 2 * a.rows)


def test_star_fixpoint_laws():
    rng = random.Random(22)
    for _ in range(30):
        a = random_nondiverging(rng, 4)
        star = kleene_star(a)
        assert leq(mat_mul(a, star), star)
        assert mat_mul(star, star) == star
        assert all(star[i, i] == 0 for i in range(star.rows))


def test_plus_equals_matrix_times_star():
    rng = random.Random(23)
    for _ in range(30):
        a = random_nondiverging(rng, 4)
        assert kleene_plus(a) == mat_mul(a, kleene_star(a))


def test_star_of_mixed_sign_matrices_matches_oracle():
    """Positive arcs without a positive circuit (max-plus), negative arcs
    without a negative one (min-plus), and top entries off or on circuits:
    the closure is the truncated power sum, or both closures diverge."""
    rng = random.Random(24)
    seen = {"unsafe_arc": 0, "top": 0, "diverges": 0}
    for trial in range(400):
        tag = MAXPLUS if trial % 2 else MINPLUS
        maxplus = tag is MAXPLUS
        n = rng.randint(1, 5)
        # lean the weights towards the safe sign so both outcomes are common
        lo, hi = (-9, rng.choice((1, 2, 9))) if maxplus else (-rng.choice((1, 2, 9)), 9)
        rows = random_matrix(rng, n, tag, rng.choice([0.3, 0.5, 0.8]), lo, hi).to_rows()
        if trial // 2 % 2:
            rows[rng.randrange(n)][rng.randrange(n)] = tag.top
        a = TropicalMatrix.from_rows(rows, tag)
        if any(w > 0 if maxplus else w < 0 for _, w in elementary_circuits(rows, maxplus)):
            seen["diverges"] += 1
            with pytest.raises(StarDivergence):
                kleene_star(a)
            with pytest.raises(StarDivergence):
                kleene_plus(a)
            continue
        seen["top"] += tag.top in a.entries
        seen["unsafe_arc"] += any(is_finite(v) and (v > 0 if maxplus else v < 0) for v in a.entries)
        assert kleene_star(a).to_rows() == naive_star(rows, 2 * n, maxplus)
        assert kleene_plus(a) == mat_mul(a, kleene_star(a))
    assert min(seen.values()) >= 20, seen


def test_plus_of_epsilon_matrix():
    a = TropicalMatrix.zeros(3, 3, MAXPLUS)
    assert kleene_plus(a) == a


def test_normalized_electro_plus_has_unit_diagonal_at_first_node(electro_cm):
    from ptegkit import scale

    shifted = scale(electro_cm.calA, -549)
    plus = kleene_plus(shifted)
    assert plus[0, 0] == 0
    x_a = plus.col(0)
    assert x_a == (0, 40, 437, 495, 307, 365, 156, 214, -54)


# ------------------------------------------------------------ residuation


def test_residual_galois_upper():
    rng = random.Random(31)
    for _ in range(40):
        a = random_matrix(rng, 3, density=0.7)
        y = random_matrix(rng, 3, density=0.9).col(0)
        ycol = TropicalMatrix.column(y, MINPLUS)
        x = residual_left(a, ycol)
        assert leq(mat_mul(a, retag(x, MAXPLUS)), ycol)


def test_residual_galois_lower():
    rng = random.Random(32)
    for _ in range(40):
        a = random_matrix(rng, 3, density=0.7)
        x = TropicalMatrix.column(random_matrix(rng, 3, density=1.0).col(0), MAXPLUS)
        assert leq(x, residual_left(a, mat_mul(a, x)))


def test_residual_of_identity():
    y = TropicalMatrix.column((4, -1, 3), MINPLUS)
    e = TropicalMatrix.identity(3, MAXPLUS)
    assert residual_left(e, y).entries == y.entries


def test_residual_is_greatest_solution():
    rng = random.Random(33)
    for _ in range(40):
        a = random_matrix(rng, 3, density=0.8)
        y = TropicalMatrix.column(random_matrix(rng, 3, density=1.0).col(0), MINPLUS)
        best = residual_left(a, y)
        assert leq(mat_mul(a, retag(best, MAXPLUS)), y)
        # bumping any coordinate that the bound actually constrains breaks it
        for i in range(3):
            if best[i, 0] == POS_INF or all(a[j, i] == NEG_INF for j in range(3)):
                continue
            bumped = list(best.entries)
            bumped[i] = bumped[i] + 1
            assert not leq(mat_mul(a, TropicalMatrix.column(bumped, MAXPLUS)), y)


# ------------------------------------------------------------------- leq


def test_leq_reflexive():
    a = M([[1, E], [POS_INF, 0]])
    assert leq(a, a)


def test_leq_electro_lower_below_upper(electro_cm):
    assert leq(electro_cm.calA, electro_cm.calB)


def test_leq_running_fails(running_cm):
    assert not leq(running_cm.calA, running_cm.calB)
    assert running_cm.calA[0, 0] == 1 and running_cm.calB[0, 0] == 0


def test_leq_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        leq(M([[1]]), M([[1, 2]]))


# ------------------------------------------------------ semiring laws


finite_scalar = st.integers(min_value=-50, max_value=50)
scalar = st.one_of(st.just(NEG_INF), st.just(POS_INF), finite_scalar)
tags = st.sampled_from([MAXPLUS, MINPLUS])


@given(scalar, scalar, tags)
def test_scalar_add_commutes(a, b, tag):
    assert scalar_add(a, b, tag) == scalar_add(b, a, tag)


@given(scalar, scalar, scalar, tags)
def test_scalar_add_associates(a, b, c, tag):
    assert scalar_add(scalar_add(a, b, tag), c, tag) == scalar_add(a, scalar_add(b, c, tag), tag)


@given(scalar, tags)
def test_scalar_add_idempotent(a, tag):
    assert scalar_add(a, a, tag) == a


@given(scalar, tags)
def test_zero_is_neutral_and_absorbing(a, tag):
    assert scalar_add(a, tag.zero, tag) == a
    assert scalar_mul(a, tag.zero, tag) == tag.zero


@given(scalar, scalar, scalar, tags)
def test_mul_distributes_over_add(a, b, c, tag):
    left = scalar_mul(a, scalar_add(b, c, tag), tag)
    right = scalar_add(scalar_mul(a, b, tag), scalar_mul(a, c, tag), tag)
    assert left == right


@given(scalar, scalar, scalar, tags)
def test_scalar_mul_associates(a, b, c, tag):
    assert scalar_mul(scalar_mul(a, b, tag), c, tag) == scalar_mul(a, scalar_mul(b, c, tag), tag)


def _matrices(tag):
    entry = st.one_of(st.just(tag.zero), st.integers(min_value=-9, max_value=9))
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: TropicalMatrix.from_rows(rows, tag))
    )


@settings(max_examples=60, deadline=None)
@given(_matrices(MAXPLUS), st.data())
def test_matrix_product_associates(a, data):
    n = a.rows
    entry = st.one_of(st.just(NEG_INF), st.integers(min_value=-9, max_value=9))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    b = TropicalMatrix.from_rows(data.draw(rows), MAXPLUS)
    c = TropicalMatrix.from_rows(data.draw(rows), MAXPLUS)
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(max_examples=60, deadline=None)
@given(_matrices(MAXPLUS), st.data())
def test_galois_connection_matrix(a, data):
    n = a.rows
    vec = st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n)
    x = TropicalMatrix.column(data.draw(vec), MAXPLUS)
    y = TropicalMatrix.column(data.draw(vec), MINPLUS)
    lhs = leq(mat_mul(a, x), y)
    rhs = leq(x, residual_left(a, y))
    assert lhs == rhs


# -------------------------------------------------------------- negate


def test_negate_flips_values_and_tag():
    a = M([[1, E], [POS_INF, -2]])
    n = negate(a)
    assert n.tag is MINPLUS
    assert n.to_rows() == [[-1, POS_INF], [NEG_INF, 2]]
    assert negate(n) == a


# ------------------------------------------------------------ text format


def test_format_parse_round_trip():
    rng = random.Random(41)
    for tag in (MAXPLUS, MINPLUS):
        for _ in range(20):
            a = random_matrix(rng, 3, tag, density=0.5)
            assert parse_matrix(format_matrix(a)) == a


def test_format_round_trips_floats_exactly():
    a = M([[0.1, 2.5], [NEG_INF, POS_INF]])
    b = parse_matrix(format_matrix(a))
    assert b.entries == a.entries
