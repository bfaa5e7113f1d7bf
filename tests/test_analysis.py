"""Combined first-order model, existence analysis, extremal trajectories
and admissibility verification."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

import ptegkit.analysis
from ptegkit import (
    MAXPLUS,
    MINPLUS,
    NEG_INF,
    POS_INF,
    CouplingNotFound,
    DimensionMismatch,
    ExistenceReport,
    ModelError,
    NotIrreducible,
    Trajectory,
    TrajectoryMode,
    TropicalError,
    TropicalMatrix,
    build_combined,
    conjugate,
    existence_report,
    extract_matrices,
    fastest_init,
    in_image_star,
    is_finite,
    is_irreducible,
    kleene_star,
    leq,
    mat_mul,
    max_cycle_mean,
    necessary_check,
    normalize,
    parse_model,
    run_trajectory,
    scale,
    slowest_init,
    validate,
    verify_trajectory,
)

from conftest import load_golden_matrix, random_model_text
from oracles import def8_admissible, first_order_admissible, violations_by_rows

X_A = (0, 40, 437, 495, 307, 365, 156, 214, -54)
X_B = (0, 40, 440, 498, 264, 322, 94, 152, -80)


def shift(vec, s):
    return tuple(v + s for v in vec)


# ------------------------------------------------------------ build_combined


def test_running_combined_matches_golden(running_cm):
    assert running_cm.calA == load_golden_matrix("running_calA.txt")
    assert running_cm.calB == load_golden_matrix("running_calB.txt")


def test_running_mod_combined_upper_equals_lower(running_mod_cm):
    golden = load_golden_matrix("runningmod_calAB.txt")
    assert running_mod_cm.calA == golden
    assert running_mod_cm.calB.entries == golden.entries
    assert running_mod_cm.calB.tag is MINPLUS


def test_electro_combined_matches_golden(electro_cm):
    assert electro_cm.calA == load_golden_matrix("electro_calA.txt")
    assert electro_cm.calB == load_golden_matrix("electro_calB.txt")


def test_trivial_model_combined():
    cm = build_combined(extract_matrices(parse_model("pteg empty\ntransitions t\n")))
    assert cm.calA.entries == (NEG_INF,)
    assert cm.calB.entries == (POS_INF,)
    assert cm.Hstar == TropicalMatrix.identity(1, MAXPLUS)


def test_combined_recomputable_from_bundle(electro_cm):
    bundle = electro_cm.bundle
    bstar = kleene_star(bundle.B)
    assert electro_cm.calA == mat_mul(mat_mul(bstar, bundle.A), bstar)
    bshs = kleene_star(conjugate(bundle.B))
    assert electro_cm.calB == mat_mul(mat_mul(bshs, bundle.C), bshs)


def test_build_combined_takes_one_star_of_b(monkeypatch, electro_bundle):
    """B* and H* only: B#* is the conjugate of B*, not a second closure."""
    import ptegkit.analysis

    calls = []

    def counting(a):
        calls.append(a)
        return kleene_star(a)

    monkeypatch.setattr(ptegkit.analysis, "kleene_star", counting)
    build_combined(electro_bundle)
    assert len(calls) == 2


def test_integer_model_keeps_integer_closures(electro_cm):
    """Integral cycle means leave the normalized closures integer."""
    for spec in (electro_cm.calA_spectrum, electro_cm.calB_spectrum):
        finite = [v for v in spec.closure.entries if is_finite(v)]
        assert finite and all(type(v) is int for v in finite)


# --------------------------------------------------------- existence report


def test_running_example_has_no_solution(running_cm):
    rep = existence_report(running_cm)
    assert rep.verdict == ExistenceReport.NO_SOLUTION
    assert not rep.rho_H_nonpositive
    assert max_cycle_mean(mat_mul(conjugate(running_cm.calB), running_cm.calA)) > 0
    assert rep.rho_calA == 1


def test_running_mod_candidates_exist(running_mod_cm):
    rep = existence_report(running_mod_cm)
    assert rep.verdict == ExistenceReport.CANDIDATES_EXIST
    assert rep.rho_calA == 1 and rep.rho_prime_calB == 1


def test_electro_candidates_exist(electro_cm):
    rep = existence_report(electro_cm)
    assert rep.verdict == ExistenceReport.CANDIDATES_EXIST
    assert rep.rho_calA == 549 and rep.rho_prime_calB == 578
    assert rep.rho_H_nonpositive and rep.necessary_order_ok and rep.entrywise_ok


def test_hstar_divergence_matches_verdict_flag(running_cm, electro_cm):
    assert running_cm.Hstar is None
    assert electro_cm.Hstar is not None


# ------------------------------------------------------------ image tests


def test_everything_lies_in_image_of_identity_star():
    e = TropicalMatrix.zeros(3, 3, MAXPLUS)
    rng = random.Random(71)
    for _ in range(10):
        x = [rng.randint(-9, 9) for _ in range(3)]
        assert in_image_star(e, x)


def test_electro_upper_eigenvector_is_admissible_start(electro_cm):
    guard = mat_mul(conjugate(electro_cm.calB), electro_cm.calA)
    assert in_image_star(guard, X_B)


def test_running_example_no_finite_vector_in_image(running_cm):
    guard = mat_mul(conjugate(running_cm.calB), running_cm.calA)
    rng = random.Random(73)
    for _ in range(50):
        x = [rng.randint(-20, 20) for _ in range(4)]
        assert not in_image_star(guard, x)


# --------------------------------------------------------- necessary check


def test_necessary_check_electro_passes(electro_cm):
    rep = necessary_check(electro_cm, X_A)
    assert rep.ok and rep.failing_n is None and rep.order_ok


def test_necessary_check_running_fails_for_any_finite_start(running_cm):
    rng = random.Random(79)
    for _ in range(20):
        x0 = [rng.randint(-20, 20) for _ in range(4)]
        rep = necessary_check(running_cm, x0)
        assert not rep.ok
        assert rep.failing_n == 1 or not rep.order_ok


def test_entrywise_violation_forces_n1_failure(running_cm):
    # calA <= calB fails here, so the n=1 inequality fails for every
    # finite start vector
    assert not leq(running_cm.calA, running_cm.calB)
    rep = necessary_check(running_cm, (0, 0, 0, 0))
    assert rep.failing_n == 1


def test_necessary_check_requires_irreducible():
    text = (
        "pteg m\ntransitions a b\n"
        "place p from a to b tokens 1 interval 1 2\n"
    )
    cm = build_combined(extract_matrices(parse_model(text)))
    with pytest.raises(NotIrreducible):
        necessary_check(cm, (0, 0))


# ------------------------------------------------------- extremal starts


def test_electro_fastest_candidate(electro_cm):
    candidates = fastest_init(electro_cm)
    assert len(candidates) == 1
    cand = candidates[0]
    assert cand.x0 == shift(X_A, 54)
    assert cand.period == 1 and cand.rate == 549


def test_electro_slowest_candidate(electro_cm):
    candidates = slowest_init(electro_cm)
    assert candidates
    cand = candidates[0]
    assert cand.x0 == shift(X_B, 80)
    assert cand.period == 3 and cand.rate == 578


def test_running_mod_candidates(running_mod_cm):
    fast = fastest_init(running_mod_cm)
    slow = slowest_init(running_mod_cm)
    assert [c.x0 for c in fast] == [(0, 1, 0, 1)]
    assert [c.x0 for c in slow] == [(0, 1, 0, 1)]
    assert fast[0].rate == 1 and slow[0].rate == 1


def test_running_example_yields_no_candidates(running_cm):
    assert fastest_init(running_cm) == []
    assert slowest_init(running_cm) == []


def test_fastest_requires_irreducible():
    text = "pteg m\ntransitions a b\nplace p from a to b tokens 1 interval 1 2\n"
    cm = build_combined(extract_matrices(parse_model(text)))
    with pytest.raises(NotIrreducible):
        fastest_init(cm)


@pytest.mark.parametrize("upper,admissible", [(2, True), (1.5, False), (1, False)])
def test_fastest_biconditional_family(upper, admissible):
    """Tightening one upper bound keeps the eigenvector of calA intact but
    pushes it out of the admissible image."""
    text = (
        "pteg family\n"
        "transitions x1 x2 x3 x4\n"
        f"place p1 from x1 to x2 tokens 1 interval 0 {upper}\n"
        "place p2 from x2 to x3 tokens 1 interval 0 1\n"
        "place p3 from x3 to x1 tokens 0 interval 0 0\n"
        "place p4 from x1 to x4 tokens 0 interval 1 2\n"
        "place p5 from x3 to x4 tokens 0 interval 0 2\n"
        "place p6 from x4 to x2 tokens 0 interval 0 0\n"
    )
    cm = build_combined(extract_matrices(normalize(parse_model(text))))
    assert is_irreducible(cm.calA)
    guard = mat_mul(conjugate(cm.calB), cm.calA)
    candidates = fastest_init(cm)
    if admissible:
        assert candidates and in_image_star(guard, candidates[0].x0)
    else:
        assert candidates == []
        assert not in_image_star(guard, (0, 1, 0, 1))


# ------------------------------------------------------------ trajectories


def test_running_mod_fastest_trajectory(running_mod_cm):
    traj = run_trajectory(running_mod_cm, (0, 1, 0, 1), TrajectoryMode.FASTEST, 3)
    assert traj.states == (
        (0, 1, 0, 1),
        (1, 2, 1, 2),
        (2, 3, 2, 3),
        (3, 4, 3, 4),
    )


def test_zero_step_trajectory(running_mod_cm):
    traj = run_trajectory(running_mod_cm, (0, 1, 0, 1), TrajectoryMode.FASTEST, 0)
    assert traj.states == ((0, 1, 0, 1),)


def test_electro_fastest_is_one_periodic(electro_cm):
    traj = run_trajectory(electro_cm, shift(X_A, 54), TrajectoryMode.FASTEST, 20)
    for k in range(20):
        assert traj.states[k + 1] == shift(traj.states[k], 549)


def test_electro_slowest_is_three_periodic(electro_cm):
    traj = run_trajectory(electro_cm, shift(X_B, 80), TrajectoryMode.SLOWEST, 9)
    for k in range(7):
        assert traj.states[k + 3] == shift(traj.states[k], 1734)


def test_trajectory_rejects_sentinel_states():
    with pytest.raises(ValueError):
        Trajectory(states=((0, NEG_INF),), mode=TrajectoryMode.CUSTOM)


# ------------------------------------------------------------ verification


def test_electro_fastest_verifies_clean(electro_cm, electro_bundle):
    traj = run_trajectory(electro_cm, shift(X_A, 54), TrajectoryMode.FASTEST, 20)
    assert verify_trajectory(electro_bundle, traj) == []


def test_electro_slowest_verifies_clean(electro_cm, electro_bundle):
    traj = run_trajectory(electro_cm, shift(X_B, 80), TrajectoryMode.SLOWEST, 20)
    assert verify_trajectory(electro_bundle, traj) == []


def test_perturbed_trajectory_reports_lower_violation(electro_cm, electro_bundle):
    traj = run_trajectory(electro_cm, shift(X_A, 54), TrajectoryMode.FASTEST, 3)
    states = [list(s) for s in traj.states]
    states[1][2] -= 1000
    bad = Trajectory(states=tuple(tuple(s) for s in states), mode=TrajectoryMode.CUSTOM)
    violations = verify_trajectory(electro_bundle, bad)
    assert violations
    assert any(v.step == 1 and v.transition == "x3" and v.side == "lower" for v in violations)


def test_initial_state_membership_is_checked(running_mod_bundle):
    # x(0) = (0, 0, 0, 0) violates B (x) x(0) <= x(0) via the arc weight 1
    bad = Trajectory(states=((0, 0, 0, 0), (1, 2, 1, 2)), mode=TrajectoryMode.CUSTOM)
    violations = verify_trajectory(running_mod_bundle, bad)
    assert any(v.side == "initial" and v.transition == "x4" for v in violations)


def test_verify_needs_two_states(electro_bundle):
    with pytest.raises(ValueError):
        verify_trajectory(electro_bundle, Trajectory(states=((0,) * 9,), mode=TrajectoryMode.CUSTOM))


@pytest.mark.parametrize(
    "states,error",
    [
        (((float("nan"), 0, 0, 0), (1, 2, 1, 2)), TropicalError),
        (((0, 1, 0, 1), (1, 2, 1, 2), (2, 3, float("nan"), 3)), TropicalError),
        (((0, 1, 0, 1), (1, 2, 1)), DimensionMismatch),
        (((0, 1, 0, 1, 0), (1, 2, 1, 2, 1)), DimensionMismatch),
    ],
    ids=["nan-initial", "nan-later", "short-state", "long-state"],
)
def test_verify_rejects_states_that_are_no_dates(running_mod_bundle, states, error):
    with pytest.raises(error):
        verify_trajectory(running_mod_bundle, Trajectory(states=states, mode=TrajectoryMode.CUSTOM))


def test_verify_work_does_not_grow_with_the_trajectory(electro_cm, electro_bundle, monkeypatch):
    short = run_trajectory(electro_cm, shift(X_A, 54), TrajectoryMode.FASTEST, 10)
    long = run_trajectory(electro_cm, shift(X_A, 54), TrajectoryMode.FASTEST, 1000)
    counts = Counter()
    real_mul = ptegkit.analysis.mat_mul

    def counting_mul(a, b):
        counts["mat_mul"] += 1
        return real_mul(a, b)

    class CountingMatrix(TropicalMatrix):
        def __post_init__(self):
            counts["TropicalMatrix"] += 1
            super().__post_init__()

    monkeypatch.setattr(ptegkit.analysis, "mat_mul", counting_mul)
    monkeypatch.setattr(ptegkit.analysis, "TropicalMatrix", CountingMatrix)
    work = []
    for traj in (short, long):
        counts.clear()
        assert verify_trajectory(electro_bundle, traj) == []
        work.append(dict(counts))
    assert (len(short.states), len(long.states)) == (11, 1001)
    assert work[0] == work[1]


def _loosen_and_double(rng, text):
    """The model with some upper bounds dropped to inf and some places
    doubled by a parallel place with a nearby window."""
    lines = text.splitlines()
    out = lines[:2]
    for ln in lines[2:]:
        f = ln.split()
        if rng.random() < 0.25:
            f[-1] = "inf"
        out.append(" ".join(f))
        if rng.random() < 0.3:
            lo = max(0, int(f[-2]) + rng.randint(-2, 2))
            hi = "inf" if f[-1] == "inf" and rng.random() < 0.5 else str(lo + rng.randint(0, 8))
            out.append(" ".join([f[0], f[1] + "b", *f[2:-2], str(lo), hi]))
    return "\n".join(out) + "\n"


def _perturbed_runs(rng, count):
    """count (bundle, states, date type) triples on random models: half
    fastest runs from a random start in the image of B*, half dates drawn
    close together; some dates turned into Fractions or floats of the same
    value, and noise added at random steps."""
    while count:
        m = parse_model(_loosen_and_double(rng, random_model_text(rng, rng.randint(2, 5))))
        if validate(m):
            continue
        bundle = extract_matrices(normalize(m))
        try:
            cm = build_combined(bundle)
        except ModelError:  # a parallel window left the same-step system empty
            continue
        n, steps = len(bundle.index_map), rng.randint(1, 6)
        if rng.random() < 0.5:
            x0 = mat_mul(cm.Bstar, TropicalMatrix.column([rng.randint(0, 20) for _ in range(n)], MAXPLUS))
            base = run_trajectory(cm, x0.entries, TrajectoryMode.FASTEST, steps).states
        else:  # dates close together, so that bound terms often tie
            rate = rng.randint(0, 8)
            base = [[k * rate + rng.randint(0, 3) for _ in range(n)] for k in range(steps + 1)]
        kind = rng.choice((int, Fraction, float))
        unit = {int: 1, Fraction: Fraction(1, 3), float: 0.5}[kind]
        states = [[kind(v) if rng.random() < 0.5 else v for v in s] for s in base]
        for k in rng.sample(range(len(states)), rng.randint(0, 2)):
            states[k] = [v + rng.choice((0, 0, -1, 1)) * rng.choice((1, unit)) for v in states[k]]
        yield bundle, tuple(tuple(s) for s in states), kind
        count -= 1


def test_violation_list_matches_the_dense_oracle():
    sides = Counter()
    dates = Counter()
    for bundle, states, kind in _perturbed_runs(random.Random(101), 240):
        lib = verify_trajectory(bundle, Trajectory(states=states, mode=TrajectoryMode.CUSTOM))
        rows = [mat.to_rows() for mat in (bundle.A, bundle.Blow, bundle.B, bundle.C)]
        want = violations_by_rows(bundle.index_map, *rows, states)
        assert [(v.step, v.transition, v.side, v.slack, type(v.slack)) for v in lib] == [
            (*w, type(w[3])) for w in want
        ]
        sides.update({v.side for v in lib})
        dates[kind] += 1
    assert min(sides[side] for side in ("lower", "upper", "initial")) >= 30
    assert min(dates.values()) >= 50


# ------------------------------------------- equivalence and invariants


def _random_feasible_cms(seed, count):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        m = parse_model(random_model_text(rng, rng.randint(2, 4)))
        if validate(m):
            continue
        cm = build_combined(extract_matrices(normalize(m)))
        rep = existence_report(cm)
        if rep.verdict != ExistenceReport.CANDIDATES_EXIST:
            continue
        if not is_irreducible(cm.calA):
            continue
        cands = fastest_init(cm)
        if cands:
            found.append((cm, cands[0]))
    return found


def test_def8_equals_first_order_on_random_trajectories():
    rng = random.Random(83)
    agreements = 0
    for cm, cand in _random_feasible_cms(83, 12):
        traj = run_trajectory(cm, cand.x0, TrajectoryMode.FASTEST, 4)
        variants = [traj.states]
        for _ in range(6):
            states = [list(s) for s in traj.states]
            k = rng.randrange(len(states))
            i = rng.randrange(len(states[0]))
            states[k][i] += rng.choice((-3, -1, 1, 3))
            variants.append(tuple(tuple(s) for s in states))
        for states in variants:
            raw = def8_admissible(cm.bundle, states)
            first = first_order_admissible(cm, states)
            assert raw == first
            lib = verify_trajectory(cm.bundle, Trajectory(states=states, mode=TrajectoryMode.CUSTOM)) == []
            assert lib == raw
            agreements += 1
    assert agreements >= 70


def test_eigen_started_fastest_is_p_periodic():
    for cm, cand in _random_feasible_cms(89, 10):
        traj = run_trajectory(cm, cand.x0, TrajectoryMode.FASTEST, 3 * cand.period)
        step = Fraction(cand.rate) * cand.period
        for k in range(len(traj.states) - cand.period):
            expected = tuple(Fraction(v) + step for v in traj.states[k])
            assert tuple(Fraction(v) for v in traj.states[k + cand.period]) == expected


def test_fastest_states_stay_in_image_of_bstar(electro_cm):
    traj = run_trajectory(electro_cm, shift(X_A, 54), TrajectoryMode.FASTEST, 10)
    for k, state in enumerate(traj.states):
        if k == 0:
            continue
        col = TropicalMatrix.column(state, MAXPLUS)
        assert mat_mul(electro_cm.Bstar, col).entries == col.entries


def test_h_eigenspace_inside_image_of_hstar(electro_cm):
    from ptegkit import eigenvectors

    h = electro_cm.H
    assert is_irreducible(h)
    rho = max_cycle_mean(h)
    normalized = scale(h, -rho)
    for v in eigenvectors(h):
        assert in_image_star(normalized, v)


def test_deterministic_model_rates_agree():
    # tmin = tmax everywhere collapses both semirings to the same rate
    text = (
        "pteg det\ntransitions a b\n"
        "place p from a to b tokens 1 interval 3 3\n"
        "place q from b to a tokens 1 interval 4 4\n"
    )
    cm = build_combined(extract_matrices(parse_model(text)))
    fast = fastest_init(cm)
    slow = slowest_init(cm)
    assert fast and slow
    assert fast[0].rate == slow[0].rate == Fraction(7, 2)


def test_necessary_check_cap_too_small_is_reported(electro_cm):
    with pytest.raises(CouplingNotFound):
        necessary_check(electro_cm, X_A, cap=1)
