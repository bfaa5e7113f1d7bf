"""Tests of the benchmark itself: generators, ground truth and tracer.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checker
from instances import (
    HISTORY,
    planted_states,
    state_rows,
    sweep_stream,
    verify_stream,
)
from tracer import LAYERS, Tracer

BENCH = Path(checker.__file__).resolve().parent
ROOT = BENCH.parent
ELECTRO = str(ROOT / "models" / "electro.pteg")


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_generators_are_deterministic_for_a_seed():
    assert [i.text for i in take(sweep_stream(7), 12)] == [i.text for i in take(sweep_stream(7), 12)]
    assert [i.text for i in take(sweep_stream(7), 12)] != [i.text for i in take(sweep_stream(8), 12)]
    a, b = take(verify_stream(7, steps=50), 4), take(verify_stream(7, steps=50), 4)
    assert [(c.instance.text, c.csv, c.violating) for c in a] == [
        (c.instance.text, c.csv, c.violating) for c in b
    ]


def planted_models():
    return [i for i in take(sweep_stream(3), 36) if i.verdict == "CANDIDATES_EXIST"]


@pytest.mark.parametrize("inst", planted_models(), ids=lambda i: i.net.name)
def test_planted_schedule_passes_the_independent_checker(inst):
    net = checker.parse_net(inst.text)
    assert net == inst.net
    rows = state_rows(net, planted_states(inst, random.Random(0), 12, jitter=0), 12)
    assert checker.violating_steps(net, net.state_names(), rows) == set()
    assert rows[1][0] - rows[0][0] == inst.rate


def test_every_line_is_strongly_connected_and_some_hold_two_carriers():
    nets = [i.net for i in take(sweep_stream(5), 24)]
    for net in nets:
        succ = {t: {p.dst for p in net.places if p.src == t} for t in net.transitions}
        for start in net.transitions:
            seen, todo = {start}, [start]
            while todo:
                for nxt in succ[todo.pop()] - seen:
                    seen.add(nxt)
                    todo.append(nxt)
            assert seen == set(net.transitions), net.name
    assert any(p.tokens == 2 for net in nets for p in net.places)
    assert sorted({net.dim for net in nets}) == [4, 5, 6, 7, 8, 9]


def test_infeasible_variants_have_disjoint_circuit_windows():
    bad = [i for i in take(sweep_stream(4), 40) if i.verdict == "NO_SOLUTION"]
    assert len(bad) == 10
    for inst in bad:
        net = checker.parse_net(inst.text)
        first, second = inst.circuits
        (lo1, hi1), (lo2, hi2) = (checker.circuit_window(net, list(c)) for c in inst.circuits)
        assert hi1 < lo2 or hi2 < lo1, inst.net.name
        places = {p.name: p for p in net.places}
        shared = {places[n].src for n in first} & {places[n].src for n in second}
        assert shared, inst.net.name


def test_verify_cases_plant_exactly_where_stated():
    for case in take(verify_stream(2, steps=300), 6):
        assert case.planted <= case.violating
        if not case.planted:
            assert case.violating == frozenset()
        assert case.expected_exit == (2 if case.planted else 0)
        _, columns, rows = checker.parse_csv(case.csv)
        assert len(rows) == case.states
        assert checker.violating_steps(case.instance.net, columns, rows) == case.violating


def test_checker_reads_the_lag_of_a_two_token_place_from_synthetic_columns():
    net = checker.Net("t", ("a", "b"), (checker.Place("p", "a", "b", 2, 5, 6),))
    assert net.state_names() == ("a", "b", "p#1")
    # a(k) = 10k, b(k) = a(k-2) + 5, p#1(k) = a(k-1); row 0 holds a(-1) in p#1.
    rows = [[10 * k, 10 * (k - 2) + 5, 10 * (k - 1)] for k in range(4)]
    assert checker.violating_steps(net, net.state_names(), rows) == set()
    rows[2][2] += 1  # breaks the chain at k = 2 and the window read at k = 3
    assert checker.violating_steps(net, net.state_names(), rows) == {2, 3}
    rows[2][2] -= 1
    rows[0][2] -= 2  # history a(-1) too early: b(1) - a(-1) = 7 > 6
    assert checker.violating_steps(net, net.state_names(), rows) == {1}


def test_tracer_self_times_sum_to_the_traced_total():
    import ptegkit.cli
    import ptegkit.spectral
    import ptegkit.tropical

    original = ptegkit.tropical.mat_mul
    tracer = Tracer()
    tracer.install()
    try:
        assert ptegkit.spectral.mat_mul is not original
        code = ptegkit.cli.main(["validate", ELECTRO])
        tracer.request += 1
        code2 = ptegkit.cli.main(["analyze", ELECTRO])
    finally:
        tracer.uninstall()
    assert (code, code2) == (0, 0)
    assert ptegkit.tropical.mat_mul is original and ptegkit.spectral.mat_mul is original
    total = tracer.root_total()
    assert sum(tracer.self_times()) == pytest.approx(total, rel=1e-9, abs=1e-9)
    m = tracer.metrics()
    assert m["cli.main.calls"] == 2
    assert m["tropical.mat_mul.calls"] > 0 and m["spectral.closures"] > 0
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layers == pytest.approx(total, rel=1e-9)
    mat_mul = tracer.name_ids["tropical.mat_mul"]
    parents = {tracer.names[tracer.name_of[p]].split(".")[0]
               for nid, p in zip(tracer.name_of, tracer.parent) if nid == mat_mul and p >= 0}
    assert {"spectral", "analysis"} <= parents


@functools.lru_cache(maxsize=None)
def run_bench(workload: str, trace: str, seconds: str = "0.5") -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def spec_names(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("workload", ["sweep", "verify-long"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_a_correct_result_line(workload, trace):
    result = run_bench(workload, trace)
    names = spec_names("per_layer" if trace == "1" else "end_to_end")
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_sweep_calls_every_counted_function():
    values = {k: m["value"] for k, m in run_bench("sweep", "1")["metrics"].items()}
    assert [k for k in spec_names("per_layer") if k.endswith(".calls") and not values[k]] == []
    assert values["tropical.mat_mul.fraction_calls"] > 0 and values["spectral.closures"] > 0
    assert values["spectral.coupling_index.products"] > 0 and values["analysis.candidate_yield"] > 0


def test_traced_verify_long_bypasses_spectral_work():
    values = {k: m["value"] for k, m in run_bench("verify-long", "1")["metrics"].items()}
    spectral = [k for k in values if k.startswith("spectral.") and k.endswith(".calls")]
    assert spectral and all(values[k] == 0 for k in spectral)
    assert values["tropical.kleene_star.calls"] == 0 and values["spectral.closures"] == 0
    assert values["analysis.verify_trajectory.states"] > 0


def test_traced_counts_are_amounts_per_fixed_set_not_per_second():
    short = run_bench("verify-long", "1")
    long = run_bench("verify-long", "1", "8")
    counts = [k for k, m in short["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert counts and long["attempted"] > short["attempted"]
    assert {k: short["metrics"][k] for k in counts} == {k: long["metrics"][k] for k in counts}


def test_metric_of_an_untraced_function_is_missing_not_zero():
    import ptegkit.cli  # noqa: F401  loads every layer

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    m = tracer.metrics()
    assert m["spectral.critical_graph.calls"] == 0  # wrapped, not called
    assert m["analysis.candidate_yield"] == 0.0
    tracer.wrapped.discard("spectral.critical_graph")
    tracer.wrapped.discard("analysis._candidate_pool")
    tracer.broken.add("tropical.mat_mul")
    m = tracer.metrics()
    assert "spectral.critical_graph.calls" not in m
    assert m["analysis.candidate_yield"] is None and m["tropical.mat_mul.mac"] is None


def test_history_covers_the_largest_token_count():
    nets = [i.net for i in take(sweep_stream(9), 20)]
    assert max(p.tokens for net in nets for p in net.places) == HISTORY
