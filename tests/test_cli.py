"""Command line behavior: exit codes, golden stdout, pipeline consistency."""

from __future__ import annotations

import pytest

from ptegkit.cli import main

from conftest import GOLDEN, MODELS

RUNNING = str(MODELS / "running.pteg")
RUNNING_MOD = str(MODELS / "running-mod.pteg")
ELECTRO = str(MODELS / "electro.pteg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- validate


def test_validate_running_ok(capsys):
    code, out, err = run(capsys, "validate", RUNNING)
    assert code == 0
    assert "valid" in out and err == ""


def test_validate_reports_bad_interval(tmp_path, capsys):
    bad = tmp_path / "broken.pteg"
    bad.write_text(
        "pteg broken\ntransitions a b\nplace weird from a to b tokens 0 interval 4 2\n"
    )
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "weird" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no-such-model.pteg")
    assert code == 1 and "error" in err


# ---------------------------------------------------------------- matrices


@pytest.mark.parametrize(
    "which,golden",
    [
        ("A", "running_A.txt"),
        ("B", "running_B.txt"),
        ("C", "running_C.txt"),
        ("calA", "running_calA.txt"),
        ("calB", "running_calB.txt"),
    ],
)
def test_matrices_running_goldens(capsys, which, golden):
    code, out, _ = run(capsys, "matrices", RUNNING, "--which", which)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "which,golden",
    [("calA", "electro_calA.txt"), ("calB", "electro_calB.txt")],
)
def test_matrices_electro_goldens(capsys, which, golden):
    code, out, _ = run(capsys, "matrices", ELECTRO, "--which", which)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_matrices_rejects_invalid_model(tmp_path, capsys):
    bad = tmp_path / "broken.pteg"
    bad.write_text("pteg broken\ntransitions a\nplace p from a to a tokens 0 interval 0 0\n")
    code, _, err = run(capsys, "matrices", str(bad), "--which", "A")
    assert code == 1 and "token-free circuit" in err


# ----------------------------------------------------------------- analyze


@pytest.mark.parametrize(
    "model,golden,code",
    [
        (RUNNING, "analyze_running.txt", 2),
        (RUNNING_MOD, "analyze_running-mod.txt", 0),
        (ELECTRO, "analyze_electro.txt", 0),
    ],
)
def test_analyze_goldens(capsys, model, golden, code):
    got, out, _ = run(capsys, "analyze", model)
    assert got == code
    assert out == (GOLDEN / golden).read_text()


def test_analyze_names_reducibility_failure(tmp_path, capsys):
    text = (
        "pteg thin\ntransitions a b c\n"
        "place p from a to b tokens 1 interval 1 2\n"
        "place q from b to a tokens 1 interval 1 2\n"
        "place r from b to c tokens 1 interval 1 2\n"
    )
    model = tmp_path / "thin.pteg"
    model.write_text(text)
    code, _, err = run(capsys, "analyze", str(model))
    assert code == 3
    assert "irreducible" in err


def test_analyze_acyclic_is_precondition_failure(tmp_path, capsys):
    text = "pteg line\ntransitions a b\nplace p from a to b tokens 1 interval 1 2\n"
    model = tmp_path / "line.pteg"
    model.write_text(text)
    code, _, err = run(capsys, "analyze", str(model))
    assert code == 3
    assert "circuit" in err


# -------------------------------------------------------------- trajectory


def test_trajectory_fastest_csv(tmp_path, capsys):
    out_file = tmp_path / "fast.csv"
    code, _, _ = run(
        capsys, "trajectory", ELECTRO, "--mode", "fastest", "--steps", "20",
        "--nonneg", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert "# rate = 549" in lines and "# period = 1" in lines
    header = lines[[i for i, l in enumerate(lines) if not l.startswith("#")][0]]
    assert header == "k,x1,x2,x3,x4,x5,x6,x7,x8,soak2#1"
    rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
    assert rows[0][1:] == ["54", "94", "491", "549", "361", "419", "210", "268", "0"]
    for prev, cur in zip(rows, rows[1:]):
        assert all(int(c) - int(p) == 549 for p, c in zip(prev[1:], cur[1:]))


def test_trajectory_slowest_shifts_by_three_periods(tmp_path, capsys):
    out_file = tmp_path / "slow.csv"
    code, _, _ = run(
        capsys, "trajectory", ELECTRO, "--mode", "slowest", "--steps", "9",
        "--out", str(out_file),
    )
    assert code == 0
    rows = [l.split(",") for l in out_file.read_text().splitlines() if l and not l.startswith("#")][1:]
    assert rows[0][1:] == ["80", "120", "520", "578", "344", "402", "174", "232", "0"]
    for k in range(len(rows) - 3):
        assert all(int(c) - int(p) == 1734 for p, c in zip(rows[k][1:], rows[k + 3][1:]))


def test_trajectory_refuses_infeasible_model(capsys):
    code, _, err = run(capsys, "trajectory", RUNNING, "--mode", "fastest", "--steps", "5")
    assert code == 2
    assert "no solution" in err


def test_trajectory_verify_round_trip(tmp_path, capsys):
    for mode in ("fastest", "slowest"):
        out_file = tmp_path / f"{mode}.csv"
        code, _, _ = run(
            capsys, "trajectory", ELECTRO, "--mode", mode, "--steps", "12",
            "--out", str(out_file),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", ELECTRO, "--trajectory", str(out_file))
        assert code == 0
        assert "no violations" in out


# ------------------------------------------------------------------ verify


def test_verify_flags_tampered_trajectory(tmp_path, capsys):
    out_file = tmp_path / "fast.csv"
    run(capsys, "trajectory", ELECTRO, "--mode", "fastest", "--steps", "4",
        "--out", str(out_file))
    lines = out_file.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("2,"))
    cells = lines[idx].split(",")
    cells[3] = str(int(cells[3]) - 1000)
    lines[idx] = ",".join(cells)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", ELECTRO, "--trajectory", str(tampered))
    assert code == 2
    assert "k=2" in out and "x3" in out and "lower" in out


def test_verify_rejects_column_mismatch(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("k,a,b\n0,1,2\n")
    code, _, err = run(capsys, "verify", ELECTRO, "--trajectory", str(csv))
    assert code == 1
    assert "columns" in err


def test_verify_slowest_against_lower_bound(tmp_path, capsys):
    out_file = tmp_path / "slow.csv"
    run(capsys, "trajectory", ELECTRO, "--mode", "slowest", "--steps", "6",
        "--out", str(out_file))
    code, out, _ = run(capsys, "verify", ELECTRO, "--trajectory", str(out_file))
    assert code == 0 and "no violations" in out


# ------------------------------------------------------- malformed input

TWO_CYCLE = (
    "pteg m\ntransitions a b\n"
    "place p from a to b tokens 1 interval {}\n"
    "place q from b to a tokens 1 interval 1 2\n"
)


def assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("interval", ["nan 3", "1/0 3"])
def test_malformed_interval_bound_is_an_input_error(tmp_path, capsys, interval):
    model = tmp_path / "bad.pteg"
    model.write_text(TWO_CYCLE.format(interval))
    assert_one_error_line(*run(capsys, "analyze", str(model)))


@pytest.mark.parametrize("cell", ["1/0", "inf", "nan", "abc"])
def test_malformed_csv_cell_is_an_input_error(tmp_path, capsys, cell):
    model = tmp_path / "ok.pteg"
    model.write_text(TWO_CYCLE.format("1 2"))
    csv = tmp_path / "bad.csv"
    csv.write_text(f"k,a,b\n0,0,{cell}\n1,2,3\n")
    assert_one_error_line(*run(capsys, "verify", str(model), "--trajectory", str(csv)))


def test_non_utf8_model_is_an_input_error(tmp_path, capsys):
    model = tmp_path / "bin.pteg"
    model.write_bytes(b"\xff\xfe")
    assert_one_error_line(*run(capsys, "analyze", str(model)))


def test_non_utf8_csv_is_an_input_error(tmp_path, capsys):
    model = tmp_path / "ok.pteg"
    model.write_text(TWO_CYCLE.format("1 2"))
    csv = tmp_path / "bin.csv"
    csv.write_bytes(b"k,a,b\n0,0,\xff\n1,2,3\n")
    assert_one_error_line(*run(capsys, "verify", str(model), "--trajectory", str(csv)))


@pytest.mark.parametrize(
    "labels",
    [{2: "abc"}, {3: "7"}, {k: str(k + 1) for k in range(7)}, {1: "01"}, {4: ""}],
    ids=["text", "out-of-order", "from-one", "leading-zero", "empty"],
)
def test_wrong_step_label_is_an_input_error(tmp_path, capsys, labels):
    csv = tmp_path / "fast.csv"
    run(capsys, "trajectory", RUNNING_MOD, "--mode", "fastest", "--steps", "6", "--out", str(csv))
    lines = csv.read_text().splitlines()
    first = lines.index("k," + ",".join(("x1", "x2", "x3", "x4"))) + 1
    for k, label in labels.items():
        lines[first + k] = label + lines[first + k][lines[first + k].index(","):]
    csv.write_text("\n".join(lines) + "\n")
    assert_one_error_line(*run(capsys, "verify", RUNNING_MOD, "--trajectory", str(csv)))


def test_single_state_csv_is_an_input_error(tmp_path, capsys):
    model = tmp_path / "ok.pteg"
    model.write_text(TWO_CYCLE.format("1 2"))
    csv = tmp_path / "one.csv"
    csv.write_text("k,a,b\n0,0,1\n")
    assert_one_error_line(*run(capsys, "verify", str(model), "--trajectory", str(csv)))


@pytest.mark.parametrize("model", [
    "pteg m\ntransitions t,u v\nplace p from v to v tokens 1 interval 1 2\n",
    "pteg m\ntransitions a b\nplace p,q from a to b tokens 2 interval 1 2\n"
    "place q from b to a tokens 1 interval 1 2\n",
], ids=["transition", "place"])
def test_comma_in_a_name_is_an_input_error(tmp_path, capsys, model):
    """Names head the trajectory CSV columns, a 2-token place's synthetic
    transition 'p,q#1' among them, so a comma would split a column."""
    path = tmp_path / "comma.pteg"
    path.write_text(model)
    code, out, err = run(capsys, "trajectory", str(path), "--mode", "fastest", "--steps", "3")
    assert_one_error_line(code, out, err)
    assert "comma" in err


def test_zero_steps_is_an_input_error(capsys):
    """A one-state trajectory could not be verified, so it is not written."""
    assert_one_error_line(*run(capsys, "trajectory", ELECTRO, "--mode", "fastest", "--steps", "0"))


# ------------------------------------------------------- compute once


def test_analyze_computes_each_spectrum_once(monkeypatch, capsys):
    """One Karp run per matrix (calA, calB), one normalized closure per
    matrix, plus the closure of calB^3 that the slowest search needs, and
    one critical graph per matrix."""
    import sys

    calls = {"max_cycle_mean": 0, "kleene_plus": 0, "CriticalGraph": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        original = getattr(sys.modules["ptegkit.spectral"], name)
        for module in [m for k, m in sys.modules.items() if k.startswith("ptegkit")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    code, _, _ = run(capsys, "analyze", ELECTRO)
    assert code == 0
    assert calls["max_cycle_mean"] <= 2 and calls["kleene_plus"] <= 3
    assert calls["CriticalGraph"] <= 2
