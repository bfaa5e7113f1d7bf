"""Command line front end.

Commands: validate, matrices, analyze, trajectory, verify.  Exit codes
are stable contracts: 0 success, 1 invalid model or input, 2 no solution
or no admissible candidate or failed verification, 3 precondition failure
such as a reducible matrix where irreducibility is required.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .analysis import (
    Candidate,
    CombinedModel,
    CouplingNotFound,
    ExistenceReport,
    Trajectory,
    TrajectoryMode,
    build_combined,
    existence_report,
    fastest_init,
    run_trajectory,
    slowest_init,
    verify_trajectory,
)
from .model import ModelError, PtegModel, extract_matrices, normalize, parse_model, validate
from .spectral import NoCircuit, NotIrreducible, SpectralReport, spectral_report
from .tropical import Number, TropicalError, format_matrix, format_number, is_finite, parse_number

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_SOLUTION = 2
EXIT_PRECONDITION = 3

MATRIX_CHOICES = ("A", "Blow", "Bupp", "B", "C", "calA", "calB", "H")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (NotIrreducible, NoCircuit, CouplingNotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptegkit",
        description="Analyze P-time event graphs via coupled max-plus/min-plus models.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("validate", help="check a model file for structural problems")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("matrices", help="print one characteristic matrix")
    p.add_argument("path")
    p.add_argument("--which", required=True, choices=MATRIX_CHOICES)
    p.set_defaults(func=cmd_matrices)

    p = sub.add_parser("analyze", help="existence report, spectra and candidates")
    p.add_argument("path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("trajectory", help="generate an extremal periodic trajectory")
    p.add_argument("path")
    p.add_argument("--mode", required=True, choices=("fastest", "slowest"))
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--nonneg", action="store_true", help="shift dates to be nonnegative")
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("verify", help="check a trajectory CSV against a model")
    p.add_argument("path")
    p.add_argument("--trajectory", required=True, help="CSV produced by the trajectory command")
    p.set_defaults(func=cmd_verify)

    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ModelError(f"{path} is not a UTF-8 text file") from None


def _load_model(path: str) -> PtegModel:
    return parse_model(_read_text(path))


def _load_valid_model(path: str) -> PtegModel:
    m = _load_model(path)
    diags = validate(m)
    if diags:
        raise ModelError("; ".join(diags))
    return m


def _combined(path: str) -> CombinedModel:
    return build_combined(extract_matrices(normalize(_load_valid_model(path))))


def cmd_validate(args: argparse.Namespace) -> int:
    m = _load_model(args.path)
    diags = validate(m)
    for d in diags:
        print(d, file=sys.stderr)
    if diags:
        return EXIT_INVALID
    print(f"model {m.name}: {len(m.transitions)} transitions, {len(m.places)} places, valid")
    return EXIT_OK


def cmd_matrices(args: argparse.Namespace) -> int:
    which = args.which
    if which in ("A", "Blow", "Bupp", "B", "C"):
        bundle = extract_matrices(normalize(_load_valid_model(args.path)))
        matrix = getattr(bundle, which)
    else:
        cm = _combined(args.path)
        matrix = getattr(cm, which)
    sys.stdout.write(format_matrix(matrix))
    return EXIT_OK


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _fmt_opt(v: Number | None) -> str:
    return "none" if v is None else format_number(v)


def _render_spectral(label: str, rep: SpectralReport, names: tuple[str, ...]) -> list[str]:
    lines = [f"spectral {label}:"]
    lines.append(f"  eigenvalue: {format_number(rep.eigenvalue)}")
    lines.append(f"  irreducible: {_fmt_bool(rep.irreducible)}")
    lines.append(f"  cyclicity: {rep.cyclicity}")
    lines.append(f"  coupling_index: {'not-found' if rep.coupling_index is None else rep.coupling_index}")
    lines.append("  critical_nodes: " + " ".join(names[i] for i in rep.critical.nodes))
    for comp, cyc in zip(rep.critical.components, rep.critical.cyclicities):
        lines.append(
            "  critical_component: " + " ".join(names[i] for i in comp) + f" cyclicity={cyc}"
        )
    for vec in rep.eigenvectors:
        lines.append("  eigenvector: " + " ".join(format_number(v) for v in vec))
    return lines


def _render_candidates(label: str, candidates: list[Candidate]) -> list[str]:
    lines = [f"{label}:"]
    if not candidates:
        lines.append("  none")
    for c in candidates:
        lines.append(
            "  candidate: x0 = "
            + " ".join(format_number(v) for v in c.x0)
            + f" period={c.period} rate={format_number(c.rate)}"
        )
    return lines


def cmd_analyze(args: argparse.Namespace) -> int:
    m = _load_valid_model(args.path)
    cm = build_combined(extract_matrices(normalize(m)))
    rep = existence_report(cm)
    names = cm.transitions
    lines = [
        f"model: {m.name}",
        "transitions: " + " ".join(names),
        f"verdict: {rep.verdict}",
        f"rho_calA: {_fmt_opt(rep.rho_calA)}",
        f"rho_prime_calB: {_fmt_opt(rep.rho_prime_calB)}",
        f"rho_H_nonpositive: {_fmt_bool(rep.rho_H_nonpositive)}",
        f"necessary_order_ok: {_fmt_bool(rep.necessary_order_ok)}",
        f"entrywise_ok: {_fmt_bool(rep.entrywise_ok)}",
    ]
    lines += _render_spectral("calA", spectral_report(cm.calA_spectrum), names)
    lines += _render_spectral("calB", spectral_report(cm.calB_spectrum), names)
    lines += _render_candidates("fastest_candidates", fastest_init(cm))
    lines += _render_candidates("slowest_candidates", slowest_init(cm))
    print("\n".join(lines))
    if rep.verdict == ExistenceReport.NO_SOLUTION:
        return EXIT_NO_SOLUTION
    return EXIT_OK


def cmd_trajectory(args: argparse.Namespace) -> int:
    if args.steps < 1:  # verify needs two states, so every CSV written can be verified
        raise ModelError("--steps must be at least 1")
    cm = _combined(args.path)
    rep = existence_report(cm)
    if rep.verdict == ExistenceReport.NO_SOLUTION:
        print("no solution: the model admits no trajectory", file=sys.stderr)
        return EXIT_NO_SOLUTION
    mode = TrajectoryMode(args.mode)
    candidates = fastest_init(cm) if mode is TrajectoryMode.FASTEST else slowest_init(cm)
    if not candidates:
        print("no admissible candidate initialization", file=sys.stderr)
        return EXIT_NO_SOLUTION
    chosen = candidates[0]
    x0 = chosen.x0
    if args.nonneg:
        worst = min(v for v in x0 if is_finite(v))
        if worst < 0:
            x0 = tuple(v - worst for v in x0)
    traj = run_trajectory(cm, x0, mode, args.steps, period_scalar=(chosen.rate, chosen.period))
    text = render_trajectory_csv(cm.transitions, traj)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def render_trajectory_csv(names: tuple[str, ...], traj: Trajectory) -> str:
    lines = [f"# mode = {traj.mode.value}"]
    if traj.period_scalar is not None:
        rate, period = traj.period_scalar
        lines.append(f"# rate = {format_number(rate)}")
        lines.append(f"# period = {period}")
    lines.append("# x0 = " + " ".join(format_number(v) for v in traj.states[0]))
    lines.append("k," + ",".join(names))
    for k, state in enumerate(traj.states):
        lines.append(str(k) + "," + ",".join(format_number(v) for v in state))
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str, names: tuple[str, ...]) -> Trajectory:
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise ModelError("empty trajectory CSV")
    header = [h.strip() for h in rows[0].split(",")]
    if header != ["k", *names]:
        raise ModelError(
            "trajectory columns do not match the model transitions: "
            f"expected k,{','.join(names)} got {rows[0]!r}"
        )
    states = []
    for k, ln in enumerate(rows[1:]):
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(names) + 1:
            raise ModelError(f"bad CSV row {ln!r}")
        if cells[0] != str(k):  # violations are reported by row position
            raise ModelError(f"bad step in CSV row {ln!r}: expected k={k}")
        try:
            states.append(tuple(parse_number(c) for c in cells[1:]))
        except (ValueError, ZeroDivisionError, TropicalError):
            raise ModelError(f"bad number in CSV row {ln!r}") from None
    if len(states) < 2:
        raise ModelError("trajectory CSV needs at least two data rows")
    try:
        return Trajectory(states=tuple(states), mode=TrajectoryMode.CUSTOM)
    except ValueError as exc:  # a non-finite date
        raise ModelError(str(exc)) from None


def cmd_verify(args: argparse.Namespace) -> int:
    model = _load_valid_model(args.path)
    bundle = extract_matrices(normalize(model))
    traj = parse_trajectory_csv(_read_text(args.trajectory), bundle.index_map)
    violations = verify_trajectory(bundle, traj)
    for v in violations:
        print(v.describe())
    if violations:
        return EXIT_NO_SOLUTION
    print(f"trajectory admissible: {len(traj.states)} states, no violations")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
