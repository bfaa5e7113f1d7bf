"""ptegkit benchmark: closed-loop CLI workloads with independent checks.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

One caller in one process calls `ptegkit.cli.main([...])` in process,
captures stdout, waits for each answer and checks it against ground truth
that the benchmark knows independently (`instances.py`, `checker.py`).
Instances come from `--seed`; ptegkit sees only the generated model and
CSV files.  The loop runs until the calls into ptegkit have taken
`--seconds` of wall time; generating instances and checking answers do
not count towards it.

With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics.  With `--trace 1` the run makes passes over a fixed
case set of the seed, at least one, and every case runs twice, untraced
and then traced by `tracer.Tracer`; the JSON holds the per-layer metrics
of one pass (medians over the passes) and the tracing overhead, and the
spans of the first pass go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

from checker import number, parse_csv, parse_report, violating_steps  # noqa: E402
from instances import (  # noqa: E402
    Instance,
    VerifyCase,
    sweep_stream,
    verify_stream,
)
from tracer import LAYERS, Tracer  # noqa: E402

BUNDLED = ("running", "running-mod", "electro")
SETUP_REPEATS = 15
TRAJECTORY_STEPS = 24
# Generated cases in the traced set: a whole number of the 12-case sweep
# cycle and of the 6-case verify cycle.
TRACE_SET = 12
PRIMARY = {"sweep": "analyze", "verify-long": "verify"}


class Tally:
    """Times, counts and checks the CLI calls of one run."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.model_times: list[float] = []  # per model, all its calls
        self.states = 0
        self.cli_time = 0.0
        self.output_bytes = 0
        self.setup_times: list[float] = []
        self.bundled: dict[str, list[float]] = {}  # analyze time per bundled model

    def call(self, kind: str, argv: list[str]) -> tuple[int | None, str, float]:
        """Run one CLI call in process; return exit code, stdout and wall time."""
        import ptegkit.cli  # attribute looked up per call, so tracer wrappers apply

        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ptegkit.cli.main(argv)
        except (Exception, SystemExit) as exc:  # an escaping exception is a failed answer
            code = None
            print(f"exception from {' '.join(argv)}: {exc!r}", file=sys.stderr)
        elapsed = perf_counter() - start
        self.cli_time += elapsed
        self.output_bytes += len(out.getvalue().encode())
        self.times.setdefault(kind, []).append(elapsed)
        return code, out.getvalue(), elapsed

    def fresh_start(self, record: bool = True) -> None:
        """Time a fresh interpreter from start to its first answer."""
        argv = [sys.executable, "-m", "ptegkit", "validate", str(ROOT / "models" / "running.pteg")]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = perf_counter()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - start
        self.attempted += 1
        self.check(proc.returncode == 0 and "valid" in proc.stdout, "set-up call failed")
        if record:
            self.setup_times.append(elapsed)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ---------------------------------------------------------------- cases


# A case runs the calls for one model in a tally and checks the answers.
Case = Callable[[Tally], None]


def _rate_in_window(rep: dict, rate: int) -> bool:
    lo, hi = number(rep.get("rho_calA", "none")), number(rep.get("rho_prime_calB", "none"))
    return lo is not None and hi is not None and lo <= rate <= hi


def bundled_case(name: str) -> Case:
    path = str(ROOT / "models" / f"{name}.pteg")
    golden = (ROOT / "tests" / "golden" / f"analyze_{name}.txt").read_text(encoding="utf-8")
    expected = 2 if "verdict: NO_SOLUTION" in golden else 0

    def run(s: Tally) -> None:
        code, out, t = s.call("analyze", ["analyze", path])
        s.check(code == expected and out == golden, f"{name}: report differs from golden")
        s.model_times.append(t)
        s.bundled.setdefault(name, []).append(t)

    return run


def analyze_case(inst: Instance, path: str) -> Case:
    """`analyze`; on a feasible line also `trajectory` in both modes."""
    name = inst.net.name

    def run(s: Tally) -> None:
        code, out, total = s.call("analyze", ["analyze", path])
        rep = parse_report(out)
        if inst.verdict == "NO_SOLUTION":
            s.check(code == 2 and rep.get("verdict") == "NO_SOLUTION", f"{name}: not NO_SOLUTION")
        else:
            s.check(
                code == 0
                and rep.get("verdict") == "CANDIDATES_EXIST"
                and _rate_in_window(rep, inst.rate),
                f"{name}: verdict or planted rate {inst.rate} outside [rho_calA, rho_prime_calB]",
            )
        if inst.verdict == "CANDIDATES_EXIST":
            for mode, rho in (("fastest", "rho_calA"), ("slowest", "rho_prime_calB")):
                code, out, t = s.call(
                    "trajectory",
                    ["trajectory", path, "--mode", mode, "--steps", str(TRAJECTORY_STEPS)],
                )
                total += t
                s.check(_trajectory_ok(inst, rep, mode, rep.get(rho), code, out),
                        f"{name}: {mode} trajectory wrong")
        s.model_times.append(total)

    return run


def _trajectory_ok(inst: Instance, rep: dict, mode: str, rho: str | None, code, out: str) -> bool:
    """Exit 2 exactly when analyze listed no candidate; otherwise an admissible
    run from the first candidate at the printed extremal rate."""
    candidates = rep[mode]
    if not candidates:
        return code == 2 and out == ""
    if code != 0 or rho is None:
        return False
    try:
        meta, columns, rows = parse_csv(out)
        bad = violating_steps(inst.net, columns, rows)
    except (ValueError, KeyError, IndexError, ZeroDivisionError):
        return False
    x0 = [Fraction(v) for v in candidates[0].split("=", 1)[1].split()[:-2]]
    return (
        not bad
        and len(rows) == TRAJECTORY_STEPS + 1
        and rows[0] == x0
        and number(meta.get("rate", "none")) == number(rho)
    )


def verify_case(case: VerifyCase, model_path: str, csv_path: str) -> Case:
    name = case.instance.net.name

    def run(s: Tally) -> None:
        code, out, t = s.call("verify", ["verify", model_path, "--trajectory", csv_path])
        steps = {int(line.split()[0][2:]) for line in out.splitlines() if line.startswith("k=")}
        ok = code == case.expected_exit and steps == set(case.violating)
        if not case.violating:
            ok = ok and out == f"trajectory admissible: {case.states} states, no violations\n"
        s.check(ok, f"{name}: verify exit {code}, steps {sorted(steps)[:5]}")
        s.model_times.append(t)
        s.states += case.states

    return run


def cases(workload: str, seed: int, work: Path) -> Iterator[Case]:
    """Endless deterministic case stream of one workload; files go to `work`."""
    if workload == "verify-long":
        for n, case in enumerate(verify_stream(seed)):
            model, csv = work / f"m{n}.pteg", work / f"t{n}.csv"
            model.write_text(case.instance.text, encoding="utf-8")
            csv.write_text(case.csv, encoding="utf-8")
            yield verify_case(case, str(model), str(csv))
    else:
        for name in BUNDLED:
            yield bundled_case(name)
        for n, inst in enumerate(sweep_stream(seed)):
            path = work / f"m{n}.pteg"
            path.write_text(inst.text, encoding="utf-8")
            yield analyze_case(inst, str(path))


# ---------------------------------------------------------------- measuring


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest standard percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def run_plain(stream: Iterator[Case], seconds: float) -> Tally:
    """Closed loop until the ptegkit calls have taken `seconds`.

    Set-up time is sampled SETUP_REPEATS times spread over the run, so
    that a slow spell of the machine touches few samples.
    """
    plain = Tally()
    plain.fresh_start(record=False)  # the first start may compile bytecode
    while plain.cli_time < seconds:
        if len(plain.setup_times) * seconds <= plain.cli_time * SETUP_REPEATS:
            plain.fresh_start()
        next(stream)(plain)
    return plain


def run_traced(case_set: list[Case], seconds: float
               ) -> tuple[Tally, Tally, list[dict[str, float | None]], Tracer]:
    """Passes over the fixed case set until the untraced and traced calls
    together have taken `seconds`, at least one pass.

    Each case runs untraced and then traced.  Each pass has a tracer of
    its own, so its per-layer figures are amounts of work and time for
    the same set; the first pass's tracer is returned for its spans.
    """
    plain, traced = Tally(), Tally()
    per_pass: list[dict[str, float | None]] = []
    first: Tracer | None = None
    while not per_pass or plain.cli_time + traced.cli_time < seconds:
        tracer = Tracer()
        output_before = traced.output_bytes
        for case in case_set:
            case(plain)
            tracer.request += 1
            tracer.install()
            try:
                case(traced)
            finally:
                tracer.uninstall()
        layer = tracer.metrics()
        layer["cli.output_bytes"] = traced.output_bytes - output_before
        per_pass.append(layer)
        first = first or tracer
    return plain, traced, per_pass, first


def median_per_pass(per_pass: list[dict[str, float | None]], name: str) -> float | None:
    """Median (the lower one of an even count, so that a count stays whole)
    of a per-layer metric over the passes; None if any pass lacks it."""
    values = [layer.get(name) for layer in per_pass]
    return None if None in values else statistics.median_low(values)


def e2e(s: Tally, workload: str) -> dict[str, float]:
    return {
        "call_p50_s": statistics.median(s.times[PRIMARY[workload]]),
        "models_per_s": len(s.model_times) / sum(s.model_times),
    }


def report_lines(s: Tally, workload: str) -> list[str]:
    """Human-readable metrics, including those kept beside the JSON set."""
    lines = []
    if s.setup_times:
        lines.append(f"setup_s = {statistics.median(s.setup_times):.6f} s (n={len(s.setup_times)})")
    for kind, values in sorted(s.times.items()):
        lines.append(f"{kind}_p50_s = {statistics.median(values):.6f} s (n={len(values)})")
        t = tail(values)
        if t:
            lines.append(f"{kind}_tail_s = {t[1]:.6f} s at {t[0]} (n={len(values)})")
        else:
            lines.append(f"{kind}_tail_s = n/a (n={len(values)} < 20)")
    n, busy = len(s.model_times), sum(s.model_times)
    lines.append(f"models_per_s = {n / busy:.6f} 1/s ({n} models in {busy:.3f} s)")
    if workload == "verify-long":
        lines.append(f"verify_states_per_s = {s.states / busy:.3f} 1/s ({s.states} states)")
    for name, values in s.bundled.items():
        lines.append(f"{name}_analyze_s = {statistics.median(values):.6f} s "
                     f"(n={len(values)}, models/{name}.pteg)")
    rate = s.failed / s.attempted if s.attempted else 0.0
    lines.append(f"error_rate = {rate:.6f} ratio ({s.failed}/{s.attempted})")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(PRIMARY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/ptegkit", "models", "tests/golden"):
        if not (ROOT / need).is_dir():
            sys.exit(f"error: {need}/ not found; run from the root of a ptegkit checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ptegkit.cli  # noqa: F401  the ptegkit under test, not an installed one

    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stream = cases(args.workload, args.seed, work)
        if args.trace:
            size = TRACE_SET + (len(BUNDLED) if args.workload == "sweep" else 0)
            plain, traced, per_pass, tracer = run_traced(
                list(itertools.islice(stream, size)), args.seconds)
        else:
            plain, traced = run_plain(stream, args.seconds), None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tallies = [plain] + ([] if traced is None else [traced])
    attempted = sum(s.attempted for s in tallies)
    failed = sum(s.failed for s in tallies)
    for s in tallies:
        for what in s.failures[:10]:
            print(f"FAILED: {what}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: one closed-loop caller, in process")
    for line in report_lines(plain, args.workload):
        print("  " + line)
    if traced is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  peak_rss_mb = {rss_mb:.3f} MB")
        values = {
            "setup_s": statistics.median(plain.setup_times),
            "peak_rss_mb": rss_mb,
            **e2e(plain, args.workload),
        }
        metrics = {k: (values[k], unit) for k, unit in metric_units("end_to_end").items()}
    else:
        print(f"  traced run: {len(per_pass)} passes over a fixed set of {size} models")
        for line in report_lines(traced, args.workload):
            print("    " + line)
        units = metric_units("per_layer")
        layer = {k: median_per_pass(per_pass, k) for k in units}
        base, with_trace = e2e(plain, args.workload), e2e(traced, args.workload)
        layer["trace.overhead.call_p50"] = with_trace["call_p50_s"] / base["call_p50_s"] - 1
        layer["trace.overhead.models_per_s"] = 1 - with_trace["models_per_s"] / base["models_per_s"]
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.csv.gz"
        tracer.write(spans)
        print(f"  change under tracing: call_p50_s {layer['trace.overhead.call_p50']:+.1%}, "
              f"models_per_s {-layer['trace.overhead.models_per_s']:+.1%}; "
              f"spans of the first pass in {spans}")
        total = layer["trace.total_s"]
        print("  share of traced time: " + ", ".join(
            f"{name} {layer[name + '.self_s'] / total:.1%}" for name in LAYERS
            if layer.get(name + ".self_s") is not None))
        missing = [k for k, v in layer.items() if v is None]
        if missing:
            print("missing per-layer metrics (function not traced or its counter failed): "
                  + ", ".join(missing), file=sys.stderr)
        metrics = {k: (layer[k], unit) for k, unit in units.items()}
        for k, (v, unit) in metrics.items():
            print(f"  {k} = {v} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
