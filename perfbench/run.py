"""mlbounds benchmark: real CLI commands, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A pass runs the workload's commands one at a
time, each in a fresh interpreter (perfbench/child.py) that imports
``mlbounds.cli`` from ./src and calls ``cli.main``; passes repeat until
``--seconds`` have elapsed.  Every output is checked against
perfbench/reference.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` (commands) and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it carries sample counts, tail
percentiles, the error rate, trials/s and the environment fingerprint.

``--trace 1`` alternates traced and untraced passes; per-layer numbers come
from the traced ones and ``trace.overhead_s`` is the difference of their
median pass times.  ``--smoke`` runs the seconds-long miniature workloads
against perfbench/reference/smoke.

Exits 1 without a result when the library or the benchmark's inputs are
missing, or a child fails to report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_pass, word_bounds
from workloads import FULL, SIM_TAGS, SMOKE, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLI_FILE = SRC / "mlbounds" / "cli.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread per child: on a shared 2-core box two threads ran the
# 2 dB simulation faster on average but with a wider run-to-run spread.
THREADS = 1
CHILD_TIMEOUT_S = 150
BOUND_FNS = ("union_bound", "truncated_union_bound", "word_error_bound", "bit_error_bound")


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Pass:
    traced: bool
    results: dict[str, dict] = field(default_factory=dict)  # tag -> child report
    failed: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    d_star_moved: int = 0
    word_errors: dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(r["wall_s"] for r in self.results.values())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MLBOUNDS_WORKERS", None)  # the CLI then simulates with 1 worker
    env["PYTHONPATH"] = str(SRC)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def run_child(out_dir: Path, name: str, cli_argv: list[str], *, warm: str | None = None,
              trace: bool = False) -> dict:
    result_path = out_dir / f"{name}.result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(result_path)]
    if warm is not None:
        argv += ["--warm", warm]
    if trace:
        argv.append("--trace")
    argv += ["--", *cli_argv]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{name}: no answer within {CHILD_TIMEOUT_S} s") from None
    if not result_path.exists():
        raise HarnessError(f"{name}: child exited {proc.returncode} without a report\n"
                           f"{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(result["module"]).resolve() != CLI_FILE.resolve():
        raise HarnessError(f"{name}: imported {result['module']}, not {CLI_FILE}")
    result["stderr"] = proc.stderr[-2000:]
    return result


def run_pass(workload: Workload, seed: int, out_dir: Path, ref_dir: Path,
             sim_bounds: dict[str, float], traced: bool) -> Pass:
    record = Pass(traced)
    outputs = {}
    for cmd in workload.commands:
        out = out_dir / cmd.output_name(seed)
        out.unlink(missing_ok=True)
        argv = [a.replace("{seed}", str(seed)) for a in cmd.argv] + ["-o", str(out)]
        result = run_child(out_dir, cmd.tag, argv, warm=cmd.warm_code, trace=traced)
        record.results[cmd.tag] = result
        if result["rc"] == 0 and out.exists():
            outputs[cmd.tag] = out
        else:
            record.failed.append(cmd.tag)
            record.problems.append(f"{cmd.tag}: exit {result['rc']}: {result['stderr']}")
    problems, record.d_star_moved = check_pass(workload, outputs, ref_dir, seed, sim_bounds)
    for tag, found in problems.items():
        if found:
            record.failed.append(tag)
            record.problems += [f"{tag}: {p}" for p in found]
    for cmd in workload.commands:
        if cmd.kind == "sim" and cmd.tag in outputs:
            (report,) = json.loads(outputs[cmd.tag].read_text(encoding="utf-8"))
            record.word_errors[cmd.tag] = report["word_errors"]
    return record


# --- statistics ---------------------------------------------------------------


def _percentile(samples: list[float], p: int) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def summary(samples: list[float]) -> dict:
    """Median, and the highest of p99/p90/p75/p50 with >= 10 samples beyond
    it, with the sample count."""
    n = len(samples)
    tail = next((p for p in (99, 90, 75, 50) if n * (100 - p) / 100 >= 10), None)
    return {
        "median": statistics.median(samples),
        "tail": None if tail is None else f"p{tail}",
        "tail_value": None if tail is None else _percentile(samples, tail),
        "n": n,
    }


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# --- metrics ------------------------------------------------------------------


def end_to_end(workload: Workload, passes: list[Pass]) -> tuple[dict, dict]:
    """Metric values (medians) and the sample summaries of those metrics and
    of each command's cli.main time."""
    children = [r for p in passes for r in p.results.values()]
    samples = {
        "wall_s": [p.wall_s for p in passes],
        "setup_s": [r["import_s"] + r["warmup_s"] for r in children],
        "peak_rss_mb": [max(r["maxrss_mb"] for r in p.results.values()) for p in passes],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    for cmd in workload.commands:
        samples[f"main_s.{cmd.tag}"] = [p.results[cmd.tag]["main_s"] for p in passes]
    return values, {name: summary(v) for name, v in samples.items()}


def _span_totals(result: dict) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per span name: calls, total and self seconds; and per-call durations."""
    spans = result["spans"]
    inner = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            inner[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, _, start, end), covered in zip(spans, inner):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += end - start - covered
        durations[name].append(end - start)
    return totals, durations


def per_layer(workload: Workload, traced: list[Pass], plain: list[Pass]) -> dict[str, float]:
    per_pass: dict[str, list[float]] = defaultdict(list)
    durations: dict[str, list[float]] = defaultdict(list)
    for p in traced:
        totals: dict[str, float] = defaultdict(float)
        for cmd in workload.commands:
            found, calls = _span_totals(p.results[cmd.tag])
            for key, value in found.items():
                totals[key] += value
            for name, values in calls.items():
                durations[name] += values
            if cmd.kind == "sim":
                per_pass[f"simulator.simulate.s.{cmd.tag}"].append(found["cli.simulate.s"])
                per_pass[f"simulator.word_errors.{cmd.tag}"].append(p.word_errors.get(cmd.tag, 0))

        def put(metric: str, *keys: str) -> None:
            per_pass[metric].append(sum(totals[k] for k in keys))

        put("cli.self_s", "cli.main.self_s")
        for fn in ("enumerate_spectrum", "macwilliams_transform"):
            put(f"spectrum.{fn}.s", f"cli.{fn}.s")
            put(f"spectrum.{fn}.calls", f"cli.{fn}.calls")
        put("spectrum.load.s", "cli.load_spectrum.s", "cli.load_generator.s")
        put("spectrum.ensemble_average.s", "cli.ensemble_average.s")
        for fn in BOUND_FNS:
            put(f"bounds.{fn}.calls", f"cli.{fn}.calls")
            put(f"bounds.{fn}.self_s", f"cli.{fn}.self_s")
        for fn in ("triplet_probability", "q_function"):
            put(f"numerics.{fn}.calls", f"bounds.{fn}.calls")
            put(f"numerics.{fn}.s", f"bounds.{fn}.s")
        put("numerics.angle_upper_bound.calls", "bounds.angle_upper_bound.calls")

    # workloads that do not simulate report the simulator metrics as 0
    metrics = {f"simulator.{kind}.{tag}": 0 for kind in ("simulate.s", "word_errors")
               for tag in SIM_TAGS}
    metrics.update((name, _median(values)) for name, values in per_pass.items())
    for fn in BOUND_FNS:
        metrics[f"bounds.{fn}.point_s.p50"] = _percentile(durations[f"cli.{fn}"], 50)
        metrics[f"bounds.{fn}.point_s.p90"] = _percentile(durations[f"cli.{fn}"], 90)
    metrics["numerics.triplet_probability.point_s.p50"] = _percentile(
        durations["bounds.triplet_probability"], 50)

    children = [r for p in traced + plain for r in p.results.values()]
    warm = [r for r in children if "warmup_rss_mb" in r]
    metrics["cli.import_s"] = _median([r["import_s"] for r in children])
    metrics["simulator.warmup_s"] = _median([r["warmup_s"] for r in warm])
    metrics["simulator.warmup_rss_mb"] = _median([r["warmup_rss_mb"] for r in warm])
    layout = layout_bytes(workload)
    metrics["simulator.layout_bytes.computed"] = layout
    metrics["simulator.rss_over_guard"] = (
        metrics["simulator.warmup_rss_mb"] * 2**20 / layout if layout else 0.0)
    metrics["trace.overhead_s"] = (_median([p.wall_s for p in traced])
                                   - _median([p.wall_s for p in plain]))
    return metrics


def layout_bytes(workload: Workload) -> int:
    """2^k (8n + 24): the simulator footprint the library's resource guard assumes."""
    gens = {c.warm_code for c in workload.commands if c.warm_code}
    total = 0
    for gen in gens:
        n, k = map(int, (ROOT / gen).read_text(encoding="utf-8").split()[:2])
        total = max(total, (1 << k) * (8 * n + 24))
    return total


# --- environment ----------------------------------------------------------------


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():  # git would otherwise search the parent directories
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mlbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_threads": {var: str(THREADS) for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# --- entry point --------------------------------------------------------------


def preflight(workload: Workload) -> None:
    missing = [str(p) for p in (CLI_FILE, BENCH / "reference") if not p.exists()]
    for cmd in workload.commands:
        missing += [a for a in cmd.argv if a.startswith(("data/", "perfbench/"))
                    and not (ROOT / a).exists()]
    if missing:
        raise HarnessError(f"missing: {', '.join(missing)}")


def run(workload: Workload, seed: int, seconds: float, trace: bool, ref_dir: Path,
        out_dir: Path) -> tuple[dict, dict]:
    preflight(workload)
    out_dir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    sim_bounds = word_bounds(workload)
    # one untimed import warms the page cache and checks which library loads
    run_child(out_dir, "preflight", ["--version"])

    # Passes repeat while the next one is expected to end within the run;
    # a traced run makes at least one traced and one untraced pass.
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(workload, seed, out_dir, ref_dir, sim_bounds, traced))
        elapsed = time.perf_counter() - start
        needed = 2 if trace else 1
        if len(passes) >= needed and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    plain = [p for p in passes if not p.traced]
    values, summaries = end_to_end(workload, plain)
    if trace:
        values = per_layer(workload, [p for p in passes if p.traced], plain)
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    attempted = sum(len(p.results) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "error_rate": failed / attempted,
        "samples": summaries,
        "trials_per_s": {
            c.tag: c.trials / _median([p.results[c.tag]["main_s"] for p in plain])
            for c in workload.commands if c.kind == "sim"
        },
        "d_star_opt_moved": sum(p.d_star_moved for p in passes),
        "problems": [msg for p in passes for msg in p.problems][:20],
        "fingerprint": fingerprint(),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the miniature workload")
    args = parser.parse_args(argv)

    workload = (SMOKE if args.smoke else FULL)[args.workload]
    ref_dir = BENCH / "reference" / ("smoke" if args.smoke else "")
    out_dir = ROOT / ".perfbench_tmp" / f"{workload.name}-{os.getpid()}"
    try:
        detail, result = run(workload, args.seed, args.seconds, bool(args.trace),
                             ref_dir, out_dir)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            out_dir.parent.rmdir()
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
