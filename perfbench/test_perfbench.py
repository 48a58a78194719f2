"""End-to-end tests of the benchmark on its seconds-long smoke workloads.

    python3 -m pytest perfbench

Each test runs perfbench/run.py as the benchmark command is run, so the
child processes, output checks and metric reports are all exercised.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import REFERENCE_SEED, SMOKE  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark command the way BENCHMARK.json names it, from cwd."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, *, seed: int = REFERENCE_SEED, trace: int = 0) -> tuple[dict, dict]:
    proc = bench("--smoke", "--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_workload_reports_every_metric(workload, trace):
    detail, result = smoke(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert result["attempted"] == detail["passes"] * len(SMOKE[workload].commands)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert detail["error_rate"] == 0.0


def test_traced_counts():
    points = 5  # smoke grid: 0, 2.5, ..., 10 dB
    _, tight = smoke("tight-curves", trace=1)
    _, ensemble = smoke("ensemble-curves", trace=1)
    tight, ensemble = tight["metrics"], ensemble["metrics"]
    assert tight["numerics.triplet_probability.calls"]["value"] > 0
    assert ensemble["numerics.triplet_probability.calls"]["value"] == 0
    for fn in ("union_bound", "truncated_union_bound", "word_error_bound"):
        assert ensemble[f"bounds.{fn}.calls"]["value"] == points
    assert tight["bounds.bit_error_bound.calls"]["value"] == points


def test_simulate_at_another_seed_checks_invariants_only():
    detail, result = smoke("simulate", seed=REFERENCE_SEED + 6)
    assert result["correct"], detail["problems"]


def _bump_raw_value(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line[0].isdigit())
    cells = lines[row].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    lines[row] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


def _bump_word_errors(path: Path) -> None:
    (report,) = json.loads(path.read_text(encoding="utf-8"))
    report["word_errors"] += 1
    path.write_text(json.dumps([report]), encoding="utf-8")


def _bump_spectrum_count(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(".0\n", ".5\n", 1), encoding="utf-8")


@pytest.mark.parametrize(
    "workload, name, corrupt",
    [
        ("ensemble-curves", "word.csv", _bump_raw_value),
        ("tight-curves", "bit-tight.csv", _bump_raw_value),
        ("spectrum", "macwilliams-simplex.spec", _bump_spectrum_count),
        ("simulate", f"high_snr.seed{REFERENCE_SEED}.json", _bump_word_errors),
    ],
)
def test_corrupted_reference_fails_closed(tmp_path, workload, name, corrupt):
    reference = tmp_path / "reference"
    shutil.copytree(BENCH / "reference" / "smoke", reference)
    corrupt(reference / name)
    detail, result = run.run(SMOKE[workload], REFERENCE_SEED, 0, False, reference,
                             tmp_path / "out")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["error_rate"] > 0


def test_without_the_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "spectrum", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
