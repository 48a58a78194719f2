"""Output checks: every command of a pass is compared with reference outputs
recorded from the seed library (perfbench/reference), plus invariants that
hold at any seed.

A check returns a list of problems per command tag; a command with any
problem counts as failed in the benchmark's error rate.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import REFERENCE_SEED, Workload

RAW_RTOL = 1e-9


def parse_curve(path: Path) -> tuple[list[str], list[tuple[float, float, float, float, int]]]:
    meta, rows = [], []
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines:
        if line.startswith("#"):
            meta.append(line)
        elif line and not line.startswith("snr_db,"):
            a, b, c, d, e = line.split(",")
            rows.append((float(a), float(b), float(c), float(d), int(e)))
    return meta, rows


def _close(value: float, ref: float) -> bool:
    # exact zeros must stay zero; the relative test already demands that
    return abs(value - ref) <= RAW_RTOL * abs(ref)


def check_curve(out: Path, ref: Path) -> tuple[list[str], int]:
    """Problems, and the number of points whose d_star_opt moved (reported,
    not gated: reordered sums may move ties between radii)."""
    meta, rows = parse_curve(out)
    ref_meta, ref_rows = parse_curve(ref)
    if meta != ref_meta:
        return [f"metadata {meta} != reference {ref_meta}"], 0
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"], 0
    problems, moved = [], 0
    for row, want in zip(rows, ref_rows):
        if row[:2] != want[:2]:
            problems.append(f"grid point {row[:2]} != reference {want[:2]}")
        for column, i in (("raw_value", 2), ("clamped_value", 3)):
            if not _close(row[i], want[i]):
                problems.append(f"snr {row[0]!r}: {column} {row[i]!r} != reference {want[i]!r}")
        moved += row[4] != want[4]
    return problems, moved


def check_dominance(curves: list[tuple[str, Path]]) -> list[str]:
    """Pointwise exact ordering of raw values, loosest curve first.  Exact,
    like the library's own dominance test, although the curves tie bit for bit
    at some points: a reordered sum that breaks such a tie fails both."""
    problems = []
    rows = [(tag, parse_curve(path)[1]) for tag, path in curves]
    for (loose_tag, loose), (tight_tag, tight) in zip(rows, rows[1:]):
        for a, b in zip(loose, tight):
            if not b[2] <= a[2]:
                problems.append(f"snr {a[0]!r}: {tight_tag}={b[2]!r} > {loose_tag}={a[2]!r}")
    return problems


def _weights(path: Path) -> dict[int, float]:
    """Weight marginal of a weight or iowe spectrum file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    counts: dict[int, float] = {}
    for line in lines[1:]:
        fields = line.split()  # "d count" or "i d count"
        d, count = int(fields[-2]), float(fields[-1])
        if count:
            counts[d] = counts.get(d, 0.0) + count
    return counts


def check_marginal(macwilliams: Path, enumerated: Path) -> list[str]:
    """MacWilliams of the dual equals the weight marginal of the enumerated
    IOWE.  record.py checks it before writing references; a pass need not,
    as both spectra must then match those references byte for byte."""
    got, want = _weights(macwilliams), _weights(enumerated)
    return [] if got == want else [f"MacWilliams weights {got} != enumerated marginal {want}"]


_COUNTERS = ("trials", "seed", "word_errors", "bit_errors", "region_exits", "ties",
             "joint_errors_by_weight")


def check_sim(out: Path, ref: Path | None, bound: float) -> list[str]:
    """ties == 0 and Wilson low end <= word bound at any seed; at the
    reference seed every counter equals the recorded one."""
    (report,) = json.loads(out.read_text(encoding="utf-8"))
    problems = []
    if report["ties"] != 0:
        problems.append(f"ties={report['ties']}")
    low = report["word_error_ci"][0]
    if not low <= bound:
        problems.append(f"Wilson low end {low!r} exceeds the word bound {bound!r}")
    if ref is not None:
        (want,) = json.loads(ref.read_text(encoding="utf-8"))
        for key in _COUNTERS:
            if report[key] != want[key]:
                problems.append(f"{key}={report[key]!r} != reference {want[key]!r}")
    return problems


def check_pass(
    workload: Workload,
    outputs: dict[str, Path],
    ref_dir: Path,
    seed: int,
    sim_bounds: dict[str, float],
) -> tuple[dict[str, list[str]], int]:
    """Problems per command tag, and the count of moved d_star_opt points.
    Commands without an output (nonzero exit) are the caller's concern."""
    problems: dict[str, list[str]] = {tag: [] for tag in outputs}
    moved = 0
    for cmd in workload.commands:
        out = outputs.get(cmd.tag)
        if out is None:
            continue
        ref = ref_dir / cmd.output_name(REFERENCE_SEED)
        try:
            if cmd.kind == "curve":
                found, n = check_curve(out, ref)
                problems[cmd.tag] += found
                moved += n
            elif cmd.kind == "spectrum":
                if out.read_bytes() != ref.read_bytes():
                    problems[cmd.tag].append(f"{out.name} differs from {ref}")
            else:
                exact = ref if seed == REFERENCE_SEED else None
                problems[cmd.tag] += check_sim(out, exact, sim_bounds[cmd.tag])
        except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable output
            problems[cmd.tag].append(f"cannot check {out.name}: {exc!r}")
    # the dominance check needs every curve involved to have passed its own
    tags = workload.dominance
    if tags and all(t in outputs and not problems[t] for t in tags):
        problems[tags[-1]] += check_dominance([(t, outputs[t]) for t in tags])
    return problems, moved


def word_bounds(workload: Workload) -> dict[str, float]:
    """word_error_bound at each simulate command's SNR, from the code's exact
    spectrum; computed once per run, outside the timed region."""
    if workload.sim_spectrum is None:
        return {}
    from mlbounds.bounds import word_error_bound
    from mlbounds.numerics import ChannelPoint
    from mlbounds.spectrum import load_spectrum

    spectrum = load_spectrum(workload.sim_spectrum).weight_spectrum()
    rate = spectrum.k / spectrum.n
    return {
        cmd.tag: word_error_bound(spectrum, ChannelPoint.from_snr_db(cmd.snr_db, rate=rate)).value
        for cmd in workload.commands
    }
