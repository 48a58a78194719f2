"""Command line front end.

Subcommands: spectrum (compute/transform weight enumerators), bound
(evaluate a bound variant over an SNR grid to CSV), simulate (Monte Carlo
ML decoding runs), compare (merge bound curves and simulation points into
one table, optionally asserting dominance).  bound and simulate read their
grid values under one --snr-convention (ebn0, esn0 or sigma).

Exit codes: 0 success, 2 validation/input errors, 3 resource-guard refusals.
Outputs are deterministic for fixed inputs; metadata lives in '#' comments,
never in data rows.  An argument '@FILE' stands for the flags in FILE,
shell-quoted, with '#' comments; flags given after it override them.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .bounds import (
    BoundVariant,
    FileBoundProvider,
    ThetaPolicy,
    bit_error_bound,
    gfbt_combine,
    pairwise_error_bound,
    triplet_error_bound,
    truncated_union_bound,
    union_bound,
    word_error_bound,
)
from .errors import MlboundsError, ResourceLimitError, ValidationError
from .numerics import ChannelPoint, SnrConvention, noise_sigma
from .spectrum import (
    InputOutputSpectrum,
    WeightSpectrum,
    ensemble_average,
    enumerate_spectrum,
    format_spectrum,
    load_generator,
    load_spectrum,
    macwilliams_transform,
    _text_lines,
)

__all__ = ["CurveRow", "BoundCurve", "compute_curve", "main"]


def __getattr__(name):
    """simulate and SimConfig load with the simulator on first use (PEP 562),
    so bound, spectrum and compare never import it."""
    if name not in ("SimConfig", "simulate"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulator

    return getattr(simulator, name)


EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

_CSV_HEADER = "snr_db,sigma,raw_value,clamped_value,d_star_opt"
_MAX_GRID_POINTS = 1_000_000


# --- curve computation (library surface of the bound subcommand) ------------


# The bound of each variant, by its name in this module.  compute_curve looks
# the name up once per call, so a wrapper bound over the name (a tracer, a
# test double) sees every call.
_BOUNDS = {
    BoundVariant.UNION: "union_bound",
    BoundVariant.TRUNCATED_UNION: "truncated_union_bound",
    BoundVariant.PAIRWISE_IMPROVED: "pairwise_error_bound",
    BoundVariant.TRIPLET_IMPROVED: "triplet_error_bound",
    BoundVariant.UNIFIED_WORD: "word_error_bound",
    BoundVariant.UNIFIED_BIT: "bit_error_bound",
    BoundVariant.GFBT_COMBINED: "gfbt_combine",
}

# The curve options, with the flag that sets each.  A variant takes an
# option exactly when its bound takes a parameter of the same name.
_FIELD_FLAGS = {
    "theta_policy": "--theta-policy",
    "d_star": "--dstar",
    "d_star_max": "--dstar-max",
    "provider": "--base-bound",
}


@dataclass(frozen=True)
class CurveRow:
    snr_db: float
    sigma: float
    raw_value: float
    clamped_value: float
    d_star_opt: int


@dataclass(frozen=True)
class BoundCurve:
    metadata: tuple[tuple[str, str], ...]
    rows: tuple[CurveRow, ...]


def _grid_count(start: float, stop: float, step: float) -> int:
    """Grid points start + i*step <= stop (1e-9 slack), at most _MAX_GRID_POINTS + 1."""
    return math.floor(min((stop - start) / step + 1e-9, _MAX_GRID_POINTS)) + 1


def _snr_grid(start: float, stop: float, step: float) -> list[float]:
    return [start + i * step for i in range(_grid_count(start, stop, step))]


def compute_curve(
    variant: BoundVariant,
    spectrum: WeightSpectrum | InputOutputSpectrum | Callable,
    snr_start: float,
    snr_stop: float,
    snr_step: float,
    convention: SnrConvention = SnrConvention.EBN0_DB,
    **options,
) -> BoundCurve:
    """One bound curve: variant x spectrum x SNR grid.  options (theta_policy,
    d_star, d_star_max, provider) pass straight to the variant's bound, so its
    defaults fill the rest; one it does not take is refused, whatever its
    value.  A provider path is read with FileBoundProvider.  A spectrum given
    as a callable loads only once the grid and the options have passed."""
    if not (math.isfinite(snr_start) and math.isfinite(snr_stop)):
        raise ValidationError(
            f"snr start and stop must be finite, got {snr_start!r}, {snr_stop!r}"
        )
    if not (math.isfinite(snr_step) and snr_step > 0.0):
        raise ValidationError(f"snr step must be > 0, got {snr_step!r}")
    if not snr_start <= snr_stop:
        raise ValidationError(f"snr start must not exceed stop, got {snr_start!r} > {snr_stop!r}")
    if _grid_count(snr_start, snr_stop, snr_step) > _MAX_GRID_POINTS:
        raise ValidationError(f"snr grid has more than {_MAX_GRID_POINTS:,} points")
    if variant not in _BOUNDS:
        raise ValidationError(f"unknown variant {variant!r}")
    bound = globals()[_BOUNDS[variant]]
    params = inspect.signature(bound).parameters
    for name in options:
        if name not in _FIELD_FLAGS:
            raise ValidationError(f"unknown curve option {name!r}, not in {list(_FIELD_FLAGS)}")
        if name not in params:
            raise ValidationError(f"{variant.value} does not read {name} ({_FIELD_FLAGS[name]})")
    if "provider" in params and options.get("provider") is None:
        raise ValidationError("the gfbt variant needs a base bound table (--base-bound)")
    if callable(spectrum):
        spectrum = spectrum()
    if "iowe" in params and not isinstance(spectrum, InputOutputSpectrum):
        raise ValidationError(
            "the bit bound needs an input-output spectrum (IOWE); "
            "this source provides only codeword weights"
        )
    if isinstance(options.get("provider"), (str, os.PathLike)):
        options["provider"] = FileBoundProvider(options["provider"])
    if "iowe" not in params and isinstance(spectrum, InputOutputSpectrum):
        spectrum = spectrum.weight_spectrum()
    reads = {"iowe" if "iowe" in params else "spectrum": spectrum, **options}
    rate = spectrum.k / spectrum.n
    rows = []
    for grid_value in _snr_grid(snr_start, snr_stop, snr_step):
        point = ChannelPoint.from_snr_db(grid_value, convention, rate=rate)
        result = bound(ch=point, **reads)
        rows.append(
            CurveRow(grid_value, point.sigma, result.value, result.clamped, result.d_star_opt)
        )
    d_star = options.get("d_star")
    metadata = (
        ("tool", f"mlbounds {__version__}"),
        ("variant", variant.value),
        ("code", f"[{spectrum.n},{spectrum.k}]"),
        ("spectrum_kind", spectrum.kind.value),
        ("snr_convention", convention.value),
        ("theta_policy", (options.get("theta_policy") or ThetaPolicy.CLOSED_FORM).value),
        ("d_star", "optimized" if d_star is None else str(d_star)),
    )
    if options.get("d_star_max") is not None:
        metadata += (("d_star_max", str(options["d_star_max"])),)
    return BoundCurve(metadata, tuple(rows))


def _format_curve(curve: BoundCurve) -> str:
    lines = [f"# {key}={value}" for key, value in curve.metadata]
    lines.append(_CSV_HEADER)
    lines += [
        f"{row.snr_db!r},{row.sigma!r},{row.raw_value!r},{row.clamped_value!r},{row.d_star_opt}"
        for row in curve.rows
    ]
    return "".join(line + "\n" for line in lines)


def _read_curve(path) -> BoundCurve:
    path = Path(path)
    metadata = []
    rows = []
    saw_header = False
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                metadata.append((key.strip(), value.strip()))
            continue
        if not saw_header:
            if line != _CSV_HEADER:
                raise ValidationError(
                    f"{path}:{lineno}: expected header '{_CSV_HEADER}', got {line!r}"
                )
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ValidationError(f"{path}:{lineno}: expected 5 columns")
        try:
            row = CurveRow(*map(float, parts[:4]), int(parts[4]))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        # a NaN would pass every dominance comparison, so refuse it here
        for name, need, ok in (
            ("snr_db", "finite", True),
            ("sigma", "finite and > 0", row.sigma > 0.0),
            ("raw_value", "finite and >= 0", row.raw_value >= 0.0),
            ("clamped_value", "finite and >= 0", row.clamped_value >= 0.0),
        ):
            value = getattr(row, name)
            if not (ok and math.isfinite(value)):
                raise ValidationError(f"{path}:{lineno}: {name} must be {need}, got {value!r}")
        rows.append(row)
    if not saw_header or not rows:
        raise ValidationError(f"{path}: no curve rows found")
    return BoundCurve(tuple(metadata), tuple(rows))


# --- shared argument plumbing ------------------------------------------------


def _emit(args, text: str) -> None:
    """Write a command's finished output to stdout, or to the -o file."""
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_source(args):
    """The spectrum named by the source flags that spectrum and bound share."""
    if args.max_k is not None and args.enumerate is None:
        raise ValidationError("--max-k applies only to --enumerate")
    if args.spectrum is not None:
        return load_spectrum(args.spectrum)
    if args.enumerate is not None:
        guard = {} if args.max_k is None else {"max_k": args.max_k}
        return enumerate_spectrum(load_generator(args.enumerate), **guard)
    return ensemble_average(*args.ensemble)


def _add_source_flags(parser: argparse.ArgumentParser, file_flag: str, file_help: str) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(file_flag, dest="spectrum", metavar="FILE", help=file_help)
    group.add_argument(
        "--enumerate", metavar="GENFILE", help="enumerate the code in a generator file"
    )
    group.add_argument(
        "--ensemble",
        nargs=2,
        type=int,
        metavar=("N", "K"),
        help="random binary linear [N,K] ensemble average",
    )
    parser.add_argument("--max-k", type=int, help="with --enumerate: the largest k (default 28)")


def _add_convention_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--snr-convention", choices=[c.value for c in SnrConvention], default="ebn0",
        help="grid values as Eb/N0 or Es/N0 in dB, or as sigma itself (default ebn0)",
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", metavar="FILE", help="output path (default stdout)")


# --- subcommands --------------------------------------------------------------


def cmd_spectrum(args) -> int:
    result = _load_source(args)
    if args.spectrum is not None:
        if not isinstance(result, WeightSpectrum):
            raise ValidationError(f"{args.spectrum}: macwilliams needs a weight spectrum file")
        result = macwilliams_transform(result)
    _emit(args, format_spectrum(result))
    return EXIT_OK


def cmd_bound(args) -> int:
    options = {name: getattr(args, name) for name in _FIELD_FLAGS}
    if options["theta_policy"] is not None:
        options["theta_policy"] = ThetaPolicy(options["theta_policy"])
    curve = compute_curve(
        BoundVariant(args.variant), lambda: _load_source(args),
        args.snr_start, args.snr_stop, args.snr_step, SnrConvention(args.snr_convention),
        **{name: value for name, value in options.items() if value is not None},
    )
    _emit(args, _format_curve(curve))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cli = sys.modules[__name__]  # attribute lookups, so a wrapped cli.simulate is the one run
    code = load_generator(args.code)
    convention = SnrConvention(args.snr_convention)
    sigmas = [noise_sigma(x, convention, code.rate) for x in args.snr]
    d_star = args.dstar if args.dstar is not None else code.n
    configs = [cli.SimConfig(code, s, d_star, args.trials, args.seed, args.work_limit) for s in sigmas]
    reports = [cli.simulate(cfg, workers=args.workers) for cfg in configs]
    if args.format == "json":
        payload = [report.to_dict() for report in reports]
        _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        blocks = [
            f"# grid point {convention.value}={value!r}\n{report.to_text()}"
            for value, report in zip(args.snr, reports)
        ]
        _emit(args, "\n\n".join(blocks) + "\n")
    return EXIT_OK


def _unique_labels(paths) -> list[str]:
    labels = []
    for path in paths:
        base = Path(path).stem or "curve"
        label = base
        bump = 2
        while label in labels:
            label = f"{base}_{bump}"
            bump += 1
        labels.append(label)
    return labels


def _is_real(value) -> bool:
    """A finite JSON number; bool is an int subclass but not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _load_sim_points(path) -> list[dict]:
    """Simulation report points with every field compare reads checked:
    finite numbers for snr_db and sigma, rates in [0, 1], intervals [lo, hi]
    with 0 <= lo <= hi <= 1 around their own rate, and the bit rate and
    interval present together or not at all."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ValidationError(f"{path}: not a JSON simulation report: {exc}") from None
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not all(isinstance(p, dict) for p in payload):
        raise ValidationError(f"{path}: expected a simulation report object or array")
    for point in payload:
        for field in ("snr_db", "sigma", "word_error_rate", "word_error_ci"):
            if field not in point:
                raise ValidationError(f"{path}: report missing field {field!r}")
        if ("bit_error_rate" in point) != ("bit_error_ci" in point):
            raise ValidationError(f"{path}: bit_error_rate and bit_error_ci must come together")
        for field in ("snr_db", "sigma"):
            if not _is_real(point[field]):
                raise ValidationError(
                    f"{path}: {field} must be a finite number, got {point[field]!r}"
                )
        for level in ("word", "bit") if "bit_error_rate" in point else ("word",):
            rate, ci = point[f"{level}_error_rate"], point[f"{level}_error_ci"]
            if not (_is_real(rate) and 0.0 <= rate <= 1.0):
                raise ValidationError(
                    f"{path}: {level}_error_rate must be a number in [0, 1], got {rate!r}"
                )
            if not (isinstance(ci, list) and len(ci) == 2 and all(map(_is_real, ci))
                    and 0.0 <= ci[0] <= ci[1] <= 1.0):
                raise ValidationError(
                    f"{path}: {level}_error_ci must be a [lo, hi] pair with 0 <= lo <= hi <= 1, "
                    f"got {ci!r}"
                )
            if not ci[0] <= rate <= ci[1]:
                raise ValidationError(
                    f"{path}: {level}_error_rate {rate!r} lies outside its {level}_error_ci {ci!r}"
                )
    return payload


def _sim_rows(path, grid) -> dict[int, dict]:
    """The points of one report keyed by their row of grid, a (snr_db, sigma)
    list.  sigma is the channel parameter proper; the report's snr_db is an
    Eb/N0 annotation that need not match non-Eb/N0 curve grids."""
    by_row: dict[int, dict] = {}
    for point in _load_sim_points(path):
        i = next((i for i, (_, sigma) in enumerate(grid)
                  if math.isclose(sigma, point["sigma"], rel_tol=1e-9, abs_tol=0.0)), None)
        if i is None:
            raise ValidationError(
                f"{path}: simulation point sigma={point['sigma']!r} does not lie on the curve grid"
            )
        if i in by_row:
            raise ValidationError(
                f"{path}: two simulation points at sigma={point['sigma']!r} fall on one grid row"
            )
        by_row[i] = point
    return by_row


def cmd_compare(args) -> int:
    curves = [_read_curve(path) for path in args.curve]
    grids = [[(row.snr_db, row.sigma) for row in curve.rows] for curve in curves]
    for path, grid in zip(args.curve[1:], grids[1:]):
        if grid != grids[0]:
            raise ValidationError(
                f"{path}: grid misaligned with {args.curve[0]} "
                "(snr_db/sigma sequences must match exactly)"
            )
    sims = [_sim_rows(path, grids[0]) for path in args.sim or []]
    labels, sim_labels = _unique_labels(args.curve), _unique_labels(args.sim or [])
    # a bit-level curve bounds the bit-error rate, everything else the
    # word-error rate; curves without variant metadata count as word-level
    levels = [
        "bit" if dict(curve.metadata).get("variant") == BoundVariant.UNIFIED_BIT.value
        else "word"
        for curve in curves
    ]

    lines = [f"# tool=mlbounds {__version__}"]
    for label, curve in zip(labels, curves):
        lines += [f"# {label}.{key}={value}" for key, value in curve.metadata]
    header = ["snr_db", "sigma"]
    for label in labels:
        header += [f"{label}_raw", f"{label}_clamped"]
    for label in sim_labels:
        header += [f"{label}_wer", f"{label}_wer_lo", f"{label}_wer_hi"]
    lines.append(",".join(header))
    violations = []
    for i, (snr_db, sigma) in enumerate(grids[0]):
        rows = [curve.rows[i] for curve in curves]
        points = [column.get(i) for column in sims]
        cells = [repr(snr_db), repr(sigma)]
        for row in rows:
            cells += [repr(row.raw_value), repr(row.clamped_value)]
        for point in points:
            cells += ["", "", ""] if point is None else [
                repr(point["word_error_rate"]), *map(repr, point["word_error_ci"])
            ]
        lines.append(",".join(cells))
        if not args.assert_dominance:
            continue
        for left, right, l_label, r_label in zip(rows, rows[1:], labels, labels[1:]):
            if right.raw_value > left.raw_value:
                violations.append(
                    f"snr_db={snr_db!r}: {r_label}={right.raw_value!r} "
                    f"exceeds {l_label}={left.raw_value!r}"
                )
        tightest = {}
        for level, row in zip(levels, rows):
            tightest[level] = min(row.raw_value, tightest.get(level, math.inf))
        for label, point in zip(sim_labels, points):
            for level in ("word", "bit"):
                ci = point and point.get(f"{level}_error_ci")
                # flag only when even the interval's low end clears the
                # bound; a tight bound plus sampling noise is not a bug
                if ci and ci[0] > tightest.get(level, math.inf):
                    violations.append(
                        f"snr_db={snr_db!r}: simulated {level}-error rate "
                        f"{point[f'{level}_error_rate']!r} ({label}) exceeds the tightest "
                        f"{level} bound {tightest[level]!r} beyond its confidence interval"
                    )
    _emit(args, "".join(line + "\n" for line in lines))

    for line in violations:
        print(f"dominance violation: {line}", file=sys.stderr)
    return EXIT_VALIDATION if violations else EXIT_OK


# --- parser ------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reads each line of an '@FILE' argument as shell words; '#' starts a comment."""

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        try:
            return shlex.split(arg_line, comments=True)
        except ValueError as exc:  # an unclosed quote
            raise ValidationError(f"argument file line {arg_line!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mlbounds",
        fromfile_prefix_chars="@",
        description="ML decoding error bounds and Monte Carlo validation "
        "for binary linear block codes over BPSK-AWGN",
    )
    parser.add_argument("--version", action="version", version=f"mlbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="compute or transform weight spectra")
    _add_source_flags(sp, "--macwilliams", "MacWilliams transform of a dual weight spectrum file")
    _add_common_flags(sp)
    sp.set_defaults(func=cmd_spectrum)

    bp = sub.add_parser("bound", help="evaluate a bound curve over an SNR grid")
    _add_source_flags(bp, "--spectrum", "spectrum file (weight or iowe)")
    bp.add_argument(
        "--variant",
        choices=[v.value for v in BoundVariant],
        default=BoundVariant.UNIFIED_WORD.value,
    )
    bp.add_argument(
        "--base-bound", dest="provider", metavar="FILE", help="base bound table for gfbt"
    )
    bp.add_argument("--snr-start", type=float, default=0.0)
    bp.add_argument("--snr-stop", type=float, default=10.0)
    bp.add_argument("--snr-step", type=float, default=0.25)
    _add_convention_flag(bp)
    bp.add_argument(
        "--theta-policy",
        choices=[p.value for p in ThetaPolicy],
        help="with triplet, word or bit: the half-plane angle (default closed-form)",
    )
    bp.add_argument("--dstar", dest="d_star", type=int, help="fix d* instead of optimizing")
    bp.add_argument("--dstar-max", dest="d_star_max", type=int, help="cap the d* probe range")
    _add_common_flags(bp)
    bp.set_defaults(func=cmd_bound)

    mp = sub.add_parser("simulate", help="Monte Carlo ML decoding runs")
    mp.add_argument("--code", required=True, metavar="GENFILE")
    mp.add_argument("--snr", nargs="+", type=float, required=True, help="grid values")
    _add_convention_flag(mp)
    mp.add_argument("--dstar", type=int, default=None, help="list radius (default n)")
    mp.add_argument("--trials", type=int, default=10000)
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--work-limit", type=int, default=400_000_000_000)
    mp.add_argument("--format", choices=["json", "text"], default="json")
    mp.add_argument("--workers", type=int, default=1, help="worker count (default 1)")
    _add_common_flags(mp)
    mp.set_defaults(func=cmd_simulate)

    cp = sub.add_parser("compare", help="merge bound curves and simulation points")
    cp.add_argument("--curve", action="append", required=True, metavar="CSV")
    cp.add_argument("--sim", action="append", metavar="JSON")
    cp.add_argument(
        "--assert-dominance",
        action="store_true",
        help="exit nonzero if curves are not ordered loosest-first, or a "
        "simulated rate exceeds the tightest same-level bound beyond its "
        "confidence interval (bit curves check bit rates, the rest word rates)",
    )
    _add_common_flags(cp)
    cp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, --version, usage errors
        return int(exc.code or 0)
    except ResourceLimitError as exc:
        print(f"mlbounds: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MlboundsError, OSError, UnicodeDecodeError) as exc:
        print(f"mlbounds: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
