"""Command line front end.

Subcommands: spectrum (compute/transform weight enumerators), bound
(evaluate a bound variant over an SNR grid to CSV), simulate (Monte Carlo
ML decoding runs), compare (merge bound curves and simulation points into
one table, optionally asserting dominance).

Exit codes: 0 success, 2 validation/input errors, 3 resource-guard refusals.
Outputs are deterministic for fixed inputs; metadata lives in '#' comments,
never in data rows.  Configuration precedence: command-line flags beat
config-file values beat built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .bounds import (
    BaseBoundProvider,
    BoundResult,
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
from .numerics import ChannelPoint, SnrConvention
from .simulator import SimConfig, simulate
from .spectrum import (
    InputOutputSpectrum,
    WeightSpectrum,
    _content_lines,
    ensemble_average,
    enumerate_spectrum,
    format_spectrum,
    load_generator,
    load_spectrum,
    macwilliams_transform,
)

__all__ = ["CurveRequest", "CurveRow", "BoundCurve", "compute_curve", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

WORKERS_ENV = "MLBOUNDS_WORKERS"

_CSV_HEADER = "snr_db,sigma,raw_value,clamped_value,d_star_opt"
_MAX_GRID_POINTS = 1_000_000


# --- curve computation (library surface of the bound subcommand) ------------


@dataclass(frozen=True)
class CurveRequest:
    """One bound curve: variant x spectrum x SNR grid."""

    variant: BoundVariant
    spectrum: WeightSpectrum | InputOutputSpectrum
    snr_start: float
    snr_stop: float
    snr_step: float
    convention: SnrConvention = SnrConvention.EBN0_DB
    theta_policy: ThetaPolicy = ThetaPolicy.CLOSED_FORM
    d_star: int | None = None
    d_star_max: int | None = None
    base_provider: BaseBoundProvider | None = None

    def __post_init__(self):
        if not (math.isfinite(self.snr_start) and math.isfinite(self.snr_stop)):
            raise ValidationError(
                f"snr start and stop must be finite, got {self.snr_start!r}, {self.snr_stop!r}"
            )
        if not (math.isfinite(self.snr_step) and self.snr_step > 0.0):
            raise ValidationError(f"snr step must be > 0, got {self.snr_step!r}")
        if not self.snr_start <= self.snr_stop:
            raise ValidationError(
                f"snr start must not exceed stop, got {self.snr_start!r} > {self.snr_stop!r}"
            )
        # _snr_grid's point count exceeds the cap exactly when this fails
        if not (self.snr_stop - self.snr_start) / self.snr_step + 1e-9 < _MAX_GRID_POINTS:
            raise ValidationError(f"snr grid has more than {_MAX_GRID_POINTS:,} points")


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


def _snr_grid(start: float, stop: float, step: float) -> list[float]:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _marginal(spectrum) -> WeightSpectrum:
    if isinstance(spectrum, InputOutputSpectrum):
        return spectrum.weight_spectrum()
    return spectrum


def _evaluate_variant(request: CurveRequest, point: ChannelPoint) -> BoundResult:
    variant = request.variant
    radius = dict(d_star=request.d_star, d_star_max=request.d_star_max)
    if variant is BoundVariant.UNION:
        return union_bound(_marginal(request.spectrum), point)
    if variant is BoundVariant.TRUNCATED_UNION:
        return truncated_union_bound(_marginal(request.spectrum), point, **radius)
    if variant is BoundVariant.PAIRWISE_IMPROVED:
        return pairwise_error_bound(_marginal(request.spectrum), point, **radius)
    if variant is BoundVariant.TRIPLET_IMPROVED:
        return triplet_error_bound(
            _marginal(request.spectrum), point, theta_policy=request.theta_policy, **radius
        )
    if variant is BoundVariant.UNIFIED_WORD:
        return word_error_bound(
            _marginal(request.spectrum), point, theta_policy=request.theta_policy, **radius
        )
    if variant is BoundVariant.UNIFIED_BIT:
        if not isinstance(request.spectrum, InputOutputSpectrum):
            raise ValidationError(
                "the bit bound needs an input-output spectrum (IOWE); "
                "this source provides only codeword weights"
            )
        return bit_error_bound(
            request.spectrum, point, theta_policy=request.theta_policy, **radius
        )
    if variant is BoundVariant.GFBT_COMBINED:
        if request.base_provider is None:
            raise ValidationError("the gfbt variant needs a base bound table (--base-bound)")
        return gfbt_combine(request.base_provider, _marginal(request.spectrum), point, **radius)
    raise ValidationError(f"unknown variant {variant!r}")  # pragma: no cover


def compute_curve(request: CurveRequest) -> BoundCurve:
    spectrum = request.spectrum
    rate = spectrum.k / spectrum.n
    if request.convention is SnrConvention.EBN0_DB and spectrum.k == 0:
        raise ValidationError("Eb/N0 mapping is undefined for a rate-0 spectrum")
    rows = []
    for grid_value in _snr_grid(request.snr_start, request.snr_stop, request.snr_step):
        point = ChannelPoint.from_snr_db(grid_value, request.convention, rate=rate)
        result = _evaluate_variant(request, point)
        rows.append(
            CurveRow(grid_value, point.sigma, result.value, result.clamped, result.d_star_opt)
        )
    metadata = (
        ("tool", f"mlbounds {__version__}"),
        ("variant", request.variant.value),
        ("code", f"[{spectrum.n},{spectrum.k}]"),
        ("spectrum_kind", spectrum.kind.value),
        ("snr_convention", request.convention.value),
        ("theta_policy", request.theta_policy.value),
        ("d_star", "optimized" if request.d_star is None else str(request.d_star)),
    )
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
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
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
                rows.append(
                    CurveRow(
                        float(parts[0]),
                        float(parts[1]),
                        float(parts[2]),
                        float(parts[3]),
                        int(parts[4]),
                    )
                )
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
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


def _resolve_workers(args) -> int:
    if args.workers is not None:
        value = args.workers
    else:
        env = os.environ.get(WORKERS_ENV)
        if env is None:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    if value < 1:
        raise ValidationError(f"worker count must be >= 1, got {value}")
    return value


def _load_source(args):
    """Resolve the spectrum source flags common to bound/compare inputs."""
    if args.spectrum is not None:
        return load_spectrum(args.spectrum)
    if args.enumerate is not None:
        return enumerate_spectrum(load_generator(args.enumerate), max_k=args.max_k)
    n, k = args.ensemble
    return ensemble_average(n, k)


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--spectrum", metavar="FILE", help="spectrum file (weight or iowe)")
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
    parser.add_argument(
        "--max-k", type=int, default=28, help="enumeration guard on 2^k sweeps"
    )


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key=value defaults file")
    parser.add_argument("-o", "--output", metavar="FILE", help="output path (default stdout)")


# --- subcommands --------------------------------------------------------------


def cmd_spectrum(args) -> int:
    if args.macwilliams is not None:
        primal = load_spectrum(args.macwilliams)
        if not isinstance(primal, WeightSpectrum):
            raise ValidationError("macwilliams transform expects a weight spectrum file")
        result = macwilliams_transform(primal)
    elif args.enumerate is not None:
        result = enumerate_spectrum(load_generator(args.enumerate), max_k=args.max_k)
    else:
        n, k = args.ensemble
        result = ensemble_average(n, k)
    _emit(args, format_spectrum(result))
    return EXIT_OK


def cmd_bound(args) -> int:
    spectrum = _load_source(args)
    provider = FileBoundProvider(args.base_bound) if args.base_bound is not None else None
    request = CurveRequest(
        variant=BoundVariant(args.variant),
        spectrum=spectrum,
        snr_start=args.snr_start,
        snr_stop=args.snr_stop,
        snr_step=args.snr_step,
        convention=SnrConvention(args.snr_convention),
        theta_policy=ThetaPolicy(args.theta_policy),
        d_star=args.dstar,
        d_star_max=args.dstar_max,
        base_provider=provider,
    )
    _emit(args, _format_curve(compute_curve(request)))
    return EXIT_OK


def cmd_simulate(args) -> int:
    code = load_generator(args.code)
    workers = _resolve_workers(args)
    if args.sigma is not None:
        sigmas = [float(s) for s in args.sigma]
        grid_desc = [("sigma", s) for s in sigmas]
    else:
        convention = SnrConvention(args.snr_convention)
        rate = code.k / code.n
        grid_desc = []
        sigmas = []
        for x in args.snr:
            point = ChannelPoint.from_snr_db(float(x), convention, rate=rate)
            sigmas.append(point.sigma)
            grid_desc.append((convention.value, float(x)))
    d_star = args.dstar if args.dstar is not None else code.n
    reports = []
    for sigma in sigmas:
        cfg = SimConfig(
            code=code,
            sigma=sigma,
            d_star=d_star,
            trials=args.trials,
            seed=args.seed,
            max_k_for_ml=args.max_k_for_ml,
            work_limit=args.work_limit,
        )
        reports.append(simulate(cfg, workers=workers))
    if args.format == "json":
        payload = [json.loads(r.to_json()) for r in reports]
        _emit(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        blocks = [
            f"# grid point {kind}={value!r}\n{report.to_text()}"
            for (kind, value), report in zip(grid_desc, reports)
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
    finite numbers for snr_db, sigma and the rates, [lo, hi] pairs for the
    intervals, and the bit rate and interval present together or not at all."""
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
        for field in ("snr_db", "sigma", "word_error_rate", "bit_error_rate"):
            if field in point and not _is_real(point[field]):
                raise ValidationError(
                    f"{path}: {field} must be a finite number, got {point[field]!r}"
                )
        for field in ("word_error_ci", "bit_error_ci"):
            ci = point.get(field)
            if field in point and not (
                isinstance(ci, list) and len(ci) == 2 and all(map(_is_real, ci))
            ):
                raise ValidationError(
                    f"{path}: {field} must be a [lo, hi] pair of finite numbers, got {ci!r}"
                )
    return payload


def cmd_compare(args) -> int:
    curves = [_read_curve(path) for path in args.curve]
    labels = _unique_labels(args.curve)
    reference = curves[0]
    for path, curve in zip(args.curve[1:], curves[1:]):
        same = len(curve.rows) == len(reference.rows) and all(
            a.snr_db == b.snr_db and a.sigma == b.sigma
            for a, b in zip(curve.rows, reference.rows)
        )
        if not same:
            raise ValidationError(
                f"{path}: grid misaligned with {args.curve[0]} "
                "(snr_db/sigma sequences must match exactly)"
            )

    sim_labels = _unique_labels(args.sim) if args.sim else []
    sim_columns: list[dict[int, dict]] = []
    for path in args.sim or []:
        by_row: dict[int, dict] = {}
        for point in _load_sim_points(path):
            # sigma is the channel parameter proper; the report's snr_db is an
            # Eb/N0 annotation that need not match non-Eb/N0 curve grids.
            matches = [
                i
                for i, row in enumerate(reference.rows)
                if math.isclose(row.sigma, point["sigma"], rel_tol=1e-9, abs_tol=0.0)
            ]
            if not matches:
                raise ValidationError(
                    f"{path}: simulation point sigma={point['sigma']!r} "
                    "does not lie on the curve grid"
                )
            by_row[matches[0]] = point
        sim_columns.append(by_row)

    # a bit-level curve bounds the bit-error rate, everything else the
    # word-error rate; curves without variant metadata count as word-level
    levels = [
        "bit" if dict(curve.metadata).get("variant") == BoundVariant.UNIFIED_BIT.value
        else "word"
        for curve in curves
    ]

    violations = []
    if args.assert_dominance:
        for i, row in enumerate(reference.rows):
            values = [curve.rows[i].raw_value for curve in curves]
            for left, right, l_label, r_label in zip(
                values, values[1:], labels, labels[1:]
            ):
                if right > left:
                    violations.append(
                        f"snr_db={row.snr_db!r}: {r_label}={right!r} exceeds {l_label}={left!r}"
                    )
            tightest = {}
            for level, value in zip(levels, values):
                tightest[level] = min(value, tightest.get(level, math.inf))
            for label, column in zip(sim_labels, sim_columns):
                point = column.get(i)
                if point is None:
                    continue
                checks = []
                if "word" in tightest:
                    checks.append(("word", point["word_error_rate"], point["word_error_ci"][0]))
                if "bit" in tightest and "bit_error_ci" in point:
                    checks.append(("bit", point["bit_error_rate"], point["bit_error_ci"][0]))
                for level, rate, ci_lo in checks:
                    # flag only when even the interval's low end clears the
                    # bound; a tight bound plus sampling noise is not a bug
                    if ci_lo > tightest[level]:
                        violations.append(
                            f"snr_db={row.snr_db!r}: simulated {level}-error rate "
                            f"{rate!r} ({label}) exceeds the tightest {level} bound "
                            f"{tightest[level]!r} beyond its confidence interval"
                        )

    lines = [f"# tool=mlbounds {__version__}"]
    for label, curve in zip(labels, curves):
        lines += [f"# {label}.{key}={value}" for key, value in curve.metadata]
    header = ["snr_db", "sigma"]
    for label in labels:
        header += [f"{label}_raw", f"{label}_clamped"]
    for label in sim_labels:
        header += [f"{label}_wer", f"{label}_wer_lo", f"{label}_wer_hi"]
    lines.append(",".join(header))
    for i, row in enumerate(reference.rows):
        cells = [repr(row.snr_db), repr(row.sigma)]
        for curve in curves:
            cells += [repr(curve.rows[i].raw_value), repr(curve.rows[i].clamped_value)]
        for column in sim_columns:
            point = column.get(i)
            if point is None:
                cells += ["", "", ""]
            else:
                lo, hi = point["word_error_ci"]
                cells += [repr(point["word_error_rate"]), repr(lo), repr(hi)]
        lines.append(",".join(cells))
    _emit(args, "".join(line + "\n" for line in lines))

    if violations:
        for line in violations:
            print(f"dominance violation: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# --- parser / config ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlbounds",
        description="ML decoding error bounds and Monte Carlo validation "
        "for binary linear block codes over BPSK-AWGN",
    )
    parser.add_argument("--version", action="version", version=f"mlbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="compute or transform weight spectra")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--ensemble", nargs=2, type=int, metavar=("N", "K"))
    group.add_argument("--enumerate", metavar="GENFILE")
    group.add_argument("--macwilliams", metavar="SPECFILE")
    sp.add_argument("--max-k", type=int, default=28)
    _add_common_flags(sp)
    sp.set_defaults(func=cmd_spectrum)

    bp = sub.add_parser("bound", help="evaluate a bound curve over an SNR grid")
    _add_source_flags(bp)
    bp.add_argument(
        "--variant",
        choices=[v.value for v in BoundVariant],
        default=BoundVariant.UNIFIED_WORD.value,
    )
    bp.add_argument("--base-bound", metavar="FILE", help="base bound table for gfbt")
    bp.add_argument("--snr-start", type=float, default=0.0)
    bp.add_argument("--snr-stop", type=float, default=10.0)
    bp.add_argument("--snr-step", type=float, default=0.25)
    bp.add_argument(
        "--snr-convention",
        choices=[c.value for c in SnrConvention],
        default=SnrConvention.EBN0_DB.value,
    )
    bp.add_argument(
        "--theta-policy",
        choices=[p.value for p in ThetaPolicy],
        default=ThetaPolicy.CLOSED_FORM.value,
    )
    bp.add_argument("--dstar", type=int, default=None, help="fix d* instead of optimizing")
    bp.add_argument("--dstar-max", type=int, default=None, help="cap the d* probe range")
    _add_common_flags(bp)
    bp.set_defaults(func=cmd_bound)

    mp = sub.add_parser("simulate", help="Monte Carlo ML decoding runs")
    mp.add_argument("--code", required=True, metavar="GENFILE")
    grid = mp.add_mutually_exclusive_group(required=True)
    grid.add_argument("--snr", nargs="+", type=float, help="SNR grid points in dB")
    grid.add_argument("--sigma", nargs="+", type=float, help="noise sigmas directly")
    mp.add_argument(
        "--snr-convention",
        choices=[SnrConvention.EBN0_DB.value, SnrConvention.ESN0_DB.value],
        default=SnrConvention.EBN0_DB.value,
    )
    mp.add_argument("--dstar", type=int, default=None, help="list radius (default n)")
    mp.add_argument("--trials", type=int, default=10000)
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--max-k-for-ml", type=int, default=26)
    mp.add_argument("--work-limit", type=int, default=400_000_000_000)
    mp.add_argument("--format", choices=["json", "text"], default="json")
    mp.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"worker count (default: ${WORKERS_ENV} or 1)",
    )
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


# Flags that argparse treats as mutually exclusive; a user flag from one of
# these sets suppresses config values for every member of the same set.
_EXCLUSIVE_SETS = (
    frozenset({"--spectrum", "--enumerate", "--ensemble", "--macwilliams"}),
    frozenset({"--snr", "--sigma"}),
)


def _suppressed_flags(user_flags: set[str]) -> set[str]:
    suppressed = set(user_flags)
    for group in _EXCLUSIVE_SETS:
        if user_flags & group:
            suppressed |= group
    return suppressed


def _load_config_tokens(path, user_flags: set[str]) -> list[str]:
    suppressed = _suppressed_flags(user_flags)
    tokens = []
    for lineno, line in _content_lines(path):
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValidationError(f"{path}:{lineno}: empty key")
        flag = "--" + key.replace("_", "-")
        if flag in suppressed:
            continue
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(flag)
        else:
            tokens.append(flag)
            tokens.extend(shlex.split(value))
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file values in ahead of the user's flags.  A key is
    skipped when the user already passed its flag (or a flag argparse holds
    mutually exclusive with it), so explicit flags always win."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None or not argv:
        return argv
    user_flags = {token.split("=", 1)[0] for token in argv[1:] if token.startswith("--")}
    return [argv[0], *_load_config_tokens(path, user_flags), *argv[1:]]


def main(argv=None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_inject_config(raw_argv))
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, --version, usage errors
        return int(exc.code or 0)
    except ResourceLimitError as exc:
        print(f"mlbounds: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MlboundsError, OSError) as exc:
        print(f"mlbounds: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
