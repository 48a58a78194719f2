"""Byte identity of bound curves and simulation reports against recorded
digests.

Each bound golden is the sha256 of the CSV that ``mlbounds bound`` writes for
one source x variant x theta-policy on the default grid (Eb/N0 0-10 dB, step
0.25).  Every source runs every variant it supports; the variants that read
the theta-policy (triplet, word, bit) run under both policies.  gfbt replays
a base-bound table this module writes itself, so its digest depends on
nothing outside the repository.  The [500,250] ensemble runs only the
variants whose radius scan reads binomial prefix masses (plus the
truncated union it must tie with), and adds one word curve at a fixed d*
and one under a d* cap, whose first prefix request lands deep in the table.

Each result golden is the sha256 of the repr of every BoundResult (value,
d*, tail and per_d_terms) of one variant on the default grid, called
directly: truncated union, word and pairwise on the [500,250] ensemble,
triplet on its counts rounded up to integers, and bit on the enumerated
[31,21] IOWE, each unrestricted, at a fixed d* and under a d* cap.  The CSV
pins only value and d*; these also pin the terms and tail that the radius
scan keeps for its winner.

Each spectrum golden is the sha256 of what ``mlbounds spectrum`` writes for
one source: the enumerated IOWE of every code under ``data/codes``, the
MacWilliams transform of every dual and simplex spectrum under
``perfbench/data``, and three ensemble averages, the last two truncated
where the average overflows ([4096,2048] prints 160 ``d 0.0`` records,
weights whose average underflows).

Each simulate golden is the sha256 of the JSON that ``mlbounds simulate``
writes for one code at a fixed seed, list radius and SNR pair, run with 1 and
with 3 workers; both worker counts share one digest.

A change that moves a digest changes an output byte.  Re-record only for a
deliberate output change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from mlbounds.bounds import (
    BoundVariant,
    FileBoundProvider,
    ThetaPolicy,
    bit_error_bound,
    pairwise_error_bound,
    triplet_error_bound,
    truncated_union_bound,
    word_error_bound,
)
from mlbounds.cli import _format_curve, _snr_grid, compute_curve, main
from mlbounds.numerics import ChannelPoint
from mlbounds.spectrum import (
    SpectrumKind,
    WeightSpectrum,
    ensemble_average,
    enumerate_spectrum,
    format_spectrum,
    load_generator,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "bound_curves.sha256"
RESULT_GOLDEN = ROOT / "tests" / "golden" / "bound_results.sha256"
SIM_GOLDEN = ROOT / "tests" / "golden" / "simulate.sha256"
SPECTRUM_GOLDEN = ROOT / "tests" / "golden" / "spectrum.sha256"
GRID = (0.0, 10.0, 0.25)

_IOWE_VARIANTS = tuple(BoundVariant)
_ENSEMBLE_VARIANTS = (
    BoundVariant.UNION,
    BoundVariant.TRUNCATED_UNION,
    BoundVariant.PAIRWISE_IMPROVED,
    BoundVariant.UNIFIED_WORD,
    BoundVariant.GFBT_COMBINED,
)
_THETA_VARIANTS = {
    BoundVariant.TRIPLET_IMPROVED,
    BoundVariant.UNIFIED_WORD,
    BoundVariant.UNIFIED_BIT,
}
SOURCES = {
    "hamming_7_4": _IOWE_VARIANTS,
    "bch_15_7": _IOWE_VARIANTS,
    "bch_31_21": _IOWE_VARIANTS,
    "ensemble_100_50": _ENSEMBLE_VARIANTS,
    "ensemble_500_250": (
        BoundVariant.TRUNCATED_UNION,
        BoundVariant.PAIRWISE_IMPROVED,
        BoundVariant.UNIFIED_WORD,
    ),
}
# (source, radius keyword, value): one word curve per radius restriction
RADIUS_CASES = (("ensemble_500_250", "d_star", 60), ("ensemble_500_250", "d_star_max", 100))


@lru_cache(maxsize=None)
def _source(name):
    if name.startswith("ensemble_"):
        return ensemble_average(*map(int, name.split("_")[1:]))
    return enumerate_spectrum(load_generator(ROOT / "data" / "codes" / f"{name}.gen"))


def _cases():
    for source, variants in SOURCES.items():
        for variant in variants:
            policies = ThetaPolicy if variant in _THETA_VARIANTS else [ThetaPolicy.CLOSED_FORM]
            for policy in policies:
                yield f"{source}.{variant.value}.{policy.value}", source, variant, policy, {}
    for source, key, value in RADIUS_CASES:
        word, policy = BoundVariant.UNIFIED_WORD, ThetaPolicy.CLOSED_FORM
        name = f"{source}.{word.value}.{policy.value}.{key}={value}"
        yield name, source, word, policy, {key: value}


def _write_base_table(path, n):
    """A synthetic base bound for every grid point and radius: increasing in
    d* and falling with SNR, so the region tail and the base trade off."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# snr_db d_star value\n")
        for snr in _snr_grid(*GRID):
            for d_star in range(n + 1):
                handle.write(f"{snr!r} {d_star} {d_star * 10.0 ** (-snr / 5.0)!r}\n")


def curve_digest(source, variant, policy, table_dir, radius=None) -> str:
    spectrum = _source(source)
    options = dict(radius or {})
    if variant in _THETA_VARIANTS:
        options["theta_policy"] = policy
    if variant is BoundVariant.GFBT_COMBINED:
        table = Path(table_dir) / f"{source}.base"
        if not table.exists():
            _write_base_table(table, spectrum.n)
        options["provider"] = FileBoundProvider(table)
    curve = compute_curve(variant, spectrum, *GRID, **options)
    return hashlib.sha256(_format_curve(curve).encode("utf-8")).hexdigest()


def _load_goldens(path=GOLDEN) -> dict[str, str]:
    goldens = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        goldens[name] = digest
    return goldens


CASES = list(_cases())

# golden name -> (bound, its source); each runs unrestricted and under each
# radius restriction of its code
RESULT_BOUNDS = {
    "ensemble_500_250.truncated-union": (truncated_union_bound, "ensemble_500_250"),
    "ensemble_500_250.word": (word_error_bound, "ensemble_500_250"),
    "ensemble_500_250.pairwise": (pairwise_error_bound, "ensemble_500_250"),
    "ensemble_500_250.ceil.triplet": (triplet_error_bound, "ensemble_500_250.ceil"),
    "bch_31_21.bit": (bit_error_bound, "bch_31_21"),
}
RESULT_RADII = {
    "ensemble_500_250": ({}, {"d_star": 60}, {"d_star_max": 100}),
    "bch_31_21": ({}, {"d_star": 5}, {"d_star_max": 8}),
}
RESULT_CASES = {
    name + "".join(f".{key}={value}" for key, value in radius.items()): (bound, source, radius)
    for name, (bound, source) in RESULT_BOUNDS.items()
    for radius in RESULT_RADII[source.removesuffix(".ceil")]
}


@lru_cache(maxsize=None)
def _result_source(name):
    """A _source, or with '.ceil' its counts rounded up to integers."""
    if not name.endswith(".ceil"):
        return _source(name)
    spectrum = _source(name.removesuffix(".ceil"))
    return WeightSpectrum(
        spectrum.n, spectrum.k, np.ceil(spectrum.counts), SpectrumKind.TRUNCATED, spectrum.n
    )


def result_digest(name) -> str:
    bound, source, radius = RESULT_CASES[name]
    spectrum = _result_source(source)
    rate = spectrum.k / spectrum.n
    results = [
        bound(spectrum, ChannelPoint.from_snr_db(snr, rate=rate), **radius)
        for snr in _snr_grid(*GRID)
    ]
    return hashlib.sha256(repr(results).encode("utf-8")).hexdigest()


# code -> (seed, list radius d*); 2500 trials end in a partial noise block
SIM_CASES = {"hamming_7_4": (11, 2), "toy_10_5": (12, 3), "bch_15_7": (13, 4)}
SIM_WORKERS = (1, 3)


def simulate_digest(code, workers, out_dir) -> str:
    seed, d_star = SIM_CASES[code]
    out = Path(out_dir) / f"{code}.{workers}.json"
    rc = main([
        "simulate", "--code", str(ROOT / "data" / "codes" / f"{code}.gen"),
        "--snr", "1", "3", "--trials", "2500", "--seed", str(seed),
        "--dstar", str(d_star), "--workers", str(workers), "-o", str(out),
    ])
    assert rc == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


# golden name -> the spectrum command's source flags
SPECTRUM_CASES = {
    **{
        f"enumerate.{code}": ["--enumerate", str(ROOT / "data" / "codes" / f"{code}.gen")]
        for code in ("hamming_7_4", "toy_10_5", "bch_15_7", "bch_31_21", "bch_31_26")
    },
    **{
        f"macwilliams.{name}": ["--macwilliams", str(ROOT / "perfbench" / "data" / f"{name}.spec")]
        for name in ("bch_15_7.dual", "bch_31_21.dual", "simplex_15_4", "simplex_127_7")
    },
    **{
        f"ensemble.{n}_{k}": ["--ensemble", str(n), str(k)]
        for n, k in ((100, 50), (2200, 1100), (4096, 2048))
    },
}


def spectrum_digest(name, out_dir) -> str:
    out = Path(out_dir) / f"{name}.spec"
    assert main(["spectrum", *SPECTRUM_CASES[name], "-o", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_goldens_cover_every_case():
    assert sorted(_load_goldens()) == sorted(name for name, *_ in CASES)
    assert sorted(_load_goldens(RESULT_GOLDEN)) == sorted(RESULT_CASES)
    assert sorted(_load_goldens(SIM_GOLDEN)) == sorted(SIM_CASES)
    assert sorted(_load_goldens(SPECTRUM_GOLDEN)) == sorted(SPECTRUM_CASES)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("base_tables")


@pytest.mark.parametrize("name,source,variant,policy,radius", CASES, ids=[c[0] for c in CASES])
def test_curve_bytes_match_golden(name, source, variant, policy, radius, table_dir):
    assert curve_digest(source, variant, policy, table_dir, radius) == _load_goldens()[name]


@pytest.mark.parametrize("name", sorted(RESULT_CASES))
def test_bound_results_match_golden(name):
    assert result_digest(name) == _load_goldens(RESULT_GOLDEN)[name]


@pytest.mark.parametrize("workers", SIM_WORKERS)
@pytest.mark.parametrize("code", sorted(SIM_CASES))
def test_simulate_bytes_match_golden(code, workers, tmp_path):
    assert simulate_digest(code, workers, tmp_path) == _load_goldens(SIM_GOLDEN)[code]


@pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
def test_spectrum_bytes_match_golden(name, tmp_path):
    assert spectrum_digest(name, tmp_path) == _load_goldens(SPECTRUM_GOLDEN)[name]


def test_no_command_needs_scipy(tmp_path):
    """In a fresh interpreter where scipy cannot be imported, spectrum and
    simulate commands and every bound curve (exact and ensemble sources,
    gfbt and the tight theta-policy included) run, and each curve matches
    its golden."""
    primal = tmp_path / "hamming.spec"
    primal.write_text(
        format_spectrum(WeightSpectrum(7, 4, [1, 0, 0, 7, 7, 0, 0, 1], SpectrumKind.EXACT))
    )
    gen = str(ROOT / "data" / "codes" / "hamming_7_4.gen")
    commands = [
        ["spectrum", "--enumerate", gen, "-o", os.devnull],
        ["spectrum", "--macwilliams", str(primal), "-o", os.devnull],
        ["simulate", "--code", gen, "--snr", "2", "--trials", "300", "-o", os.devnull],
    ]
    curves = {}  # golden name -> CSV path
    for source, args, variants in (
        ("hamming_7_4", ["--enumerate", gen], _IOWE_VARIANTS),
        ("ensemble_100_50", ["--ensemble", "100", "50"], _ENSEMBLE_VARIANTS),
    ):
        for variant in variants:
            policies = ThetaPolicy if variant in _THETA_VARIANTS else [ThetaPolicy.CLOSED_FORM]
            for policy in policies:
                name = f"{source}.{variant.value}.{policy.value}"
                curves[name] = tmp_path / f"{name}.csv"
                argv = ["bound", *args, "--variant", variant.value, "-o", str(curves[name])]
                if policy is ThetaPolicy.TIGHT:
                    argv += ["--theta-policy", policy.value]
                if variant is BoundVariant.GFBT_COMBINED:
                    table = tmp_path / f"{source}.base"
                    _write_base_table(table, _source(source).n)
                    argv += ["--base-bound", str(table)]
                commands.append(argv)
    script = f"""
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from mlbounds import cli

for argv in {commands!r}:
    assert cli.main(argv) == 0, argv
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    goldens = _load_goldens()
    for name, path in curves.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == goldens[name], name


def test_cli_import_loads_neither_simulator_scipy_nor_numpy_random(tmp_path):
    """A fresh ``import mlbounds.cli`` leaves the simulator, scipy and
    numpy.random unloaded; a first simulate with 3 workers then loads the
    simulator, and numpy.random from its worker threads, and still matches
    its golden."""
    code = "bch_15_7"
    seed, d_star = SIM_CASES[code]
    out = tmp_path / "sim.json"
    argv = [
        "simulate", "--code", str(ROOT / "data" / "codes" / f"{code}.gen"),
        "--snr", "1", "3", "--trials", "2500", "--seed", str(seed),
        "--dstar", str(d_star), "--workers", "3", "-o", str(out),
    ]
    script = f"""
import sys
from mlbounds import cli

print(sorted(name for name in ("mlbounds.simulator", "scipy", "numpy.random") if name in sys.modules))
assert cli.main({argv!r}) == 0
assert "mlbounds.simulator" in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _load_goldens(SIM_GOLDEN)[code]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        lines = [f"{curve_digest(s, v, p, scratch, r)}  {name}" for name, s, v, p, r in CASES]
        result_lines = [f"{result_digest(name)}  {name}" for name in RESULT_CASES]
        sim_lines = []
        for code in SIM_CASES:
            digests = {simulate_digest(code, w, scratch) for w in SIM_WORKERS}
            if len(digests) != 1:
                sys.exit(f"{code}: worker counts disagree, nothing written")
            sim_lines.append(f"{digests.pop()}  {code}")
        spectrum_lines = [f"{spectrum_digest(name, scratch)}  {name}" for name in SPECTRUM_CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, rows in (
        (GOLDEN, lines),
        (RESULT_GOLDEN, result_lines),
        (SIM_GOLDEN, sim_lines),
        (SPECTRUM_GOLDEN, spectrum_lines),
    ):
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        print(f"wrote {len(rows)} digests to {path}", file=sys.stderr)
