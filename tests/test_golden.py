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

import pytest

from mlbounds.bounds import BoundVariant, FileBoundProvider, ThetaPolicy
from mlbounds.cli import CurveRequest, _format_curve, _snr_grid, compute_curve, main
from mlbounds.spectrum import (
    SpectrumKind,
    WeightSpectrum,
    ensemble_average,
    enumerate_spectrum,
    load_generator,
    store_spectrum,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "bound_curves.sha256"
SIM_GOLDEN = ROOT / "tests" / "golden" / "simulate.sha256"
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
    provider = None
    if variant is BoundVariant.GFBT_COMBINED:
        table = Path(table_dir) / f"{source}.base"
        if not table.exists():
            _write_base_table(table, spectrum.n)
        provider = FileBoundProvider(table)
    curve = compute_curve(
        CurveRequest(
            variant, spectrum, *GRID, theta_policy=policy, provider=provider, **(radius or {})
        )
    )
    return hashlib.sha256(_format_curve(curve).encode("utf-8")).hexdigest()


def _load_goldens(path=GOLDEN) -> dict[str, str]:
    goldens = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        goldens[name] = digest
    return goldens


CASES = list(_cases())

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


def test_goldens_cover_every_case():
    assert sorted(_load_goldens()) == sorted(name for name, *_ in CASES)
    assert sorted(_load_goldens(SIM_GOLDEN)) == sorted(SIM_CASES)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("base_tables")


@pytest.mark.parametrize("name,source,variant,policy,radius", CASES, ids=[c[0] for c in CASES])
def test_curve_bytes_match_golden(name, source, variant, policy, radius, table_dir):
    assert curve_digest(source, variant, policy, table_dir, radius) == _load_goldens()[name]


@pytest.mark.parametrize("workers", SIM_WORKERS)
@pytest.mark.parametrize("code", sorted(SIM_CASES))
def test_simulate_bytes_match_golden(code, workers, tmp_path):
    assert simulate_digest(code, workers, tmp_path) == _load_goldens(SIM_GOLDEN)[code]


def test_scipy_loads_only_for_bounds(tmp_path):
    """In a fresh interpreter, spectrum and simulate commands and every
    closed-form bound (exact and ensemble sources, gfbt included) leave
    scipy unloaded, and each bound curve matches its golden.  A tight curve
    after them loads scipy for Owen's T and still matches its golden."""
    primal = tmp_path / "hamming.spec"
    store_spectrum(WeightSpectrum(7, 4, {0: 1, 3: 7, 4: 7, 7: 1}, SpectrumKind.EXACT), primal)
    gen = str(ROOT / "data" / "codes" / "hamming_7_4.gen")
    commands = [
        ["spectrum", "--enumerate", gen],
        ["spectrum", "--macwilliams", str(primal)],
        ["simulate", "--code", gen, "--snr", "2", "--trials", "300"],
    ]
    curves = {}  # golden name -> CSV path
    for source, args, variants in (
        ("hamming_7_4", ["--enumerate", gen], _IOWE_VARIANTS),
        ("ensemble_100_50", ["--ensemble", "100", "50"], _ENSEMBLE_VARIANTS),
    ):
        for variant in variants:
            name = f"{source}.{variant.value}.{ThetaPolicy.CLOSED_FORM.value}"
            curves[name] = tmp_path / f"{name}.csv"
            argv = ["bound", *args, "--variant", variant.value, "-o", str(curves[name])]
            if variant is BoundVariant.GFBT_COMBINED:
                table = tmp_path / f"{source}.base"
                _write_base_table(table, _source(source).n)
                argv += ["--base-bound", str(table)]
            commands.append(argv)
    tight = "hamming_7_4.word.tight"
    curves[tight] = tmp_path / "word.tight.csv"
    bound = ["bound", "--enumerate", gen, "--variant", "word", "--theta-policy", "tight"]
    script = f"""
import sys
from mlbounds import cli

for argv in {commands!r}:
    argv = argv if "-o" in argv else argv + ["-o", {os.devnull!r}]
    assert cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
assert cli.main({bound!r} + ["-o", {str(curves[tight])!r}]) == 0
print("scipy" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "True\n"
    goldens = _load_goldens()
    for name, path in curves.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == goldens[name], name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        lines = [f"{curve_digest(s, v, p, scratch, r)}  {name}" for name, s, v, p, r in CASES]
        sim_lines = []
        for code in SIM_CASES:
            digests = {simulate_digest(code, w, scratch) for w in SIM_WORKERS}
            if len(digests) != 1:
                sys.exit(f"{code}: worker counts disagree, nothing written")
            sim_lines.append(f"{digests.pop()}  {code}")
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, rows in ((GOLDEN, lines), (SIM_GOLDEN, sim_lines)):
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        print(f"wrote {len(rows)} digests to {path}", file=sys.stderr)
