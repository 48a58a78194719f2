"""Workload definitions: which mlbounds commands one pass runs.

Each workload has a full form (what the benchmark measures) and a smoke form
(the same command shapes on small inputs, seconds long, for the benchmark's
own tests).  Paths are relative to the repository root, which is the working
directory of every command.  ``{seed}`` in an argv is replaced by the
workload seed; only ``simulate`` consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass

DATA = "perfbench/data"
CODES = "data/codes"

# The seed whose simulate outputs are recorded under perfbench/reference.
REFERENCE_SEED = 1
# simulate command tags: Eb/N0 2 dB and 5 dB
SIM_TAGS = ("low_snr", "high_snr")


@dataclass(frozen=True)
class Command:
    tag: str  # unique within a workload; names the output and reference files
    argv: tuple[str, ...]  # mlbounds CLI argv without -o
    kind: str  # "curve" (CSV), "spectrum" (text) or "sim" (JSON)

    @property
    def warm_code(self) -> str | None:
        """Generator file whose simulator layout the child builds before
        cli.main; None for commands that do not simulate."""
        return self.argv[self.argv.index("--code") + 1] if self.kind == "sim" else None

    @property
    def snr_db(self) -> float:
        return float(self.argv[self.argv.index("--snr") + 1])

    @property
    def trials(self) -> int:
        return int(self.argv[self.argv.index("--trials") + 1])

    def output_name(self, seed: int) -> str:
        if self.kind == "sim":
            return f"{self.tag}.seed{seed}.json"
        return f"{self.tag}.csv" if self.kind == "curve" else f"{self.tag}.spec"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    dominance: tuple[str, ...] = ()  # curve tags, loosest first
    marginal: tuple[str, str] | None = None  # (macwilliams tag, enumerate tag)
    sim_spectrum: str | None = None  # exact IOWE of the simulated code


def _curve(tag: str, *argv: str) -> Command:
    return Command(tag, ("bound", *argv), "curve")


def _spectrum(tag: str, *argv: str) -> Command:
    return Command(tag, ("spectrum", *argv), "spectrum")


def _sim(tag: str, gen: str, snr: str, trials: int) -> Command:
    return Command(
        tag,
        ("simulate", "--code", gen, "--snr", snr, "--trials", str(trials), "--seed", "{seed}"),
        "sim",
    )


def _ensemble_curves(n: int, k: int, grid: tuple[str, ...]) -> Workload:
    return Workload(
        "ensemble-curves",
        tuple(
            _curve(variant, "--ensemble", str(n), str(k), "--variant", variant, *grid)
            for variant in ("union", "truncated-union", "word")
        ),
        dominance=("union", "truncated-union", "word"),
    )


def _tight_curves(n: int, k: int, iowe: str, grid: tuple[str, ...]) -> Workload:
    tight = ("--theta-policy", "tight", *grid)
    return Workload(
        "tight-curves",
        (
            _curve("word-tight", "--ensemble", str(n), str(k), "--variant", "word", *tight),
            _curve("bit-tight", "--spectrum", iowe, "--variant", "bit", *tight),
        ),
    )


def _spectra(code: str, simplex: str) -> Workload:
    return Workload(
        "spectrum",
        (
            _spectrum("enumerate", "--enumerate", f"{CODES}/{code}.gen"),
            _spectrum("macwilliams-dual", "--macwilliams", f"{DATA}/{code}.dual.spec"),
            _spectrum("macwilliams-simplex", "--macwilliams", f"{DATA}/{simplex}.spec"),
        ),
        marginal=("macwilliams-dual", "enumerate"),
    )


def _simulations(code: str, low_trials: int, high_trials: int) -> Workload:
    gen = f"{CODES}/{code}.gen"
    return Workload(
        "simulate",
        (_sim(SIM_TAGS[0], gen, "2", low_trials), _sim(SIM_TAGS[1], gen, "5", high_trials)),
        sim_spectrum=f"{DATA}/{code}.iowe",
    )


# Default grid: Eb/N0 0..10 dB in 0.25 dB steps, 41 points.
_SMOKE_GRID = ("--snr-step", "2.5")  # 0, 2.5, ..., 10: 5 points

FULL = {
    w.name: w
    for w in (
        _ensemble_curves(500, 250, ()),
        _tight_curves(100, 50, f"{DATA}/bch_31_21.iowe", ()),
        _spectra("bch_31_21", "simplex_127_7"),
        _simulations("bch_31_21", 20480, 184320),
    )
}

SMOKE = {
    w.name: w
    for w in (
        _ensemble_curves(60, 30, _SMOKE_GRID),
        _tight_curves(30, 15, f"{DATA}/bch_15_7.iowe", _SMOKE_GRID),
        _spectra("bch_15_7", "simplex_15_4"),
        _simulations("bch_15_7", 2048, 2048),
    )
}
