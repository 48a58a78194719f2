"""Command line behavior: exit codes, output determinism, argument files,
and the compare subcommand's alignment and dominance rules."""

import ast
import functools
import json
import math
import tracemalloc

import pytest

from mlbounds.bounds import (
    BoundVariant,
    FileBoundProvider,
    ThetaPolicy,
    gfbt_combine,
    truncated_union_bound,
)
from mlbounds import bounds, cli
from mlbounds.cli import EXIT_OK, EXIT_RESOURCE, EXIT_VALIDATION, main
from mlbounds.errors import ValidationError
from mlbounds.numerics import ChannelPoint, SnrConvention
from mlbounds.simulator import SimReport
from mlbounds.spectrum import (
    InputOutputSpectrum,
    LinearCode,
    SpectrumKind,
    WeightSpectrum,
    enumerate_spectrum,
    format_spectrum,
    load_generator,
    load_spectrum,
)
from oracles import CODES, format_generator, repetition_code, spectrum_from, union_base

HAMMING_GEN = str(CODES / "hamming_7_4.gen")
PERFBENCH_CHILD = CODES.parent.parent / "perfbench" / "child.py"
TOY_GEN = str(CODES / "toy_10_5.gen")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


class TestSpectrumCommand:
    def test_enumerate_emits_loadable_iowe(self, capsys, tmp_path):
        out_path = tmp_path / "h.spec"
        code, out, err = run(
            capsys, "spectrum", "--enumerate", HAMMING_GEN, "-o", str(out_path)
        )
        assert code == EXIT_OK and err == ""
        spec = load_spectrum(out_path)
        assert isinstance(spec, InputOutputSpectrum)
        marginal = spec.weight_spectrum()
        assert marginal.counts[3] == 7.0
        assert marginal.counts[4] == 7.0
        assert marginal.counts[7] == 1.0

    def test_ensemble_to_stdout_round_trips(self, capsys, tmp_path):
        code, out, err = run(capsys, "spectrum", "--ensemble", "16", "8")
        assert code == EXIT_OK
        echo = tmp_path / "e.spec"
        echo.write_text(out)
        spec = load_spectrum(echo)
        assert isinstance(spec, WeightSpectrum)
        assert spec.n == 16 and spec.k == 8
        assert spec.kind is SpectrumKind.ENSEMBLE_AVERAGE

    def test_macwilliams_of_hamming_gives_simplex_dual(self, capsys, tmp_path):
        primal = tmp_path / "hamming.spec"
        primal.write_text(
            format_spectrum(WeightSpectrum(7, 4, [1, 0, 0, 7, 7, 0, 0, 1], SpectrumKind.EXACT))
        )
        out_path = tmp_path / "dual.spec"
        code, out, err = run(
            capsys, "spectrum", "--macwilliams", str(primal), "-o", str(out_path)
        )
        assert code == EXIT_OK
        dual = load_spectrum(out_path)
        assert (dual.n, dual.k) == (7, 3)
        assert dual.counts[4] == 7.0

    def test_macwilliams_of_an_iowe_file_exits_2(self, capsys, tmp_path):
        iowe = tmp_path / "hamming.iowe"
        assert main(["spectrum", "--enumerate", HAMMING_GEN, "-o", str(iowe)]) == EXIT_OK
        code, out, err = run(capsys, "spectrum", "--macwilliams", str(iowe))
        assert code == EXIT_VALIDATION and out == ""
        assert f"{iowe}: macwilliams needs a weight spectrum file" in err

    def test_ensemble_with_k_above_n_exits_2(self, capsys):
        code, out, err = run(capsys, "spectrum", "--ensemble", "10", "11")
        assert code == EXIT_VALIDATION and out == ""
        assert "need 1 <= k <= n, got k=11, n=10" in err

    def test_missing_input_file_is_a_validation_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "spectrum", "--enumerate", str(tmp_path / "absent.gen")
        )
        assert code == EXIT_VALIDATION
        assert "error" in err

    def test_enumeration_guard_maps_to_resource_exit(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--enumerate", HAMMING_GEN, "--max-k", "3"
        )
        assert code == EXIT_RESOURCE
        assert "resource guard" in err

    def test_negative_max_k_is_a_validation_error(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--enumerate", HAMMING_GEN, "--max-k", "-1"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "max_k must be >= 0" in err

    @pytest.mark.parametrize("command", ["spectrum", "bound"])
    def test_long_ensemble_exits_three_before_allocating(self, capsys, command):
        code, out, err = run(capsys, command, "--ensemble", "100000000", "50000000")
        assert code == EXIT_RESOURCE and out == ""
        assert "resource guard" in err and "[100000000,50000000] ensemble" in err

    def test_long_truncated_file_exits_three_before_the_table(self, capsys, tmp_path):
        # five counts pass the count-array guard, but a binomial table of
        # length 10^8 does not: refused before its log-factorials are built
        path = tmp_path / "long.spec"
        path.write_text(
            "weight n=100000000 k=50000000 kind=truncated dmax=4\n0 1.0\n3 2.0\n4 1.0\n"
        )
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "bound", "--spectrum", str(path), "--variant", "word")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_RESOURCE and out == ""
        assert "resource guard" in err and "binomial table of length 100,000,000" in err
        assert peak < 2**20

    def test_long_ensemble_word_curve_still_runs(self, capsys):
        code, out, err = run(
            capsys, "bound", "--ensemble", "8192", "4096", "--variant", "word",
            "--snr-start", "2", "--snr-stop", "2",
        )
        assert code == EXIT_OK and err == ""
        meta, _, (row,) = parse_csv(out)
        assert meta["spectrum_kind"] == "truncated" and 0.0 < float(row["raw_value"]) < 1.0


class TestBoundCommand:
    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        argv = [
            "bound", "--enumerate", HAMMING_GEN, "--variant", "word",
            "--snr-start", "0", "--snr-stop", "4", "--snr-step", "0.5",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(argv + ["-o", str(first)]) == EXIT_OK
        assert main(argv + ["-o", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_csv_shape_and_grid_length(self, capsys):
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--variant", "union",
            "--snr-start", "1", "--snr-stop", "3", "--snr-step", "0.5",
        )
        assert code == EXIT_OK
        meta, header, rows = parse_csv(out)
        assert header == ["snr_db", "sigma", "raw_value", "clamped_value", "d_star_opt"]
        assert meta["variant"] == "union"
        assert meta["code"] == "[7,4]"
        assert len(rows) == 5
        assert [float(r["snr_db"]) for r in rows] == [1.0, 1.5, 2.0, 2.5, 3.0]
        for row in rows:
            assert float(row["clamped_value"]) <= 1.0
            assert float(row["raw_value"]) >= float(row["clamped_value"])

    def test_forced_full_radius_matches_union_exactly(self, capsys):
        shared = [
            "--enumerate", HAMMING_GEN,
            "--snr-start", "0", "--snr-stop", "6", "--snr-step", "1",
        ]
        code, out_u, _ = run(capsys, "bound", *shared, "--variant", "union")
        assert code == EXIT_OK
        code, out_t, _ = run(
            capsys, "bound", *shared, "--variant", "truncated-union", "--dstar", "7"
        )
        assert code == EXIT_OK
        _, _, rows_u = parse_csv(out_u)
        _, _, rows_t = parse_csv(out_t)
        for ru, rt in zip(rows_u, rows_t):
            # same strings, not just close floats
            assert ru["raw_value"] == rt["raw_value"]
            assert ru["sigma"] == rt["sigma"]

    def test_sigma_convention_echoes_grid_in_sigma_column(self, capsys):
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--variant", "union",
            "--snr-convention", "sigma",
            "--snr-start", "0.5", "--snr-stop", "1.0", "--snr-step", "0.25",
        )
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        assert [row["sigma"] for row in rows] == ["0.5", "0.75", "1.0"]

    def test_bit_variant_needs_iowe_source(self, capsys, tmp_path):
        weights_only = tmp_path / "w.spec"
        weights_only.write_text(
            format_spectrum(WeightSpectrum(7, 4, [1, 0, 0, 7, 7, 0, 0, 1], SpectrumKind.EXACT))
        )
        code, out, err = run(
            capsys, "bound", "--spectrum", str(weights_only), "--variant", "bit"
        )
        assert code == EXIT_VALIDATION
        assert "input-output" in err
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--variant", "bit",
            "--snr-start", "2", "--snr-stop", "3", "--snr-step", "1",
        )
        assert code == EXIT_OK

    def test_bit_variant_refuses_zero_message_bits(self, capsys, tmp_path):
        path = tmp_path / "k0.iowe"
        path.write_text(format_spectrum(spectrum_from(7, 0, {(0, 0): 1.0}, SpectrumKind.EXACT)))
        code, out, err = run(
            capsys, "bound", "--spectrum", str(path), "--variant", "bit",
            "--snr-convention", "esn0",
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "k >= 1" in err and "Traceback" not in err

    def test_union_overflow_is_refused(self, capsys):
        # the [2054, 1027] average is complete, but its union sum at -30 dB
        # overflows; the region-split variants stay below 1 there
        argv = ("bound", "--ensemble", "2054", "1027", "--snr-start", "-30", "--snr-stop", "-30")
        code, out, err = run(capsys, *argv, "--variant", "union")
        assert code == EXIT_VALIDATION and out == ""
        assert "union bound overflows float64" in err and "Warning" not in err
        for variant in ("truncated-union", "pairwise", "word"):
            code, out, err = run(capsys, *argv, "--variant", variant)
            assert code == EXIT_OK and err == "", variant
            _, _, (row,) = parse_csv(out)
            assert row["d_star_opt"] == "0" and float(row["raw_value"]) < 1.0

    def test_gfbt_requires_base_table_flag(self, capsys):
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--variant", "gfbt"
        )
        assert code == EXIT_VALIDATION
        assert "base-bound" in err

    def test_gfbt_with_union_table_replays_truncated_union(self, capsys, tmp_path):
        # build a base table holding the union mass of the weights <= 2d*
        # at each radius, then check the CLI reproduces the truncated union
        # bound byte for byte
        spec_path = tmp_path / "h.spec"
        run(capsys, "spectrum", "--enumerate", HAMMING_GEN, "-o", str(spec_path))
        iowe = load_spectrum(spec_path)
        marginal = iowe.weight_spectrum()
        grid = [1.0, 2.0, 3.0]
        lines = []
        for snr in grid:
            point = ChannelPoint.from_snr_db(snr, rate=marginal.k / marginal.n)
            for d_star in range(0, marginal.n + 1):
                lines.append(f"{snr!r} {d_star} {union_base(marginal, point, d_star)!r}")
        table = tmp_path / "base.txt"
        table.write_text("\n".join(lines) + "\n")

        shared = [
            "--spectrum", str(spec_path),
            "--snr-start", "1", "--snr-stop", "3", "--snr-step", "1",
        ]
        code, out_g, err = run(
            capsys, "bound", *shared, "--variant", "gfbt", "--base-bound", str(table)
        )
        assert code == EXIT_OK, err
        code, out_t, _ = run(capsys, "bound", *shared, "--variant", "truncated-union")
        assert code == EXIT_OK
        _, _, rows_g = parse_csv(out_g)
        _, _, rows_t = parse_csv(out_t)
        for rg, rt in zip(rows_g, rows_t):
            assert rg["raw_value"] == rt["raw_value"]
            assert rg["d_star_opt"] == rt["d_star_opt"]

    def test_flag_validation_exit_codes(self, capsys, tmp_path):
        cases = [
            # argparse rejections and library validation both map to 2
            ["bound", "--enumerate", HAMMING_GEN, "--variant", "nope"],
            ["bound", "--enumerate", HAMMING_GEN, "--snr-step", "0"],
            ["bound", "--enumerate", HAMMING_GEN, "--snr-start", "5", "--snr-stop", "1"],
            ["bound", "--enumerate", HAMMING_GEN, "--ensemble", "8", "4"],
            ["bound", "--spectrum", str(tmp_path / "absent.spec")],
            ["bound", "--enumerate", HAMMING_GEN, "--dstar", "9"],
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == EXIT_VALIDATION, argv

    def test_infinite_snr_bounds_are_refused(self, capsys):
        for flag in ("--snr-stop=inf", "--snr-start=-inf"):
            code, out, err = run(capsys, "bound", "--enumerate", HAMMING_GEN, flag)
            assert code == EXIT_VALIDATION, flag
            assert "must be finite" in err and "Traceback" not in err

    def test_extreme_snr_bounds_are_refused(self, capsys):
        # 10^(3100/10) overflows a float; 10^(-3300/10) underflows to 0
        for snr in ("3100", "-3300"):
            code, out, err = run(
                capsys, "bound", "--enumerate", HAMMING_GEN,
                f"--snr-start={snr}", f"--snr-stop={snr}",
            )
            assert code == EXIT_VALIDATION, snr
            assert "out of range" in err and out == ""

    @pytest.mark.parametrize("policy", ["closed-form", "tight"])
    def test_subnormal_sigma_bounds_quietly_at_zero(self, capsys, policy):
        # sqrt(d)/sigma overflows to inf, where Q and the triplet mass are 0;
        # pyproject turns a numpy overflow warning into a failure
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--variant", "word",
            "--snr-convention", "sigma", "--snr-start", "1e-310", "--snr-stop", "1e-310",
            "--theta-policy", policy,
        )
        assert (code, err) == (EXIT_OK, "")
        assert f"# theta_policy={policy}\n" in out
        assert out.endswith(
            "snr_db,sigma,raw_value,clamped_value,d_star_opt\n1e-310,1e-310,0.0,0.0,0\n"
        )

    def test_grid_above_a_million_points_is_refused(self, capsys):
        # 10 dB in steps of 1e-300 would be about 10^301 points
        code, out, err = run(capsys, "bound", "--enumerate", HAMMING_GEN, "--snr-step", "1e-300")
        assert code == EXIT_VALIDATION
        assert "more than 1,000,000 points" in err and out == ""

    def test_workers_flag_only_on_simulate(self, capsys, tmp_path):
        curve = tmp_path / "c.csv"
        assert main(["bound", "--enumerate", HAMMING_GEN, "-o", str(curve)]) == EXIT_OK
        for argv in (
            ["bound", "--enumerate", HAMMING_GEN],
            ["spectrum", "--enumerate", HAMMING_GEN],
            ["compare", "--curve", str(curve)],
        ):
            code, out, err = run(capsys, *argv, "--workers", "2")
            assert code == EXIT_VALIDATION, argv
            assert "--workers" in err

    def test_version_flag(self, capsys):
        code, out, err = run(capsys, "--version")
        assert code == EXIT_OK
        assert "mlbounds" in out


# Flag combinations where the command would read no value of the flag.
# {spec} is a weight spectrum file; the --base-bound path never exists, so a
# refusal that came after opening it would read as a missing file.
_UNREAD = [
    (["bound", "--enumerate", HAMMING_GEN, "--variant", "union", "--dstar", "1"], "--dstar"),
    (["bound", "--enumerate", HAMMING_GEN, "--variant", "union", "--dstar-max", "3"],
     "--dstar-max"),
    *[
        (["bound", "--enumerate", HAMMING_GEN, "--variant", variant, "--theta-policy", policy],
         "--theta-policy")
        for variant in ("union", "truncated-union", "pairwise", "gfbt")
        for policy in ("tight", "closed-form")
    ],
    *[
        (["bound", "--enumerate", HAMMING_GEN, "--variant", variant,
          "--base-bound", "/nonexistent/base.txt"], "--base-bound")
        for variant in ("union", "truncated-union", "pairwise", "triplet", "word", "bit")
    ],
    (["bound", "--spectrum", "{spec}", "--max-k", "5"], "--max-k"),
    (["bound", "--ensemble", "16", "8", "--max-k", "5"], "--max-k"),
    (["spectrum", "--macwilliams", "{spec}", "--max-k", "5"], "--max-k"),
    (["spectrum", "--ensemble", "16", "8", "--max-k", "5"], "--max-k"),
]


class TestUnreadFlagsAreRefused:
    @pytest.mark.parametrize(
        "argv,flag", _UNREAD, ids=[" ".join(a for a in v if a != HAMMING_GEN) for v, _ in _UNREAD]
    )
    def test_refused_before_any_output(self, capsys, tmp_path, argv, flag):
        spec = tmp_path / "w.spec"
        spec.write_text(
            format_spectrum(WeightSpectrum(7, 4, [1, 0, 0, 7, 7, 0, 0, 1], SpectrumKind.EXACT))
        )
        out_file = tmp_path / "out"
        argv = [token.replace("{spec}", str(spec)) for token in argv]
        code, out, err = run(capsys, *argv, "-o", str(out_file))
        assert code == EXIT_VALIDATION, err
        assert flag in err and out == ""
        assert "No such file" not in err and "Traceback" not in err
        assert not out_file.exists()

    @pytest.mark.parametrize("flags", [["--theta-policy", "closed-form"], ["--dstar", "1"]])
    def test_refused_before_the_source_loads(self, capsys, monkeypatch, flags):
        # a [4000000, 2000000] average would build a 183 MB spectrum first
        def refuse(n, k):
            raise AssertionError("the source loaded")

        monkeypatch.setattr(cli, "ensemble_average", refuse)
        argv = ["bound", "--ensemble", "4000000", "2000000", "--variant", "union", *flags]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION, err
        assert flags[0] in err and out == ""

    def test_read_flags_still_run(self, capsys, tmp_path):
        table = tmp_path / "base.txt"
        table.write_text("".join(f"1.0 {d} 0.0\n" for d in range(8)))
        grid = ["--snr-start", "1", "--snr-stop", "1"]
        for argv in (
            ["--variant", "truncated-union", "--dstar", "1", "--dstar-max", "3"],
            ["--variant", "triplet", "--theta-policy", "tight"],
            ["--variant", "gfbt", "--base-bound", str(table), "--dstar-max", "3"],
            ["--variant", "bit", "--max-k", "4", "--theta-policy", "tight"],
        ):
            code, out, err = run(capsys, "bound", "--enumerate", HAMMING_GEN, *grid, *argv)
            assert code == EXIT_OK, (argv, err)

    def test_dstar_max_is_recorded_only_when_given(self, capsys):
        argv = ["bound", "--enumerate", HAMMING_GEN, "--snr-start", "1", "--snr-stop", "2"]
        _, plain, _ = run(capsys, *argv)
        _, capped, _ = run(capsys, *argv, "--dstar-max", "1")
        assert "d_star_max" not in plain
        meta, _, rows = parse_csv(capped)
        assert meta["d_star_max"] == "1"
        assert all(int(row["d_star_opt"]) <= 1 for row in rows)
        # the line follows d_star, and the metadata before it is unchanged
        assert capped.startswith(plain.split("snr_db,")[0] + "# d_star_max=1\n")

    def test_bounds_are_looked_up_at_call_time(self, capsys, monkeypatch):
        # a wrapper bound over the module's name sees every grid point, and
        # the parameters behind the wrapper still decide what is read
        calls = []
        real = cli.word_error_bound

        @functools.wraps(real)
        def counted(*args, **kwargs):
            calls.append(kwargs["theta_policy"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "word_error_bound", counted)
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--theta-policy", "tight",
            "--snr-start", "0", "--snr-stop", "2",
        )
        assert code == EXIT_OK, err
        assert len(calls) == 9 and set(calls) == {ThetaPolicy.TIGHT}


# The curve options each variant's bound takes; compute_curve refuses the rest.
_RADIUS = {"d_star", "d_star_max"}
_TAKES = {
    BoundVariant.UNION: set(),
    BoundVariant.TRUNCATED_UNION: _RADIUS,
    BoundVariant.PAIRWISE_IMPROVED: _RADIUS,
    BoundVariant.TRIPLET_IMPROVED: _RADIUS | {"theta_policy"},
    BoundVariant.UNIFIED_WORD: _RADIUS | {"theta_policy"},
    BoundVariant.UNIFIED_BIT: _RADIUS | {"theta_policy"},
    BoundVariant.GFBT_COMBINED: _RADIUS | {"provider"},
}
# a bound's own default for each option, and a value that is not one; the
# provider path never exists, so a refusal after reading it would be an OSError
_OPTION_VALUES = {
    "default": {"theta_policy": ThetaPolicy.CLOSED_FORM, "d_star": None, "d_star_max": None,
                "provider": None},
    "set": {"theta_policy": ThetaPolicy.TIGHT, "d_star": 1, "d_star_max": 3,
            "provider": "/nonexistent/base.txt"},
}
_FLAGS = {"theta_policy": "--theta-policy", "d_star": "--dstar", "d_star_max": "--dstar-max",
          "provider": "--base-bound"}
_REFUSED = [
    (variant, name, kind)
    for variant, takes in _TAKES.items()
    for name in sorted(set(_FLAGS) - takes)
    for kind in _OPTION_VALUES
]


class TestComputeCurveOptions:
    @pytest.fixture(scope="class")
    def iowe(self):
        return enumerate_spectrum(load_generator(HAMMING_GEN))

    @pytest.mark.parametrize(
        "variant,name,kind", _REFUSED, ids=[f"{v.value}-{n}-{k}" for v, n, k in _REFUSED]
    )
    def test_option_the_bound_does_not_take_is_refused(self, iowe, variant, name, kind):
        option = {name: _OPTION_VALUES[kind][name]}
        with pytest.raises(ValidationError, match=f"does not read {name} \\({_FLAGS[name]}\\)"):
            cli.compute_curve(variant, iowe, 1.0, 1.0, 1.0, **option)

    @pytest.mark.parametrize("variant", list(BoundVariant), ids=lambda v: v.value)
    def test_unknown_option_is_refused(self, iowe, variant):
        with pytest.raises(ValidationError, match="unknown curve option 'dstar'"):
            cli.compute_curve(variant, iowe, 1.0, 1.0, 1.0, dstar=1)

    @pytest.mark.parametrize("policy", ["tight", None, 1], ids=repr)
    def test_theta_policy_that_is_no_member_is_refused_before_any_row(
        self, iowe, monkeypatch, policy
    ):
        # the string "tight" computed every row as closed-form, then failed
        # on the metadata; now the bound of the first grid point refuses it
        rows = []
        real = cli.word_error_bound

        @functools.wraps(real)
        def counted(*args, **kwargs):
            rows.append(real(*args, **kwargs))
            return rows[-1]

        monkeypatch.setattr(cli, "word_error_bound", counted)
        with pytest.raises(ValidationError, match="is not one of"):
            cli.compute_curve(BoundVariant.UNIFIED_WORD, iowe, 0.0, 1.0, 1.0, theta_policy=policy)
        assert rows == []

    def test_given_options_pass_straight_to_the_bound(self, iowe):
        # an explicit default gives the curve that leaving it out gives
        word = BoundVariant.UNIFIED_WORD
        defaults = {name: _OPTION_VALUES["default"][name] for name in _TAKES[word]}
        plain = cli.compute_curve(word, iowe, 0.0, 2.0, 1.0)
        assert cli.compute_curve(word, iowe, 0.0, 2.0, 1.0, **defaults) == plain


class TestTruncatedSpectrumWorkflow:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        spec = spectrum_from(
            63, 39,
            {10: 1.2e4, 14: 3.4e7, 20: 5.6e11},
            SpectrumKind.TRUNCATED,
            truncation=20,
        )
        path = tmp_path / "trunc.spec"
        path.write_text(format_spectrum(spec))
        return str(path)

    def test_probe_stays_within_half_truncation(self, capsys, spec_file):
        code, out, err = run(
            capsys, "bound", "--spectrum", spec_file, "--variant", "word",
            "--snr-start", "1", "--snr-stop", "4", "--snr-step", "0.5",
        )
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        for row in rows:
            assert int(row["d_star_opt"]) <= 10
            assert math.isfinite(float(row["raw_value"]))

    def test_forcing_radius_past_truncation_is_rejected(self, capsys, spec_file):
        code, out, err = run(
            capsys, "bound", "--spectrum", spec_file, "--variant", "word",
            "--dstar", "11",
        )
        assert code == EXIT_VALIDATION
        assert "d_star" in err


    def test_overflowing_ensemble_runs_truncated(self, capsys):
        # A_d of the [4096, 2048] ensemble overflows float64 past d = 881
        grid = ("--snr-start", "0", "--snr-stop", "10", "--snr-step", "2.5")
        code, out, err = run(capsys, "bound", "--ensemble", "4096", "2048", *grid)
        assert code == EXIT_OK and err == ""
        meta, _, rows = parse_csv(out)
        assert meta["spectrum_kind"] == "truncated"
        assert len(rows) == 5
        assert all(int(row["d_star_opt"]) <= 440 for row in rows)
        code, out, err = run(
            capsys, "bound", "--ensemble", "4096", "2048", "--variant", "union", *grid
        )
        assert code == EXIT_VALIDATION
        assert "needs the full spectrum" in err


class TestSimulateCommand:
    def test_extreme_snr_is_refused(self, capsys):
        for snr in ("3100", "-3300", "inf"):
            code, out, err = run(capsys, "simulate", "--code", HAMMING_GEN, "--snr", snr)
            assert code == EXIT_VALIDATION, snr
            assert "out of range" in err and out == ""

    def test_extreme_sigma_is_refused(self, capsys):
        # sigma^2 underflows to 0 or overflows, so the report has no Eb/N0
        for sigma in ("1e-200", "1e200"):
            code, out, err = run(
                capsys, "simulate", "--code", HAMMING_GEN, "--snr", sigma,
                "--snr-convention", "sigma",
            )
            assert code == EXIT_VALIDATION, sigma
            assert "no finite Eb/N0" in err and out == "" and "Traceback" not in err

    def test_json_reruns_are_byte_identical_and_worker_invariant(self, tmp_path):
        argv = [
            "simulate", "--code", HAMMING_GEN, "--snr", "0.9", "--snr-convention", "sigma",
            "--trials", "1500", "--seed", "11",
        ]
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
        assert main(argv + ["-o", str(paths[0])]) == EXIT_OK
        assert main(argv + ["-o", str(paths[1])]) == EXIT_OK
        assert main(argv + ["--workers", "3", "-o", str(paths[2])]) == EXIT_OK
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_json_payload_fields(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--code", HAMMING_GEN, "--snr", "2", "3",
            "--trials", "400", "--seed", "3",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        # the report re-derives Eb/N0 from sigma, so match to rounding only
        assert [p["snr_db"] for p in payload] == pytest.approx([2.0, 3.0], rel=1e-12)
        for point in payload:
            assert point["n"] == 7 and point["k"] == 4
            assert point["d_star"] == 7  # defaults to n
            assert point["trials"] == 400
            assert 0.0 <= point["word_error_rate"] <= 1.0

    def test_text_format_marks_grid_points(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--code", HAMMING_GEN, "--snr", "0.7",
            "--snr-convention", "sigma", "--trials", "200", "--seed", "1", "--format", "text",
        )
        assert code == EXIT_OK
        assert "# grid point sigma=0.7" in out
        assert "word errors" in out

    def test_code_longer_than_64_simulates(self, capsys, tmp_path):
        gen = tmp_path / "rep70.gen"
        gen.write_text(format_generator(repetition_code(70)))
        code, out, err = run(
            capsys, "simulate", "--code", str(gen), "--snr", "-3", "--trials", "2000",
            "--seed", "1", "--dstar", "30",
        )
        assert code == EXIT_OK and err == ""
        (report,) = json.loads(out)
        assert report["n"] == 70 and report["k"] == 1
        assert 0 < report["word_errors"] < report["trials"]
        # the all-ones word is the only competitor
        assert list(report["joint_errors_by_weight"]) == ["70"]

    def test_resource_guards_exit_three(self, capsys, tmp_path):
        # a [320, 30] codebook needs 2^30 * 6 bytes, ~6.4 GB, over the 3.5 GB limit
        gen = tmp_path / "long.gen"
        gen.write_text(format_generator(LinearCode(320, 30, tuple(1 << j for j in range(30)))))
        code, out, err = run(
            capsys, "simulate", "--code", str(gen), "--snr", "0.8", "--snr-convention", "sigma",
            "--trials", "100", "--seed", "0",
        )
        assert code == EXIT_RESOURCE
        code, out, err = run(
            capsys, "simulate", "--code", HAMMING_GEN, "--snr", "0.8", "--snr-convention", "sigma",
            "--trials", "1000000", "--seed", "0", "--work-limit", "1000000",
        )
        assert code == EXIT_RESOURCE
        # a spectrum file whose header asks for a 40 GB count array
        huge = tmp_path / "huge.iowe"
        huge.write_text("iowe n=100000 k=50000 kind=exact\n0 0 1\n1 3 1\n2 5 1\n")
        code, out, err = run(capsys, "bound", "--spectrum", str(huge))
        assert code == EXIT_RESOURCE and out == ""
        assert "cells" in err and "bytes" in err
        assert "resource guard" in err

    def test_invalid_counts_exit_two_not_three(self, capsys):
        argv = [
            "simulate", "--code", HAMMING_GEN, "--snr", "0.8", "--snr-convention", "sigma",
            "--trials", "10",
        ]
        code, out, err = run(capsys, *argv, "--work-limit", "-5")
        assert code == EXIT_VALIDATION and out == ""
        assert "work_limit must be >= 1" in err
        code, out, err = run(capsys, *argv, "--workers", "0")
        assert code == EXIT_VALIDATION and "workers must be >= 1" in err

    def test_validation_exit_codes(self, capsys):
        sigma = ["simulate", "--code", HAMMING_GEN, "--snr-convention", "sigma", "--snr"]
        cases = [
            [*sigma, "-1", "--trials", "10"],
            [*sigma, "0.8", "--trials", "0"],
            [*sigma, "0.8", "--dstar", "9"],
            [*sigma, "0.8", "--snr-convention", "bogus"],
            ["simulate", "--snr", "0.8", "--snr-convention", "sigma"],
            # --sigma is gone: --snr with --snr-convention sigma took its place
            ["simulate", "--code", HAMMING_GEN, "--sigma", "0.8"],
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == EXIT_VALIDATION, argv

    def test_seed_changes_output(self, capsys):
        argv = [
            "simulate", "--code", HAMMING_GEN, "--snr", "0.9", "--snr-convention", "sigma",
            "--trials", "800",
        ]
        _, out_a, _ = run(capsys, *argv, "--seed", "1")
        _, out_b, _ = run(capsys, *argv, "--seed", "2")
        assert out_a != out_b


class TestArgumentFile:
    def test_later_flag_beats_file(self, capsys, tmp_path):
        args = tmp_path / "sweep.args"
        args.write_text("--variant union\n--snr-start 0 --snr-stop 8\n--snr-step 2\n")
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, f"@{args}", "--snr-stop", "4"
        )
        assert code == EXIT_OK, err
        meta, _, rows = parse_csv(out)
        assert meta["variant"] == "union"  # from the file
        assert [float(r["snr_db"]) for r in rows] == [0.0, 2.0, 4.0]  # the flag won

    def test_comments_and_shell_quoting(self, capsys, tmp_path):
        spaced = tmp_path / "my curves"
        spaced.mkdir()
        for variant in ("union", "word"):
            assert main([
                "bound", "--enumerate", HAMMING_GEN, "--variant", variant,
                "--snr-start", "2", "--snr-stop", "3", "--snr-step", "1",
                "-o", str(spaced / f"{variant}.csv"),
            ]) == EXIT_OK
        word, union = spaced / "word.csv", spaced / "union.csv"
        args = tmp_path / "cmp.args"
        args.write_text(
            "# tightest first, so the dominance check must trip\n"
            f"--curve '{word}'  # a quoted path with a space\n"
            "\n"
            f'--curve "{union}" --assert-dominance\n'
        )
        code, out, err = run(capsys, "compare", f"@{args}")
        assert code == EXIT_VALIDATION
        assert "dominance violation" in err and "unrecognized" not in err
        assert "\nsnr_db,sigma,word_raw,word_clamped,union_raw,union_clamped\n" in out

    def test_file_source_conflicting_with_flag_source_exits_2(self, capsys, tmp_path):
        args = tmp_path / "ens.args"
        args.write_text("--ensemble 16 8\n")
        code, out, err = run(capsys, "spectrum", f"@{args}")
        assert code == EXIT_OK and "n=16 k=8" in out
        code, out, err = run(capsys, "spectrum", f"@{args}", "--enumerate", HAMMING_GEN)
        assert code == EXIT_VALIDATION and out == ""
        assert "not allowed with" in err

    def test_unread_flag_in_file_exits_2(self, capsys, tmp_path):
        args = tmp_path / "fixed.args"
        args.write_text("--dstar 2\n")
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--variant", "union", f"@{args}"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert "does not read" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "bound", "--enumerate", HAMMING_GEN, f"@{tmp_path / 'absent'}")
        assert code == EXIT_VALIDATION and out == ""
        assert "No such file" in err

    def test_unclosed_quote_exits_2(self, capsys, tmp_path):
        args = tmp_path / "bad.args"
        args.write_text('--variant "union\n')
        code, out, err = run(capsys, "bound", "--enumerate", HAMMING_GEN, f"@{args}")
        assert code == EXIT_VALIDATION and out == ""
        assert "No closing quotation" in err

    def test_workers_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        argv = [
            "simulate", "--code", HAMMING_GEN, "--snr", "0.9", "--snr-convention", "sigma",
            "--trials", "900", "--seed", "4",
        ]
        monkeypatch.delenv("MLBOUNDS_WORKERS", raising=False)
        base = tmp_path / "base.json"
        assert main(argv + ["-o", str(base)]) == EXIT_OK
        monkeypatch.setenv("MLBOUNDS_WORKERS", "garbage")
        via_env = tmp_path / "env.json"
        assert main(argv + ["-o", str(via_env)]) == EXIT_OK
        assert base.read_bytes() == via_env.read_bytes()


# every flag that names an input file, plus an argument file; {bad} is a
# file that is not UTF-8 text.  argparse reads an @file itself, so only its
# message leaves out the path.
_FILE_FLAGS = {
    "--macwilliams": ["spectrum", "--macwilliams", "{bad}"],
    "--enumerate": ["spectrum", "--enumerate", "{bad}"],
    "--spectrum": ["bound", "--spectrum", "{bad}"],
    "--base-bound": ["bound", "--enumerate", HAMMING_GEN, "--variant", "gfbt", "--base-bound", "{bad}"],
    "simulate --code": ["simulate", "--code", "{bad}", "--snr", "0.8"],
    "--curve": ["compare", "--curve", "{bad}"],
    "--sim": ["compare", "--curve", "{curve}", "--sim", "{bad}"],
    "@file": ["bound", "--enumerate", HAMMING_GEN, "@{bad}"],
}


@pytest.mark.parametrize("argv", _FILE_FLAGS.values(), ids=_FILE_FLAGS.keys())
def test_non_utf8_input_file_exits_2(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    curve = tmp_path / "c.csv"
    assert main(["bound", "--enumerate", HAMMING_GEN, "--snr-stop", "1", "-o", str(curve)]) == 0
    names_path = "@{bad}" not in argv
    argv = [token.format(bad=bad, curve=curve) for token in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_VALIDATION, err
    assert out == "" and "mlbounds: error:" in err
    assert (str(bad) in err) == names_path, err


class TestCompareCommand:
    @pytest.fixture()
    def curves(self, tmp_path):
        shared = [
            "--enumerate", HAMMING_GEN,
            "--snr-start", "1", "--snr-stop", "3", "--snr-step", "1",
        ]
        union = tmp_path / "union.csv"
        word = tmp_path / "word.csv"
        assert main(["bound", *shared, "--variant", "union", "-o", str(union)]) == EXIT_OK
        assert main(["bound", *shared, "--variant", "word", "-o", str(word)]) == EXIT_OK
        return union, word

    def test_single_curve_pass_through_is_bit_exact(self, capsys, curves):
        union, _ = curves
        code, out, err = run(capsys, "compare", "--curve", str(union))
        assert code == EXIT_OK
        _, header, rows = parse_csv(out)
        assert header == ["snr_db", "sigma", "union_raw", "union_clamped"]
        _, _, source_rows = parse_csv(union.read_text())
        for merged, source in zip(rows, source_rows):
            assert merged["snr_db"] == source["snr_db"]
            assert merged["sigma"] == source["sigma"]
            assert merged["union_raw"] == source["raw_value"]
            assert merged["union_clamped"] == source["clamped_value"]

    def test_dominance_assertion_passes_loosest_first(self, capsys, curves):
        union, word = curves
        code, out, err = run(
            capsys, "compare", "--curve", str(union), "--curve", str(word),
            "--assert-dominance",
        )
        assert code == EXIT_OK and err == ""

    def test_dominance_violation_reports_and_exits_nonzero(self, capsys, curves):
        union, word = curves
        code, out, err = run(
            capsys, "compare", "--curve", str(word), "--curve", str(union),
            "--assert-dominance",
        )
        assert code == EXIT_VALIDATION
        assert "dominance violation" in err
        # the merged table is still emitted for inspection
        assert "snr_db,sigma" in out

    def test_misaligned_grids_are_rejected(self, capsys, curves, tmp_path):
        union, _ = curves
        other = tmp_path / "offset.csv"
        assert main([
            "bound", "--enumerate", HAMMING_GEN, "--variant", "word",
            "--snr-start", "1.5", "--snr-stop", "3.5", "--snr-step", "1",
            "-o", str(other),
        ]) == EXIT_OK
        code, out, err = run(
            capsys, "compare", "--curve", str(union), "--curve", str(other)
        )
        assert code == EXIT_VALIDATION
        assert "misaligned" in err

    def test_sim_points_join_on_sigma_and_bound_them(self, capsys, curves, tmp_path):
        union, word = curves
        sim = tmp_path / "sim.json"
        assert main([
            "simulate", "--code", HAMMING_GEN, "--snr", "2", "--trials", "4000",
            "--seed", "9", "-o", str(sim),
        ]) == EXIT_OK
        code, out, err = run(
            capsys, "compare", "--curve", str(union), "--curve", str(word),
            "--sim", str(sim), "--assert-dominance",
        )
        assert code == EXIT_OK, err
        _, header, rows = parse_csv(out)
        assert header[-3:] == ["sim_wer", "sim_wer_lo", "sim_wer_hi"]
        filled = [row for row in rows if row["sim_wer"]]
        assert len(filled) == 1
        assert float(filled[0]["snr_db"]) == 2.0
        assert float(filled[0]["sim_wer"]) <= float(filled[0]["word_raw"])

    def test_sim_point_off_grid_is_rejected(self, capsys, curves, tmp_path):
        union, _ = curves
        sim = tmp_path / "sim.json"
        assert main([
            "simulate", "--code", HAMMING_GEN, "--snr", "0.5", "--snr-convention", "sigma",
            "--trials", "100", "--seed", "2", "-o", str(sim),
        ]) == EXIT_OK
        code, out, err = run(capsys, "compare", "--curve", str(union), "--sim", str(sim))
        assert code == EXIT_VALIDATION
        assert "grid" in err

    def test_fabricated_excess_rate_trips_dominance_check(self, capsys, curves, tmp_path):
        union, _ = curves
        grid_row = parse_csv(union.read_text())[2][1]
        point = {
            "snr_db": 2.0,
            "sigma": float(grid_row["sigma"]),
            "word_error_rate": 0.999,
            "word_error_ci": [0.99, 1.0],
        }
        sim = tmp_path / "fake.json"
        sim.write_text(json.dumps([point]))
        code, out, err = run(
            capsys, "compare", "--curve", str(union), "--sim", str(sim),
            "--assert-dominance",
        )
        assert code == EXIT_VALIDATION
        assert "exceeds the tightest word bound" in err

    @pytest.mark.parametrize(
        "edit",
        [
            {"word_error_ci": [0.01]},
            {"word_error_rate": "0.02"},
            {"word_error_ci": "0.01,0.03"},
            {"bit_error_ci": [0.001, 0.002]},
            {"sigma": True},
            {"snr_db": float("nan")},
            # an interval around [0, 1] would hide any rate from the check
            {"word_error_ci": [-1.0, 2.0], "word_error_rate": 0.999},
            {"word_error_rate": 7.0, "word_error_ci": [0.9, 0.1]},
            {"word_error_rate": -0.01},
            {"word_error_ci": [0.03, 0.01]},
            {"bit_error_rate": 1.5, "bit_error_ci": [0.1, 0.2]},
            {"bit_error_ci": [0.2, 1.01], "bit_error_rate": 0.3},
            # a rate outside its own interval: the verdict reads only the
            # interval, so such a point once passed with exit 0
            {"word_error_rate": 0.999},
            {"bit_error_rate": 0.5, "bit_error_ci": [0.1, 0.2]},
        ],
        ids=["short-ci", "string-rate", "string-ci", "bit-ci-without-rate", "bool-sigma",
             "nan-snr", "ci-around-unit", "rate-above-1", "negative-rate", "ci-reversed",
             "bit-rate-above-1", "bit-ci-above-1", "rate-outside-ci", "bit-rate-outside-ci"],
    )
    @pytest.mark.parametrize("flags", [[], ["--assert-dominance"]], ids=["table", "assert"])
    def test_malformed_sim_field_exits_2(self, capsys, curves, tmp_path, edit, flags):
        union, _ = curves
        grid_row = parse_csv(union.read_text())[2][1]
        point = {
            "snr_db": 2.0,
            "sigma": float(grid_row["sigma"]),
            "word_error_rate": 0.02,
            "word_error_ci": [0.01, 0.03],
            **edit,
        }
        sim = tmp_path / "edited.json"
        sim.write_text(json.dumps([point]))
        code, out, err = run(capsys, "compare", "--curve", str(union), "--sim", str(sim), *flags)
        assert code == EXIT_VALIDATION and out == ""
        assert f"{sim}: " in err and next(iter(edit)) in err

    def test_report_without_errors_passes(self, capsys, curves, tmp_path):
        # at 20 trials and 0 errors the Wilson interval starts at exactly
        # 0.0, the edge of the accepted range
        union, _ = curves
        sim = tmp_path / "clean.json"
        assert main([
            "simulate", "--code", HAMMING_GEN, "--snr", "3", "--trials", "20", "--seed", "1",
            "-o", str(sim),
        ]) == EXIT_OK
        report = json.loads(sim.read_text())[0]
        assert report["word_errors"] == 0 and report["word_error_ci"][0] == 0.0
        code, out, err = run(
            capsys, "compare", "--curve", str(union), "--sim", str(sim), "--assert-dominance"
        )
        assert code == EXIT_OK, err

    def test_zero_error_run_below_a_tiny_bound_passes(self, capsys, tmp_path):
        # 0 errors in 11 trials at 14 dB, against a word bound of 5.9e-20:
        # the interval's low end is exactly 0, not the 2.8e-17 rounding
        # once left there, so the run is no violation
        word, sim = tmp_path / "word.csv", tmp_path / "sim.json"
        assert main([
            "bound", "--enumerate", HAMMING_GEN, "--variant", "word",
            "--snr-start", "14", "--snr-stop", "14", "-o", str(word),
        ]) == EXIT_OK
        assert main([
            "simulate", "--code", HAMMING_GEN, "--snr", "14", "--trials", "11", "--seed", "1",
            "-o", str(sim),
        ]) == EXIT_OK
        (report,) = json.loads(sim.read_text())
        assert report["word_errors"] == 0 and report["word_error_ci"][0] == 0.0
        code, out, err = run(
            capsys, "compare", "--curve", str(word), "--sim", str(sim), "--assert-dominance"
        )
        assert code == EXIT_OK, err

    def test_reports_simulate_writes_hold_their_rates(self, tmp_path):
        # every rate simulate writes lies in its own interval, at 0 and at
        # all errors too, and at the bit level, where the rate divides by
        # trials * k but the interval centres on (bit_errors / k) / trials
        points = []
        for gen in (HAMMING_GEN, TOY_GEN):
            for trials in ("1", "2", "11", "300"):
                sim = tmp_path / "sim.json"
                assert main([
                    "simulate", "--code", gen, "--snr", "-30", "-10", "0", "3", "14",
                    "--trials", trials, "--seed", "5", "-o", str(sim),
                ]) == EXIT_OK
                points += cli._load_sim_points(sim)
        assert any(p["word_errors"] == p["trials"] for p in points)
        assert any(p["word_errors"] == 0 for p in points)
        # every bit-error count of short runs, through the payload simulate writes
        reports = [
            SimReport(31, k, 1.0, 0.0, 31, trials, 0, min(trials, bit_errors), bit_errors, 0, 0, {})
            for k in (1, 4, 7, 21)
            for trials in range(1, 21)
            for bit_errors in range(trials * k + 1)
        ]
        sim = tmp_path / "synthetic.json"
        sim.write_text(json.dumps([report.to_dict() for report in reports]))
        assert len(cli._load_sim_points(sim)) == len(reports)

    @pytest.mark.parametrize("payload", ["5", '"report"', "[1, 2]", "null"])
    def test_sim_payload_of_another_type_exits_2(self, capsys, curves, tmp_path, payload):
        union, _ = curves
        sim = tmp_path / "odd.json"
        sim.write_text(payload)
        code, out, err = run(capsys, "compare", "--curve", str(union), "--sim", str(sim))
        assert code == EXIT_VALIDATION and out == ""
        assert f"{sim}: expected a simulation report object or array" in err

    def test_sim_point_missing_a_field_exits_2(self, capsys, curves, tmp_path):
        union, _ = curves
        sim = tmp_path / "short.json"
        sim.write_text(json.dumps([{"snr_db": 2.0, "sigma": 0.74, "word_error_rate": 0.02}]))
        code, out, err = run(capsys, "compare", "--curve", str(union), "--sim", str(sim))
        assert code == EXIT_VALIDATION and out == ""
        assert f"{sim}: report missing field 'word_error_ci'" in err

    def test_bare_report_object_is_one_point(self, capsys, curves, tmp_path):
        union, _ = curves
        array = tmp_path / "array" / "sim.json"
        array.parent.mkdir()
        assert main([
            "simulate", "--code", HAMMING_GEN, "--snr", "2", "--trials", "50", "--seed", "3",
            "-o", str(array),
        ]) == EXIT_OK
        bare = tmp_path / "bare" / "sim.json"
        bare.parent.mkdir()
        (report,) = json.loads(array.read_text())
        bare.write_text(json.dumps(report))
        outputs = []
        for sim in (array, bare):
            code, out, err = run(capsys, "compare", "--curve", str(union), "--sim", str(sim))
            assert code == EXIT_OK, err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert sum(bool(row["sim_wer"]) for row in parse_csv(outputs[1])[2]) == 1

    @pytest.mark.parametrize(
        "body,where,fragment",
        [
            ("# variant=word\nsnr,sigma\n", ":2: ", "expected header"),
            (f"{cli._CSV_HEADER}\n1.0,0.8,0.1,0.1\n", ":2: ", "expected 5 columns"),
            (f"{cli._CSV_HEADER}\n1.0,0.8,abc,0.1,7\n", ":2: ", "could not convert"),
            (f"{cli._CSV_HEADER}\n1.0,0.8,0.1,0.1,7.5\n", ":2: ", "invalid literal"),
            (f"# variant=word\n{cli._CSV_HEADER}\n", ": ", "no curve rows found"),
            ("# variant=word\n\n", ": ", "no curve rows found"),
        ],
        ids=["header", "four-columns", "bad-float", "bad-int", "header-only", "no-header"],
    )
    def test_malformed_curve_file_exits_2(self, capsys, tmp_path, body, where, fragment):
        curve = tmp_path / "bad.csv"
        curve.write_text(body)
        code, out, err = run(capsys, "compare", "--curve", str(curve))
        assert code == EXIT_VALIDATION and out == ""
        assert f"{curve}{where}{fragment}" in err

    def test_blank_lines_in_a_curve_are_skipped(self, capsys, curves, tmp_path):
        union, _ = curves
        spaced = tmp_path / "spaced" / union.name
        spaced.parent.mkdir()
        spaced.write_text("\n  \n".join(union.read_text().splitlines()) + "\n\n")
        outputs = []
        for curve in (union, spaced):
            code, out, err = run(capsys, "compare", "--curve", str(curve))
            assert code == EXIT_OK, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_sim_file_that_is_not_json_exits_2(self, capsys, curves, tmp_path):
        union, _ = curves
        sim = tmp_path / "truncated.json"
        sim.write_text('[{"snr_db": 2.0,')
        code, out, err = run(capsys, "compare", "--curve", str(union), "--sim", str(sim))
        assert code == EXIT_VALIDATION
        assert f"{sim}: not a JSON simulation report" in err

    def test_two_sim_points_on_one_grid_row_exit_2(self, capsys, curves, tmp_path):
        # a second report at the same sigma would replace the first unseen
        _, word = curves
        reports = []
        for seed in ("3", "4"):
            code, out, err = run(
                capsys, "simulate", "--code", HAMMING_GEN, "--snr", "1", "--trials", "2000",
                "--seed", seed,
            )
            assert code == EXIT_OK
            reports += json.loads(out)
        assert reports[0]["word_error_rate"] != reports[1]["word_error_rate"]
        sim = tmp_path / "both.json"
        sim.write_text(json.dumps(reports))
        code, out, err = run(
            capsys, "compare", "--curve", str(word), "--sim", str(sim), "--assert-dominance"
        )
        assert code == EXIT_VALIDATION and out == ""
        assert f"{sim}: two simulation points at sigma={reports[0]['sigma']!r}" in err

    @pytest.mark.parametrize("column,value", [
        ("raw_value", "nan"), ("raw_value", "inf"), ("raw_value", "-1e-300"),
        ("clamped_value", "nan"), ("clamped_value", "-0.5"),
        ("snr_db", "nan"), ("snr_db", "-inf"),
        ("sigma", "nan"), ("sigma", "inf"), ("sigma", "0.0"), ("sigma", "-0.8"),
    ])
    @pytest.mark.parametrize("place", ["first", "second", "with-sim"])
    def test_curve_value_out_of_range_exits_2(
        self, capsys, curves, tmp_path, column, value, place
    ):
        # every comparison with NaN is false, so a NaN bound would pass
        # --assert-dominance in any position; refuse it, and its kin, on read
        union, word = curves
        lines = word.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines) if line[:1].isdigit()) + 1
        header = lines[lineno - 2].split(",")
        cells = lines[lineno - 1].split(",")
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps([{
            "snr_db": 1.0, "sigma": float(cells[1]),
            "word_error_rate": 0.5, "word_error_ci": [0.45, 0.55],
        }]))
        cells[header.index(column)] = value
        lines[lineno - 1] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        argv = {
            "first": ["--curve", str(bad), "--curve", str(union)],
            "second": ["--curve", str(union), "--curve", str(bad)],
            "with-sim": ["--curve", str(bad), "--sim", str(sim)],
        }[place]
        code, out, err = run(capsys, "compare", *argv, "--assert-dominance")
        assert code == EXIT_VALIDATION and out == ""
        assert f"{bad}:{lineno}: {column} must be" in err

    def test_bit_curves_check_bit_rates_not_word_rates(self, capsys, curves, tmp_path):
        # the simulated word rate may exceed a bit bound; that must not be
        # flagged, while an impossible bit rate against the bit curve must be
        union, word = curves
        bit = tmp_path / "bit.csv"
        assert main([
            "bound", "--enumerate", HAMMING_GEN, "--variant", "bit",
            "--snr-start", "1", "--snr-stop", "3", "--snr-step", "1",
            "-o", str(bit),
        ]) == EXIT_OK
        sim = tmp_path / "sim.json"
        assert main([
            "simulate", "--code", HAMMING_GEN, "--snr", "1", "--trials", "60000",
            "--seed", "13", "-o", str(sim),
        ]) == EXIT_OK
        rep = json.loads(sim.read_text())[0]
        bit_value = float(parse_csv(bit.read_text())[2][0]["raw_value"])
        assert rep["word_error_rate"] > bit_value  # the trap this guards against
        code, out, err = run(
            capsys, "compare", "--curve", str(union), "--curve", str(word),
            "--curve", str(bit), "--sim", str(sim), "--assert-dominance",
        )
        assert code == EXIT_OK, err

        rep["bit_error_rate"] = 0.9
        rep["bit_error_ci"] = [0.89, 0.91]
        fake = tmp_path / "fake.json"
        fake.write_text(json.dumps([rep]))
        code, out, err = run(
            capsys, "compare", "--curve", str(bit), "--sim", str(fake),
            "--assert-dominance",
        )
        assert code == EXIT_VALIDATION
        assert "tightest bit bound" in err

    def test_duplicate_stems_get_distinct_labels(self, capsys, curves, tmp_path):
        union, _ = curves
        nested = tmp_path / "other"
        nested.mkdir()
        twin = nested / union.name
        twin.write_bytes(union.read_bytes())
        code, out, err = run(
            capsys, "compare", "--curve", str(union), "--curve", str(twin)
        )
        assert code == EXIT_OK
        _, header, _ = parse_csv(out)
        assert header.count("union_raw") == 1
        assert "union_2_raw" in header

    def test_round_trip_through_disk_preserves_reprs(self, capsys, curves, tmp_path):
        # values written by bound, read by compare, and re-emitted must be
        # the same repr strings, i.e. the same doubles
        union, _ = curves
        merged = tmp_path / "merged.csv"
        assert main(["compare", "--curve", str(union), "-o", str(merged)]) == EXIT_OK
        _, _, merged_rows = parse_csv(merged.read_text())
        _, _, source_rows = parse_csv(union.read_text())
        for got, want in zip(merged_rows, source_rows):
            assert got["union_raw"] == want["raw_value"]


class TestFileBoundProviderCli:
    def test_bound_table_round_trip_via_files(self, tmp_path):
        # library-level sanity: a table written with repr floats replays the
        # direct computation exactly through the file provider
        spec = WeightSpectrum(7, 4, [1, 0, 0, 7, 7, 0, 0, 1], SpectrumKind.EXACT)
        point = ChannelPoint.from_snr_db(0.8, SnrConvention.SIGMA)
        lines = [f"0.8 {d_star} {union_base(spec, point, d_star)!r}" for d_star in range(0, 8)]
        table = tmp_path / "t.txt"
        table.write_text("\n".join(lines) + "\n")
        direct = truncated_union_bound(spec, point)
        replayed = gfbt_combine(FileBoundProvider(table), spec, point)
        assert replayed.value == direct.value
        assert replayed.d_star_opt == direct.d_star_opt


class TestPerfbenchTracedNames:
    def test_every_traced_name_resolves(self):
        # perfbench/child.py wraps these module attributes by name under
        # --trace 1, where a renamed one crashes every child; its TRACED table
        # is read from the source, so nothing there runs or changes
        tree = ast.parse(PERFBENCH_CHILD.read_text(encoding="utf-8"))
        traced = next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["TRACED"]
        )
        modules = {"cli": cli, "bounds": bounds}
        assert set(traced) == set(modules)
        for prefix, names in traced.items():
            assert names
            for name in names:
                assert callable(getattr(modules[prefix], name, None)), f"{prefix}.{name}"
