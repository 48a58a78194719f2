"""Command line behavior: exit codes, output determinism, config precedence,
and the compare subcommand's alignment and dominance rules."""

import json
import math
from pathlib import Path

import pytest

from mlbounds.bounds import FileBoundProvider, UnionBoundProvider, truncated_union_bound
from mlbounds.cli import EXIT_OK, EXIT_RESOURCE, EXIT_VALIDATION, main
from mlbounds.codes import repetition_code
from mlbounds.numerics import ChannelPoint
from mlbounds.spectrum import (
    InputOutputSpectrum,
    LinearCode,
    SpectrumKind,
    WeightSpectrum,
    load_spectrum,
    store_generator,
    store_spectrum,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "codes"
HAMMING_GEN = str(DATA / "hamming_7_4.gen")
TOY_GEN = str(DATA / "toy_10_5.gen")


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
        store_spectrum(
            WeightSpectrum(7, 4, {0: 1, 3: 7, 4: 7, 7: 1}, SpectrumKind.EXACT), primal
        )
        out_path = tmp_path / "dual.spec"
        code, out, err = run(
            capsys, "spectrum", "--macwilliams", str(primal), "-o", str(out_path)
        )
        assert code == EXIT_OK
        dual = load_spectrum(out_path)
        assert (dual.n, dual.k) == (7, 3)
        assert dual.counts[4] == 7.0

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
        store_spectrum(
            WeightSpectrum(7, 4, {0: 1, 3: 7, 4: 7, 7: 1}, SpectrumKind.EXACT),
            weights_only,
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

    def test_gfbt_requires_base_table_flag(self, capsys):
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--variant", "gfbt"
        )
        assert code == EXIT_VALIDATION
        assert "base-bound" in err

    def test_gfbt_with_union_table_replays_truncated_union(self, capsys, tmp_path):
        # build a base table holding the union mass of each restricted
        # sub-spectrum, then check the CLI reproduces the truncated union
        # bound byte for byte
        spec_path = tmp_path / "h.spec"
        run(capsys, "spectrum", "--enumerate", HAMMING_GEN, "-o", str(spec_path))
        iowe = load_spectrum(spec_path)
        marginal = iowe.weight_spectrum()
        provider = UnionBoundProvider()
        grid = [1.0, 2.0, 3.0]
        lines = []
        for snr in grid:
            point = ChannelPoint.from_snr_db(snr, rate=marginal.k / marginal.n)
            for d_star in range(0, marginal.n + 1):
                sub = marginal.restrict(2 * d_star)
                if not sub.weights():
                    continue
                lines.append(f"{snr!r} {d_star} {provider(sub, point)!r}")
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


class TestTruncatedSpectrumWorkflow:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        spec = WeightSpectrum(
            63, 39,
            {10: 1.2e4, 14: 3.4e7, 20: 5.6e11},
            SpectrumKind.TRUNCATED,
            truncation=20,
        )
        path = tmp_path / "trunc.spec"
        store_spectrum(spec, path)
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
    def test_json_reruns_are_byte_identical_and_worker_invariant(self, tmp_path):
        argv = [
            "simulate", "--code", HAMMING_GEN, "--sigma", "0.9",
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
            capsys, "simulate", "--code", HAMMING_GEN, "--sigma", "0.7",
            "--trials", "200", "--seed", "1", "--format", "text",
        )
        assert code == EXIT_OK
        assert "# grid point sigma=0.7" in out
        assert "word errors" in out

    def test_workers_env_var_and_flag_override(self, capsys, tmp_path, monkeypatch):
        argv = [
            "simulate", "--code", HAMMING_GEN, "--sigma", "0.9",
            "--trials", "900", "--seed", "4",
        ]
        base = tmp_path / "base.json"
        assert main(argv + ["-o", str(base)]) == EXIT_OK

        via_env = tmp_path / "env.json"
        monkeypatch.setenv("MLBOUNDS_WORKERS", "3")
        assert main(argv + ["-o", str(via_env)]) == EXIT_OK
        assert base.read_bytes() == via_env.read_bytes()

        monkeypatch.setenv("MLBOUNDS_WORKERS", "garbage")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert "MLBOUNDS_WORKERS" in err
        # explicit flag wins over the broken environment value
        flagged = tmp_path / "flag.json"
        assert main(argv + ["--workers", "2", "-o", str(flagged)]) == EXIT_OK
        assert base.read_bytes() == flagged.read_bytes()

    def test_code_longer_than_64_simulates(self, capsys, tmp_path):
        gen = tmp_path / "rep70.gen"
        store_generator(repetition_code(70), gen)
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
        # a [320, 26] codebook needs 2^26 * 58 bytes, over the 3.5 GB limit
        gen = tmp_path / "long.gen"
        store_generator(LinearCode(320, 26, tuple(1 << j for j in range(26))), gen)
        code, out, err = run(
            capsys, "simulate", "--code", str(gen), "--sigma", "0.8",
            "--trials", "100", "--seed", "0",
        )
        assert code == EXIT_RESOURCE
        code, out, err = run(
            capsys, "simulate", "--code", HAMMING_GEN, "--sigma", "0.8",
            "--trials", "1000000", "--seed", "0", "--work-limit", "1000000",
        )
        assert code == EXIT_RESOURCE
        assert "resource guard" in err

    def test_validation_exit_codes(self, capsys):
        cases = [
            ["simulate", "--code", HAMMING_GEN, "--sigma", "-1", "--trials", "10"],
            ["simulate", "--code", HAMMING_GEN, "--sigma", "0.8", "--trials", "0"],
            ["simulate", "--code", HAMMING_GEN, "--sigma", "0.8", "--snr", "2"],
            ["simulate", "--sigma", "0.8"],
            ["simulate", "--code", HAMMING_GEN, "--sigma", "0.8", "--dstar", "9"],
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == EXIT_VALIDATION, argv

    def test_seed_changes_output(self, capsys):
        argv = [
            "simulate", "--code", HAMMING_GEN, "--sigma", "0.9", "--trials", "800",
        ]
        _, out_a, _ = run(capsys, *argv, "--seed", "1")
        _, out_b, _ = run(capsys, *argv, "--seed", "2")
        assert out_a != out_b


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text(
            "# shared sweep defaults\n"
            "variant = union\n"
            "snr-start = 0\n"
            "snr-stop = 8\n"
            "snr-step = 2\n"
        )
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--config", str(cfg),
            "--snr-stop", "4",
        )
        assert code == EXIT_OK
        meta, _, rows = parse_csv(out)
        assert meta["variant"] == "union"  # from the config file
        assert [float(r["snr_db"]) for r in rows] == [0.0, 2.0, 4.0]  # flag beat config

    def test_underscore_keys_match_dashed_flags(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("snr_convention = sigma\nsnr_start = 0.8\nsnr_stop = 0.8\n")
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--config", str(cfg),
        )
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        assert rows[0]["sigma"] == "0.8"

    def test_config_source_yields_to_flag_source(self, capsys, tmp_path):
        # config picks the ensemble source, the command line picks a file;
        # the flag wins instead of tripping the mutual-exclusion check
        cfg = tmp_path / "c.cfg"
        cfg.write_text("ensemble = 16 8\n")
        code, out, err = run(
            capsys, "spectrum", "--config", str(cfg), "--enumerate", HAMMING_GEN
        )
        assert code == EXIT_OK
        assert "iowe n=7 k=4" in out
        code, out, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_OK
        assert "n=16 k=8" in out

    def test_boolean_true_enables_store_true_flag(self, capsys, tmp_path):
        curve = tmp_path / "c.csv"
        assert main([
            "bound", "--enumerate", HAMMING_GEN, "--variant", "union",
            "--snr-start", "2", "--snr-stop", "3", "--snr-step", "1",
            "-o", str(curve),
        ]) == EXIT_OK
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text("assert-dominance = true\n")
        code, out, err = run(
            capsys, "compare", "--curve", str(curve), "--config", str(cfg)
        )
        assert code == EXIT_OK

    def test_malformed_config_line_is_validation_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant union\n")
        code, out, err = run(
            capsys, "bound", "--enumerate", HAMMING_GEN, "--config", str(cfg)
        )
        assert code == EXIT_VALIDATION
        assert "key=value" in err


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
            "simulate", "--code", HAMMING_GEN, "--sigma", "0.5", "--trials", "100",
            "--seed", "2", "-o", str(sim),
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
        ],
        ids=["short-ci", "string-rate", "string-ci", "bit-ci-without-rate", "bool-sigma",
             "nan-snr"],
    )
    def test_malformed_sim_field_exits_2(self, capsys, curves, tmp_path, edit):
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
        code, out, err = run(
            capsys, "compare", "--curve", str(union), "--sim", str(sim),
            "--assert-dominance",
        )
        assert code == EXIT_VALIDATION
        assert f"{sim}: " in err and next(iter(edit)) in err

    def test_sim_file_that_is_not_json_exits_2(self, capsys, curves, tmp_path):
        union, _ = curves
        sim = tmp_path / "truncated.json"
        sim.write_text('[{"snr_db": 2.0,')
        code, out, err = run(capsys, "compare", "--curve", str(union), "--sim", str(sim))
        assert code == EXIT_VALIDATION
        assert f"{sim}: not a JSON simulation report" in err

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
        spec = WeightSpectrum(7, 4, {0: 1, 3: 7, 4: 7, 7: 1}, SpectrumKind.EXACT)
        point = ChannelPoint.from_sigma(0.8)
        provider = UnionBoundProvider()
        lines = []
        for d_star in range(0, 8):
            sub = spec.restrict(2 * d_star)
            if not sub.weights():
                continue
            lines.append(f"0.8 {d_star} {provider(sub, point)!r}")
        table = tmp_path / "t.txt"
        table.write_text("\n".join(lines) + "\n")
        from mlbounds.bounds import gfbt_combine

        direct = truncated_union_bound(spec, point)
        replayed = gfbt_combine(FileBoundProvider(table), spec, point)
        assert replayed.value == direct.value
        assert replayed.d_star_opt == direct.d_star_opt
