"""End-to-end acceptance checklist.

Each test covers one numbered check and prints a single PASS/FAIL line
(visible with pytest -s or on failure), so a full run reads as a checklist:

  01 dominance chain on random-ensemble spectra, exact inequality
  02 forcing the full list radius recovers the conventional union bound
  03 kernel oracles: binomial tail vs literal recursion, Q vs quadrature
  04 triplet probability: closed form at pi/2, monotone in theta, bracket
  05 per-weight joint error bounds hold against Monte Carlo
  06 region-exit frequency matches the binomial tail
  07 simulated word-error rate sits below the word bound
  08 bit bound below word bound, and above the simulated bit-error rate
  09 enumeration and the MacWilliams transform agree on random codes
  10 truncated-spectrum workflow stays inside the known radius

Monte Carlo checks use fixed seeds; statistical assertions allow three
Wilson standard errors where stated and nothing else.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from mlbounds.bounds import (
    bit_error_bound,
    truncated_union_bound,
    union_bound,
    word_error_bound,
)
from mlbounds.cli import EXIT_VALIDATION, main
from mlbounds.errors import ValidationError
from mlbounds.numerics import (
    ChannelPoint,
    SnrConvention,
    q_function,
    triplet_probability,
)
from mlbounds.simulator import SimConfig, simulate, wilson_interval
from mlbounds.spectrum import (
    LinearCode,
    SpectrumKind,
    enumerate_spectrum,
    format_spectrum,
    macwilliams_transform,
)
from oracles import binomial_tail, named_code, pairwise_term, spectrum_from, triplet_term

GRID_0_10 = [0.25 * i for i in range(41)]
GRID_0_8 = [0.25 * i for i in range(33)]


def report(tag, failures, detail):
    status = "PASS" if not failures else "FAIL"
    line = f"[{status}] {tag}: {detail}"
    if failures:
        line += f" | first failure: {failures[0]}"
    print(line)
    assert not failures, line


def rel_diff(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def wilson_se(successes, trials):
    lo, hi = wilson_interval(successes, trials, z=1.0)
    return 0.5 * (hi - lo)


@pytest.fixture(scope="module")
def ensembles():
    from mlbounds.spectrum import ensemble_average

    return ensemble_average(100, 95), ensemble_average(100, 50)


@pytest.fixture(scope="module")
def toy_setup():
    code = named_code("toy_10_5")
    spectrum = enumerate_spectrum(code).weight_spectrum()
    runs = {}
    started = time.perf_counter()
    for sigma in (0.8, 1.0):
        for d_star in (1, 2, 3):
            cfg = SimConfig(
                code=code,
                sigma=sigma,
                d_star=d_star,
                trials=1_000_000,
                seed=90_000 + d_star + int(10 * sigma),
            )
            runs[(sigma, d_star)] = simulate(cfg)
    elapsed = time.perf_counter() - started
    return code, spectrum, runs, elapsed


def test_01_dominance_chain_on_ensembles(ensembles):
    failures = []
    loose_points = 0
    started = time.perf_counter()
    for spectrum in ensembles:
        rate = spectrum.k / spectrum.n
        for snr_db in GRID_0_10:
            ch = ChannelPoint.from_snr_db(snr_db, rate=rate)
            u = union_bound(spectrum, ch).value
            t = truncated_union_bound(spectrum, ch).value
            w = word_error_bound(spectrum, ch).value
            tag = f"[{spectrum.n},{spectrum.k}] at {snr_db} dB"
            if not w <= t <= u:
                failures.append(f"{tag}: chain broken w={w!r} t={t!r} u={u!r}")
            if not (w < 1.0 and t < 1.0):
                failures.append(f"{tag}: proposed bound not < 1 (w={w!r}, t={t!r})")
            if u > 1.0:
                loose_points += 1
    elapsed = time.perf_counter() - started
    if loose_points == 0:
        failures.append("no grid point had a diverging union bound to repair")
    if elapsed > 30.0:
        failures.append(f"took {elapsed:.1f}s, expected seconds")
    report(
        "check 01",
        failures,
        "word <= truncated <= union exactly on [100,95] and [100,50], "
        f"both proposed bounds < 1 at all 82 points "
        f"({loose_points} with union > 1), {elapsed:.1f}s",
    )


def test_02_full_radius_recovers_union(ensembles):
    failures = []
    worst = 0.0
    for spectrum in ensembles:
        rate = spectrum.k / spectrum.n
        for snr_db in GRID_0_10:
            ch = ChannelPoint.from_snr_db(snr_db, rate=rate)
            u = union_bound(spectrum, ch).value
            t = truncated_union_bound(spectrum, ch, d_star=spectrum.n).value
            worst = max(worst, rel_diff(u, t))
            if rel_diff(u, t) > 1e-12:
                failures.append(
                    f"[{spectrum.n},{spectrum.k}] at {snr_db} dB: "
                    f"forced full radius {t!r} vs union {u!r}"
                )
    report(
        "check 02",
        failures,
        f"d*=n truncated bound equals union bound, worst rel diff {worst:.2e} (<= 1e-12)",
    )


def _literal_binomial_tail(p, n_total, lo, hi):
    # Pascal recursion on the pmf, the most direct evaluation there is
    pmf = [1.0]
    for _ in range(n_total):
        nxt = [0.0] * (len(pmf) + 1)
        for j, mass in enumerate(pmf):
            nxt[j] += mass * (1.0 - p)
            nxt[j + 1] += mass * p
        pmf = nxt
    lo = max(lo, 0)
    hi = min(hi, n_total)
    return math.fsum(pmf[lo : hi + 1]) if lo <= hi else 0.0


def test_03_kernel_oracles():
    failures = []
    worst_b = 0.0
    for p in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        for n in (0, 1, 2, 5, 16, 33, 64):
            windows = [
                (0, n), (0, 0), (n, n), (1, n), (0, n - 1),
                (n // 3, (2 * n) // 3), (-3, 2), (n - 2, n + 5), (5, 3),
            ]
            for lo, hi in windows:
                want = _literal_binomial_tail(p, n, lo, hi)
                got = binomial_tail(p, n, lo, hi)
                if want == 0.0:
                    if got != 0.0:
                        failures.append(f"B({p},{n},{lo},{hi}) = {got!r}, expected 0")
                    continue
                worst_b = max(worst_b, rel_diff(got, want))
                if rel_diff(got, want) > 1e-12:
                    failures.append(f"B({p},{n},{lo},{hi}): {got!r} vs literal {want!r}")
    worst_q = 0.0
    for x in GRID_0_8:
        want, _ = integrate.quad(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
            x,
            np.inf,
            epsabs=0.0,
            epsrel=1e-13,
            limit=300,
        )
        got = float(q_function(x))
        worst_q = max(worst_q, rel_diff(got, want))
        if rel_diff(got, want) > 1e-12:
            failures.append(f"Q({x}): {got!r} vs quadrature {want!r}")
    report(
        "check 03",
        failures,
        f"binomial tail worst rel {worst_b:.2e}, Q worst rel {worst_q:.2e} (<= 1e-12)",
    )


def test_04_triplet_integral_properties():
    failures = []
    worst_closed = 0.0
    for d in range(1, 11):
        for sigma in (0.5, 1.0, 2.0):
            q = float(q_function(math.sqrt(d) / sigma))
            at_right_angle = float(triplet_probability(d, 0.5 * math.pi, sigma))
            closed = 2.0 * q - q * q
            worst_closed = max(worst_closed, rel_diff(at_right_angle, closed))
            if rel_diff(at_right_angle, closed) > 1e-10:
                failures.append(
                    f"d={d} sigma={sigma}: pi/2 value {at_right_angle!r} vs 2Q-Q^2 {closed!r}"
                )
            thetas = np.linspace(0.03, 0.5 * math.pi, 30)
            values = triplet_probability(d, thetas, sigma).tolist()
            for left, right in zip(values, values[1:]):
                if right < left:
                    failures.append(f"d={d} sigma={sigma}: not monotone ({left}>{right})")
            for theta, value in zip(thetas, values):
                if not q <= value <= 2.0 * q:
                    failures.append(
                        f"d={d} sigma={sigma} theta={theta:.3f}: {value!r} outside [Q, 2Q]"
                    )
    report(
        "check 04",
        failures,
        f"30 (d, sigma) cells: closed form at pi/2 worst rel {worst_closed:.2e} "
        "(<= 1e-10), monotone in theta, inside [Q, 2Q]",
    )


def test_05_joint_error_bounds_hold_in_simulation(toy_setup):
    code, spectrum, runs, elapsed = toy_setup
    failures = []
    cells = 0
    for (sigma, d_star), rep in runs.items():
        ch = ChannelPoint.from_snr_db(sigma, SnrConvention.SIGMA)
        for d in spectrum.weights():
            count = rep.joint_errors_by_weight.get(d, 0)
            emp = count / rep.trials
            slack = 3.0 * wilson_se(count, rep.trials)
            rhs_pair = pairwise_term(spectrum.counts[d], d, d_star, code.n, ch)
            rhs_trip = triplet_term(spectrum.counts[d], d, d_star, code.n, ch)
            cells += 1
            if emp > rhs_pair + slack:
                failures.append(
                    f"sigma={sigma} d*={d_star} d={d}: {emp!r} > pairwise {rhs_pair!r} + 3se"
                )
            if emp > rhs_trip + slack:
                failures.append(
                    f"sigma={sigma} d*={d_star} d={d}: {emp!r} > triplet {rhs_trip!r} + 3se"
                )
    if elapsed > 600.0:
        failures.append(f"simulations took {elapsed:.0f}s, expected minutes")
    report(
        "check 05",
        failures,
        f"[10,5] joint error rates vs both per-weight bounds, {cells} cells, "
        f"6 x 1e6 trials in {elapsed:.1f}s",
    )


def test_06_region_exit_matches_binomial_tail(toy_setup):
    code, _, runs, _ = toy_setup
    failures = []
    worst = 0.0
    for (sigma, d_star), rep in runs.items():
        ch = ChannelPoint.from_snr_db(sigma, SnrConvention.SIGMA)
        expected = binomial_tail(ch.p_b, code.n, d_star + 1, code.n)
        emp = rep.region_exit_rate
        slack = 3.0 * wilson_se(rep.region_exits, rep.trials)
        worst = max(worst, abs(emp - expected) / slack if slack else 0.0)
        if abs(emp - expected) > slack:
            failures.append(
                f"sigma={sigma} d*={d_star}: exit rate {emp!r} vs tail {expected!r} "
                f"(diff {abs(emp - expected):.2e} > 3se {slack:.2e})"
            )
    report(
        "check 06",
        failures,
        f"hard-decision exit frequency vs binomial tail on 6 runs, "
        f"worst deviation {worst:.2f} of 3se",
    )


def test_07_simulated_wer_below_word_bound():
    code = named_code("bch_31_21")
    spectrum = macwilliams_transform(enumerate_spectrum(code.dual()).weight_spectrum())
    failures = []
    lines = []
    started = time.perf_counter()
    for snr_db in (4.0, 5.0, 6.0):
        ch = ChannelPoint.from_snr_db(snr_db, rate=code.k / code.n)
        bound = word_error_bound(spectrum, ch)
        cfg = SimConfig(
            code=code, sigma=ch.sigma, d_star=code.n, trials=100_000, seed=31_210 + int(snr_db)
        )
        rep = simulate(cfg)
        lines.append(f"{snr_db}dB sim {rep.word_error_rate:.2e} < bound {bound.value:.2e}")
        if not rep.word_error_rate < bound.value:
            failures.append(
                f"{snr_db} dB: simulated {rep.word_error_rate!r} not below {bound.value!r}"
            )
    elapsed = time.perf_counter() - started
    if elapsed > 1200.0:
        failures.append(f"took {elapsed:.0f}s, expected tens of minutes at most")
    report(
        "check 07",
        failures,
        f"[31,21] ML word-error rate under the word bound: {'; '.join(lines)} "
        f"(1e5 trials each, {elapsed:.1f}s)",
    )


def test_08_bit_bound_consistency():
    failures = []
    summaries = []
    for code in (named_code("hamming_7_4"), named_code("bch_15_7")):
        iowe = enumerate_spectrum(code)
        marginal = iowe.weight_spectrum()
        rate = code.k / code.n
        for snr_db in GRID_0_8:
            ch = ChannelPoint.from_snr_db(snr_db, rate=rate)
            bit = bit_error_bound(iowe, ch).value
            word = word_error_bound(marginal, ch).value
            if not bit <= word:
                failures.append(
                    f"[{code.n},{code.k}] at {snr_db} dB: bit {bit!r} > word {word!r}"
                )
        ch = ChannelPoint.from_snr_db(5.0, rate=rate)
        bit_bound = bit_error_bound(iowe, ch).value
        cfg = SimConfig(
            code=code, sigma=ch.sigma, d_star=code.n, trials=1_000_000, seed=850 + code.n
        )
        rep = simulate(cfg)
        # over trials, as bits err in bursts: the per-trial fraction X/k
        slack = 3.0 * wilson_se(rep.bit_errors / code.k, rep.trials)
        summaries.append(
            f"[{code.n},{code.k}] 5dB BER {rep.bit_error_rate:.2e} <= {bit_bound:.2e}"
        )
        if rep.bit_error_rate > bit_bound + slack:
            failures.append(
                f"[{code.n},{code.k}] at 5 dB: simulated BER {rep.bit_error_rate!r} "
                f"above bit bound {bit_bound!r} + 3se"
            )
    report(
        "check 08",
        failures,
        "bit <= word at all 66 grid points on [7,4] and [15,7]; " + "; ".join(summaries),
    )


def _random_code(rng):
    while True:
        n = int(rng.integers(4, 25))
        k_lo, k_hi = max(1, n - 12), min(12, n - 1)
        k = int(rng.integers(k_lo, k_hi + 1))
        rows = tuple(int(x) for x in rng.integers(1, 1 << n, size=k, dtype=np.uint64))
        try:
            return LinearCode(n, k, rows)
        except ValidationError:
            continue  # rank-deficient draw, try again


def test_09_spectrum_engine_cross_validation():
    failures = []
    rng = np.random.default_rng(20260815)
    for index in range(20):
        code = _random_code(rng)
        direct = enumerate_spectrum(code).weight_spectrum().counts
        dual_spectrum = enumerate_spectrum(code.dual()).weight_spectrum()
        transformed = macwilliams_transform(dual_spectrum).counts
        as_int = lambda counts: [round(c) for c in counts.tolist()]
        if as_int(direct) != as_int(transformed):
            failures.append(
                f"code {index} [{code.n},{code.k}]: {as_int(direct)} != {as_int(transformed)}"
            )
    hamming = enumerate_spectrum(named_code("hamming_7_4")).weight_spectrum().counts
    profile = tuple(int(hamming[d]) for d in range(8))
    if profile != (1, 0, 0, 7, 7, 0, 0, 1):
        failures.append(f"[7,4] profile {profile} != (1,0,0,7,7,0,0,1)")
    report(
        "check 09",
        failures,
        "enumeration == MacWilliams on 20 random codes (k <= 12, n <= 24), "
        f"[7,4] profile {profile}",
    )


def test_10_truncated_spectrum_workflow(tmp_path, capsys):
    spectrum = spectrum_from(
        63, 39,
        {10: 1.2e4, 14: 3.4e7, 20: 5.6e11},
        SpectrumKind.TRUNCATED,
        truncation=20,
    )
    spec_path = tmp_path / "partial.spec"
    spec_path.write_text(format_spectrum(spectrum))
    out_path = tmp_path / "curve.csv"
    failures = []
    code = main([
        "bound", "--spectrum", str(spec_path), "--variant", "word",
        "--snr-start", "0", "--snr-stop", "10", "--snr-step", "0.5",
        "-o", str(out_path),
    ])
    capsys.readouterr()
    if code != 0:
        failures.append(f"bound command exited {code}")
    radii = []
    for line in out_path.read_text().splitlines():
        if line.startswith("#") or line.startswith("snr_db"):
            continue
        _, _, raw, clamped, d_star_opt = line.split(",")
        radii.append(int(d_star_opt))
        if not (math.isfinite(float(raw)) and math.isfinite(float(clamped))):
            failures.append(f"non-finite value in row {line!r}")
        if int(d_star_opt) > 10:
            failures.append(f"probe escaped the known radius: {line!r}")
    forced = main([
        "bound", "--spectrum", str(spec_path), "--variant", "word", "--dstar", "11",
    ])
    capsys.readouterr()
    if forced != EXIT_VALIDATION:
        failures.append(f"forcing d*=11 past the spectrum knowledge exited {forced}")
    report(
        "check 10",
        failures,
        f"[63,39] spectrum truncated at 20: optimizer stayed in [0, 10] "
        f"(radii used: {sorted(set(radii))}), finite values, over-reach rejected",
    )
