#!/usr/bin/env python3
"""Word-error bound against measured ML decoding on the [31,21] BCH code.

The code is read from its generator file, data/codes/bch_31_21.gen, found
relative to this script so the demo runs from any directory.
The exact weight spectrum comes from enumerating the 2^10 dual codewords and
applying the MacWilliams transform, which is far cheaper than sweeping the
2^21 messages directly.  The Monte Carlo runs use the all-zero codeword
(valid by linearity plus channel symmetry) and exact ML scoring with
weight-class pruning.

Run time: a few seconds.
"""

from pathlib import Path

from mlbounds import (
    ChannelPoint,
    SimConfig,
    enumerate_spectrum,
    load_generator,
    macwilliams_transform,
    simulate,
    union_bound,
    wilson_interval,
    word_error_bound,
)

CODES = Path(__file__).resolve().parent.parent / "data" / "codes"


def main():
    code = load_generator(CODES / "bch_31_21.gen")
    spectrum = macwilliams_transform(enumerate_spectrum(code.dual()).weight_spectrum())
    d_min = spectrum.weights()[0]
    print(f"[{code.n},{code.k}] BCH, d_min = {d_min}, rate {code.rate:.3f}")
    print(f"{'Eb/N0':>6} {'sim WER':>12} {'95% CI':>26} {'word bound':>12} {'union':>12}")
    trials = 50_000
    for snr_db in (3.0, 4.0, 5.0, 6.0):
        ch = ChannelPoint.from_snr_db(snr_db, rate=code.rate)
        bound = word_error_bound(spectrum, ch)
        loose = union_bound(spectrum, ch)
        rep = simulate(SimConfig(code=code, sigma=ch.sigma, d_star=code.n,
                                 trials=trials, seed=3121))
        lo, hi = rep.word_error_ci
        print(
            f"{snr_db:6.2f} {rep.word_error_rate:12.4e} "
            f"[{lo:11.4e}, {hi:11.4e}] {bound.value:12.4e} {loose.clamped:12.4e}"
        )
        # the bound caps the expectation; allow the estimate its noise
        s_lo, s_hi = wilson_interval(rep.word_errors, rep.trials, z=1.0)
        assert rep.word_error_rate <= bound.value + 3.0 * 0.5 * (s_hi - s_lo)
    print(f"\n{trials} trials per point; every measurement is consistent with its bound.")


if __name__ == "__main__":
    main()
