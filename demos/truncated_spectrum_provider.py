#!/usr/bin/env python3
"""Working from a partial weight spectrum plus an external base bound.

For long codes the full weight spectrum is rarely available; one often knows
the counts only up to some radius d_max (here 20 for a [63,39]-shaped input).
Two things still work:

  1. The combined bounds optimize d* over [0, d_max/2] only, because a list
     radius of d* needs the counts up to weight 2d*.
  2. The region split accepts any externally computed base bound for the
     in-region term: a provider is any callable provider(d_star, ch)
     bounding the subcode of weights <= 2d*, and FileBoundProvider replays a
     table keyed by (snr_db, d*), so a tighter geometric bound can be dropped
     in without reimplementing it here.

This demo tabulates the union mass of the weights <= 2d*, the per-weight
terms of the truncated union bound forced to d*, as the "external" base
bound and shows the combination reproducing the built-in truncated union
bound exactly.

Run time: under a second.
"""

import tempfile
from pathlib import Path

import numpy as np

from mlbounds import (
    ChannelPoint,
    FileBoundProvider,
    SpectrumKind,
    WeightSpectrum,
    gfbt_combine,
    truncated_union_bound,
    word_error_bound,
)


def main():
    counts = np.zeros(21)  # A_d for d in [0, 20]
    counts[[10, 14, 20]] = [1.2e4, 3.4e7, 5.6e11]
    spectrum = WeightSpectrum(63, 39, counts, SpectrumKind.TRUNCATED, truncation=20)
    print("partial [63,39] spectrum, counts known up to weight 20")
    print(f"{'Eb/N0':>6} {'word bound':>12} {'truncated':>12} {'d*':>4}")
    snrs = [2.0, 4.0, 6.0, 8.0]
    rate = spectrum.k / spectrum.n
    for snr_db in snrs:
        ch = ChannelPoint.from_snr_db(snr_db, rate=rate)
        w = word_error_bound(spectrum, ch)
        t = truncated_union_bound(spectrum, ch)
        assert w.d_star_opt <= spectrum.truncation // 2
        print(f"{snr_db:6.2f} {w.value:12.4e} {t.value:12.4e} {w.d_star_opt:4d}")

    # write a base-bound table an external tool could have produced
    lines = []
    for snr_db in snrs:
        ch = ChannelPoint.from_snr_db(snr_db, rate=rate)
        for d_star in range(0, spectrum.truncation // 2 + 1):
            terms = truncated_union_bound(spectrum, ch, d_star=d_star).per_d_terms
            lines.append(f"{snr_db!r} {d_star} {float(np.sum(list(terms.values())))!r}")
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "base_bounds.txt"
        table.write_text("\n".join(lines) + "\n")
        replayed = FileBoundProvider(table)
        print("\nreplaying through the file provider:")
        for snr_db in snrs:
            ch = ChannelPoint.from_snr_db(snr_db, rate=rate)
            direct = truncated_union_bound(spectrum, ch)
            combined = gfbt_combine(replayed, spectrum, ch)
            match = "==" if combined.value == direct.value else "!="
            print(
                f"{snr_db:6.2f} combined {combined.value:.6e} {match} "
                f"direct {direct.value:.6e} (d* {combined.d_star_opt})"
            )
            assert combined.value == direct.value


if __name__ == "__main__":
    main()
