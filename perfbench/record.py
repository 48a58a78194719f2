"""Record the reference outputs every benchmark pass is checked against.

    python3 perfbench/record.py

Runs each workload once, full and smoke, at the reference seed and stores
the outputs under perfbench/reference (smoke ones under reference/smoke).
Before writing, it checks that MacWilliams of the dual spectrum equals the
weight marginal of the enumerated IOWE.
Run it only to change the references on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys

from checks import check_marginal, word_bounds
from run import BENCH, ROOT, SRC, preflight, run_pass
from workloads import FULL, REFERENCE_SEED, SMOKE


def main() -> int:
    sys.path.insert(0, str(SRC))
    out_dir = ROOT / ".perfbench_tmp" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workloads, ref_dir in ((FULL, BENCH / "reference"), (SMOKE, BENCH / "reference" / "smoke")):
            ref_dir.mkdir(parents=True, exist_ok=True)
            for workload in workloads.values():
                preflight(workload)
                record = run_pass(workload, REFERENCE_SEED, out_dir, ref_dir,
                                  word_bounds(workload), traced=False)
                names = {c.tag: c.output_name(REFERENCE_SEED) for c in workload.commands}
                problems = [f"{tag} failed" for tag in names if record.results[tag]["rc"] != 0]
                if workload.marginal and not problems:
                    mac, enum = (out_dir / names[tag] for tag in workload.marginal)
                    problems = check_marginal(mac, enum)
                if problems:
                    print(f"{workload.name}: {problems}", file=sys.stderr)
                    return 1
                for name in names.values():
                    shutil.copyfile(out_dir / name, ref_dir / name)
                    print(f"recorded {ref_dir.relative_to(ROOT) / name}")
    finally:
        shutil.rmtree(out_dir.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
