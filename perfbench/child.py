"""Run one mlbounds CLI command in this fresh interpreter and report on it.

    python3 perfbench/child.py RESULT.json [--warm GENFILE] [--trace] -- ARGV...

The timed region starts before ``import mlbounds.cli`` and ends when
``cli.main(ARGV)`` returns, so every command pays the cold-cache cost a CLI
user pays.  With ``--warm`` the simulator layout of GENFILE is built by a
1-trial ``simulate()`` call before ``cli.main`` (set-up, timed on its own).
With ``--trace`` the names callers look up in ``mlbounds.cli`` and
``mlbounds.bounds`` are wrapped so each call records a span; spans stay in
memory and are written to RESULT.json after the timed region.

RESULT.json gets the timings, the return code and ``ru_maxrss``.  When the
child cannot import the library or write its result it exits nonzero
without a result file, which the benchmark treats as a harness failure.
"""

import functools
import json
import resource
import sys
import time
import traceback

# Functions wrapped in --trace mode, keyed by the module whose namespace the
# caller looks them up in (cli and bounds bind imported names).
TRACED = {
    "cli": (
        "main",
        "enumerate_spectrum",
        "macwilliams_transform",
        "ensemble_average",
        "load_spectrum",
        "load_generator",
        "union_bound",
        "truncated_union_bound",
        "word_error_bound",
        "bit_error_bound",
        "simulate",
    ),
    "bounds": ("q_function", "triplet_probability", "angle_upper_bound"),
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Tracer:
    """Span recorder: each span is [name, parent index, start, end], with
    times in seconds since t0."""

    def __init__(self, t0: float):
        self.spans: list[list] = []
        self._stack = [-1]
        self._t0 = t0

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        spans, stack, clock, t0 = self.spans, self._stack, time.perf_counter, self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1], clock() - t0, 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock() - t0

        setattr(module, attr, traced)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1 :]
    result_path = opts[0]
    warm = opts[opts.index("--warm") + 1] if "--warm" in opts else None
    trace = "--trace" in opts

    t0 = time.perf_counter()
    import mlbounds.cli as cli

    import_s = time.perf_counter() - t0
    result = {"module": cli.__file__, "import_s": import_s, "warmup_s": 0.0}

    if warm is not None:
        from mlbounds.simulator import SimConfig, simulate
        from mlbounds.spectrum import load_generator

        rss_before = _maxrss_mb()
        t = time.perf_counter()
        code = load_generator(warm)
        simulate(SimConfig(code=code, sigma=1.0, d_star=code.n, trials=1, seed=0))
        result["warmup_s"] = time.perf_counter() - t
        result["warmup_rss_mb"] = _maxrss_mb() - rss_before

    tracer = None
    if trace:
        import mlbounds.bounds as bounds

        tracer = Tracer(t0)
        for module, prefix in ((cli, "cli"), (bounds, "bounds")):
            for attr in TRACED[prefix]:
                tracer.wrap(module, attr, f"{prefix}.{attr}")

    t = time.perf_counter()
    try:
        rc = cli.main(cli_argv)
    except Exception:  # a library crash is a failed command, not a harness error
        traceback.print_exc()
        rc = -1
    end = time.perf_counter()

    result.update(
        rc=rc,
        main_s=end - t,
        wall_s=end - t0,
        maxrss_mb=_maxrss_mb(),
        spans=tracer.spans if tracer else None,
    )
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
