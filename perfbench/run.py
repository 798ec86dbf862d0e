"""Benchmark of graphreact's four alpha(kappa) routes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixture-cli --seed 1 --seconds 20 --trace 0

Runs one workload single-threaded in this process for --seconds (whole
rounds, two at least), checks every output, and
prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every workload
reports the same metrics.  With --trace 0 they are the end-to-end
metrics; with --trace 1 every other round runs with timing spans around
graphreact's public functions and the metrics are the per-layer figures,
the tracing overhead among them.  The program is imported from ``src/``
of the checkout; without it the benchmark exits with code 2.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# single-threaded BLAS, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GRAPHREACT_THREADS", None)


def _import_program() -> bool:
    src = ROOT / "src"
    if not (src / "graphreact" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no graphreact sources and fixtures under {ROOT}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import graphreact

    if Path(graphreact.__file__).resolve().parent != src / "graphreact":
        print(f"error: imported graphreact from {graphreact.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    out = OUT / f"{workload}-seed{seed}"
    bench = WORKLOADS[workload](ROOT, seed, out, tracer)

    setup_s = []

    def set_up() -> None:
        tracer.op = -1  # spans of set-up work
        with tracer.installed() if trace else contextlib.nullcontext():
            t0 = perf_counter()
            bench.setup()
            setup_s.append(perf_counter() - t0)
        tracer.op = 0

    rounds, traced = [], []
    attempted = failed = 0
    start = perf_counter()
    # two rounds at least: a repeat to check against, and one traced round
    while len(rounds) < 2 or perf_counter() - start < seconds:
        # set-ups before every round, so that the median of set-up times
        # covers the whole run rather than its first instant
        for _ in range(bench.setups_per_round):
            set_up()
        is_traced = trace and len(rounds) % 2 == 1
        first_op = bench.next_op
        with tracer.installed() if is_traced else contextlib.nullcontext():
            n, f = bench.round(len(rounds))
        attempted += n
        failed += f
        rounds.append(range(first_op, bench.next_op))
        traced.append(is_traced)

    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / "spans.jsonl")
        table = layers.module_table(tracer, rounds, traced, len(setup_s))
        (out / "layers.json").write_text(json.dumps(table, indent=1, sort_keys=True))
        metrics = layers.per_layer(tracer, bench, rounds, traced, len(setup_s))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        metrics = {"setup_s": (statistics.median(setup_s), "s"), **bench.end_to_end()}
    return {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fixture-cli", "large-graphs", "mc-oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
