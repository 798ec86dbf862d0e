"""Short smoke pass of the benchmark: every workload, untraced and traced.

    python3 perfbench/smoke.py

Runs ``perfbench/run.py`` once per workload and trace setting for one
second (one or two whole rounds) and exits non-zero unless every run
exits 0, passes all its output checks, fails only the known operation,
and reports a finite figure for exactly the metrics that BENCHMARK.json
lists for its trace setting.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# failed operations per attempted: one rational_form in each large-graphs round
FAILED_SHARE = {"fixture-cli": 0.0, "large-graphs": 1 / 35, "mc-oracle": 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    bad = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                bad.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            if not result["correct"]:
                bad.append(f"{label}: checks failed: {proc.stderr.strip()[-500:]}")
            if result["failed"] != round(FAILED_SHARE[workload] * result["attempted"]):
                bad.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            if set(metrics) != names[trace]:
                bad.append(f"{label}: metrics {sorted(metrics)}, want {sorted(names[trace])}")
            for name, m in metrics.items():
                if not math.isfinite(m["value"]):
                    bad.append(f"{label}: {name} = {m}")
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()))
    for line in bad:
        print(f"SMOKE FAIL {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
