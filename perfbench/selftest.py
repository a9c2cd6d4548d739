#!/usr/bin/env python3
"""Self-test: a deliberately slowed layer must move its metrics past their bounds.

Run from the root of a checkout::

    python3 perfbench/selftest.py

On stream-live, for each of three seeds, it runs the benchmark three times
untraced: unperturbed, with ``--inject artifacts.publish=0.05`` (the
benchmark's own wrapper sleeps 50 ms inside every ``ModelRegistry.publish``
call, where a publish-bound update takes about 60 ms) and unperturbed
again.  Then it runs one traced pair.  It passes when

* the median ``update_s`` of the injected runs is worse than the first
  unperturbed median by more than the bound in ``BENCHMARK.json``;
* the second unperturbed median stays within that bound of the first;
* the traced ``artifacts.publish_s`` grows by more than the same bound.

Exit code 0 means pass.  It takes about eight minutes on two cores.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "stream-live"
INJECT = "artifacts.publish=0.05"
METRIC = "update_s"  # end-to-end metric the slowed layer maps to
LAYER_METRIC = "artifacts.publish_s"
SEEDS = (1, 2, 3)


def run_once(bench: dict, seed: int, trace: int, inject: str | None) -> dict:
    cmd = bench["command"] + [
        "--workload", WORKLOAD, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"benchmark run reported failures: {' '.join(cmd)}")
    return result["metrics"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == METRIC)

    values = {"base": [], "injected": [], "again": []}
    for seed in SEEDS:
        for label, inject in (("base", None), ("injected", INJECT), ("again", None)):
            values[label].append(run_once(bench, seed, 0, inject)[METRIC]["value"])
            print(f"seed {seed} {label:8s} {METRIC} = {values[label][-1]:.6g}", flush=True)
    base = statistics.median(values["base"])
    moved = statistics.median(values["injected"]) / base - 1
    drift = statistics.median(values["again"]) / base - 1

    layer_base = run_once(bench, SEEDS[0], 1, None)[LAYER_METRIC]["value"]
    layer_injected = run_once(bench, SEEDS[0], 1, INJECT)[LAYER_METRIC]["value"]
    layer_moved = layer_injected / layer_base - 1

    checks = [
        (f"{METRIC} worse by {moved:+.1%} with {INJECT} (needs > {bound:.0%})", moved > bound),
        (f"{METRIC} unperturbed repeat {drift:+.1%} (needs <= {bound:.0%})", abs(drift) <= bound),
        (f"{LAYER_METRIC} {layer_base:.4g} -> {layer_injected:.4g} s "
         f"({layer_moved:+.1%}, needs > {bound:.0%})", layer_moved > bound),
    ]
    for text, ok in checks:
        print(("PASS " if ok else "FAIL ") + text)
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
