#!/usr/bin/env python3
"""CI gate for the collective algorithm engine benchmark.

Run after `ci/behaviour.sh`, which runs `collectives 2` and writes its
reports under `target/behaviour/bench-results/`:

    python3 ci/check_collectives.py

The `coll_policy` report's `*/adaptive` series must be *strictly*
faster than `*/seed` for every operation at large payloads (>= 256 KB)
on the meta-cluster — the headline win of the adaptive engine. Virtual
time is deterministic, so strict inequality cannot flake. The reports'
bytes, Seed rows included, are pinned by the behaviour manifest.
"""

import json
import sys
from pathlib import Path

LARGE = 256 * 1024
REPORT = Path("target/behaviour/bench-results/coll_policy.json")


def main() -> int:
    with open(REPORT) as f:
        policy = {s["name"]: dict(s["samples"]) for s in json.load(f)["series"]}
    failures = []
    for op in ("bcast", "allreduce", "allgather"):
        seed = policy[f"{op}/seed"]
        adaptive = policy[f"{op}/adaptive"]
        for size in sorted(seed):
            if size < LARGE:
                continue
            if adaptive[size] < seed[size]:
                speedup = seed[size] / adaptive[size]
                print(f"{op} @ {size}: adaptive {speedup:.2f}x faster")
            else:
                failures.append(
                    f"{op} @ {size}: adaptive ({adaptive[size]} ns) is not "
                    f"strictly faster than seed ({seed[size]} ns)"
                )

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print("collective engine gate: all green")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
