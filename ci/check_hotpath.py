#!/usr/bin/env python3
"""CI gate for the hot-path wall-clock benchmark.

Run after `cargo run --release -p bench --bin hotpath -- 2 | tee hotpath.out`:

    python3 ci/check_hotpath.py hotpath.out

Gates (vs ci/hotpath_baseline.json, captured at iters=2):

1. the storm completed and the summary JSON parsed — the bench is a
   smoke test for the whole stack under deep unexpected queues;
2. message count matches the baseline exactly (same workload);
3. allocation count stays within 10% of the committed baseline — the
   O(1)-matching + copy-free-eager PR halved it, and it must not creep
   back (allocation counts are deterministic for a fixed workload;
   wall-clock is hardware-dependent and reported but NOT gated);
4. the §3.3 idle-channel tax under `PollPolicy::Parking` is exactly
   zero — virtual time is deterministic, so equality cannot flake.

The bench itself asserts that every storm run in the process ends each
rank at the same virtual time.
"""

import json
import sys
from pathlib import Path

BASELINE = Path("ci") / "hotpath_baseline.json"
ALLOC_HEADROOM = 1.10


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <hotpath-output-file>", file=sys.stderr)
        return 2
    lines = Path(sys.argv[1]).read_text().strip().splitlines()
    summary = None
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            summary = json.loads(line)
            break
    failures = []
    if summary is None:
        failures.append("no summary JSON line in bench output (storm crashed?)")
        summary = {}

    baseline = json.loads(BASELINE.read_text())

    if summary:
        if summary.get("messages") != baseline["messages"]:
            failures.append(
                f"message count {summary.get('messages')} != baseline "
                f"{baseline['messages']} (workload changed without re-baselining?)"
            )
        limit = int(baseline["allocs"] * ALLOC_HEADROOM)
        if summary.get("allocs", limit + 1) > limit:
            failures.append(
                f"allocs {summary.get('allocs')} > {limit} "
                f"(baseline {baseline['allocs']} + {ALLOC_HEADROOM:.0%}): "
                "hot-path allocations crept back up"
            )
        else:
            print(
                f"allocs {summary['allocs']} <= {limit} "
                f"(baseline {baseline['allocs']})"
            )
        if summary.get("parking_tax_us", 1.0) != 0.0:
            failures.append(
                f"parking idle-channel tax is {summary.get('parking_tax_us')}us, "
                "expected exactly 0 (parked TCP must not tax SCI latency)"
            )
        else:
            print("parking idle-channel tax: 0.000us (exact)")
        print(
            f"wall_ms {summary.get('wall_ms')} / events_per_sec "
            f"{summary.get('events_per_sec')} (informational, not gated)"
        )

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print("hotpath gate OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
