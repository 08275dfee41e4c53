#!/usr/bin/env python3
"""CI gate for the rank-count scale sweep.

Run after `cargo run --release -p bench --bin scale [-- --quick] | tee scale.out`:

    python3 ci/check_scale.py scale.out

Gates (vs ci/scale_baseline.json, keyed by the sweep's mode line):

1. the sweep completed and the summary JSON parsed — in full mode that
   includes the 8192-rank fat_tree(32) allreduce, the headline "does
   the stack reach 8k ranks at all" check;
2. every baseline row is present with the exact same scheduling-event
   count — virtual time is deterministic, so the global dispatch-ticket
   count for a fixed workload cannot flake, and a change means the
   workload changed (re-baseline deliberately or find the regression);
3. peak committed memory per rank stays flat — within 10% — from the
   second-largest to the largest fat-tree (1k -> 8k ranks in full
   mode): the lazy per-peer state promise that per-rank state is
   O(active pairs), not O(world);
4. bytes requested from the allocator per scheduling event stay flat —
   within 25% — from the smallest to the largest fat-tree of the run
   (128 -> 1k ranks quick, 128 -> 8k full): host work per message must
   not depend on the world's size. Counted, not timed, so the box's
   speed does not enter; a per-message scan of a world-sized table
   shows up as ~8x per 8x ranks.
"""

import json
import sys
from pathlib import Path

BASELINE = Path("ci") / "scale_baseline.json"


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <scale-output-file>", file=sys.stderr)
        return 2
    lines = Path(sys.argv[1]).read_text().strip().splitlines()
    summary = None
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{"):
            summary = json.loads(line)
            break
    if summary is None:
        print(
            "FAIL: no summary JSON line in sweep output (a world crashed?)",
            file=sys.stderr,
        )
        return 1

    mode = summary.get("mode")
    baselines = json.loads(BASELINE.read_text())
    if mode not in baselines:
        print(f"FAIL: no baseline for mode {mode!r}", file=sys.stderr)
        return 1
    baseline = baselines[mode]
    failures = []

    # 1 + 2: completeness and bit-exact decision counts.
    got = {
        (r["topo"], r["ranks"], r["coll"]): r["events"]
        for r in summary.get("rows", [])
    }
    for row in baseline["rows"]:
        key = (row["topo"], row["ranks"], row["coll"])
        name = f"{key[2]} on {key[0]} ({key[1]} ranks)"
        if key not in got:
            failures.append(f"sweep is missing {name}")
        elif got[key] != row["events"]:
            failures.append(
                f"{name}: {got[key]} scheduling events != baseline "
                f"{row['events']} (deterministic; workload changed "
                "without re-baselining?)"
            )
        else:
            print(f"{name}: {row['events']} events (exact)")

    # 3: memory flatness under lazy per-peer state.
    mem = summary.get("mem", {})
    growth = mem.get("growth", float("inf"))
    ceiling = baseline["max_mem_growth"]
    if growth > ceiling:
        failures.append(
            f"peak memory per rank grew {growth:.3f}x from "
            f"{mem.get('ranks_small')} to {mem.get('ranks_big')} ranks "
            f"(ceiling {ceiling}x): per-peer state is no longer lazy"
        )
    else:
        print(
            f"memory per rank {mem.get('kib_small')} KiB @ "
            f"{mem.get('ranks_small')} -> {mem.get('kib_big')} KiB @ "
            f"{mem.get('ranks_big')} ranks: growth {growth:.3f}x <= {ceiling}x"
        )

    # 4: allocator traffic per event independent of the world's size.
    alloc = summary.get("alloc", {})
    growth = alloc.get("growth", float("inf"))
    ceiling = baseline["max_alloc_growth"]
    if growth > ceiling:
        failures.append(
            f"allocated bytes per event grew {growth:.3f}x from "
            f"{alloc.get('ranks_small')} to {alloc.get('ranks_big')} ranks "
            f"(ceiling {ceiling}x): per-message work scales with the world"
        )
    else:
        print(
            f"allocated bytes per event {alloc.get('bytes_small')} @ "
            f"{alloc.get('ranks_small')} -> {alloc.get('bytes_big')} @ "
            f"{alloc.get('ranks_big')} ranks: growth {growth:.3f}x <= {ceiling}x"
        )

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"scale gate OK ({mode} mode)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
