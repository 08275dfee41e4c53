#!/usr/bin/env python3
"""CI gate for the hot-path bench's §3.3 idle-channel result.

Run after `ci/behaviour.sh`, which captures `hotpath 2`'s stdout:

    python3 ci/check_hotpath.py target/behaviour/hotpath-2.txt

The idle-channel tax under `PollPolicy::Parking` must be exactly zero:
virtual time is deterministic, so equality cannot flake. The rest of
the output (message and allocation counts) is pinned byte for byte by
the behaviour manifest.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <hotpath-output-file>", file=sys.stderr)
        return 2
    lines = Path(sys.argv[1]).read_text().strip().splitlines()
    summary = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if summary is None:
        print("FAIL: no summary JSON line in bench output (storm crashed?)", file=sys.stderr)
        return 1
    if summary.get("parking_tax_us") != 0.0:
        print(
            f"FAIL: parking idle-channel tax is {summary.get('parking_tax_us')}us, "
            "expected exactly 0 (parked TCP must not tax SCI latency)",
            file=sys.stderr,
        )
        return 1
    print("parking idle-channel tax: 0.000us (exact)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
