#!/usr/bin/env python3
"""CI gate for the VCI (virtual communication interface) subsystem.

Run after `ci/behaviour.sh`, which captures the `vci` bench's stdout:

    python3 ci/check_vci.py target/behaviour/vci.txt

Parses the JSON footer and enforces the headline result of the
multi-VCI design:

* ``laned`` message rate at vcis=4 must be at least 2x the vcis=1
  rate (the measured figure is ~3.9x);
* the ``shared-endpoint`` series must stay flat (every rate within
  5% of its vcis=1 rate) — one pinned lane cannot scale.

The footer's bytes, the vcis=1 rate included, are pinned by the
behaviour manifest. Lane counts above 1 on the other network shapes
(meta-cluster, striped rails, forwarding, faults) are ``tests/vci.rs``'s
job.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    footer = None
    for line in Path(sys.argv[1]).read_text().splitlines():
        line = line.strip()
        if line.startswith('{"vci_storm"'):
            footer = json.loads(line)["vci_storm"]
    if footer is None:
        print("FAIL: no vci_storm JSON footer found", file=sys.stderr)
        return 1
    laned, shared = footer["laned"], footer["shared"]
    failures = []

    scaling = laned["4"] / laned["1"]
    if scaling < 2.0:
        failures.append(f"laned vcis=4 rate is only {scaling:.2f}x vcis=1 (gate: >= 2.0x)")
    else:
        print(f"laned scaling OK: vcis=4 at {scaling:.2f}x vcis=1")

    flat = max(shared.values()) / min(shared.values())
    if flat > 1.05:
        failures.append(f"shared-endpoint series not flat: max/min = {flat:.3f}")
    else:
        print(f"shared-endpoint flat OK: max/min = {flat:.3f}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
