#!/usr/bin/env python3
"""CI gate for the VCI (virtual communication interface) subsystem.

``--gate <vci.out>``
    Parse the JSON footer the ``vci`` bench prints and enforce the
    headline result of the multi-VCI design:

    * ``laned`` message rate at vcis=4 must be at least 2x the vcis=1
      rate (the ISSUE's scaling gate; the measured figure is ~3.9x);
    * the ``shared-endpoint`` series must stay flat (every rate within
      5% of its vcis=1 rate) — one pinned lane cannot scale;
    * the vcis=1 rate must match the committed baseline
      ``ci/vci_baseline.json`` within 0.1% — virtual time is
      deterministic, so a drift here is a behavior change at the
      default configuration, not noise.

Lane counts above 1 on the other network shapes (meta-cluster, striped
rails, forwarding, faults) are ``tests/vci.rs``'s job.
"""

import json
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "vci_baseline.json"


def gate(out_path: str) -> int:
    footer = None
    for line in Path(out_path).read_text().splitlines():
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

    base = json.loads(BASELINE.read_text())["vci_storm"]
    if footer["msgs_per_thread"] == base["msgs_per_thread"]:
        drift = abs(laned["1"] - base["laned"]["1"]) / base["laned"]["1"]
        if drift > 1e-3:
            failures.append(
                f"vcis=1 rate {laned['1']} drifted {drift * 100:.2f}% from "
                f"baseline {base['laned']['1']} (virtual time is deterministic)"
            )
        else:
            print(f"vcis=1 baseline OK: {laned['1']} msgs/s (drift {drift * 100:.3f}%)")
    else:
        print("baseline skipped: msgs_per_thread differs from committed baseline")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--gate":
        return gate(sys.argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
