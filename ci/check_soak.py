#!/usr/bin/env python3
"""CI gate: durable-journal soak — crash-resume byte-identity + divergence.

Drives the `soak` and `replay` binaries through the full robustness
scenario:

1. **Baseline**: an uninterrupted fault campaign, streamed into its
   journal by the flight recorder; saves the report and the final
   episode's Chrome trace, rebuilt from the journal.
2. **Crash**: the same campaign with `--crash-after K --torn` — after K
   episodes the process tears the journal tail mid-frame (exactly what
   a SIGKILL between `write` and frame completion leaves) and SIGKILLs
   itself. The gate *requires* the death (exit by signal 9).
3. **Resume**: reopens the torn journal, truncates the tail, finishes
   the campaign. Report and Chrome trace must be **byte-identical** to
   the baseline's.
4. **Divergence**: `replay diff` of a twin campaign at a higher loss
   rate (`--loss 70` against 60) against the baseline must name
   *episode 2, ticket 1553*, where the first packet whose fate flips
   first moves a scheduling decision, and its event-ticket window
   *[1485, 1490)* (exit 1 = divergence found); the baseline diffed
   against itself must report agreement (exit 0).

    python3 ci/check_soak.py [path/to/soak] [path/to/replay]

Everything the campaign emits is virtual-time or exact counts, so the
byte comparisons cannot flake.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = [
    "--episodes", "6",
    "--ranks", "4",
    "--messages", "16",
    "--payload", "128",
    "--loss", "60",
    "--ack-loss", "25",
    "--snapshot-every", "2",
    "--stream", "8",
    "--decisions",
]
CRASH_AFTER = "3"
# The twin differs only in its loss rate: it keeps every packet the
# baseline keeps, so the two agree up to the first flipped fate.
LOSSIER = list(CONFIG)
LOSSIER[LOSSIER.index("--loss") + 1] = "70"


def run(binary: Path, args: list[str], expect: int = 0) -> str:
    proc = subprocess.run(
        [str(binary), *args], capture_output=True, text=True, timeout=600
    )
    if proc.returncode != expect:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(
            f"FAIL: {binary.name} {' '.join(args[:2])} exited {proc.returncode}, expected {expect}"
        )
    return proc.stdout


def main() -> None:
    binary = Path(sys.argv[1] if len(sys.argv) > 1 else "target/release/soak")
    replay = Path(sys.argv[2] if len(sys.argv) > 2 else "target/release/replay")
    for b in (binary, replay):
        if not b.exists():
            raise SystemExit(f"FAIL: {b} not built (cargo build --release -p bench)")
    with tempfile.TemporaryDirectory(prefix="soak-ci-") as work:
        gate(binary, replay, Path(work))


def gate(binary: Path, replay: Path, work: Path) -> None:
    base = work / "base"
    run(binary, [
        "run", "--dir", str(base), *CONFIG,
        "--report", str(work / "base.txt"), "--chrome", str(work / "base.json"),
    ])
    print("soak gate: baseline campaign complete")

    # The crash run must die by SIGKILL: Python reports that as -9.
    crash = work / "crash"
    run(binary, [
        "run", "--dir", str(crash), *CONFIG, "--crash-after", CRASH_AFTER, "--torn",
    ], expect=-9)
    print(f"soak gate: crash run died by SIGKILL after {CRASH_AFTER} episodes (torn tail)")

    run(binary, [
        "resume", "--dir", str(crash),
        "--report", str(work / "resumed.txt"), "--chrome", str(work / "resumed.json"),
    ])
    for name in ("txt", "json"):
        a = (work / f"base.{name}").read_bytes()
        b = (work / f"resumed.{name}").read_bytes()
        if a != b:
            raise SystemExit(f"FAIL: resumed base.{name} differs from baseline ({len(a)} vs {len(b)} bytes)")
    print("soak gate: resumed report and Chrome trace are byte-identical to baseline")

    lossier = work / "lossier"
    run(binary, ["run", "--dir", str(lossier), *LOSSIER])
    verdict = run(replay, ["diff", "--a", str(base), "--b", str(lossier)], expect=1)
    if "first divergence at episode 2, ticket 1553: decision" not in verdict:
        raise SystemExit(f"FAIL: diff did not pinpoint the planted divergence: {verdict!r}")
    if "event-ticket window [1485, 1490)" not in verdict:
        raise SystemExit(f"FAIL: diff did not name the divergence's event window: {verdict!r}")
    print(f"soak gate: diff pinpointed the planted divergence: {verdict.splitlines()[0]}")

    agree = run(replay, ["diff", "--a", str(base), "--b", str(base)])
    if "agree" not in agree:
        raise SystemExit(f"FAIL: self-diff did not report agreement: {agree!r}")
    print("soak gate: self-diff agrees — OK")


if __name__ == "__main__":
    main()
