#!/usr/bin/env python3
"""CI gate: time-travel replay — streamed journal reconstruction.

Drives the `soak` and `replay` binaries through the DESIGN §12
acceptance scenario:

1. **Byte-identity**: a streamed campaign (`--stream 8`) exports its
   final-episode Chrome trace live; `replay trace` must reconstruct
   the same JSON **byte-identically** from the journal alone.
2. **Metrics shape + digest**: `replay metrics --json` at every
   episode boundary must parse, carry the expected top-level keys,
   and include the `journal.stream.hwm` gauge (the folded registry is
   digest-checked inside the reader, so parsing implies integrity).
3. **Bounded memory**: the hwm gauge must be *flat* across growing
   message counts under `--stream 8`, and strictly smaller than the
   unbounded-buffer hwm of the same workload — the measured form of
   "resident observability state is set by chunk size, not episode
   length".
4. **Divergence window**: `replay diff` against a planted
   `--force-fallback` twin must exit 1 and name episode 0, ticket 0
   (fallback-flag-only); the baseline diffed against itself must
   report agreement (exit 0).

    python3 ci/check_replay.py [path/to/soak] [path/to/replay]

Everything compared is virtual-time or exact counts — no flake.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = [
    "--episodes", "2",
    "--ranks", "3",
    "--messages", "8",
    "--payload", "64",
    "--snapshot-every", "1",
    "--decisions",
    "--workers", "2",
]
STREAM = "8"
FORCE_FALLBACK = "2"


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


def hwm_of(soak: Path, replay: Path, work: Path, tag: str, messages: int, stream: str) -> int:
    d = work / tag
    cfg = [a for a in CONFIG]
    cfg[cfg.index("--messages") + 1] = str(messages)
    run(soak, ["run", "--dir", str(d), *cfg, "--stream", stream])
    snap = json.loads(run(replay, ["metrics", "--dir", str(d), "--at-episode", "1", "--json"]))
    for key in ("counters", "gauges", "hists"):
        if key not in snap:
            raise SystemExit(f"FAIL: metrics JSON for {tag} lacks {key!r}: {sorted(snap)}")
    hwm = snap["gauges"].get("journal.stream.hwm")
    if not isinstance(hwm, int) or hwm <= 0:
        raise SystemExit(f"FAIL: {tag}: journal.stream.hwm missing or bogus: {hwm!r}")
    return hwm


def main() -> None:
    soak = Path(sys.argv[1] if len(sys.argv) > 1 else "target/release/soak")
    replay = Path(sys.argv[2] if len(sys.argv) > 2 else "target/release/replay")
    for b in (soak, replay):
        if not b.exists():
            raise SystemExit(f"FAIL: {b} not built (cargo build --release -p bench)")
    with tempfile.TemporaryDirectory(prefix="replay-ci-") as work:
        gate(soak, replay, Path(work))


def gate(soak: Path, replay: Path, work: Path) -> None:
    # 1. Live Chrome export vs offline reconstruction, byte for byte.
    base = work / "base"
    live = work / "live.json"
    run(soak, ["run", "--dir", str(base), *CONFIG, "--stream", STREAM, "--chrome", str(live)])
    replayed = work / "replayed.json"
    run(replay, ["trace", "--dir", str(base), "--out", str(replayed)])
    a, b = live.read_bytes(), replayed.read_bytes()
    if a != b:
        raise SystemExit(
            f"FAIL: replayed trace differs from live export ({len(a)} vs {len(b)} bytes)"
        )
    if not a:
        raise SystemExit("FAIL: live Chrome trace is empty")
    print(f"replay gate: offline trace is byte-identical to live export ({len(a)} bytes)")

    # A ticket window must be a strict, non-empty subset of the episode.
    window = run(replay, ["trace", "--dir", str(base), "--episode", "1",
                          "--from-ticket", "0", "--to-ticket", "40"])
    full = run(replay, ["trace", "--dir", str(base), "--episode", "1"])
    if not (0 < len(window) < len(full)):
        raise SystemExit(
            f"FAIL: ticket window not a strict subset ({len(window)} vs {len(full)} bytes)"
        )
    print("replay gate: ticket-window slice is a strict non-empty subset")

    # 2 + 3. Metrics JSON shape at every boundary; hwm flat vs linear.
    for ep in ("0", "1"):
        snap = json.loads(run(replay, ["metrics", "--dir", str(base), "--at-episode", ep, "--json"]))
        for key in ("counters", "gauges", "hists"):
            if key not in snap:
                raise SystemExit(f"FAIL: metrics JSON at episode {ep} lacks {key!r}")
    small = hwm_of(soak, replay, work, "hwm-s8", 8, STREAM)
    big = hwm_of(soak, replay, work, "hwm-s16", 16, STREAM)
    unbounded = hwm_of(soak, replay, work, "hwm-u16", 16, "1000000000")
    if small != big:
        raise SystemExit(f"FAIL: streamed hwm grew with workload ({small} -> {big} bytes)")
    if not big * 4 <= unbounded:
        raise SystemExit(
            f"FAIL: streamed hwm ({big} B) not well under unbounded buffering ({unbounded} B)"
        )
    print(f"replay gate: hwm flat at {small} B streamed vs {unbounded} B unbounded")

    # 4. Planted divergence localized with its event window attached.
    forced = work / "forced"
    run(soak, ["run", "--dir", str(forced), *CONFIG, "--stream", STREAM,
               "--force-fallback", FORCE_FALLBACK])
    verdict = run(replay, ["diff", "--a", str(base), "--b", str(forced)], expect=1)
    if "first divergence at episode 0, ticket 0" not in verdict:
        raise SystemExit(f"FAIL: diff did not pinpoint the planted divergence: {verdict!r}")
    if "fallback" not in verdict:
        raise SystemExit(f"FAIL: diff verdict does not mention the fallback flag: {verdict!r}")
    agree = run(replay, ["diff", "--a", str(base), "--b", str(base)])
    if "agree" not in agree:
        raise SystemExit(f"FAIL: self-diff did not report agreement: {agree!r}")
    print("replay gate: diff pinpointed episode 0, ticket 0 (fallback-only); self-diff agrees — OK")


if __name__ == "__main__":
    main()
