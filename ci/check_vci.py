#!/usr/bin/env python3
"""CI gates for the VCI (virtual communication interface) subsystem.

Two modes:

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

``--env-sweep <vcis>``
    Run every deterministic bench binary under ``MPICH_VCIS=<vcis>``.
    At vcis=1 the stdout of each bin is byte-diffed against a run with
    the variable unset: the env override at 1 lane must be a perfect
    no-op. At vcis>1 the bins must merely succeed (their virtual
    timings legitimately change once traffic spreads across lanes —
    correctness there is the test suite's job, not this gate's).

Every figure the benches print is *virtual* time or an exact count, so
an empty diff means the same scheduling decisions. Two exceptions:
``hotpath`` reports HOST wall-clock alongside its deterministic fields
(lines carrying a wall figure are dropped from both sides before the
diff), and ``trace`` also writes a Chrome trace JSON (the two exports
are compared byte for byte). The ``all`` aggregator is skipped (it
re-runs the figure benches this script already sweeps).
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "vci_baseline.json"

# (binary, extra args) — iteration counts kept small: determinism does
# not depend on them.
BINS = [
    ("fig6", ["1"]),
    ("fig7", ["1"]),
    ("fig8", ["1"]),
    ("fig9", ["1"]),
    ("table1", ["1"]),
    ("table2", ["1"]),
    ("overhead", ["1"]),
    ("collectives", ["1"]),
    ("degraded", ["1"]),
    ("forwarding", ["1"]),
    ("multirail", ["1"]),
    ("hotpath", ["1"]),
    ("trace", ["2"]),  # --chrome <file> appended per run
]

# Host wall-clock leaks in hotpath's output; every such line carries one
# of these markers (the ticketed sweep table, the hotpath: summary line,
# and the JSON footer). Everything else the benches print is virtual.
WALL_LINE = re.compile(r"wall_ms|events_per_sec|speedup|Ticketed@|\bSeed\s+[\d.]+\s+1\.00\b")


def run_bin(bindir: Path, name: str, args: list[str], chrome: Path | None) -> str:
    """Run one bench bin with no MPICH_VCIS override; its deterministic stdout."""
    env = dict(os.environ)
    env.pop("MPICH_VCIS", None)
    cmd = [str(bindir / name), *args]
    if chrome is not None:
        cmd += ["--chrome", str(chrome)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = proc.stdout
    if name == "hotpath":
        out = "\n".join(l for l in out.splitlines() if not WALL_LINE.search(l))
    elif name == "trace":
        # The bin echoes the --chrome path, which this script varies per
        # run; the files themselves are compared byte for byte instead.
        out = "\n".join(l for l in out.splitlines() if not l.startswith("[chrome]"))
    return out


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


def env_sweep(vcis: str) -> int:
    import tempfile

    bindir = Path("target") / "release"
    failures = []
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        for name, args in BINS:
            if not (bindir / name).exists():
                failures.append(f"{name}: binary not built (cargo build --release -p bench)")
                continue
            chrome = tmp / f"{name}-v{vcis}.json" if name == "trace" else None
            env = dict(os.environ)
            env["MPICH_VCIS"] = vcis
            cmd = [str(bindir / name), *args]
            if chrome is not None:
                cmd += ["--chrome", str(chrome)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            if proc.returncode != 0:
                failures.append(
                    f"{name}: exited {proc.returncode} under MPICH_VCIS={vcis}:\n"
                    f"{proc.stderr[-2000:]}"
                )
                continue
            if vcis == "1":
                # MPICH_VCIS=1 must be a byte-perfect no-op.
                base_chrome = tmp / f"{name}-base.json" if name == "trace" else None
                base_out = run_bin(bindir, name, args, base_chrome)
                vci_out = proc.stdout
                if name == "hotpath":
                    vci_out = "\n".join(
                        l for l in vci_out.splitlines() if not WALL_LINE.search(l)
                    )
                elif name == "trace":
                    vci_out = "\n".join(
                        l for l in vci_out.splitlines() if not l.startswith("[chrome]")
                    )
                if vci_out != base_out:
                    failures.append(f"{name}: stdout diverged under MPICH_VCIS=1")
                if base_chrome and base_chrome.read_bytes() != chrome.read_bytes():
                    failures.append(f"{name}: chrome trace diverged under MPICH_VCIS=1")
            print(f"{name}: OK under MPICH_VCIS={vcis}")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        mode = "byte-identical" if vcis == "1" else "smoke"
        print(f"vci env sweep OK ({len(BINS)} bins, MPICH_VCIS={vcis}, {mode})")
    return 1 if failures else 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--gate":
        return gate(sys.argv[2])
    if len(sys.argv) == 3 and sys.argv[1] == "--env-sweep":
        return env_sweep(sys.argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
