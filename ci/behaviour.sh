#!/usr/bin/env bash
# Behaviour manifest: run every deterministic artifact of the stack —
# the paper's tables and figures, the extension reports, the event
# traces, four soak journals and the replay tools — and write one
# `sha256sum` line per artifact to target/behaviour/manifest.sha256.
#
#     ci/behaviour.sh && diff ci/behaviour.sha256 target/behaviour/manifest.sha256
#
# A diff line names an artifact whose bytes moved. A change that moves
# behaviour on purpose regenerates the pin with
# `cp target/behaviour/manifest.sha256 ci/behaviour.sha256` and names
# every moved line, and why, in its change notes. Everything here is
# virtual time or exact counts, so two runs on one commit agree.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet -p bench --bins
bin=target/release
out=target/behaviour
rm -rf "$out"
mkdir -p "$out"
export BENCH_JSON_DIR="$out/bench-results"

# Bench bins at CI's arguments: stdout, plus their bench-results files.
run() {
    local name=$1
    shift
    "$bin/$1" "${@:2}" >"$out/$name.txt"
}
run all-1 all 1
run overhead-2 overhead 2
run collectives-2 collectives 2
run forwarding-1 forwarding 1
run vci vci
run trace-2 trace 2
run trace-4 trace 4 --chrome "$out/trace-4.chrome.json"
run hotpath-2 hotpath 2

# Four soak campaigns at check_soak.py's shape: clean, lossy, lossy
# streamed, and lossy streamed with a planted forced fallback. No
# --workers flag: the host execution policy moves no byte.
soak=(--episodes 6 --ranks 4 --messages 16 --payload 128 --snapshot-every 2 --decisions)
lossy=(--loss 60 --ack-loss 25)
campaign() {
    local name=$1
    shift
    "$bin/soak" run --dir "$out/soak/$name" "${soak[@]}" "$@" \
        --report "$out/soak/$name.report" --chrome "$out/soak/$name.chrome.json" \
        >/dev/null 2>&1
}
campaign clean --loss 0 --ack-loss 0
campaign lossy "${lossy[@]}"
campaign stream "${lossy[@]}" --stream 8
campaign forced "${lossy[@]}" --stream 8 --force-fallback 4

# The replay tools over the streamed pair. `diff` exits 1 on the
# divergence it is meant to find.
"$bin/replay" trace --dir "$out/soak/stream" >"$out/replay-trace.txt"
"$bin/replay" metrics --dir "$out/soak/stream" --at-episode 5 --json >"$out/replay-metrics.txt"
"$bin/replay" diff --a "$out/soak/stream" --b "$out/soak/forced" >"$out/replay-diff.txt" || test $? -eq 1

cd "$out"
find . -type f ! -name 'manifest.sha256*' | sed 's|^\./||' | LC_ALL=C sort | xargs sha256sum >manifest.sha256.tmp
mv manifest.sha256.tmp manifest.sha256
echo "behaviour: $(wc -l <manifest.sha256) artifacts hashed into $out/manifest.sha256"
