#!/usr/bin/env bash
# Behaviour manifest: run every deterministic artifact of the stack —
# the paper's tables and figures, the extension reports, the event
# traces, four soak journals and the replay tools — and write one
# `sha256sum` line per artifact to target/behaviour/manifest.sha256.
#
#     ci/behaviour.sh [BIN_DIR [OUT_DIR]]
#     diff ci/behaviour.sha256 target/behaviour/manifest.sha256
#
# With no arguments it builds the release bench bins and works in the
# repository root. Given BIN_DIR, it runs the bench bins found there and
# builds nothing. Given OUT_DIR, it works there instead: the artifacts
# and the manifest go to OUT_DIR/target/behaviour, since the bins print
# their output paths relative to the working directory and the pin holds
# those lines. Both paths are read relative to the caller's directory.
# The tier-1 test `behaviour_manifest_is_unchanged`
# (crates/bench/tests/behaviour.rs) runs it on the test-profile bins.
#
# A diff line names an artifact whose bytes moved. A change that moves
# behaviour on purpose regenerates the pin with
# `cp target/behaviour/manifest.sha256 ci/behaviour.sha256` and names
# every moved line, and why, in its change notes. Everything here is
# virtual time or exact counts, so two runs on one commit agree.
set -euo pipefail
bin=${1:-} work=${2:-}
[ -z "$bin" ] || bin=$(cd "$bin" && pwd)
[ -z "$work" ] || work=$(mkdir -p "$work" && cd "$work" && pwd)
cd "$(dirname "$0")/.."

if [ -z "$bin" ]; then
    cargo build --release --quiet -p bench --bins
    bin=$PWD/target/release
fi
[ -z "$work" ] || cd "$work"
out=target/behaviour
rm -rf "$out"
mkdir -p "$out"
export BENCH_JSON_DIR="$out/bench-results"

# Bench bins at CI's arguments: stdout, plus their bench-results files.
# `all` takes most of the run, so the others run beside it; `overhead`
# rewrites the bench-results files of `all`'s overhead run, so it waits.
run() {
    local name=$1
    shift
    "$bin/$1" "${@:2}" >"$out/$name.txt"
}
run all-1 all 1 &
all=$!
run collectives-2 collectives 2
run forwarding-1 forwarding 1
run vci vci
run trace-2 trace 2
run trace-4 trace 4 --chrome "$out/trace-4.chrome.json"
run hotpath-2 hotpath 2
wait $all
run overhead-2 overhead 2

# Three soak campaigns of one shape, every one streamed: clean, lossy
# (`stream`), and a lossier twin (loss 70 against 60) that plants the
# divergence `replay diff` finds.
soak=(--episodes 6 --ranks 4 --messages 16 --payload 128 --snapshot-every 2 --stream 8 --decisions)
lossy=(--loss 60 --ack-loss 25)
campaign() {
    local name=$1
    shift
    "$bin/soak" run --dir "$out/soak/$name" "${soak[@]}" "$@" \
        --report "$out/soak/$name.report" --chrome "$out/soak/$name.chrome.json" \
        >/dev/null 2>&1
}
campaign clean --loss 0 --ack-loss 0
campaign stream "${lossy[@]}"
campaign lossier --loss 70 --ack-loss 25

# The fourth, `crashed`, is `stream` killed after 3 episodes: it tears
# its journal mid-frame (what a SIGKILL between `write` and the frame's
# end leaves) and SIGKILLs itself, which it must die of (exit 137).
# `resume` truncates the torn tail and finishes the campaign; its report
# and Chrome trace must equal `stream`'s byte for byte.
status=0
"$bin/soak" run --dir "$out/soak/crashed" "${soak[@]}" "${lossy[@]}" --crash-after 3 --torn \
    >/dev/null 2>&1 || status=$?
if [ "$status" -ne 137 ]; then
    echo "behaviour: the crashed campaign exited $status, not by SIGKILL (137)" >&2
    exit 1
fi
"$bin/soak" resume --dir "$out/soak/crashed" \
    --report "$out/soak/crashed.report" --chrome "$out/soak/crashed.chrome.json" >/dev/null 2>&1
cmp "$out/soak/stream.report" "$out/soak/crashed.report"
cmp "$out/soak/stream.chrome.json" "$out/soak/crashed.chrome.json"

# The replay tools over the lossy pair. `trace` rebuilds the final
# episode's Chrome trace from the journal alone: it must equal the live
# export byte for byte. `diff` exits 1 on the divergence it is meant to
# find, and 0 on a journal against itself.
"$bin/replay" trace --dir "$out/soak/stream" >"$out/replay-trace.txt"
cmp "$out/replay-trace.txt" "$out/soak/stream.chrome.json"
"$bin/replay" metrics --dir "$out/soak/stream" --at-episode 5 --json >"$out/replay-metrics.txt"
"$bin/replay" diff --a "$out/soak/stream" --b "$out/soak/lossier" >"$out/replay-diff.txt" || test $? -eq 1
"$bin/replay" diff --a "$out/soak/stream" --b "$out/soak/stream" >"$out/replay-self-diff.txt"

cd "$out"
find . -type f ! -name 'manifest.sha256*' | sed 's|^\./||' | LC_ALL=C sort | xargs sha256sum >manifest.sha256.tmp
mv manifest.sha256.tmp manifest.sha256
echo "behaviour: $(wc -l <manifest.sha256) artifacts hashed into $out/manifest.sha256"
