#!/usr/bin/env bash
# Ratchets: forbidden names and line ceilings that keep a removed design
# from growing back. Each rule is one `rule` row — name, ceiling, the
# file a violation would live in, and that violation's example line —
# followed by `r_<name>`, which prints one line per hit, run from the
# root of the tree it checks. Each row's comment gives its reason and
# the change that added it.
#
#     ci/ratchets.sh
#
# The script first plants every rule's example (ceiling + 1 times) into
# an empty tree and requires that rule to fire there, so a pattern that
# matches nothing fails here rather than guarding nothing. Then it
# checks the repository.
set -uo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of a Rust file: those above its first #[cfg(test)],
# comment lines skipped.
nontest() { awk '/#\[cfg\(test\)\]/{exit} !/^\s*\/\//' "$1"; }

names=() ceilings=() plants=() examples=()
rule() { names+=("$1") ceilings+=("$2") plants+=("$3") examples+=("$4"); }

# A world is a function of its arguments: configuration is
# WorldConfig::builder(), never the environment ("zero env reads").
rule env_read 0 crates/mpich/src/planted.rs 'let eager = std::env::var("MPICH_EAGER");'
r_env_read() { grep -rnE 'env::var(_os)?\(' crates/{marcel,simnet,madeleine,mpich,journal}/src; }

# One MPI surface: a second, deprecated spelling must not regrow ("One MPI surface").
rule deprecated 0 tests/planted.rs '#[deprecated(note = "use comm.endpoint()")]'
r_deprecated() { grep -rnE '#\[deprecated|allow\(deprecated\)' crates/*/src tests examples src; }

# A world and the campaign recording it run on the OS thread that created them, so a host lock guards nothing ("One lock per simulated primitive"; journal since "One owner for the journal writer").
rule host_lock 0 crates/journal/src/planted.rs 'writer: Arc<Mutex<JournalWriter>>,'
r_host_lock() {
    for f in $(find crates/{marcel,madeleine,mpich,journal}/src -name '*.rs'); do
        nontest "$f" | sed -E 's/Sim(Mutex|Condvar)//g' | grep -E 'Mutex|RwLock|Condvar' | sed "s|^|$f: |"
    done
}

# No process-wide state: a library static holding a lock, atomic or lazy cell is shared by every world ("No process-wide state").
rule global_static 0 vendor/bytes/src/planted.rs 'static POOL: Mutex<Vec<u8>> = Mutex::new(Vec::new());'
r_global_static() {
    grep -rnE '^\s*(pub(\([a-z]+\))?\s+)?static\s+[A-Z_0-9]+\s*:.*\b(Mutex|RwLock|Atomic|Once|Lazy)' \
        crates/{marcel,simnet,madeleine,mpich,journal,baselines}/src vendor/bytes/src --include='*.rs'
}

# unsafe lives only in the fiber switch and the owned cell ("One lock per simulated primitive", "One owner per world").
rule unsafe_code 0 crates/simnet/src/planted.rs 'unsafe { std::hint::unreachable_unchecked() }'
r_unsafe_code() {
    grep -rn 'unsafe' crates/{marcel,simnet,madeleine,mpich,journal,baselines}/src --include='*.rs' |
        grep -vE '^crates/marcel/src/(fiber|owned).rs:'
}

# Rendezvous spans are re-joined in place; the one copy is the fallback for spans from different allocations ("Place rendezvous spans").
rule engine_copy 1 crates/mpich/src/engine.rs 'buf[off..off + n].copy_from_slice(&span);'
r_engine_copy() { nontest crates/mpich/src/engine.rs | grep 'copy_from_slice'; }

# mpich's per-rank state lives by value in one world table: no per-rank Arc, device trait object or Arc receiver ("One table per world").
rule world_table 0 crates/mpich/src/planted.rs 'pub fn engine(self: &Arc<Self>) -> Arc<Engine> {'
r_world_table() { grep -rnE 'Arc<Engine>|Arc<dyn Device>|MpiEnv|self: &?Arc<Self>' crates/mpich/src; }

# Shared ownership stays rare in the world's layers ("One table per world"; ceiling set by "One owner for the journal writer").
rule arc_lines 120 crates/marcel/src/planted.rs 'let shared: Arc<Kernel> = Arc::clone(&k);'
r_arc_lines() { grep -rE 'Arc<|Arc::' crates/{marcel,madeleine,mpich}/src --include='*.rs'; }

# The matching stores file every entry in its exact-key bucket only: no ordered side index ("One bucket per matching key").
rule matching_index 0 crates/mpich/src/matching.rs 'by_arrival: BTreeMap<u64, Key>,'
r_matching_index() { grep -nE 'BTreeMap|BTreeSet' crates/mpich/src/matching.rs; }

# A channel keeps per-(member, lane) state in lane-indexed rows: no (rank, vci) map ("One lane table per madeleine channel").
rule lane_map 0 crates/madeleine/src/channel.rs 'counters: HashMap<(usize, usize), Counters>,'
r_lane_map() {
    grep -nE 'HashMap<\(usize, usize\)|new_vci|counters_vci|next_block_len|fn utilization' crates/madeleine/src/channel.rs
}

# marcel bills a slot group from the adjacency of its lanes: no slot list ("One lane table per madeleine channel").
rule slot_list 0 crates/marcel/src/planted.rs 'fn share_slot(&mut self, slot: usize) {'
r_slot_list() { grep -rnE 'share_slot|seen_slots' crates/marcel/src; }

# One wait per layer over a slice of lanes: no wait-any set type, no second poll loop ("One polling wait").
rule poll_set 0 examples/planted.rs 'let set = PollSet::new(&lanes);'
r_poll_set() { grep -rnE 'PollSet|EndpointSet|fused_poll_loop' crates/*/src tests examples; }

# Every count lives once, in the kernel's metrics registry: no side counter type ("One store per count").
rule side_counter 0 crates/madeleine/src/planted.rs 'pub struct NetUtilization {'
r_side_counter() { grep -rnE 'NetUtilization|DeviceEvents|fn with_metrics' crates/*/src tests examples; }

# One request type, one ADI delivery entry per step, one engine constructor, no threads-per-rank hotpath axis ("One request type").
rule request_type 0 tests/planted.rs 'let r: CommRequest = comm.irecv(&mut buf, 0, 0);'
r_request_type() {
    grep -rnE 'CommRequest|fn deliver_eager_spanned|fn rndv_chunk_spanned|fn rndv_complete|storm_tpr|fn new_vci' \
        crates/*/src tests examples
}

# Receives go through `comm.endpoint().irecv(..)`: no `irecv` on the communicator itself ("One request type").
rule comm_irecv 0 crates/mpich/src/comm.rs 'pub fn irecv(&self) -> Request {'
r_comm_irecv() {
    awk '/^impl /{e = /^impl Endpoint /} /^}/{e = 0} /pub fn irecv/ && !e {print FILENAME ":" FNR ": " $0}' \
        crates/mpich/src/comm.rs
}

# Snapshot records are checked by CRC, cursor, totals and chain, not an unused digest ("One request type").
rule record_digest 0 crates/journal/src/record.rs 'pub fn digest(&self) -> u64 {'
r_record_digest() { grep -nE 'fn digest\(' crates/journal/src/record.rs; }

# The runnable set is one standard-library heap: no timer wheel or cursor advance ("One scheduler index from the standard library").
rule timer_wheel 0 crates/marcel/src/planted.rs 'pub fn advance_to(&mut self, now: u64) -> Vec<usize> {'
r_timer_wheel() { grep -rnE 'TimerWheel|mod wheel|fn advance_to\(&mut self' crates/marcel/src; }

# The orphan blocking queue is gone: use OneShot or a SimMutex ("One scheduler index from the standard library").
rule sync_queue 0 crates/marcel/src/sync.rs 'pub struct Queue<T> {'
r_sync_queue() { grep -nE 'pub struct Queue' crates/marcel/src/sync.rs; }

# A world's polling and execution policies live only in its cost model ("One scheduler index from the standard library").
rule policy_fields 0 crates/mpich/src/world.rs '    pub poll: PollPolicy,'
r_policy_fields() { grep -nE 'pub poll:|pub exec:' crates/mpich/src/world.rs; }

# No library atomics: counts live in the metrics registry ("One store per count").
rule atomics 0 crates/journal/src/planted.rs 'use std::sync::atomic::{AtomicU64, Ordering};'
r_atomics() { grep -rnE 'Atomic[A-Z][a-z0-9]*|sync::atomic' crates/{marcel,simnet,madeleine,mpich,journal,baselines}/src --include='*.rs'; }

# Three single-owner cells: the scheduler (with the metrics registry), a channel's host maps, an engine's allocators ("One store per count").
rule owned_cells 3 crates/mpich/src/planted.rs 'let cell = OwnedCell::new(State::default());'
r_owned_cells() { grep -rn 'OwnedCell::new(' crates --include='*.rs' | grep -v '^crates/marcel/src/owned.rs:'; }

# A trace event is compared as a typed `Event`, not through its Display text ("One behaviour manifest").
rule event_str_eq 0 crates/marcel/src/obs.rs 'impl PartialEq<&str> for Event {'
r_event_str_eq() { grep -rnE 'impl PartialEq<&str> for Event|impl PartialEq<Event> for &str' crates/*/src tests examples; }

# A commit stamps a ticket and nothing else: no per-ticket seed, and parking waits a fixed PARK_AFTER ("The commit step carries only what something reads").
rule ticket_seed 0 crates/marcel/src/planted.rs 'slot.seed = ticket_seed(self.cost.exec_seed, ticket, tid);'
r_ticket_seed() { grep -rnE 'exec_seed|ticket_seed|dispatch_seed|park_after' crates/*/src tests src examples; }

# The execution-policy label is written, never read: its four write sites only ("The commit step carries only what something reads").
rule exec_policy 4 crates/mpich/src/planted.rs 'if cost.exec_policy != ExecPolicy::Seed {'
r_exec_policy() { grep -rn 'exec_policy' crates/*/src tests src examples; }

# Outside the host benchmark nothing sets that label ("The commit step carries only what something reads").
rule exec_label 0 tests/planted.rs 'let config = WorldConfig::builder().exec(ExecPolicy::Ticketed { workers: 2 }).build();'
r_exec_label() { grep -rnE '\.exec\(|with_ticketed\(' tests examples crates/bench crates/journal crates/marcel/src/kernel.rs; }

# The journal writer has one owner at a time: the campaign, or a streamed episode's recorder, which is the kernel's sink itself ("One owner for the journal writer").
rule shared_writer 0 crates/journal/src/stream.rs 'struct ForwardSink { inner: Arc<Mutex<StreamInner>> }'
r_shared_writer() { grep -rnE 'ForwardSink|clone_handle|StreamInner|Mutex<JournalWriter>' crates/*/src; }

# Forwarding is a ch_mad setting, so forwarding without ch_mad cannot be written ("One owner for the journal writer").
rule forwarding_knob 0 crates/mpich/src/world.rs '    pub forwarding: bool,'
r_forwarding_knob() { grep -nE 'ForwardingNeedsChMad|pub forwarding:' crates/mpich/src/world.rs; }

# One divergence query: `replay diff` answers where two journals first differ; no second report type, entry point or subcommand ("One divergence query"). The split quotes keep this file from matching its own rule.
rule bisect_tool 0 crates/journal/src/planted.rs 'pub fn bisec''t(a: &Path, b: &Path) -> Result<Bisect''Report, JournalError> {'
r_bisect_tool() { grep -rnE 'Bisect''Report|fn bisec''t\(|soak bisec''t' crates tests ci; }

# A snapshot carries the cursor, totals and digest chain the reader checks: no layer exports a world capture for it, and a fault plan needs no fingerprint ("Snapshots carry what the reader checks").
rule world_capture 0 crates/madeleine/src/planted.rs 'pub fn capture(&self, metrics: &MetricsSnapshot) -> ChannelCapture {'
r_world_capture() {
    grep -rnE 'KernelCapture|ThreadCapture|ChannelCapture|SessionCapture|EngineCapture|WorldCapture|ChannelRec' crates tests examples
    grep -rn 'fn fingerprint' crates/simnet/src
}

hits() { (cd "$1" && "r_$2" 2>/dev/null); }

status=0
for i in "${!names[@]}"; do
    tree=$(mktemp -d)
    mkdir -p "$tree/$(dirname "${plants[$i]}")"
    for _ in $(seq 0 "${ceilings[$i]}"); do echo "${examples[$i]}"; done >"$tree/${plants[$i]}"
    n=$(hits "$tree" "${names[$i]}" | wc -l)
    rm -rf "$tree"
    if [ "$n" -le "${ceilings[$i]}" ]; then
        echo "ratchet self-test: ${names[$i]} does not fire on its own example" >&2
        status=1
    fi
done
echo "ratchet self-test: ${#names[@]} rules, each planted in an empty tree"

for i in "${!names[@]}"; do
    n=$(hits . "${names[$i]}" | wc -l)
    echo "${names[$i]}: $n (ceiling ${ceilings[$i]})"
    if [ "$n" -gt "${ceilings[$i]}" ]; then
        hits . "${names[$i]}" | head -20 >&2
        status=1
    fi
done
exit $status
