//! Time-travel replay CLI: reconstruct any recorded ticket window of a
//! streamed soak journal, offline (DESIGN §12).
//!
//! ```text
//! cargo run -p bench --bin replay -- trace   --dir D [--episode K]
//!                                            [--from-ticket A] [--to-ticket B]
//!                                            [--out PATH]
//! cargo run -p bench --bin replay -- metrics --dir D --at-episode K [--json]
//! cargo run -p bench --bin replay -- diff    --a DIR --b DIR [--radius R]
//! ```
//!
//! `trace` emits Chrome trace JSON reconstructed purely from the
//! journal's event chunks — for a whole episode it is byte-identical to
//! what the live run would have exported (`cmp`-able in CI). Without
//! `--episode` it exports the newest complete episode, also of a
//! campaign that crashed before its index listed that episode. `metrics`
//! folds the recorded per-episode deltas into the exact registry
//! snapshot at episode boundary K, cross-checked against the episode's
//! digest. `diff` finds the first episode where two journals differ
//! (their campaigns may differ only in `--loss` and `--ack-loss`);
//! when their decision streams differ there it names the first
//! divergent ticket and renders both runs' traces side by side in the
//! event window around it, else it names the differing record fields.
//! It exits 1 when a divergence is found, 0 when the runs agree (CI
//! keys off this). An unknown or repeated flag exits 2.

use std::path::Path;
use std::process::exit;

use bench::cli::{Cli, Flags};
use journal::{diff_runs, load_index, metrics_at, trace_json_for};

const FLAGS: Flags = Flags {
    values: "--dir --episode --from-ticket --to-ticket --out --at-episode --a --b --radius",
    switches: "--json",
};

fn write_or_print(cli: &Cli, text: &str) {
    match cli.value("--out") {
        Some(path) => cli.write(Path::new(&path), text.as_bytes()),
        None => print!("{text}"),
    }
}

fn main() {
    let cli = Cli::new("replay", std::env::args().skip(1).collect(), &FLAGS);
    match cli.subcommand() {
        Some("trace") => {
            let dir = cli.dir("--dir");
            // Default to the newest complete episode.
            let episode = match cli.int::<u32>("--episode") {
                Some(k) => k,
                None => {
                    let idx =
                        load_index(&dir).unwrap_or_else(|e| cli.die(&format!("load index: {e}")));
                    idx.entries
                        .last()
                        .unwrap_or_else(|| cli.die("journal has no streamed episodes"))
                        .episode
                }
            };
            let from = cli.int("--from-ticket");
            let to = cli.int("--to-ticket");
            let json = trace_json_for(&dir, episode, from, to)
                .unwrap_or_else(|e| cli.die(&format!("episode {episode}: {e}")));
            write_or_print(&cli, &json);
        }
        Some("metrics") => {
            let dir = cli.dir("--dir");
            let episode = cli
                .int::<u32>("--at-episode")
                .unwrap_or_else(|| cli.die("--at-episode is required"));
            let snap = metrics_at(&dir, episode)
                .unwrap_or_else(|e| cli.die(&format!("episode {episode}: {e}")));
            let text = if cli.set("--json") {
                snap.to_json()
            } else {
                snap.to_string()
            };
            write_or_print(&cli, &text);
        }
        Some("diff") => {
            let a = cli.dir("--a");
            let b = cli.dir("--b");
            let radius = cli.int("--radius").unwrap_or(2);
            match diff_runs(&a, &b, radius) {
                Ok(Some(diff)) => {
                    print!("{}", diff.render());
                    exit(1);
                }
                Ok(None) => {
                    println!("runs agree on every compared episode");
                    exit(0);
                }
                Err(e) => cli.die(&format!("diff: {e}")),
            }
        }
        _ => cli.die("usage: replay trace|metrics|diff (see --help in the source header)"),
    }
}
