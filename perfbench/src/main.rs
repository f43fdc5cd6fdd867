//! Fleet-scale enforcement benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-steady --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Replays a seeded `legaliot-fleet` script through the public API of the
//! dataplane (one shard thread, one generator thread) or the synchronous bus,
//! checks every delivery against the fleet oracle, and prints its metrics by
//! name with units. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
//! are the end-to-end ones; with `--trace 1` the run records the benchmark's
//! own spans around each call into the system, writes them out, and reports
//! the per-layer metrics, the mean-latency ledger and the tracing overhead.
//! The command exits non-zero on any oracle, chain or accounting mismatch.

mod drive;
mod metrics;
mod report;
mod script;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Scale, Workload};

const USAGE: &str = "usage: legaliot-perfbench --workload <fleet-steady|audit-durable|context-churn|bus-inline> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        traced: traced.unwrap_or(false),
    })
}

/// Where the run keeps its scratch audit segments and trace: under the build
/// directory, inside the checkout.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench-work")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = work_dir();
    let data_dir = work.join(format!("run-{}", std::process::id()));
    let outcome =
        metrics::run(args.workload, args.seed, args.seconds, args.traced, &Scale::FULL, &data_dir);
    let _ = std::fs::remove_dir_all(&data_dir);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    print!("{}", outcome.text);
    if args.traced {
        let path = work.join(format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed));
        match outcome.trace.write(&path) {
            Ok(()) => println!(
                "spans written: {} ({} spans, {} over the cap)",
                path.display(),
                outcome.trace.spans().len(),
                outcome.trace.dropped
            ),
            Err(error) => println!("spans not written: {error}"),
        }
    }
    let names = if args.traced { metrics::PER_LAYER } else { metrics::END_TO_END };
    let names: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
    println!("{}", outcome.sheet.result_json(&outcome.tally, &names));
    if outcome.tally.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
