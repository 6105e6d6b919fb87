//! `perfbench`: the repository's benchmark. Three seeded workloads drive
//! the Cas-OFFinder reproduction — the paper's serial searches and the
//! serving stack — and report end-to-end metrics on the host-wall and the
//! simulated-device clocks; a separate traced run reports per-layer
//! metrics. `README.md` beside this crate defines every workload and
//! metric. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_search --seed 1 --seconds 20 --trace 0
//! ```

mod layers;
mod paper;
mod record;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

/// The workloads, by command-line name.
const WORKLOADS: [&str; 3] = ["paper_search", "serve_mixed", "library_screen"];

/// A seed kept out of tuning, on which a claimed change is confirmed.
pub const HELD_OUT_SEED: u64 = 20_231_113;

const USAGE: &str = "usage: perfbench --workload paper_search|serve_mixed|library_screen \
                     --seed <u64> --seconds <s> --trace 0|1";

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Child mode: one cold set-up, its seconds printed, nothing measured.
    pub setup_only: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = argv.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value} is outside (0, 120]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => return Err(format!("bad argument: {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; run it with --release");
        return ExitCode::from(2);
    }
    if args.setup_only {
        let setup = match args.workload.as_str() {
            "paper_search" => Ok(paper::setup_once()),
            "serve_mixed" => serve::setup_mixed(args.seed),
            _ => serve::setup_library(args.seed),
        };
        return match setup {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("perfbench: set-up failed: {why}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match args.workload.as_str() {
        "paper_search" => paper::run(&args),
        "serve_mixed" => serve::run_mixed(&args),
        _ => serve::run_library(&args),
    };
    match outcome {
        Ok(outcome) => record::emit(&args, &outcome),
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{paper, serve};

    #[test]
    fn the_seed_alone_decides_the_catalog_and_the_submission_order() {
        assert_eq!(serve::mixed_catalog(1), serve::mixed_catalog(1));
        assert_ne!(serve::mixed_catalog(1), serve::mixed_catalog(2));
        assert_eq!(serve::library_catalog(1), serve::library_catalog(1));
        assert_ne!(serve::library_catalog(1), serve::library_catalog(2));
        let orders = |seed| paper::round_orders(seed).take(4).collect::<Vec<_>>();
        assert_eq!(orders(1), orders(1));
        assert_ne!(orders(1), orders(2));
    }
}
