//! The dasched benchmark: four workloads from problem to verified outcome
//! and from SUBMIT to RESULT, timed layer by layer from outside the
//! program through its public API.
//!
//! Usage: `dasbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Workloads: `private_sweep`, `uniform_sweep`, `networked`, `serve_open`
//! (see `README.md` beside this package). With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` the
//! per-layer ones. The exit code is nonzero when any trial or job failed
//! or an exact count moved between runs of one seed.

mod report;
mod serve_open;
mod stats;
mod sweep;
mod wire;

use std::time::Instant;

const USAGE: &str = "usage: dasbench --workload private_sweep|uniform_sweep|networked|serve_open \
--seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .unwrap_or_else(|| usage("--seconds must be in (0, 120]"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            other => usage(&format!("unexpected argument `{other}`")),
        }
    }
    args
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    let mut out = match args.workload.as_str() {
        "serve_open" => serve_open::run(args.seed, args.seconds, args.trace, started),
        name => {
            let sweep = match name {
                "private_sweep" => sweep::private_sweep(),
                "uniform_sweep" => sweep::uniform_sweep(),
                "networked" => sweep::networked(),
                "" => usage("--workload is required"),
                other => usage(&format!("unknown workload `{other}`")),
            };
            sweep::run(&sweep, args.seed, args.seconds, args.trace, started)
        }
    };
    let trace = if args.trace { 1 } else { 0 };
    for moved in report::check_ledger(
        &format!("{}-t{trace}", args.workload),
        args.seed,
        &out.counts,
    ) {
        out.problem(moved);
    }

    println!(
        "workload {} seed {} trace {trace}",
        args.workload, args.seed
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (k, v) in &out.counts {
        println!("  count {k} {v}");
    }
    for p in &out.problems {
        eprintln!("FAILED: {p}");
    }
    println!("{}", report::result_line(&out, args.trace));
    if !out.correct() {
        std::process::exit(1);
    }
}
