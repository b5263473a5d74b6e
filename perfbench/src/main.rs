//! One benchmark for the figure simulator, the city engine and the
//! decision service.
//!
//! ```text
//! dtn-perfbench --workload <fig10-mit|city-10k|serve-200> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every instrument
//! off. `--trace 1` runs the committed instance untraced, traced and
//! untraced again, gates their outputs against each other and against
//! the library's own entry points, and prints the per-layer table. The last
//! line of standard output is always one JSON object; the exit code is
//! non-zero on any correctness mismatch. See `README.md`.

mod city;
mod fig10;
mod ops;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A fingerprint field `perfbench/run.py` reads at every run (the
/// compiler version and the source commit, so neither can go stale in a
/// reused build).
fn fingerprint_var(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unknown".into())
}

/// A number is comparable only with numbers from the same host: print
/// what the host and the build were.
fn print_fingerprint(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc {nproc}, dtn_core::par workers {} (DTN_THREADS={}), {}, commit {}, \
         workload {} seed {} seconds {} trace {}",
        dtn_core::par::effective_workers(0, usize::MAX),
        std::env::var("DTN_THREADS").unwrap_or_else(|_| "unset".into()),
        fingerprint_var("PERFBENCH_RUSTC"),
        fingerprint_var("PERFBENCH_COMMIT"),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "fig10-mit" => fig10::run,
        "city-10k" => city::run,
        "serve-200" => serve::run,
        other => {
            eprintln!("dtn-perfbench: unknown workload {other:?} (fig10-mit, city-10k, serve-200)");
            return ExitCode::from(2);
        }
    };
    print_fingerprint(&args);
    if run(args.seed, args.seconds, args.trace).print(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
