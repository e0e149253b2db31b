//! `cargo run --release --manifest-path e2ebench/Cargo.toml -- --workload
//! <archive-large|serve-small|seek-range> --seed <n> --seconds <s>
//! --trace <0|1>`: one benchmark run. The last line of standard output is
//! the JSON result; everything above it is for people.

use std::path::Path;
use std::process::ExitCode;

use tcgen_e2ebench::inputs::Scale;
use tcgen_e2ebench::{describe, host, result_line, run, spans, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    bad("unknown workload (archive-large, serve-small or seek-range)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                seconds = Some(s.max(0.0));
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

fn main() -> ExitCode {
    match bench() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench() -> Result<(), String> {
    let args = parse_args()?;
    // Sockets and span files live in the benchmark's own `out` directory;
    // socket paths are kept relative because unix socket paths are short.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    std::env::set_current_dir(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "e2ebench workload {} seed {} seconds {} trace {} cpus {cpus}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let drift_start = host::drift_loop_ms();
    let report = run(args.workload, args.seed, args.seconds, args.traced, &Scale::FULL)?;
    let drift_end = host::drift_loop_ms();

    for m in &report.metrics {
        println!("metric {}", describe(m));
    }
    for line in &report.lines {
        println!("{line}");
    }
    println!("host_drift_ms start {drift_start:.2} end {drift_end:.2}");
    for e in &report.tally.errors {
        println!("failed: {e}");
    }
    if args.traced {
        let path = out.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        std::fs::write(&path, spans::to_json(&report.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans {} written to {}", report.spans.len(), path.display());
    }
    println!("{}", result_line(&report.tally, &report.metrics)?);
    Ok(())
}
