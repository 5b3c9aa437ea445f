//! Command-line entry point; see the library docs and `README.md`.

use std::process::ExitCode;

use hostbench::bench;
use hostbench::cells::{Workload, WORKLOADS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run as one of the run's set-up processes.
    cold_pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let mut small = false;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut cold_pass = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--small" => small = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--cold-pass" => cold_pass = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name, small).ok_or(format!(
        "unknown workload {name:?} (expected one of {WORKLOADS:?})"
    ))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        cold_pass,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = &args.workload;
    if args.cold_pass {
        println!("{}", bench::cold_pass(wl, args.seed));
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "hostbench: {} ({} cells, {} procs, {:?} inputs), seed {}, {} s, trace {}",
        wl.name,
        wl.cells.len(),
        wl.procs,
        wl.scale,
        args.seed,
        args.seconds,
        args.trace
    );
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("hostbench: cannot locate this executable for set-up runs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = bench::run(wl, args.seed, args.seconds, args.trace, &exe);
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<28} {value:>14.6} {unit}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
