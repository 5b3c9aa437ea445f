//! One benchmark run: set-up processes, timed passes, the correctness
//! oracle and the metrics of `BENCHMARK.json`.
//!
//! A *pass* runs every cell of the workload once, one after another, from
//! the one driving thread. Each cell is a live application run; the
//! simulator gives each simulated processor an OS thread but lets only
//! one of them run at a time, so a pass keeps about one host CPU busy.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use midway_apps::Scale;

use crate::cells::{run_cell, Cell, CellRun, Fingerprint, Inputs, Workload};
use crate::host::{cpu_seconds, median, peak_rss_mb, steal_seconds};
use crate::layers;

/// Set-up processes per run; `setup_s` and `peak_rss_mb` are medians
/// over them.
const SETUPS: usize = 3;
/// Timed passes per run, at least, however short `--seconds` is.
const MIN_TIMED_PASSES: usize = 3;

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("host_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("data_mb", "MB"),
    ("msgs", "count"),
    ("pass_frac", "frac"),
];

/// A finished run: the oracle's verdict and the metrics it printed.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The single JSON line the benchmark prints last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The correctness oracle. The first run of each cell is its reference;
/// a cell run fails if the app does not verify or if any modelled result
/// (final-memory digests, Table-2 counters, finish time, message count,
/// virtual-time breakdown) differs from the reference.
pub struct Oracle {
    reference: Vec<Option<Fingerprint>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Oracle {
    pub fn new(cells: usize) -> Oracle {
        Oracle {
            reference: vec![None; cells],
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one run of cell `i` (`None` when the simulation failed).
    pub fn check(&mut self, i: usize, cell: &Cell, run: Option<&CellRun>) -> bool {
        let why = match run {
            None => Some("simulation failed".to_string()),
            Some(r) if !r.verified => Some("output did not verify".to_string()),
            Some(r) => self.compare(i, &r.fp, "a previous pass"),
        };
        self.count(cell, why)
    }

    /// Checks a replay of cell `i`'s trace against the live reference.
    pub fn check_replay(&mut self, i: usize, cell: &Cell, fp: Option<&Fingerprint>) -> bool {
        let why = match fp {
            None => Some("replay failed".to_string()),
            Some(fp) => self.compare(i, fp, "its trace's replay"),
        };
        self.count(cell, why)
    }

    /// Checks a set-up process's run of cell `i`, given as the hash of
    /// its modelled results (`None` when it failed or did not verify),
    /// against the reference, which must already be set.
    pub fn check_hash(&mut self, i: usize, cell: &Cell, hash: Option<u64>) -> bool {
        let want = self.reference[i].as_ref().map(Fingerprint::hash);
        let why = match hash {
            None => Some("set-up process failed or did not verify".to_string()),
            Some(h) if Some(h) == want => None,
            Some(_) => Some("modelled results differ from a set-up process".to_string()),
        };
        self.count(cell, why)
    }

    fn compare(&mut self, i: usize, fp: &Fingerprint, what: &str) -> Option<String> {
        match &self.reference[i] {
            None => {
                self.reference[i] = Some(fp.clone());
                None
            }
            Some(want) if want == fp => None,
            Some(_) => Some(format!("modelled results differ from {what}")),
        }
    }

    fn count(&mut self, cell: &Cell, why: Option<String>) -> bool {
        self.attempted += 1;
        if let Some(why) = &why {
            self.failed += 1;
            eprintln!("FAIL {}: {why}", cell.label());
        }
        why.is_none()
    }
}

/// One pass over every cell of the workload.
pub struct Pass {
    /// Wall seconds less the hypervisor's steal time over the pass.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub runs: Vec<Option<CellRun>>,
}

impl Pass {
    /// Sums `f` over the pass's successful cell runs.
    pub fn sum(&self, f: impl Fn(&CellRun) -> f64) -> f64 {
        self.runs.iter().flatten().map(f).sum()
    }
}

/// Runs every cell once (recording traces when `record` is set) and
/// checks each against the oracle.
pub fn pass(wl: &Workload, inputs: &[Inputs], record: bool, oracle: &mut Oracle) -> Pass {
    let cpu0 = cpu_seconds();
    let steal0 = steal_seconds();
    let t0 = Instant::now();
    let runs: Vec<Option<CellRun>> = wl
        .cells
        .iter()
        .zip(inputs)
        .map(|(cell, &inp)| {
            let cfg = wl.config(cell.backend).record(record);
            run_cell(inp, cfg, wl.scale)
        })
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let steal = steal_seconds() - steal0;
    let wall_s = elapsed - steal;
    for (i, (cell, run)) in wl.cells.iter().zip(&runs).enumerate() {
        oracle.check(i, cell, run.as_ref());
    }
    eprintln!(
        "  pass{} wall {elapsed:.4} s  steal {steal:.2} s  cpu {cpu_s:.2} s  peak rss {:.1} MB",
        if record { " (recorded)" } else { "" },
        peak_rss_mb()
    );
    Pass {
        wall_s,
        cpu_s,
        runs,
    }
}

/// Untraced passes for at least `seconds` (and [`MIN_TIMED_PASSES`]).
pub fn timed_passes(
    wl: &Workload,
    inputs: &[Inputs],
    seconds: f64,
    oracle: &mut Oracle,
) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_TIMED_PASSES || t0.elapsed().as_secs_f64() < seconds {
        passes.push(pass(wl, inputs, false, oracle));
    }
    passes
}

fn inputs(wl: &Workload, seed: u64) -> Vec<Inputs> {
    wl.cells
        .iter()
        .map(|c| Inputs::new(c.app, wl.scale, seed))
        .collect()
}

/// One set-up: a fresh process of this benchmark (`--cold-pass 1`) that
/// builds the inputs and runs every cell once, so set-up time and peak
/// memory are measured from a cold start each time.
pub struct Setup {
    /// Seconds from spawn to exit, less the hypervisor's steal time.
    secs: f64,
    /// The process's peak resident set after its pass.
    peak_rss_mb: f64,
    /// Per cell, the hash of its modelled results (`None` if it failed).
    hashes: Vec<Option<u64>>,
}

impl Setup {
    /// Spawns one set-up process and waits for it. `None` if it could
    /// not run or its report is malformed.
    fn spawn(exe: &Path, wl: &Workload, seed: u64) -> Option<Setup> {
        let steal0 = steal_seconds();
        let t0 = Instant::now();
        let out = Command::new(exe)
            .args(["--workload", wl.name, "--seed", &seed.to_string()])
            .args(["--cold-pass", "1"])
            .args(["--small", if wl.scale == Scale::Small { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .ok()?;
        let secs = t0.elapsed().as_secs_f64() - (steal_seconds() - steal0);
        if !out.status.success() {
            return None;
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mut fields = text.lines().last()?.split_whitespace();
        if fields.next()? != "cold" {
            return None;
        }
        let peak_rss_mb = fields.next()?.parse().ok()?;
        let hashes = fields.map(|h| u64::from_str_radix(h, 16).ok()).collect();
        Some(Setup {
            secs,
            peak_rss_mb,
            hashes,
        })
    }
}

/// The set-up process's side: one pass, then one line for [`Setup`]:
/// `cold <peak_rss_mb> <hash|fail per cell>`.
pub fn cold_pass(wl: &Workload, seed: u64) -> String {
    let mut oracle = Oracle::new(wl.cells.len());
    let p = pass(wl, &inputs(wl, seed), false, &mut oracle);
    let cells: Vec<String> = p
        .runs
        .iter()
        .map(|r| match r {
            Some(r) if r.verified => format!("{:016x}", r.fp.hash()),
            _ => "fail".to_string(),
        })
        .collect();
    format!("cold {} {}", peak_rss_mb(), cells.join(" "))
}

/// Runs the workload: end-to-end metrics when `trace` is false, the
/// per-layer split when it is true. `exe` is this benchmark's executable,
/// which the untraced run spawns for its set-up processes.
pub fn run(wl: &Workload, seed: u64, seconds: f64, trace: bool, exe: &Path) -> Report {
    let inputs = inputs(wl, seed);
    let mut oracle = Oracle::new(wl.cells.len());
    if trace {
        let metrics = layers::traced_run(wl, &inputs, seconds, &mut oracle);
        return Report {
            attempted: oracle.attempted,
            failed: oracle.failed,
            metrics,
        };
    }

    let setups: Vec<Option<Setup>> = (0..SETUPS).map(|_| Setup::spawn(exe, wl, seed)).collect();
    // The warm-up pass sets each cell's reference result.
    pass(wl, &inputs, false, &mut oracle);
    for setup in &setups {
        for (i, cell) in wl.cells.iter().enumerate() {
            let hash = setup
                .as_ref()
                .and_then(|s| s.hashes.get(i).copied().flatten());
            oracle.check_hash(i, cell, hash);
        }
    }
    let timed = timed_passes(wl, &inputs, seconds, &mut oracle);
    // Outside the timed region: record every cell once and replay its
    // trace, so the reference is also checked against the replay.
    let recorded = pass(wl, &inputs, true, &mut oracle);
    for (i, (cell, run)) in wl.cells.iter().zip(&recorded.runs).enumerate() {
        let replayed = run
            .as_ref()
            .and_then(|r| r.trace.as_ref())
            .and_then(|t| layers::replay(t, false).ok())
            .map(|(fp, _)| fp);
        oracle.check_replay(i, cell, replayed.as_ref());
    }

    let reference = &timed[0];
    let setups: Vec<&Setup> = setups.iter().flatten().collect();
    let values = [
        median(&timed.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        median(&timed.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
        median(&setups.iter().map(|s| s.peak_rss_mb).collect::<Vec<_>>()),
        median(&setups.iter().map(|s| s.secs).collect::<Vec<_>>()),
        reference.sum(|r| r.sim_s),
        reference.sum(|r| r.data_mb),
        reference.sum(|r| r.fp.messages as f64),
        1.0 - oracle.failed as f64 / oracle.attempted.max(1) as f64,
    ];
    Report {
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
    }
}
