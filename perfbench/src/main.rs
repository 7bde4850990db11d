//! The repository benchmark: simulated frame-hops per unit of host time on
//! TPP workloads, plus a traced run that charges each workload's wall
//! clock to the simulator's layers.
//!
//! ```text
//! tpp-perfbench --workload <dc_probe|wan_rcp_x2>
//!               --seed <n> --seconds <s> --trace <0|1>
//! tpp-perfbench --pin      # print the digests to pin, checking 1 vs 2 shards
//! ```
//!
//! With `--trace 0` it repeats the workload for `--seconds`, checks every
//! run's `NetStats::digest`, and prints the end-to-end metrics. Host time is
//! counted in units of the fixed reference loop run between the simulator
//! runs (see `reference`), because the host's own speed drifts: the
//! headline `hops_per_ref` is the frame-hops one run delivers per
//! reference unit of its wall time; the raw frame-hops per second are
//! printed too, as a comment line and in the traced run. With
//! `--trace 1` it prints the per-layer metrics and the ledger line
//! `host.s + switch.est_s + sched.est_s + net.rest_s = run_s`. The last
//! line of standard output is always one JSON object.

mod alloc;
mod reference;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use reference::RefLoop;
use workload::{Workload, ALL};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured runs per process at least, whatever `--seconds` says: the first
/// is a warm-up excluded from the medians.
const MIN_RUNS: usize = 3;
/// Extra set-ups timed per process, on top of one per measured run.
const SETUP_SAMPLES: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--pin") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds, trace }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return pin(),
        Err(e) => {
            eprintln!("tpp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Report::default();
    if args.trace {
        trace::traced(args.workload, args.seed, args.seconds, &mut out);
    } else {
        measured(&args, &mut out);
    }
    out.print();
    ExitCode::SUCCESS
}

/// One untraced run of a workload: what the end-to-end metrics are made of.
pub struct RunSample {
    pub setup_s: f64,
    pub run_s: f64,
    pub frames: u64,
    pub allocs: u64,
    pub digest: u64,
}

/// Set up and run `w` once with no instrumentation.
pub fn run_once(w: Workload, seed: u64, shards: usize) -> RunSample {
    let mut s = w.setup(seed, shards, &mut |app| app);
    let a0 = alloc::Allocs::now();
    let t0 = Instant::now();
    s.sim.run_until(w.horizon());
    let run_s = t0.elapsed().as_secs_f64();
    let allocs = alloc::Allocs::now().since(a0).total();
    let stats = s.sim.stats();
    RunSample {
        setup_s: s.setup_s,
        run_s,
        frames: stats.frames_delivered,
        allocs,
        digest: stats.digest(),
    }
}

/// Correctness bookkeeping shared by both modes: every simulation run is an
/// attempt; a panic or a digest other than the expected one is a failure.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Run `f` as one attempt; returns `None` (and counts a failure) if it
    /// panicked.
    pub fn attempt<T>(&mut self, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        let r = catch_unwind(AssertUnwindSafe(f)).ok();
        if r.is_none() {
            self.failed += 1;
        }
        r
    }

    /// Count a failure when `got` differs from `want`.
    pub fn check_digest(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.failed += 1;
            eprintln!("digest mismatch ({what}): got {got:016x}, expected {want:016x}");
        }
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<34} {:>16.6} share ({} of {} runs)",
            "fail_frac", fail_frac, self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number: finite values print with every digit (`{:?}` is
/// shortest-round-trip), anything else as 0 flagged on stderr.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        eprintln!("non-finite metric value {v}; reported as 0");
        "0.0".to_string()
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Re-run `(w, seed)` at the other shard count (1 ↔ 2): the simulator's
/// behaviour contract is digest equality across partitionings.
fn cross_check(w: Workload, seed: u64, want: u64, out: &mut Report) {
    let shards = if w.shards() == 1 { 2 } else { 1 };
    if let Some(s) = out.attempt(|| run_once(w, seed, shards)) {
        out.check_digest(&format!("{} at {shards} shard(s)", w.name()), s.digest, want);
    }
}

fn measured(args: &Args, out: &mut Report) {
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut setups = Vec::new();
    let mut want = None;
    let mut rss_mb = 0.0;
    let mut reference = None;
    // Reference units bracketing each timed run: the one before it and
    // the one after it.
    let mut ref_units = Vec::new();
    while samples.len() < MIN_RUNS || started.elapsed() < budget {
        let Some(s) = out.attempt(|| run_once(w, args.seed, w.shards())) else {
            if out.failed >= 3 {
                break;
            }
            continue;
        };
        // Every run must reproduce the pinned digest; for an unpinned seed,
        // the first run's, which `cross_check` confirms afterwards.
        let expected = *want.get_or_insert_with(|| w.pinned_digest(args.seed).unwrap_or(s.digest));
        out.check_digest(w.name(), s.digest, expected);
        match &mut reference {
            None => {
                // Set-up is a few milliseconds: sample it many times, once
                // the first run has paid the process's page faults and lazy
                // initialisation.
                for _ in 0..SETUP_SAMPLES {
                    setups.push(w.setup(args.seed, w.shards(), &mut |app| app).setup_s);
                }
                // Every run repeats the same allocations, so the peak is
                // reached by now; read it before the reference loop adds
                // its own few MiB.
                rss_mb = peak_rss_mb();
                let mut r = RefLoop::new();
                ref_units.push(r.unit());
                reference = Some(r);
            }
            Some(r) => ref_units.push(r.unit()),
        }
        samples.push(s);
    }
    if let Some(want) = want {
        if w.pinned_digest(args.seed).is_none() {
            cross_check(w, args.seed, want, out);
        }
    }
    if samples.len() < 2 {
        return;
    }
    // The first run is the warm-up; the medians describe the steady state.
    // Run i (i >= 1) sits between reference units i - 1 and i.
    let steady = &samples[1..];
    let ref_s: Vec<f64> = ref_units.windows(2).map(|p| (p[0] + p[1]) / 2.0).collect();
    let hops_per_ref =
        median(steady.iter().zip(&ref_s).map(|(s, r)| s.frames as f64 * r / s.run_s).collect());
    let hops_per_s = median(steady.iter().map(|s| s.frames as f64 / s.run_s).collect());
    setups.extend(steady.iter().map(|s| s.setup_s));
    let setup_s = median(setups);
    let allocs_per_hop = median(steady.iter().map(|s| s.allocs as f64 / s.frames as f64).collect());
    out.metric("hops_per_ref", hops_per_ref, "frame-hops/ref");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss_mb, "MiB");
    out.metric("allocs_per_hop", allocs_per_hop, "count");
    println!(
        "# {}: seed {}, {} runs ({} timed), {} frame-hops per run, {} shard(s), \
         {hops_per_s:.0} frame-hops/s, reference unit {:.4} s",
        w.name(),
        args.seed,
        samples.len(),
        steady.len(),
        samples[0].frames,
        w.shards(),
        median(ref_s),
    );
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print the digest of every workload at the default and held-out seed, at
/// 1 and 2 shards, and fail if the two shard counts disagree.
fn pin() -> ExitCode {
    let mut ok = true;
    for w in ALL {
        for seed in [1, 2] {
            let d1 = run_once(w, seed, 1).digest;
            let d2 = run_once(w, seed, 2).digest;
            let pinned = w.pinned_digest(seed);
            println!(
                "{} seed {seed}: 1 shard {d1:#018x}, 2 shards {d2:#018x}, pinned {}",
                w.name(),
                pinned.map_or("none".to_string(), |p| format!("{p:#018x}"))
            );
            ok &= d1 == d2 && pinned.is_none_or(|p| p == d1);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("digests disagree");
        ExitCode::FAILURE
    }
}
