//! End-to-end and per-layer benchmark of the query service and the
//! τ-leap ensemble engine.
//!
//! ```text
//! mfu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads, their op lists and known defects live in `manifest.json`.
//! A run makes an untimed warm-up, then a fixed number of timed passes
//! over the workload's ops, and prints diagnostics as `# ` lines and the
//! result as one JSON object on the last line of standard output. Every
//! pass repeats the same ops; an op's latency is its fastest repeat. With
//! `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a traced run, whose answers are checked
//! bit-identical to the untraced run's.

mod bound;
mod cold;
mod ensemble;
mod hot;
mod layers;
mod manifest;
mod pin;
mod report;
mod served;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use mfu_core::artifact::BoundMethod;
use mfu_lang::scenarios::ScenarioRegistry;

use crate::cold::{ColdOps, Traced};
use crate::layers::Tally;
use crate::manifest::Entry;
use crate::report::Measured;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| {
        flags
            .remove(flag)
            .ok_or_else(|| format!("missing `{flag} <value>`"))
    };
    let number = |flag: &str, value: String| {
        value
            .parse::<u64>()
            .map_err(|_| format!("`{flag}` takes a whole number, got `{value}`"))
    };
    let args = Args {
        workload: take("--workload")?,
        seed: number("--seed", take("--seed")?)?,
        seconds: number("--seconds", take("--seconds")?)?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("`--trace` takes 0 or 1, got `{other}`")),
        },
    };
    match flags.keys().next() {
        Some(flag) => Err(format!("unknown flag `{flag}`")),
        None => Ok(args),
    }
}

/// A fixed CPU kernel, timed in milliseconds. Printed at the start and
/// end of a run as a machine-drift diagnostic; never used to scale a
/// metric.
fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut acc = 0.0_f64;
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64).sqrt();
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process (`VmHWM`), in megabytes.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}

/// Layers a workload's op list does not reach, measured on one small
/// fixed probe so every traced run reports every layer: a served `sis`
/// query per method and a `sis` ensemble cell.
fn probe(seed: u64, m: &mut Measured) -> Result<Tally, String> {
    let registry = ScenarioRegistry::with_builtins();
    let sis = [BoundMethod::Pontryagin, BoundMethod::Hull].map(|m| ("sis".to_string(), m));
    // One scratch record per op list: a record holds one op list's passes.
    let (mut served, mut simulated) = (Measured::default(), Measured::default());
    let mut tally = Tally::default();
    let ops = ColdOps::new(&registry, &sis, BTreeMap::new())?;
    if let Some(traced) = cold::run(&ops, 1, true, &mut served)? {
        tally.fill_from(&Tally::mean(&traced.passes));
    }
    let entry = Entry::load("ensemble")?;
    let config = ensemble::Config::from_manifest(&entry, seed)?;
    let scenario = registry.get("sis").ok_or("no registry scenario `sis`")?;
    let mut setup_tally = Tally::default();
    let sis = std::slice::from_ref(scenario);
    if let Some(traced) = ensemble::run(sis, &config, 1, 1, true, &mut simulated, &mut setup_tally)?
    {
        tally.fill_from(&Tally::mean(&traced.passes));
    }
    tally.fill_from(&setup_tally);
    for problem in served.problems.into_iter().chain(simulated.problems) {
        m.problem(format!("probe: {problem}"));
    }
    Ok(tally)
}

fn run(args: &Args) -> Result<String, String> {
    let entry = Entry::load(&args.workload)?;
    let mut m = Measured::default();
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // Every thread of the run shares one core. A loopback hand-off across
    // cores costs a cross-CPU wake-up whose price swings with the host, and
    // a second busy thread slows the first when the two CPUs share a core.
    let cpu = pin::pin_to_one_cpu().map_err(|e| format!("cannot pin to a CPU: {e}"))?;
    println!("# every thread pinned to cpu {cpu}");
    println!("# calibration_ms start {:.3}", calibration_ms());
    let (traced, setup_tally): (Option<Traced>, Tally) = match args.workload.as_str() {
        "cold" => (
            cold::workload(&entry, args.seconds, args.trace, &mut m)?,
            Tally::default(),
        ),
        "hot_hits" => hot::workload(&entry, args.seed, args.seconds, args.trace, &mut m)?,
        "ensemble" => ensemble::workload(&entry, args.seed, args.seconds, args.trace, &mut m)?,
        other => return Err(format!("workload `{other}` has no runner")),
    };
    println!("# calibration_ms end {:.3}", calibration_ms());
    m.describe();
    let metrics = match traced {
        None => m.end_to_end(peak_rss_mb()?),
        Some(traced) => {
            if let Err(message) = Tally::agreeing(&traced.passes) {
                m.problem(message);
            }
            let mut tally = Tally::mean(&traced.passes);
            tally.fill_from(&setup_tally);
            tally.fill_from(&probe(args.seed, &mut m)?);
            let overhead = traced.traced_s / traced.untraced_s;
            println!(
                "# traced passes {}: {:.3} s traced vs {:.3} s untraced",
                traced.passes.len(),
                traced.traced_s,
                traced.untraced_s
            );
            layers::metrics(&tally, overhead)
        }
    };
    Ok(report::result_line(&m, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("mfu-perfbench: {message}");
            eprintln!(
                "usage: mfu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("mfu-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
