//! The end-to-end benchmark of the omq stack.
//!
//! ```text
//! omqbench --workload <cold_query|wire_browse>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One load-generating process builds its inputs from the seed, sets the
//! workload up three times (the median is `setup_s`), measures for the given
//! number of seconds and checks every answer.  With `--trace 0` it reports
//! the end-to-end metrics; with `--trace 1` it keeps spans around its calls
//! into each layer in every other op of the workload, writes them to
//! `omqbench/out/` and reports per-layer metrics.  The last line of
//! standard output is the JSON result; the exit code is nonzero if any
//! answer was wrong.  See `omqbench/README.md`.

mod cold;
mod common;
mod gen;
mod layers;
mod stats;
mod trace;
mod wire;

use common::Fallible;
use stats::{EndToEnd, Report};
use std::time::Instant;
use trace::Trace;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A workload after set-up.
trait Workload {
    /// Runs a measured window of `seconds`.
    fn run(&mut self, seconds: f64, tr: &mut Trace) -> EndToEnd;
    /// After the window: the workload's own follow-up measurements and
    /// checks (the commit probe and pinned drains of `wire_browse`).
    fn finish(&mut self, _e: &mut EndToEnd, _tr: &mut Trace) {}
    /// Stops the server or processes the workload started.
    fn stop(self: Box<Self>) {}
}

fn setup(name: &str, seed: u64, tr: &mut Trace) -> Fallible<Box<dyn Workload>> {
    Ok(match name {
        "cold_query" => Box::new(cold::setup(seed, tr)?),
        "wire_browse" => Box::new(wire::setup(seed, tr)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn main() {
    // The traced probe's cluster runs spawn this binary as their workers.
    if omq_cluster::maybe_run_worker() {
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omqbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("omqbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Fallible<bool> {
    let clock = Instant::now();
    let mut tr = Trace::new(args.trace, clock, 0);
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        if let Some(old) = workload.take() {
            old.stop();
        }
        let t = Instant::now();
        workload = Some(setup(&args.workload, args.seed, &mut tr)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let mut report = Report::default();
    let mut e;
    if args.trace {
        // Traced and untraced ops alternate over the window; comparing the
        // two gives the tracing overhead.
        tr.alternate();
        e = workload.run(args.seconds, &mut tr);
        tr.set_on(true);
        workload.finish(&mut e, &mut tr);
        // Self times cover the workload's own requests, not the probe's.
        let self_ns = tr.self_time_by_layer("load.");
        layers::probe(args.seed, &mut tr)?;
        layers::report(&tr, &self_ns, &e, &mut report);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path).map_err(common::err)?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    } else {
        e = workload.run(args.seconds, &mut tr);
        workload.finish(&mut e, &mut tr);
        report.end_to_end(&e, &setup_s, stats::peak_rss_mib());
    }
    workload.stop();

    let correct = e.failed == 0;
    print_result(args, &report, correct, e.ops, e.failed);
    Ok(correct)
}

fn print_result(args: &Args, report: &Report, correct: bool, attempted: u64, failed: u64) {
    println!(
        "omqbench {} seed={} seconds={} trace={} cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, m) in &report.metrics {
        println!(
            "  {name:<36} {:>14.3} {:<6} n={}",
            m.value, m.unit, m.samples
        );
    }
    for note in &report.notes {
        println!("  {note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
}
