//! Sample sets, percentiles and the metric report.

use std::collections::BTreeMap;

/// Value at quantile `q` of `v` (which it sorts), interpolated linearly
/// between the two nearest order statistics.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5)
}

/// The median, over consecutive blocks of `block` samples of `v` (a last,
/// shorter block left out), of each block's quantile `q`; the quantile of
/// all of `v` if it holds less than one block.  A few slow seconds of the
/// machine then move the tail of the blocks they fall in, not the figure.
pub fn blocked_quantile(v: &[f64], block: usize, q: f64) -> f64 {
    if block == 0 || v.len() < block {
        return quantile(&mut v.to_vec(), q);
    }
    let per_block: Vec<f64> = v
        .chunks_exact(block)
        .map(|b| quantile(&mut b.to_vec(), q))
        .collect();
    median(&per_block)
}

/// The end-to-end samples of one untraced run.  Timings are in µs.
#[derive(Default)]
pub struct EndToEnd {
    pub ttfa: Vec<f64>,
    pub request: Vec<f64>,
    pub fetch: Vec<f64>,
    /// Commit times in the order they were taken.
    pub commit: Vec<f64>,
    /// The block length of `commit_p90_us` (see [`blocked_quantile`]).
    pub commit_block: usize,
    pub fresh: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    pub answers: u64,
    /// The time the ops rate is taken over, in s.
    pub busy_s: f64,
    /// Request times of a run whose trace alternates, as (the request's
    /// place in its workload's rotation, traced, µs).
    pub paired: Vec<(usize, bool, f64)>,
}

impl EndToEnd {
    pub fn absorb(&mut self, other: EndToEnd) {
        self.ttfa.extend(other.ttfa);
        self.request.extend(other.request);
        self.fetch.extend(other.fetch);
        self.commit.extend(other.commit);
        self.fresh.extend(other.fresh);
        self.ops += other.ops;
        self.failed += other.failed;
        self.answers += other.answers;
        self.paired.extend(other.paired);
    }

    /// Files the request times recorded since index `from` under `key`, if
    /// the trace alternates (`traced` is what [`crate::trace::Trace::step`]
    /// returned).
    pub fn pair_since(&mut self, from: usize, key: usize, traced: Option<bool>) {
        if let Some(traced) = traced {
            let times = &self.request[from..];
            self.paired.extend(times.iter().map(|&t| (key, traced, t)));
        }
    }

    /// The tracing overhead in %: the median, over the keys that have both
    /// traced and untraced requests, of the ratio of their median times,
    /// less one.  Also returns the number of such keys.
    pub fn tracing_overhead_pct(&self) -> (f64, usize) {
        let mut by_key: BTreeMap<usize, [Vec<f64>; 2]> = BTreeMap::new();
        for &(key, traced, t) in &self.paired {
            by_key.entry(key).or_default()[usize::from(traced)].push(t);
        }
        let ratios: Vec<f64> = by_key
            .values()
            .filter(|[plain, traced]| !plain.is_empty() && !traced.is_empty())
            .map(|[plain, traced]| median(traced) / median(plain))
            .collect();
        ((median(&ratios) - 1.0) * 100.0, ratios.len())
    }
}

/// One reported metric: value, unit and the number of samples behind it.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    /// Printed in the table only (not part of the JSON result).
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Median of `v` (ns) reported in `unit` (`us` or `ns`).
    pub fn put_median_ns(&mut self, name: &str, v: &[f64], unit: &'static str) {
        let scale = if unit == "us" { 1e-3 } else { 1.0 };
        self.put(name, median(v) * scale, unit, v.len());
    }

    pub fn end_to_end(&mut self, e: &EndToEnd, setup_s: &[f64], peak_rss_mib: f64) {
        let pct = |v: &[f64], q: f64| quantile(&mut v.to_vec(), q);
        self.put("setup_s", median(setup_s), "s", setup_s.len());
        self.put("ttfa_p50_us", pct(&e.ttfa, 0.5), "us", e.ttfa.len());
        self.put("ttfa_p90_us", pct(&e.ttfa, 0.9), "us", e.ttfa.len());
        self.put(
            "request_p50_us",
            pct(&e.request, 0.5),
            "us",
            e.request.len(),
        );
        self.put(
            "request_p90_us",
            pct(&e.request, 0.9),
            "us",
            e.request.len(),
        );
        self.put("fetch_p50_us", pct(&e.fetch, 0.5), "us", e.fetch.len());
        self.put("fetch_p99_us", pct(&e.fetch, 0.99), "us", e.fetch.len());
        self.put("commit_p50_us", pct(&e.commit, 0.5), "us", e.commit.len());
        self.put(
            "commit_p90_us",
            blocked_quantile(&e.commit, e.commit_block, 0.9),
            "us",
            e.commit.len(),
        );
        self.put("fresh_ttfp_p50_us", pct(&e.fresh, 0.5), "us", e.fresh.len());
        let ops = e.ops as usize;
        self.put("ops_per_s", e.ops as f64 / e.busy_s, "1/s", ops);
        self.put("answers_per_s", e.answers as f64 / e.busy_s, "1/s", ops);
        self.put("peak_rss_mib", peak_rss_mib, "MiB", 1);
        // Not in the JSON result (it is 0 on correct code); the result's
        // `attempted`/`failed` carry it.
        self.notes.push(format!(
            "failed_ratio = {} ({} of {} ops)",
            e.failed as f64 / e.ops.max(1) as f64,
            e.failed,
            e.ops
        ));
        // The tail percentile is only meaningful with ten samples beyond it.
        for (name, n, need) in [
            ("ttfa_p90_us", e.ttfa.len(), 100),
            ("request_p90_us", e.request.len(), 100),
            ("fetch_p99_us", e.fetch.len(), 1000),
            ("commit_p90_us", e.commit.len(), 100),
        ] {
            if n < need {
                self.notes
                    .push(format!("warning: {name} rests on {n} samples (< {need})"));
            }
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:") / 1024.0
}

fn proc_status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// CPU time of every thread of this process so far, in ns
/// (`/proc/self/task/*/schedstat`, which has ns resolution).
pub fn process_cpu_ns() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
        })
        .sum()
}
