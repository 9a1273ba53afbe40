//! What a run measured, the end-to-end metrics derived from it, and the
//! result line.

use std::collections::BTreeMap;

use mfu_core::json::Json;

use crate::layers::Metric;
use crate::stats;

/// The timed part of a run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of every set-up made in the run.
    pub setup_s: Vec<f64>,
    /// Per-op latencies of every timed pass, in milliseconds, by slot: the
    /// i-th op of every pass repeats the same work, so `slot_ms[i]` holds
    /// one sample per pass.
    pub slot_ms: Vec<Vec<f64>>,
    /// Wall time of each timed pass, in seconds.
    pub pass_s: Vec<f64>,
    /// Ops attempted in the timed passes.
    pub attempted: usize,
    /// Ops that returned ok and passed their answer check.
    pub answered: usize,
    /// Ops whose failure is not a known defect listed in the manifest.
    pub failed: usize,
    /// Reasons the run's outputs are not correct, if any.
    pub problems: Vec<String>,
}

impl Measured {
    /// Records a correctness problem; the run goes on. The first few are
    /// printed, the rest only counted.
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 10 {
            println!("# problem: {message}");
        }
        self.problems.push(message);
    }

    /// Records a timed pass: its per-op latencies in op-list order and its
    /// wall time. Every pass of a run must run the same op list.
    pub fn pass(&mut self, op_ms: &[f64], pass_s: f64) {
        if self.slot_ms.is_empty() {
            self.slot_ms = vec![Vec::new(); op_ms.len()];
        }
        if self.slot_ms.len() != op_ms.len() {
            self.problem(format!(
                "a pass ran {} ops, the first ran {}",
                op_ms.len(),
                self.slot_ms.len()
            ));
        }
        for (samples, &ms) in self.slot_ms.iter_mut().zip(op_ms) {
            samples.push(ms);
        }
        self.pass_s.push(pass_s);
    }

    /// Each op's latency: the fastest of its repeats across the passes.
    /// Contention on a shared host only ever adds time to an op, so the
    /// fastest repeat is the steadiest reading of what the op costs.
    pub fn best_ms(&self) -> Vec<f64> {
        self.slot_ms
            .iter()
            .map(|samples| stats::min(samples))
            .collect()
    }

    /// Prints each op's best latency after its label, in op-list order.
    pub fn print_best<'a>(&self, labels: impl IntoIterator<Item = &'a str>) {
        let best: Vec<String> = labels
            .into_iter()
            .zip(self.best_ms())
            .map(|(label, ms)| format!("{label} {ms:.3}"))
            .collect();
        println!("# best ms by op: {}", best.join(", "));
    }

    /// Every timed latency of the run, pooled.
    fn pooled_ms(&self) -> Vec<f64> {
        self.slot_ms.iter().flatten().copied().collect()
    }

    /// Counts one attempted op by its answer check. A failing op whose
    /// scenario the manifest lists as a known defect is not answered but
    /// not failed either; any other failure makes the run incorrect.
    pub fn judge(&mut self, label: &str, check: Result<(), String>, known: Option<&String>) {
        self.attempted += 1;
        match (check, known) {
            (Ok(()), _) => self.answered += 1,
            (Err(_), Some(_)) => {}
            (Err(message), None) => {
                self.failed += 1;
                self.problem(format!("{label}: {message}"));
            }
        }
    }

    /// The six end-to-end metrics. The latency and throughput metrics are
    /// taken over the ops' best latencies ([`Measured::best_ms`]).
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let best = self.best_ms();
        let best_s: f64 = best.iter().sum::<f64>() * 1e-3;
        vec![
            ("setup_s", stats::median(&self.setup_s), "s"),
            ("ops_per_s", best.len() as f64 / best_s, "1/s"),
            ("latency_p50_ms", stats::median(&best), "ms"),
            ("latency_tail_ms", stats::tail(&best).1, "ms"),
            (
                "answered_share",
                self.answered as f64 / self.attempted.max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    }

    /// Diagnostic lines: sample counts, tail rank, pass-time quartiles and
    /// the pooled latency distribution next to the best-of-repeats one.
    pub fn describe(&self) {
        let best = self.best_ms();
        let pooled = self.pooled_ms();
        let (percentile, _) = stats::tail(&best);
        let [q1, q2, q3] = stats::quartiles(&self.pass_s);
        println!(
            "# samples: {} ops x {} passes = {} latencies; each op's best of {} repeats; tail = p{percentile:.3} of {} bests ({} beyond); {} set-ups",
            best.len(),
            self.pass_s.len(),
            pooled.len(),
            self.pass_s.len(),
            best.len(),
            best.len() - stats::tail_rank(best.len()),
            self.setup_s.len()
        );
        println!("# pass seconds: q1 {q1:.6} median {q2:.6} q3 {q3:.6}");
        for (label, values) in [("pooled", &pooled), ("best", &best)] {
            println!(
                "# {label} latency ms: p50 {:.6} p90 {:.6} p99 {:.6} max {:.6}",
                stats::percentile(values, 50.0),
                stats::percentile(values, 90.0),
                stats::percentile(values, 99.0),
                stats::percentile(values, 100.0)
            );
        }
        println!(
            "# answered {} of {} attempted, {} unexpected failures, {} problems",
            self.answered,
            self.attempted,
            self.failed,
            self.problems.len()
        );
    }
}

/// The result line: the last line of standard output.
pub fn result_line(measured: &Measured, metrics: &[Metric]) -> String {
    let metrics: BTreeMap<String, Json> = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                (*name).to_string(),
                Json::object([
                    ("value", Json::Number(*value)),
                    ("unit", Json::string(*unit)),
                ]),
            )
        })
        .collect();
    Json::object([
        ("correct", Json::Bool(measured.problems.is_empty())),
        ("attempted", Json::Number(measured.attempted as f64)),
        ("failed", Json::Number(measured.failed as f64)),
        ("metrics", Json::Object(metrics)),
    ])
    .render()
}
