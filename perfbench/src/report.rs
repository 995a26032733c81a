//! What a workload hands back: counts, gate failures, metrics with their
//! units and sample counts, and the spans of a traced run.

use crate::stats::{Dist, Series};
use crate::trace::Span;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Counts a traced phase gathers at the layer boundaries it crosses.
/// `main` turns them, with the spans, into the per-layer metrics every
/// workload reports; a layer the workload never calls keeps its zeros.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    /// Frames the traced phase delivered.
    pub frames: u64,
    /// `events_processed` summed over the traced simulators.
    pub netsim_events: u64,
    /// Datagrams the traced simulators sent and dropped.
    pub datagrams_sent: u64,
    pub datagrams_dropped: u64,
    /// Multi-session rounds run, and the migrations their monitors made.
    pub rounds: u64,
    pub migrations: u64,
    /// Meshes rendered, and their triangles in total.
    pub renders: u64,
    pub triangles: u64,
    /// Frames published to the hub, and the encodes it made for them.
    pub published: u64,
    pub encodes: u64,
    /// Poll replies audited, and how many of them were one-behind deltas.
    pub replies: u64,
    pub deltas: u64,
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (frames requested, requests sent).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// The first few gate failures, for the log.
    pub failures: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// How far behind schedule an open-loop generator ran, ms (p90 of
    /// its lateness; 0 for closed-loop workloads).
    pub lateness_ms: f64,
    /// Spans of the traced phase.
    pub spans: Vec<Span>,
    /// Layer counts of the traced phase.
    pub layers: LayerCounts,
}

impl Report {
    /// Count one operation, failed when `error` is set.
    pub fn op<E: std::fmt::Debug>(&mut self, result: Result<(), E>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(format!("{e:?}"));
        }
    }

    /// Record a gate failure that is not tied to one attempted operation
    /// (it still counts as failed).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(message);
        }
    }

    /// Add a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Add `total / count`; no sample to divide by is a failed gate.
    pub fn put_per(&mut self, name: &str, total: f64, count: usize, unit: &'static str) {
        if count == 0 {
            self.fail(format!("{name}: nothing to divide by"));
        } else {
            self.put(name, total / count as f64, unit, count);
        }
    }

    /// Add percentile `q` of `series`, taken per `window_s` window and
    /// medianed across windows; too few samples is a failed gate.
    pub fn put_windowed(
        &mut self,
        name: &str,
        series: &Series,
        window_s: f64,
        q: f64,
        unit: &'static str,
    ) {
        match series.windowed_pct(window_s, q) {
            Some(v) => self.put(name, v, unit, series.len()),
            None => self.fail(format!(
                "{name}: no {window_s} s window of {} samples supports the {q} percentile",
                series.len()
            )),
        }
    }

    /// Add percentile `q` of `dist` scaled by `scale`; a sample too small to
    /// support it is a failed gate (and the metric is left out).
    pub fn put_pct(&mut self, name: &str, dist: &Dist, q: f64, scale: f64, unit: &'static str) {
        match dist.pct(q) {
            Some(v) => self.put(name, v * scale, unit, dist.len()),
            None => self.fail(format!(
                "{name}: {} samples cannot support the {q} percentile",
                dist.len()
            )),
        }
    }
}
