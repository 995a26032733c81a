//! The metrics `BENCHMARK.json` names, which every workload reports, and
//! the per-layer ones derived from a traced phase's spans and counts.
//!
//! Each workload also prints figures of its own (the Fig. 9 virtual
//! delays, steering latency, catch-up rate and so on) on the lines above
//! the result; the result line carries exactly the metrics listed here,
//! so the four workloads can be compared metric by metric.

use crate::report::Report;
use crate::trace;

/// End-to-end metrics of an untraced run, `(name, unit)`, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_frame", "ms"),
];

/// Per-layer metrics of a traced run, `(name, unit)`, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 15] = [
    ("pipemap.calls_per_s", "1/s"),
    ("core.calls_per_s", "1/s"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.events_per_frame", "count"),
    ("transport.drop_ratio", "ratio"),
    ("adapt.migrations_per_round", "count"),
    ("hydro.calls_per_s", "1/s"),
    ("viz.calls_per_s", "1/s"),
    ("viz.triangles_per_frame", "count"),
    ("hub.calls_per_s", "1/s"),
    ("hub.encodes_per_frame", "count"),
    ("hub.delta_share", "ratio"),
    ("http.calls_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("ops.attempted", "count"),
];

/// The spans each call rate counts: the benchmark's own calls into the
/// layer.  The viewer's long polls (`http.poll`, mostly parked until a
/// frame is published) and the client-side audits are no layer's work.
const LAYER_CALLS: [(&str, &[&str]); 6] = [
    (
        "pipemap.calls_per_s",
        &["pipemap.plan", "pipemap.solve_joint"],
    ),
    (
        "core.calls_per_s",
        &[
            "core.install",
            "core.measured_delays",
            "core.run_multi_session",
        ],
    ),
    ("hydro.calls_per_s", &["hydro.cycle"]),
    ("viz.calls_per_s", &["viz.isosurface", "viz.render"]),
    ("hub.calls_per_s", &["hub.publish"]),
    ("http.calls_per_s", &["http.catchup", "http.steer"]),
];

/// `num / den`, 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Add the span- and count-derived per-layer metrics of a traced run.  A
/// layer the workload never calls reports 0, as a cache that is never
/// hit reports no hits.
pub fn put_layer_metrics(report: &mut Report) {
    let self_times = trace::self_time_by_name(&report.spans);
    let own = |names: &[&str]| {
        names
            .iter()
            .filter_map(|n| self_times.get(n))
            .fold((0.0, 0), |(s, c), &(t, n)| (s + t, c + n))
    };
    for (metric, names) in LAYER_CALLS {
        let (self_s, calls) = own(names);
        report.put(metric, ratio(calls as f64, self_s), "1/s", calls);
    }
    let l = report.layers;
    let (run_s, steps) = own(&["netsim.run_until"]);
    let frames = l.frames as usize;
    report.put(
        "netsim.events_per_s",
        ratio(l.netsim_events as f64, run_s),
        "1/s",
        steps,
    );
    report.put(
        "netsim.events_per_frame",
        ratio(l.netsim_events as f64, l.frames as f64),
        "count",
        frames,
    );
    report.put(
        "transport.drop_ratio",
        ratio(l.datagrams_dropped as f64, l.datagrams_sent as f64),
        "ratio",
        l.datagrams_sent as usize,
    );
    report.put(
        "adapt.migrations_per_round",
        ratio(l.migrations as f64, l.rounds as f64),
        "count",
        l.rounds as usize,
    );
    report.put(
        "viz.triangles_per_frame",
        ratio(l.triangles as f64, l.renders as f64),
        "count",
        l.renders as usize,
    );
    report.put(
        "hub.encodes_per_frame",
        ratio(l.encodes as f64, l.published as f64),
        "count",
        l.published as usize,
    );
    report.put(
        "hub.delta_share",
        ratio(l.deltas as f64, l.replies as f64),
        "ratio",
        l.replies as usize,
    );
    let attempted = report.attempted as f64;
    report.put("ops.attempted", attempted, "count", 1);
}

/// The result line's metrics: every listed metric in order, as
/// `(name, value, unit)`, or the first one the run did not produce (or
/// produced in another unit).
pub fn result_metrics(
    report: &Report,
    listed: &[(&'static str, &'static str)],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    listed
        .iter()
        .map(
            |&(name, unit)| match report.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => Ok((name, m.value, unit)),
                Some(m) => Err(format!("metric {name} in {} instead of {unit}", m.unit)),
                None => Err(format!("metric {name} was not measured")),
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use serde_json::Value;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn listed(manifest: &Value, key: &str) -> Vec<(String, String)> {
        let items = manifest
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"));
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("a {key} entry has no string {k}"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let manifest = parse(text.as_bytes()).expect("BENCHMARK.json is JSON");
        assert_eq!(listed(&manifest, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&manifest, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn unused_layers_report_zero_and_every_metric_is_listed() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.put("trace.overhead_pct", 1.5, "%", 3);
        put_layer_metrics(&mut report);
        let got = result_metrics(&report, &PER_LAYER).expect("every per-layer metric");
        assert_eq!(got.len(), PER_LAYER.len());
        assert!(got.iter().all(
            |&(name, v, _)| v == 0.0 || matches!(name, "trace.overhead_pct" | "ops.attempted")
        ));
    }

    #[test]
    fn a_missing_or_mislabelled_metric_is_an_error() {
        let mut report = Report::default();
        report.put("setup_s", 0.1, "s", 7);
        assert!(result_metrics(&report, &END_TO_END[..1]).is_ok());
        assert!(result_metrics(&report, &END_TO_END[..2]).is_err());
        let mut wrong = Report::default();
        wrong.put("setup_s", 100.0, "ms", 7);
        assert!(result_metrics(&wrong, &END_TO_END[..1]).is_err());
    }
}
