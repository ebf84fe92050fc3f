//! JSON output: the result line and the trace artifact.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::Serialize;

use crate::trace::{self, Span, Totals};
use crate::{Metric, Outcome};

/// One metric as written: `{"value", "unit"}`.
#[derive(Serialize)]
struct Value {
    value: f64,
    unit: &'static str,
}

/// Metrics keyed by name. A non-finite value is written as 0.
fn metrics_map(ms: &[Metric]) -> BTreeMap<String, Value> {
    ms.iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.clone(),
                Value {
                    value,
                    unit: m.unit,
                },
            )
        })
        .collect()
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

/// The run's result: the last line of standard output.
pub fn result_line(o: &Outcome) -> String {
    serde_json::to_string(&ResultLine {
        correct: o.failed == 0,
        attempted: o.attempted,
        failed: o.failed,
        metrics: metrics_map(&o.metrics),
    })
    .expect("result line serializes")
}

/// One span as written, with its self time.
#[derive(Serialize)]
struct SpanRow {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_us: f64,
    end_us: f64,
    self_us: f64,
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, Value>,
    details: BTreeMap<String, BTreeMap<String, Value>>,
    self_us_by_layer: BTreeMap<String, f64>,
    by_name: BTreeMap<String, Totals>,
    spans: Vec<SpanRow>,
}

/// Writes the traced run's artifact: every span with its self time,
/// per-name and per-layer totals, the per-layer metrics and the
/// per-report details. Returns the file written.
pub fn write_trace(
    workload: &str,
    seed: u64,
    spans: &[Span],
    metrics: &[Metric],
    details: &[(String, Vec<Metric>)],
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let file = TraceFile {
        workload: workload.to_string(),
        seed,
        metrics: metrics_map(metrics),
        details: details
            .iter()
            .map(|(k, ms)| (k.clone(), metrics_map(ms)))
            .collect(),
        self_us_by_layer: trace::self_by_layer(spans, None),
        by_name: trace::by_name(spans),
        spans: spans
            .iter()
            .zip(trace::self_times(spans))
            .map(|(s, self_us)| SpanRow {
                id: s.id,
                parent: s.parent,
                name: s.name,
                start_us: s.start_us,
                end_us: s.end_us,
                self_us,
            })
            .collect(),
    };
    let text = serde_json::to_string_pretty(&file).expect("trace serializes");
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}
