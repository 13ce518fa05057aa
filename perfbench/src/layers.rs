//! The benchmark's own spans and the per-layer aggregation of the
//! program's `kernel.*` telemetry spans.
//!
//! Spans are recorded from this crate's code around each public call (one
//! id per job or request), kept in memory, and written out as a Chrome
//! trace when the run ends. All timestamps share the telemetry clock
//! ([`granii_telemetry::now_us`]), so kernel spans recorded inside the
//! program can be attributed to the benchmark's windows.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use granii_telemetry::{AttrValue, SpanRecord};

use crate::report::{json_str, Metrics};

/// The `PrimitiveKind` classes reported per kernel.
pub const KERNEL_CLASSES: [&str; 8] = [
    "gemm",
    "spmm_weighted",
    "spmm_unweighted",
    "sddmm",
    "row_broadcast",
    "col_broadcast",
    "elementwise",
    "edge_softmax",
];

/// Microseconds on the telemetry clock.
pub fn now_us() -> u64 {
    granii_telemetry::now_us()
}

/// One benchmark-recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    start_us: u64,
    end_us: u64,
}

/// In-memory span log of one run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn record(&mut self, name: &'static str, id: u64, start_us: u64, end_us: u64) {
        self.spans.push(Span {
            name,
            id,
            start_us,
            end_us: end_us.max(start_us),
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as Chrome-trace events, one lane per job/request id.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": {}, \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}{sep}",
                json_str(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.id
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct ClassTotals {
    dur_us: u64,
    flops: u64,
    bytes: u64,
}

/// `kernel.<class>` time, flops and bytes inside the benchmark's windows.
/// Flops and bytes are the program's `WorkStats` attribution (computed
/// from shapes and sparsity), not hardware counters.
#[derive(Debug, Default)]
pub struct KernelAgg {
    classes: BTreeMap<String, ClassTotals>,
}

fn attr_u64(span: &SpanRecord, key: &str) -> u64 {
    span.attrs
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |(_, v)| match v {
            AttrValue::U64(x) => *x,
            AttrValue::F64(x) => *x as u64,
            AttrValue::Str(_) => 0,
        })
}

/// Index of the window (sorted, disjoint `[start, end]`) containing the
/// whole of `[start, end]`, if any.
fn window_of(windows: &[(u64, u64)], start: u64, end: u64) -> Option<usize> {
    let i = windows.partition_point(|w| w.0 <= start);
    (i > 0 && end <= windows[i - 1].1).then(|| i - 1)
}

impl KernelAgg {
    /// Adds every `kernel.*` span lying inside one of `windows`; returns
    /// the kernel microseconds found inside each window.
    pub fn add(&mut self, spans: &[SpanRecord], windows: &[(u64, u64)]) -> Vec<u64> {
        let mut per_window = vec![0u64; windows.len()];
        for s in spans {
            let Some(class) = s.name.strip_prefix("kernel.") else {
                continue;
            };
            let Some(w) = window_of(windows, s.start_us, s.start_us + s.dur_us) else {
                continue;
            };
            per_window[w] += s.dur_us;
            let t = self.classes.entry(class.to_owned()).or_default();
            t.dur_us += s.dur_us;
            t.flops += attr_u64(s, "flops");
            t.bytes += attr_u64(s, "bytes");
        }
        per_window
    }

    /// `kernel.<c>.share` (of all kernel time in the windows),
    /// `kernel.<c>.gflops` and `kernel.<c>.gbps` for every class; 0 for a
    /// class the workload never ran.
    pub fn push_metrics(&self, out: &mut Metrics) {
        let total: u64 = self.classes.values().map(|t| t.dur_us).sum();
        for class in KERNEL_CLASSES {
            let t = self.classes.get(class).copied().unwrap_or_default();
            let secs = t.dur_us as f64 * 1e-6;
            let rate = |work: u64| {
                if secs > 0.0 {
                    work as f64 / secs / 1e9
                } else {
                    0.0
                }
            };
            let share = if total > 0 {
                t.dur_us as f64 / total as f64
            } else {
                0.0
            };
            out.push(format!("kernel.{class}.share"), share, "ratio");
            out.push(format!("kernel.{class}.gflops"), rate(t.flops), "GFLOP/s");
            out.push(format!("kernel.{class}.gbps"), rate(t.bytes), "GB/s");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_contain_whole_spans_only() {
        let w = [(10, 20), (30, 40)];
        assert_eq!(window_of(&w, 10, 20), Some(0));
        assert_eq!(window_of(&w, 35, 36), Some(1));
        assert_eq!(window_of(&w, 15, 25), None);
        assert_eq!(window_of(&w, 5, 8), None);
        assert_eq!(window_of(&w, 41, 42), None);
    }
}
