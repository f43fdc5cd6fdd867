//! Measurement plumbing: exact quantiles over recorded samples, the run's
//! failure tally, the benchmark's own spans, and the metric sheet printed at
//! the end of a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Exact quantile of a sample (nearest rank); 0 for an empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of a sample; 0 for an empty sample.
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

/// Median of floating-point samples; 0 for an empty sample.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Deliveries attempted and every way one of them failed, by cause.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-subscriber enforcement decisions attempted.
    pub attempted: u64,
    failures: BTreeMap<String, u64>,
}

impl Tally {
    /// Counts `count` failures of one cause (no-op for zero).
    pub fn fail(&mut self, cause: impl Into<String>, count: u64) {
        if count > 0 {
            *self.failures.entry(cause.into()).or_default() += count;
        }
    }

    /// Checks `observed == expected`, counting the difference as failures.
    pub fn expect_eq(&mut self, cause: &str, observed: u64, expected: u64) {
        self.fail(
            format!("{cause} (observed {observed}, expected {expected})"),
            observed.abs_diff(expected),
        );
    }

    /// Adds another tally's failures (not its attempts).
    pub fn merge(&mut self, other: Tally) {
        for (cause, count) in other.failures {
            self.fail(cause, count);
        }
    }

    /// Total failures.
    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Failures by cause.
    pub fn failures(&self) -> &BTreeMap<String, u64> {
        &self.failures
    }
}

/// One benchmark span: a timed call into a layer, or a causal step of one
/// publish (`id` is the publish sequence number, shared by the publish and the
/// receives of its fan-out).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based index of the parent span; 0 for a root.
    pub parent: u32,
    pub id: u64,
}

/// Spans kept in memory (up to a cap) and written out when the run ends.
#[derive(Debug)]
pub struct Trace {
    pub epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl Trace {
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Trace { epoch, spans: Vec::new(), cap, dropped: 0 }
    }

    /// Records a span and returns its 1-based index (0 once the cap is hit).
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(span);
        u32::try_from(self.spans.len()).unwrap_or(0)
    }

    /// Records a root span from two instants.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant) -> u32 {
        let start_ns = u64::try_from(start.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        let end_ns = u64::try_from(end.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.push(Span { name, start_ns, end_ns, parent: 0, id: 0 })
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part of its
    /// interval that its children cover. Returns `(name, count, self_ns_total)`.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if span.parent > 0 {
                children[span.parent as usize - 1].push((span.start_ns, span.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.end_ns.saturating_sub(span.start_ns).saturating_sub(covered);
        }
        totals.into_iter().map(|(name, (count, ns))| (name, count, ns)).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                index + 1,
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent,
                span.id
            )?;
        }
        out.flush()
    }
}

/// The metric sheet of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Sheet {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Sheet {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.metrics.iter_mut().find(|(existing, _, _)| *existing == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.metrics.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(existing, _, _)| existing == name).map(|(_, value, _)| *value)
    }

    /// Human-readable lines, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<48} {value:>16.4} {unit}");
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed` and the named metrics.
    pub fn result_json(&self, tally: &Tally, names: &[&str]) -> String {
        let mut metrics = String::new();
        for (index, name) in names.iter().enumerate() {
            let (_, value, unit) = self
                .metrics
                .iter()
                .find(|(existing, _, _)| existing == name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if index == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            tally.failed() == 0,
            tally.attempted.max(1),
            tally.failed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sample, 0.5), 50);
        assert_eq!(quantile(&sample, 0.9), 90);
        assert_eq!(quantile(&sample, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut trace = Trace::new(Instant::now(), 16);
        let root = trace.push(Span { name: "root", start_ns: 0, end_ns: 100, parent: 0, id: 1 });
        trace.push(Span { name: "child", start_ns: 10, end_ns: 40, parent: root, id: 1 });
        trace.push(Span { name: "child", start_ns: 30, end_ns: 60, parent: root, id: 1 });
        let times = trace.self_times();
        assert_eq!(times, vec![("child", 2, 60), ("root", 1, 50)]);
    }
}
