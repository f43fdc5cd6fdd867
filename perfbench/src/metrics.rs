//! The runs behind the metric sheet: which phases a run makes, and how each
//! end-to-end and per-layer metric is computed from them.

use std::fmt::Write as _;
use std::path::Path;

use legaliot_dataplane::{ShardTelemetrySnapshot, Stage};

use crate::report::{mean, median_f64, peak_rss_mb, quantile, Sheet, Tally, Trace};
use crate::workloads::{Bench, Load, Phase, Scale, Workload};

/// End-to-end metrics, printed by every run with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("peak_deliveries_s", "1/s"),
    ("lat_low_p50_us", "us"),
    ("lat_high_p50_us", "us"),
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every run with `--trace 1`. A layer the
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dataplane.ingress.publish_mean_ns", "ns"),
    ("dataplane.ingress.publish_p99_ns", "ns"),
    ("dataplane.ingress.fanout_per_publish", "ratio"),
    ("dataplane.ingress.producer_waits_per_kpub", "1/kpub"),
    ("dataplane.queue.wait_mean_ns", "ns"),
    ("dataplane.queue.consumer_parks_per_kdelivery", "1/kdelivery"),
    ("dataplane.queue.depth_hwm", "count"),
    ("dataplane.shard.isolation_mean_ns", "ns"),
    ("dataplane.shard.ac_hit_mean_ns", "ns"),
    ("dataplane.shard.ac_miss_mean_ns", "ns"),
    ("dataplane.shard.ifc_mean_ns", "ns"),
    ("dataplane.shard.quench_mean_ns", "ns"),
    ("dataplane.shard.audit_append_mean_ns", "ns"),
    ("dataplane.shard.delivery_mean_ns", "ns"),
    ("dataplane.shard.dir_lock_wait_mean_ns", "ns"),
    ("dataplane.shard.ifc_cache_hit_ratio", "ratio"),
    ("dataplane.shard.ac_cache_hit_ratio", "ratio"),
    ("dataplane.shard.quenched_per_delivery", "ratio"),
    ("dataplane.shard.busy_share", "ratio"),
    ("dataplane.subscriber.handoff_mean_ns", "ns"),
    ("dataplane.subscriber.block_stalls", "count"),
    ("dataplane.subscriber.sweep_mean_ns", "ns"),
    ("dataplane.subscriber.empty_sweep_share", "ratio"),
    ("audit.bytes_per_record", "B"),
    ("audit.records_persisted", "count"),
    ("audit.fsync_count", "count"),
    ("audit.fsync_p99_ns", "ns"),
    ("audit.verify_ns_per_record", "ns"),
    ("audit.recover_ns_per_record", "ns"),
    ("audit.records_per_delivery", "ratio"),
    ("context.control.set_key_p50_ns", "ns"),
    ("context.control.set_context_p50_ns", "ns"),
    ("context.control.set_isolated_p50_ns", "ns"),
    ("context.control.add_rule_p50_ns", "ns"),
    ("context.control.join_p50_ns", "ns"),
    ("context.control.leave_p50_ns", "ns"),
    ("context.control.pooled_p50_us", "us"),
    ("context.control.pooled_p90_us", "us"),
    ("context.control.barrier_drain_mean_us", "us"),
    ("middleware.bus.send_mean_ns", "ns"),
    ("middleware.bus.send_p99_ns", "ns"),
    ("middleware.bus.establish_mean_ns", "ns"),
    ("middleware.bus.audit_records_per_send", "ratio"),
    ("setup.new_s", "s"),
    ("setup.keys_s", "s"),
    ("setup.register_s", "s"),
    ("setup.schemas_s", "s"),
    ("setup.rules_s", "s"),
    ("setup.subscribe_s", "s"),
    ("bench.gen.late_max_us", "us"),
    ("bench.gen.late_p99_us", "us"),
    ("bench.gen.achieved_over_offered", "ratio"),
    ("bench.trace.overhead_ratio", "ratio"),
    ("bench.trace.spans", "count"),
    ("ledger.latency_mean_us", "us"),
    ("ledger.lateness_us", "us"),
    ("ledger.publish_call_us", "us"),
    ("ledger.queue_wait_us", "us"),
    ("ledger.enforce_us", "us"),
    ("ledger.handoff_us", "us"),
    ("ledger.receive_us", "us"),
    ("ledger.unattributed_us", "us"),
];

/// Share of `--seconds` spent alternating the three load shapes untraced.
const UNTRACED_SHARE: f64 = 0.9;
/// Share of `--seconds` given to each of the three traced load shapes.
const TRACED_SHARE: f64 = 0.25;

/// Length of one slice of one load shape in an untraced run, in seconds.
const SLICE_S: f64 = 0.75;

/// What one run produced.
pub struct Outcome {
    pub sheet: Sheet,
    pub tally: Tally,
    pub trace: Trace,
    pub text: String,
}

fn unit(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table.iter().find(|(n, _)| *n == name).map_or("", |(_, unit)| unit)
}

/// Runs one workload for `seconds` and computes its metric sheet.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
    data_dir: &Path,
) -> Outcome {
    let mut bench = Bench::new(workload, seed, scale, data_dir.to_path_buf());
    let mut sheet = Sheet::default();
    let mut text = String::new();
    let (low_rate, high_rate) = workload.rates();
    let mut attempted = 0;
    if traced {
        let budget = seconds * TRACED_SHARE;
        let closed_load = Load::Closed { passes: workload.closed_passes() };
        let plain = repeat(&mut bench, closed_load, false, budget);
        // The open-loop phase goes first so its spans, which the ledger is
        // about, are kept whole if the closed loop later reaches the span cap.
        let low = repeat(&mut bench, Load::Open { rate: low_rate, seconds: SLICE_S }, true, budget);
        let closed = repeat(&mut bench, closed_load, true, budget);
        attempted += plain.decisions + closed.decisions + low.decisions;
        let mut setups = plain.setups.clone();
        setups.extend(closed.setups.iter().copied());
        setups.extend(low.setups.iter().copied());
        per_layer(&mut sheet, &bench, &plain, &closed, &low, low_rate, &setups);
        let _ = writeln!(text, "per-layer metrics (traced):");
        text.push_str(&sheet.render());
        text.push_str(&ledger_text(&sheet, &low));
        let _ = writeln!(text, "span self time (traced phases):");
        for (name, count, ns) in bench.trace.self_times() {
            let _ = writeln!(
                text,
                "  {name:<24} {count:>9} spans {:>12.3} ms self {:>10.0} ns mean",
                ns as f64 / 1e6,
                ns as f64 / count.max(1) as f64
            );
        }
    } else {
        // Short slices of the three load shapes, alternated over the whole
        // run, each on a fresh install: every metric then samples the same
        // stretch of the host's (shared, varying) CPU speed.
        let started = std::time::Instant::now();
        let budget = seconds * UNTRACED_SHARE;
        let (mut low, mut high, mut closed) =
            (Phase::default(), Phase::default(), Phase::default());
        let mut unsustained = 0;
        while started.elapsed().as_secs_f64() < budget || closed.setups.is_empty() {
            for (phase, load) in [
                (&mut low, Load::Open { rate: low_rate, seconds: SLICE_S }),
                (&mut high, Load::Open { rate: high_rate, seconds: SLICE_S }),
                (&mut closed, Load::Closed { passes: workload.closed_passes() }),
            ] {
                let slice = bench.phase(load, false);
                unsustained += u64::from(slice.unsustained());
                phase.absorb(slice);
            }
        }
        bench.tally.fail("open-loop slice unsustained (backlog grew)", unsustained);
        attempted += closed.decisions + low.decisions + high.decisions;
        let setups: Vec<f64> = [&closed, &low, &high]
            .iter()
            .flat_map(|phase| phase.setups.iter().map(|s| s.total()))
            .collect();
        sheet.set("peak_deliveries_s", closed.peak(), "1/s");
        for (label, phase, rate) in [("low", &low, low_rate), ("high", &high, high_rate)] {
            sheet.set(format!("lat_{label}_p50_us"), phase.latency_us(0.5), "us");
            let mut sorted = phase.latencies.clone();
            sorted.sort_unstable();
            let mut late = phase.lateness.clone();
            late.sort_unstable();
            let _ = writeln!(
                text,
                "open loop {label}: {rate} publishes/s offered, achieved/offered {:.4}, {} deliveries, p90 {:.1} us (chunk median {:.1} us), p99 {:.1} us ({} beyond), p99.9 {:.1} us ({} beyond), lateness p99 {:.1} us max {:.1} us",
                phase.achieved_over_offered(rate),
                sorted.len(),
                quantile(&sorted, 0.9) as f64 / 1e3,
                phase.latency_us(0.9),
                quantile(&sorted, 0.99) as f64 / 1e3,
                sorted.len() / 100,
                quantile(&sorted, 0.999) as f64 / 1e3,
                sorted.len() / 1000,
                quantile(&late, 0.99) as f64 / 1e3,
                late.last().copied().unwrap_or(0) as f64 / 1e3,
            );
        }
        sheet.set("setup_s", median_f64(&setups), "s");
        // Per million records, so that neither the seed's fleet size nor the
        // run's throughput moves it; a durable run counts the recovered chain.
        let phases = [&low, &high, &closed];
        let verify_s: f64 = phases.iter().map(|p| p.verify_s).sum();
        let records: u64 = phases.iter().map(|p| p.verify_records.max(p.recover_records)).sum();
        sheet.set("verify_s", verify_s * 1e6 / records.max(1) as f64, "s");
        sheet.set("peak_rss_mb", peak_rss_mb(), "MiB");
        let _ = writeln!(
            text,
            "closed loop: {} decisions in {:.3} s over {} windows; {} installs; verified {} records",
            closed.decisions,
            closed.active_s,
            closed.window_rates.len(),
            setups.len(),
            records
        );
    }
    bench.tally.attempted = attempted;
    let failed = bench.tally.failed();
    let _ = writeln!(
        text,
        "failed_share {} ({} failed of {} attempted)",
        failed as f64 / attempted.max(1) as f64,
        failed,
        attempted
    );
    for (cause, count) in bench.tally.failures() {
        let _ = writeln!(text, "  FAILED {count} x {cause}");
    }
    if !traced {
        let _ = writeln!(text, "end-to-end metrics:");
        text.push_str(&sheet.render());
    }
    let Bench { tally, trace, .. } = bench;
    Outcome { sheet, tally, trace, text }
}

/// Slices of one load shape, on fresh installs, until `seconds` have passed.
fn repeat(bench: &mut Bench, load: Load, traced: bool, seconds: f64) -> Phase {
    let started = std::time::Instant::now();
    let mut total = Phase::default();
    while total.setups.is_empty() || started.elapsed().as_secs_f64() < seconds {
        total.absorb(bench.phase(load, traced));
    }
    total
}

fn stage_mean(snapshot: &ShardTelemetrySnapshot, stage: Stage) -> f64 {
    let histogram = snapshot.stage(stage);
    histogram.sum() as f64 / histogram.count().max(1) as f64
}

fn p50(samples: &[u64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, 0.5) as f64
}

/// Per-layer metrics: engine counters and stage histograms from the traced
/// closed-loop phase, the ledger and generator honesty from the traced
/// open-loop phase, and the overhead of the benchmark's own spans.
fn per_layer(
    sheet: &mut Sheet,
    bench: &Bench,
    plain: &Phase,
    closed: &Phase,
    low: &Phase,
    low_rate: f64,
    setups: &[crate::script::SetupTimes],
) {
    for (name, unit) in PER_LAYER {
        sheet.set(*name, 0.0, unit);
    }
    let set =
        |sheet: &mut Sheet, name: &str, value: f64| sheet.set(name, value, unit(PER_LAYER, name));
    let decisions = closed.decisions.max(1) as f64;
    let mut publish_ns = closed.gen.publish_ns.clone();
    publish_ns.sort_unstable();
    if let Some(merged) = &closed.telemetry {
        let stats = &closed.stats;
        set(sheet, "dataplane.ingress.publish_mean_ns", mean(&publish_ns));
        set(sheet, "dataplane.ingress.publish_p99_ns", quantile(&publish_ns, 0.99) as f64);
        set(
            sheet,
            "dataplane.ingress.fanout_per_publish",
            decisions / closed.publishes.max(1) as f64,
        );
        set(
            sheet,
            "dataplane.ingress.producer_waits_per_kpub",
            merged.queue_producer_waits as f64 * 1e3 / closed.publishes.max(1) as f64,
        );
        set(sheet, "dataplane.queue.wait_mean_ns", stage_mean(merged, Stage::QueueWait));
        set(
            sheet,
            "dataplane.queue.consumer_parks_per_kdelivery",
            merged.queue_consumer_parks as f64 * 1e3 / decisions,
        );
        set(sheet, "dataplane.queue.depth_hwm", merged.queue_depth_high_water as f64);
        for (name, stage) in [
            ("dataplane.shard.isolation_mean_ns", Stage::Isolation),
            ("dataplane.shard.ac_hit_mean_ns", Stage::AcHit),
            ("dataplane.shard.ac_miss_mean_ns", Stage::AcMiss),
            ("dataplane.shard.ifc_mean_ns", Stage::Ifc),
            ("dataplane.shard.quench_mean_ns", Stage::Quench),
            ("dataplane.shard.audit_append_mean_ns", Stage::AuditAppend),
            ("dataplane.shard.delivery_mean_ns", Stage::Delivery),
            ("dataplane.shard.dir_lock_wait_mean_ns", Stage::DirLockWait),
            ("dataplane.subscriber.handoff_mean_ns", Stage::Handoff),
        ] {
            set(sheet, name, stage_mean(merged, stage));
        }
        set(sheet, "dataplane.shard.ifc_cache_hit_ratio", stats.cache_hit_ratio());
        set(sheet, "dataplane.shard.ac_cache_hit_ratio", stats.ac_cache_hit_ratio());
        set(
            sheet,
            "dataplane.shard.quenched_per_delivery",
            stats.quenched_attributes as f64 / stats.delivered.max(1) as f64,
        );
        let busy_ns: u64 = ENFORCE_STAGES
            .iter()
            .chain(std::iter::once(&Stage::Handoff))
            .map(|stage| merged.stage(*stage).sum())
            .sum();
        set(sheet, "dataplane.shard.busy_share", busy_ns as f64 / (closed.active_s * 1e9).max(1.0));
        set(
            sheet,
            "dataplane.subscriber.block_stalls",
            merged.stage(Stage::BlockStall).count() as f64,
        );
        set(
            sheet,
            "dataplane.subscriber.sweep_mean_ns",
            closed.gen.sweep_ns as f64 / closed.gen.sweeps.max(1) as f64,
        );
        set(
            sheet,
            "dataplane.subscriber.empty_sweep_share",
            closed.gen.empty_sweeps as f64 / closed.gen.sweeps.max(1) as f64,
        );
        set(
            sheet,
            "audit.bytes_per_record",
            stats.segment_bytes_fsynced as f64 / stats.segment_records_persisted.max(1) as f64,
        );
        set(sheet, "audit.records_persisted", stats.segment_records_persisted as f64);
    }
    set(sheet, "audit.fsync_count", closed.segment_fsyncs as f64);
    set(sheet, "audit.fsync_p99_ns", closed.segment_fsync_p99_ns as f64);
    let verified = closed.verify_records + low.verify_records;
    let recovered = closed.recover_records + low.recover_records;
    let recover_s = closed.recover_s + low.recover_s;
    let verify_s = closed.verify_s + low.verify_s - recover_s;
    set(sheet, "audit.verify_ns_per_record", verify_s * 1e9 / verified.max(1) as f64);
    set(sheet, "audit.recover_ns_per_record", recover_s * 1e9 / recovered.max(1) as f64);
    set(
        sheet,
        "audit.records_per_delivery",
        closed.verify_records.max(closed.recover_records) as f64 / decisions,
    );
    let mut control = closed.control.clone();
    for (kind, samples) in &low.control {
        control.entry(kind).or_default().extend(samples.iter().copied());
    }
    for (kind, samples) in &control {
        set(sheet, &format!("context.{kind}_p50_ns"), p50(samples));
    }
    let mut pooled: Vec<u64> = control.values().flatten().copied().collect();
    pooled.sort_unstable();
    set(sheet, "context.control.pooled_p50_us", quantile(&pooled, 0.5) as f64 / 1e3);
    set(sheet, "context.control.pooled_p90_us", quantile(&pooled, 0.9) as f64 / 1e3);
    let barriers: Vec<u64> = closed.barrier_ns.iter().chain(&low.barrier_ns).copied().collect();
    set(sheet, "context.control.barrier_drain_mean_us", mean(&barriers) / 1e3);
    if bench.workload == Workload::BusInline {
        let mut sends = closed.bus_send_ns.clone();
        sends.sort_unstable();
        set(sheet, "middleware.bus.send_mean_ns", mean(&sends));
        set(sheet, "middleware.bus.send_p99_ns", quantile(&sends, 0.99) as f64);
        let establish: Vec<f64> =
            closed.bus_establish_ns.iter().chain(&low.bus_establish_ns).copied().collect();
        set(sheet, "middleware.bus.establish_mean_ns", median_f64(&establish));
        set(
            sheet,
            "middleware.bus.audit_records_per_send",
            closed.bus_audit_records as f64 / decisions,
        );
        set(sheet, "audit.records_per_delivery", closed.bus_audit_records as f64 / decisions);
    }
    let step = |pick: fn(&crate::script::SetupTimes) -> f64| {
        median_f64(&setups.iter().map(pick).collect::<Vec<_>>())
    };
    set(sheet, "setup.new_s", step(|s| s.new_s));
    set(sheet, "setup.keys_s", step(|s| s.keys_s));
    set(sheet, "setup.register_s", step(|s| s.register_s));
    set(sheet, "setup.schemas_s", step(|s| s.schemas_s));
    set(sheet, "setup.rules_s", step(|s| s.rules_s));
    set(sheet, "setup.subscribe_s", step(|s| s.subscribe_s));
    let mut late = low.lateness.clone();
    late.sort_unstable();
    set(sheet, "bench.gen.late_max_us", late.last().copied().unwrap_or(0) as f64 / 1e3);
    set(sheet, "bench.gen.late_p99_us", quantile(&late, 0.99) as f64 / 1e3);
    set(sheet, "bench.gen.achieved_over_offered", low.achieved_over_offered(low_rate));
    set(sheet, "bench.trace.overhead_ratio", closed.peak() / plain.peak().max(1e-9));
    set(sheet, "bench.trace.spans", bench.trace.spans().len() as f64);
    ledger(sheet, low, bench.workload);
}

/// Shard stages that enforce one decision.
const ENFORCE_STAGES: [Stage; 6] =
    [Stage::Isolation, Stage::AcHit, Stage::AcMiss, Stage::Ifc, Stage::Quench, Stage::AuditAppend];

/// Decomposes the mean open-loop delivery latency into its steps, each an
/// exact mean (histogram sum / count, or the mean of the benchmark's own
/// timings), and reports what they leave unexplained.
fn ledger(sheet: &mut Sheet, low: &Phase, workload: Workload) {
    let set =
        |sheet: &mut Sheet, name: &str, value: f64| sheet.set(name, value, unit(PER_LAYER, name));
    let latency = mean(&low.latencies) / 1e3;
    let lateness = mean(&low.lateness) / 1e3;
    let receive = mean(&low.gen.receive_ns) / 1e3;
    let (publish_call, queue_wait, enforce, handoff) = match &low.telemetry {
        Some(merged) => {
            let enforce_ns: u64 =
                ENFORCE_STAGES.iter().map(|stage| merged.stage(*stage).sum()).sum();
            (
                mean(&low.gen.publish_ns) / 1e3,
                stage_mean(merged, Stage::QueueWait) / 1e3,
                enforce_ns as f64 / low.decisions.max(1) as f64 / 1e3,
                stage_mean(merged, Stage::Handoff) / 1e3,
            )
        }
        None if workload == Workload::BusInline => (mean(&low.bus_send_ns) / 1e3, 0.0, 0.0, 0.0),
        None => (0.0, 0.0, 0.0, 0.0),
    };
    set(sheet, "ledger.latency_mean_us", latency);
    set(sheet, "ledger.lateness_us", lateness);
    set(sheet, "ledger.publish_call_us", publish_call);
    set(sheet, "ledger.queue_wait_us", queue_wait);
    set(sheet, "ledger.enforce_us", enforce);
    set(sheet, "ledger.handoff_us", handoff);
    set(sheet, "ledger.receive_us", receive);
    set(
        sheet,
        "ledger.unattributed_us",
        latency - lateness - publish_call - queue_wait - enforce - handoff - receive,
    );
}

/// The ledger as a table, with the tail of each step beside its mean.
fn ledger_text(sheet: &Sheet, low: &Phase) -> String {
    let mut text = String::from("mean-latency ledger (traced open loop, low rate):\n");
    for name in [
        "ledger.lateness_us",
        "ledger.publish_call_us",
        "ledger.queue_wait_us",
        "ledger.enforce_us",
        "ledger.handoff_us",
        "ledger.receive_us",
        "ledger.unattributed_us",
        "ledger.latency_mean_us",
    ] {
        let _ = writeln!(text, "  {name:<28} {:>12.3} us", sheet.get(name).unwrap_or(0.0));
    }
    let mut latencies = low.latencies.clone();
    latencies.sort_unstable();
    let mut late = low.lateness.clone();
    late.sort_unstable();
    let _ = write!(
        text,
        "  tail: latency p50 {:.1} us p90 {:.1} us; lateness p90 {:.1} us",
        quantile(&latencies, 0.5) as f64 / 1e3,
        quantile(&latencies, 0.9) as f64 / 1e3,
        quantile(&late, 0.9) as f64 / 1e3
    );
    if let Some(merged) = &low.telemetry {
        for stage in [Stage::QueueWait, Stage::Delivery, Stage::Handoff] {
            let histogram = merged.stage(stage);
            let _ = write!(
                text,
                "; {} p90 <= {:.1} us",
                stage.name(),
                histogram.quantile(0.9) as f64 / 1e3
            );
        }
        let _ = write!(
            text,
            "; consumer parks {} over {} decisions",
            merged.queue_consumer_parks, low.decisions
        );
    }
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale { deployments: 40, churn_deployments: 60, churn_rounds: 3 };

    fn smoke(workload: Workload, traced: bool) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target").join(format!(
            "smoke-{}-{}-{}",
            std::process::id(),
            workload.name(),
            traced
        ));
        let outcome = run(workload, 7, 0.6, traced, &SMOKE, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            outcome.tally.failed(),
            0,
            "{}: {:?}",
            workload.name(),
            outcome.tally.failures()
        );
        assert!(outcome.tally.attempted > 0);
        let table = if traced { PER_LAYER } else { END_TO_END };
        let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        let json = outcome.sheet.result_json(&outcome.tally, &names);
        assert!(json.starts_with("{\"correct\": true, "), "{json}");
        for (name, unit) in table {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert!(json.contains(&entry), "{}: `{name}` missing", workload.name());
            assert!(!unit.is_empty());
            assert_eq!(outcome.sheet.get(name).map(f64::is_finite), Some(true), "{name}");
        }
        if !traced {
            for (name, _) in END_TO_END {
                assert!(
                    outcome.sheet.get(name).unwrap_or(0.0) > 0.0,
                    "{}: `{name}` is 0",
                    workload.name()
                );
            }
        }
    }

    /// One test, so the runs do not compete for the CPU with each other: an
    /// open-loop slice starved of CPU is (rightly) flagged unsustained.
    #[test]
    fn every_workload_prints_every_metric_without_failures() {
        for workload in Workload::ALL {
            smoke(workload, false);
            smoke(workload, true);
        }
    }
}
