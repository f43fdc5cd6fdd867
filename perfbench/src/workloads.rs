//! The four workloads and their phases. A phase installs the fleet, drives
//! one load shape (closed loop, or open loop at a fixed rate), settles, checks
//! every count against the oracle, shuts down and verifies every audit chain.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use legaliot_audit::{AuditLog, SegmentStore};
use legaliot_dataplane::{
    AuditDetail, DataplaneConfig, DataplaneStats, PersistenceConfig, ShardTelemetrySnapshot,
};
use legaliot_fleet::FleetConfig;
use legaliot_middleware::{DeliveryOutcome, Middleware};

use crate::drive::{GenTrace, Generator};
use crate::report::{median_f64, ns_since, quantile, Span, Tally, Trace};
use crate::script::{apply_event, event_kind, install_bus, install_dataplane, Script, SetupTimes};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    AuditDurable,
    ContextChurn,
    BusInline,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetSteady,
        Workload::AuditDurable,
        Workload::ContextChurn,
        Workload::BusInline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet-steady",
            Workload::AuditDurable => "audit-durable",
            Workload::ContextChurn => "context-churn",
            Workload::BusInline => "bus-inline",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The two fixed publish rates (publishes/s) of the open-loop phases,
    /// about a quarter and a half of the workload's closed-loop peak.
    pub fn rates(self) -> (f64, f64) {
        match self {
            Workload::FleetSteady => (40_000.0, 80_000.0),
            Workload::AuditDurable => (3_000.0, 6_000.0),
            Workload::ContextChurn => (8_000.0, 16_000.0),
            Workload::BusInline => (15_000.0, 30_000.0),
        }
    }

    /// Script passes in one closed-loop slice: fixed work of roughly 0.75 s
    /// on the reference machine, so that memory and audit volume do not
    /// depend on throughput.
    pub fn closed_passes(self) -> usize {
        match self {
            Workload::FleetSteady => 75,
            Workload::AuditDurable => 10,
            Workload::ContextChurn => 1,
            Workload::BusInline => 24,
        }
    }

    /// The fleet the workload replays.
    pub fn fleet(self, seed: u64, scale: &Scale) -> FleetConfig {
        match self {
            Workload::ContextChurn => FleetConfig {
                seed,
                deployments: scale.churn_deployments,
                rounds: scale.churn_rounds,
            },
            _ => FleetConfig { seed, deployments: scale.deployments, rounds: 1 },
        }
    }
}

/// Input sizes; [`Scale::FULL`] is what the benchmark measures.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub deployments: usize,
    pub churn_deployments: usize,
    pub churn_rounds: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { deployments: 1000, churn_deployments: 2000, churn_rounds: 6 };
}

/// How a phase loads the system.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// As fast as the window allows, for this many passes over the script
    /// (context-churn: installs each playing every round once).
    Closed { passes: usize },
    /// A fixed publish rate for this long.
    Open { rate: f64, seconds: f64 },
}

/// Bus channels kept before the middleware is rebuilt: its audit log is
/// unbounded, so it is verified and replaced every this many script passes.
const BUS_PASSES_PER_LOG: usize = 16;

/// Throughput windows per closed-loop slice.
const WINDOWS_PER_SLICE: usize = 3;

/// Chunks an open-loop phase's deliveries are split into for its latency
/// quantiles.
const LATENCY_CHUNKS: usize = 10;

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub setups: Vec<SetupTimes>,
    /// Seconds under load (installs excluded).
    pub active_s: f64,
    pub decisions: u64,
    pub publishes: u64,
    /// Closed-loop decisions per second, per window or pass.
    pub window_rates: Vec<f64>,
    pub latencies: Vec<u64>,
    pub lateness: Vec<u64>,
    pub paced: (u64, u64),
    pub verify_s: f64,
    pub verify_records: u64,
    pub recover_s: f64,
    pub recover_records: u64,
    /// Stage histograms and queue contention, merged over shards and passes
    /// (traced phases only).
    pub telemetry: Option<ShardTelemetrySnapshot>,
    pub stats: DataplaneStats,
    pub segment_fsyncs: u64,
    pub segment_fsync_p99_ns: u64,
    pub gen: GenTrace,
    pub control: BTreeMap<&'static str, Vec<u64>>,
    pub barrier_ns: Vec<u64>,
    pub bus_send_ns: Vec<u64>,
    pub bus_establish_ns: Vec<f64>,
    pub bus_audit_records: u64,
    /// Subscribe attempts made by scripted joins.
    pub admissions: Vec<(String, String, bool)>,
}

impl Phase {
    /// Closed-loop throughput: the median over windows (or passes), so a
    /// window in which the host took the CPU away does not set the figure.
    pub fn peak(&self) -> f64 {
        if self.window_rates.is_empty() {
            self.decisions as f64 / self.active_s.max(1e-9)
        } else {
            median_f64(&self.window_rates)
        }
    }

    /// Open-loop latency quantile, in µs: the median over consecutive
    /// chunks of deliveries of each chunk's quantile.
    pub fn latency_us(&self, q: f64) -> f64 {
        let chunk = (self.latencies.len() / LATENCY_CHUNKS).max(1);
        let per_chunk: Vec<f64> = self
            .latencies
            .chunks(chunk)
            .filter(|c| c.len() == chunk)
            .map(|c| {
                let mut sorted = c.to_vec();
                sorted.sort_unstable();
                quantile(&sorted, q) as f64 / 1e3
            })
            .collect();
        median_f64(&per_chunk)
    }

    pub fn achieved_over_offered(&self, rate: f64) -> f64 {
        if self.paced.1 == 0 {
            return 0.0;
        }
        self.paced.0 as f64 * 1e9 / self.paced.1 as f64 / rate
    }

    /// Whether the backlog grew over an open-loop slice: the last decile of
    /// deliveries waited far longer than the first, and the generator ended
    /// more than a quarter of the slice behind its schedule (a stall the
    /// system recovers from, such as a preempted CPU or a slow fsync, does
    /// neither).
    pub fn unsustained(&self) -> bool {
        let final_lateness = self.lateness.last().copied().unwrap_or(0);
        if final_lateness * 4 <= self.paced.1 {
            return false;
        }
        let n = self.latencies.len();
        if n < 100 {
            return false;
        }
        let decile = n / 10;
        let p50 = |slice: &[u64]| {
            let mut sorted = slice.to_vec();
            sorted.sort_unstable();
            quantile(&sorted, 0.5)
        };
        let first = p50(&self.latencies[..decile]);
        let last = p50(&self.latencies[n - decile..]);
        last > 1_000_000 && last > 4 * first
    }

    pub fn absorb(&mut self, other: Phase) {
        self.setups.extend(other.setups);
        self.active_s += other.active_s;
        self.decisions += other.decisions;
        self.publishes += other.publishes;
        self.window_rates.extend(other.window_rates);
        self.latencies.extend(other.latencies);
        self.lateness.extend(other.lateness);
        self.paced.0 += other.paced.0;
        self.paced.1 += other.paced.1;
        self.verify_s += other.verify_s;
        self.verify_records += other.verify_records;
        self.recover_s += other.recover_s;
        self.recover_records += other.recover_records;
        self.segment_fsyncs += other.segment_fsyncs;
        self.segment_fsync_p99_ns = self.segment_fsync_p99_ns.max(other.segment_fsync_p99_ns);
        for (kind, samples) in other.control {
            self.control.entry(kind).or_default().extend(samples);
        }
        self.barrier_ns.extend(other.barrier_ns);
        self.bus_send_ns.extend(other.bus_send_ns);
        self.bus_establish_ns.extend(other.bus_establish_ns);
        self.bus_audit_records += other.bus_audit_records;
        self.gen.publish_ns.extend(other.gen.publish_ns);
        self.gen.receive_ns.extend(other.gen.receive_ns);
        self.gen.sweeps += other.gen.sweeps;
        self.gen.empty_sweeps += other.gen.empty_sweeps;
        self.gen.sweep_ns += other.gen.sweep_ns;
        self.telemetry = match (self.telemetry.take(), other.telemetry) {
            (Some(mut mine), Some(theirs)) => {
                mine.merge(&theirs);
                Some(mine)
            }
            (mine, theirs) => mine.or(theirs),
        };
        let (a, b) = (&mut self.stats, &other.stats);
        a.delivered += b.delivered;
        a.cache_hits += b.cache_hits;
        a.cache_misses += b.cache_misses;
        a.ac_cache_hits += b.ac_cache_hits;
        a.ac_cache_misses += b.ac_cache_misses;
        a.quenched_attributes += b.quenched_attributes;
        a.segment_records_persisted += b.segment_records_persisted;
        a.segment_bytes_fsynced += b.segment_bytes_fsynced;
    }
}

/// Shared state of one benchmark run.
pub struct Bench {
    pub workload: Workload,
    pub script: Script,
    pub epoch: Instant,
    pub tally: Tally,
    pub trace: Trace,
    data_dir: PathBuf,
    phases_started: usize,
}

impl Bench {
    pub fn new(workload: Workload, seed: u64, scale: &Scale, data_dir: PathBuf) -> Bench {
        let epoch = Instant::now();
        Bench {
            workload,
            script: Script::new(workload.fleet(seed, scale)),
            epoch,
            tally: Tally::default(),
            trace: Trace::new(epoch, 400_000),
            data_dir,
            phases_started: 0,
        }
    }

    fn config(&self, dir: &std::path::Path) -> DataplaneConfig {
        let mut config = DataplaneConfig { shards: 1, ..DataplaneConfig::default() };
        if self.workload == Workload::AuditDurable {
            config.audit_detail = AuditDetail::Full;
            config.audit_retention = Some(1024);
            config.persistence = Some(PersistenceConfig::at(dir));
        }
        config
    }

    /// Runs one phase of the workload under `load`.
    pub fn phase(&mut self, load: Load, traced: bool) -> Phase {
        match self.workload {
            Workload::FleetSteady | Workload::AuditDurable => self.steady_phase(load, traced),
            Workload::ContextChurn => self.churn_phase(load, traced),
            Workload::BusInline => self.bus_phase(load, traced),
        }
    }

    fn next_dir(&mut self) -> PathBuf {
        self.phases_started += 1;
        self.data_dir.join(format!("phase-{}", self.phases_started))
    }

    /// One install of the fleet on a dataplane, driven by `drive`, then
    /// settled, checked, shut down and verified.
    fn dataplane_pass(
        &mut self,
        traced: bool,
        drive: impl for<'g> FnOnce(&mut Generator<'g>, &'g Script, &mut Phase),
    ) -> Phase {
        let dir = self.next_dir();
        let config = self.config(&dir);
        let mut phase = Phase::default();
        let trace = traced.then_some(&mut self.trace);
        let install = match install_dataplane(&self.script, self.workload.name(), config, trace) {
            Ok(install) => install,
            Err(error) => {
                self.tally.fail(format!("install failed: {error}"), 1);
                return phase;
            }
        };
        phase.setups.push(install.times);
        let mut admissions = install.admissions;
        let dataplane = install.dataplane;
        let (expect, published) = {
            let trace = traced.then_some(&mut self.trace);
            let mut gen = Generator::new(&dataplane, &install.subscribers, self.epoch, trace);
            drive(&mut gen, &self.script, &mut phase);
            gen.settle();
            phase.latencies = std::mem::take(&mut gen.latencies);
            phase.lateness = std::mem::take(&mut gen.lateness);
            phase.paced = gen.paced;
            phase.gen = std::mem::take(&mut gen.gen_trace);
            admissions.extend(std::mem::take(&mut phase.admissions));
            self.tally.merge(std::mem::take(&mut gen.tally));
            (gen.expect, gen.published)
        };
        phase.decisions = expect.decisions;
        phase.publishes = published;
        let stats = dataplane.stats();
        check_stats(&mut self.tally, &stats, &expect);
        if traced {
            phase.telemetry = Some(dataplane.telemetry().merged());
        }
        phase.stats = stats;
        if let Some(segments) = dataplane.segment_stats() {
            phase.segment_fsyncs = segments.fsync.count();
            phase.segment_fsync_p99_ns = segments.fsync.p99_ns();
        }
        drop(install.subscribers);
        let report = dataplane.shutdown();
        self.tally.fail("worker panics", report.worker_panics.len() as u64);
        for log in report.shard_audit.iter().chain(std::iter::once(&report.control_audit)) {
            phase.verify_s += verify_log(&mut self.tally, log);
            phase.verify_records += log.len() as u64;
        }
        if self.workload == Workload::AuditDurable {
            let started = Instant::now();
            for (shard, log) in report.shard_audit.iter().enumerate() {
                let shard_dir = PersistenceConfig::at(&dir).shard_dir(shard);
                match SegmentStore::recover(&shard_dir) {
                    Ok(recovered) => {
                        if !recovered.chain.is_intact() || !recovered.is_clean() {
                            self.tally.fail("recovered on-disk chain broken", 1);
                        }
                        if recovered.head_hash != log.head_hash() {
                            self.tally.fail("on-disk chain head differs from the log", 1);
                        }
                        phase.recover_records += recovered.records.len() as u64;
                    }
                    Err(error) => self.tally.fail(format!("recover failed: {error}"), 1),
                }
            }
            phase.recover_s = started.elapsed().as_secs_f64();
            phase.verify_s += phase.recover_s;
        }
        let _ = std::fs::remove_dir_all(&dir);
        let expected =
            &self.script.admissions[..admissions.len().min(self.script.admissions.len())];
        if admissions != expected {
            self.tally.fail("admissions differ from the oracle", 1);
        }
        phase
    }

    fn steady_phase(&mut self, load: Load, traced: bool) -> Phase {
        self.dataplane_pass(traced, |gen, script, phase| {
            gen.set_publishes(&script.rounds[0].publishes);
            let started = Instant::now();
            match load {
                Load::Closed { passes } => {
                    let window = passes * script.rounds[0].publishes.len() / WINDOWS_PER_SLICE;
                    for _ in 0..WINDOWS_PER_SLICE {
                        let (before, window_start) = (gen.expect.decisions, Instant::now());
                        gen.closed_loop(window);
                        phase.window_rates.push(
                            (gen.expect.decisions - before) as f64
                                / window_start.elapsed().as_secs_f64(),
                        );
                    }
                }
                Load::Open { rate, seconds } => gen.open_loop((rate * seconds) as usize, rate),
            }
            gen.settle();
            phase.active_s = started.elapsed().as_secs_f64();
        })
    }

    /// Plays the multi-round script on fresh installs: closed loop until the
    /// time is up, or a fixed number of passes at a fixed rate.
    fn churn_phase(&mut self, load: Load, traced: bool) -> Phase {
        let per_pass: usize = self.script.rounds.iter().map(|r| r.publishes.len()).sum();
        let passes = match load {
            Load::Open { rate, seconds } => {
                ((rate * seconds / per_pass as f64).round() as usize).max(1)
            }
            Load::Closed { passes } => passes,
        };
        let mut total = Phase::default();
        for _ in 0..passes {
            let pass = self.dataplane_pass(traced, |gen, script, phase| {
                let dataplane = gen.dataplane();
                let store = std::sync::Arc::clone(dataplane.context_store());
                for round in &script.rounds {
                    let (started, before) = (Instant::now(), gen.expect.decisions);
                    for (at, event) in &round.events {
                        let begin = Instant::now();
                        let result =
                            apply_event(dataplane, &store, &mut phase.admissions, *at, event);
                        let end = Instant::now();
                        if let Err(error) = result {
                            gen.tally.fail(format!("control event failed: {error}"), 1);
                        }
                        let kind = event_kind(event);
                        phase
                            .control
                            .entry(kind)
                            .or_default()
                            .push(end.duration_since(begin).as_nanos() as u64);
                        if let Some(trace) = gen.trace.as_deref_mut() {
                            trace.root(kind, begin, end);
                        }
                    }
                    gen.set_publishes(&round.publishes);
                    match load {
                        Load::Open { rate, .. } => gen.open_loop(round.publishes.len(), rate),
                        Load::Closed { .. } => gen.closed_loop(round.publishes.len()),
                    }
                    let begin = Instant::now();
                    gen.settle();
                    let end = Instant::now();
                    phase.barrier_ns.push(end.duration_since(begin).as_nanos() as u64);
                    if let Some(trace) = gen.trace.as_deref_mut() {
                        trace.root("barrier", begin, end);
                    }
                    let stats = dataplane.stats();
                    check_stats(&mut gen.tally, &stats, &gen.expect);
                    let seconds = started.elapsed().as_secs_f64();
                    phase.active_s += seconds;
                    if matches!(load, Load::Closed { .. }) {
                        phase.window_rates.push((gen.expect.decisions - before) as f64 / seconds);
                    }
                }
            });
            total.absorb(pass);
        }
        total
    }

    /// The synchronous bus, single-threaded: every scripted delivery is one
    /// `Middleware::send` followed by `try_recv` on the destination.
    fn bus_phase(&mut self, load: Load, traced: bool) -> Phase {
        let mut phase = Phase::default();
        let script = &self.script;
        let trace = &mut self.trace;
        let tally = &mut self.tally;
        let publishes = &script.rounds[0].publishes;
        let mut install = install_bus(script, traced.then_some(&mut *trace));
        check_bus_install(tally, script, &mut phase, &install);
        let count = match load {
            Load::Closed { passes } => passes * publishes.len(),
            Load::Open { rate, seconds } => (rate * seconds) as usize,
        };
        let period = match load {
            Load::Open { rate, .. } => 1e9 / rate,
            Load::Closed { .. } => 0.0,
        };
        let mut schedule_ns = ns_since(self.epoch) + 1_000;
        let mut total_paused_ns = 0;
        let mut segment_decisions = 0;
        let mut active = Duration::ZERO;
        let mut resumed = Instant::now();
        let mut first_sent = 0;
        let mut last_sent = 0;
        let mut seq = 10u64;
        let mut index = 0usize;
        while index < count {
            let slot = index % publishes.len();
            if slot == 0
                && index > 0
                && (index / publishes.len()).is_multiple_of(BUS_PASSES_PER_LOG)
            {
                let segment = resumed.elapsed();
                active += segment;
                if period == 0.0 {
                    phase
                        .window_rates
                        .push((phase.decisions - segment_decisions) as f64 / segment.as_secs_f64());
                    segment_decisions = phase.decisions;
                }
                let paused = Instant::now();
                retire_bus_log(tally, &install.middleware, &mut phase);
                install = install_bus(script, traced.then_some(&mut *trace));
                check_bus_install(tally, script, &mut phase, &install);
                let paused_ns = paused.elapsed().as_nanos() as u64;
                schedule_ns += paused_ns;
                total_paused_ns += paused_ns;
                resumed = Instant::now();
            }
            let intended = schedule_ns + (index as f64 * period) as u64;
            if period > 0.0 {
                let mut now = ns_since(self.epoch);
                while now < intended {
                    std::hint::spin_loop();
                    now = ns_since(self.epoch);
                }
                phase.lateness.push(now - intended);
                if index == 0 {
                    first_sent = now;
                }
                last_sent = now;
            }
            let publish = &publishes[slot];
            seq += 1;
            phase.publishes += 1;
            let publish_span = if traced {
                let now = ns_since(self.epoch);
                trace.push(Span { name: "publish", start_ns: now, end_ns: now, parent: 0, id: seq })
            } else {
                0
            };
            let attrs = publish.message.attributes.len();
            let targets = publish
                .allowed
                .iter()
                .map(|(sub, expected)| (*sub, Some(expected)))
                .chain(publish.denied.iter().map(|sub| (*sub, None)));
            for (sub, expected) in targets {
                let to = script.consumers[sub as usize].as_str();
                let message = publish.message.clone();
                let start_ns = ns_since(self.epoch);
                let outcome = install.middleware.send(
                    &publish.publisher,
                    to,
                    message,
                    &install.snapshot,
                    legaliot_context::Timestamp(seq),
                );
                let sent_ns = ns_since(self.epoch);
                phase.decisions += 1;
                if traced {
                    phase.bus_send_ns.push(sent_ns - start_ns);
                    trace.push(Span {
                        name: "bus.send",
                        start_ns,
                        end_ns: sent_ns,
                        parent: publish_span,
                        id: seq,
                    });
                }
                match (outcome, expected) {
                    (Ok(DeliveryOutcome::Delivered { quenched_attributes }), Some(expected)) => {
                        if quenched_attributes.len() != attrs - expected.attributes.len() {
                            tally.fail("quenched attributes differ from the oracle", 1);
                        }
                        let received = install.middleware.try_recv(to);
                        let now = ns_since(self.epoch);
                        if period > 0.0 {
                            phase.latencies.push(now.saturating_sub(intended));
                        }
                        if traced {
                            phase.gen.receive_ns.push(now - sent_ns);
                            trace.push(Span {
                                name: "receive",
                                start_ns: sent_ns,
                                end_ns: now,
                                parent: publish_span,
                                id: seq,
                            });
                        }
                        match received {
                            Some(message) => {
                                if traced {
                                    let mut expected = expected.clone();
                                    expected.sent_at_millis = seq;
                                    expected.context = message.context.clone();
                                    if message != expected {
                                        tally.fail("post-quench record differs from the oracle", 1);
                                    }
                                }
                            }
                            None => tally.fail("allowed delivery never received", 1),
                        }
                    }
                    (Ok(DeliveryOutcome::Delivered { .. }), None) => {
                        tally.fail("delivery the oracle denies", 1);
                    }
                    (
                        Ok(
                            DeliveryOutcome::Isolated
                            | DeliveryOutcome::DeniedByAccessControl { .. }
                            | DeliveryOutcome::DeniedByIfc(_),
                        ),
                        None,
                    ) => {}
                    (Ok(_), _) => tally.fail("bus outcome differs from the oracle", 1),
                    (Err(error), _) => tally.fail(format!("bus send failed: {error}"), 1),
                }
            }
            index += 1;
        }
        let segment = resumed.elapsed();
        active += segment;
        phase.active_s = active.as_secs_f64();
        if period == 0.0 && phase.decisions > segment_decisions {
            phase
                .window_rates
                .push((phase.decisions - segment_decisions) as f64 / segment.as_secs_f64());
        }
        if count > 1 && period > 0.0 {
            phase.paced = (count as u64 - 1, last_sent - first_sent - total_paused_ns);
        }
        retire_bus_log(tally, &install.middleware, &mut phase);
        phase
    }
}

/// Checks engine counters against what the oracle expects of everything
/// published, and the accounting identity.
fn check_stats(tally: &mut Tally, stats: &DataplaneStats, expect: &crate::drive::Expect) {
    tally.expect_eq("published deliveries", stats.published, expect.decisions);
    tally.expect_eq("delivered", stats.delivered, expect.delivered);
    tally.expect_eq("denied", stats.denied, expect.denied);
    tally.expect_eq("quenched attributes", stats.quenched_attributes, expect.quenched);
    tally.fail("missing endpoint", stats.missing_endpoint);
    tally.fail("deliveries lost", stats.deliveries_lost);
    tally.fail("receiver dropped", stats.receiver_dropped);
    tally.fail("segment records dropped", stats.segment_records_dropped);
    let accounted = stats.delivered + stats.denied + stats.missing_endpoint + stats.deliveries_lost;
    tally.expect_eq("accounting identity", stats.published, accounted);
}

fn check_bus_install(
    tally: &mut Tally,
    script: &Script,
    phase: &mut Phase,
    install: &crate::script::BusInstall,
) {
    if install.admissions != script.admissions {
        tally.fail("bus admissions differ from the oracle", 1);
    }
    phase.setups.push(install.times);
    phase.bus_establish_ns.push(install.establish_mean_ns);
}

/// Verifies one audit chain and returns how long that takes, in seconds: the
/// median of three verifications, so one preempted pass does not set it.
fn verify_log(tally: &mut Tally, log: &AuditLog) -> f64 {
    let mut seconds = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let intact = log.verify_chain().is_intact();
        seconds.push(started.elapsed().as_secs_f64());
        if !intact {
            tally.fail("audit chain broken", 1);
            break;
        }
    }
    median_f64(&seconds)
}

/// Verifies a bus audit log before its middleware is dropped.
fn retire_bus_log(tally: &mut Tally, middleware: &Middleware, phase: &mut Phase) {
    phase.verify_s += verify_log(tally, middleware.audit());
    phase.verify_records += middleware.audit().len() as u64;
    phase.bus_audit_records += middleware.audit().len() as u64;
}
