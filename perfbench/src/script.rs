//! Workload inputs: a seeded fleet flattened into a replayable script with the
//! oracle's verdict attached to every publish, and the timed installs of that
//! fleet on the dataplane and on the synchronous bus.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use legaliot_context::{ContextSnapshot, ContextStore, Timestamp};
use legaliot_dataplane::{Dataplane, DataplaneConfig, DataplaneError, Subscriber, TopologyBuilder};
use legaliot_fleet::{generate, predict, ControlEvent, Fleet, FleetConfig, PredictedOutcome};
use legaliot_ifc::SecurityContext;
use legaliot_middleware::{Message, Middleware};

use crate::report::Trace;

/// One scripted publish with the oracle's verdict on each of its deliveries.
#[derive(Debug)]
pub struct Publish {
    pub publisher: String,
    pub message: Message,
    /// Allowed deliveries: subscriber index and the exact post-quench message
    /// the oracle expects (stamped with the fleet's original send time).
    pub allowed: Vec<(u32, Message)>,
    /// Denied deliveries, by subscriber index.
    pub denied: Vec<u32>,
    /// Attributes quenched over all allowed deliveries.
    pub quenched: u64,
}

impl Publish {
    pub fn fanout(&self) -> usize {
        self.allowed.len() + self.denied.len()
    }
}

/// One round: control events, then publishes.
#[derive(Debug)]
pub struct RoundScript {
    pub events: Vec<(u64, ControlEvent)>,
    pub publishes: Vec<Publish>,
}

/// A fleet, its oracle-annotated rounds, and the consumer index.
#[derive(Debug)]
pub struct Script {
    pub fleet: Fleet,
    pub rounds: Vec<RoundScript>,
    /// Consumer names by subscriber index (every edge destination, joins included).
    pub consumers: Vec<String>,
    /// Expected `(publisher, subscriber, admitted)` per subscribe attempt, in order.
    pub admissions: Vec<(String, String, bool)>,
}

impl Script {
    /// Generates the fleet from `config` and walks it through the oracle.
    pub fn new(config: FleetConfig) -> Script {
        let fleet = generate(config);
        let prediction = predict(&fleet);
        let mut consumers: BTreeSet<String> = BTreeSet::new();
        for deployment in &fleet.deployments {
            consumers.extend(deployment.edges.iter().map(|(_, to)| to.clone()));
        }
        for round in &fleet.rounds {
            for (_, event) in &round.events {
                if let ControlEvent::Join { edges, .. } = event {
                    consumers.extend(edges.iter().map(|(_, to)| to.clone()));
                }
            }
        }
        let consumers: Vec<String> = consumers.into_iter().collect();
        let index: HashMap<&str, u32> =
            consumers.iter().enumerate().map(|(i, name)| (name.as_str(), i as u32)).collect();

        let mut verdicts: HashMap<(String, u64), Vec<(u32, PredictedOutcome)>> = HashMap::new();
        for ((from, to, at), outcome) in prediction.outcomes {
            verdicts.entry((from, at)).or_default().push((index[to.as_str()], outcome));
        }
        let schemas: BTreeMap<&str, usize> = fleet
            .deployments
            .iter()
            .flat_map(|d| d.schemas.iter())
            .map(|s| (s.message_type.as_str(), s.attrs.len()))
            .collect();
        let schema_specs: BTreeMap<&str, &legaliot_fleet::SchemaSpec> = fleet
            .deployments
            .iter()
            .flat_map(|d| d.schemas.iter())
            .map(|s| (s.message_type.as_str(), s))
            .collect();

        let rounds = fleet
            .rounds
            .iter()
            .map(|round| RoundScript {
                events: round.events.clone(),
                publishes: round
                    .publishes
                    .iter()
                    .map(|spec| {
                        let schema = schema_specs[spec.message_type.as_str()];
                        let attrs = schemas[spec.message_type.as_str()] as u64;
                        let mut publish = Publish {
                            publisher: spec.publisher.clone(),
                            message: spec.message(schema),
                            allowed: Vec::new(),
                            denied: Vec::new(),
                            quenched: 0,
                        };
                        let key = (spec.publisher.clone(), spec.at_millis);
                        for (sub, outcome) in verdicts.remove(&key).unwrap_or_default() {
                            match outcome {
                                PredictedOutcome::Delivered(message) => {
                                    publish.quenched += attrs - message.attributes.len() as u64;
                                    publish.allowed.push((sub, *message));
                                }
                                PredictedOutcome::Denied => publish.denied.push(sub),
                            }
                        }
                        publish
                    })
                    .collect(),
            })
            .collect();
        let admissions = prediction
            .admissions
            .iter()
            .map(|(from, to, outcome)| (from.clone(), to.clone(), outcome.admitted()))
            .collect();
        Script { fleet, rounds, consumers, admissions }
    }

    /// Edges wired at install, in fleet order.
    pub fn install_edges(&self) -> impl Iterator<Item = &(String, String)> {
        self.fleet.deployments.iter().flat_map(|d| d.edges.iter())
    }

    /// The oracle's per-delivery decisions over all rounds.
    #[cfg(test)]
    pub fn decisions(&self) -> u64 {
        self.rounds.iter().flat_map(|r| r.publishes.iter()).map(|p| p.fanout() as u64).sum()
    }
}

/// Seconds spent in each install step.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Engine construction, including startup recovery when persistence is on.
    pub new_s: f64,
    pub keys_s: f64,
    pub register_s: f64,
    pub schemas_s: f64,
    pub rules_s: f64,
    pub subscribe_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.new_s
            + self.keys_s
            + self.register_s
            + self.schemas_s
            + self.rules_s
            + self.subscribe_s
    }
}

/// Times consecutive install steps.
struct StepTimer {
    last: Instant,
}

impl StepTimer {
    /// Seconds since the previous lap.
    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let seconds = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        seconds
    }
}

/// A fleet installed on a live dataplane.
pub struct DataplaneInstall {
    pub dataplane: Dataplane,
    pub subscribers: Vec<Subscriber>,
    pub times: SetupTimes,
    pub admissions: Vec<(String, String, bool)>,
}

/// Installs the fleet on a fresh dataplane: keys, endpoints, schemas, rules,
/// one mailbox per consumer, then every install edge (the path of the fleet
/// harness, timed step by step).
pub fn install_dataplane(
    script: &Script,
    name: &str,
    config: DataplaneConfig,
    trace: Option<&mut Trace>,
) -> Result<DataplaneInstall, DataplaneError> {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let mut timer = StepTimer { last: started };
    let dataplane = Dataplane::new(name, config);
    times.new_s = timer.lap();
    let store = dataplane.context_store();
    for deployment in &script.fleet.deployments {
        for (key, value) in &deployment.initial_keys {
            store.set(key.as_str(), value.to_context_value(), Timestamp(1));
        }
    }
    times.keys_s = timer.lap();
    let mut builder = TopologyBuilder::new("fleet");
    for deployment in &script.fleet.deployments {
        for thing in &deployment.things {
            builder = builder.thing(&thing.to_thing());
        }
    }
    builder.build().register(&dataplane)?;
    times.register_s = timer.lap();
    for deployment in &script.fleet.deployments {
        for schema in &deployment.schemas {
            dataplane.register_schema(schema.to_schema())?;
        }
    }
    times.schemas_s = timer.lap();
    dataplane.with_access(|access| {
        for deployment in &script.fleet.deployments {
            for rule in &deployment.rules {
                access.add_rule(rule.component.as_str(), rule.to_access_rule());
            }
        }
    });
    times.rules_s = timer.lap();
    let subscribers = script
        .consumers
        .iter()
        .map(|consumer| dataplane.open_subscriber(consumer))
        .collect::<Result<Vec<_>, _>>()?;
    let snapshot = store.snapshot();
    let mut admissions = Vec::new();
    for (from, to) in script.install_edges() {
        let outcome = dataplane.subscribe(from, to, &snapshot, Timestamp(2))?;
        admissions.push((from.clone(), to.clone(), outcome.is_delivered()));
    }
    times.subscribe_s = timer.lap();
    record_setup(trace, started, &times);
    Ok(DataplaneInstall { dataplane, subscribers, times, admissions })
}

/// Records the install as a `setup` span with one child per step.
fn record_setup(trace: Option<&mut Trace>, started: Instant, times: &SetupTimes) {
    let Some(trace) = trace else { return };
    let epoch = trace.epoch;
    let base = u64::try_from(started.duration_since(epoch).as_nanos()).unwrap_or(0);
    let total = (times.total() * 1e9) as u64;
    let parent = trace.push(crate::report::Span {
        name: "setup",
        start_ns: base,
        end_ns: base + total,
        parent: 0,
        id: 0,
    });
    let mut cursor = base;
    for (name, seconds) in [
        ("setup.new", times.new_s),
        ("setup.keys", times.keys_s),
        ("setup.register", times.register_s),
        ("setup.schemas", times.schemas_s),
        ("setup.rules", times.rules_s),
        ("setup.subscribe", times.subscribe_s),
    ] {
        let end = cursor + (seconds * 1e9) as u64;
        trace.push(crate::report::Span { name, start_ns: cursor, end_ns: end, parent, id: 0 });
        cursor = end;
    }
}

/// Applies one scripted control event to a settled dataplane, as the fleet
/// harness does, appending any subscribe attempts to `admissions`.
pub fn apply_event(
    dataplane: &Dataplane,
    store: &ContextStore,
    admissions: &mut Vec<(String, String, bool)>,
    at: u64,
    event: &ControlEvent,
) -> Result<(), DataplaneError> {
    match event {
        ControlEvent::SetKey { key, value } => {
            store.set(key.as_str(), value.to_context_value(), Timestamp(at));
        }
        ControlEvent::SetContext { endpoint, secrecy, integrity } => {
            let context = SecurityContext::from_names(
                secrecy.iter().map(String::as_str),
                integrity.iter().map(String::as_str),
            );
            dataplane.set_context(endpoint, context, Timestamp(at))?;
        }
        ControlEvent::SetIsolated { endpoint, isolated } => {
            dataplane.set_isolated(endpoint, *isolated, Timestamp(at))?;
        }
        ControlEvent::AddRule(rule) => {
            dataplane.with_access(|access| {
                access.add_rule(rule.component.as_str(), rule.to_access_rule())
            });
        }
        ControlEvent::Join { thing, edges } => {
            let mut builder = TopologyBuilder::new("join").thing(&thing.to_thing());
            for (from, to) in edges {
                builder = builder.edge(from.as_str(), to.as_str());
            }
            let topology = builder.build();
            topology.register(dataplane)?;
            let snapshot = store.snapshot();
            for (from, to) in &topology.edges {
                let outcome = dataplane.subscribe(from, to, &snapshot, Timestamp(at))?;
                admissions.push((from.clone(), to.clone(), outcome.is_delivered()));
            }
        }
        ControlEvent::Leave { endpoint } => dataplane.deregister(endpoint)?,
    }
    Ok(())
}

/// The span name of a control event's kind (`context.<name>_p50_ns` is its
/// per-layer metric).
pub fn event_kind(event: &ControlEvent) -> &'static str {
    match event {
        ControlEvent::SetKey { .. } => "control.set_key",
        ControlEvent::SetContext { .. } => "control.set_context",
        ControlEvent::SetIsolated { .. } => "control.set_isolated",
        ControlEvent::AddRule(_) => "control.add_rule",
        ControlEvent::Join { .. } => "control.join",
        ControlEvent::Leave { .. } => "control.leave",
    }
}

/// A fleet installed on the synchronous bus.
pub struct BusInstall {
    pub middleware: Middleware,
    pub snapshot: ContextSnapshot,
    pub times: SetupTimes,
    pub admissions: Vec<(String, String, bool)>,
    /// Mean `establish_channel` call, in nanoseconds.
    pub establish_mean_ns: f64,
}

/// Installs the round-0 fleet on a fresh [`Middleware`]: keys, components,
/// schemas, rules, then one channel per install edge.
pub fn install_bus(script: &Script, trace: Option<&mut Trace>) -> BusInstall {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let mut timer = StepTimer { last: started };
    let mut middleware = Middleware::new("bench-bus");
    let store = ContextStore::new();
    times.new_s = timer.lap();
    for deployment in &script.fleet.deployments {
        for (key, value) in &deployment.initial_keys {
            store.set(key.as_str(), value.to_context_value(), Timestamp(1));
        }
    }
    let snapshot = store.snapshot();
    times.keys_s = timer.lap();
    for deployment in &script.fleet.deployments {
        for thing in &deployment.things {
            middleware.registry_mut().register(thing.to_thing().to_component());
        }
    }
    times.register_s = timer.lap();
    for deployment in &script.fleet.deployments {
        for schema in &deployment.schemas {
            middleware.registry_mut().register_schema(schema.to_schema());
        }
    }
    times.schemas_s = timer.lap();
    for deployment in &script.fleet.deployments {
        for rule in &deployment.rules {
            middleware.access_mut().add_rule(rule.component.as_str(), rule.to_access_rule());
        }
    }
    times.rules_s = timer.lap();
    let mut admissions = Vec::new();
    for (from, to) in script.install_edges() {
        let admitted = middleware
            .establish_channel(from, to, &snapshot, Timestamp(2))
            .is_ok_and(|outcome| outcome.is_delivered());
        admissions.push((from.clone(), to.clone(), admitted));
    }
    times.subscribe_s = timer.lap();
    let establish_mean_ns = times.subscribe_s * 1e9 / admissions.len().max(1) as f64;
    record_setup(trace, started, &times);
    BusInstall { middleware, snapshot, times, admissions, establish_mean_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_generates_byte_identical_inputs() {
        let config = FleetConfig { seed: 42, deployments: 60, rounds: 3 };
        let first = Script::new(config);
        let second = Script::new(config);
        assert_eq!(first.fleet.manifest(), second.fleet.manifest());
        assert_eq!(first.consumers, second.consumers);
        assert_eq!(first.admissions, second.admissions);
        assert_eq!(first.decisions(), second.decisions());
        let other = Script::new(FleetConfig { seed: 43, ..config });
        assert_ne!(first.fleet.manifest(), other.fleet.manifest());
    }

    #[test]
    fn script_carries_every_oracle_decision() {
        let script = Script::new(FleetConfig { seed: 3, deployments: 40, rounds: 2 });
        let prediction = predict(&script.fleet);
        assert_eq!(script.decisions(), prediction.published);
        let allowed: u64 = script
            .rounds
            .iter()
            .flat_map(|r| r.publishes.iter())
            .map(|p| p.allowed.len() as u64)
            .sum();
        assert_eq!(allowed, prediction.delivered);
    }
}
