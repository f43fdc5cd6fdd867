//! Model test for the endpoint directory's membership edges.
//!
//! Random `register`, `subscribe`, `unsubscribe` and `deregister` operations
//! over a small name set are applied to a real [`Dataplane`] and to a model of
//! plain sets. The small name set makes the cases the fleet oracle never
//! produces common: deregistering subscribers, re-registering a departed name,
//! self-subscriptions, and unsubscribing and then deregistering. After every
//! step each live publisher's fan-out must equal the model's, and no delivery
//! may ever reach a missing endpoint.

use std::collections::BTreeSet;

use legaliot_context::{ContextSnapshot, Timestamp};
use legaliot_dataplane::{Dataplane, DataplaneConfig, DataplaneError};
use legaliot_ifc::SecurityContext;
use legaliot_middleware::{Component, Principal};
use proptest::prelude::*;

const NAMES: [&str; 5] = ["n0", "n1", "n2", "n3", "n4"];

fn component(name: &str) -> Component {
    Component::builder(name, Principal::new("owner"))
        .context(SecurityContext::from_names(["t"], Vec::<&str>::new()))
        .build()
}

/// The model: who is registered, and the `(publisher, subscriber)` edges.
#[derive(Default)]
struct Membership {
    live: BTreeSet<usize>,
    edges: BTreeSet<(usize, usize)>,
}

impl Membership {
    fn fanout(&self, publisher: usize) -> usize {
        self.edges.iter().filter(|(from, _)| *from == publisher).count()
    }
}

fn unknown(name: &str) -> DataplaneError {
    DataplaneError::UnknownEndpoint { name: name.to_string() }
}

/// Applies one `(op, a, b)` step to both the dataplane and the model, checking
/// that each operation succeeds or fails exactly when the model says it should.
fn apply(
    dataplane: &Dataplane,
    model: &mut Membership,
    (op, a, b): (u8, usize, usize),
    now: Timestamp,
) -> Result<(), TestCaseError> {
    let (name_a, name_b) = (NAMES[a], NAMES[b]);
    match op {
        0 => {
            let result = dataplane.register(component(name_a));
            if model.live.insert(a) {
                prop_assert_eq!(result, Ok(()));
            } else {
                let duplicate = DataplaneError::DuplicateEndpoint { name: name_a.to_string() };
                prop_assert_eq!(result, Err(duplicate));
            }
        }
        1 | 2 => {
            // `a` publishes to `b`.
            let result = dataplane.subscribe(name_a, name_b, &ContextSnapshot::default(), now);
            match (model.live.contains(&a), model.live.contains(&b)) {
                (true, true) => {
                    prop_assert!(result.map(|outcome| outcome.is_delivered()).unwrap_or(false));
                    model.edges.insert((a, b));
                }
                (_, false) => prop_assert_eq!(result.map(|_| ()), Err(unknown(name_b))),
                (false, true) => prop_assert_eq!(result.map(|_| ()), Err(unknown(name_a))),
            }
        }
        3 => {
            let result = dataplane.unsubscribe(name_a, name_b);
            if model.live.contains(&a) {
                prop_assert_eq!(result, Ok(()));
                model.edges.remove(&(a, b));
            } else {
                prop_assert_eq!(result, Err(unknown(name_a)));
            }
        }
        _ => {
            let result = dataplane.deregister(name_a);
            if model.live.remove(&a) {
                prop_assert_eq!(result, Ok(()));
                model.edges.retain(|&(from, to)| from != a && to != a);
            } else {
                prop_assert_eq!(result, Err(unknown(name_a)));
            }
        }
    }
    Ok(())
}

fn check_membership(steps: &[(u8, usize, usize)]) -> Result<(), TestCaseError> {
    let dataplane = Dataplane::new("membership", DataplaneConfig::default());
    for name in NAMES {
        dataplane.allow_sends_to(name);
    }
    let mut model = Membership::default();
    let mut clock = 1u64;
    for (index, &step) in steps.iter().enumerate() {
        apply(&dataplane, &mut model, step, Timestamp(clock))?;
        clock += 1;
        dataplane.drain();
        for (publisher, name) in NAMES.iter().enumerate() {
            let result = dataplane.publish(name, Timestamp(clock));
            if model.live.contains(&publisher) {
                let expected = model.fanout(publisher);
                prop_assert!(
                    result == Ok(expected),
                    "fan-out of {name} after step {index} {step:?}: {result:?}, model {expected}"
                );
            } else {
                prop_assert_eq!(result, Err(unknown(name)));
            }
        }
        clock += 1;
        dataplane.drain();
        let stats = dataplane.stats();
        prop_assert!(stats.missing_endpoint == 0, "missing endpoint after step {index} {step:?}");
        prop_assert_eq!(stats.delivered, stats.published);
    }
    Ok(())
}

proptest! {
    #[test]
    fn fanout_matches_the_membership_model(
        steps in proptest::collection::vec((0u8..5, 0usize..5, 0usize..5), 1..40),
    ) {
        check_membership(&steps)?;
    }
}

/// The sequences the model test relies on hitting, spelled out once.
#[test]
fn departed_names_can_rejoin_with_fresh_edges() {
    // register n0..n2; n0 → n1, n0 → n2, n1 → n0, n2 → n2 (self).
    let mut steps = vec![(0, 0, 0), (0, 1, 0), (0, 2, 0)];
    steps.extend([(1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 2, 2)]);
    // The subscriber n1 leaves and rejoins: n0's fan-out drops to one.
    steps.extend([(4, 1, 0), (0, 1, 0)]);
    // Unsubscribe, then deregister the publisher; rejoin and resubscribe.
    steps.extend([(3, 0, 2), (4, 0, 0), (0, 0, 0), (1, 0, 2), (1, 0, 1)]);
    // The self-subscribed n2 leaves while n0 still publishes to it.
    steps.extend([(4, 2, 0), (0, 2, 0), (1, 2, 2)]);
    check_membership(&steps).unwrap();
}
