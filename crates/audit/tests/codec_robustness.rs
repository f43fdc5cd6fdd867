//! Robustness of the canonical audit-record decoder: arbitrary records of
//! every variant round-trip, every strict prefix of a valid encoding is
//! rejected, and arbitrary or mutated bytes never panic the decoder and never
//! decode to a record with a second, different encoding.

use legaliot_audit::codec::{decode_record, encode_record};
use legaliot_audit::{AuditEvent, AuditRecord, RecordId};
use legaliot_ifc::{FlowDecision, FlowDenialReason, SecurityContext, Tag};
use proptest::prelude::*;

/// Strings with multi-byte UTF-8, spaces and the empty string.
fn text() -> impl Strategy<Value = String> {
    prop_oneof!["[- a-z0-9]{0,12}", "[à-ÿ€]{0,4}"]
}

/// Integers across every varint length, including 0 and `u64::MAX`.
fn int() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..200, 0u64..u64::MAX, Just(u64::MAX)]
}

fn opt_text() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), text().prop_map(Some)]
}

fn texts() -> impl Strategy<Value = Vec<String>> {
    collection::vec(text(), 0..4)
}

fn tag() -> impl Strategy<Value = Tag> {
    "[-a-z:]{1,6}".prop_map(Tag::new)
}

fn context() -> impl Strategy<Value = SecurityContext> {
    (collection::btree_set(tag(), 0..4), collection::btree_set(tag(), 0..3)).prop_map(
        |(secrecy, integrity)| {
            SecurityContext::new(secrecy.into_iter().collect(), integrity.into_iter().collect())
        },
    )
}

fn decision() -> impl Strategy<Value = FlowDecision> {
    prop_oneof![
        Just(FlowDecision::Allowed),
        (collection::vec(tag(), 0..3), collection::vec(tag(), 0..3)).prop_map(
            |(missing_secrecy, missing_integrity)| {
                FlowDecision::Denied(FlowDenialReason { missing_secrecy, missing_integrity })
            }
        ),
    ]
}

/// Events of every variant.
fn event() -> impl Strategy<Value = AuditEvent> {
    prop_oneof![
        ((text(), text()), (context(), context()), decision(), opt_text()).prop_map(
            |(
                (source, destination),
                (source_context, destination_context),
                decision,
                data_item,
            )| {
                AuditEvent::FlowChecked {
                    source,
                    destination,
                    source_context,
                    destination_context,
                    decision,
                    data_item,
                }
            }
        ),
        ((text(), text()), (int(), int()), (int(), int())).prop_map(
            |((source, destination), (allowed, denied), (start, end))| AuditEvent::FlowSummary {
                source,
                destination,
                allowed,
                denied,
                window_start_millis: start,
                window_end_millis: end,
            }
        ),
        (text(), context(), context(), opt_text()).prop_map(
            |(entity, before, after, algorithm)| {
                AuditEvent::LabelChanged { entity, before, after, algorithm }
            }
        ),
        (text(), text(), text(), text()).prop_map(|(entity, tag, change, authority)| {
            AuditEvent::PrivilegeChanged { entity, tag, change, authority }
        }),
        (text(), text(), text(), prop::bool::ANY).prop_map(
            |(component, issued_by, action, accepted)| AuditEvent::Reconfigured {
                component,
                issued_by,
                action,
                accepted,
            }
        ),
        (text(), text(), int()).prop_map(|(policy, trigger, actions)| AuditEvent::PolicyFired {
            policy,
            trigger,
            actions: actions as usize,
        }),
        (text(), text(), prop::bool::ANY, text()).prop_map(|(from, to, established, reason)| {
            AuditEvent::ChannelChanged { from, to, established, reason }
        }),
        ((text(), texts()), (text(), text()), context()).prop_map(
            |((output, inputs), (process, agent), context)| AuditEvent::DataDerived {
                output,
                inputs,
                process,
                agent,
                context,
            }
        ),
        (text(), prop::bool::ANY, text()).prop_map(|(policy, active, justification)| {
            AuditEvent::BreakGlass { policy, active, justification }
        }),
        (text(), text(), text(), texts()).prop_map(
            |(source, destination, message_type, attributes)| AuditEvent::MessageQuenched {
                source,
                destination,
                message_type,
                attributes,
            }
        ),
        (text(), text(), text(), int()).prop_map(|(source, destination, message_type, dropped)| {
            AuditEvent::DeliveryDropped { source, destination, message_type, dropped }
        }),
        (text(), int(), text()).prop_map(|(shard, restart, cause)| {
            AuditEvent::ShardRestarted { shard, restart, cause }
        }),
        ((text(), text()), opt_text(), int(), text()).prop_map(
            |((source, destination), message_type, lost, cause)| AuditEvent::DeliveryLost {
                source,
                destination,
                message_type,
                lost,
                cause,
            }
        ),
    ]
}

/// Records with arbitrary fields; the codec does not require `hash` to match.
fn record() -> impl Strategy<Value = AuditRecord> {
    ((int(), int()), (int(), int()), text(), event()).prop_map(
        |((id, at_millis), (previous_hash, hash), recorded_by, event)| AuditRecord {
            id: RecordId(id),
            at_millis,
            recorded_by,
            event,
            previous_hash,
            hash,
        },
    )
}

fn encode(record: &AuditRecord) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_record(record, &mut bytes);
    bytes
}

/// The decoder's contract on any input: no panic, and a decoded record's
/// encoding is exactly the input (one valid encoding per record).
fn decodes_canonically_or_not_at_all(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Some(record) = decode_record(bytes) {
        prop_assert_eq!(encode(&record), bytes.to_vec());
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_record_round_trips(record in record()) {
        let bytes = encode(&record);
        prop_assert_eq!(decode_record(&bytes), Some(record));
    }

    #[test]
    fn every_strict_prefix_is_rejected(record in record()) {
        let bytes = encode(&record);
        for cut in 0..bytes.len() {
            prop_assert!(decode_record(&bytes[..cut]).is_none(), "prefix of {} bytes decoded", cut);
        }
    }

    #[test]
    fn arbitrary_bytes_are_rejected_without_panicking(
        bytes in collection::vec(0u16..256, 0..160),
        authority_len in 0u16..256,
    ) {
        let mut bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        decodes_canonically_or_not_at_all(&bytes)?;
        prop_assert!(decode_record(&bytes).is_none(), "random bytes decoded");
        // The same bytes behind a plausible header, so the decoder reaches
        // the authority, the variant tag and the fields.
        let mut framed = vec![0u8; 24];
        framed.push(authority_len as u8);
        framed.append(&mut bytes);
        decodes_canonically_or_not_at_all(&framed)?;
    }

    #[test]
    fn mutated_encodings_never_decode_to_another_encoding(
        record in record(),
        at in 0usize..4096,
        byte in 0u16..256,
    ) {
        let mut bytes = encode(&record);
        let at = at % bytes.len();
        bytes[at] = byte as u8;
        decodes_canonically_or_not_at_all(&bytes)?;
    }
}
