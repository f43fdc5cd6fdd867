//! Golden vectors for the canonical audit-record encoding and its chain hash.
//!
//! Each `AuditEvent` variant has one fixed record whose stored bytes
//! (`codec::encode_record`: body ‖ hash) and chain hash are pinned here. Any
//! change to the encoding, the variant tags or the hash — including one a new
//! toolchain or platform would cause — fails these tests. A deliberate format
//! change must bump the segment format version and replace these vectors.

use legaliot_audit::codec::{decode_record, encode_record, fnv1a64};
use legaliot_audit::{AuditEvent, AuditEventKind, AuditLog, AuditRecord};
use legaliot_ifc::{can_flow, SecurityContext};

fn context(secrecy: &[&str], integrity: &[&str]) -> SecurityContext {
    SecurityContext::from_names(secrecy.iter().copied(), integrity.iter().copied())
}

/// One event of every variant, in tag order.
fn events() -> Vec<AuditEvent> {
    let medical = context(&["medical", "nhs:ann"], &["hosp-dev"]);
    let public = SecurityContext::public();
    vec![
        AuditEvent::FlowChecked {
            source: "sensor".into(),
            destination: "analyser".into(),
            source_context: medical.clone(),
            destination_context: public.clone(),
            decision: can_flow(&medical, &public),
            data_item: None,
        },
        AuditEvent::FlowSummary {
            source: "sensor".into(),
            destination: "analyser".into(),
            allowed: 41,
            denied: 300,
            window_start_millis: 10,
            window_end_millis: 1_700_000_000_000,
        },
        AuditEvent::LabelChanged {
            entity: "sanitiser".into(),
            before: medical.clone(),
            after: context(&[], &["sanitised"]),
            algorithm: Some("k-anonymise".into()),
        },
        AuditEvent::PrivilegeChanged {
            entity: "analyser".into(),
            tag: "medical".into(),
            change: "grant secrecy-remove".into(),
            authority: "hospital".into(),
        },
        AuditEvent::Reconfigured {
            component: "camera".into(),
            issued_by: "owner".into(),
            action: "disable".into(),
            accepted: true,
        },
        AuditEvent::PolicyFired {
            policy: "emergency".into(),
            trigger: "hr>180".into(),
            actions: 3,
        },
        AuditEvent::ChannelChanged {
            from: "sensor".into(),
            to: "cloud".into(),
            established: false,
            reason: "IFC denied".into(),
        },
        AuditEvent::DataDerived {
            output: "stats".into(),
            inputs: vec!["ann-reading".into(), "zeb-reading".into()],
            process: "stats-gen".into(),
            agent: "hospital".into(),
            context: context(&["medical"], &[]),
        },
        AuditEvent::BreakGlass {
            policy: "ambulance".into(),
            active: true,
            justification: "cardiac arrest".into(),
        },
        AuditEvent::MessageQuenched {
            source: "monitor".into(),
            destination: "family".into(),
            message_type: "vitals".into(),
            attributes: vec!["detail".into(), "subject-id".into()],
        },
        AuditEvent::DeliveryDropped {
            source: "sensor".into(),
            destination: "dashboard".into(),
            message_type: "reading".into(),
            dropped: 12,
        },
        AuditEvent::ShardRestarted {
            shard: "plane-shard-2".into(),
            restart: 1,
            cause: "worker panicked".into(),
        },
        AuditEvent::DeliveryLost {
            source: "sensor".into(),
            destination: "analyser".into(),
            message_type: None,
            lost: 2,
            cause: "shard degraded".into(),
        },
    ]
}

/// The fixed record for `event`: id 7, chained from a fixed previous hash.
fn record(event: AuditEvent) -> AuditRecord {
    let mut log = AuditLog::resume("gw-1", 0x0123_4567_89ab_cdef, 7);
    log.record(event, 1_700_000_000_123);
    log.records()[0].clone()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(tag, chain hash, stored bytes)` of each fixed record, in tag order.
const GOLDEN: [(u32, u64, &str); 13] = [
    (
        1, // FlowChecked
        0x6492_d3e1_66da_9385,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d31010673656e736f7208616e",
            "616c7973657202076d65646963616c076e68733a616e6e0108686f73702d64657600000102076d65",
            "646963616c076e68733a616e6e00008593da66e1d39264",
        ),
    ),
    (
        2, // FlowSummary
        0xc606_7438_52ce_10c4,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d31020673656e736f7208616e",
            "616c7973657229ac020a80d095ffbc31c410ce52387406c6",
        ),
    ),
    (
        3, // LabelChanged
        0x5d98_f197_cf39_6f6c,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d31030973616e697469736572",
            "02076d65646963616c076e68733a616e6e0108686f73702d64657600010973616e69746973656401",
            "0b6b2d616e6f6e796d6973656c6f39cf97f1985d",
        ),
    ),
    (
        4, // PrivilegeChanged
        0x04c9_310c_3964_04d7,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d310408616e616c7973657207",
            "6d65646963616c146772616e7420736563726563792d72656d6f766508686f73706974616cd70464",
            "390c31c904",
        ),
    ),
    (
        5, // Reconfigured
        0x1bb2_00be_c6f1_2c19,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d31050663616d657261056f77",
            "6e65720764697361626c6501192cf1c6be00b21b",
        ),
    ),
    (
        6, // PolicyFired
        0x8d77_9b1a_5947_e29d,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d310609656d657267656e6379",
            "0668723e313830039de247591a9b778d",
        ),
    ),
    (
        7, // ChannelChanged
        0xdc15_2cab_96a6_0fb1,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d31070673656e736f7205636c",
            "6f7564000a4946432064656e696564b10fa696ab2c15dc",
        ),
    ),
    (
        8, // DataDerived
        0x96c8_b6ff_4647_b6a7,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d3108057374617473020b616e",
            "6e2d72656164696e670b7a65622d72656164696e670973746174732d67656e08686f73706974616c",
            "01076d65646963616c00a7b64746ffb6c896",
        ),
    ),
    (
        9, // BreakGlass
        0xcbfb_57db_b5e4_d3a0,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d310909616d62756c616e6365",
            "010e6361726469616320617272657374a0d3e4b5db57fbcb",
        ),
    ),
    (
        10, // MessageQuenched
        0xe945_a670_7443_3238,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d310a076d6f6e69746f720666",
            "616d696c7906766974616c73020664657461696c0a7375626a6563742d69643832437470a645e9",
        ),
    ),
    (
        11, // DeliveryDropped
        0x4bb3_32e5_953c_0ae2,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d310b0673656e736f72096461",
            "7368626f6172640772656164696e670ce20a3c95e532b34b",
        ),
    ),
    (
        12, // ShardRestarted
        0x63bc_3f90_dcf2_502f,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d310c0d706c616e652d736861",
            "72642d32010f776f726b65722070616e69636b65642f50f2dc903fbc63",
        ),
    ),
    (
        13, // DeliveryLost
        0x39ac_de33_d9af_d3fb,
        concat!(
            "07000000000000007b68e5cf8b010000efcdab89674523010467772d310d0673656e736f7208616e",
            "616c7973657200020e7368617264206465677261646564fbd3afd933deac39",
        ),
    ),
];

/// FNV-1a 64 reference values (the offset basis, and two published vectors).
#[test]
fn fnv1a64_reference_values() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn every_variant_encodes_to_its_golden_bytes_and_hash() {
    let events = events();
    assert_eq!(events.len(), GOLDEN.len());
    for (event, (tag, hash, bytes)) in events.into_iter().zip(GOLDEN) {
        let kind = event.kind();
        assert_eq!(kind.id(), tag, "{kind:?}");
        assert_eq!(AuditEventKind::from_id(tag), Some(kind));

        let record = record(event);
        assert_eq!(record.hash, hash, "{kind:?} chain hash: {:#018x}", record.hash);
        let mut encoded = Vec::new();
        encode_record(&record, &mut encoded);
        assert_eq!(hex(&encoded), bytes, "{kind:?} encoding");

        // The chain hash is FNV-1a 64 over the body, which the stored hash follows.
        let (body, stored_hash) = encoded.split_at(encoded.len() - 8);
        assert_eq!(fnv1a64(body), hash, "{kind:?}");
        assert_eq!(stored_hash, hash.to_le_bytes());
        assert_eq!(decode_record(&encoded), Some(record.clone()), "{kind:?} decode");
        assert!(AuditLog::verify_records(0x0123_4567_89ab_cdef, &[record]).is_intact());
    }
}
