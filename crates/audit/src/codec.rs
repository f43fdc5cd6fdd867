//! The canonical binary encoding of an [`AuditRecord`], and the FNV-1a 64 hash the
//! chain is computed with.
//!
//! One encoding serves every purpose: [`crate::AuditLog`] hashes it to chain records,
//! [`crate::SegmentStore`] frames it on disk, and recovery decodes it back. The body is
//!
//! ```text
//! id             u64 LE
//! at_millis      u64 LE
//! previous_hash  u64 LE
//! recorded_by    string
//! event tag      varint   (see the table below)
//! event fields   in declaration order
//! ```
//!
//! and a stored record ([`encode_record`]) is the body followed by the record's `hash`
//! as a `u64` LE. Lengths, counts and integer fields are unsigned LEB128 varints;
//! `string` is a varint byte length followed by UTF-8; `bool` and `Option` presence
//! are one byte, 0 or 1; a [`Label`] is a tag count followed by the tag names in the
//! label's sorted order; a [`SecurityContext`] is its secrecy label then its
//! integrity label; a [`FlowDecision`] is `0` (allowed) or `1` followed by the
//! missing secrecy tags then the missing integrity tags (each a count plus names).
//!
//! | tag | variant            | tag | variant            |
//! |-----|--------------------|-----|--------------------|
//! | 1   | `FlowChecked`      | 8   | `DataDerived`      |
//! | 2   | `FlowSummary`      | 9   | `BreakGlass`       |
//! | 3   | `LabelChanged`     | 10  | `MessageQuenched`  |
//! | 4   | `PrivilegeChanged` | 11  | `DeliveryDropped`  |
//! | 5   | `Reconfigured`     | 12  | `ShardRestarted`   |
//! | 6   | `PolicyFired`      | 13  | `DeliveryLost`     |
//! | 7   | `ChannelChanged`   |     |                    |
//!
//! The chain hash of a record is [`fnv1a64`] over its body.
//!
//! Decoding is strict, so every record has exactly one valid encoding and hashing the
//! stored bytes equals hashing a re-encoding: [`decode_record`] rejects unknown
//! variant tags, overlong or overflowing varints, invalid UTF-8, empty or
//! untrimmed tag names, labels not in strictly ascending order, bytes other than 0/1
//! where a `bool` or `Option` is expected, and trailing bytes.

use legaliot_ifc::{FlowDecision, FlowDenialReason, Label, SecurityContext, Tag};

use crate::event::{AuditEvent, AuditEventKind, AuditRecord, RecordId};

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of `bytes`: the chain hash of a record body and the segment frame
/// checksum. `fnv1a64(b"")` is `0xcbf29ce484222325`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a(FNV_OFFSET_BASIS);
    hash.put(bytes);
    hash.0
}

/// Where an encoding is written: a byte buffer, or straight into the hash so that
/// hashing a record needs no buffer at all.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct Fnv1a(u64);

impl Sink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl AuditEventKind {
    /// The variant's numeric tag in the canonical record encoding.
    pub fn id(self) -> u32 {
        match self {
            AuditEventKind::FlowChecked => 1,
            AuditEventKind::FlowSummary => 2,
            AuditEventKind::LabelChanged => 3,
            AuditEventKind::PrivilegeChanged => 4,
            AuditEventKind::Reconfigured => 5,
            AuditEventKind::PolicyFired => 6,
            AuditEventKind::ChannelChanged => 7,
            AuditEventKind::DataDerived => 8,
            AuditEventKind::BreakGlass => 9,
            AuditEventKind::MessageQuenched => 10,
            AuditEventKind::DeliveryDropped => 11,
            AuditEventKind::ShardRestarted => 12,
            AuditEventKind::DeliveryLost => 13,
        }
    }

    /// The kind with the given tag, or `None` for a tag no variant carries.
    pub fn from_id(id: u32) -> Option<Self> {
        match id {
            1 => Some(AuditEventKind::FlowChecked),
            2 => Some(AuditEventKind::FlowSummary),
            3 => Some(AuditEventKind::LabelChanged),
            4 => Some(AuditEventKind::PrivilegeChanged),
            5 => Some(AuditEventKind::Reconfigured),
            6 => Some(AuditEventKind::PolicyFired),
            7 => Some(AuditEventKind::ChannelChanged),
            8 => Some(AuditEventKind::DataDerived),
            9 => Some(AuditEventKind::BreakGlass),
            10 => Some(AuditEventKind::MessageQuenched),
            11 => Some(AuditEventKind::DeliveryDropped),
            12 => Some(AuditEventKind::ShardRestarted),
            13 => Some(AuditEventKind::DeliveryLost),
            _ => None,
        }
    }
}

/// The chain hash of a record with these contents: [`fnv1a64`] over its body.
pub(crate) fn record_hash(
    id: RecordId,
    at_millis: u64,
    previous_hash: u64,
    recorded_by: &str,
    event: &AuditEvent,
) -> u64 {
    let mut hash = Fnv1a(FNV_OFFSET_BASIS);
    put_body(&mut hash, id, at_millis, previous_hash, recorded_by, event);
    hash.0
}

/// Appends the stored form of `record` to `out`: its body followed by its `hash`.
pub fn encode_record(record: &AuditRecord, out: &mut Vec<u8>) {
    put_body(
        out,
        record.id,
        record.at_millis,
        record.previous_hash,
        &record.recorded_by,
        &record.event,
    );
    out.put(&record.hash.to_le_bytes());
}

/// Decodes one stored record that fills `bytes` exactly; `None` for anything that is
/// not the canonical encoding of a record.
pub fn decode_record(bytes: &[u8]) -> Option<AuditRecord> {
    let mut r = Reader { rest: bytes };
    let id = RecordId(r.u64_le()?);
    let at_millis = r.u64_le()?;
    let previous_hash = r.u64_le()?;
    let recorded_by = r.string()?;
    let event = r.event()?;
    let hash = r.u64_le()?;
    r.rest.is_empty().then_some(AuditRecord {
        id,
        at_millis,
        recorded_by,
        event,
        previous_hash,
        hash,
    })
}

fn put_body<S: Sink>(
    s: &mut S,
    id: RecordId,
    at_millis: u64,
    previous_hash: u64,
    recorded_by: &str,
    event: &AuditEvent,
) {
    s.put(&id.0.to_le_bytes());
    s.put(&at_millis.to_le_bytes());
    s.put(&previous_hash.to_le_bytes());
    put_str(s, recorded_by);
    put_varint(s, u64::from(event.kind().id()));
    match event {
        AuditEvent::FlowChecked {
            source,
            destination,
            source_context,
            destination_context,
            decision,
            data_item,
        } => {
            put_str(s, source);
            put_str(s, destination);
            put_context(s, source_context);
            put_context(s, destination_context);
            match decision {
                FlowDecision::Allowed => s.put(&[0]),
                FlowDecision::Denied(reason) => {
                    s.put(&[1]);
                    put_tags(s, reason.missing_secrecy.len(), reason.missing_secrecy.iter());
                    put_tags(s, reason.missing_integrity.len(), reason.missing_integrity.iter());
                }
            }
            put_opt_str(s, data_item.as_deref());
        }
        AuditEvent::FlowSummary {
            source,
            destination,
            allowed,
            denied,
            window_start_millis,
            window_end_millis,
        } => {
            put_str(s, source);
            put_str(s, destination);
            put_varint(s, *allowed);
            put_varint(s, *denied);
            put_varint(s, *window_start_millis);
            put_varint(s, *window_end_millis);
        }
        AuditEvent::LabelChanged { entity, before, after, algorithm } => {
            put_str(s, entity);
            put_context(s, before);
            put_context(s, after);
            put_opt_str(s, algorithm.as_deref());
        }
        AuditEvent::PrivilegeChanged { entity, tag, change, authority } => {
            put_str(s, entity);
            put_str(s, tag);
            put_str(s, change);
            put_str(s, authority);
        }
        AuditEvent::Reconfigured { component, issued_by, action, accepted } => {
            put_str(s, component);
            put_str(s, issued_by);
            put_str(s, action);
            put_bool(s, *accepted);
        }
        AuditEvent::PolicyFired { policy, trigger, actions } => {
            put_str(s, policy);
            put_str(s, trigger);
            put_varint(s, *actions as u64);
        }
        AuditEvent::ChannelChanged { from, to, established, reason } => {
            put_str(s, from);
            put_str(s, to);
            put_bool(s, *established);
            put_str(s, reason);
        }
        AuditEvent::DataDerived { output, inputs, process, agent, context } => {
            put_str(s, output);
            put_strs(s, inputs);
            put_str(s, process);
            put_str(s, agent);
            put_context(s, context);
        }
        AuditEvent::BreakGlass { policy, active, justification } => {
            put_str(s, policy);
            put_bool(s, *active);
            put_str(s, justification);
        }
        AuditEvent::MessageQuenched { source, destination, message_type, attributes } => {
            put_str(s, source);
            put_str(s, destination);
            put_str(s, message_type);
            put_strs(s, attributes);
        }
        AuditEvent::DeliveryDropped { source, destination, message_type, dropped } => {
            put_str(s, source);
            put_str(s, destination);
            put_str(s, message_type);
            put_varint(s, *dropped);
        }
        AuditEvent::ShardRestarted { shard, restart, cause } => {
            put_str(s, shard);
            put_varint(s, *restart);
            put_str(s, cause);
        }
        AuditEvent::DeliveryLost { source, destination, message_type, lost, cause } => {
            put_str(s, source);
            put_str(s, destination);
            put_opt_str(s, message_type.as_deref());
            put_varint(s, *lost);
            put_str(s, cause);
        }
    }
}

fn put_varint<S: Sink>(s: &mut S, mut value: u64) {
    let mut buf = [0u8; 10];
    let mut n = 0;
    while value >= 0x80 {
        buf[n] = (value as u8) | 0x80;
        value >>= 7;
        n += 1;
    }
    buf[n] = value as u8;
    s.put(&buf[..=n]);
}

fn put_str<S: Sink>(s: &mut S, value: &str) {
    put_varint(s, value.len() as u64);
    s.put(value.as_bytes());
}

fn put_bool<S: Sink>(s: &mut S, value: bool) {
    s.put(&[u8::from(value)]);
}

fn put_opt_str<S: Sink>(s: &mut S, value: Option<&str>) {
    match value {
        None => s.put(&[0]),
        Some(value) => {
            s.put(&[1]);
            put_str(s, value);
        }
    }
}

fn put_strs<S: Sink>(s: &mut S, values: &[String]) {
    put_varint(s, values.len() as u64);
    for value in values {
        put_str(s, value);
    }
}

fn put_tags<'a, S: Sink>(s: &mut S, count: usize, tags: impl Iterator<Item = &'a Tag>) {
    put_varint(s, count as u64);
    for tag in tags {
        put_str(s, tag.name());
    }
}

fn put_context<S: Sink>(s: &mut S, context: &SecurityContext) {
    put_tags(s, context.secrecy().len(), context.secrecy().iter());
    put_tags(s, context.integrity().len(), context.integrity().iter());
}

/// A cursor over untrusted bytes; every read returns `None` on malformed input.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.rest.len() {
            return None;
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Some(head)
    }

    fn u64_le(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn byte(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A minimal-length LEB128 varint that fits in a `u64`.
    fn varint(&mut self) -> Option<u64> {
        let mut value = 0u64;
        for i in 0..10 {
            let byte = self.byte()?;
            // The tenth byte holds bit 63 only.
            if i == 9 && byte > 1 {
                return None;
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                // A zero final byte after the first would be an overlong encoding.
                return (byte != 0 || i == 0).then_some(value);
            }
        }
        None
    }

    /// An element count, bounded by the remaining input (every element takes at least
    /// one byte), so a corrupt count cannot demand a huge allocation.
    fn count(&mut self) -> Option<usize> {
        let n = usize::try_from(self.varint()?).ok()?;
        (n <= self.rest.len()).then_some(n)
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = usize::try_from(self.varint()?).ok()?;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn string(&mut self) -> Option<String> {
        self.str().map(str::to_owned)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn opt_string(&mut self) -> Option<Option<String>> {
        if self.bool()? {
            self.string().map(Some)
        } else {
            Some(None)
        }
    }

    fn strings(&mut self) -> Option<Vec<String>> {
        let n = self.count()?;
        (0..n).map(|_| self.string()).collect()
    }

    /// A tag name exactly as [`Tag`] stores it: non-empty and already trimmed.
    fn tag(&mut self) -> Option<Tag> {
        let name = self.str()?;
        Tag::try_new(name).filter(|tag| tag.name() == name)
    }

    fn tags(&mut self) -> Option<Vec<Tag>> {
        let n = self.count()?;
        (0..n).map(|_| self.tag()).collect()
    }

    /// A label's tags, which must arrive in strictly ascending (set) order.
    fn label(&mut self) -> Option<Label> {
        let tags = self.tags()?;
        tags.windows(2).all(|pair| pair[0] < pair[1]).then(|| tags.into_iter().collect())
    }

    fn context(&mut self) -> Option<SecurityContext> {
        let secrecy = self.label()?;
        let integrity = self.label()?;
        Some(SecurityContext::new(secrecy, integrity))
    }

    fn decision(&mut self) -> Option<FlowDecision> {
        if self.bool()? {
            let missing_secrecy = self.tags()?;
            let missing_integrity = self.tags()?;
            Some(FlowDecision::Denied(FlowDenialReason { missing_secrecy, missing_integrity }))
        } else {
            Some(FlowDecision::Allowed)
        }
    }

    fn event(&mut self) -> Option<AuditEvent> {
        let kind = AuditEventKind::from_id(u32::try_from(self.varint()?).ok()?)?;
        Some(match kind {
            AuditEventKind::FlowChecked => AuditEvent::FlowChecked {
                source: self.string()?,
                destination: self.string()?,
                source_context: self.context()?,
                destination_context: self.context()?,
                decision: self.decision()?,
                data_item: self.opt_string()?,
            },
            AuditEventKind::FlowSummary => AuditEvent::FlowSummary {
                source: self.string()?,
                destination: self.string()?,
                allowed: self.varint()?,
                denied: self.varint()?,
                window_start_millis: self.varint()?,
                window_end_millis: self.varint()?,
            },
            AuditEventKind::LabelChanged => AuditEvent::LabelChanged {
                entity: self.string()?,
                before: self.context()?,
                after: self.context()?,
                algorithm: self.opt_string()?,
            },
            AuditEventKind::PrivilegeChanged => AuditEvent::PrivilegeChanged {
                entity: self.string()?,
                tag: self.string()?,
                change: self.string()?,
                authority: self.string()?,
            },
            AuditEventKind::Reconfigured => AuditEvent::Reconfigured {
                component: self.string()?,
                issued_by: self.string()?,
                action: self.string()?,
                accepted: self.bool()?,
            },
            AuditEventKind::PolicyFired => AuditEvent::PolicyFired {
                policy: self.string()?,
                trigger: self.string()?,
                actions: usize::try_from(self.varint()?).ok()?,
            },
            AuditEventKind::ChannelChanged => AuditEvent::ChannelChanged {
                from: self.string()?,
                to: self.string()?,
                established: self.bool()?,
                reason: self.string()?,
            },
            AuditEventKind::DataDerived => AuditEvent::DataDerived {
                output: self.string()?,
                inputs: self.strings()?,
                process: self.string()?,
                agent: self.string()?,
                context: self.context()?,
            },
            AuditEventKind::BreakGlass => AuditEvent::BreakGlass {
                policy: self.string()?,
                active: self.bool()?,
                justification: self.string()?,
            },
            AuditEventKind::MessageQuenched => AuditEvent::MessageQuenched {
                source: self.string()?,
                destination: self.string()?,
                message_type: self.string()?,
                attributes: self.strings()?,
            },
            AuditEventKind::DeliveryDropped => AuditEvent::DeliveryDropped {
                source: self.string()?,
                destination: self.string()?,
                message_type: self.string()?,
                dropped: self.varint()?,
            },
            AuditEventKind::ShardRestarted => AuditEvent::ShardRestarted {
                shard: self.string()?,
                restart: self.varint()?,
                cause: self.string()?,
            },
            AuditEventKind::DeliveryLost => AuditEvent::DeliveryLost {
                source: self.string()?,
                destination: self.string()?,
                message_type: self.opt_string()?,
                lost: self.varint()?,
                cause: self.string()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stored `LabelChanged` record whose `before` context is written by `before`.
    fn label_changed_with(before: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        out.put(&[0; 24]);
        put_str(&mut out, "node");
        put_varint(&mut out, u64::from(AuditEventKind::LabelChanged.id()));
        put_str(&mut out, "entity");
        before(&mut out);
        put_context(&mut out, &SecurityContext::public());
        put_opt_str(&mut out, None);
        out.put(&[0; 8]);
        out
    }

    fn names(out: &mut Vec<u8>, names: &[&str]) {
        put_varint(out, names.len() as u64);
        for name in names {
            put_str(out, name);
        }
    }

    fn secrecy<'a>(tags: &'a [&'a str]) -> impl FnOnce(&mut Vec<u8>) + 'a {
        move |out| {
            names(out, tags);
            names(out, &[]);
        }
    }

    fn read_varint(bytes: &[u8]) -> Option<u64> {
        let mut r = Reader { rest: bytes };
        let value = r.varint()?;
        r.rest.is_empty().then_some(value)
    }

    #[test]
    fn varints_are_minimal_leb128() {
        for (value, len) in
            [(0u64, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3), (u64::MAX, 10)]
        {
            let mut out = Vec::new();
            put_varint(&mut out, value);
            assert_eq!(out.len(), len, "{value}");
            assert_eq!(read_varint(&out), Some(value));
        }
        // Overlong forms of 0 and 1, a tenth byte past bit 63, and an unterminated
        // varint are all rejected.
        assert_eq!(read_varint(&[0x80, 0x00]), None);
        assert_eq!(read_varint(&[0x81, 0x00]), None);
        assert_eq!(
            read_varint(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]),
            None
        );
        assert_eq!(read_varint(&[0x80; 11]), None);
        assert_eq!(read_varint(&[0x80]), None);
    }

    #[test]
    fn every_kind_id_round_trips_and_unknown_ids_do_not() {
        for id in 0..=20 {
            match AuditEventKind::from_id(id) {
                Some(kind) => assert_eq!(kind.id(), id),
                None => assert!(id == 0 || id > 13, "{id}"),
            }
        }
    }

    #[test]
    fn strict_decoding_rejects_non_canonical_input() {
        let valid = label_changed_with(secrecy(&["a", "b"]));
        assert!(decode_record(&valid).is_some());

        // Labels out of order or with duplicates, empty or untrimmed tag names.
        for tags in [&["b", "a"][..], &["a", "a"], &[""], &[" a"], &["a "]] {
            assert_eq!(decode_record(&label_changed_with(secrecy(tags))), None, "{tags:?}");
        }
        // Invalid UTF-8 in a tag name.
        let invalid_utf8 = label_changed_with(|out| {
            put_varint(out, 1);
            put_varint(out, 2);
            out.put(&[0xc3, 0x28]);
            names(out, &[]);
        });
        assert_eq!(decode_record(&invalid_utf8), None);

        // A trailing byte, and an `Option` presence byte other than 0/1.
        let mut trailing = valid.clone();
        trailing.push(0);
        assert_eq!(decode_record(&trailing), None);
        let mut bad_option = valid.clone();
        let presence = bad_option.len() - 9;
        bad_option[presence] = 2;
        assert_eq!(decode_record(&bad_option), None);

        // Unknown variant tags: the tag follows the header and the authority.
        let tag_at = 24 + 1 + "node".len();
        assert_eq!(valid[tag_at], 3);
        for unknown in [0, 14, 0x7f] {
            let mut bytes = valid.clone();
            bytes[tag_at] = unknown;
            assert_eq!(decode_record(&bytes), None, "tag {unknown}");
        }
    }
}
