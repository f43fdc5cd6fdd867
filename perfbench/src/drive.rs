//! The generator thread of the dataplane workloads. One thread publishes —
//! on a fixed schedule (open loop) or keeping at most [`WINDOW`] allowed
//! deliveries outstanding (closed loop) — and between sends sweeps, with
//! `try_recv`, every mailbox that has a delivery still owed. Each receive is
//! matched to its publish through the send timestamp, which the generator sets
//! to a unique sequence number, and checked against the oracle.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use legaliot_dataplane::{Dataplane, ReceivedMessage, Subscriber, TryRecvError};

use crate::report::{ns_since, Span, Tally, Trace};
use crate::script::Publish;

/// Most allowed deliveries outstanding at once. Below both the mailbox (1024)
/// and the shard queue (4096) capacities, so under `OverflowPolicy::Block` the
/// one generator thread can never deadlock against the shard it feeds.
pub const WINDOW: usize = 512;

/// How long [`Generator::settle`] waits for owed deliveries before counting
/// them as never received.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(30);

/// What the oracle expects of everything published so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct Expect {
    pub decisions: u64,
    pub delivered: u64,
    pub denied: u64,
    pub quenched: u64,
}

#[derive(Debug)]
struct Inflight {
    publish: u32,
    intended_ns: u64,
    /// One bit per allowed delivery still owed.
    owed: u64,
    span: u32,
}

/// Timing the traced run adds to the generator.
#[derive(Debug, Default)]
pub struct GenTrace {
    pub publish_ns: Vec<u64>,
    pub receive_ns: Vec<u64>,
    pub sweeps: u64,
    pub empty_sweeps: u64,
    pub sweep_ns: u64,
}

/// One generator over one dataplane.
pub struct Generator<'a> {
    dataplane: &'a Dataplane,
    subscribers: &'a [Subscriber],
    publishes: &'a [Publish],
    epoch: Instant,
    next_seq: u64,
    head_seq: u64,
    /// Next script index to publish.
    cursor: usize,
    inflight: VecDeque<Inflight>,
    pending: Vec<u32>,
    active: Vec<u32>,
    outstanding: usize,
    pub expect: Expect,
    pub tally: Tally,
    /// Delivery latency from intended send time to receive, in ns (open loop).
    pub latencies: Vec<u64>,
    /// How late each scheduled publish went out, in ns (open loop).
    pub lateness: Vec<u64>,
    /// Publish calls made.
    pub published: u64,
    /// Open-loop pacing so far: `(publishes after the first of each run, ns
    /// from first to last send)`, for the achieved rate.
    pub paced: (u64, u64),
    record_latency: bool,
    check_records: bool,
    pub trace: Option<&'a mut Trace>,
    pub gen_trace: GenTrace,
}

impl<'a> Generator<'a> {
    pub fn new(
        dataplane: &'a Dataplane,
        subscribers: &'a [Subscriber],
        epoch: Instant,
        trace: Option<&'a mut Trace>,
    ) -> Self {
        let check_records = trace.is_some();
        Generator {
            dataplane,
            subscribers,
            publishes: &[],
            epoch,
            next_seq: 10,
            head_seq: 10,
            cursor: 0,
            inflight: VecDeque::new(),
            pending: vec![0; subscribers.len()],
            active: Vec::new(),
            outstanding: 0,
            expect: Expect::default(),
            tally: Tally::default(),
            latencies: Vec::new(),
            lateness: Vec::new(),
            published: 0,
            paced: (0, 0),
            record_latency: false,
            check_records,
            trace,
            gen_trace: GenTrace::default(),
        }
    }

    pub fn dataplane(&self) -> &'a Dataplane {
        self.dataplane
    }

    /// Switches the script being replayed; only between settled rounds.
    pub fn set_publishes(&mut self, publishes: &'a [Publish]) {
        assert!(self.inflight.is_empty(), "switch scripts only when settled");
        self.publishes = publishes;
        self.cursor = 0;
    }

    fn publish(&mut self, index: usize, intended_ns: u64) {
        let publish = &self.publishes[index];
        let seq = self.next_seq;
        self.next_seq += 1;
        self.published += 1;
        let traced = self.trace.is_some();
        let start_ns = if traced { ns_since(self.epoch) } else { 0 };
        let result = self.dataplane.publish_message(
            &publish.publisher,
            &publish.message,
            legaliot_context::Timestamp(seq),
        );
        let mut span = 0;
        if let Some(trace) = self.trace.as_deref_mut() {
            let end_ns = ns_since(self.epoch);
            self.gen_trace.publish_ns.push(end_ns - start_ns);
            span = trace.push(Span { name: "publish", start_ns, end_ns, parent: 0, id: seq });
        }
        let owed = match result {
            Ok(fanout) => {
                if fanout != publish.fanout() {
                    self.tally.fail("fan-out differs from the oracle", 1);
                }
                self.expect.decisions += publish.fanout() as u64;
                self.expect.delivered += publish.allowed.len() as u64;
                self.expect.denied += publish.denied.len() as u64;
                self.expect.quenched += publish.quenched;
                assert!(publish.allowed.len() <= 64, "fan-out above 64 subscribers");
                for &(sub, _) in &publish.allowed {
                    let sub = sub as usize;
                    if self.pending[sub] == 0 {
                        self.active.push(sub as u32);
                    }
                    self.pending[sub] += 1;
                }
                self.outstanding += publish.allowed.len();
                mask_len(publish.allowed.len())
            }
            Err(_) => {
                self.tally.fail("publish error", 1);
                0
            }
        };
        self.inflight.push_back(Inflight { publish: index as u32, intended_ns, owed, span });
        self.pop_settled();
    }

    fn pop_settled(&mut self) {
        while self.inflight.front().is_some_and(|entry| entry.owed == 0) {
            self.inflight.pop_front();
            self.head_seq += 1;
        }
    }

    fn on_receive(&mut self, sub: u32, message: ReceivedMessage, start_ns: u64, now_ns: u64) {
        let seq = message.sent_at_millis();
        let offset = seq.checked_sub(self.head_seq).map(|o| o as usize);
        let Some(entry) = offset.and_then(|o| self.inflight.get_mut(o)) else {
            self.tally.fail("delivery of no outstanding publish", 1);
            return;
        };
        let publish = &self.publishes[entry.publish as usize];
        let Some(k) = publish.allowed.iter().position(|&(allowed, _)| allowed == sub) else {
            self.tally.fail("delivery the oracle denies", 1);
            return;
        };
        if entry.owed & (1 << k) == 0 {
            self.tally.fail("duplicate delivery", 1);
            return;
        }
        entry.owed &= !(1 << k);
        if message.sender() != publish.publisher {
            self.tally.fail("delivery from the wrong sender", 1);
        }
        if self.record_latency {
            self.latencies.push(now_ns.saturating_sub(entry.intended_ns));
        }
        let parent = entry.span;
        if self.check_records {
            let mut expected = publish.allowed[k].1.clone();
            expected.sent_at_millis = seq;
            if message.thaw() != expected {
                self.tally.fail("post-quench record differs from the oracle", 1);
            }
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            self.gen_trace.receive_ns.push(now_ns - start_ns);
            trace.push(Span { name: "receive", start_ns, end_ns: now_ns, parent, id: seq });
        }
        self.pending[sub as usize] -= 1;
        self.outstanding -= 1;
        self.pop_settled();
    }

    fn drain_mailbox(&mut self, sub: u32) -> u64 {
        let mut found = 0;
        loop {
            let start_ns = if self.trace.is_some() { ns_since(self.epoch) } else { 0 };
            match self.subscribers[sub as usize].try_recv() {
                Ok(message) => {
                    found += 1;
                    let now_ns = if self.record_latency || self.trace.is_some() {
                        ns_since(self.epoch)
                    } else {
                        0
                    };
                    self.on_receive(sub, message, start_ns, now_ns);
                }
                Err(TryRecvError::Empty) => return found,
                Err(_) => {
                    self.tally.fail("mailbox disconnected", 1);
                    return found;
                }
            }
        }
    }

    /// Receives from every mailbox that is owed a delivery.
    pub fn sweep(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let start = self.trace.is_some().then(Instant::now);
        let mut found = 0;
        let mut i = 0;
        while i < self.active.len() {
            let sub = self.active[i];
            found += self.drain_mailbox(sub);
            if self.pending[sub as usize] == 0 {
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if let Some(start) = start {
            self.gen_trace.sweeps += 1;
            self.gen_trace.empty_sweeps += u64::from(found == 0);
            self.gen_trace.sweep_ns += start.elapsed().as_nanos() as u64;
        }
    }

    /// Closed loop: `count` publishes cycling through the script, keeping at
    /// most [`WINDOW`] allowed deliveries outstanding.
    pub fn closed_loop(&mut self, count: usize) {
        self.record_latency = false;
        for _ in 0..count {
            while self.outstanding >= WINDOW {
                self.sweep();
            }
            self.publish(self.cursor % self.publishes.len(), 0);
            self.cursor += 1;
        }
    }

    /// Open loop: `count` publishes cycling through the script, the i-th due
    /// at `start + i / rate`. Latency is timed from each publish's due time, so
    /// a stall delays (and is charged to) every publish behind it.
    pub fn open_loop(&mut self, count: usize, rate: f64) {
        self.record_latency = true;
        let period = 1e9 / rate;
        let start_ns = ns_since(self.epoch) + 1_000;
        let mut first_sent = 0;
        let mut last_sent = 0;
        for i in 0..count {
            let intended = start_ns + (i as f64 * period) as u64;
            let mut now = ns_since(self.epoch);
            while now < intended || self.outstanding >= WINDOW {
                self.sweep();
                std::hint::spin_loop();
                now = ns_since(self.epoch);
            }
            self.lateness.push(now - intended);
            if i == 0 {
                first_sent = now;
            }
            last_sent = now;
            self.publish(self.cursor % self.publishes.len(), intended);
            self.cursor += 1;
            self.sweep();
        }
        if count > 1 {
            self.paced.0 += count as u64 - 1;
            self.paced.1 += last_sent - first_sent;
        }
    }

    /// Waits for every owed delivery, drains the engine (so denials finish
    /// too), then sweeps every mailbox for anything unexpected.
    pub fn settle(&mut self) {
        let deadline = Instant::now() + SETTLE_TIMEOUT;
        while self.outstanding > 0 && Instant::now() < deadline {
            self.sweep();
            std::hint::spin_loop();
        }
        if self.outstanding > 0 {
            self.tally.fail("allowed delivery never received", self.outstanding as u64);
            self.outstanding = 0;
            self.inflight.clear();
            self.head_seq = self.next_seq;
            self.active.clear();
            self.pending.fill(0);
            return;
        }
        self.dataplane.drain();
        for sub in 0..self.subscribers.len() as u32 {
            self.drain_mailbox(sub);
        }
    }
}

fn mask_len(len: usize) -> u64 {
    if len == 0 {
        0
    } else {
        u64::MAX >> (64 - len)
    }
}
