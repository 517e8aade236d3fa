//! Outside-in layer probes for the traced run.
//!
//! The benchmark cannot edit the platform, so it times the layers it
//! can inject: a [`BackendProvider`] that opens the same files as the
//! untraced runs and times every call, and a [`BusDriver`]
//! over the same `css_bus::Broker` the controller would build. Every
//! wrapped call is also logged as an interval, so the traced run can
//! place it inside or outside the program's own spans.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use css_bus::{
    Broker, BrokerStats, BusDriver, DeadLetter, Delivery, PublishOptions, PublishOutcome,
    SubscriptionConfig, SubscriptionStats,
};
use css_core::BackendProvider;
use css_event::NotificationMessage;
use css_storage::LogBackend;
use css_types::{CssResult, SubscriptionId};

use crate::world::{Unsynced, UnsyncedDir};

/// Storage backend families, by the component names the platform asks
/// its provider for (`audit-1` is shard 1 of `audit`, and so on).
pub const FAMILIES: [&str; 4] = ["audit", "events-index", "gateway", "policies"];
/// Storage calls, in [`Probe::storage`] order.
pub const CALLS: [&str; 3] = ["append", "read", "sync"];

fn family_of(name: &str) -> usize {
    FAMILIES
        .iter()
        .position(|f| name == *f || name.starts_with(&format!("{f}-")))
        .unwrap_or(FAMILIES.len())
}

/// Calls, bytes and nanoseconds spent in one kind of call.
#[derive(Default)]
pub struct Tally {
    pub calls: AtomicU64,
    pub bytes: AtomicU64,
    pub ns: AtomicU64,
}

impl Tally {
    fn add(&self, bytes: u64, ns: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.bytes.fetch_add(bytes, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
    }

    pub fn read(&self) -> [u64; 3] {
        [
            self.calls.load(Relaxed),
            self.bytes.load(Relaxed),
            self.ns.load(Relaxed),
        ]
    }
}

/// One wrapped call, in nanoseconds since the probe's origin.
#[derive(Clone, Copy)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
    /// A bus call (else a storage call).
    pub bus: bool,
}

/// Shared counters for every wrapped call. `storage[f][c]` is family
/// `f` (the last slot collects unknown names) and call `c` of
/// [`CALLS`]; for `bus_publish` the byte column counts routed delivery
/// groups and for `bus_poll` it counts polls that returned a message.
pub struct Probe {
    origin: Instant,
    pub storage: [[Tally; 3]; FAMILIES.len() + 1],
    pub bus_publish: Tally,
    pub bus_poll: Tally,
    pub bus_ack: Tally,
    queued: AtomicU64,
    pub backlog_max: AtomicU64,
    log: Mutex<Vec<Interval>>,
    calls: Mutex<Vec<(u64, u64)>>,
}

impl Probe {
    pub fn new() -> Arc<Self> {
        Arc::new(Probe {
            origin: Instant::now(),
            storage: Default::default(),
            bus_publish: Tally::default(),
            bus_poll: Tally::default(),
            bus_ack: Tally::default(),
            queued: AtomicU64::new(0),
            backlog_max: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the probe's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `instant` in the probe's time base.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.duration_since(self.origin).as_nanos() as u64
    }

    fn timed<T>(&self, bus: bool, tally: &Tally, f: impl FnOnce() -> (T, u64)) -> T {
        let start = self.now();
        let (out, bytes) = f();
        let end = self.now();
        tally.add(bytes, end - start);
        self.log.lock().push(Interval { start, end, bus });
        out
    }

    /// Take the wrapped-call intervals logged so far.
    pub fn take_intervals(&self) -> Vec<Interval> {
        std::mem::take(&mut *self.log.lock())
    }

    /// Log one timed platform call (the benchmark's own timing).
    pub fn mark_call(&self, start: Instant, end: Instant) {
        self.calls.lock().push((self.at(start), self.at(end)));
    }

    /// Take the timed platform calls logged so far, oldest first.
    pub fn take_calls(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.calls.lock())
    }

    /// Every tally's current `[calls, bytes, ns]`.
    pub fn snapshot(&self) -> Tallies {
        Tallies {
            storage: self
                .storage
                .each_ref()
                .map(|f| f.each_ref().map(Tally::read)),
            bus: [&self.bus_publish, &self.bus_poll, &self.bus_ack].map(Tally::read),
        }
    }

    /// Nanoseconds spent in every wrapped call so far.
    pub fn wrapped_ns(&self) -> u64 {
        let storage: u64 = self
            .storage
            .iter()
            .flatten()
            .map(|t| t.ns.load(Relaxed))
            .sum();
        storage + self.bus_ns()
    }

    /// Nanoseconds spent in wrapped bus calls so far.
    pub fn bus_ns(&self) -> u64 {
        [&self.bus_publish, &self.bus_poll, &self.bus_ack]
            .iter()
            .map(|t| t.ns.load(Relaxed))
            .sum()
    }
}

/// A copy of every [`Tally`]: `storage[family][call]` and `bus` as
/// publish, poll, ack; each `[calls, bytes, ns]`.
#[derive(Clone, Copy, Default)]
pub struct Tallies {
    pub storage: [[[u64; 3]; 3]; FAMILIES.len() + 1],
    pub bus: [[u64; 3]; 3],
}

impl Tallies {
    /// `self - earlier`, tally by tally.
    pub fn since(&self, earlier: &Tallies) -> Tallies {
        let sub = |a: [u64; 3], b: [u64; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        let mut out = *self;
        for (f, family) in out.storage.iter_mut().enumerate() {
            for (c, t) in family.iter_mut().enumerate() {
                *t = sub(*t, earlier.storage[f][c]);
            }
        }
        for (i, t) in out.bus.iter_mut().enumerate() {
            *t = sub(*t, earlier.bus[i]);
        }
        out
    }
}

/// Opens the same files as the untraced runs, timing every call.
pub struct TimedProvider {
    pub dir: UnsyncedDir,
    pub probe: Arc<Probe>,
}

impl BackendProvider for TimedProvider {
    type Backend = TimedBackend;

    fn backend(&self, name: &str) -> CssResult<TimedBackend> {
        Ok(TimedBackend {
            inner: self.dir.backend(name)?,
            family: family_of(name),
            probe: self.probe.clone(),
        })
    }
}

/// A world file whose calls are timed into a [`Probe`].
pub struct TimedBackend {
    inner: Unsynced,
    family: usize,
    probe: Arc<Probe>,
}

impl LogBackend for TimedBackend {
    fn append(&mut self, data: &[u8]) -> CssResult<u64> {
        let tally = &self.probe.storage[self.family][0];
        let inner = &mut self.inner;
        self.probe
            .timed(false, tally, || (inner.append(data), data.len() as u64))
    }

    fn read_at(&self, offset: u64, len: usize) -> CssResult<Vec<u8>> {
        let tally = &self.probe.storage[self.family][1];
        self.probe.timed(false, tally, || {
            (self.inner.read_at(offset, len), len as u64)
        })
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&mut self) -> CssResult<()> {
        let tally = &self.probe.storage[self.family][2];
        let inner = &mut self.inner;
        self.probe.timed(false, tally, || (inner.sync(), 0))
    }

    fn truncate(&mut self, len: u64) -> CssResult<()> {
        self.inner.truncate(len)
    }
}

/// The controller's default broker behind a timing wrapper.
pub struct TimedBus {
    inner: Broker<NotificationMessage>,
    probe: Arc<Probe>,
}

impl TimedBus {
    /// Wrap a broker recording `bus.*` telemetry into `registry`, as the
    /// controller's own default broker does.
    pub fn new(registry: &css_telemetry::MetricsRegistry, probe: Arc<Probe>) -> Self {
        TimedBus {
            inner: Broker::with_telemetry(registry),
            probe,
        }
    }
}

impl BusDriver<NotificationMessage> for TimedBus {
    fn create_topic(&self, name: &str) {
        self.inner.create_topic(name)
    }

    fn has_topic(&self, name: &str) -> bool {
        self.inner.has_topic(name)
    }

    fn topics(&self) -> Vec<String> {
        self.inner.topics()
    }

    fn attach(
        &self,
        topic: &str,
        group: Option<&str>,
        config: SubscriptionConfig,
    ) -> CssResult<SubscriptionId> {
        self.inner.attach(topic, group, config)
    }

    fn detach(&self, id: SubscriptionId) -> CssResult<()> {
        self.inner.detach(id)
    }

    fn publish_opts(
        &self,
        topic: &str,
        message: NotificationMessage,
        opts: PublishOptions<'_>,
    ) -> CssResult<PublishOutcome> {
        let out = self.probe.timed(true, &self.probe.bus_publish, || {
            let out = self.inner.publish_opts(topic, message, opts);
            let routed = out.as_ref().map_or(0, |o| o.routed() as u64);
            (out, routed)
        });
        if let Ok(outcome) = &out {
            let queued = self
                .probe
                .queued
                .fetch_add(outcome.routed() as u64, Relaxed)
                + outcome.routed() as u64;
            self.probe.backlog_max.fetch_max(queued, Relaxed);
        }
        out
    }

    fn poll(&self, id: SubscriptionId) -> CssResult<Option<Delivery<NotificationMessage>>> {
        let out = self.probe.timed(true, &self.probe.bus_poll, || {
            let out = self.inner.poll(id);
            let hit = matches!(out, Ok(Some(_))) as u64;
            (out, hit)
        });
        if matches!(out, Ok(Some(_))) {
            self.probe.queued.fetch_sub(1, Relaxed);
        }
        out
    }

    fn poll_wait(
        &self,
        id: SubscriptionId,
        timeout: Duration,
    ) -> CssResult<Option<Delivery<NotificationMessage>>> {
        self.inner.poll_wait(id, timeout)
    }

    fn ack(&self, id: SubscriptionId, delivery_id: u64) -> CssResult<()> {
        self.probe.timed(true, &self.probe.bus_ack, || {
            (self.inner.ack(id, delivery_id), 0)
        })
    }

    fn nack(&self, id: SubscriptionId, delivery_id: u64) -> CssResult<()> {
        self.inner.nack(id, delivery_id)
    }

    fn backlog(&self, id: SubscriptionId) -> CssResult<usize> {
        self.inner.backlog(id)
    }

    fn in_flight(&self, id: SubscriptionId) -> CssResult<usize> {
        self.inner.in_flight(id)
    }

    fn sub_stats(&self, id: SubscriptionId) -> CssResult<SubscriptionStats> {
        self.inner.sub_stats(id)
    }

    fn replay_from(&self, id: SubscriptionId, offset: u64) -> CssResult<usize> {
        self.inner.replay_from(id, offset)
    }

    fn sweep(&self) -> usize {
        self.inner.sweep()
    }

    fn stats(&self) -> BrokerStats {
        self.inner.stats()
    }

    fn dead_letters(&self) -> Vec<DeadLetter<NotificationMessage>> {
        self.inner.dead_letters()
    }

    fn subscriber_count(&self, topic: &str) -> usize {
        self.inner.subscriber_count(topic)
    }
}
