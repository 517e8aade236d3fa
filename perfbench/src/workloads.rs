//! The three closed-loop workloads. One client thread calls the public
//! handle API and waits for each reply before sending the next call.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use css_core::{BackendProvider, CssPlatformBuilder, Subscription};
use css_types::{CssError, CssResult, Purpose, SimClock};

use crate::probe::Probe;
use crate::stats::{cpu_ns, HostSpeed};
use crate::world::{
    allowed_purposes, authorized_classes, builder, class_id, copy_dir, fingerprint, grant,
    policy_count, unit, Consumer, EventStream, Ledger, Population, UnsyncedDir, World, CLASSES,
};

/// Operations between two samples of the host's speed.
pub const SPEED_EVERY: usize = 32;
/// Share of detail requests stating a purpose their policy grants.
pub const IN_POLICY: f64 = 0.9;
/// Operations over which counts and bytes are taken, so that they are a
/// pure function of the seed.
pub const PREFIX_OPS: u64 = 5_000;

/// The platform calls the workloads time, in report order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Publish,
    Inquiry,
    Detail,
    Reopen,
}

pub const CALL_NAMES: [&str; 4] = ["publish", "inquiry", "detail", "reopen"];

/// Restart phases, in order.
pub const PHASES: [&str; 5] = [
    "build",
    "join",
    "reload_policies",
    "verify_audit",
    "first_inquiry",
];

/// What one measured loop saw.
pub struct Recorder<'a> {
    probe: Option<&'a Probe>,
    started: Instant,
    /// Latency of each timed call, nanoseconds, by [`Call`].
    pub calls: [Vec<u64>; 4],
    /// Call time not spent inside wrapped storage or bus calls, by [`Call`].
    pub self_ns: [u64; 4],
    /// Latency of each workload operation, nanoseconds.
    pub ops: Vec<u64>,
    /// Operations completed in each second of the loop.
    pub timeline: Vec<u64>,
    /// The second of the loop each operation completed in.
    pub op_second: Vec<u32>,
    /// Host speed over the loop.
    pub speed: HostSpeed,
    /// Restart phase durations, nanoseconds, by [`PHASES`].
    pub phases: [Vec<u64>; 5],
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Bytes appended to storage over the first [`PREFIX_OPS`] operations.
    pub stored_bytes: u64,
    pub stored_ops: u64,
    /// Highest resident set sampled from the loop's start through its
    /// first [`PREFIX_OPS`] operations (restart: after every reopen).
    /// Sampled rather than read from the process's high-water mark, which
    /// would keep the peak of the world builds before the loop.
    pub peak_rss_mb: f64,
    /// Resident set when the loop started.
    pub start_rss_mb: f64,
    /// Wall time spent sampling the resident set.
    rss_cost_ns: u64,
    /// CPU time of the loop, nanoseconds.
    pub cpu_ns: u64,
    /// Wall time of the loop, nanoseconds.
    pub wall_ns: u64,
    pub permits: u64,
    pub details: u64,
}

impl<'a> Recorder<'a> {
    pub fn new(probe: Option<&'a Probe>) -> Self {
        Recorder {
            probe,
            started: Instant::now(),
            calls: Default::default(),
            self_ns: [0; 4],
            ops: Vec::new(),
            timeline: Vec::new(),
            op_second: Vec::new(),
            speed: HostSpeed::default(),
            phases: Default::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            stored_bytes: 0,
            stored_ops: 0,
            peak_rss_mb: 0.0,
            start_rss_mb: 0.0,
            rss_cost_ns: 0,
            cpu_ns: 0,
            wall_ns: 0,
            permits: 0,
            details: 0,
        }
    }

    /// Time one platform call.
    pub fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> (T, u64) {
        let wrapped = self.probe.map(Probe::wrapped_ns);
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        self.calls[call as usize].push(ns);
        if let (Some(probe), Some(before)) = (self.probe, wrapped) {
            self.self_ns[call as usize] += ns.saturating_sub(probe.wrapped_ns() - before);
            probe.mark_call(t0, t1);
        }
        (out, ns)
    }

    /// Close one workload operation of `ns` nanoseconds.
    pub fn op_done(&mut self, ns: u64) {
        self.ops.push(ns);
        self.attempted += 1;
        let second = self.speed.second();
        if self.timeline.len() <= second {
            self.timeline.resize(second + 1, 0);
        }
        self.timeline[second] += 1;
        self.op_second.push(second as u32);
        if self.ops.len().is_multiple_of(SPEED_EVERY) {
            self.speed.sample();
            if self.ops.len() as u64 <= PREFIX_OPS {
                self.sample_rss();
            }
        }
    }

    /// Fold the current resident set into [`Recorder::peak_rss_mb`].
    fn sample_rss(&mut self) {
        let t0 = Instant::now();
        self.peak_rss_mb = self.peak_rss_mb.max(crate::stats::rss_mb());
        self.rss_cost_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Take the counted prefix: `bytes` appended over `ops` operations.
    fn count_prefix(&mut self, bytes: u64, ops: u64) {
        self.stored_bytes = bytes;
        self.stored_ops = ops;
    }

    /// Count a failed output check (or an unexpected error).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    fn begin(&mut self) -> u64 {
        self.sample_rss();
        self.start_rss_mb = self.peak_rss_mb;
        self.started = Instant::now();
        self.speed.start();
        cpu_ns()
    }

    /// Close the loop; the reference task's and the resident-set
    /// samples' time is not the loop's.
    fn end(&mut self, cpu_start: u64) {
        let side = self.speed.cost_ns + self.rss_cost_ns;
        let cpu = cpu_ns().saturating_sub(cpu_start);
        self.cpu_ns += cpu.saturating_sub(side);
        self.wall_ns += (self.started.elapsed().as_nanos() as u64).saturating_sub(side);
    }

    /// Operation latencies scaled to the reference host speed.
    pub fn scaled_ops(&self) -> Vec<u64> {
        self.ops
            .iter()
            .zip(&self.op_second)
            .map(|(&ns, &s)| (ns as f64 * self.speed.scale_at(s as usize)) as u64)
            .collect()
    }
}

/// Called between operations of a traced loop (span harvesting); its
/// CPU time is kept out of the loop's.
pub type Between<'b> = &'b mut dyn FnMut(u64);

fn appended<P: BackendProvider>(world: &World<P>) -> u64 {
    world
        .platform
        .metrics()
        .snapshot()
        .counter("storage.appended_bytes")
}

/// `ingest`: producers publish a seeded event mix into the pre-populated
/// world while every authorized (consumer, class) subscription drains
/// after each publish, as `css_sim::run_workload` drains them.
pub fn ingest<P: BackendProvider>(
    world: &World<P>,
    population: &Population,
    seed: u64,
    deadline: Duration,
    rec: &mut Recorder,
    between: Between,
) -> CssResult<()> {
    let mut subs: Vec<(usize, Subscription, u64)> = Vec::new();
    let mut routed_to: Vec<Vec<css_types::ActorId>> = vec![Vec::new(); CLASSES.len()];
    for consumer in Consumer::all() {
        let actor = world.orgs.consumer(consumer);
        let handle = world.platform.consumer(actor)?;
        for class in authorized_classes(consumer) {
            subs.push((class, handle.subscribe(&class_id(class))?, 0));
            routed_to[class].push(actor);
        }
    }
    for list in &mut routed_to {
        list.sort();
    }
    let stored_before = world.gateway_stored() as u64;
    let mut stream = EventStream::new(seed ^ 0x1e57);
    let mut published = [0u64; CLASSES.len()];
    let bytes0 = appended(world);
    let cpu0 = rec.begin();
    let mut n = 0u64;
    while rec.started.elapsed() < deadline {
        let event = stream.next(population);
        let (receipt, ns) = rec.time(Call::Publish, || world.publish(population, &event));
        rec.op_done(ns);
        match receipt {
            Ok(r) => rec.check(r.notified == routed_to[event.class], || {
                format!("publish routed to {:?}", r.notified)
            }),
            Err(e) => rec.check(false, || format!("publish failed: {e}")),
        }
        published[event.class] += 1;
        n += 1;
        for (_, sub, got) in subs.iter_mut() {
            match sub.drain() {
                Ok(batch) => *got += batch.len() as u64,
                Err(e) => rec.check(false, || format!("drain failed: {e}")),
            }
        }
        if n == PREFIX_OPS {
            rec.count_prefix(appended(world) - bytes0, n);
        }
        between(n);
    }
    rec.end(cpu0);
    if rec.stored_ops == 0 {
        rec.count_prefix(appended(world) - bytes0, n);
    }
    for (class, sub, got) in &subs {
        rec.check(*got == published[*class], || {
            format!(
                "subscription to {} drained {got} of {}",
                CLASSES[*class].code, published[*class]
            )
        });
        rec.check(sub.backlog().is_ok_and(|b| b == 0), || {
            "backlog left".into()
        });
    }
    let stored = world.gateway_stored() as u64 - stored_before;
    rec.check(stored == n, || {
        format!("gateways stored {stored} of {n} events")
    });
    rec.check(world.platform.verify_audit().is_ok(), || {
        "audit chain failed verification".into()
    });
    Ok(())
}

/// Purposes a consumer may state but no policy grants it (drawn for the
/// out-of-policy share of detail requests).
const ANY_PURPOSE: [Purpose; 8] = [
    Purpose::HealthcareTreatment,
    Purpose::SocialAssistance,
    Purpose::StatisticalAnalysis,
    Purpose::Administration,
    Purpose::Reimbursement,
    Purpose::ServiceAssessment,
    Purpose::Emergency,
    Purpose::Audit,
];

/// `consult`: consumers inquire the index about a citizen, then request
/// the details of one returned event for a stated purpose (Algorithm 1).
pub fn consult<P: BackendProvider>(
    world: &World<P>,
    ledger: &Ledger,
    population: &Population,
    seed: u64,
    deadline: Duration,
    rec: &mut Recorder,
    between: Between,
) -> CssResult<()> {
    let consumers = Consumer::all();
    let handles = consumers
        .iter()
        .map(|&c| world.platform.consumer(world.orgs.consumer(c)))
        .collect::<CssResult<Vec<_>>>()?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
    let (mut predicted_permits, mut permits, mut denies) = (0u64, 0u64, 0u64);
    let bytes0 = appended(world);
    let cpu0 = rec.begin();
    let mut n = 0u64;
    while rec.started.elapsed() < deadline {
        let who = rng.gen_range(0..consumers.len());
        let consumer = consumers[who];
        let person = loop {
            let p = population.pick(&mut rng);
            if ledger.visible(consumer, p) > 0 {
                break p;
            }
        };
        let expected = ledger.visible(consumer, person);
        let pid = population.persons[person].id;
        let (found, inquiry_ns) = rec.time(Call::Inquiry, || handles[who].inquire_by_person(pid));
        let found = match found {
            Ok(found) => found,
            Err(e) => {
                rec.check(false, || format!("inquiry failed: {e}"));
                rec.op_done(inquiry_ns);
                continue;
            }
        };
        rec.check(found.len() == expected, || {
            format!("inquiry returned {} of {expected} events", found.len())
        });
        if found.is_empty() {
            rec.op_done(inquiry_ns);
            continue;
        }
        let note = &found[rng.gen_range(0..found.len())];
        let class = CLASSES
            .iter()
            .position(|c| c.code == note.event_type.code())
            .unwrap_or(0);
        let allowed = allowed_purposes(consumer, class);
        let in_policy = unit(&mut rng) < IN_POLICY;
        let purpose = if in_policy {
            allowed[rng.gen_range(0..allowed.len())].clone()
        } else {
            let outside: Vec<&Purpose> = ANY_PURPOSE
                .iter()
                .filter(|p| !allowed.contains(p))
                .collect();
            outside[rng.gen_range(0..outside.len())].clone()
        };
        predicted_permits += in_policy as u64;
        let (answer, detail_ns) =
            rec.time(Call::Detail, || handles[who].request_details(note, purpose));
        rec.op_done(inquiry_ns + detail_ns);
        rec.details += 1;
        match answer {
            Ok(event) => {
                permits += 1;
                let fields = grant(consumer, class).and_then(|g| g.fields);
                let within = fields.is_none_or(|fields| {
                    let fields: BTreeSet<String> = fields.iter().map(|f| f.to_string()).collect();
                    event.allowed_fields.is_subset(&fields)
                });
                rec.check(
                    in_policy
                        && event.is_privacy_safe()
                        && within
                        && event.global_id == note.global_id,
                    || format!("unexpected release of {} to {consumer:?}", note.global_id),
                );
            }
            Err(CssError::AccessDenied(_)) => {
                denies += 1;
                rec.check(!in_policy, || format!("unexpected deny to {consumer:?}"));
            }
            Err(e) => rec.check(false, || format!("detail request failed: {e}")),
        }
        n += 1;
        if n == PREFIX_OPS {
            rec.count_prefix(appended(world) - bytes0, n);
        }
        between(n);
    }
    rec.end(cpu0);
    if rec.stored_ops == 0 {
        rec.count_prefix(appended(world) - bytes0, n);
    }
    rec.permits += permits;
    rec.check(permits == predicted_permits, || {
        format!("{permits} permits, generator predicted {predicted_permits}")
    });
    rec.check(permits + denies == rec.details, || {
        "detail outcomes missing".into()
    });
    Ok(())
}

/// What one reopen recovered.
struct Reopened<P: BackendProvider> {
    world: World<P>,
    marks: Vec<Instant>,
    policies: usize,
    verified: bool,
    stats: css_core::PlatformStats,
    head: [u8; 32],
    found: usize,
    written: u64,
}

/// The seeded world every loop starts from, with what its builds
/// recorded: the counts a reopen must recover and how long each build
/// took.
pub struct Pristine {
    pub dir: PathBuf,
    pub ledger: Ledger,
    pub fingerprint: String,
    pub audit_head: [u8; 32],
    pub indexed: usize,
    pub audit_records: usize,
    pub clock_ms: u64,
    /// Each build's time in seconds, measured and scaled to the
    /// reference speed.
    pub secs: Vec<(f64, f64)>,
    pub bytes: u64,
    pub failures: Vec<String>,
}

/// `restart`: repeatedly copy the pristine world and reopen it —
/// build, join, reload policies, verify the audit chain, answer a first
/// inquiry. `open` turns a world directory into a builder (plain
/// files, or the traced run's probes).
#[allow(clippy::too_many_arguments)]
pub fn restart<P: BackendProvider>(
    pristine: &Pristine,
    population: &Population,
    scratch: &Path,
    deadline: Duration,
    rec: &mut Recorder,
    open: &mut dyn FnMut(&Path, &SimClock) -> CssResult<CssPlatformBuilder<P>>,
    after: &mut dyn FnMut(&World<P>),
) -> CssResult<()> {
    let expected = pristine.ledger.visible(Consumer::Doctor(0), 0);
    let pid = population.persons[0].id;
    let mut cpu_total = 0;
    let mut n = 0u64;
    rec.begin();
    while rec.started.elapsed() < deadline {
        rec.speed.sample();
        let dir = scratch.join(format!("reopen-{n}"));
        copy_dir(&pristine.dir, &dir)?;
        let copied = fingerprint(&dir, pristine.audit_head)?;
        rec.check(copied == pristine.fingerprint, || {
            format!("copy fingerprint {copied} != {}", pristine.fingerprint)
        });
        let clock = SimClock::starting_at(css_types::Timestamp(pristine.clock_ms));
        let cpu0 = cpu_ns();
        let (reopened, ns) = rec.time(Call::Reopen, || -> CssResult<Reopened<P>> {
            let mut marks = vec![Instant::now()];
            let mut recovered = None;
            let world = World::assemble_timed(open(&dir, &clock)?, clock.clone(), &mut |p| {
                marks.push(Instant::now());
                recovered.get_or_insert_with(|| (p.stats(), p.controller().audit_head()));
            })?;
            let (stats, head) = recovered.expect("assemble marks the build");
            let policies = world.platform.reload_policies()?;
            marks.push(Instant::now());
            let verified = world.platform.verify_audit().is_ok();
            marks.push(Instant::now());
            let found = world
                .platform
                .consumer(world.orgs.doctors[0])?
                .inquire_by_person(pid)?
                .len();
            marks.push(Instant::now());
            // The platform's registry is new with it, so its counter holds
            // every byte this reopen appended: build, join, policy reload,
            // audit verification and the first inquiry.
            let written = appended(&world);
            Ok(Reopened {
                world,
                marks,
                policies,
                verified,
                stats,
                head,
                found,
                written,
            })
        });
        cpu_total += cpu_ns().saturating_sub(cpu0);
        rec.sample_rss();
        rec.speed.sample();
        rec.op_done(ns);
        match reopened {
            Ok(r) => {
                for (phase, pair) in r.marks.windows(2).enumerate() {
                    rec.phases[phase].push((pair[1] - pair[0]).as_nanos() as u64);
                }
                rec.stored_bytes += r.written;
                rec.stored_ops += 1;
                rec.check(r.policies == policy_count(), || {
                    format!("reloaded {} of {} policies", r.policies, policy_count())
                });
                rec.check(r.verified, || "audit chain failed verification".into());
                rec.check(r.head == pristine.audit_head, || {
                    "audit head differs".into()
                });
                rec.check(r.stats.indexed_events == pristine.indexed, || {
                    format!(
                        "recovered {} of {} events",
                        r.stats.indexed_events, pristine.indexed
                    )
                });
                rec.check(r.stats.audit_records == pristine.audit_records, || {
                    format!(
                        "recovered {} of {} audit records",
                        r.stats.audit_records, pristine.audit_records
                    )
                });
                rec.check(r.found == expected, || {
                    format!("first inquiry returned {} of {expected} events", r.found)
                });
                after(&r.world);
            }
            Err(e) => rec.check(false, || format!("reopen failed: {e}")),
        }
        std::fs::remove_dir_all(&dir)?;
        n += 1;
    }
    rec.wall_ns += rec.started.elapsed().as_nanos() as u64;
    rec.cpu_ns += cpu_total;
    Ok(())
}

/// An untraced builder over the world files at `dir`.
pub fn plain(dir: &Path, clock: &SimClock) -> CssResult<CssPlatformBuilder<UnsyncedDir>> {
    Ok(builder(UnsyncedDir::new(dir)?, clock))
}
