//! `perfbench` — the CSS platform's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <ingest|consult|restart> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives the public `CssPlatformBuilder` /
//! `ProducerHandle` / `ConsumerHandle` API on `DirProvider` storage in a
//! closed loop. Every run builds its world from the seed in a fresh
//! directory under `.bench_work/` (removed on exit), checks the outputs
//! of every operation, prints a human-readable report and ends with one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.
//!
//! A traced run measures half its time untraced and half with the
//! platform's tracer on, the benchmark's timed storage provider and
//! timed bus driver injected; the difference in CPU per operation is
//! the tracing overhead.

mod probe;
mod spans;
mod stats;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use css_core::{BackendProvider, CssPlatformBuilder};
use css_telemetry::MetricsRegistry;
use css_types::{Clock, CssError, CssResult, SimClock, Timestamp};

use probe::{Probe, Tallies, TimedBus, TimedProvider, CALLS, FAMILIES};
use spans::{Cursor, SpanLedger, WAIT_SPAN};
use stats::{cpu_ns, median, quantile, HostSpeed};
use workloads::{plain, Call, Pristine, Recorder, CALL_NAMES, PHASES, PREFIX_OPS, SPEED_EVERY};
use world::{builder, dir_bytes, fingerprint, policy_count, Population, UnsyncedDir, World};

/// World builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Finished spans the traced platform keeps in its ring.
const SPAN_RING: usize = 16_384;
/// Operations between two span harvests (well inside the ring).
const HARVEST_EVERY: u64 = 128;
/// Operations per block of the blocked p90 (`tail_us`).
const TAIL_BLOCK: usize = 2_000;
/// Where runs build their worlds, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ingest,
    Consult,
    Restart,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Consult => "consult",
            Workload::Restart => "restart",
        }
    }

    /// What one operation of the workload is.
    fn op(self) -> &'static str {
        match self {
            Workload::Ingest => "publish",
            Workload::Consult => "consultation (inquiry + detail request)",
            Workload::Restart => "reopen",
        }
    }

    /// `tail_us`. Publishes and consultations are many, so their tail
    /// is the median, over consecutive blocks of [`TAIL_BLOCK`]
    /// operations, of each block's p90: one slow second on a shared host
    /// cannot move it, and p90 stays clear of the rare stalls of several
    /// milliseconds such a host adds, which moved a publish p99 by a
    /// third between runs (the report prints p99 too). A run holds a few
    /// dozen reopens, so
    /// restart's tail is their p75, the highest percentile that keeps
    /// ten reopens beyond it.
    fn tail_ns(self, ops: &[u64]) -> u64 {
        let sorted_quantile = |ops: &[u64], q: f64| {
            let mut sorted = ops.to_vec();
            sorted.sort_unstable();
            quantile(&sorted, q)
        };
        if self == Workload::Restart {
            return sorted_quantile(ops, 0.75);
        }
        if ops.len() < TAIL_BLOCK {
            return sorted_quantile(ops, 0.9);
        }
        let tails: Vec<f64> = ops
            .chunks_exact(TAIL_BLOCK)
            .map(|block| sorted_quantile(block, 0.9) as f64)
            .collect();
        median(&tails) as u64
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ingest" => Workload::Ingest,
                    "consult" => Workload::Consult,
                    "restart" => Workload::Restart,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Drop the root too when no other run is using it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// A fresh directory for one loop: a copy of the pristine world for
/// ingest and consult, an empty one for restart's own copies.
fn loop_dir(pristine: &Pristine, workload: Workload, dir: PathBuf) -> CssResult<PathBuf> {
    if workload == Workload::Restart {
        std::fs::create_dir_all(&dir)?;
    } else {
        world::copy_dir(&pristine.dir, &dir)?;
    }
    Ok(dir)
}

/// Build the world `reps` times in fresh directories; every build must
/// produce the same fingerprint. The last one is kept.
fn setup(run: &Path, population: &Population, seed: u64, reps: usize) -> CssResult<Pristine> {
    let mut out: Option<Pristine> = None;
    for rep in 0..reps {
        let dir = run.join(format!("world-{rep}"));
        let started = Instant::now();
        let mut speed = HostSpeed::default();
        speed.start();
        let mut sample = |i: usize| {
            if i.is_multiple_of(SPEED_EVERY) {
                speed.sample();
            }
        };
        let (world, ledger) =
            World::create(|clock| plain(&dir, clock), population, seed, &mut sample)?;
        let audit_head = world.platform.controller().audit_head();
        let stats = world.platform.stats();
        let clock_ms = world.clock.now().0;
        drop(world);
        let raw = started.elapsed().as_secs_f64() - speed.cost_ns as f64 / 1e9;
        let secs = (raw, raw * speed.scale());
        let print = fingerprint(&dir, audit_head)?;
        match &mut out {
            None => {
                out = Some(Pristine {
                    bytes: dir_bytes(&dir)?,
                    dir,
                    ledger,
                    fingerprint: print,
                    audit_head,
                    indexed: stats.indexed_events,
                    audit_records: stats.audit_records,
                    clock_ms,
                    secs: vec![secs],
                    failures: Vec::new(),
                })
            }
            Some(first) => {
                if print != first.fingerprint {
                    first.failures.push(format!(
                        "world build {rep} fingerprint {print} != {}",
                        first.fingerprint
                    ));
                }
                first.secs.push(secs);
                std::fs::remove_dir_all(&first.dir)?;
                first.dir = dir;
            }
        }
    }
    out.ok_or_else(|| CssError::Invalid("no setup repetitions".into()))
}

/// Open the pristine world for an ingest or consult loop.
fn reopen<P: BackendProvider>(
    builder: impl FnOnce(&SimClock) -> CssResult<CssPlatformBuilder<P>>,
    setup: &Pristine,
) -> CssResult<World<P>> {
    let clock = SimClock::starting_at(Timestamp(setup.clock_ms));
    let world = World::assemble(builder(&clock)?, clock)?;
    let policies = world.platform.reload_policies()?;
    if policies != policy_count() {
        return Err(CssError::Invalid(format!(
            "reloaded {policies} of {} policies",
            policy_count()
        )));
    }
    Ok(world)
}

/// Run one untraced workload loop.
fn run_plain(
    args: &Args,
    setup: &Pristine,
    population: &Population,
    dir: &Path,
    deadline: Duration,
) -> CssResult<Recorder<'static>> {
    let mut rec = Recorder::new(None);
    match args.workload {
        Workload::Ingest | Workload::Consult => {
            let world = reopen(|clock| plain(dir, clock), setup)?;
            if args.workload == Workload::Ingest {
                workloads::ingest(
                    &world,
                    population,
                    args.seed,
                    deadline,
                    &mut rec,
                    &mut |_| {},
                )?;
            } else {
                let ledger = &setup.ledger;
                workloads::consult(
                    &world,
                    ledger,
                    population,
                    args.seed,
                    deadline,
                    &mut rec,
                    &mut |_| {},
                )?;
            }
        }
        Workload::Restart => workloads::restart(
            setup,
            population,
            dir,
            deadline,
            &mut rec,
            &mut |dir, clock| plain(dir, clock),
            &mut |_| {},
        )?,
    }
    Ok(rec)
}

/// The traced half of a `--trace 1` run.
struct Traced<'p> {
    rec: Recorder<'p>,
    ledger: SpanLedger,
    /// Tallies over the counted prefix of operations.
    counted: Tallies,
    counted_ops: u64,
    /// Tallies over the whole loop.
    total: Tallies,
    pdp_hits: u64,
    pdp_misses: u64,
    backlog_max: u64,
}

/// A builder with the benchmark's probes and the platform's tracer on.
fn traced_builder(
    dir: &Path,
    clock: &SimClock,
    probe: &Arc<Probe>,
    registry: &MetricsRegistry,
) -> CssResult<CssPlatformBuilder<TimedProvider>> {
    let provider = TimedProvider {
        dir: UnsyncedDir::new(dir)?,
        probe: probe.clone(),
    };
    Ok(builder(provider, clock)
        .telemetry(registry.clone())
        .tracing(SPAN_RING)
        .bus_driver(Arc::new(TimedBus::new(registry, probe.clone()))))
}

fn run_traced<'p>(
    args: &Args,
    setup: &Pristine,
    population: &Population,
    dir: &Path,
    deadline: Duration,
    probe: &'p Arc<Probe>,
) -> CssResult<Traced<'p>> {
    let mut rec = Recorder::new(Some(probe));
    let mut ledger = SpanLedger::default();
    let registry = MetricsRegistry::new();
    let pdp = |r: &MetricsRegistry| {
        let s = r.snapshot();
        (s.counter("pdp.cache_hit"), s.counter("pdp.cache_miss"))
    };
    let (counted, counted_ops, total, (hits, misses));
    match args.workload {
        Workload::Ingest | Workload::Consult => {
            let world = reopen(|clock| traced_builder(dir, clock, probe, &registry), setup)?;
            let tracer = world.platform.tracer().clone();
            let mut cursor = Cursor::calibrate(&tracer, probe, false);
            probe.take_intervals();
            probe.take_calls();
            let base = probe.snapshot();
            let pdp0 = pdp(&registry);
            let mut prefix = None;
            let mut harvest_cpu = 0;
            let mut between = |n: u64| {
                if n.is_multiple_of(HARVEST_EVERY) {
                    let c0 = cpu_ns();
                    let calls = probe.take_calls();
                    ledger.harvest(&tracer, &mut cursor, probe.take_intervals(), &calls);
                    harvest_cpu += cpu_ns() - c0;
                }
                if n == PREFIX_OPS {
                    prefix = Some(probe.snapshot().since(&base));
                }
            };
            if args.workload == Workload::Ingest {
                workloads::ingest(
                    &world,
                    population,
                    args.seed,
                    deadline,
                    &mut rec,
                    &mut between,
                )?;
            } else {
                workloads::consult(
                    &world,
                    &setup.ledger,
                    population,
                    args.seed,
                    deadline,
                    &mut rec,
                    &mut between,
                )?;
            }
            let calls = probe.take_calls();
            ledger.harvest(&tracer, &mut cursor, probe.take_intervals(), &calls);
            rec.cpu_ns = rec.cpu_ns.saturating_sub(harvest_cpu);
            total = probe.snapshot().since(&base);
            (counted, counted_ops) = match prefix {
                Some(p) => (p, PREFIX_OPS),
                None => (total, rec.ops.len() as u64),
            };
            let pdp1 = pdp(&registry);
            (hits, misses) = (pdp1.0 - pdp0.0, pdp1.1 - pdp0.1);
        }
        Workload::Restart => {
            let mut pdp_total = (0, 0);
            workloads::restart(
                setup,
                population,
                dir,
                deadline,
                &mut rec,
                &mut |dir, clock| {
                    let registry = MetricsRegistry::new();
                    traced_builder(dir, clock, probe, &registry)
                },
                &mut |world| {
                    let tracer = world.platform.tracer();
                    let mut cursor = Cursor::calibrate(tracer, probe, true);
                    let calls = probe.take_calls();
                    ledger.harvest(tracer, &mut cursor, probe.take_intervals(), &calls);
                    let (h, m) = pdp(world.platform.metrics());
                    pdp_total = (pdp_total.0 + h, pdp_total.1 + m);
                },
            )?;
            total = probe.snapshot();
            // Every reopen does the same work, so the whole loop counts.
            (counted, counted_ops) = (total, rec.ops.len() as u64);
            (hits, misses) = pdp_total;
        }
    }
    Ok(Traced {
        rec,
        ledger,
        counted,
        counted_ops,
        total,
        pdp_hits: hits,
        pdp_misses: misses,
        backlog_max: probe.backlog_max.load(std::sync::atomic::Ordering::Relaxed),
    })
}

fn run(args: &Args) -> CssResult<()> {
    let run_dir = RunDir(PathBuf::from(WORK_ROOT).join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    std::fs::create_dir_all(&run_dir.0)?;
    let population = Population::new(args.seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let setup = setup(&run_dir.0, &population, args.seed, reps)?;
    let setup_rss_mb = stats::rss_mb();

    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "host: nproc {} | world dir on {} ({}) | shards {} | clock SimClock | ops server, blackbox, chronicle off",
        stats::nproc(),
        stats::fs_type(&run_dir.0),
        WORK_ROOT,
        world::SHARDS,
    );
    println!(
        "world: {} citizens, {} events, {} doctors, {} policies | {} indexed, {} audit records, {} bytes on disk | fingerprint {}",
        world::CITIZENS,
        world::WORLD_EVENTS,
        world::DOCTORS,
        policy_count(),
        setup.indexed,
        setup.audit_records,
        setup.bytes,
        setup.fingerprint,
    );
    let setup_s = median(&setup.secs.iter().map(|s| s.1).collect::<Vec<_>>());
    println!(
        "setup: {} world build(s), measured (scaled) s: {}; median scaled {setup_s:.4} s; resident set after {setup_rss_mb:.1} MiB",
        setup.secs.len(),
        setup
            .secs
            .iter()
            .map(|(raw, scaled)| format!("{raw:.4} ({scaled:.4})"))
            .collect::<Vec<_>>()
            .join(" "),
    );

    let seconds = Duration::from_secs(args.seconds);
    let (attempted, failed, failures, metrics) = if args.trace {
        let half = seconds / 2;
        let dir_a = loop_dir(&setup, args.workload, run_dir.0.join("untraced"))?;
        let dir_b = loop_dir(&setup, args.workload, run_dir.0.join("traced"))?;
        let plain = run_plain(args, &setup, &population, &dir_a, half)?;
        report_loop("untraced half", args.workload, &plain);
        let probe = Probe::new();
        let traced = run_traced(args, &setup, &population, &dir_b, half, &probe)?;
        report_loop("traced half", args.workload, &traced.rec);
        let metrics = per_layer(args.workload, &plain, &traced);
        let mut failures = setup.failures.clone();
        failures.extend(plain.failures.iter().cloned());
        failures.extend(traced.rec.failures.iter().cloned());
        (
            plain.attempted + traced.rec.attempted,
            plain.failed + traced.rec.failed + setup.failures.len() as u64,
            failures,
            metrics,
        )
    } else {
        let dir = loop_dir(&setup, args.workload, run_dir.0.join("live"))?;
        let rec = run_plain(args, &setup, &population, &dir, seconds)?;
        report_loop("measured", args.workload, &rec);
        let metrics = end_to_end(args.workload, setup_s, &rec);
        let mut failures = setup.failures.clone();
        failures.extend(rec.failures.iter().cloned());
        (
            rec.attempted,
            rec.failed + setup.failures.len() as u64,
            failures,
            metrics,
        )
    };

    let attempted = attempted.max(1);
    println!(
        "checks: attempted {attempted} failed {failed} failed_pct {} %",
        100.0 * failed as f64 / attempted as f64
    );
    for f in &failures {
        println!("  failure: {f}");
    }
    println!("metrics:");
    for (name, (value, unit)) in &metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    let body = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    );
    Ok(())
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Print one loop's summary: per-call latencies and the per-second
/// operation timeline.
fn report_loop(label: &str, workload: Workload, rec: &Recorder) {
    let ops = rec.ops.len();
    println!(
        "{label}: {ops} ops ({}) in {:.3} s wall, {:.3} s cpu",
        workload.op(),
        rec.wall_ns as f64 / 1e9,
        rec.cpu_ns as f64 / 1e9
    );
    for (i, calls) in rec.calls.iter().enumerate() {
        if calls.is_empty() {
            continue;
        }
        let mut sorted = calls.clone();
        sorted.sort_unstable();
        println!(
            "  {:<8} n {:>8}  p50 {:>10.2} us  p90 {:>10.2} us  p99 {:>10.2} us  max {:>10.2} us",
            CALL_NAMES[i],
            sorted.len(),
            us(quantile(&sorted, 0.5)),
            us(quantile(&sorted, 0.9)),
            us(quantile(&sorted, 0.99)),
            us(*sorted.last().unwrap_or(&0)),
        );
    }
    for (i, phase) in rec.phases.iter().enumerate() {
        if !phase.is_empty() {
            let v: Vec<f64> = phase.iter().map(|&ns| ns as f64 / 1e6).collect();
            println!(
                "  reopen phase {:<16} median {:>10.3} ms",
                PHASES[i],
                median(&v)
            );
        }
    }
    println!(
        "  timeline (ops per second): {}",
        rec.timeline
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  host speed scale per second (reference {:.1} us / measured): {}",
        stats::REFERENCE_NS / 1e3,
        rec.speed
            .per_second()
            .iter()
            .map(|r| format!("{:.3}", stats::REFERENCE_NS / r))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("  loop scale {:.4}", rec.speed.scale());
    println!(
        "  resident set: {:.1} MiB at loop start, {:.1} MiB peak",
        rec.start_rss_mb, rec.peak_rss_mb
    );
}

/// The `--trace 0` metrics. Times are scaled to the reference host
/// speed (see [`HostSpeed`]); the report prints the measured ones too.
fn end_to_end(workload: Workload, setup_s: f64, rec: &Recorder) -> Metrics {
    let scale = rec.speed.scale();
    let scaled = rec.scaled_ops();
    let ops = rec.ops.len().max(1) as f64;
    let mut sorted = scaled.clone();
    sorted.sort_unstable();
    let mut m = Metrics::new();
    m.insert("setup_s".into(), (setup_s, "s"));
    m.insert("p50_us".into(), (us(quantile(&sorted, 0.5)), "us"));
    m.insert("tail_us".into(), (us(workload.tail_ns(&scaled)), "us"));
    m.insert(
        "cpu_us_per_op".into(),
        (rec.cpu_ns as f64 * scale / 1e3 / ops, "us"),
    );
    m.insert("peak_rss_mb".into(), (rec.peak_rss_mb, "MiB"));
    m.insert(
        "stored_bytes_per_op".into(),
        (rec.stored_bytes as f64 / rec.stored_ops.max(1) as f64, "B"),
    );
    let mut raw = rec.ops.clone();
    raw.sort_unstable();
    println!(
        "  measured, unscaled: p50 {:.3} us, tail {:.3} us, cpu {:.3} us/op, {:.1} ops/s",
        us(quantile(&raw, 0.5)),
        us(workload.tail_ns(&rec.ops)),
        rec.cpu_ns as f64 / 1e3 / ops,
        rec.ops.len() as f64 / (rec.wall_ns as f64 / 1e9),
    );
    m
}

/// The `--trace 1` metrics.
fn per_layer(workload: Workload, plain: &Recorder, traced: &Traced) -> Metrics {
    let mut m = Metrics::new();
    let rec = &traced.rec;
    let ops = rec.ops.len().max(1) as f64;
    let counted = traced.counted_ops.max(1) as f64;
    for (f, family) in FAMILIES.iter().enumerate() {
        let c = traced.counted.storage[f];
        let t = traced.total.storage[f];
        for (k, call) in CALLS.iter().enumerate() {
            m.insert(
                format!("storage.{family}.{call}_per_op"),
                (c[k][0] as f64 / counted, "count"),
            );
            m.insert(
                format!("storage.{family}.{call}_us_per_op"),
                (us(t[k][2]) / ops, "us"),
            );
        }
        m.insert(
            format!("storage.{family}.append_bytes_per_op"),
            (c[0][1] as f64 / counted, "B"),
        );
        m.insert(
            format!("storage.{family}.read_bytes_per_op"),
            (c[1][1] as f64 / counted, "B"),
        );
    }
    let [publish, poll, _ack] = traced.total.bus;
    let [c_publish, c_poll, _] = traced.counted.bus;
    m.insert("bus.publish_us_per_op".into(), (us(publish[2]) / ops, "us"));
    m.insert(
        "bus.fanout_per_publish".into(),
        (c_publish[1] as f64 / c_publish[0].max(1) as f64, "count"),
    );
    m.insert(
        "bus.poll_per_op".into(),
        (c_poll[0] as f64 / counted, "count"),
    );
    m.insert("bus.poll_us_per_op".into(), (us(poll[2]) / ops, "us"));
    m.insert(
        "bus.backlog_max".into(),
        (traced.backlog_max as f64, "count"),
    );

    for (call, name) in [
        (Call::Publish, "publish"),
        (Call::Inquiry, "inquiry"),
        (Call::Detail, "detail"),
    ] {
        let n = rec.calls[call as usize].len().max(1) as f64;
        m.insert(
            format!("core.{name}.self_us"),
            (us(rec.self_ns[call as usize]) / n, "us"),
        );
    }
    for (i, phase) in PHASES.iter().enumerate() {
        let v: Vec<f64> = plain.phases[i].iter().map(|&ns| ns as f64 / 1e6).collect();
        m.insert(format!("core.{phase}_ms"), (median(&v), "ms"));
    }
    let lookups = (traced.pdp_hits + traced.pdp_misses).max(1) as f64;
    m.insert(
        "policy.cache_hit_ratio".into(),
        (traced.pdp_hits as f64 / lookups, "ratio"),
    );
    m.insert(
        "controller.permit_ratio".into(),
        (rec.permits as f64 / rec.details.max(1) as f64, "ratio"),
    );
    for name in [
        "publish",
        "index.insert",
        "bus.route",
        "inquiry",
        "index.filter",
        "detail_request",
        "pep.pip_resolve",
        "pep.notified_check",
        "pep.consent_check",
        "pep.pdp_evaluate",
        "pep.obligation_filter",
        "gateway.retrieve",
        "gateway.parse",
        "gateway.filter",
    ] {
        let t = traced.ledger.by_name.get(name).copied().unwrap_or_default();
        m.insert(format!("span.{name}.self_us"), (us(t.self_ns) / ops, "us"));
    }
    m.insert(
        format!("span.{WAIT_SPAN}.self_us"),
        (us(traced.ledger.wait_ns) / ops, "us"),
    );
    let cpu_plain = plain.cpu_ns as f64 * plain.speed.scale() / plain.ops.len().max(1) as f64;
    let cpu_traced = rec.cpu_ns as f64 * rec.speed.scale() / ops;
    m.insert(
        "obs.trace_overhead_pct".into(),
        (100.0 * (cpu_traced - cpu_plain) / cpu_plain.max(1.0), "%"),
    );
    let timed: u64 = rec.calls.iter().flatten().sum();
    let l = &traced.ledger;
    let explained = l.roots_in_calls_ns + l.wrapped_outside_ns;
    m.insert(
        "ledger.explained_pct".into(),
        (100.0 * explained as f64 / timed.max(1) as f64, "%"),
    );
    m.insert(
        "ledger.unexplained_us".into(),
        (us(timed.saturating_sub(explained)) / ops, "us"),
    );
    print_ledger(workload, plain, traced, timed);
    m
}

/// Print the traced run's ledger: where each operation's time went.
fn print_ledger(workload: Workload, plain: &Recorder, traced: &Traced, timed: u64) {
    let rec = &traced.rec;
    let ops = rec.ops.len().max(1) as f64;
    let per = |ns: u64| us(ns) / ops;
    let l = &traced.ledger;
    let plain_us = us(plain.calls.iter().flatten().sum()) / plain.ops.len().max(1) as f64;
    println!(
        "ledger ({} workload, us per {}, traced half):",
        workload.name(),
        workload.op()
    );
    println!("  untraced timed calls                 {:>10.2}", plain_us);
    println!(
        "  traced timed calls                   {:>10.2}",
        per(timed)
    );
    println!(
        "  inside program spans                 {:>10.2}",
        per(l.roots_in_calls_ns)
    );
    for (name, t) in &l.by_name {
        println!(
            "    span {:<24} self {:>10.2}   of which storage calls {:>8.2}   own code {:>8.2}",
            name,
            per(t.self_ns),
            per(t.wrapped_ns),
            per(t.self_ns.saturating_sub(t.wrapped_ns)),
        );
    }
    println!(
        "  storage/bus calls outside spans      {:>10.2}",
        per(l.wrapped_outside_ns)
    );
    let explained = l.roots_in_calls_ns + l.wrapped_outside_ns;
    println!(
        "  unexplained (no span, no wrapped call) {:>8.2}  ({:.1}% of traced timed calls)",
        per(timed.saturating_sub(explained)),
        100.0 * timed.saturating_sub(explained) as f64 / timed.max(1) as f64
    );
    println!(
        "  between calls: storage/bus (drains)  {:>10.2}",
        per(l.wrapped_between_ns)
    );
    println!(
        "  queue wait (bus.deliver spans)       {:>10.2}   over {} deliveries",
        per(l.wait_ns),
        l.wait_count
    );
    if l.lost > 0 {
        println!("  spans lost to the ring: {}", l.lost);
    }
    println!("  storage by family (calls/op, bytes/op, us/op; append read sync):");
    for (f, family) in FAMILIES.iter().chain(["other"].iter()).enumerate() {
        let t = traced.total.storage[f];
        if t.iter().all(|c| c[0] == 0) {
            continue;
        }
        let cells: Vec<String> = t
            .iter()
            .map(|c| {
                format!(
                    "{:.2}/{:.0}/{:.2}",
                    c[0] as f64 / ops,
                    c[1] as f64 / ops,
                    per(c[2])
                )
            })
            .collect();
        println!("    {:<14} {}", family, cells.join("  "));
    }
}
