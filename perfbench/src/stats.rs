//! Sampling helpers: percentiles, process CPU and memory, host stamps.

use std::path::Path;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// CPU time (user plus system) of the calling thread, nanoseconds. The
/// benchmark drives the platform from one thread and the untraced
/// platform starts none, so this is the process's CPU time.
pub fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resident set size of the process now, MiB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The filesystem type holding `path` (longest matching mount point).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _dev = f.next()?;
            let mount = f.next()?;
            let kind = f.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The reference task's time on a host running at full speed, in
/// nanoseconds: the yardstick every scaled time is expressed against.
pub const REFERENCE_NS: f64 = 30_000.0;

/// A fixed CPU and memory task built from the standard library only
/// (hashing, ordered-map inserts and lookups, string formatting and
/// sorting), so its time tracks how fast the host runs this process and
/// not any change to the platform. It runs twice and times the second,
/// warm run, so the platform's cache footprint does not leak into it.
/// Returns that run's duration in nanoseconds.
pub fn reference_ns() -> u64 {
    fn task() {
        let mut map = std::collections::BTreeMap::new();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..256u64 {
            for b in i.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            map.insert(h, i);
        }
        let mut words: Vec<String> = map.keys().take(64).map(|k| format!("{k:x}")).collect();
        words.sort_unstable();
        let hits = (0..256u64)
            .filter(|k| map.contains_key(&(k * 7919)))
            .count();
        std::hint::black_box((words.len(), hits));
    }
    task();
    let started = Instant::now();
    task();
    started.elapsed().as_nanos() as u64
}

/// How fast the host ran, second by second, measured with the
/// reference task between operations.
///
/// A shared host changes speed on a scale of seconds to minutes (CPU
/// frequency, sibling hyperthreads); measured here, one second's
/// operation rate times its reference time stays within a few percent
/// while the rate itself moves by a quarter. Scaling a second's times
/// by `REFERENCE_NS / reference time` expresses them at one fixed host
/// speed, which is what makes runs comparable.
#[derive(Default)]
pub struct HostSpeed {
    started: Option<Instant>,
    /// Summed reference time and samples, per second.
    seconds: Vec<(u64, u64)>,
    /// Wall time spent running the reference task.
    pub cost_ns: u64,
}

impl HostSpeed {
    /// Start the clock and take the first sample.
    pub fn start(&mut self) {
        self.started = Some(Instant::now());
        self.sample();
    }

    /// The second (since [`HostSpeed::start`]) we are in.
    pub fn second(&self) -> usize {
        self.started.map_or(0, |t| t.elapsed().as_secs() as usize)
    }

    /// Run the reference task once and file its time under this second.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let ns = reference_ns();
        let second = self.second();
        if self.seconds.len() <= second {
            self.seconds.resize(second + 1, (0, 0));
        }
        self.seconds[second].0 += ns;
        self.seconds[second].1 += 1;
        self.cost_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Mean reference time of each sampled second, nanoseconds.
    pub fn per_second(&self) -> Vec<f64> {
        self.seconds
            .iter()
            .map(|&(sum, n)| {
                if n == 0 {
                    f64::NAN
                } else {
                    sum as f64 / n as f64
                }
            })
            .collect()
    }

    /// Scale for times measured in `second`: `REFERENCE_NS` over that
    /// second's reference time (the nearest sampled second before it
    /// when it has none).
    pub fn scale_at(&self, second: usize) -> f64 {
        let per = self.per_second();
        let end = (second + 1).min(per.len());
        per[..end]
            .iter()
            .rev()
            .find(|r| r.is_finite())
            .map_or(1.0, |r| REFERENCE_NS / r)
    }

    /// Scale for a time spread over the whole loop (its CPU time): the
    /// mean of the sampled seconds' scales. The one client thread is busy
    /// through every second, so each second holds an equal share of that
    /// time and converts at its own second's rate.
    pub fn scale(&self) -> f64 {
        let scales: Vec<f64> = self
            .per_second()
            .into_iter()
            .filter(|r| r.is_finite())
            .map(|r| REFERENCE_NS / r)
            .collect();
        if scales.is_empty() {
            1.0
        } else {
            scales.iter().sum::<f64>() / scales.len() as f64
        }
    }
}
