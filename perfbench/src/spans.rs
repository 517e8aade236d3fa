//! Span self time and the traced run's ledger.
//!
//! Spans come from the platform's own tracer ring, harvested between
//! operations. A span's self time is its duration minus the part of its
//! interval that child spans cover. `bus.deliver` spans start when a
//! notification is queued and end when a subscriber takes it, so they
//! measure queue wait, not work: they are reported as wait and kept out
//! of every self-time and ledger sum.
//!
//! The probe's wrapped storage calls are placed inside the deepest span
//! covering them, which splits each span's self time into storage calls
//! and the span's own code. Wrapped calls outside every span, and the
//! remainder of a timed call that is in neither a span nor a wrapped
//! call, complete the ledger.

use std::collections::{BTreeMap, HashMap};

use css_trace::{Span, Tracer};
use css_types::Timestamp;

use crate::probe::{Interval, Probe};

/// Name of the queue-wait span.
pub const WAIT_SPAN: &str = "bus.deliver";

/// Per-span-name totals, nanoseconds.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub self_ns: u64,
    /// Wrapped storage time inside this span's self time.
    pub wrapped_ns: u64,
}

/// Where a harvest of one tracer's ring left off, and that tracer's
/// clock offset against the probe's.
pub struct Cursor {
    /// Probe time minus span time, nanoseconds.
    offset: i128,
    seen: u64,
}

/// Name of the marker span that calibrates a tracer's clock.
const MARKER: &str = "perfbench.calibrate";

impl Cursor {
    /// Calibrate `tracer` against `probe` with one marker span. With
    /// `from_start` the first harvest also takes spans finished earlier.
    pub fn calibrate(tracer: &Tracer, probe: &Probe, from_start: bool) -> Self {
        let seen = if from_start { 0 } else { tracer.recorded() };
        let before = probe.now();
        tracer.root(MARKER, Timestamp(0)).finish();
        let after = probe.now();
        let marker = tracer
            .finished_spans()
            .into_iter()
            .rev()
            .find(|s| s.name == MARKER)
            .map_or(0, |s| s.start_ns);
        Cursor {
            offset: (before / 2 + after / 2) as i128 - marker as i128,
            seen,
        }
    }

    fn probe_time(&self, span_ns: u64) -> u64 {
        (span_ns as i128 + self.offset).max(0) as u64
    }
}

/// Accumulates span self time over one traced loop.
#[derive(Default)]
pub struct SpanLedger {
    pub by_name: BTreeMap<&'static str, SpanTotals>,
    /// Summed duration of `bus.deliver` spans (queue wait).
    pub wait_ns: u64,
    pub wait_count: u64,
    /// Spans that fell out of the ring before a harvest.
    pub lost: u64,
    /// Root span time inside timed calls.
    pub roots_in_calls_ns: u64,
    /// Wrapped calls inside timed calls but outside every span.
    pub wrapped_outside_ns: u64,
    /// Wrapped calls between timed calls (subscription drains).
    pub wrapped_between_ns: u64,
}

impl SpanLedger {
    /// Fold in the spans finished since the last harvest, the wrapped
    /// calls logged since then, and the timed-call intervals (probe
    /// time) they happened in.
    pub fn harvest(
        &mut self,
        tracer: &Tracer,
        cursor: &mut Cursor,
        leaves: Vec<Interval>,
        calls: &[(u64, u64)],
    ) {
        let recorded = tracer.recorded();
        let fresh = (recorded - cursor.seen) as usize;
        cursor.seen = recorded;
        let ring = tracer.finished_spans();
        self.lost += fresh.saturating_sub(ring.len()) as u64;
        let spans: Vec<Span> = ring[ring.len().saturating_sub(fresh)..]
            .iter()
            .filter(|s| s.name != MARKER)
            .cloned()
            .collect();

        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.name != WAIT_SPAN) {
            if let Some(parent) = s.parent {
                children
                    .entry(parent.0)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        // Work spans in probe time, for placing wrapped calls.
        let mut work: Vec<(u64, u64, &'static str, bool)> = Vec::new();
        for s in &spans {
            if s.name == WAIT_SPAN {
                self.wait_ns += s.duration_ns();
                self.wait_count += 1;
                continue;
            }
            let covered = children
                .get(&s.id.0)
                .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
            let t = self.by_name.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += s.duration_ns().saturating_sub(covered);
            let (start, end) = (cursor.probe_time(s.start_ns), cursor.probe_time(s.end_ns));
            if s.parent.is_none() && inside(calls, (start + end) / 2) {
                self.roots_in_calls_ns += s.duration_ns();
            }
            work.push((start, end, s.name, s.parent.is_none()));
        }
        // Deepest covering span = the covering span that started last.
        // Root spans do not overlap (one client thread), so the search
        // stops at the first root that ended before the call.
        work.sort_by_key(|&(start, end, _, _)| (start, std::cmp::Reverse(end)));
        for leaf in leaves {
            let mid = leaf.start / 2 + leaf.end / 2;
            let dur = leaf.end - leaf.start;
            let mut deepest = None;
            for w in work[..work.partition_point(|w| w.0 <= mid)].iter().rev() {
                if w.1 >= mid {
                    deepest = Some(w.2);
                    break;
                }
                if w.3 {
                    break;
                }
            }
            match deepest {
                // The broker's own `bus.route` span sits inside the
                // wrapped bus call, so only storage calls split a span's
                // self time.
                Some(name) if !leaf.bus => {
                    self.by_name.entry(name).or_default().wrapped_ns += dur;
                }
                Some(_) => {}
                None if inside(calls, mid) => self.wrapped_outside_ns += dur,
                None => self.wrapped_between_ns += dur,
            }
        }
    }
}

/// Whether `t` falls in one of the sorted, disjoint `calls`.
fn inside(calls: &[(u64, u64)], t: u64) -> bool {
    let i = calls.partition_point(|c| c.0 <= t);
    i > 0 && calls[i - 1].1 >= t
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_within(&[(0, 10), (5, 15), (20, 30)], 2, 25), 18);
        assert_eq!(union_within(&[], 0, 10), 0);
    }

    #[test]
    fn inside_finds_the_covering_call() {
        let calls = [(10, 20), (30, 40)];
        assert!(inside(&calls, 15));
        assert!(!inside(&calls, 25));
        assert!(inside(&calls, 40));
        assert!(!inside(&calls, 5));
    }
}
