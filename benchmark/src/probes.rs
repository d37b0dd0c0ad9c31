//! Outside-in probes: timing wrappers handed to the program's public
//! extension points, and deltas of the global `mcm_obs` registry. None
//! of them needs a change inside the crates.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcm_analyze::SweepPrefilter;
use mcm_axiomatic::{BatchChecker, BatchStats, Verdict};
use mcm_core::{Execution, LitmusTest, MemoryModel};
use mcm_explore::{DurableSink, VerdictCache};
use mcm_gen::stream::LeaderStream;
use mcm_obs::metrics::{HistogramSnapshot, Snapshot, Value};
use mcm_sat::SolverStats;

use crate::common::tail_rank;

/// What the timing iterator saw of the leader stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeadTally {
    /// Seconds spent inside `LeaderStream::next`.
    pub busy_s: f64,
    /// Leaders yielded.
    pub leaders: u64,
    /// Raw tests the stream visited to yield them.
    pub raw_visited: u64,
}

/// A leader stream that times every `next` call. The engine pulls its
/// chunks on the calling thread, so a shared `Rc` is enough.
pub struct TimedLeaders {
    inner: LeaderStream,
    tally: Rc<RefCell<LeadTally>>,
}

impl TimedLeaders {
    pub fn new(inner: LeaderStream) -> (TimedLeaders, Rc<RefCell<LeadTally>>) {
        let tally = Rc::new(RefCell::new(LeadTally::default()));
        (
            TimedLeaders {
                inner,
                tally: Rc::clone(&tally),
            },
            tally,
        )
    }
}

impl Iterator for TimedLeaders {
    type Item = LitmusTest;

    fn next(&mut self) -> Option<LitmusTest> {
        let start = Instant::now();
        let next = self.inner.next();
        let mut tally = self.tally.borrow_mut();
        tally.busy_s += start.elapsed().as_secs_f64();
        tally.leaders = self.inner.leaders_emitted();
        tally.raw_visited = self.inner.raw_visited();
        next
    }
}

/// Per-call latencies and amortization counters gathered from every
/// worker's checker.
#[derive(Default)]
pub struct CheckTally {
    /// Nanoseconds per `check_all_executions` call.
    pub call_ns: Vec<u64>,
    pub batch: BatchStats,
}

/// A `BatchChecker` decorator: forwards every call to the wrapped
/// checker and records its latency. Each worker owns one; the samples
/// move into the shared tally when the worker drops it.
pub struct TimedChecker {
    inner: Box<dyn BatchChecker>,
    local: RefCell<Vec<u64>>,
    shared: Arc<Mutex<CheckTally>>,
}

impl TimedChecker {
    pub fn new(inner: Box<dyn BatchChecker>, shared: Arc<Mutex<CheckTally>>) -> TimedChecker {
        TimedChecker {
            inner,
            local: RefCell::new(Vec::new()),
            shared,
        }
    }
}

impl BatchChecker for TimedChecker {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check_all_executions(&self, exec: &Execution, models: &[MemoryModel]) -> Vec<Verdict> {
        let start = Instant::now();
        let verdicts = self.inner.check_all_executions(exec, models);
        self.local
            .borrow_mut()
            .push(start.elapsed().as_nanos() as u64);
        verdicts
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        self.inner.batch_stats()
    }

    fn solver_stats(&self) -> Option<SolverStats> {
        self.inner.solver_stats()
    }
}

impl Drop for TimedChecker {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.shared.lock() {
            shared.call_ns.append(self.local.get_mut());
            if let Some(stats) = self.inner.batch_stats() {
                shared.batch.absorb(stats);
            }
        }
    }
}

/// A `DurableSink` that times the write path behind it: every batch is
/// merged into a store-backed cache, whose own sink appends it to the
/// verdict log.
pub struct TimedSink {
    store: Arc<VerdictCache>,
    busy_ns: AtomicU64,
}

impl TimedSink {
    pub fn new(store: Arc<VerdictCache>) -> Arc<TimedSink> {
        Arc::new(TimedSink {
            store,
            busy_ns: AtomicU64::new(0),
        })
    }

    /// Seconds spent persisting so far.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl DurableSink for TimedSink {
    fn persist(&self, batch: &[((u64, u64), bool)]) {
        let start = Instant::now();
        self.store.merge(batch.iter().copied());
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The sweep prefilter over the distinct-formula rows of `models` (one
/// row per semantic key, as the engine builds them), with every row's
/// index — the input of a `group_rows` replay.
pub fn row_prefilter(models: &[MemoryModel]) -> (SweepPrefilter, Vec<usize>) {
    let mut keys = Vec::new();
    let mut rows: Vec<&MemoryModel> = Vec::new();
    for model in models {
        let key = mcm_analyze::semantic_key(model.formula());
        if !keys.contains(&key) {
            keys.push(key);
            rows.push(model);
        }
    }
    let all = (0..rows.len()).collect();
    (SweepPrefilter::new(&rows), all)
}

/// A snapshot of the global metrics registry.
pub fn registry() -> Snapshot {
    mcm_obs::metrics::global().snapshot()
}

/// Every series of histogram `name` recorded between `before` and
/// `after`, merged across labels.
pub fn histogram_delta(before: &Snapshot, after: &Snapshot, name: &str) -> HistogramSnapshot {
    let delta = after.delta_since(before);
    let mut merged = HistogramSnapshot::default();
    for (_, hist) in delta.histograms(name) {
        merged.merge(hist);
    }
    merged
}

/// Every series of counter `name` incremented between `before` and
/// `after`, summed across labels.
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after
        .delta_since(before)
        .series
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            Value::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

/// The histogram's tail by [`tail_rank`], in µs (bucket upper bounds).
pub fn histogram_tail(hist: &HistogramSnapshot) -> (String, f64) {
    let (label, q) = tail_rank(hist.count);
    (label, hist.quantile(q) as f64)
}

/// Number of events in a Chrome trace written by `mcm_obs::trace`.
pub fn trace_events(path: &std::path::Path) -> u64 {
    std::fs::read_to_string(path)
        .map(|text| text.lines().filter(|l| l.starts_with("{\"name\"")).count() as u64)
        .unwrap_or(0)
}
