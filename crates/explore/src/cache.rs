//! Fingerprint-keyed memoization of (model, test) verdicts.
//!
//! The §4.2 experiment (and any sweep over a model space) asks the same
//! admissibility question many times: lattice construction, distinguishing-
//! set search and repeated explorations all revisit (model, test) pairs.
//! A [`VerdictCache`] memoizes the boolean verdict keyed by
//!
//! * the **model fingerprint** — a hash of the must-not-reorder formula
//!   only (not the display name), so `TSO` and its digit alias `M4044`
//!   share entries; and
//! * the **test fingerprint** — [`mcm_gen::canon::fingerprint`], the hash
//!   of the test's canonical symmetry-orbit representative, so all
//!   symmetric variants of a test share entries.
//!
//! The sweep engine's unit of work is a test row (one test against every
//! model), so the cache stores **rows, not cells**. Writes (`insert`,
//! `merge`, `hydrate`) intern model fingerprints into a cache-wide
//! **model-id table** (`model_fp → u32`); lookups only read it. Each test
//! fingerprint maps to one row of three bit planes indexed by model id —
//! *known*, *allowed*, *durable* — stored word-interleaved
//! (`[known₀, allowed₀, durable₀, known₁, …]`), growing by whole 64-bit
//! words when a higher id first lands in it: a server sees arbitrary
//! model sets. The rows live in 16 mutex-protected maps chosen by the
//! **test** fingerprint alone, so a row lookup
//! ([`VerdictCache::lookup_row`], ids resolved once per sweep by
//! [`VerdictCache::model_ids`]) costs one shard lock and one hash probe
//! for all its models.
//!
//! The rows can sit in front of a durable tier (`mcm-store`'s
//! `DiskCache`): hydrated entries carry their durable bit, so hit
//! counters tell `hits_ram` (computed this process) from `hits_disk`
//! (recovered from an earlier one); writing a verdict clears the bit. A
//! [`DurableSink`] installed with [`VerdictCache::set_sink`] receives
//! every fresh verdict, one `(model_fp, test_fp)` cell per record, for
//! write-through persistence.
//!
//! Keys are 128 bits of hash; a collision would silently reuse a verdict.
//! With 64-bit fingerprints on each side the collision probability across
//! even millions of distinct pairs is negligible (~`n²/2⁶⁵` per side).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, TryLockError};

use mcm_core::MemoryModel;

/// Number of independent shards; a power of two so the shard index is a
/// mask of the test fingerprint.
const SHARDS: usize = 16;

/// Cells written per model-id resolution pass in `write_cells`: bounds
/// the scratch memory of hydrating a large log.
const WRITE_CHUNK: usize = 4096;

/// A cache key: (model fingerprint, canonical-test fingerprint).
pub type Key = (u64, u64);

/// One test's verdicts over the model-id table: word `w` of the known,
/// allowed and durable planes sits at `3w`, `3w + 1` and `3w + 2`.
#[derive(Default)]
struct Row(Vec<u64>);

impl Row {
    fn word_and_bit(id: u32) -> (usize, u64) {
        (3 * (id as usize / 64), 1 << (id % 64))
    }

    /// The cell of model `id`: `(allowed, durable)` when known.
    fn get(&self, id: u32) -> Option<(bool, bool)> {
        let (w, bit) = Self::word_and_bit(id);
        let planes = self.0.get(w..w + 3)?;
        (planes[0] & bit != 0).then(|| (planes[1] & bit != 0, planes[2] & bit != 0))
    }

    /// Writes the cell of model `id`, returning its previous verdict.
    fn set(&mut self, id: u32, allowed: bool, durable: bool) -> Option<bool> {
        let prev = self.get(id).map(|(allowed, _)| allowed);
        let (w, bit) = Self::word_and_bit(id);
        if self.0.len() < w + 3 {
            self.0.resize(w + 3, 0);
        }
        for (plane, on) in self.0[w..w + 3].iter_mut().zip([true, allowed, durable]) {
            *plane = (*plane & !bit) | if on { bit } else { 0 };
        }
        prev
    }
}

/// The cache-wide ids of a list of models, resolved once by
/// [`VerdictCache::model_ids`] for many [`VerdictCache::lookup_row`]
/// calls. `None` marks a model with no verdict written when the ids were
/// resolved; its cells read as misses. Ids are never reassigned, so a
/// resolution stays valid for the life of its cache.
#[derive(Clone, Debug)]
pub struct ModelIds(Vec<Option<u32>>);

/// A durable write-through target for freshly computed verdicts: the
/// sweep engine merges worker batches into the RAM rows, and any sink
/// installed with [`VerdictCache::set_sink`] sees the same batches so a
/// disk tier can persist them on batch boundaries.
pub trait DurableSink: Send + Sync {
    /// Persists a batch of fresh `(key, allowed)` verdicts. Called after
    /// the RAM rows were updated; entries already present with the same
    /// verdict are filtered out before this is called.
    fn persist(&self, batch: &[(Key, bool)]);
}

/// A sharded, thread-safe memo table for (model, test) verdicts, stored
/// as one row of model-id bits per test.
#[derive(Default)]
pub struct VerdictCache {
    shards: [Mutex<HashMap<u64, Row>>; SHARDS],
    /// The model-id table: grown by writes, read by lookups.
    ids: RwLock<HashMap<u64, u32>>,
    /// Known cells across all rows, kept under the shard locks.
    entries: AtomicU64,
    hits_ram: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    contention: AtomicU64,
    /// Optional durable tier notified of every fresh verdict.
    sink: OnceLock<Arc<dyn DurableSink>>,
    // Lazily resolved handles into the global metric registry, so the
    // lookup path never takes the registry lock after first use.
    obs_hits: OnceLock<Arc<mcm_obs::metrics::Counter>>,
    obs_hits_ram: OnceLock<Arc<mcm_obs::metrics::Counter>>,
    obs_hits_disk: OnceLock<Arc<mcm_obs::metrics::Counter>>,
    obs_misses: OnceLock<Arc<mcm_obs::metrics::Counter>>,
    obs_contention: OnceLock<Arc<mcm_obs::metrics::Counter>>,
}

impl fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerdictCache")
            .field("entries", &self.len())
            .field("hits_ram", &self.hits_ram())
            .field("hits_disk", &self.hits_disk())
            .field("misses", &self.misses())
            .field("has_sink", &self.sink.get().is_some())
            .finish()
    }
}

impl VerdictCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        VerdictCache::default()
    }

    /// Fingerprint of a model: a hash of its formula, ignoring the name.
    #[must_use]
    pub fn model_fingerprint(model: &MemoryModel) -> u64 {
        let mut hasher = DefaultHasher::new();
        model.formula().hash(&mut hasher);
        hasher.finish()
    }

    /// The shard of a test's row: the test fingerprint alone picks it,
    /// so a row lives in one shard whatever models it holds. Single-model
    /// sweeps still spread over the shards: their workers claim
    /// different tests.
    fn shard(test_fp: u64) -> usize {
        test_fp as usize & (SHARDS - 1)
    }

    /// Locks shard `i`, counting the acquisition as contended when
    /// another worker already holds it (`try_lock` would block). The
    /// count feeds `shard_contention` in [`VerdictCache::counters`]
    /// and the global `mcm_cache_shard_contention_total` series — the
    /// signal that says whether [`SHARDS`] needs to grow.
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, HashMap<u64, Row>> {
        match self.shards[i].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                if mcm_obs::enabled() {
                    self.obs_contention
                        .get_or_init(|| {
                            mcm_obs::metrics::counter("mcm_cache_shard_contention_total", &[])
                        })
                        .inc();
                }
                self.shards[i].lock().expect("cache shard poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("cache shard poisoned"),
        }
    }

    /// Counts a batch of lookup results and mirrors it into the
    /// process-wide metric series scraped by `GET /metricsz`.
    fn count_lookups(&self, hits_ram: u64, hits_disk: u64, misses: u64) {
        self.hits_ram.fetch_add(hits_ram, Ordering::Relaxed);
        self.hits_disk.fetch_add(hits_disk, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        if !mcm_obs::enabled() {
            return;
        }
        if hits_ram + hits_disk > 0 {
            self.obs_hits
                .get_or_init(|| mcm_obs::metrics::counter("mcm_cache_hits_total", &[]))
                .add(hits_ram + hits_disk);
        }
        if hits_ram > 0 {
            self.obs_hits_ram
                .get_or_init(|| mcm_obs::metrics::counter("mcm_cache_hits_ram_total", &[]))
                .add(hits_ram);
        }
        if hits_disk > 0 {
            self.obs_hits_disk
                .get_or_init(|| mcm_obs::metrics::counter("mcm_cache_hits_disk_total", &[]))
                .add(hits_disk);
        }
        if misses > 0 {
            self.obs_misses
                .get_or_init(|| mcm_obs::metrics::counter("mcm_cache_misses_total", &[]))
                .add(misses);
        }
    }

    /// Installs the durable write-through tier. At most one sink can be
    /// installed per cache; returns `false` (and leaves the existing sink
    /// in place) when one was already set.
    pub fn set_sink(&self, sink: Arc<dyn DurableSink>) -> bool {
        self.sink.set(sink).is_ok()
    }

    /// Writes `cells` into their test rows, `durable` tagging their tier,
    /// and returns the non-durable cells that are fresh (new, or with a
    /// changed verdict). Model ids are interned a chunk at a time, and
    /// consecutive cells of one shard share one lock acquisition; the
    /// `entries` count moves under that lock.
    fn write_cells(
        &self,
        cells: impl IntoIterator<Item = (Key, bool)>,
        durable: bool,
    ) -> Vec<(Key, bool)> {
        let mut cells = cells.into_iter();
        let mut chunk: Vec<(Key, bool)> = Vec::new();
        let mut fresh = Vec::new();
        loop {
            chunk.clear();
            chunk.extend(cells.by_ref().take(WRITE_CHUNK));
            if chunk.is_empty() {
                return fresh;
            }
            let ids: Vec<u32> = {
                let mut table = self.ids.write().expect("model-id table poisoned");
                chunk
                    .iter()
                    .map(|&((model_fp, _), _)| {
                        let next = table.len() as u32;
                        *table.entry(model_fp).or_insert(next)
                    })
                    .collect()
            };
            let mut held: Option<(usize, MutexGuard<'_, HashMap<u64, Row>>)> = None;
            for (&(key, allowed), &id) in chunk.iter().zip(&ids) {
                let s = Self::shard(key.1);
                if held.as_ref().is_none_or(|(h, _)| *h != s) {
                    drop(held.take()); // never hold two shard locks
                    held = Some((s, self.lock_shard(s)));
                }
                let (_, shard) = held.as_mut().expect("locked above");
                let prev = shard.entry(key.1).or_default().set(id, allowed, durable);
                if prev.is_none() {
                    self.entries.fetch_add(1, Ordering::Relaxed);
                }
                if !durable && prev != Some(allowed) {
                    fresh.push((key, allowed));
                }
            }
        }
    }

    /// Pre-loads verdicts recovered from a durable store, tagging them as
    /// disk-tier so later lookups count as `hits_disk`. Does not notify
    /// the sink (the records are already durable) and does not touch the
    /// hit/miss statistics. Later records overwrite earlier ones.
    pub fn hydrate(&self, records: impl IntoIterator<Item = (Key, bool)>) {
        self.write_cells(records, true);
    }

    /// Looks a verdict up, recording a hit or miss: a one-model row
    /// lookup.
    #[must_use]
    pub fn get(&self, key: Key) -> Option<bool> {
        let mut found = None;
        self.lookup_row(&self.model_ids(&[key.0]), key.1, |_, v| found = v);
        found
    }

    /// Resolves `model_fps` against the model-id table for
    /// [`VerdictCache::lookup_row`]. Reads the table only: a model with
    /// no verdict written yet gets no id, and its cells read as misses.
    #[must_use]
    pub fn model_ids(&self, model_fps: &[u64]) -> ModelIds {
        let table = self.ids.read().expect("model-id table poisoned");
        ModelIds(model_fps.iter().map(|fp| table.get(fp).copied()).collect())
    }

    /// Looks up one test row: calls `visit(i, verdict)` for every model
    /// `i` of `ids`, in order, with `None` where the cache has no entry —
    /// one shard lock and one hash probe for the whole row. Records one
    /// hit or miss per model and returns the hits split by provenance
    /// tier, `(ram, disk)`.
    pub fn lookup_row(
        &self,
        ids: &ModelIds,
        test_fp: u64,
        mut visit: impl FnMut(usize, Option<bool>),
    ) -> (u64, u64) {
        let (mut ram, mut disk) = (0u64, 0u64);
        {
            let shard = self.lock_shard(Self::shard(test_fp));
            let row = shard.get(&test_fp);
            for (i, id) in ids.0.iter().enumerate() {
                let cell = row.zip(*id).and_then(|(row, id)| row.get(id));
                if let Some((_, durable)) = cell {
                    disk += u64::from(durable);
                    ram += u64::from(!durable);
                }
                visit(i, cell.map(|(allowed, _)| allowed));
            }
        }
        self.count_lookups(ram, disk, ids.0.len() as u64 - ram - disk);
        (ram, disk)
    }

    /// Records a verdict (RAM tier; written through to the sink when one
    /// is installed and the verdict is new).
    pub fn insert(&self, key: Key, allowed: bool) {
        self.merge([(key, allowed)]);
    }

    /// Merges a batch of verdicts (one worker's sweep-local results),
    /// taking each shard lock once per run of cells in it. Entries not
    /// already present (or present with a different verdict) are written
    /// through to the durable sink as one batch.
    pub fn merge(&self, batch: impl IntoIterator<Item = (Key, bool)>) {
        let fresh = self.write_cells(batch, false);
        if let (false, Some(sink)) = (fresh.is_empty(), self.sink.get()) {
            sink.persist(&fresh);
        }
    }

    /// Number of memoized (model, test) pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookup hits since construction, both tiers.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits_ram() + self.hits_disk()
    }

    /// Lookup hits answered by entries computed in this process.
    #[must_use]
    pub fn hits_ram(&self) -> u64 {
        self.hits_ram.load(Ordering::Relaxed)
    }

    /// Lookup hits answered by entries hydrated from a durable store.
    #[must_use]
    pub fn hits_disk(&self) -> u64 {
        self.hits_disk.load(Ordering::Relaxed)
    }

    /// Total lookup misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Shard-lock acquisitions that found the lock already held (a
    /// measure of worker serialisation on the cache).
    #[must_use]
    pub fn shard_contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// The cache totals as stable `(name, value)` pairs — the structured
    /// view serializable reports and the serve layer's `/statsz` endpoint
    /// render from, mirroring `SweepStats::counters`. The same names,
    /// prefixed `mcm_cache_` and suffixed `_total`, appear in
    /// `/metricsz`. `hits` is the sum of the two tier counters.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("entries", self.len() as u64),
            ("hits", self.hits()),
            ("hits_ram", self.hits_ram()),
            ("hits_disk", self.hits_disk()),
            ("misses", self.misses()),
            ("shard_contention", self.shard_contention()),
        ]
    }

    /// Drops all entries and statistics (the sink, if any, stays
    /// installed, and so does the model-id table, so resolved
    /// [`ModelIds`] stay valid).
    pub fn clear(&self) {
        let mut guards: Vec<_> = (0..SHARDS).map(|i| self.lock_shard(i)).collect();
        guards.iter_mut().for_each(|shard| shard.clear());
        self.entries.store(0, Ordering::Relaxed);
        drop(guards);
        self.hits_ram.store(0, Ordering::Relaxed);
        self.hits_disk.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.contention.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_core::Formula;

    /// Collects one row lookup as a verdict vector.
    fn row(cache: &VerdictCache, model_fps: &[u64], test_fp: u64) -> (Vec<Option<bool>>, u64, u64) {
        let mut verdicts = vec![None; model_fps.len()];
        let (ram, disk) = cache.lookup_row(&cache.model_ids(model_fps), test_fp, |i, v| {
            verdicts[i] = v;
        });
        (verdicts, ram, disk)
    }

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let cache = VerdictCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get((1, 2)), None);
        cache.insert((1, 2), true);
        cache.insert((1, 3), false);
        assert_eq!(cache.get((1, 2)), Some(true));
        assert_eq!(cache.get((1, 3)), Some(false));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.hits_ram(), 2);
        assert_eq!(cache.hits_disk(), 0);
        assert_eq!(cache.misses(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn row_lookup_matches_per_key_lookups() {
        let cache = VerdictCache::new();
        let model_fps: Vec<u64> = (0..40).collect();
        for &m in &model_fps {
            if m % 3 != 0 {
                cache.insert((m, 7), m % 2 == 0);
            }
        }
        let (verdicts, _, _) = row(&cache, &model_fps, 7);
        for (i, &m) in model_fps.iter().enumerate() {
            let expected = (m % 3 != 0).then_some(m % 2 == 0);
            assert_eq!(verdicts[i], expected, "row lookup differs at model {m}");
        }
        // 40 lookups: hits for the inserted keys, misses for the rest.
        assert_eq!(cache.hits() + cache.misses(), 40);
        assert_eq!(
            cache.misses(),
            model_fps.iter().filter(|m| *m % 3 == 0).count() as u64
        );
    }

    #[test]
    fn lookups_never_grow_the_model_table() {
        let cache = VerdictCache::new();
        let _ = cache.get((42, 1));
        let ids = cache.model_ids(&[42, 43]);
        assert!(ids.0.iter().all(Option::is_none));
        assert!(cache.ids.read().unwrap().is_empty());
        // Ids resolved before a model's first write keep reading misses.
        cache.insert((42, 1), true);
        let (ram, disk) = cache.lookup_row(&ids, 1, |_, v| assert_eq!(v, None));
        assert_eq!((ram, disk), (0, 0));
        assert_eq!(row(&cache, &[42, 43], 1).0, vec![Some(true), None]);
    }

    #[test]
    fn counters_mirror_the_accessors() {
        let cache = VerdictCache::new();
        cache.insert((1, 2), true);
        let _ = cache.get((1, 2));
        let _ = cache.get((9, 9));
        assert_eq!(
            cache.counters(),
            [
                ("entries", 1),
                ("hits", 1),
                ("hits_ram", 1),
                ("hits_disk", 0),
                ("misses", 1),
                ("shard_contention", 0)
            ]
        );
    }

    #[test]
    fn merge_batches_by_shard() {
        let cache = VerdictCache::new();
        let batch: Vec<(Key, bool)> = (0..100).map(|i| ((i, i * 7), i % 2 == 0)).collect();
        cache.merge(batch);
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.get((4, 28)), Some(true));
        assert_eq!(cache.get((5, 35)), Some(false));
    }

    #[test]
    fn hydrated_entries_count_as_disk_hits() {
        let cache = VerdictCache::new();
        cache.hydrate([((1, 2), true), ((3, 4), false)]);
        cache.insert((5, 6), true);
        assert_eq!(cache.get((1, 2)), Some(true));
        assert_eq!(cache.get((3, 4)), Some(false));
        assert_eq!(cache.get((5, 6)), Some(true));
        assert_eq!(cache.hits_disk(), 2);
        assert_eq!(cache.hits_ram(), 1);
        let cache = VerdictCache::new();
        cache.hydrate([((1, 7), true)]);
        cache.insert((2, 7), false);
        let (verdicts, ram, disk) = row(&cache, &[1, 2, 3], 7);
        assert_eq!(verdicts, vec![Some(true), Some(false), None]);
        assert_eq!((ram, disk), (1, 1));
        // Rewriting a hydrated cell, even with its own verdict, moves it
        // to the RAM tier.
        cache.insert((1, 7), true);
        assert_eq!(row(&cache, &[1], 7).1, 1);
    }

    #[test]
    fn sink_sees_fresh_verdicts_once() {
        struct Recorder(Mutex<Vec<(Key, bool)>>);
        impl DurableSink for Recorder {
            fn persist(&self, batch: &[(Key, bool)]) {
                self.0.lock().unwrap().extend_from_slice(batch);
            }
        }
        let cache = VerdictCache::new();
        let sink = Arc::new(Recorder(Mutex::new(Vec::new())));
        assert!(cache.set_sink(sink.clone()));
        assert!(!cache.set_sink(sink.clone()), "second sink must be refused");
        cache.hydrate([((9, 9), true)]);
        cache.insert((1, 2), true);
        cache.insert((1, 2), true); // unchanged: not re-persisted
        cache.merge([((1, 2), true), ((3, 4), false)]);
        let seen = sink.0.lock().unwrap().clone();
        assert_eq!(seen, vec![((1, 2), true), ((3, 4), false)]);
    }

    #[test]
    fn model_fingerprint_ignores_the_name() {
        let a = MemoryModel::new("TSO", Formula::always());
        let b = MemoryModel::new("M4044", Formula::always());
        let c = MemoryModel::new("weak", Formula::never());
        assert_eq!(
            VerdictCache::model_fingerprint(&a),
            VerdictCache::model_fingerprint(&b)
        );
        assert_ne!(
            VerdictCache::model_fingerprint(&a),
            VerdictCache::model_fingerprint(&c)
        );
    }

    #[test]
    fn model_fingerprints_are_pinned() {
        // The model half of every persisted verdict key: a formula-hash
        // change or a drift of the standard hasher fails here rather than
        // silently orphaning every stored verdict.
        let key = VerdictCache::model_fingerprint;
        assert_eq!(key(&mcm_models::named::sc()), 0xc8d9_2d1f_e77b_6f16);
        assert_eq!(key(&mcm_models::named::tso()), 0x044a_b8e5_a9be_a3a6);
    }
}
