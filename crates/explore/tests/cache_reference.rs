//! Reference-model test of the row-keyed `VerdictCache`: seeded random
//! sequences of `get`, `insert`, `merge`, `hydrate`, `clear` and row
//! lookups run against a per-cell `HashMap<(model_fp, test_fp),
//! (allowed, durable)>`. Every verdict must match, and so must `len`,
//! the hit/miss counters by tier and, batch by batch, the multiset of
//! fresh `(key, allowed)` records the durable sink sees. Up to 250
//! models are in play, so rows grow across four 64-bit words.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use mcm_explore::{DurableSink, ModelIds, VerdictCache};

type Key = (u64, u64);

struct Recorder(Mutex<Vec<Vec<(Key, bool)>>>);

impl DurableSink for Recorder {
    fn persist(&self, batch: &[(Key, bool)]) {
        self.0.lock().unwrap().push(batch.to_vec());
    }
}

/// splitmix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// The per-cell reference: the cache's observable behaviour, cell by cell.
#[derive(Default)]
struct Reference {
    cells: HashMap<Key, (bool, bool)>,
    /// Models with a verdict ever written: the ones a resolution gives an
    /// id (the cache keeps its id table across `clear`).
    interned: HashSet<u64>,
    hits_ram: u64,
    hits_disk: u64,
    misses: u64,
}

impl Reference {
    fn lookup(&mut self, key: Key) -> Option<bool> {
        match self.cells.get(&key) {
            Some(&(allowed, durable)) => {
                if durable {
                    self.hits_disk += 1;
                } else {
                    self.hits_ram += 1;
                }
                Some(allowed)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Writes one cell; returns whether it is fresh for the sink.
    fn write(&mut self, key: Key, allowed: bool, durable: bool) -> bool {
        self.interned.insert(key.0);
        let prev = self.cells.insert(key, (allowed, durable));
        !durable && prev.is_none_or(|(was, _)| was != allowed)
    }
}

fn sorted(mut batch: Vec<(Key, bool)>) -> Vec<(Key, bool)> {
    batch.sort_unstable();
    batch
}

fn run(seed: u64, models: usize, ops: usize) {
    let mut rng = Rng(seed);
    let model_fps: Vec<u64> = (0..models).map(|_| rng.next()).collect();
    let test_fps: Vec<u64> = (0..24).map(|_| rng.next()).collect();
    let cache = VerdictCache::new();
    let sink = Arc::new(Recorder(Mutex::new(Vec::new())));
    assert!(cache.set_sink(sink.clone()));
    let mut reference = Reference::default();
    let mut expected_batches: Vec<Vec<(Key, bool)>> = Vec::new();
    // Resolutions kept across later writes: (models, interned then).
    let mut stale: Vec<(Vec<u64>, ModelIds, Vec<bool>)> = Vec::new();

    let key = |rng: &mut Rng| {
        (
            model_fps[rng.below(model_fps.len())],
            test_fps[rng.below(test_fps.len())],
        )
    };
    for step in 0..ops {
        let ctx = format!("seed {seed}, step {step}");
        match rng.below(100) {
            0..=19 => {
                let k = key(&mut rng);
                assert_eq!(cache.get(k), reference.lookup(k), "get {k:?}, {ctx}");
            }
            20..=34 => {
                let (k, allowed) = (key(&mut rng), rng.coin());
                if reference.write(k, allowed, false) {
                    expected_batches.push(vec![(k, allowed)]);
                }
                cache.insert(k, allowed);
            }
            35..=54 => {
                // A worker-shaped batch: whole rows of one or two tests,
                // plus scattered cells (duplicates within a batch too).
                let mut batch = Vec::new();
                for _ in 0..=rng.below(2) {
                    let test = test_fps[rng.below(test_fps.len())];
                    let width = rng.below(model_fps.len()) + 1;
                    for &m in &model_fps[..width] {
                        batch.push(((m, test), rng.coin()));
                    }
                }
                for _ in 0..rng.below(40) {
                    batch.push((key(&mut rng), rng.coin()));
                }
                let fresh: Vec<_> = batch
                    .iter()
                    .filter(|&&(k, allowed)| reference.write(k, allowed, false))
                    .copied()
                    .collect();
                if !fresh.is_empty() {
                    expected_batches.push(fresh);
                }
                cache.merge(batch);
            }
            55..=64 => {
                let records: Vec<(Key, bool)> = (0..rng.below(300))
                    .map(|_| (key(&mut rng), rng.coin()))
                    .collect();
                for &(k, allowed) in &records {
                    reference.write(k, allowed, true);
                }
                cache.hydrate(records);
            }
            65..=66 => {
                reference.cells.clear();
                reference.hits_ram = 0;
                reference.hits_disk = 0;
                reference.misses = 0;
                cache.clear();
            }
            67..=89 => {
                // A fresh resolution, a row of random models (repeats
                // allowed), in random order.
                let width = rng.below(model_fps.len()) + 1;
                let fps: Vec<u64> = (0..width)
                    .map(|_| model_fps[rng.below(model_fps.len())])
                    .collect();
                let ids = cache.model_ids(&fps);
                let test = test_fps[rng.below(test_fps.len())];
                let mut seen = vec![None; fps.len()];
                let mut visited = 0;
                let (ram, disk) = cache.lookup_row(&ids, test, |i, v| {
                    assert_eq!(i, visited, "rows are visited in order, {ctx}");
                    visited += 1;
                    seen[i] = v;
                });
                assert_eq!(visited, fps.len(), "{ctx}");
                let (ram0, disk0) = (reference.hits_ram, reference.hits_disk);
                let expected: Vec<_> = fps.iter().map(|&m| reference.lookup((m, test))).collect();
                assert_eq!(seen, expected, "row of test {test:#x}, {ctx}");
                assert_eq!(
                    (ram, disk),
                    (reference.hits_ram - ram0, reference.hits_disk - disk0),
                    "{ctx}"
                );
                if rng.below(4) == 0 {
                    let interned = fps.iter().map(|m| reference.interned.contains(m)).collect();
                    stale.push((fps, ids, interned));
                }
            }
            _ => {
                // An earlier resolution: models interned since read as
                // misses; the rest answer from the current cells.
                if stale.is_empty() {
                    continue;
                }
                let (fps, ids, interned) = &stale[rng.below(stale.len())];
                let test = test_fps[rng.below(test_fps.len())];
                let mut seen = vec![None; fps.len()];
                cache.lookup_row(ids, test, |i, v| seen[i] = v);
                let expected: Vec<_> = fps
                    .iter()
                    .zip(interned)
                    .map(|(&m, &had_id)| {
                        if had_id {
                            reference.lookup((m, test))
                        } else {
                            reference.misses += 1;
                            None
                        }
                    })
                    .collect();
                assert_eq!(seen, expected, "stale row of test {test:#x}, {ctx}");
            }
        }
        assert_eq!(cache.len(), reference.cells.len(), "len, {ctx}");
        assert_eq!(cache.hits_ram(), reference.hits_ram, "hits_ram, {ctx}");
        assert_eq!(cache.hits_disk(), reference.hits_disk, "hits_disk, {ctx}");
        assert_eq!(cache.misses(), reference.misses, "misses, {ctx}");
    }
    let seen = sink.0.lock().unwrap().clone();
    assert_eq!(
        seen.len(),
        expected_batches.len(),
        "sink batches, seed {seed}"
    );
    for (i, (got, want)) in seen.into_iter().zip(expected_batches).enumerate() {
        assert_eq!(sorted(got), sorted(want), "sink batch {i}, seed {seed}");
    }
    // Every cell the reference holds reads back through `get`.
    for (&k, &(allowed, _)) in &reference.cells {
        assert_eq!(cache.get(k), Some(allowed), "final {k:?}, seed {seed}");
    }
}

#[test]
fn row_cache_matches_the_per_cell_reference() {
    for seed in 0..12 {
        // 40 models fit in one word; 150 and 250 cross words 2 and 3.
        let models = [40, 150, 250][seed as usize % 3];
        run(seed, models, 600);
    }
}

#[test]
fn ids_past_128_and_192_keep_their_rows() {
    // Intern 250 models one at a time, each on its own test, so every
    // id lands first in a row that must grow to reach it.
    let cache = VerdictCache::new();
    let fps: Vec<u64> = (0..250u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        .collect();
    for (i, &m) in fps.iter().enumerate() {
        cache.insert((m, i as u64), i % 3 == 0);
        cache.insert((m, 9999), i % 5 == 0);
    }
    assert_eq!(cache.len(), 500);
    let ids = cache.model_ids(&fps);
    for (i, _) in fps.iter().enumerate() {
        let mut row = vec![None; fps.len()];
        cache.lookup_row(&ids, i as u64, |j, v| row[j] = v);
        for (j, v) in row.iter().enumerate() {
            assert_eq!(*v, (i == j).then_some(i % 3 == 0), "test {i}, model {j}");
        }
    }
    let mut shared = vec![None; fps.len()];
    let (ram, disk) = cache.lookup_row(&ids, 9999, |j, v| shared[j] = v);
    assert_eq!((ram, disk), (250, 0));
    for (j, v) in shared.iter().enumerate() {
        assert_eq!(*v, Some(j % 5 == 0), "model {j}");
    }
}
