//! Checkpoint files: resumable streaming-sweep state on disk.
//!
//! A checkpoint is the engine's [`StreamCheckpoint`] (cursor, verdict
//! rows, counters) plus a [`SweepMeta`] describing the sweep it belongs
//! to — stream bounds, limit, shard, engine knobs. On `--resume`, the
//! loader hands both back; the caller compares the meta against the
//! sweep it is about to run and rejects a mismatched checkpoint instead
//! of silently producing a lattice stitched from two different sweeps.
//!
//! The file is a single whole-payload-checksummed blob (layout pinned in
//! `docs/STORE_FORMAT.md`): unlike the verdict log there is no notion of
//! a usable prefix — a checkpoint is either exactly what was saved or
//! rejected. Saves go through a `.tmp` sibling and an atomic rename, so
//! a crash mid-save leaves the previous checkpoint intact.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

use mcm_explore::{StreamCheckpoint, SweepStats, VerdictVector};
use mcm_gen::{Shard, StreamBounds};

use crate::bytes::{fnv1a, put_bool, put_u32, put_u64, put_u8, Reader};
use crate::log::replace_atomically;

/// First 8 bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"MCMCKPT\0";
/// Checkpoint format version: the only one this build reads.
pub const VERSION: u32 = 2;

/// The identity of the sweep a checkpoint was taken from. Everything
/// that shapes the deterministic test stream (and therefore the meaning
/// of the cursor) lives here; resume must run with an identical meta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepMeta {
    /// Leader-stream enumeration bounds.
    pub bounds: StreamBounds,
    /// `--limit`: cap on tests taken from the stream, if any.
    pub limit: Option<u64>,
    /// `--shard i/n` partition the sweep ran under, if any.
    pub shard: Option<Shard>,
    /// Whether the engine canonicalized per chunk.
    pub canonicalize: bool,
    /// Tests materialized per chunk — checkpoints land on chunk
    /// boundaries, so the cursor is only meaningful at the same chunking.
    pub stream_chunk: u64,
}

/// A deserialized checkpoint: sweep identity plus resumable state.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointFile {
    /// Which sweep this checkpoint belongs to.
    pub meta: SweepMeta,
    /// The engine state to resume from.
    pub state: StreamCheckpoint,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn encode_stats(out: &mut Vec<u8>, stats: &SweepStats) {
    for (_, value) in stats.counters() {
        put_u64(out, value);
    }
    let sat = &stats.sat;
    for value in [
        sat.decisions,
        sat.propagations,
        sat.conflicts,
        sat.restarts,
        sat.learnt_clauses,
    ] {
        put_u64(out, value);
    }
    let batch = &stats.batch;
    for value in [
        batch.rows,
        batch.models_checked,
        batch.model_groups,
        batch.shared_candidates,
        batch.group_evals,
        batch.assumption_solves,
    ] {
        put_u64(out, value);
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Option<SweepStats> {
    let mut stats = SweepStats {
        total_pairs: r.u64()?,
        unique_pairs: r.u64()?,
        cache_hits: r.u64()?,
        cache_hits_disk: r.u64()?,
        checker_calls: r.u64()?,
        canonical_tests: usize::try_from(r.u64()?).ok()?,
        distinct_models: usize::try_from(r.u64()?).ok()?,
        tests_streamed: r.u64()?,
        peak_batch: usize::try_from(r.u64()?).ok()?,
        prefilter_groups: r.u64()?,
        prefilter_saved_calls: r.u64()?,
        ..SweepStats::default()
    };
    stats.sat.decisions = r.u64()?;
    stats.sat.propagations = r.u64()?;
    stats.sat.conflicts = r.u64()?;
    stats.sat.restarts = r.u64()?;
    stats.sat.learnt_clauses = r.u64()?;
    stats.batch.rows = r.u64()?;
    stats.batch.models_checked = r.u64()?;
    stats.batch.model_groups = r.u64()?;
    stats.batch.shared_candidates = r.u64()?;
    stats.batch.group_evals = r.u64()?;
    stats.batch.assumption_solves = r.u64()?;
    Some(stats)
}

fn encode_payload(ckpt: &CheckpointFile) -> Vec<u8> {
    let mut out = Vec::new();
    let meta = &ckpt.meta;
    put_u64(&mut out, meta.bounds.max_accesses_per_thread as u64);
    put_u64(&mut out, meta.bounds.threads as u64);
    put_u8(&mut out, meta.bounds.max_locs);
    put_bool(&mut out, meta.bounds.include_fences);
    put_bool(&mut out, meta.bounds.include_deps);
    put_bool(&mut out, meta.limit.is_some());
    put_u64(&mut out, meta.limit.unwrap_or(0));
    put_bool(&mut out, meta.shard.is_some());
    put_u32(&mut out, meta.shard.map_or(0, |s| s.index()));
    put_u32(&mut out, meta.shard.map_or(1, |s| s.count()));
    put_bool(&mut out, meta.canonicalize);
    put_u64(&mut out, meta.stream_chunk);

    let state = &ckpt.state;
    put_u64(&mut out, state.tests_streamed);
    put_u64(&mut out, state.tests_kept);
    put_u32(
        &mut out,
        u32::try_from(state.model_fps.len()).expect("model count fits u32"),
    );
    for &fp in &state.model_fps {
        put_u64(&mut out, fp);
    }
    put_u32(
        &mut out,
        u32::try_from(state.row_verdicts.len()).expect("row count fits u32"),
    );
    for row in &state.row_verdicts {
        put_u64(&mut out, row.len() as u64);
        let words = row.words();
        put_u32(&mut out, u32::try_from(words.len()).expect("word count fits u32"));
        for &w in words {
            put_u64(&mut out, w);
        }
    }
    encode_stats(&mut out, &state.stats);
    out
}

fn decode_payload(payload: &[u8]) -> Option<CheckpointFile> {
    let mut r = Reader::new(payload);
    let bounds = StreamBounds {
        max_accesses_per_thread: usize::try_from(r.u64()?).ok()?,
        threads: usize::try_from(r.u64()?).ok()?,
        max_locs: r.u8()?,
        include_fences: r.bool()?,
        include_deps: r.bool()?,
    };
    let limit = { let some = r.bool()?; let v = r.u64()?; some.then_some(v) };
    let shard = {
        let some = r.bool()?;
        let index = r.u32()?;
        let count = r.u32()?;
        if some {
            Some(Shard::new(index, count)?)
        } else {
            None
        }
    };
    let canonicalize = r.bool()?;
    let stream_chunk = r.u64()?;
    let tests_streamed = r.u64()?;
    let tests_kept = r.u64()?;
    let model_count = r.u32()? as usize;
    let mut model_fps = Vec::with_capacity(model_count);
    for _ in 0..model_count {
        model_fps.push(r.u64()?);
    }
    let row_count = r.u32()? as usize;
    if row_count != model_count {
        return None;
    }
    let mut row_verdicts = Vec::with_capacity(row_count);
    for _ in 0..row_count {
        let len = usize::try_from(r.u64()?).ok()?;
        if len as u64 != tests_kept {
            return None;
        }
        let word_count = r.u32()? as usize;
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(r.u64()?);
        }
        row_verdicts.push(VerdictVector::from_words(words, len)?);
    }
    let stats = decode_stats(&mut r)?;
    if r.remaining() != 0 {
        return None;
    }
    Some(CheckpointFile {
        meta: SweepMeta {
            bounds,
            limit,
            shard,
            canonicalize,
            stream_chunk,
        },
        state: StreamCheckpoint {
            tests_streamed,
            tests_kept,
            model_fps,
            row_verdicts,
            stats,
        },
    })
}

impl CheckpointFile {
    /// Atomically writes the checkpoint to `path` (build in a `.tmp`
    /// sibling, fsync, rename over) — a crash mid-save leaves the
    /// previous checkpoint readable.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let payload = encode_payload(self);
        let mut out = Vec::with_capacity(12 + payload.len() + 8);
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        let checksum = fnv1a(&payload);
        out.extend_from_slice(&payload);
        put_u64(&mut out, checksum);
        replace_atomically(path, &out)
    }

    /// Loads the checkpoint at `path`. A missing file is `Ok(None)` —
    /// the cold-start case for `--resume` pointing at a checkpoint that
    /// was never written. Anything present but unreadable (foreign file,
    /// any other version, failed checksum, inconsistent structure) is a hard
    /// [`io::ErrorKind::InvalidData`] error: a damaged checkpoint must
    /// not silently degrade to a cold start.
    pub fn load(path: &Path) -> io::Result<Option<CheckpointFile>> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut file) => {
                file.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        if bytes.len() < 12 + 8 || bytes[..8] != MAGIC {
            return Err(invalid(format!(
                "{} is not an mcm-store checkpoint",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
        if version != VERSION {
            return Err(invalid(format!(
                "{} has checkpoint version {version}, this build reads only version \
                 {VERSION}; re-run the sweep without --resume",
                path.display()
            )));
        }
        let payload = &bytes[12..bytes.len() - 8];
        let stored = u64::from_le_bytes(
            bytes[bytes.len() - 8..].try_into().expect("8 trailer bytes"),
        );
        if fnv1a(payload) != stored {
            return Err(invalid(format!(
                "{} failed its checksum (torn or corrupt checkpoint)",
                path.display()
            )));
        }
        decode_payload(payload)
            .map(Some)
            .ok_or_else(|| invalid(format!("{} has inconsistent checkpoint structure", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mcm-store-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.ckpt", std::process::id()))
    }

    fn sample() -> CheckpointFile {
        let mut stats = SweepStats {
            total_pairs: 1000,
            unique_pairs: 400,
            cache_hits: 37,
            cache_hits_disk: 12,
            checker_calls: 363,
            canonical_tests: 90,
            distinct_models: 5,
            tests_streamed: 130,
            peak_batch: 64,
            prefilter_groups: 20,
            prefilter_saved_calls: 11,
            ..SweepStats::default()
        };
        stats.sat.decisions = 12345;
        stats.sat.conflicts = 99;
        stats.batch.rows = 90;
        stats.batch.assumption_solves = 7;
        CheckpointFile {
            meta: SweepMeta {
                bounds: StreamBounds {
                    max_accesses_per_thread: 3,
                    threads: 2,
                    max_locs: 2,
                    include_fences: true,
                    include_deps: false,
                },
                limit: Some(130),
                shard: Shard::new(1, 3),
                canonicalize: false,
                stream_chunk: 64,
            },
            state: StreamCheckpoint {
                tests_streamed: 130,
                tests_kept: 90,
                model_fps: vec![0xaaaa, 0xbbbb, 0xcccc],
                row_verdicts: (0..3)
                    .map(|i| {
                        let mut row = VerdictVector::new(0);
                        for j in 0..90u64 {
                            row.push((i + j) % 3 == 0);
                        }
                        row
                    })
                    .collect(),
                stats,
            },
        }
    }

    #[test]
    fn checkpoint_roundtrips_bit_identically() {
        let path = temp_path("roundtrip");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let back = CheckpointFile::load(&path).unwrap().expect("file exists");
        assert_eq!(back, ckpt);
        // Saving again over the old file works (rename-over).
        ckpt.save(&path).unwrap();
        assert_eq!(CheckpointFile::load(&path).unwrap().unwrap(), ckpt);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_save_leaves_no_tmp_behind() {
        let dir = temp_path("is-a-directory");
        std::fs::create_dir_all(&dir).unwrap();
        // A file cannot be renamed over a directory.
        assert!(sample().save(&dir).is_err());
        assert!(!dir.with_extension("ckpt.tmp").exists());
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_a_cold_start_not_an_error() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert_eq!(CheckpointFile::load(&path).unwrap(), None);
    }

    #[test]
    fn damaged_checkpoints_are_rejected_loudly() {
        let path = temp_path("damaged");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Bit flip in the payload → checksum failure.
        let mut flipped = good.clone();
        flipped[40] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(
            CheckpointFile::load(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Truncation → checksum failure (whole-payload blob, no prefix).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(
            CheckpointFile::load(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Foreign file.
        std::fs::write(&path, b"not a checkpoint at all, sorry").unwrap();
        assert_eq!(
            CheckpointFile::load(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn other_versions_are_rejected_with_a_rerun_hint() {
        let path = temp_path("version");
        sample().save(&path).unwrap();
        let current = std::fs::read(&path).unwrap();
        for version in [1, VERSION + 1] {
            // The header is outside the checksum: only the version differs.
            let mut bytes = current.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = CheckpointFile::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let message = err.to_string();
            assert!(message.contains(&format!("version {version}")), "{message}");
            assert!(message.contains("re-run the sweep"), "{message}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
