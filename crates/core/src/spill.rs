//! Out-of-core working storage — the spill side of `--mem-budget`
//! (DESIGN.md §S0.8, docs/ARTIFACT_FORMAT.md).
//!
//! A [`SpillStore`] is a directory of CRC-framed artifacts that pipeline
//! stages write intermediate blocks *through* instead of accumulating them
//! in RAM: per-segment name-channel embeddings, per-mini-batch trained
//! embeddings, and per-batch similarity blocks. Fusion and top-k later
//! stream the blocks back in, so the tracked working set stays under the
//! budget enforced by [`crate::mem::MemTracker`].
//!
//! Spill artifacts reuse the exact payload encodings of checkpoint
//! artifacts (`LEAM1` dense matrices, `LEAS1` sparse similarities) inside
//! the same `LEAF1` frame, but differ in **durability class**: they are
//! written with [`fsio::write_framed`] (plain write — no temp file, no
//! fsync, no rename) because they never outlive the run. A crash mid-spill
//! loses nothing: resume recomputes from the last durable *checkpoint*
//! stage, and the frame CRC guarantees a torn spill file can never be
//! silently loaded. Files are named `<key>.spill` and deleted as soon as
//! their stage has streamed them back (or at [`Drop`], best-effort).
//!
//! Every write/read lands in the trace as `mem.spill.*` counters plus a
//! `mem.spill.peak_disk_bytes` gauge, so a bounded run's disk traffic is
//! as observable as its RAM peaks.
//!
//! Stages never talk to a [`SpillStore`] directly: they write through a
//! [`WorkStore`], which is either the disk store or a [`RamStore`] that
//! keeps blocks where they are. An in-RAM run is the out-of-core run with
//! the RAM store plugged in — one stage body, two places for its blocks.

use largeea_common::fsio;
use largeea_common::obs::{Level, Recorder};
use largeea_common::retry::RetryPolicy;
use largeea_sim::SparseSimMatrix;
use largeea_tensor::Matrix;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};

/// Every failpoint the spill subsystem can die at. Spill writes share one
/// failpoint (they are all the same durability class), exercised by the
/// crash-mid-spill test in `tests/spill_equivalence.rs`.
pub const FAILPOINTS: &[&str] = &["spill.write"];

/// A directory of transient, CRC-framed spill artifacts (working storage
/// for memory-bounded runs — see the module docs for the durability
/// contract).
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    /// Live artifacts: key → framed bytes on disk.
    live: BTreeMap<String, u64>,
    disk_bytes: u64,
    peak_disk_bytes: u64,
    /// Backoff schedule for transient write/read faults (DESIGN.md §S0.12).
    /// Every put/get runs under this policy; non-trivial outcomes fold
    /// `retry.*` counters into the trace. The default policy retries a
    /// handful of times with seeded-jitter exponential backoff; set
    /// [`largeea_common::retry::RetryPolicy::none`] to fail fast.
    pub retry: RetryPolicy,
}

impl SpillStore {
    /// Creates (or reuses) `dir` as a spill directory. Pre-existing
    /// `.spill` files from a crashed run are simply overwritten — spill
    /// artifacts carry no cross-run state.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            live: BTreeMap::new(),
            disk_bytes: 0,
            peak_disk_bytes: 0,
            retry: RetryPolicy::default(),
        })
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of artifacts currently live.
    pub fn artifact_count(&self) -> usize {
        self.live.len()
    }

    /// Framed bytes currently on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_bytes
    }

    /// Peak framed bytes ever on disk at once.
    pub fn peak_disk_bytes(&self) -> u64 {
        self.peak_disk_bytes
    }

    fn path_of(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.spill"))
    }

    fn put(&mut self, key: &str, payload: &[u8], rec: &Recorder) -> io::Result<()> {
        let mut span = rec.span_at(Level::Detail, "spill_write");
        span.field("key", key);
        span.field("bytes", payload.len());
        let (out, stats) =
            fsio::write_framed_retry(&self.path_of(key), payload, "spill.write", &self.retry);
        stats.record_into(rec);
        let framed = out?;
        rec.add("mem.spill.writes", 1);
        rec.add("mem.spill.write_bytes", framed);
        let old = self.live.insert(key.to_owned(), framed).unwrap_or(0);
        self.disk_bytes = self.disk_bytes - old + framed;
        self.peak_disk_bytes = self.peak_disk_bytes.max(self.disk_bytes);
        rec.gauge_max("mem.spill.peak_disk_bytes", self.peak_disk_bytes as f64);
        Ok(())
    }

    fn get(&self, key: &str, rec: &Recorder) -> io::Result<Vec<u8>> {
        let mut span = rec.span_at(Level::Detail, "spill_read");
        span.field("key", key);
        let (out, stats) = fsio::read_framed_retry(&self.path_of(key), "spill.read", &self.retry);
        stats.record_into(rec);
        let payload = out?;
        rec.add("mem.spill.reads", 1);
        rec.add("mem.spill.read_bytes", payload.len() as u64);
        Ok(payload)
    }

    /// Spills a dense matrix under `key` (`LEAM1` payload in a `LEAF1`
    /// frame), replacing any previous artifact with that key.
    pub fn put_matrix(&mut self, key: &str, m: &Matrix, rec: &Recorder) -> io::Result<()> {
        let mut payload = Vec::new();
        largeea_tensor::io::write_matrix(m, &mut payload)?;
        self.put(key, &payload, rec)
    }

    /// Streams a spilled dense matrix back in.
    pub fn get_matrix(&self, key: &str, rec: &Recorder) -> io::Result<Matrix> {
        let payload = self.get(key, rec)?;
        largeea_tensor::io::read_matrix(&payload[..])
    }

    /// Spills a sparse similarity matrix under `key` (`LEAS1` payload in a
    /// `LEAF1` frame), replacing any previous artifact with that key.
    pub fn put_sim(&mut self, key: &str, m: &SparseSimMatrix, rec: &Recorder) -> io::Result<()> {
        let mut payload = Vec::new();
        largeea_sim::io::write_sparse_sim(m, &mut payload)?;
        self.put(key, &payload, rec)
    }

    /// Streams a spilled sparse similarity matrix back in.
    pub fn get_sim(&self, key: &str, rec: &Recorder) -> io::Result<SparseSimMatrix> {
        let payload = self.get(key, rec)?;
        largeea_sim::io::read_sparse_sim(&payload[..])
    }

    /// Deletes `key`'s artifact once its stage has streamed it back.
    /// Best-effort: a leftover file only wastes disk until [`Drop`].
    pub fn remove(&mut self, key: &str) {
        if let Some(framed) = self.live.remove(key) {
            self.disk_bytes -= framed;
            std::fs::remove_file(self.path_of(key)).ok();
        }
    }
}

impl Drop for SpillStore {
    /// Best-effort cleanup: spill artifacts are transient by contract, so
    /// remove every live file and then the directory (which only succeeds
    /// if nothing else put files there).
    fn drop(&mut self) {
        for key in std::mem::take(&mut self.live).into_keys() {
            std::fs::remove_file(self.dir.join(format!("{key}.spill"))).ok();
        }
        std::fs::remove_dir(&self.dir).ok();
    }
}

/// Where a stage keeps its intermediate blocks (DESIGN.md §S0.8): in RAM,
/// or written through a [`SpillStore`]. Every put returns the bytes the
/// store keeps resident and every remove the bytes it frees, so a stage
/// charges its [`crate::mem::MemTracker`] exactly that and never asks which
/// store it has.
#[derive(Debug)]
pub(crate) enum WorkStore<'a> {
    /// The RAM store: keeps each block as it is and lends it back without
    /// copying; it writes no file and records no `mem.spill.*` counter.
    Ram(BTreeMap<String, Matrix>),
    /// The disk store.
    Disk {
        spill: &'a mut SpillStore,
        /// Keys of deposited similarity blocks not merged yet, in deposit
        /// order (see [`WorkStore::deposit`]).
        deferred: VecDeque<String>,
    },
}

impl<'a> WorkStore<'a> {
    /// The disk store when a spill store is given, else a fresh RAM store.
    pub(crate) fn new(spill: Option<&'a mut SpillStore>) -> Self {
        match spill {
            Some(spill) => WorkStore::Disk {
                spill,
                deferred: VecDeque::new(),
            },
            None => WorkStore::Ram(BTreeMap::new()),
        }
    }

    /// Stores `m` under `key`; returns the bytes kept resident (`0` once
    /// spilled).
    pub(crate) fn put_matrix(&mut self, key: &str, m: Matrix, rec: &Recorder) -> io::Result<usize> {
        match self {
            WorkStore::Ram(ram) => {
                let bytes = m.nbytes();
                ram.insert(key.to_owned(), m);
                Ok(bytes)
            }
            WorkStore::Disk { spill, .. } => spill.put_matrix(key, &m, rec).map(|()| 0),
        }
    }

    /// `key`'s matrix: lent by the RAM store, streamed back from disk.
    pub(crate) fn get_matrix(&self, key: &str, rec: &Recorder) -> io::Result<Cow<'_, Matrix>> {
        match self {
            WorkStore::Ram(ram) => ram.get(key).map(Cow::Borrowed).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("no block {key:?}"))
            }),
            WorkStore::Disk { spill, .. } => spill.get_matrix(key, rec).map(Cow::Owned),
        }
    }

    /// The bytes a [`WorkStore::get_matrix`] of a `bytes`-sized matrix adds
    /// to the working set: a fresh copy from disk, nothing for a lent one.
    pub(crate) fn loaded_bytes(&self, bytes: usize) -> usize {
        match self {
            WorkStore::Ram(_) => 0,
            WorkStore::Disk { .. } => bytes,
        }
    }

    /// Writes `m` through as a transient artifact, so its bytes are
    /// crash-injectable like every other out-of-core write. The caller's
    /// matrix stays the resident copy, so the RAM store keeps nothing.
    pub(crate) fn write_through(
        &mut self,
        key: &str,
        m: &Matrix,
        rec: &Recorder,
    ) -> io::Result<()> {
        match self {
            WorkStore::Ram(_) => Ok(()),
            WorkStore::Disk { spill, .. } => spill.put_matrix(key, m, rec),
        }
    }

    /// Drops `key`'s artifact; returns the resident bytes freed.
    pub(crate) fn remove(&mut self, key: &str) -> usize {
        match self {
            WorkStore::Ram(ram) => ram.remove(key).map_or(0, |m| m.nbytes()),
            WorkStore::Disk { spill, .. } => {
                spill.remove(key);
                0
            }
        }
    }

    /// Deposits similarity block `block` toward `m_s`; returns the bytes
    /// `m_s` grew by. The RAM store merges it at once. The disk store spills
    /// it under `key` and defers the merge to [`WorkStore::merge_deferred`],
    /// which merges in deposit order — the same insert sequence.
    pub(crate) fn deposit(
        &mut self,
        key: &str,
        block: SparseSimMatrix,
        m_s: &mut SparseSimMatrix,
        rec: &Recorder,
    ) -> io::Result<usize> {
        match self {
            WorkStore::Ram(_) => {
                let before = m_s.nbytes();
                m_s.absorb(block);
                Ok(m_s.nbytes() - before)
            }
            WorkStore::Disk { spill, deferred } => {
                spill.put_sim(key, &block, rec)?;
                deferred.push_back(key.to_owned());
                Ok(0)
            }
        }
    }

    /// Merges the oldest deferred block into `m_s` and drops it; returns
    /// its key with the bytes `m_s` grew by, or `None` once none is left
    /// (always, for the RAM store).
    pub(crate) fn merge_deferred(
        &mut self,
        m_s: &mut SparseSimMatrix,
        rec: &Recorder,
    ) -> Option<(String, io::Result<usize>)> {
        let WorkStore::Disk { spill, deferred } = self else {
            return None;
        };
        let key = deferred.pop_front()?;
        let merged = spill.get_sim(&key, rec).map(|block| {
            let before = m_s.nbytes();
            m_s.absorb(block);
            spill.remove(&key);
            m_s.nbytes() - before
        });
        Some((key, merged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::obs::{ObsConfig, Recorder};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("largeea_spill_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn rec() -> Recorder {
        Recorder::new(ObsConfig::default())
    }

    #[test]
    fn matrix_and_sim_roundtrip_with_counters() {
        let dir = tmpdir("roundtrip");
        let rec = rec();
        let mut s = SpillStore::create(&dir).unwrap();
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5);
        s.put_matrix("sens.q0", &m, &rec).unwrap();
        let mut sim = SparseSimMatrix::new(3, 3);
        sim.insert(0, 1, 0.7);
        sim.insert(2, 0, 0.2);
        s.put_sim("r0.b0.sim", &sim, &rec).unwrap();
        assert_eq!(s.artifact_count(), 2);
        assert_eq!(s.get_matrix("sens.q0", &rec).unwrap(), m);
        assert_eq!(s.get_sim("r0.b0.sim", &rec).unwrap(), sim);
        let t = rec.trace();
        assert_eq!(t.counter("mem.spill.writes"), 2);
        assert_eq!(t.counter("mem.spill.reads"), 2);
        assert!(t.counter("mem.spill.write_bytes") > 0);
        assert!(t.counter("mem.spill.read_bytes") > 0);
        assert_eq!(
            t.gauge("mem.spill.peak_disk_bytes"),
            Some(s.peak_disk_bytes() as f64)
        );
        drop(s);
        assert!(!dir.exists(), "Drop removes artifacts and the directory");
    }

    #[test]
    fn remove_frees_disk_accounting_and_overwrite_replaces() {
        let dir = tmpdir("remove");
        let rec = rec();
        let mut s = SpillStore::create(&dir).unwrap();
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        s.put_matrix("a", &m, &rec).unwrap();
        let after_one = s.disk_bytes();
        assert!(after_one > 0);
        s.put_matrix("a", &m, &rec).unwrap(); // overwrite: same size, not doubled
        assert_eq!(s.disk_bytes(), after_one);
        s.put_matrix("b", &m, &rec).unwrap();
        assert_eq!(s.disk_bytes(), 2 * after_one);
        assert_eq!(s.peak_disk_bytes(), 2 * after_one);
        s.remove("a");
        assert_eq!(s.disk_bytes(), after_one);
        assert_eq!(s.artifact_count(), 1);
        assert!(s.get_matrix("a", &rec).is_err(), "removed artifact is gone");
        // peak is sticky
        assert_eq!(s.peak_disk_bytes(), 2 * after_one);
        drop(s);
        assert!(!dir.exists());
    }

    #[test]
    fn torn_spill_file_is_detected_not_loaded() {
        let dir = tmpdir("torn");
        let rec = rec();
        let mut s = SpillStore::create(&dir).unwrap();
        s.put_matrix("x", &Matrix::from_fn(3, 3, |r, c| (r * c) as f32), &rec)
            .unwrap();
        let p = dir.join("x.spill");
        let raw = std::fs::read(&p).unwrap();
        std::fs::write(&p, &raw[..raw.len() / 2]).unwrap();
        assert!(s.get_matrix("x", &rec).is_err());
    }

    #[test]
    fn create_reuses_directory_with_leftovers() {
        let dir = tmpdir("reuse");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stale.spill"), b"garbage from a crashed run").unwrap();
        let rec = rec();
        let mut s = SpillStore::create(&dir).unwrap();
        assert_eq!(s.artifact_count(), 0, "stale files are not adopted");
        // overwriting a stale key works
        let m = Matrix::from_fn(1, 1, |_, _| 1.0);
        s.put_matrix("stale", &m, &rec).unwrap();
        assert_eq!(s.get_matrix("stale", &rec).unwrap(), m);
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ram_store_lends_what_it_keeps_and_reports_resident_bytes() {
        let rec = rec();
        let mut s = WorkStore::new(None);
        let m = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let (data, bytes) = (m.as_slice().as_ptr(), m.nbytes());
        assert_eq!(s.put_matrix("sens.q0", m, &rec).unwrap(), bytes);
        let lent = s.get_matrix("sens.q0", &rec).unwrap();
        assert!(matches!(lent, Cow::Borrowed(_)));
        assert_eq!(lent.as_slice().as_ptr(), data, "lent, not copied");
        assert_eq!(s.loaded_bytes(bytes), 0);
        assert_eq!(s.remove("sens.q0"), bytes);
        assert_eq!(s.remove("sens.q0"), 0);
        assert!(s.get_matrix("sens.q0", &rec).is_err());
        assert!(rec.trace().counters.is_empty(), "no mem.spill.* traffic");
    }

    #[test]
    fn disk_store_keeps_nothing_resident_and_merges_deposits_after_the_loop() {
        let block = |r: usize| {
            let mut b = SparseSimMatrix::new(3, 3);
            b.insert(r, 1, 0.5);
            b.insert(1, 1, 0.25);
            b
        };
        let rec = rec();
        let mut in_ram = SparseSimMatrix::new(3, 3);
        let mut ram = WorkStore::new(None);
        let grown = ram.deposit("b0", block(0), &mut in_ram, &rec).unwrap();
        assert_eq!(grown, 2 * std::mem::size_of::<(u32, f32)>());
        ram.deposit("b1", block(2), &mut in_ram, &rec).unwrap();
        let rest = ram.merge_deferred(&mut in_ram, &rec);
        assert!(rest.is_none(), "the RAM store merges at once");

        let dir = tmpdir("work_disk");
        let mut spill = SpillStore::create(&dir).unwrap();
        let mut disk = WorkStore::new(Some(&mut spill));
        let m = Matrix::from_fn(4, 3, |r, c| (r + c) as f32);
        assert_eq!(disk.put_matrix("sens.b0", m.clone(), &rec).unwrap(), 0);
        let got = disk.get_matrix("sens.b0", &rec).unwrap();
        assert!(
            matches!(got, Cow::Owned(ref g) if *g == m),
            "a copy from disk"
        );
        assert_eq!(disk.loaded_bytes(m.nbytes()), m.nbytes());
        assert_eq!(disk.remove("sens.b0"), 0);
        let mut on_disk = SparseSimMatrix::new(3, 3);
        for (key, b) in [("b0", block(0)), ("b1", block(2))] {
            assert_eq!(disk.deposit(key, b, &mut on_disk, &rec).unwrap(), 0);
        }
        assert_eq!(on_disk.nnz(), 0, "nothing merged before the loop ends");
        while let Some((_, merged)) = disk.merge_deferred(&mut on_disk, &rec) {
            merged.unwrap();
        }
        assert_eq!(on_disk, in_ram);
        assert_eq!(on_disk.get(1, 1), Some(0.5), "overlapping rows accumulate");
        drop(disk);
        assert_eq!(spill.artifact_count(), 0, "merged blocks are removed");
    }
}
