//! Out-of-core equivalence suite (DESIGN.md §S0.8): a memory-bounded run
//! that spills intermediate blocks to disk must be **bit-identical** to the
//! in-RAM reference — same fused matrix bytes, same metrics — while its
//! tracked peak stays under the budget.
//!
//! The oracle is the same determinism chain the crash suite leans on:
//! per-row-deterministic encoders (segment slices == row slices), the
//! streamed top-k visiting block pairs in exactly the in-RAM order, and
//! in-place fusion sharing the allocating path's merge kernel.
//!
//! Failpoint state is process-global, so the crash-mid-spill scenario runs
//! inside one `#[test]` (the other tests never configure failpoints) and
//! holds [`FAILPOINTS`] exclusively while it arms one; every other test
//! holds it shared, so an armed failpoint can never fire inside another
//! test's spill writes on a parallel harness thread.

use largeea_common::failpoint;
use largeea_common::obs::{ObsConfig, Recorder};
use largeea_core::checkpoint::Checkpoint;
use largeea_core::pipeline::{ExecOptions, LargeEa, LargeEaConfig, RunError};
use largeea_core::spill;
use largeea_core::structure_channel::StructureChannelConfig;
use largeea_data::Preset;
use largeea_models::{ModelKind, TrainConfig};
use largeea_sim::SparseSimMatrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{PoisonError, RwLock};

/// Keeps the failpoint-arming test apart from the spilling ones (see the
/// module docs). It guards no data, so a lock poisoned by a failed test is
/// taken over as is rather than failing the others.
static FAILPOINTS: RwLock<()> = RwLock::new(());

fn cfg() -> LargeEaConfig {
    LargeEaConfig {
        structure: StructureChannelConfig {
            k: 2,
            model: ModelKind::GcnAlign,
            train: TrainConfig {
                epochs: 6,
                dim: 16,
                ..Default::default()
            },
            top_k: 5,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_ooc_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sim_bytes(m: &SparseSimMatrix) -> Vec<u8> {
    let mut buf = Vec::new();
    largeea_sim::io::write_sparse_sim(m, &mut buf).expect("in-memory serialize");
    buf
}

/// Bounded runs spill, stay under budget, and reproduce the in-RAM fused
/// matrix byte for byte — across several seed splits.
#[test]
fn bounded_runs_are_bit_identical_to_unbounded() {
    let _shared = FAILPOINTS.read().unwrap_or_else(PoisonError::into_inner);
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    for seed_split in [5u64, 23, 71] {
        let seeds = pair.split_seeds(0.2, seed_split);
        let base = LargeEa::new(cfg()).run(&pair, &seeds);
        assert!(base.tracked_peak_bytes > 0);
        // in RAM the blocks stay in the RAM working store: no spill
        // metric, and not even the default spill dir is created
        let t = &base.trace;
        let counters = t.counters.iter().map(|(k, _)| k);
        let mut names = counters.chain(t.gauges.iter().map(|(k, _)| k));
        assert!(
            !names.any(|k| k.starts_with("mem.spill")),
            "[split {seed_split}] an in-RAM run recorded spill traffic"
        );
        let default_dir = ExecOptions::from_flags(Some(1), None).spill_dir.unwrap();
        assert!(
            !default_dir.exists(),
            "[split {seed_split}] in-RAM run made a spill dir"
        );

        // First pass: spill with no budget, to measure the out-of-core peak.
        let rec = Recorder::new(ObsConfig::default());
        let exec = ExecOptions {
            mem_budget: None,
            spill_dir: Some(tmp(&format!("measure_{seed_split}"))),
            ..ExecOptions::default()
        };
        let spilled = LargeEa::new(cfg())
            .run_exec(&pair, &seeds, 1, &rec, None, &exec)
            .expect("unbudgeted spill run");
        assert_eq!(
            sim_bytes(&spilled.sim),
            sim_bytes(&base.sim),
            "[split {seed_split}] spilled fused matrix differs byte-wise"
        );
        assert_eq!(spilled.eval, base.eval, "[split {seed_split}]");
        let t = rec.trace();
        assert!(
            t.counter("mem.spill.writes") > 0,
            "[split {seed_split}] the spill path never wrote"
        );
        assert!(
            t.counter("mem.spill.reads") > 0,
            "[split {seed_split}] the spill path never read back"
        );
        assert!(
            !exec.spill_dir.as_ref().unwrap().exists(),
            "[split {seed_split}] spill dir must be cleaned up"
        );

        // Second pass: enforce exactly the measured peak as the budget —
        // determinism means the same run must fit, and the tracked peak of
        // a successful bounded run can never exceed its budget.
        // At this shape the tracked peak of both regimes is the STNS
        // signature table, which no store holds, so spilling can only tie
        // it; it must never need more, and the structure channel, whose
        // blocks it does spill, must need strictly less.
        let budget = spilled.tracked_peak_bytes;
        assert!(
            budget <= base.tracked_peak_bytes,
            "[split {seed_split}] spilling should never need more than in-RAM \
             ({budget} vs {})",
            base.tracked_peak_bytes
        );
        assert!(
            spilled.structure_peak_bytes < base.structure_peak_bytes,
            "[split {seed_split}] spilling should shrink the structure channel \
             ({} vs {})",
            spilled.structure_peak_bytes,
            base.structure_peak_bytes
        );
        let rec = Recorder::new(ObsConfig::default());
        let exec = ExecOptions {
            mem_budget: Some(budget),
            spill_dir: Some(tmp(&format!("bounded_{seed_split}"))),
            ..ExecOptions::default()
        };
        let bounded = LargeEa::new(cfg())
            .run_exec(&pair, &seeds, 1, &rec, None, &exec)
            .expect("bounded run within its own measured peak");
        assert!(bounded.tracked_peak_bytes <= budget);
        assert_eq!(sim_bytes(&bounded.sim), sim_bytes(&base.sim));
        assert_eq!(bounded.eval, base.eval);
        assert_eq!(
            rec.trace().gauge("mem.tracked.peak_bytes"),
            Some(bounded.tracked_peak_bytes as f64),
            "report and trace must agree on the tracked peak"
        );
    }
}

/// An impossible budget fails fast with the typed error, through the spill
/// path, and still cleans up its working directory.
#[test]
fn impossible_budget_is_a_typed_error_and_cleans_up() {
    let _shared = FAILPOINTS.read().unwrap_or_else(PoisonError::into_inner);
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let seeds = pair.split_seeds(0.2, 5);
    let dir = tmp("impossible");
    let exec = ExecOptions {
        mem_budget: Some(16 << 10), // 16K: below even one embedding segment
        spill_dir: Some(dir.clone()),
        ..ExecOptions::default()
    };
    let rec = Recorder::new(ObsConfig::default());
    let err = LargeEa::new(cfg())
        .run_exec(&pair, &seeds, 1, &rec, None, &exec)
        .unwrap_err();
    match err {
        RunError::Budget(b) => {
            assert_eq!(b.budget, 16 << 10);
            assert!(b.tracked > b.budget);
        }
        other => panic!("expected a budget error, got {other}"),
    }
    assert!(!dir.exists(), "spill dir must be cleaned up on failure too");
}

/// Crash mid-spill (injected death on the 3rd spill write), then resume
/// from the durable checkpoint: bit-identical to an uninterrupted run.
/// Spill artifacts are transient working storage — losing them costs
/// recomputation from the last checkpoint stage, never correctness.
#[test]
fn crash_mid_spill_resumes_bit_identically() {
    let _exclusive = FAILPOINTS.write().unwrap_or_else(PoisonError::into_inner);
    // scenario spec must only use registered spill failpoints
    for fp in spill::FAILPOINTS {
        assert_eq!(*fp, "spill.write", "update this test for new failpoints");
    }
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let seeds = pair.split_seeds(0.2, 5);
    let base = LargeEa::new(cfg()).run(&pair, &seeds);

    let ckpt_dir = tmp("crash_ckpt");
    let run = |resume: bool, spill_name: &str| {
        let rec = Recorder::new(ObsConfig::default());
        let c = cfg();
        let mut ckpt = Checkpoint::open(&ckpt_dir, c.run_meta(&seeds, 1), resume, &rec)?;
        let exec = ExecOptions {
            mem_budget: None,
            spill_dir: Some(tmp(spill_name)),
            ..ExecOptions::default()
        };
        LargeEa::new(c).run_exec(&pair, &seeds, 1, &rec, Some(&mut ckpt), &exec)
    };

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    failpoint::configure("spill.write=panic@3").expect("valid spec");
    let outcome = catch_unwind(AssertUnwindSafe(|| run(false, "crash_spill_a")));
    failpoint::clear();
    std::panic::set_hook(prev_hook);
    assert!(
        outcome.is_err(),
        "spill.write=panic@3 never fired — dead write site?"
    );

    let resumed = run(true, "crash_spill_b").expect("resume after crash mid-spill");
    assert_eq!(
        sim_bytes(&resumed.sim),
        sim_bytes(&base.sim),
        "resumed fused matrix differs"
    );
    assert_eq!(resumed.eval, base.eval, "resumed metrics differ");
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// Acceptance workload (ISSUE 6): the DBP1M-class CI preset completes
/// under a budget well below the in-RAM peak, bit-identically.
#[test]
fn dbp1m_ci_bounded_run_fits_well_under_the_in_ram_peak() {
    let _shared = FAILPOINTS.read().unwrap_or_else(PoisonError::into_inner);
    let pair = Preset::Dbp1mCi.spec(1.0).generate();
    let seeds = pair.split_seeds(0.2, 5);
    let mut c = cfg();
    c.structure.k = 4;
    c.structure.train.epochs = 4;
    c.name.segments = 8;
    c.name.minhash_perms = 32;

    let base = LargeEa::new(c).run(&pair, &seeds);
    let ram_peak = base.tracked_peak_bytes;
    assert!(ram_peak > 0);

    let budget = ram_peak * 3 / 4;
    let rec = Recorder::new(ObsConfig::default());
    let exec = ExecOptions {
        mem_budget: Some(budget),
        spill_dir: Some(tmp("dbp1m_ci")),
        ..ExecOptions::default()
    };
    let bounded = LargeEa::new(c)
        .run_exec(&pair, &seeds, 1, &rec, None, &exec)
        .expect("bounded DBP1M-CI run at 3/4 of the in-RAM peak");
    assert!(
        bounded.tracked_peak_bytes <= budget,
        "peak {} exceeds budget {budget}",
        bounded.tracked_peak_bytes
    );
    assert_eq!(
        sim_bytes(&bounded.sim),
        sim_bytes(&base.sim),
        "bounded DBP1M-CI fused matrix differs byte-wise"
    );
    assert_eq!(bounded.eval, base.eval);
    let t = rec.trace();
    assert!(t.counter("mem.spill.writes") > 0);
    assert!(t.gauge("mem.spill.peak_disk_bytes").unwrap_or(0.0) > 0.0);
}
