//! Tape buffer reuse: the trainer keeps one autograd tape per mini-batch
//! and resets it every epoch, so ops write into recycled buffers.
//!
//! - **Golden bits.** Reuse changes where bytes live, not the arithmetic.
//!   Final embeddings and per-epoch losses of GCN-Align, RREA and MTransE
//!   must equal, bit for bit, the values the allocate-per-op tape produced
//!   (pinned below), at pool widths 1 and 2.
//! - **Steady state.** From the second epoch on a training epoch allocates
//!   nothing: every buffer comes off the tape's free-list. Measured with
//!   the counting allocator installed in this test binary.

use largeea_common::alloc::{span_close, span_open, CountingAlloc};
use largeea_common::obs::Recorder;
use largeea_kg::{AlignmentSeeds, EntityId, KgPair, KnowledgeGraph};
use largeea_models::{train, train_hooked, BatchGraph, ModelKind, TrainConfig};
use largeea_partition::MiniBatches;
use std::process::Command;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Two isomorphic rings with chords, fully aligned, half the pairs seeds.
fn ring_pair(n: usize) -> (KgPair, AlignmentSeeds) {
    let mut s = KnowledgeGraph::new("EN");
    let mut t = KnowledgeGraph::new("FR");
    for i in 0..n {
        s.add_entity(&format!("s{i}"));
        t.add_entity(&format!("t{i}"));
    }
    for i in 0..n {
        s.add_triple_by_name(&format!("s{i}"), "r", &format!("s{}", (i + 1) % n));
        t.add_triple_by_name(&format!("t{i}"), "q", &format!("t{}", (i + 1) % n));
        if i % 3 == 0 {
            s.add_triple_by_name(&format!("s{i}"), "c", &format!("s{}", (i + 2) % n));
            t.add_triple_by_name(&format!("t{i}"), "d", &format!("t{}", (i + 2) % n));
        }
    }
    let alignment: Vec<_> = (0..n as u32).map(|i| (EntityId(i), EntityId(i))).collect();
    let pair = KgPair::new(s, t, alignment);
    let seeds = pair.split_seeds(0.5, 7);
    (pair, seeds)
}

/// 150-entity rings: big enough that spmm, matmul and row normalisation
/// split across pool workers, small enough for a debug build.
fn batch() -> BatchGraph {
    let (pair, seeds) = ring_pair(150);
    let mb = MiniBatches::from_assignments(
        &pair,
        &seeds,
        &vec![0; pair.source.num_entities()],
        &vec![0; pair.target.num_entities()],
        1,
    );
    BatchGraph::from_mini_batch(&pair, &mb.batches[0])
}

/// Seven epochs with the default refresh interval of five: negatives are
/// resampled at epochs 0 and 5, so the reset-for-refresh path runs twice.
fn config() -> TrainConfig {
    TrainConfig {
        epochs: 7,
        dim: 32,
        ..TrainConfig::default()
    }
}

fn fnv1a(bits: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Golden {
    kind: ModelKind,
    seed: u64,
    shape: (usize, usize),
    /// FNV-1a over the `to_bits` of the final embeddings, row-major.
    embeddings: u64,
    /// `to_bits` of each epoch's loss.
    losses: [u32; 7],
}

const GOLDEN: [Golden; 3] = [
    Golden {
        kind: ModelKind::GcnAlign,
        seed: 11,
        shape: (300, 32),
        embeddings: 0xf4d2_8718_0723_f11b,
        losses: [
            0x410ada62, 0x40c3bab0, 0x4082fe26, 0x402a66e2, 0x3fdc7c98, 0x40663195, 0x4041d841,
        ],
    },
    Golden {
        kind: ModelKind::Rrea,
        seed: 12,
        shape: (300, 96),
        embeddings: 0x5089_dcc3_fa71_d171,
        losses: [
            0x410f72a6, 0x40e6baba, 0x40af46f0, 0x40723162, 0x4013e93c, 0x3fe3f44c, 0x3f7e02e6,
        ],
    },
    Golden {
        kind: ModelKind::MTransE,
        seed: 13,
        shape: (300, 32),
        embeddings: 0xd740_628d_72e8_da73,
        losses: [
            0x4121286e, 0x411071ca, 0x40fff9d1, 0x40e0acf3, 0x40c05f67, 0x40ab78b2, 0x40920a72,
        ],
    },
];

#[test]
fn training_reproduces_pinned_bits() {
    let bg = batch();
    for g in &GOLDEN {
        let mut model = g.kind.build(&bg, 32, g.seed);
        let report = train(model.as_mut(), &bg, &config());
        let losses: Vec<u32> = report.losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(losses, g.losses, "{:?} losses", g.kind);
        assert_eq!(report.embeddings.shape(), g.shape, "{:?} shape", g.kind);
        let digest = fnv1a(report.embeddings.as_slice().iter().map(|x| x.to_bits()));
        assert_eq!(digest, g.embeddings, "{:?} embeddings", g.kind);
    }
}

/// The global pool reads `LARGEEA_THREADS` once per process, so each width
/// reruns the golden test in a child process of this test binary.
#[test]
fn pinned_bits_hold_at_pool_widths_1_and_2() {
    let exe = std::env::current_exe().expect("test binary path");
    for width in ["1", "2"] {
        let out = Command::new(&exe)
            .args(["--exact", "training_reproduces_pinned_bits"])
            .env("LARGEEA_THREADS", width)
            .output()
            .expect("rerun the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "width {width}:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// Bytes allocated on this thread (pool workers' allocations credited to
/// it) during each epoch of training `kind`; entry 0 also covers the setup
/// before the first epoch.
fn bytes_per_epoch(kind: ModelKind) -> Vec<u64> {
    let bg = batch();
    let mut model = kind.build(&bg, 32, 5);
    let mut per_epoch = Vec::new();
    let mut window = Some(span_open());
    let mut hook = |_epoch: usize, _loss: f32| {
        let h = window.take().expect("a window is open between epochs");
        per_epoch.push(span_close(h).expect("same thread").bytes);
        window = Some(span_open());
    };
    train_hooked(
        model.as_mut(),
        &bg,
        &config(),
        &Recorder::disabled(),
        Some(&mut hook),
    );
    per_epoch
}

#[test]
fn steady_state_epochs_allocate_next_to_nothing() {
    let refresh = TrainConfig::default().neg_refresh;
    for kind in [ModelKind::GcnAlign, ModelKind::Rrea] {
        let per_epoch = bytes_per_epoch(kind);
        assert_eq!(per_epoch.len(), config().epochs);
        // Epoch 0 allocates the whole working set. Later epochs may only
        // allocate the pool's per-call bookkeeping, not tape buffers; a
        // refresh epoch also samples new negatives, outside the tape.
        let budget = per_epoch[0] / 100;
        for (epoch, &bytes) in per_epoch.iter().enumerate().skip(1) {
            if epoch % refresh != 0 {
                assert!(
                    bytes <= budget,
                    "{kind:?} epoch {epoch} allocated {bytes} bytes (epoch 0: {})",
                    per_epoch[0]
                );
            }
        }
    }
}
