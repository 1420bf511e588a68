//! Micro-benchmarks for mini-batch EA training.
//!
//! The cost behind Table 2/3's `Time` columns and Figure 4's "EA training"
//! series: one full training epoch (forward + backward + Adam) for each
//! model, the steady-state cost of an epoch once the tape reuses its
//! buffers, plus the negative-sampling refresh.

use largeea_common::bench::{Bench, Bencher};
use largeea_data::Preset;
use largeea_models::negative::{sample_negatives, NegStrategy};
use largeea_models::{train, BatchGraph, ModelKind, TrainConfig};
use largeea_partition::MiniBatches;

fn batch_graph() -> BatchGraph {
    let pair = Preset::Ids15kEnFr.spec(0.05).generate();
    let seeds = pair.split_seeds(0.2, 1);
    let mb = MiniBatches::from_assignments(
        &pair,
        &seeds,
        &vec![0; pair.source.num_entities()],
        &vec![0; pair.target.num_entities()],
        1,
    );
    BatchGraph::from_mini_batch(&pair, &mb.batches[0])
}

fn bench_epochs(bench: &mut Bench) {
    let bg = batch_graph();
    let mut group = bench.group("table2_training_epoch");
    for kind in [ModelKind::GcnAlign, ModelKind::Rrea] {
        group.bench_function(format!("{kind:?}_750pairs_1epoch"), |b| {
            b.iter(|| {
                let mut model = kind.build(&bg, 64, 3);
                let cfg = TrainConfig {
                    epochs: 1,
                    dim: 64,
                    ..TrainConfig::default()
                };
                train(model.as_mut(), &bg, &cfg)
            })
        });
    }
    group.finish();
}

/// A training run of `epochs` epochs on a fresh model. Negatives are
/// sampled once, at epoch 0, so every later epoch does the same work.
fn train_epochs(bg: &BatchGraph, kind: ModelKind, epochs: usize) -> impl FnMut(&mut Bencher) + '_ {
    move |b| {
        b.iter(|| {
            let mut model = kind.build(bg, 64, 3);
            let cfg = TrainConfig {
                epochs,
                dim: 64,
                neg_refresh: epochs,
                ..TrainConfig::default()
            };
            train(model.as_mut(), bg, &cfg)
        })
    }
}

fn bench_steady_epochs(bench: &mut Bench) {
    // A 1-epoch run pays for model setup, the negatives and the epoch that
    // fills the tape's free-list; every later epoch reuses its buffers.
    // The difference between an 11-epoch and a 1-epoch run, over 10, is
    // the steady-state cost of one epoch.
    const EPOCHS: usize = 11;
    let bg = batch_graph();
    let mut group = bench.group("table2_training_epoch");
    for kind in [ModelKind::GcnAlign, ModelKind::Rrea] {
        let one = group.bench_measured(
            format!("{kind:?}_750pairs_1epoch_fixed_negs"),
            train_epochs(&bg, kind, 1),
        );
        let many = group.bench_measured(
            format!("{kind:?}_750pairs_{EPOCHS}epochs_fixed_negs"),
            train_epochs(&bg, kind, EPOCHS),
        );
        if let (Some(one), Some(many)) = (one, many) {
            let per_epoch_ms = (many.median_ns - one.median_ns) / (EPOCHS - 1) as f64 / 1e6;
            println!(
                "{:<40} median {:>9.3} ms/epoch  ({EPOCHS}-epoch minus 1-epoch median, / {})",
                format!("table2_training_epoch/{kind:?}_750pairs_steady"),
                per_epoch_ms,
                EPOCHS - 1
            );
        }
    }
    group.finish();
}

fn bench_negative_sampling(bench: &mut Bench) {
    // Ablation D5: nearest-neighbour vs random negatives.
    let bg = batch_graph();
    let mut model = ModelKind::GcnAlign.build(&bg, 64, 5);
    let report = train(
        model.as_mut(),
        &bg,
        &TrainConfig {
            epochs: 1,
            dim: 64,
            ..TrainConfig::default()
        },
    );
    let mut group = bench.group("ablation_d5_negatives");
    for (label, strat) in [
        ("random", NegStrategy::Random),
        ("nearest", NegStrategy::Nearest),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| sample_negatives(&bg, &report.embeddings, 15, strat, 9))
        });
    }
    group.finish();
}

fn main() {
    let mut bench = Bench::new().sample_size(10);
    bench_epochs(&mut bench);
    bench_steady_epochs(&mut bench);
    bench_negative_sampling(&mut bench);
}
