//! Table 5: percentage of equivalent entities placed into the same
//! mini-batch — METIS-CPS vs VPS, split by total / training set / test set,
//! both directions, on all six datasets.
//!
//! The paper's claims: VPS is 100 % on the training set by construction but
//! collapses to ≈ 1/K on the test set; METIS-CPS trades a little training
//! retention for far better test retention — and the test set is what EA
//! is ultimately scored on.
//!
//! Flags: `--scale <f>` (overrides every dataset's default scale).

use largeea_bench::make_dataset;
use largeea_common::json::{Json, ToJson};
use largeea_common::obs::Recorder;
use largeea_core::structure_channel::{Partitioner, StructureChannel, StructureChannelConfig};
use largeea_data::Preset;
use largeea_kg::AlignmentSeeds;

struct RetentionRow {
    dataset: String,
    method: &'static str,
    direction: String,
    total: f64,
    train: f64,
    test: f64,
}

impl ToJson for RetentionRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", self.dataset.to_json()),
            ("method", self.method.to_json()),
            ("direction", self.direction.to_json()),
            ("total", self.total.to_json()),
            ("train", self.train.to_json()),
            ("test", self.test.to_json()),
        ])
    }
}

fn main() {
    println!(
        "{:<18} {:<10} {:<8} {:>7} {:>7} {:>7}",
        "Dataset", "Method", "Dir", "Total%", "Train%", "Test%"
    );
    let mut json_rows = Vec::new();
    for preset in Preset::all() {
        let (_, pair, seeds) = make_dataset(preset, None);
        let reversed = pair.reversed();
        let seeds_rev = AlignmentSeeds {
            train: seeds.train.iter().map(|&(s, t)| (t, s)).collect(),
            test: seeds.test.iter().map(|&(s, t)| (t, s)).collect(),
        };
        let k = preset.default_k();
        for (p, s, dir) in [
            (
                &pair,
                &seeds,
                format!("{}→{}", pair.source.name(), pair.target.name()),
            ),
            (
                &reversed,
                &seeds_rev,
                format!("{}→{}", reversed.source.name(), reversed.target.name()),
            ),
        ] {
            for (method, partitioner) in [
                ("METIS-CPS", Partitioner::MetisCps),
                ("VPS", Partitioner::Vps),
            ] {
                let cfg = StructureChannelConfig {
                    k,
                    partitioner,
                    ..StructureChannelConfig::default()
                };
                let batches = StructureChannel::new(cfg).make_batches(p, s, &Recorder::disabled());
                let r = batches.retention(s);
                println!(
                    "{:<18} {:<10} {:<8} {:>7.1} {:>7.1} {:>7.1}",
                    preset.name(),
                    method,
                    dir,
                    100.0 * r.total,
                    100.0 * r.train,
                    100.0 * r.test
                );
                json_rows.push(RetentionRow {
                    dataset: preset.name().to_owned(),
                    method,
                    direction: dir.clone(),
                    total: 100.0 * r.total,
                    train: 100.0 * r.train,
                    test: 100.0 * r.test,
                });
            }
        }
    }
    println!("--- json ---");
    for row in &json_rows {
        println!("{}", row.to_json_string());
    }
}
