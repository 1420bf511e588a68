//! The benchmark's three workloads and how a workload seed becomes inputs.
//!
//! A workload seed `n` shifts both the generator seed of the preset
//! (`DatasetSpec.config.seed`) and the seed of the train/test split by `n`,
//! so seed 0 keeps the preset's own generator seed and the split seed of
//! `largeea align`.

use largeea::core::pipeline::{ExecOptions, LargeEaConfig};
use largeea::core::structure_channel::StructureChannelConfig;
use largeea::data::Preset;
use largeea::kg::{AlignmentSeeds, KgPair};
use largeea::models::{ModelKind, TrainConfig};
use std::path::{Path, PathBuf};

/// The split seed `largeea align` uses (`--seed-ratio` split).
const SPLIT_SEED: u64 = 0x5EED;
/// Share of the ground-truth links given to training (`--seed-ratio`).
const SEED_RATIO: f64 = 0.2;

/// One fixed workload: an input shape plus an `align` configuration.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    preset: Preset,
    scale: f64,
    model: ModelKind,
    k: usize,
    /// Runs through the write path: `--mem-budget`, a spill dir and a
    /// checkpoint dir.
    out_of_core: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dbp1m-gcn",
        preset: Preset::Dbp1mEnFr,
        scale: 0.02,
        model: ModelKind::GcnAlign,
        k: 20,
        out_of_core: false,
    },
    Workload {
        name: "ids100k-rrea",
        preset: Preset::Ids100kEnFr,
        scale: 0.1,
        model: ModelKind::Rrea,
        k: 10,
        out_of_core: false,
    },
    Workload {
        name: "dbp1m-ooc",
        preset: Preset::Dbp1mEnFr,
        scale: 0.01,
        model: ModelKind::GcnAlign,
        k: 20,
        out_of_core: true,
    },
];

/// Where an out-of-core run keeps its files, below the run's work dir.
pub struct Layout {
    pub spill_dir: PathBuf,
    pub ckpt_dir: PathBuf,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The `align` configuration: `--model <m> --k <k> --epochs 10 --dim 64`.
    pub fn config(&self) -> LargeEaConfig {
        LargeEaConfig {
            structure: StructureChannelConfig {
                k: self.k,
                model: self.model,
                train: TrainConfig {
                    epochs: 10,
                    dim: 64,
                    ..TrainConfig::default()
                },
                ..StructureChannelConfig::default()
            },
            ..LargeEaConfig::default()
        }
    }

    /// Generates the KG pair and the seed split for workload seed `seed`.
    pub fn generate(&self, seed: u64) -> (KgPair, AlignmentSeeds) {
        let mut spec = self.preset.spec(self.scale);
        spec.config.seed = spec.config.seed.wrapping_add(seed);
        let pair = spec.generate();
        let seeds = pair.split_seeds(SEED_RATIO, SPLIT_SEED.wrapping_add(seed));
        (pair, seeds)
    }

    /// Creates the on-disk layout of an out-of-core run (fresh, empty
    /// spill and checkpoint dirs); `None` for in-RAM workloads.
    pub fn layout(&self, work_dir: &Path) -> Result<Option<Layout>, String> {
        if !self.out_of_core {
            return Ok(None);
        }
        let layout = Layout {
            spill_dir: work_dir.join("spill"),
            ckpt_dir: work_dir.join("ckpt"),
        };
        for dir in [&layout.spill_dir, &layout.ckpt_dir] {
            if dir.exists() {
                std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        Ok(Some(layout))
    }

    /// The execution regime: in RAM, or bounded by `budget` with spilling.
    pub fn exec(&self, layout: Option<&Layout>, budget: Option<usize>) -> ExecOptions {
        let mut exec = ExecOptions::default();
        if let Some(l) = layout {
            exec.mem_budget = budget;
            exec.spill_dir = Some(l.spill_dir.clone());
        }
        exec
    }
}
