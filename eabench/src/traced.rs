//! The traced run: per-layer numbers measured from outside the crates.
//!
//! 1. **Composed pipeline.** The benchmark calls the public stage entry
//!    points in the order `LargeEa::run_exec` does — `NameChannel::run_bounded`
//!    → `augment_seeds` → `StructureChannel::run_bounded` → `fuse` (in-place
//!    `add_assign` out of core) → `evaluate` — each inside one of its own
//!    `core.*` spans. Its accuracy must equal the untraced run's exactly.
//! 2. **Replays.** Each leaf layer is called again on the same inputs: the
//!    hash encoder, STNS through `text::batch`, the SENS scan
//!    (`segmented_topk_traced`), METIS-CPS (`metis_cps_traced`), training
//!    (`train_traced`) and per-batch top-k on every mini-batch, the
//!    `tensor::kernels` micro-calls, and `SpillStore`/`Checkpoint` writes of
//!    the fused matrix. Every replay must reproduce the counter the
//!    pipeline recorded for the same stage; a mismatch means it timed a
//!    different call, and the run fails instead of publishing the number.
//!
//! Spans read wall clock, CPU time and minor faults around each call
//! (`/proc/self/stat`); the span tree is written to `<work-dir>/spans.json`.

use crate::spans::Spans;
use crate::{provenance, sim_hash, Opts, MIB};
use largeea::common::alloc;
use largeea::common::obs::{ObsConfig, Recorder};
use largeea::common::pool::Pool;
use largeea::common::{Json, Rng};
use largeea::core::checkpoint::Checkpoint;
use largeea::core::mem::MemTracker;
use largeea::core::spill::SpillStore;
use largeea::core::supervisor::Supervision;
use largeea::core::{augment_seeds, evaluate, fuse, NameChannel, StructureChannel};
use largeea::models::scoring::fill_similarity;
use largeea::models::{train_traced, BatchGraph};
use largeea::partition::{metis_cps_traced, CpsConfig};
use largeea::sim::{segmented_topk_traced, Metric, SparseSimMatrix};
use largeea::tensor::{kernels, Matrix};
use largeea::text::{batch, normalize_name, HashEncoder, LshIndex, MinHasher};
use std::hint::black_box;
use std::time::Instant;

/// Collects metrics and replay-vs-pipeline checks.
struct Out {
    metrics: Vec<(&'static str, Json)>,
    checks: Vec<Json>,
}

impl Out {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, Json::Float(value)));
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.metrics.push((name, Json::UInt(value)));
    }

    /// Records that `replay` must equal what the program recorded.
    fn check(&mut self, name: &'static str, program: impl ToString, replay: impl ToString) {
        let (program, replay) = (program.to_string(), replay.to_string());
        let ok = program == replay;
        if !ok {
            eprintln!("check {name} failed: program {program}, replay {replay}");
        }
        self.checks.push(Json::obj([
            ("name", Json::Str(name.to_owned())),
            ("program", Json::Str(program)),
            ("replay", Json::Str(replay)),
            ("ok", Json::Bool(ok)),
        ]));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(opts: &Opts) -> Result<Json, String> {
    let w = opts.workload;
    let cfg = w.config();
    let pool = Pool::global();
    let width = pool.threads() as f64;
    let run_id = format!("{}-s{}-p{}", w.name, opts.seed, std::process::id());
    let mut sp = Spans::new(run_id);
    let mut out = Out {
        metrics: Vec::new(),
        checks: Vec::new(),
    };
    let root = sp.open("trace");

    // ---- data ---------------------------------------------------------------
    let ((pair, seeds), s) = sp.time("data.generate", || w.generate(opts.seed));
    out.put("data.generate_s", s.wall_s());
    let entities = pair.source.num_entities() + pair.target.num_entities();
    let triples = pair.source.num_triples() + pair.target.num_triples();
    out.count("data.entities", entities as u64);
    out.count("data.triples", triples as u64);
    let layout = w.layout(&opts.work_dir)?;
    let exec = w.exec(layout.as_ref(), opts.budget);

    // ---- the composed pipeline ------------------------------------------------
    let rec = Recorder::new(ObsConfig::default());
    let mut mem = MemTracker::with_budget_opt(exec.mem_budget);
    let mut spill = match &exec.spill_dir {
        Some(dir) => Some(SpillStore::create(dir).map_err(|e| format!("spill store: {e}"))?),
        None => None,
    };
    let mut ckpt = match &layout {
        Some(l) => Some(
            Checkpoint::open(&l.ckpt_dir, cfg.run_meta(&seeds, 1), false, &rec)
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let heap = alloc::span_open();
    let pipeline = sp.open("core.pipeline");
    let id = sp.open("core.name_channel");
    let name_out = NameChannel::new(cfg.name)
        .run_bounded(&pair.source, &pair.target, &rec, &mut mem, spill.as_mut())
        .map_err(|e| format!("name channel: {e}"))?;
    if let Some(c) = ckpt.as_mut() {
        c.save_sim("name", &name_out.m_n, &rec)
            .map_err(|e| e.to_string())?;
    }
    let name_span = sp.close(id);
    let (name_s, name_cpu) = (name_span.wall_s(), name_span.usage.cpu_s());
    let (aug, s) = sp.time("core.augment", || {
        augment_seeds(&seeds, &name_out.m_n, &pair.alignment)
    });
    out.put("core.augment_s", s.wall_s());
    let id = sp.open("core.structure_channel");
    let mut structure_out = StructureChannel::new(cfg.structure)
        .run_bounded(
            &pair,
            &aug.seeds,
            &rec,
            ckpt.as_mut(),
            0,
            &mut mem,
            spill.as_mut(),
            &Supervision::default(),
        )
        .map_err(|e| format!("structure channel: {e}"))?;
    let structure_span = sp.close(id);
    let (structure_s, structure_cpu) = (structure_span.wall_s(), structure_span.usage.cpu_s());
    let m_s_hash = sim_hash(&structure_out.m_s);
    let id = sp.open("core.fuse");
    let fused = if exec.spill_dir.is_some() {
        let mut fused = std::mem::replace(&mut structure_out.m_s, SparseSimMatrix::new(0, 0));
        mem.release("structure_channel");
        fused.add_assign(&name_out.m_n);
        fused
    } else {
        fuse(&structure_out.m_s, &name_out.m_n)
    };
    mem.release("fused");
    mem.set("fused", fused.nbytes());
    mem.enforce("fused", fused.nbytes())
        .map_err(|e| e.to_string())?;
    if let Some(c) = ckpt.as_mut() {
        c.save_sim("fused", &fused, &rec)
            .map_err(|e| e.to_string())?;
    }
    out.put("core.fuse_s", sp.close(id).wall_s());
    let (eval, s) = sp.time("core.eval", || evaluate(&fused, &seeds.test));
    out.put("core.eval_s", s.wall_s());
    let pipeline_s = sp.close(pipeline).wall_s();
    let heap_peak = alloc::span_close(heap).map_or(0, |d| d.peak_bytes);
    drop((spill, ckpt));
    let program = rec.trace();

    out.put("core.name_channel_s", name_s);
    out.put("core.structure_channel_s", structure_s);
    out.put("core.name_channel_util", ratio(name_cpu, name_s * width));
    out.put(
        "core.structure_channel_util",
        ratio(structure_cpu, structure_s * width),
    );
    let core_s: f64 = [
        "core.name_channel",
        "core.augment",
        "core.structure_channel",
        "core.fuse",
        "core.eval",
    ]
    .into_iter()
    .map(|n| sp.total(n).0)
    .sum();
    out.put("core.span_coverage", ratio(core_s, pipeline_s));
    out.count("core.pseudo_seeds", aug.generated as u64);
    out.put("core.pseudo_seed_accuracy", aug.accuracy);
    out.put("core.mem_tracked_peak_mb", mem.total_peak() as f64 / MIB);
    out.put("core.heap_peak_mb", heap_peak as f64 / MIB);
    out.count(
        "core.spill_write_bytes",
        program.counter("mem.spill.write_bytes"),
    );
    out.count(
        "core.spill_read_bytes",
        program.counter("mem.spill.read_bytes"),
    );
    out.count("core.ckpt_write_bytes", program.counter("ckpt.write_bytes"));
    out.count("core.retry_attempts", program.counter("retry.attempts"));

    // ---- replays --------------------------------------------------------------
    let replay = sp.open("replay");

    // text: the hash encoder, then STNS through text::batch
    let encoder = HashEncoder::new(cfg.name.dim, cfg.name.seed);
    let ((emb_s, emb_t), s) = sp.time("text.encode", || {
        (
            encoder.encode_batch_in(pair.source.labels(), pool),
            encoder.encode_batch_in(pair.target.labels(), pool),
        )
    });
    out.put("text.encode_s", s.wall_s());
    let ((lsh_candidates, verified), s) = sp.time("text.stns", || {
        let hasher = MinHasher::new(cfg.name.minhash_perms, cfg.name.seed);
        let norm = |labels: &[String]| labels.iter().map(|l| normalize_name(l)).collect::<Vec<_>>();
        let (norm_s, norm_t) = (norm(pair.source.labels()), norm(pair.target.labels()));
        let k = cfg.name.shingle_k;
        let sigs_s = batch::minhash_signatures_in(&hasher, &norm_s, k, pool);
        let sigs_t = batch::minhash_signatures_in(&hasher, &norm_t, k, pool);
        let mut index = LshIndex::with_threshold(cfg.name.minhash_perms, cfg.name.theta);
        for (i, sig) in sigs_t.iter().enumerate() {
            index.insert(i as u32, sig);
        }
        let blocks = pool.map_blocks(norm_s.len(), 32, |range| {
            let mut candidates = 0u64;
            let mut pairs = Vec::new();
            for s in range {
                for c in index.candidates(&sigs_s[s]) {
                    candidates += 1;
                    if hasher.estimate(&sigs_s[s], &sigs_t[c as usize]) >= cfg.name.theta {
                        pairs.push((norm_s[s].as_str(), norm_t[c as usize].as_str()));
                    }
                }
            }
            (candidates, pairs)
        });
        let candidates: u64 = blocks.iter().map(|b| b.0).sum();
        let pairs: Vec<(&str, &str)> = blocks.into_iter().flat_map(|b| b.1).collect();
        let sims = batch::levenshtein_similarities_in(&pairs, pool);
        (candidates, sims.len() as u64)
    });
    out.put("text.stns_s", s.wall_s());
    out.count("text.lsh_candidates", lsh_candidates);
    out.count("text.levenshtein_pairs", verified);
    out.put(
        "text.lsh_useful_ratio",
        ratio(verified as f64, lsh_candidates as f64),
    );
    out.check(
        "text.lsh_candidates",
        program.counter("stns.lsh_candidates"),
        lsh_candidates,
    );
    out.check(
        "text.levenshtein_pairs",
        program.counter("stns.levenshtein_pairs"),
        verified,
    );

    // simsearch: the exact SENS scan
    let scan_rec = Recorder::new(ObsConfig::default());
    let (hits, s) = sp.time("simsearch.sens_scan", || {
        segmented_topk_traced(
            &emb_s,
            &emb_t,
            cfg.name.top_k,
            Metric::Manhattan,
            cfg.name.segments,
            &scan_rec,
        )
    });
    let (scan_s, scan_cpu) = (s.wall_s(), s.usage.cpu_s());
    let sens_candidates = scan_rec.trace().counter("sens.candidates_scored");
    let kept: usize = hits.iter().map(Vec::len).sum();
    drop((hits, emb_s, emb_t));
    out.put("simsearch.sens_scan_s", scan_s);
    out.count("simsearch.sens_candidates", sens_candidates);
    out.put(
        "simsearch.sens_pairs_per_s",
        ratio(sens_candidates as f64, scan_s),
    );
    out.put(
        "simsearch.sens_kept_ratio",
        ratio(kept as f64, sens_candidates as f64),
    );
    out.put("simsearch.sens_cpu_per_wall", ratio(scan_cpu, scan_s));
    out.check(
        "simsearch.sens_candidates",
        program.counter("sens.candidates_scored"),
        sens_candidates,
    );

    // partition: METIS-CPS on the augmented seeds
    let part_rec = Recorder::new(ObsConfig::default());
    let (batches, s) = sp.time("partition.cps", || {
        let mut cps = CpsConfig::new(cfg.structure.k).with_seed(cfg.structure.seed);
        cps.virtual_edge_weight = cfg.structure.virtual_edge_weight;
        metis_cps_traced(&pair, &aug.seeds, &cps, &part_rec)
    });
    out.put("partition.cps_s", s.wall_s());
    let moves = part_rec.trace().counter("partition.refine.moves");
    out.count("partition.input_triples", triples as u64);
    out.count("partition.refine_moves", moves);
    out.put("partition.edge_cut_rate", batches.edge_cut_rate(&pair));
    out.put("partition.seed_retention", batches.retention(&seeds).total);
    out.check(
        "partition.input_triples",
        program.counter("partition.input_triples"),
        triples,
    );
    out.check(
        "partition.refine_moves",
        program.counter("partition.refine.moves"),
        moves,
    );
    out.check(
        "partition.batches",
        "equal",
        if batches == structure_out.batches {
            "equal"
        } else {
            "different"
        },
    );

    // models + simsearch: training and per-batch top-k on every mini-batch
    let train_rec = Recorder::disabled();
    let tc = cfg.structure.train;
    let mut m_s = SparseSimMatrix::new(pair.source.num_entities(), pair.target.num_entities());
    let (mut topk_pairs, mut loss_sum, mut trained) = (0u64, 0.0f64, 0usize);
    for b in &batches.batches {
        let bg = BatchGraph::from_mini_batch(&pair, b);
        if bg.n_source == 0 || bg.n_target == 0 {
            continue;
        }
        let mut model = cfg
            .structure
            .model
            .build(&bg, tc.dim, cfg.structure.seed ^ b.index as u64);
        let (report, _) = sp.time("models.train", || {
            train_traced(model.as_mut(), &bg, &tc, &train_rec)
        });
        if let Some(&last) = report.losses.last() {
            loss_sum += last as f64;
            trained += 1;
        }
        sp.time("simsearch.topk", || {
            fill_similarity(&bg, &report.embeddings, cfg.structure.top_k, &mut m_s)
        });
        topk_pairs += (bg.n_source * bg.n_target) as u64;
    }
    m_s.normalize_global_minmax();
    let (train_s, train_usage) = sp.total("models.train");
    let epochs = (trained * tc.epochs) as f64;
    let final_loss = ratio(loss_sum, trained as f64);
    out.put("models.train_s", train_s);
    out.put("models.epoch_ms", 1e3 * ratio(train_s, epochs));
    out.put("models.epochs_per_s", ratio(epochs, train_s));
    out.put(
        "models.cpu_sys_share",
        ratio(train_usage.sys_s, train_usage.cpu_s()),
    );
    out.put(
        "models.minor_faults_per_epoch",
        ratio(train_usage.minor_faults as f64, epochs),
    );
    out.put("models.final_loss", final_loss);
    out.put("simsearch.topk_s", sp.total("simsearch.topk").0);
    out.count("simsearch.topk_pairs", topk_pairs);
    out.check(
        "simsearch.topk_pairs",
        program.counter("topk.scored_pairs"),
        topk_pairs,
    );
    out.check(
        "models.final_loss",
        structure_out.final_loss.to_bits(),
        final_loss.to_bits(),
    );
    out.check("simsearch.m_s", m_s_hash, sim_hash(&m_s));
    drop(m_s);

    // tensor: kernel micro-calls on 128-d rows, and one fixed-shape matmul
    let id = sp.open("tensor.kernels");
    let l1_ns = kernel_ns(kernels::l1_distance);
    let dot_ns = kernel_ns(kernels::dot);
    let l1_i8_ns = kernel_i8_ns(kernels::l1_i8);
    let gflops = matmul_gflops();
    sp.close(id);
    out.put("tensor.l1_ns", l1_ns);
    out.put("tensor.l1_i8_ns", l1_i8_ns);
    out.put("tensor.dot_ns", dot_ns);
    out.put("tensor.matmul_gflops", gflops);
    out.put(
        "tensor.sens_efficiency",
        ratio(sens_candidates as f64 * l1_ns * 1e-9, scan_cpu),
    );

    // core: spill and checkpoint writes of the fused matrix
    let io_rec = Recorder::new(ObsConfig::default());
    let io_dir = opts.work_dir.join("replay");
    let mut store = SpillStore::create(&io_dir.join("spill")).map_err(|e| e.to_string())?;
    let (put, s) = sp.time("core.spill_put", || store.put_sim("fused", &fused, &io_rec));
    put.map_err(|e| e.to_string())?;
    let put_s = s.wall_s();
    let (got, s) = sp.time("core.spill_get", || store.get_sim("fused", &io_rec));
    let got = got.map_err(|e| e.to_string())?;
    let get_s = s.wall_s();
    let io = io_rec.trace();
    out.put(
        "core.spill_put_mb_per_s",
        ratio(io.counter("mem.spill.write_bytes") as f64 / MIB, put_s),
    );
    out.put(
        "core.spill_get_mb_per_s",
        ratio(io.counter("mem.spill.read_bytes") as f64 / MIB, get_s),
    );
    out.check("core.spill_round_trip", sim_hash(&fused), sim_hash(&got));
    drop((got, store));
    let mut ckpt = Checkpoint::open(
        &io_dir.join("ckpt"),
        cfg.run_meta(&seeds, 1),
        false,
        &io_rec,
    )
    .map_err(|e| e.to_string())?;
    let (saved, s) = sp.time("core.ckpt_save", || ckpt.save_sim("fused", &fused, &io_rec));
    saved.map_err(|e| e.to_string())?;
    out.put("core.ckpt_save_s", s.wall_s());
    sp.close(replay);
    sp.close(root);

    let spans_path = opts.work_dir.join("spans.json");
    std::fs::write(&spans_path, sp.to_json().dump())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let mut result = vec![
        ("workload", Json::Str(w.name.to_owned())),
        ("seed", Json::UInt(opts.seed)),
        ("pipeline_s", Json::Float(pipeline_s)),
        ("hits1", Json::Float(eval.hits1)),
        ("mrr", Json::Float(eval.mrr)),
        ("fused_hash", Json::Str(sim_hash(&fused))),
        ("checks", Json::Arr(out.checks)),
        ("metrics", Json::obj(out.metrics)),
    ];
    result.extend(provenance());
    Ok(Json::obj(result))
}

/// Rows per side of the kernel micro-benchmark: 256 × 256 pairs of 128-d
/// rows (128 KiB of f32, cache resident — this is the kernel's own cost).
const ROWS: usize = 256;
const DIM: usize = 128;
const REPS: usize = 9;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median nanoseconds per 128-d pair of an f32 kernel.
fn kernel_ns(f: impl Fn(&[f32], &[f32]) -> f32) -> f64 {
    let mut rng = Rng::seed_from_u64(0x11);
    let rows: Vec<f32> = (0..ROWS * DIM).map(|_| rng.gen::<f32>() - 0.5).collect();
    let row = |i: usize| &rows[i * DIM..(i + 1) * DIM];
    let reps = (0..REPS).map(|_| {
        let t0 = Instant::now();
        let mut acc = 0.0f32;
        for i in 0..ROWS {
            for j in 0..ROWS {
                acc += f(black_box(row(i)), black_box(row(j)));
            }
        }
        black_box(acc);
        t0.elapsed().as_secs_f64() * 1e9 / (ROWS * ROWS) as f64
    });
    median(reps.collect())
}

/// Median nanoseconds per 128-d pair of an i8 kernel.
fn kernel_i8_ns(f: impl Fn(&[i8], &[i8]) -> i32) -> f64 {
    let mut rng = Rng::seed_from_u64(0x18);
    let rows: Vec<i8> = (0..ROWS * DIM).map(|_| rng.next_u64() as i8).collect();
    let row = |i: usize| &rows[i * DIM..(i + 1) * DIM];
    let reps = (0..REPS).map(|_| {
        let t0 = Instant::now();
        let mut acc = 0i64;
        for i in 0..ROWS {
            for j in 0..ROWS {
                acc += f(black_box(row(i)), black_box(row(j))) as i64;
            }
        }
        black_box(acc);
        t0.elapsed().as_secs_f64() * 1e9 / (ROWS * ROWS) as f64
    });
    median(reps.collect())
}

/// Median GFLOP/s of a 512 × 512 by 512 × 512 matmul on the global pool.
fn matmul_gflops() -> f64 {
    const N: usize = 512;
    let mut rng = Rng::seed_from_u64(0x33);
    let a = Matrix::from_fn(N, N, |_, _| rng.gen::<f32>() - 0.5);
    let b = a.transpose();
    let reps = (0..5).map(|_| {
        let t0 = Instant::now();
        black_box(a.matmul(&b));
        2.0 * (N * N * N) as f64 / t0.elapsed().as_secs_f64() / 1e9
    });
    median(reps.collect())
}
