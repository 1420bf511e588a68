//! `eabench` — the measuring half of the repository benchmark.
//!
//! `run.py` starts one fresh process per measurement, so every peak-memory
//! reading belongs to exactly one run:
//!
//! ```text
//! eabench align --workload <name> --seed <n> --work-dir <dir>
//!               [--setup-reps <n>] [--budget-bytes <n>] [--reference]
//! eabench trace --workload <name> --seed <n> --work-dir <dir>
//!               [--budget-bytes <n>]
//! ```
//!
//! `align` generates the inputs (`--setup-reps` times, timing each), then
//! times one untraced `align` run. `--reference` runs an out-of-core
//! workload in RAM instead, which gives the bit-identity reference and the
//! in-RAM tracked peak the memory budget is derived from. `trace` composes
//! the pipeline from public calls inside the benchmark's own spans and
//! replays each leaf layer on the same inputs (see `traced.rs`). Both print
//! one JSON object on stdout.

mod procstat;
mod spans;
mod traced;
mod workload;

use largeea::common::obs::{ObsConfig, Recorder};
use largeea::common::pool::Pool;
use largeea::common::Json;
use largeea::core::checkpoint::Checkpoint;
use largeea::core::pipeline::LargeEa;
use largeea::sim::SparseSimMatrix;
use procstat::{peak_rss_bytes, reset_peak_rss, Usage};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

const MIB: f64 = (1u64 << 20) as f64;

struct Opts {
    workload: &'static Workload,
    seed: u64,
    work_dir: PathBuf,
    setup_reps: usize,
    budget: Option<usize>,
    reference: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut work_dir = None;
    let mut setup_reps = 1;
    let mut budget = None;
    let mut reference = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--setup-reps" => setup_reps = number()?.max(1) as usize,
            "--budget-bytes" => budget = Some(number()? as usize),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        setup_reps,
        budget,
        reference,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_opts(args.get(1..).unwrap_or_default()).and_then(|opts| {
        match args.first().map(String::as_str) {
            Some("align") => cmd_align(&opts),
            Some("trace") => traced::run(&opts),
            other => Err(format!(
                "expected the subcommand align or trace, got {other:?}"
            )),
        }
    });
    match result {
        Ok(json) => {
            println!("{}", json.dump());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Times one untraced `align` run in this (fresh) process.
fn cmd_align(opts: &Opts) -> Result<Json, String> {
    let w = opts.workload;
    let cfg = w.config();
    let mut setup_s = Vec::with_capacity(opts.setup_reps);
    let mut inputs = None;
    for _ in 0..opts.setup_reps {
        drop(inputs.take()); // the previous repetition's inputs are freed first
        let t0 = Instant::now();
        let generated = w.generate(opts.seed);
        let layout = if opts.reference {
            None
        } else {
            w.layout(&opts.work_dir)?
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        inputs = Some((generated, layout));
    }
    let ((pair, seeds), layout) = inputs.expect("at least one set-up repetition");
    let exec = w.exec(layout.as_ref(), opts.budget);
    let rec = Recorder::new(ObsConfig::default());
    let ea = LargeEa::new(cfg);
    let rss_reset = reset_peak_rss();
    let before = Usage::now();
    let t0 = Instant::now();
    let run = match &layout {
        Some(l) => {
            let mut ckpt = Checkpoint::open(&l.ckpt_dir, cfg.run_meta(&seeds, 1), false, &rec)
                .map_err(|e| e.to_string())?;
            ea.run_exec(&pair, &seeds, 1, &rec, Some(&mut ckpt), &exec)
                .map_err(|e| e.to_string())
        }
        None => ea
            .run_exec(&pair, &seeds, 1, &rec, None, &exec)
            .map_err(|e| e.to_string()),
    };
    let align_s = t0.elapsed().as_secs_f64();
    let usage = Usage::now().since(&before);
    let peak_rss = peak_rss_bytes().ok_or("VmHWM is not readable")?;
    let report = run.map_err(|e| format!("align failed: {e}"))?;
    let mut out = vec![
        ("workload", Json::Str(w.name.to_owned())),
        ("seed", Json::UInt(opts.seed)),
        ("out_of_core", Json::Bool(layout.is_some())),
        (
            "setup_s",
            Json::Arr(setup_s.into_iter().map(Json::Float).collect()),
        ),
        ("align_s", Json::Float(align_s)),
        ("cpu_s", Json::Float(usage.cpu_s())),
        ("user_s", Json::Float(usage.user_s)),
        ("sys_s", Json::Float(usage.sys_s)),
        ("minor_faults", Json::UInt(usage.minor_faults)),
        ("peak_rss_mb", Json::Float(peak_rss as f64 / MIB)),
        ("peak_rss_reset", Json::Bool(rss_reset)),
        (
            "tracked_peak_bytes",
            Json::UInt(report.tracked_peak_bytes as u64),
        ),
        ("hits1", Json::Float(report.eval.hits1)),
        ("mrr", Json::Float(report.eval.mrr)),
        ("fused_hash", Json::Str(sim_hash(&report.sim))),
    ];
    out.extend(provenance());
    Ok(Json::obj(out))
}

/// What a result must record to be comparable across machines.
fn provenance() -> [(&'static str, Json); 3] {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    [
        (
            "kernel_isa",
            Json::Str(largeea::tensor::active_isa().name().to_owned()),
        ),
        ("pool_width", Json::UInt(Pool::global().threads() as u64)),
        ("host_parallelism", Json::UInt(host as u64)),
    ]
}

/// FNV-1a over a similarity matrix's exact bits (shape, then every row's
/// `(col, score)` entries in order), as 16 hex digits.
fn sim_hash(m: &SparseSimMatrix) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(m.n_rows() as u32);
    eat(m.n_cols() as u32);
    for r in 0..m.n_rows() {
        let row = m.row(r);
        eat(row.len() as u32);
        for &(c, s) in row {
            eat(c);
            eat(s.to_bits());
        }
    }
    format!("{h:016x}")
}
