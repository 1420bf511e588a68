//! Transient-fault supervision: retry, quarantine and graceful degradation
//! (DESIGN.md §S0.12).
//!
//! The pipeline's unit of restartable work is small — one durable write,
//! one mini-batch — so a transient I/O hiccup should cost one retried unit,
//! not a multi-hour DBP1M run. Supervision happens at three nested levels:
//!
//! 1. **Site level**: every spill / checkpoint write runs under
//!    [`largeea_common::retry`]'s bounded-exponential-backoff executor
//!    (virtual clock, seeded jitter), folding `retry.*` counters into the
//!    trace.
//! 2. **Batch level**: a structure-channel mini-batch whose I/O exhausts
//!    site-level retries is retried as a whole (deterministic per-batch
//!    seeds make the re-run bit-identical); if it *still* fails and the run
//!    allows degradation, the batch is **quarantined** — recorded in the
//!    run manifest and the trace — and the pipeline continues without its
//!    similarity block.
//! 3. **Channel level**: behind `align --degraded-ok`, a name channel lost
//!    to I/O faults degrades the run to structure-only fusion (and vice
//!    versa), stamped as `degraded.*` span fields / counters and in
//!    [`crate::pipeline::LargeEaReport`].
//!
//! Without `--degraded-ok` the same faults surface as typed errors:
//! [`RunError::Exhausted`](crate::pipeline::RunError::Exhausted) when a
//! transient fault outlived every retry, or the original typed I/O error
//! when the fault was never retryable. With `--degraded-ok` but nothing
//! left to degrade *to* (the only enabled channel died), the run fails with
//! [`RunError::Quarantined`](crate::pipeline::RunError::Quarantined). The
//! crash-only invariant — every outcome is bit-identical, honestly flagged,
//! or a typed error with no durable partial artifact — is enforced for
//! every registered failpoint × mode by `tests/chaos_sweep.rs`.

use crate::checkpoint::CkptError;
use crate::pipeline::RunError;
use largeea_common::retry::{RetryPolicy, Retryable, Transience};
use std::fmt;

/// Supervision policy for one pipeline run: the retry schedule shared by
/// every level, and whether degradation may replace failure.
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Backoff schedule for site-level and batch-level retries.
    pub retry: RetryPolicy,
    /// Allow quarantine / channel degradation instead of a typed error
    /// (`align --degraded-ok`).
    pub degraded_ok: bool,
}

/// A retried unit that failed every allowed attempt — the payload of
/// [`RunError::Exhausted`](crate::pipeline::RunError::Exhausted).
#[derive(Debug)]
pub struct Exhausted {
    /// The logical unit that gave up (`name_channel`, `r0.b2`, …).
    pub site: String,
    /// Total attempts made (including the first).
    pub attempts: u32,
    /// The error the final attempt failed with.
    pub last: Box<RunError>,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retries exhausted at {:?} after {} attempts: {}",
            self.site, self.attempts, self.last
        )
    }
}

/// A degraded-mode run with nothing left to degrade *to* — the payload of
/// [`RunError::Quarantined`](crate::pipeline::RunError::Quarantined).
#[derive(Debug)]
pub struct Quarantined {
    /// The units that were lost (channel names and/or batch keys).
    pub units: Vec<String>,
    /// Why the last unit was lost.
    pub why: String,
}

impl fmt::Display for Quarantined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded run has no usable channel left (quarantined: {}): {}",
            self.units.join(", "),
            self.why
        )
    }
}

/// What a completed run gave up to finish — stamped into the trace
/// (`degraded.*` counters and `pipeline`-span fields) and carried on
/// [`crate::pipeline::LargeEaReport`]. An empty value means a full-fidelity
/// run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degradations {
    /// The name channel was lost; fusion ran structure-only.
    pub name_channel: bool,
    /// The structure channel was lost; fusion ran name-only.
    pub structure_channel: bool,
    /// Stage keys of quarantined mini-batches (their similarity blocks are
    /// missing from `M_s`).
    pub quarantined_batches: Vec<String>,
}

impl Degradations {
    /// Whether anything was degraded at all.
    pub fn is_degraded(&self) -> bool {
        self.name_channel || self.structure_channel || !self.quarantined_batches.is_empty()
    }

    /// Every lost unit as a flat list (for reports and error payloads).
    pub fn units(&self) -> Vec<String> {
        let mut u = Vec::new();
        if self.name_channel {
            u.push("name_channel".to_owned());
        }
        if self.structure_channel {
            u.push("structure_channel".to_owned());
        }
        u.extend(self.quarantined_batches.iter().cloned());
        u
    }
}

impl Retryable for RunError {
    /// Only I/O-rooted errors can be transient: an interrupted spill or
    /// checkpoint write is worth re-executing, while budget, audit and
    /// resume-mismatch failures are deterministic — retrying replays the
    /// same failure. `Exhausted` is fatal by construction (its retries are
    /// already spent).
    fn transience(&self) -> Transience {
        match self {
            RunError::Spill(e) => e.transience(),
            RunError::Ckpt(CkptError::Io(e)) => e.transience(),
            _ => Transience::Fatal,
        }
    }
}

/// Whether an error is an I/O *fault* — the class `--degraded-ok` may trade
/// for a quarantined batch or a lost channel. Deterministic failures
/// (budget, audit, resume mismatch) are never degradable: they would recur
/// identically on the surviving work.
pub fn is_io_fault(e: &RunError) -> bool {
    matches!(
        e,
        RunError::Spill(_) | RunError::Ckpt(CkptError::Io(_)) | RunError::Exhausted(_)
    )
}

/// The terminal form of an error that outlived supervision of `site` after
/// `attempts` attempts: [`RunError::Exhausted`] for a transient fault, `e`
/// itself for a deterministic one.
pub(crate) fn give_up(e: RunError, site: String, attempts: u32) -> RunError {
    if e.transience() == Transience::Transient {
        return RunError::Exhausted(Exhausted {
            site,
            attempts,
            last: Box::new(e),
        });
    }
    e
}

/// One registered failpoint: its name (what `LARGEEA_FAILPOINTS` arms) and
/// the write site it guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailpointSite {
    /// The failpoint name.
    pub name: &'static str,
    /// Human-readable description of the guarded site.
    pub site: &'static str,
}

/// The authoritative registry of every failpoint in the system — what
/// `largeea failpoints list` prints and what the chaos sweep enumerates.
/// `tests/chaos_sweep.rs` asserts this list and the per-subsystem
/// `FAILPOINTS` consts agree in both directions, so a write site cannot
/// ship unregistered (and therefore unswept).
pub fn registered_failpoints() -> Vec<FailpointSite> {
    vec![
        FailpointSite {
            name: "ckpt.manifest",
            site: "checkpoint manifest write (durable, atomic; core::checkpoint)",
        },
        FailpointSite {
            name: "ckpt.name",
            site: "name-channel M_n checkpoint artifact (core::checkpoint)",
        },
        FailpointSite {
            name: "ckpt.partition",
            site: "per-round mini-batch assignment artifact (core::checkpoint)",
        },
        FailpointSite {
            name: "ckpt.emb",
            site: "per-batch trained-embeddings artifact (core::checkpoint)",
        },
        FailpointSite {
            name: "ckpt.sim",
            site: "per-batch similarity-block artifact (core::checkpoint)",
        },
        FailpointSite {
            name: "ckpt.ms",
            site: "per-round normalised M_s artifact (core::checkpoint)",
        },
        FailpointSite {
            name: "ckpt.fused",
            site: "fused similarity matrix M artifact (core::checkpoint)",
        },
        FailpointSite {
            name: "ckpt.progress",
            site: "best-effort epoch-progress file (core::checkpoint)",
        },
        FailpointSite {
            name: "spill.write",
            site: "out-of-core working-storage write (core::spill::SpillStore)",
        },
        FailpointSite {
            name: "live.write",
            site: "live trace snapshot live.trace.json (common::obs sampler)",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    #[test]
    fn runerror_transience_follows_the_io_kind() {
        let transient = RunError::Spill(io::Error::new(io::ErrorKind::Interrupted, "flaky"));
        assert_eq!(transient.transience(), Transience::Transient);
        let fatal = RunError::Spill(io::Error::other("disk on fire"));
        assert_eq!(fatal.transience(), Transience::Fatal);
        let ckpt_t = RunError::Ckpt(CkptError::Io(io::Error::new(
            io::ErrorKind::Interrupted,
            "flaky",
        )));
        assert_eq!(ckpt_t.transience(), Transience::Transient);
        let mismatch = RunError::Ckpt(CkptError::Mismatch {
            field: "seed",
            manifest: 1,
            current: 2,
        });
        assert_eq!(mismatch.transience(), Transience::Fatal);
        assert!(!is_io_fault(&mismatch));
        assert!(is_io_fault(&fatal), "fatal I/O is still an I/O fault");
    }

    #[test]
    fn registry_covers_subsystem_failpoint_consts_both_ways() {
        let reg: Vec<&str> = registered_failpoints().iter().map(|f| f.name).collect();
        for fp in crate::checkpoint::FAILPOINTS
            .iter()
            .chain(crate::spill::FAILPOINTS)
        {
            assert!(reg.contains(fp), "registry is missing {fp:?}");
        }
        for fp in &reg {
            let known = crate::checkpoint::FAILPOINTS.contains(fp)
                || crate::spill::FAILPOINTS.contains(fp)
                || *fp == "live.write";
            assert!(known, "registry entry {fp:?} names no known subsystem site");
        }
        let mut sorted = reg.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), reg.len(), "registry has duplicates");
    }

    #[test]
    fn degradations_report_units_in_a_stable_order() {
        let d = Degradations {
            name_channel: true,
            structure_channel: false,
            quarantined_batches: vec!["r0.b1".into(), "r0.b3".into()],
        };
        assert!(d.is_degraded());
        assert_eq!(d.units(), vec!["name_channel", "r0.b1", "r0.b3"]);
        assert!(!Degradations::default().is_degraded());
        assert!(Degradations::default().units().is_empty());
    }

    #[test]
    fn error_payloads_display_their_context() {
        let e = Exhausted {
            site: "r0.b2".into(),
            attempts: 4,
            last: Box::new(RunError::Spill(io::Error::new(
                io::ErrorKind::Interrupted,
                "flaky",
            ))),
        };
        let msg = e.to_string();
        assert!(msg.contains("r0.b2") && msg.contains("4 attempts"), "{msg}");
        let q = Quarantined {
            units: vec!["name_channel".into()],
            why: "spill store: gone".into(),
        };
        assert!(q.to_string().contains("name_channel"), "{}", q);
    }
}
