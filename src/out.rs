//! The CLI's one stdout writer.
//!
//! A reader that closes the pipe early (`largeea trace summarize run.json |
//! head`, `largeea failpoints list | grep -q …`) is not an error. Rust
//! ignores SIGPIPE, so a plain `println!` would panic on the first write
//! after the reader left. Every command prints through `out!`/`outln!`
//! instead: the first failed write marks stdout closed, later writes are
//! dropped, and the command still finishes with its normal exit code
//! (`trace diff`/`trace check` keep their verdicts).

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

static CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout unless an earlier write failed.
pub fn write(args: std::fmt::Arguments<'_>) {
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if std::io::stdout().lock().write_fmt(args).is_err() {
        CLOSED.store(true, Ordering::Relaxed);
    }
}

/// Whether a write to stdout has failed — its reader is gone, so loops
/// that only exist to print (`trace tail` follow mode) can stop.
pub fn closed() -> bool {
    CLOSED.load(Ordering::Relaxed)
}

/// `print!` through [`write`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write`].
macro_rules! outln {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
