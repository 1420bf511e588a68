//! Process counters read from `/proc/self`: CPU time, minor faults and the
//! resident-set high-water mark.

/// `USER_HZ`, the unit of `utime`/`stime` in `/proc/<pid>/stat` (100 on
/// every mainstream Linux build).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU time and minor faults of this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return Usage::default();
        };
        // Fields after the parenthesised command name, which may itself
        // contain spaces: index 0 is field 3 (`state`) of proc(5).
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        Usage {
            minor_faults: num(7),
            user_s: num(11) as f64 / CLOCK_TICKS_PER_S,
            sys_s: num(12) as f64 / CLOCK_TICKS_PER_S,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Resets `VmHWM` to the current resident set (`clear_refs` value 5), so
/// the next [`peak_rss_bytes`] is the peak of what runs after this call.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process, in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}
