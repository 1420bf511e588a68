//! The benchmark's own spans: recorded around its calls into the crates,
//! kept in memory, written out once at the end of the traced run.

use crate::procstat::Usage;
use largeea::common::Json;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    pub usage: Usage,
    open_usage: Usage,
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A span tree for one run; every span carries the run's id.
pub struct Spans {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(run_id: String) -> Spans {
        Spans {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            usage: Usage::default(),
            open_usage: Usage::now(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) -> &Span {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.usage = Usage::now().since(&span.open_usage);
        span.end_s = self.origin.elapsed().as_secs_f64();
        span
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, &Span) {
        let id = self.open(name);
        let value = f();
        (value, self.close(id))
    }

    /// Wall, CPU and minor-fault totals over every closed span named `name`.
    pub fn total(&self, name: &str) -> (f64, Usage) {
        let mut wall = 0.0;
        let mut usage = Usage::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            wall += s.wall_s();
            usage.user_s += s.usage.user_s;
            usage.sys_s += s.usage.sys_s;
            usage.minor_faults += s.usage.minor_faults;
        }
        (wall, usage)
    }

    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::UInt(id as u64)),
                ("name", Json::Str(s.name.to_owned())),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("run_id", Json::Str(self.run_id.clone())),
                ("start_s", Json::Float(s.start_s)),
                ("end_s", Json::Float(s.end_s)),
                ("cpu_s", Json::Float(s.usage.cpu_s())),
                ("minor_faults", Json::UInt(s.usage.minor_faults)),
            ])
        });
        Json::obj([
            ("run_id", Json::Str(self.run_id.clone())),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}
