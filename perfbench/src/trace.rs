//! Spans recorded by the benchmark around its calls into the engine,
//! held in memory and written out when the run ends, plus the small
//! JSON writer the result line needs.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a call into a layer, or a group of calls (its
/// children name it as `parent`). Spans of one request share `req`.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times every engine call; records spans only when tracing is on.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    /// Wall time spent inside engine calls, traced or not: the base of
    /// `trace.overhead_pct`.
    pub busy_ns: u64,
}

/// Parent id of a root span.
pub const ROOT: u32 = 0;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            busy_ns: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a grouping span; `end` closes it. Returns [`ROOT`] (and
    /// records nothing) when tracing is off.
    pub fn begin(&mut self, name: &'static str, req: u64, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        if id != ROOT {
            let end = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Runs one engine call, timing it and recording its span.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.busy_ns += end.duration_since(start).as_nanos() as u64;
        if self.on {
            let id = self.spans.len() as u32 + 1;
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                id,
                parent,
                name,
                req,
                start_ns,
                end_ns,
            });
        }
        r
    }

    /// Durations, in nanoseconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","req":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// One reported metric: a value as measured, or raw samples that the
/// benchmark's statistics helpers reduce (`stat` is `median`, `p50`
/// or `p99`). With `windows > 1` the samples, in the order they were
/// taken, are split into that many equal runs; the metric is the
/// median of the statistic over the runs, so one burst of stalls moves
/// it less.
pub enum Metric {
    Value {
        name: String,
        unit: &'static str,
        value: f64,
    },
    Samples {
        name: String,
        unit: &'static str,
        stat: &'static str,
        windows: usize,
        samples: Vec<f64>,
    },
}

pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric::Value {
        name: name.into(),
        unit,
        value,
    }
}

pub fn samples(
    name: impl Into<String>,
    unit: &'static str,
    stat: &'static str,
    samples: Vec<f64>,
) -> Metric {
    windowed(name, unit, stat, 1, samples)
}

pub fn windowed(
    name: impl Into<String>,
    unit: &'static str,
    stat: &'static str,
    windows: usize,
    samples: Vec<f64>,
) -> Metric {
    Metric::Samples {
        name: name.into(),
        unit,
        stat,
        windows,
        samples,
    }
}

/// A JSON number; non-finite values (which the checks reject) become
/// `null`.
pub fn num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A JSON string literal.
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Metric {
    pub fn write_json(&self, out: &mut String) {
        match self {
            Metric::Value { name, unit, value } => {
                out.push_str("{\"name\":");
                string(out, name);
                let _ = write!(out, ",\"unit\":\"{unit}\",\"value\":");
                num(out, *value);
                out.push('}');
            }
            Metric::Samples {
                name,
                unit,
                stat,
                windows,
                samples,
            } => {
                out.push_str("{\"name\":");
                string(out, name);
                let _ = write!(
                    out,
                    ",\"unit\":\"{unit}\",\"stat\":\"{stat}\",\"windows\":{windows},\"samples\":["
                );
                for (i, v) in samples.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    num(out, *v);
                }
                out.push_str("]}");
            }
        }
    }
}
