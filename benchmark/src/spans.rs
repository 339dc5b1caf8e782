//! In-memory span recorder for the traced run.
//!
//! The harness wraps its own calls into the public API of each layer; the
//! library is not instrumented. A span carries its name, start, end, the
//! span that caused it and the body it belongs to. Spans stay in memory
//! and are written once, when the run ends. An untraced body is handed
//! [`Ctx::OFF`], which records nothing and reads no clock.

use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub body: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Where a call sits in the trace: which body it belongs to and which
/// span caused it.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    on: bool,
    parent: u32,
    body: u32,
}

impl Ctx {
    /// Records nothing.
    pub const OFF: Ctx = Ctx {
        on: false,
        parent: NO_PARENT,
        body: 0,
    };

    /// The root context of traced body `body`.
    pub fn body(body: u32) -> Ctx {
        Ctx {
            on: true,
            parent: NO_PARENT,
            body,
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the context its
    /// own children hang from.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.on {
            return f(*self);
        }
        let id = {
            let mut spans = SPANS.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                start_ns: now_ns(),
                end_ns: 0,
                parent: self.parent,
                body: self.body,
            });
            spans.len() as u32 - 1
        };
        let out = f(Ctx {
            parent: id,
            ..*self
        });
        let end = now_ns();
        SPANS.lock().expect("span recorder poisoned")[id as usize].end_ns = end;
        out
    }
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"))
}

/// Summed duration, in seconds, of the spans named `name` in body `body`.
pub fn total_secs(spans: &[Span], name: &str, body: u32) -> f64 {
    spans
        .iter()
        .filter(|s| s.body == body && s.name == name)
        .map(Span::secs)
        .sum()
}

/// Number of spans named `name` in body `body`.
pub fn count(spans: &[Span], name: &str, body: u32) -> usize {
    spans
        .iter()
        .filter(|s| s.body == body && s.name == name)
        .count()
}

/// Writes the spans as one JSON document: an array of
/// `{id, name, start_ns, end_ns, parent, body}` with `parent` null at
/// the root of a body.
pub fn write_json(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let comma = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"body\":{}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.body
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}
