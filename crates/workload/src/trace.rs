//! CSV workload traces: an Alibaba/Google-style schema binding arrival
//! rows to session requests, plus a synthetic generator so CI needs no
//! external data.
//!
//! Schema (header required, one session per row):
//!
//! ```csv
//! arrival_time,tenant,pattern,tasks,stages,kernel,cores
//! 0.000000,3,eop,8,2,misc.sleep,32
//! 12.504119,0,sal,16,1,md.amber,64
//! ```
//!
//! `arrival_time` is virtual seconds since stream start with microsecond
//! resolution — exactly the simulator's clock grain, so render → parse
//! round-trips losslessly ([`render_trace`] writes six decimal places and
//! [`parse_trace`] rounds to the nearest microsecond). Rows must be sorted
//! by non-decreasing `arrival_time`. All violations surface as typed
//! [`EntkError::Usage`] values naming the offending line, never panics.

use crate::arrival::{ArrivalStream, PatternKind, SessionArrival, VecStream, WorkloadGenerator};
use crate::OpenLoopProcess;
use entk_core::EntkError;
use entk_sim::{SimDuration, SimTime};
use std::io::BufRead;

/// The trace header; every trace file starts with exactly this line.
pub const TRACE_HEADER: &str = "arrival_time,tenant,pattern,tasks,stages,kernel,cores";

/// Renders arrivals as CSV text in the canonical schema. Output parses
/// back to the same rows ([`parse_trace`] is its exact inverse).
pub fn render_trace(arrivals: &[SessionArrival]) -> String {
    let mut out = String::with_capacity(32 * (arrivals.len() + 1));
    out.push_str(TRACE_HEADER);
    out.push('\n');
    for a in arrivals {
        out.push_str(&render_row(a));
    }
    out
}

/// Renders one arrival as a canonical CSV data row (trailing newline
/// included) — the unit the service folds into its streaming prefix
/// fingerprint, byte-compatible with [`render_trace`].
pub(crate) fn render_row(a: &SessionArrival) -> String {
    format!(
        "{:.6},{},{},{},{},{},{}\n",
        a.arrival.as_secs_f64(),
        a.tenant,
        a.pattern.as_str(),
        a.tasks,
        a.stages,
        a.kernel,
        a.cores,
    )
}

/// Parses CSV text in the canonical schema into validated, time-ordered
/// arrivals. Every malformed input — missing or wrong header, wrong column
/// count, unparsable numbers, invalid UTF-8, unknown pattern or kernel
/// names, rows out of arrival order, or a trace with no data rows — is a
/// typed [`EntkError::Usage`] carrying the 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<SessionArrival>, EntkError> {
    let mut stream = CsvStream::new(std::io::Cursor::new(text.as_bytes()));
    let mut arrivals = Vec::new();
    while let Some(row) = stream.next_arrival()? {
        arrivals.push(row);
    }
    Ok(arrivals)
}

/// Parses one CSV data row (already trimmed, non-empty) into a validated
/// arrival. Shared by the streaming reader and hence [`parse_trace`].
fn parse_row(line: &str, lineno: usize) -> Result<SessionArrival, EntkError> {
    let fields: Vec<&str> = line.split(',').map(str::trim).collect();
    if fields.len() != 7 {
        return Err(EntkError::Usage(format!(
            "line {lineno}: expected 7 comma-separated fields, got {}",
            fields.len()
        )));
    }
    let arrival_secs: f64 = fields[0].parse().map_err(|_| {
        EntkError::Usage(format!("line {lineno}: bad arrival_time {:?}", fields[0]))
    })?;
    // Past the clock's last instant the arrival clamped to it, silently.
    let max = SimDuration::MAX.as_secs_f64();
    if !(0.0..max).contains(&arrival_secs) {
        return Err(EntkError::Usage(format!(
            "line {lineno}: arrival_time must be a finite non-negative number \
             below {max:.1e} s, got {arrival_secs:?}"
        )));
    }
    let tenant: u64 = fields[1]
        .parse()
        .map_err(|_| EntkError::Usage(format!("line {lineno}: bad tenant {:?}", fields[1])))?;
    let pattern = PatternKind::parse(fields[2])
        .map_err(|e| EntkError::Usage(format!("line {lineno}: {e}")))?;
    let tasks: usize = fields[3]
        .parse()
        .map_err(|_| EntkError::Usage(format!("line {lineno}: bad tasks {:?}", fields[3])))?;
    let stages: usize = fields[4]
        .parse()
        .map_err(|_| EntkError::Usage(format!("line {lineno}: bad stages {:?}", fields[4])))?;
    let cores: usize = fields[6]
        .parse()
        .map_err(|_| EntkError::Usage(format!("line {lineno}: bad cores {:?}", fields[6])))?;
    let row = SessionArrival {
        arrival: SimTime::ZERO + SimDuration::from_secs_f64(arrival_secs),
        tenant,
        pattern,
        tasks,
        stages,
        kernel: fields[5].to_string(),
        cores,
    };
    row.validate()
        .map_err(|e| EntkError::Usage(format!("line {lineno}: {e}")))?;
    Ok(row)
}

/// A pull-based CSV trace reader over any buffered byte source — the
/// out-of-core ingestion path: `entk serve` wraps a `BufReader<File>` in
/// one of these and never holds more than a single line in memory.
///
/// One line buffer is reused across rows (no per-row `String`), and every
/// malformed input — including invalid UTF-8, which a text-based reader
/// would surface as an opaque io error — is a typed [`EntkError::Usage`]
/// carrying the 1-based line number. Row order is validated as rows are
/// pulled, so an out-of-order trace fails at the offending line even when
/// the consumer never materializes the prefix.
#[derive(Debug)]
pub struct CsvStream<R> {
    reader: R,
    buf: Vec<u8>,
    lineno: usize,
    header_seen: bool,
    yielded: bool,
    prev: Option<SimTime>,
}

impl<R: BufRead + Send> CsvStream<R> {
    /// Wraps a buffered byte source positioned at the start of a trace
    /// (header line first).
    pub fn new(reader: R) -> Self {
        CsvStream {
            reader,
            buf: Vec::new(),
            lineno: 0,
            header_seen: false,
            yielded: false,
            prev: None,
        }
    }
}

impl<R: BufRead + Send> ArrivalStream for CsvStream<R> {
    fn next_arrival(&mut self) -> Result<Option<SessionArrival>, EntkError> {
        loop {
            self.buf.clear();
            self.lineno += 1;
            let n = self.reader.read_until(b'\n', &mut self.buf).map_err(|e| {
                EntkError::Usage(format!("line {}: reading trace: {e}", self.lineno))
            })?;
            if n == 0 {
                if !self.header_seen {
                    return Err(EntkError::Usage("empty trace: missing header".into()));
                }
                if !self.yielded {
                    return Err(EntkError::Usage(
                        "empty trace: header but no data rows".into(),
                    ));
                }
                return Ok(None);
            }
            let line = std::str::from_utf8(&self.buf).map_err(|e| {
                EntkError::Usage(format!(
                    "line {}: trace is not valid UTF-8 ({e})",
                    self.lineno
                ))
            })?;
            let line = line.trim();
            if !self.header_seen {
                if line != TRACE_HEADER {
                    return Err(EntkError::Usage(format!(
                        "line 1: bad header {line:?} (expected {TRACE_HEADER:?})"
                    )));
                }
                self.header_seen = true;
                continue;
            }
            if line.is_empty() {
                continue;
            }
            let row = parse_row(line, self.lineno)?;
            if let Some(prev) = self.prev {
                if row.arrival < prev {
                    return Err(EntkError::Usage(format!(
                        "line {}: arrival_time {:.6} precedes the previous row's {:.6} \
                         (traces must be sorted by arrival_time)",
                        self.lineno,
                        row.arrival.as_secs_f64(),
                        prev.as_secs_f64(),
                    )));
                }
            }
            self.prev = Some(row.arrival);
            self.yielded = true;
            return Ok(Some(row));
        }
    }
}

/// A workload read from a CSV trace — either in-memory text or a
/// disk-backed file that is streamed row by row, never fully loaded.
#[derive(Debug, Clone)]
pub struct CsvTrace {
    source: CsvSource,
}

#[derive(Debug, Clone)]
enum CsvSource {
    Text(String),
    Path(String),
}

impl CsvTrace {
    /// Wraps trace text (parsed lazily, as the stream is pulled).
    pub fn new(text: impl Into<String>) -> Self {
        CsvTrace {
            source: CsvSource::Text(text.into()),
        }
    }

    /// References a trace file without reading it: rows are streamed from
    /// disk on demand, so the file may exceed memory. Unreadable paths
    /// fail here, before the first pull.
    pub fn from_path(path: &str) -> Result<Self, EntkError> {
        std::fs::File::open(path)
            .map_err(|e| EntkError::Usage(format!("reading trace {path:?}: {e}")))?;
        Ok(CsvTrace {
            source: CsvSource::Path(path.to_string()),
        })
    }
}

impl WorkloadGenerator for CsvTrace {
    fn stream(&self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        Ok(match &self.source {
            CsvSource::Text(text) => Box::new(CsvStream::new(std::io::Cursor::new(
                text.clone().into_bytes(),
            ))),
            CsvSource::Path(path) => {
                let file = std::fs::File::open(path)
                    .map_err(|e| EntkError::Usage(format!("reading trace {path:?}: {e}")))?;
                Box::new(CsvStream::new(std::io::BufReader::new(file)))
            }
        })
    }
}

/// The in-repo synthetic trace: a fixed Poisson-over-bursts mixture whose
/// CSV rendering ships with the repository's CI jobs — no external trace
/// data needed. Same seed ⇒ byte-identical CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticTrace {
    /// Master seed.
    pub seed: u64,
    /// Sessions to emit.
    pub sessions: usize,
    /// Tenant population size.
    pub tenants: u64,
}

impl SyntheticTrace {
    /// A synthetic trace of `sessions` sessions over `tenants` tenants.
    pub fn new(seed: u64, sessions: usize, tenants: u64) -> Self {
        SyntheticTrace {
            seed,
            sessions,
            tenants,
        }
    }

    /// Renders the synthetic workload as CSV trace text.
    pub fn to_csv(&self) -> Result<String, EntkError> {
        Ok(render_trace(&self.generate()?))
    }
}

impl WorkloadGenerator for SyntheticTrace {
    fn stream(&self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        // Two interleaved open-loop sources on forked seed streams: a
        // steady Poisson background and a bursty foreground, merged lazily
        // by arrival time with a deterministic tie-break (background
        // first). Only the two head rows are ever resident.
        let n_background = self.sessions.div_ceil(2);
        let n_bursts = self.sessions - n_background;
        let background =
            OpenLoopProcess::poisson(self.seed, n_background, self.tenants, 40.0).stream()?;
        let bursts: Box<dyn ArrivalStream> = if n_bursts == 0 {
            // sessions == 1 leaves the burst half empty; that is fine.
            Box::new(VecStream::new(Vec::new()))
        } else {
            OpenLoopProcess::burst(
                self.seed ^ 0x9E37_79B9_7F4A_7C15,
                n_bursts,
                self.tenants,
                4,
                180.0,
            )
            .stream()?
        };
        Ok(Box::new(MergeStream::new(background, bursts, |r| r, |r| r)))
    }
}

/// Lazily merges two already-sorted arrival streams by arrival time with
/// a deterministic tie-break (the first stream wins ties), applying a
/// per-stream row map as rows are pulled. This is how the synthetic
/// traces interleave their background and burst halves without
/// materializing either: resident state is exactly the two head rows.
struct MergeStream {
    a: Box<dyn ArrivalStream>,
    b: Box<dyn ArrivalStream>,
    map_a: fn(SessionArrival) -> SessionArrival,
    map_b: fn(SessionArrival) -> SessionArrival,
    head_a: Option<SessionArrival>,
    head_b: Option<SessionArrival>,
    primed: bool,
}

impl MergeStream {
    fn new(
        a: Box<dyn ArrivalStream>,
        b: Box<dyn ArrivalStream>,
        map_a: fn(SessionArrival) -> SessionArrival,
        map_b: fn(SessionArrival) -> SessionArrival,
    ) -> Self {
        MergeStream {
            a,
            b,
            map_a,
            map_b,
            head_a: None,
            head_b: None,
            primed: false,
        }
    }
}

impl ArrivalStream for MergeStream {
    fn next_arrival(&mut self) -> Result<Option<SessionArrival>, EntkError> {
        if !self.primed {
            self.head_a = self.a.next_arrival()?.map(self.map_a);
            self.head_b = self.b.next_arrival()?.map(self.map_b);
            self.primed = true;
        }
        let take_a = match (&self.head_a, &self.head_b) {
            (Some(x), Some(y)) => x.arrival <= y.arrival,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return Ok(None),
        };
        if take_a {
            let out = self.head_a.take();
            self.head_a = self.a.next_arrival()?.map(self.map_a);
            Ok(out)
        } else {
            let out = self.head_b.take();
            self.head_b = self.b.next_arrival()?.map(self.map_b);
            Ok(out)
        }
    }

    fn remaining_hint(&self) -> Option<usize> {
        let heads = usize::from(self.head_a.is_some()) + usize::from(self.head_b.is_some());
        match (self.a.remaining_hint(), self.b.remaining_hint()) {
            (Some(x), Some(y)) => Some(x + y + heads),
            _ => None,
        }
    }
}

/// A hot-tenant contention trace for fairness ablations: a steady Poisson
/// background over `tenants` light tenants (ids `1..=tenants`) with
/// tenant 0 dumping concentrated bursts on top. Under FIFO admission the
/// light tenants queue behind each burst; a fair-share policy lets them
/// jump it. Same seed ⇒ byte-identical CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotTenantTrace {
    /// Master seed.
    pub seed: u64,
    /// Total sessions to emit (split between background and bursts).
    pub sessions: usize,
    /// Light-tenant population size (the hot tenant is extra, id 0).
    pub tenants: u64,
}

impl HotTenantTrace {
    /// A hot-tenant trace of `sessions` sessions over `tenants` light
    /// tenants plus the bursting tenant 0.
    pub fn new(seed: u64, sessions: usize, tenants: u64) -> Self {
        HotTenantTrace {
            seed,
            sessions,
            tenants,
        }
    }

    /// Renders the workload as CSV trace text.
    pub fn to_csv(&self) -> Result<String, EntkError> {
        Ok(render_trace(&self.generate()?))
    }
}

impl WorkloadGenerator for HotTenantTrace {
    fn stream(&self) -> Result<Box<dyn ArrivalStream>, EntkError> {
        let n_background = self.sessions.div_ceil(2);
        let n_hot = self.sessions - n_background;
        let background =
            OpenLoopProcess::poisson(self.seed, n_background, self.tenants, 60.0).stream()?;
        let hot: Box<dyn ArrivalStream> = if n_hot == 0 {
            Box::new(VecStream::new(Vec::new()))
        } else {
            OpenLoopProcess::burst(self.seed ^ 0x5DEE_CE66_D5C5_133F, n_hot, 1, 8, 240.0)
                .stream()?
        };
        // The generators draw tenant ids in [0, tenants); shift the
        // background up so id 0 belongs exclusively to the hot tenant.
        Ok(Box::new(MergeStream::new(
            background,
            hot,
            |mut r| {
                r.tenant += 1;
                r
            },
            |mut r| {
                r.tenant = 0;
                r
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_trace() -> String {
        format!(
            "{TRACE_HEADER}\n\
             0.000000,3,eop,8,2,misc.sleep,32\n\
             12.504119,0,sal,16,1,md.amber,64\n\
             12.504119,1,ee,4,2,md.gromacs,16\n\
             900.000000,2,pst,4,3,misc.mkfile,16\n"
        )
    }

    #[test]
    fn parses_a_valid_trace() {
        let rows = parse_trace(&ok_trace()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].pattern, PatternKind::Eop);
        assert_eq!(rows[1].arrival.as_micros(), 12_504_119);
        assert_eq!(rows[2].kernel, "md.gromacs");
        assert_eq!(rows[3].tenant, 2);
    }

    #[test]
    fn render_parse_round_trips() {
        let rows = parse_trace(&ok_trace()).unwrap();
        let text = render_trace(&rows);
        assert_eq!(parse_trace(&text).unwrap(), rows);
        assert_eq!(text, ok_trace());
    }

    #[test]
    fn empty_trace_is_a_usage_error() {
        for text in ["", TRACE_HEADER, &format!("{TRACE_HEADER}\n\n")] {
            match parse_trace(text) {
                Err(EntkError::Usage(msg)) => assert!(msg.contains("empty trace"), "{msg}"),
                other => panic!("expected Usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_header_is_a_usage_error() {
        let text = "time,tenant\n0.0,1\n";
        match parse_trace(text) {
            Err(EntkError::Usage(msg)) => assert!(msg.contains("bad header"), "{msg}"),
            other => panic!("expected Usage error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_rows_are_usage_errors_with_line_numbers() {
        let cases = [
            ("0.0,1,eop,8,2,misc.sleep", "7 comma-separated"), // 6 fields
            ("zero,1,eop,8,2,misc.sleep,32", "bad arrival_time"),
            ("-1.0,1,eop,8,2,misc.sleep,32", "non-negative"),
            ("0.0,alice,eop,8,2,misc.sleep,32", "bad tenant"),
            ("0.0,1,eop,many,2,misc.sleep,32", "bad tasks"),
            ("0.0,1,eop,8,x,misc.sleep,32", "bad stages"),
            ("0.0,1,eop,8,2,misc.sleep,none", "bad cores"),
            ("0.0,1,eop,0,2,misc.sleep,32", "tasks must be"),
            ("0.0,1,eop,8,0,misc.sleep,32", "stages must be"),
            ("0.0,1,eop,8,2,misc.sleep,0", "cores must be"),
        ];
        for (row, needle) in cases {
            let text = format!("{TRACE_HEADER}\n{row}\n");
            match parse_trace(&text) {
                Err(EntkError::Usage(msg)) => {
                    assert!(msg.contains("line 2"), "{msg}");
                    assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
                }
                other => panic!("row {row:?}: expected Usage error, got {other:?}"),
            }
        }
    }

    /// An arrival at or past the clock's last instant used to clamp to it:
    /// both such sessions of a one-slot serve then ran at that one instant,
    /// each recorded with zero latency.
    #[test]
    fn an_arrival_time_past_the_clock_is_a_usage_error() {
        let text = format!(
            "{TRACE_HEADER}\n\
             0.0,1,eop,8,2,misc.sleep,32\n\
             1e300,2,eop,8,2,misc.sleep,32\n\
             1e300,3,eop,8,2,misc.sleep,32\n"
        );
        match parse_trace(&text) {
            Err(EntkError::Usage(msg)) => {
                assert!(msg.starts_with("line 3: arrival_time"), "{msg}");
                assert!(msg.contains("below 1.8e13 s, got 1e300"), "{msg}");
            }
            other => panic!("expected Usage error, got {other:?}"),
        }
        let last = SimDuration::MAX.as_secs_f64();
        let text = format!("{TRACE_HEADER}\n{last},1,eop,8,2,misc.sleep,32\n");
        assert!(parse_trace(&text).is_err(), "the clock's last instant");
    }

    #[test]
    fn unknown_pattern_and_kernel_are_usage_errors() {
        let bad_pattern = format!("{TRACE_HEADER}\n0.0,1,dag,8,2,misc.sleep,32\n");
        match parse_trace(&bad_pattern) {
            Err(EntkError::Usage(msg)) => assert!(msg.contains("unknown pattern"), "{msg}"),
            other => panic!("expected Usage error, got {other:?}"),
        }
        let bad_kernel = format!("{TRACE_HEADER}\n0.0,1,eop,8,2,md.lammps,32\n");
        match parse_trace(&bad_kernel) {
            Err(EntkError::Usage(msg)) => assert!(msg.contains("unknown kernel"), "{msg}"),
            other => panic!("expected Usage error, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_arrivals_are_usage_errors() {
        let text = format!(
            "{TRACE_HEADER}\n\
             10.000000,1,eop,8,2,misc.sleep,32\n\
             5.000000,1,eop,8,2,misc.sleep,32\n"
        );
        match parse_trace(&text) {
            Err(EntkError::Usage(msg)) => {
                assert!(msg.contains("line 3"), "{msg}");
                assert!(msg.contains("sorted by arrival_time"), "{msg}");
            }
            other => panic!("expected Usage error, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_trace_replays_and_round_trips() {
        let synth = SyntheticTrace::new(11, 60, 12);
        let rows = synth.generate().unwrap();
        assert_eq!(rows.len(), 60);
        for w in rows.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        assert_eq!(rows, synth.generate().unwrap());
        let csv = synth.to_csv().unwrap();
        assert_eq!(parse_trace(&csv).unwrap(), rows);
        assert_eq!(csv, synth.to_csv().unwrap());
    }

    #[test]
    fn reserved_tenant_sentinel_is_rejected_with_line_number() {
        // u64::MAX is the all-tenants aggregate sentinel in latency
        // reports; a trace row claiming it used to merge silently into
        // the aggregate.
        let text = format!(
            "{TRACE_HEADER}\n\
             0.000000,1,eop,8,2,misc.sleep,32\n\
             5.000000,18446744073709551615,eop,8,2,misc.sleep,32\n"
        );
        match parse_trace(&text) {
            Err(EntkError::Usage(msg)) => {
                assert!(msg.contains("line 3"), "{msg}");
                assert!(msg.contains("reserved"), "{msg}");
            }
            other => panic!("expected Usage error, got {other:?}"),
        }
    }

    #[test]
    fn hot_tenant_trace_isolates_tenant_zero_bursts() {
        let trace = HotTenantTrace::new(5, 40, 6);
        let rows = trace.generate().unwrap();
        assert_eq!(rows.len(), 40);
        for w in rows.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        let hot = rows.iter().filter(|r| r.tenant == 0).count();
        assert_eq!(hot, 20, "the hot tenant submits half the stream");
        assert!(rows.iter().all(|r| r.tenant <= 6));
        assert_eq!(rows, trace.generate().unwrap());
        let csv = trace.to_csv().unwrap();
        assert_eq!(parse_trace(&csv).unwrap(), rows);
    }

    #[test]
    fn csv_trace_generator_delegates_to_parse() {
        let gen = CsvTrace::new(ok_trace());
        assert_eq!(gen.generate().unwrap().len(), 4);
        assert!(CsvTrace::new("garbage").generate().is_err());
        assert!(CsvTrace::from_path("/nonexistent/trace.csv").is_err());
    }

    #[test]
    fn invalid_utf8_is_a_typed_error_with_line_number() {
        let mut bytes = format!("{TRACE_HEADER}\n0.0,1,eop,8,2,misc.sleep,32\n").into_bytes();
        bytes.extend_from_slice(b"\xff\xfe,1,eop,8,2,misc.sleep,32\n");
        let mut stream = CsvStream::new(std::io::Cursor::new(bytes));
        assert!(stream.next_arrival().unwrap().is_some());
        match stream.next_arrival() {
            Err(EntkError::Usage(msg)) => {
                assert!(msg.contains("line 3"), "{msg}");
                assert!(msg.contains("UTF-8"), "{msg}");
            }
            other => panic!("expected Usage error, got {other:?}"),
        }
    }

    #[test]
    fn file_backed_trace_streams_without_loading_the_file() {
        let path = std::env::temp_dir().join(format!("entk-trace-test-{}.csv", std::process::id()));
        std::fs::write(&path, ok_trace()).unwrap();
        let gen = CsvTrace::from_path(path.to_str().unwrap()).unwrap();
        let mut stream = gen.stream().unwrap();
        let mut rows = Vec::new();
        while let Some(row) = stream.next_arrival().unwrap() {
            rows.push(row);
        }
        std::fs::remove_file(&path).unwrap();
        assert_eq!(rows, parse_trace(&ok_trace()).unwrap());
        // Each stream() call opens its own handle; with the file deleted,
        // a fresh stream fails at open time rather than mid-pull.
        assert!(gen.generate().is_err());
    }

    #[test]
    fn streamed_order_violations_fail_at_the_offending_row() {
        let text = format!(
            "{TRACE_HEADER}\n\
             10.000000,1,eop,8,2,misc.sleep,32\n\
             5.000000,1,eop,8,2,misc.sleep,32\n"
        );
        let mut stream = CsvStream::new(std::io::Cursor::new(text.into_bytes()));
        // The first row parses fine; the violation surfaces on the pull
        // that reads the out-of-order row, not upfront.
        assert!(stream.next_arrival().unwrap().is_some());
        match stream.next_arrival() {
            Err(EntkError::Usage(msg)) => {
                assert!(msg.contains("line 3"), "{msg}");
                assert!(msg.contains("sorted by arrival_time"), "{msg}");
            }
            other => panic!("expected Usage error, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_traces_stream_lazily_with_exact_hints() {
        for sessions in [1usize, 2, 17, 60] {
            let synth = SyntheticTrace::new(11, sessions, 12);
            let mut stream = synth.stream().unwrap();
            assert_eq!(stream.remaining_hint(), Some(sessions));
            let mut rows = Vec::new();
            while let Some(row) = stream.next_arrival().unwrap() {
                rows.push(row);
            }
            assert_eq!(rows, synth.generate().unwrap());
            assert_eq!(stream.remaining_hint(), Some(0));
        }
        let hot = HotTenantTrace::new(5, 40, 6);
        let mut stream = hot.stream().unwrap();
        assert_eq!(stream.remaining_hint(), Some(40));
        let mut rows = Vec::new();
        while let Some(row) = stream.next_arrival().unwrap() {
            rows.push(row);
        }
        assert_eq!(rows, hot.generate().unwrap());
    }
}
