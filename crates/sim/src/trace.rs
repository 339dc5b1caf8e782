//! Structured trace of simulation events, mirroring RADICAL-Pilot's profiler.
//!
//! Every layer (cluster, pilot, toolkit) appends timestamped records to a
//! shared [`Tracer`] through one [`SharedTelemetry`] handle per session;
//! the trace is the session's only telemetry. The overhead decomposition
//! in the paper's Fig. 3 is computed from intervals between these records.
//!
//! The vocabulary is closed: a record is a virtual time, a [`TraceKind`]
//! and the id of the entity it is about, 24 bytes, so text exists only at
//! export time and a misspelt event name does not compile. Two exporters
//! are provided — flat JSONL ([`Tracer::write_jsonl`], [`Tracer::to_jsonl`])
//! and Chrome trace-event JSON ([`Tracer::write_chrome_json`],
//! [`Tracer::to_chrome_json`]), loadable in Perfetto or `chrome://tracing`.
//! A caller that only needs to know whether two traces are the same bytes
//! asks for [`Tracer::fingerprint`], which hashes the JSONL bytes without
//! rendering them: the numbers byte by byte, the constant text around them
//! one table step per run of bytes.

use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::io;
use std::rc::Rc;
use std::sync::OnceLock;

/// The entity a trace record is about.
///
/// Rendered as text only at export/query time (`task.000042`,
/// `unit.000042`, …), so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subject {
    /// The whole session (allocate → deallocate).
    Session,
    /// An EnTK task by uid.
    Task(u64),
    /// A batch of tasks released together by the pattern.
    Batch(u64),
    /// A runtime unit by id.
    Unit(u64),
    /// A pilot by id.
    Pilot(u64),
    /// A batch-system job by id.
    Job(u64),
    /// A cluster node by index.
    Node(u64),
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, id) = self.split();
        f.write_str(kind.prefix)?;
        match kind.width {
            Some(width) => write!(f, "{id:0width$}"),
            None => Ok(()),
        }
    }
}

impl Subject {
    /// Its kind and its id (0 for the session).
    pub(crate) const fn split(self) -> (SubjectKind, u64) {
        match self {
            Subject::Session => (SubjectKind::SESSION, 0),
            Subject::Task(i) => (SubjectKind::TASK, i),
            Subject::Batch(i) => (SubjectKind::BATCH, i),
            Subject::Unit(i) => (SubjectKind::UNIT, i),
            Subject::Pilot(i) => (SubjectKind::PILOT, i),
            Subject::Job(i) => (SubjectKind::JOB, i),
            Subject::Node(i) => (SubjectKind::NODE, i),
        }
    }
}

/// A kind of subject: each [`TraceKind`] fixes one, so a record keeps only
/// the id. The one table behind `Display`, the JSONL renderer and the
/// Chrome tracks.
#[derive(Clone, Copy)]
pub(crate) struct SubjectKind {
    /// The subject with a given id.
    of: fn(u64) -> Subject,
    /// The text before the id; no two kinds share one.
    prefix: &'static str,
    /// The width the id is zero-padded to (a wider id prints in full).
    width: Option<usize>,
    /// Its first Chrome track: kinds of one layer never share a track.
    track: u64,
}

impl SubjectKind {
    const SESSION: Self = Self::new(|_| Subject::Session, "session", None, 0);
    const TASK: Self = Self::new(Subject::Task, "task.", Some(6), 1);
    const BATCH: Self = Self::new(Subject::Batch, "batch.", Some(4), 1_000_000);
    const UNIT: Self = Self::new(Subject::Unit, "unit.", Some(6), 1);
    const PILOT: Self = Self::new(Subject::Pilot, "pilot.", Some(4), 1_000_000);
    const JOB: Self = Self::new(Subject::Job, "job.", Some(6), 1);
    const NODE: Self = Self::new(Subject::Node, "node.", Some(4), 1_000_000);

    const fn new(
        of: fn(u64) -> Subject,
        prefix: &'static str,
        width: Option<usize>,
        track: u64,
    ) -> Self {
        SubjectKind {
            of,
            prefix,
            width,
            track,
        }
    }
}

/// The layer a record comes from; its value is the layer's Chrome trace
/// process id.
#[derive(Clone, Copy)]
enum Layer {
    Entk = 1,
    Pilot = 2,
    Cluster = 3,
}

impl Layer {
    const fn name(self) -> &'static str {
        ["entk", "pilot", "cluster"][self as usize - 1]
    }
}

/// What a record does on the Chrome timeline: lifecycle pairs open and
/// close a named duration span on their subject's track, everything else
/// is an instant marker.
#[derive(Clone, Copy)]
enum SpanRole {
    Begin(&'static str),
    End(&'static str),
    Instant,
}

/// One row of the vocabulary table.
struct Row {
    layer: Layer,
    name: &'static str,
    subject: SubjectKind,
    span: SpanRole,
}

/// Declares [`TraceKind`] and its table from one list of rows:
/// `Kind: Layer "event_name" SubjectKind SpanRole;`.
macro_rules! vocabulary {
    ($($kind:ident: $layer:ident $name:literal $subject:ident $span:ident $(($open:literal))?;)*) => {
        /// One traced event: the closed vocabulary every layer records in.
        ///
        /// A kind fixes its layer, its event name, the kind of entity it is
        /// about and its role on the Chrome timeline, all in one table, so
        /// a record carries only a time, a kind and an id.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum TraceKind {
            $(
                #[doc = concat!("`", $name, "`.")]
                $kind,
            )*
        }

        impl TraceKind {
            /// Every kind, in table order (`ALL[k as usize] == k`).
            pub const ALL: &'static [TraceKind] = &[$(TraceKind::$kind),*];

            /// The kind a `(layer, name)` pair names, if the vocabulary has
            /// it (names are unique across layers).
            pub fn parse(layer: &str, name: &str) -> Option<TraceKind> {
                let kind = match name {
                    $($name => TraceKind::$kind,)*
                    _ => return None,
                };
                (kind.layer() == layer).then_some(kind)
            }

            const fn row(self) -> Row {
                match self {
                    $(TraceKind::$kind => Row {
                        layer: Layer::$layer,
                        name: $name,
                        subject: SubjectKind::$subject,
                        span: SpanRole::$span $(($open))?,
                    },)*
                }
            }
        }
    };
}

vocabulary! {
    SessionStart: Entk "session_start" SESSION Instant;
    ResourceReady: Entk "resource_ready" SESSION Instant;
    TasksCreated: Entk "tasks_created" BATCH Instant;
    TasksSubmitted: Entk "tasks_submitted" BATCH Instant;
    TaskCreated: Entk "task_created" TASK Instant;
    TaskSubmitted: Entk "task_submitted" TASK Begin("attempt");
    TaskAttemptFailed: Entk "task_attempt_failed" TASK End("attempt");
    TaskRetry: Entk "task_retry" TASK Instant;
    TaskFailed: Entk "task_failed" TASK Instant;
    TaskDone: Entk "task_done" TASK End("attempt");
    TeardownStart: Entk "teardown_start" SESSION Instant;
    TeardownDone: Entk "teardown_done" SESSION Instant;
    PilotSubmitted: Pilot "pilot_submitted" PILOT Begin("pilot");
    PilotLaunched: Pilot "pilot_launched" PILOT Instant;
    PilotActive: Pilot "pilot_active" PILOT Instant;
    PilotShrunk: Pilot "pilot_shrunk" PILOT Instant;
    PilotDone: Pilot "pilot_done" PILOT End("pilot");
    PilotCancelled: Pilot "pilot_cancelled" PILOT End("pilot");
    PilotFailed: Pilot "pilot_failed" PILOT End("pilot");
    UnitSubmitted: Pilot "unit_submitted" UNIT Instant;
    UnitScheduled: Pilot "unit_scheduled" UNIT Instant;
    UnitExecStart: Pilot "unit_exec_start" UNIT Begin("exec");
    UnitExecStop: Pilot "unit_exec_stop" UNIT End("exec");
    UnitDone: Pilot "unit_done" UNIT Instant;
    UnitCanceled: Pilot "unit_canceled" UNIT Instant;
    UnitFailed: Pilot "unit_failed" UNIT Instant;
    JobQueued: Cluster "job_queued" JOB Instant;
    JobRejected: Cluster "job_rejected" JOB Instant;
    JobStarted: Cluster "job_started" JOB Begin("job_run");
    JobRunning: Cluster "job_running" JOB Instant;
    JobShrunk: Cluster "job_shrunk" JOB Instant;
    JobCompleted: Cluster "job_completed" JOB End("job_run");
    JobFailed: Cluster "job_failed" JOB End("job_run");
    JobTimedOut: Cluster "job_timedout" JOB End("job_run");
    JobCancelled: Cluster "job_cancelled" JOB End("job_run");
    NodeCrash: Cluster "node_crash" NODE Instant;
    NodeRecover: Cluster "node_recover" NODE Instant;
}

impl TraceKind {
    /// The emitting layer: `"entk"`, `"pilot"` or `"cluster"`.
    pub const fn layer(self) -> &'static str {
        self.row().layer.name()
    }

    /// The event name, e.g. `"unit_scheduled"`.
    pub const fn name(self) -> &'static str {
        self.row().name
    }

    /// The bytes of a JSONL line between its time and its subject id.
    fn template(self) -> String {
        let (layer, name, prefix) = (self.layer(), self.name(), self.row().subject.prefix);
        format!(",\"layer\":\"{layer}\",\"event\":\"{name}\",\"subject\":\"{prefix}")
    }
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the record.
    pub time: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// The id of the entity it happened to, of the kind `kind` fixes (0
    /// for the session).
    pub id: u64,
}

const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 24);

impl TraceRecord {
    /// The entity the record is about.
    pub fn subject(&self) -> Subject {
        (self.kind.row().subject.of)(self.id)
    }
}

/// An append-only collection of trace records.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    records: Vec<TraceRecord>,
    enabled: bool,
}

impl Tracer {
    /// Creates an enabled tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// Creates a tracer that drops all records (zero overhead bookkeeping).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Appends a record of `kind` about entity `id` if tracing is enabled. Past
    /// `SCRATCH_KEEP` records a full trace grows by a quarter of a power of two.
    pub fn record(&mut self, time: SimTime, kind: TraceKind, id: u64) {
        if self.enabled {
            let len = self.records.len();
            if len == self.records.capacity() && len >= crate::arena::SCRATCH_KEEP {
                self.records.reserve_exact(1 << (len.ilog2() - 2));
            }
            self.records.push(TraceRecord { time, kind, id });
        }
    }

    /// All records in append order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records of one kind.
    pub fn filter(&self, kind: TraceKind) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Time of the first record of `kind` about entity `id`, if any.
    pub fn time_of(&self, kind: TraceKind, id: u64) -> Option<SimTime> {
        self.filter(kind).find(|r| r.id == id).map(|r| r.time)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Writes the trace as flat JSONL: one object per record, in append
    /// order, with times in virtual seconds. Lines are rendered one at a time
    /// into a reused buffer, so nothing but `out` grows with the trace.
    pub fn write_jsonl(&self, out: &mut impl io::Write) -> io::Result<()> {
        let mut line = Vec::with_capacity(128);
        for r in &self.records {
            line.clear();
            render_jsonl_line(&mut line, r);
            out.write_all(&line)?;
        }
        Ok(())
    }

    /// The JSONL export ([`Self::write_jsonl`]) as one string.
    pub fn to_jsonl(&self) -> String {
        collect_export(self.records.len() * 80, |out| self.write_jsonl(out))
    }

    /// FNV-1a 64 over exactly the bytes [`Self::to_jsonl`] returns, without
    /// building them: two traces with equal fingerprints export the same
    /// JSONL (up to hash collision).
    ///
    /// A line is a constant opening, the time digits, a template fixed by
    /// the record's kind, the id digits and a constant close. Digits are
    /// folded byte by byte; each constant run is one table step (`Skip`),
    /// one per kind, built once per process.
    pub fn fingerprint(&self) -> u64 {
        let table = templates();
        let mut hash = Fnv64::new();
        let mut digits = [0; 20];
        for r in &self.records {
            let micros = r.time.as_micros();
            table.open.apply(&mut hash);
            hash.update(decimal(&mut digits, micros / 1_000_000, 1));
            hash.update(b".");
            hash.update(decimal(&mut digits, micros % 1_000_000, 6));
            table.kinds[r.kind as usize].1.apply(&mut hash);
            if let Some(width) = r.kind.row().subject.width {
                hash.update(decimal(&mut digits, r.id, width));
            }
            table.close.apply(&mut hash);
        }
        hash.finish()
    }

    /// Writes the trace in Chrome trace-event JSON (the `traceEvents`
    /// array format), loadable in Perfetto or `chrome://tracing`.
    ///
    /// Each layer becomes one process (named track); entities become
    /// threads within it. Lifecycle event pairs (task attempts, unit
    /// executions, pilot lifetimes, job runs) render as duration spans;
    /// everything else as instant markers. Timestamps are virtual-clock
    /// microseconds, so the timeline reads in simulated time. An end with no
    /// open span of its kind on its track, and a begin on a track whose span
    /// is already open, are dropped so spans always balance.
    ///
    /// Events go to `out` as they are produced and open spans are keyed in a
    /// hash set, so time is linear in the trace however many spans are open
    /// at once; hand it a buffered writer.
    pub fn write_chrome_json(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(b"{\"traceEvents\":[\n")?;
        let mut sep: &[u8] = b"";
        let mut event = |out: &mut _, json: fmt::Arguments<'_>| -> io::Result<()> {
            io::Write::write_all(out, sep)?;
            sep = b",\n";
            io::Write::write_fmt(out, json)
        };
        let mut named_pids = Vec::new();
        // (span opened, track) → guards unbalanced end events. A span name
        // belongs to one layer, so it stands for the layer too.
        let mut open: HashSet<(&'static str, u64)> = HashSet::new();
        for r in &self.records {
            let row = r.kind.row();
            let (layer, pid) = (row.layer.name(), row.layer as u64);
            if !named_pids.contains(&pid) {
                named_pids.push(pid);
                event(
                    out,
                    format_args!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                         \"args\":{{\"name\":\"{layer}\"}}}}"
                    ),
                )?;
            }
            let tid = row.subject.track + r.id;
            let subject = r.subject();
            // An instant's phase carries its scope too.
            let (name, ph, key, value): (_, _, _, &dyn fmt::Display) = match row.span {
                SpanRole::Begin(span) if open.insert((span, tid)) => {
                    (span, "B", "subject", &subject)
                }
                SpanRole::End(span) if open.remove(&(span, tid)) => (span, "E", "end", &row.name),
                SpanRole::Begin(_) | SpanRole::End(_) => continue,
                SpanRole::Instant => (row.name, "i\",\"s\":\"t", "subject", &subject),
            };
            event(
                out,
                format_args!(
                    "{{\"name\":\"{name}\",\"cat\":\"{layer}\",\"ph\":\"{ph}\",\"ts\":{},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{{\"{key}\":\"{value}\"}}}}",
                    r.time.as_micros()
                ),
            )?;
        }
        out.write_all(b"\n]}\n")
    }

    /// The Chrome trace-event export ([`Self::write_chrome_json`]) as one
    /// string.
    pub fn to_chrome_json(&self) -> String {
        collect_export(self.records.len() * 128, |out| self.write_chrome_json(out))
    }
}

/// Runs an exporter into memory and returns what it wrote as a string.
fn collect_export(capacity: usize, export: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::with_capacity(capacity);
    export(&mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the vocabulary's names are ASCII, and so is the rest")
}

/// Appends one record's JSONL line (with its newline) to `buf`.
///
/// The timestamp is printed from the integer microsecond count as
/// `{µs / 10^6}.{µs % 10^6:06}`. That is byte for byte what `{:.6}` of
/// [`SimTime::as_secs_f64`] prints for every time below 2^33 s (about 272
/// simulated years): a double's half-ulp there is 2^-21 s, under the 0.5 µs
/// that would round to a neighbouring digit. From 2^33 s on the float loses
/// microseconds and this stays exact. No `format!`, no float formatting and
/// no allocation once `buf` has grown to a line's length.
fn render_jsonl_line(buf: &mut Vec<u8>, r: &TraceRecord) {
    let micros = r.time.as_micros();
    let mut digits = [0; 20];
    buf.extend_from_slice(LINE_OPEN);
    buf.extend_from_slice(decimal(&mut digits, micros / 1_000_000, 1));
    buf.push(b'.');
    buf.extend_from_slice(decimal(&mut digits, micros % 1_000_000, 6));
    buf.extend_from_slice(templates().kinds[r.kind as usize].0.as_bytes());
    if let Some(width) = r.kind.row().subject.width {
        buf.extend_from_slice(decimal(&mut digits, r.id, width));
    }
    buf.extend_from_slice(LINE_CLOSE);
}

/// What every JSONL line starts with, before its time.
const LINE_OPEN: &[u8] = b"{\"t\":";

/// What every JSONL line ends with, after its subject.
const LINE_CLOSE: &[u8] = b"\"}\n";

/// `n` in decimal, zero-padded on the left to at least `width` digits
/// (`width` ≤ 20, the length of `u64::MAX`), written into the tail of
/// `digits`.
fn decimal(digits: &mut [u8; 20], mut n: u64, width: usize) -> &[u8] {
    let mut first = digits.len();
    loop {
        first -= 1;
        digits[first] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    while first > digits.len() - width {
        first -= 1;
        digits[first] = b'0';
    }
    &digits[first..]
}

/// An FNV-1a 64 running hash: the one fingerprint function of the
/// repository (trace, stream and sink goldens all fold through it).
///
/// `update` may be called any number of times — hashing `a` then `b` equals
/// hashing `a ++ b` — and the state is one `u64` that [`Self::finish`]
/// returns and [`Self::from_state`] resumes from. It is an [`io::Write`]
/// sink, so anything that can write itself out can be fingerprinted without
/// being held in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The state of the empty input.
    pub const fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Resumes from a state [`Self::finish`] returned.
    pub const fn from_state(state: u64) -> Self {
        Fnv64(state)
    }

    /// Folds `bytes` into the state.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }

    /// The hash of everything folded in so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl io::Write for Fnv64 {
    #[inline]
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The FNV-1a 64 multiplier.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// [`Fnv64::update`] over one constant byte string `seg`, in one step.
///
/// XOR with a byte touches only the low 8 bits of the state and a multiply
/// carries only upwards, so for a state `h = a + l` with `l = h & 0xff`,
/// folding `seg` gives `a·Pⁿ + fold(l, seg)`, `n = seg.len()`. That is
/// `h·Pⁿ + add[l]` with `add[l] = fold(l, seg) − l·Pⁿ` (all mod 2^64): one
/// multiply, one load and one add, the same state as the byte-wise fold.
struct Skip {
    /// `Pⁿ`.
    mul: u64,
    /// `fold(l, seg) − l·Pⁿ` for every low byte `l`.
    add: [u64; 256],
}

impl Skip {
    fn new(seg: &[u8]) -> Skip {
        let mul = FNV_PRIME.wrapping_pow(seg.len() as u32);
        let mut add = [0; 256];
        for (l, add) in (0u64..).zip(&mut add) {
            let mut fold = Fnv64::from_state(l);
            fold.update(seg);
            *add = fold.finish().wrapping_sub(l.wrapping_mul(mul));
        }
        Skip { mul, add }
    }

    #[inline]
    fn apply(&self, hash: &mut Fnv64) {
        let h = hash.0;
        hash.0 = h
            .wrapping_mul(self.mul)
            .wrapping_add(self.add[(h & 0xff) as usize]);
    }
}

/// Every kind's template with its skip, and the skips of a line's opening
/// and close: a kind fixes its template, so this is built once a process.
struct Templates {
    open: Skip,
    close: Skip,
    /// By `TraceKind as usize`.
    kinds: Box<[(String, Skip)]>,
}

fn templates() -> &'static Templates {
    static TEMPLATES: OnceLock<Templates> = OnceLock::new();
    let template = |k: &TraceKind| (k.template(), Skip::new(k.template().as_bytes()));
    TEMPLATES.get_or_init(|| Templates {
        open: Skip::new(LINE_OPEN),
        close: Skip::new(LINE_CLOSE),
        kinds: TraceKind::ALL.iter().map(template).collect(),
    })
}

/// Per-kind id offsets applied to subjects as they are recorded.
///
/// Federated sessions run several independently simulated clusters, each
/// numbering its pilots, units, jobs, and nodes from zero. Giving every
/// cluster's layers a handle carrying distinct offsets keeps subjects
/// globally unique in the shared trace while leaving the recording layers
/// untouched. Zero offsets (the default) are the identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubjectOffsets {
    /// Added to [`Subject::Pilot`] ids.
    pub pilot: u64,
    /// Added to [`Subject::Unit`] ids.
    pub unit: u64,
    /// Added to [`Subject::Job`] ids.
    pub job: u64,
    /// Added to [`Subject::Node`] ids.
    pub node: u64,
}

impl SubjectOffsets {
    /// The offset added to the id of `subject`.
    fn of(&self, subject: Subject) -> u64 {
        match subject {
            Subject::Pilot(_) => self.pilot,
            Subject::Unit(_) => self.unit,
            Subject::Job(_) => self.job,
            Subject::Node(_) => self.node,
            Subject::Session | Subject::Task(_) | Subject::Batch(_) => 0,
        }
    }
}

/// The backend-side end of a buffered telemetry handle: the records a
/// federation member logged and that are not yet spliced into the shared
/// pipeline.
///
/// The windowed federated drive gives each member cluster a *buffered*
/// telemetry handle (see [`SharedTelemetry::buffered`]): a member's
/// window appends records to a member-private log instead of the shared
/// trace, and the merge spine later moves them, oldest first, into the
/// session trace in deterministic chunk order — so the interleaved trace
/// does not depend on the order members were advanced in.
#[derive(Debug, Clone)]
pub struct TelemetryBuffer {
    records: Rc<RefCell<VecDeque<TraceRecord>>>,
}

impl TelemetryBuffer {
    /// Number of records waiting to be spliced.
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves the `n` oldest records out of the log into `target`'s shared
    /// trace, verbatim (subject offsets were applied when they were
    /// recorded): the log holds a record only until it is spliced.
    pub fn splice_into(&self, target: &SharedTelemetry, n: usize) {
        let tracer = &mut target.inner.borrow_mut().tracer;
        for r in self.records.borrow_mut().drain(..n) {
            tracer.record(r.time, r.kind, r.id);
        }
    }
}

/// Everything the observability layer collects during one simulated
/// session: its trace.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Cross-layer event trace.
    pub tracer: Tracer,
}

/// A cheaply clonable handle to one session's [`Telemetry`], shared by the
/// cluster, pilot, and toolkit layers, which record trace records through
/// it and nothing else.
///
/// A session runs on one thread, so its handles share the pipeline through
/// an `Rc` and record with no lock; the type is `!Send`, so the compiler
/// refuses a handle that would cross a thread:
///
/// ```compile_fail
/// use entk_sim::{SharedTelemetry, SimTime, TraceKind};
/// let telemetry = SharedTelemetry::new();
/// std::thread::spawn(move || telemetry.emit(SimTime::ZERO, TraceKind::SessionStart, 0));
/// ```
///
/// The `enabled` flag is copied into the handle so a disabled pipeline
/// records nothing on the hot path. What leaves a session is the
/// [`Telemetry`] that [`Self::take`] moves out, which is `Send`.
#[derive(Debug, Clone)]
pub struct SharedTelemetry {
    inner: Rc<RefCell<Telemetry>>,
    enabled: bool,
    offsets: SubjectOffsets,
    /// When set, records are appended here (offsets pre-applied) instead of
    /// the shared trace; a merge spine splices them in later.
    buffer: Option<Rc<RefCell<VecDeque<TraceRecord>>>>,
}

impl Default for SharedTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedTelemetry {
    /// Creates an enabled shared telemetry pipeline.
    pub fn new() -> Self {
        Self::over(Tracer::new(), true)
    }

    /// Creates a pipeline that drops everything recorded into it.
    pub fn disabled() -> Self {
        Self::over(Tracer::disabled(), false)
    }

    fn over(tracer: Tracer, enabled: bool) -> Self {
        SharedTelemetry {
            inner: Rc::new(RefCell::new(Telemetry { tracer })),
            enabled,
            offsets: SubjectOffsets::default(),
            buffer: None,
        }
    }

    /// A handle onto the same underlying telemetry that remaps subject ids
    /// by `offsets` as records arrive. Used by federated sessions to give
    /// each cluster's layers a collision-free id space within one shared
    /// trace; zero offsets return an equivalent plain clone.
    pub fn with_subject_offsets(&self, offsets: SubjectOffsets) -> SharedTelemetry {
        SharedTelemetry {
            offsets,
            ..self.clone()
        }
    }

    /// A handle onto the same underlying telemetry that *buffers* records
    /// (offsets pre-applied) instead of writing them through, plus the
    /// [`TelemetryBuffer`] to splice them from. The windowed federated drive
    /// hands the buffered handle to one member's layers so a member never
    /// touches the shared trace mid-window; the merge spine drains the log
    /// via [`TelemetryBuffer::splice_into`] in deterministic order.
    pub fn buffered(&self, offsets: SubjectOffsets) -> (SharedTelemetry, TelemetryBuffer) {
        let records = Rc::default();
        let handle = SharedTelemetry {
            offsets,
            buffer: Some(Rc::clone(&records)),
            ..self.clone()
        };
        (handle, TelemetryBuffer { records })
    }

    /// Appends a record of `kind` about entity `id` (0 for the session), or
    /// logs it in a buffered handle's log.
    pub fn emit(&self, time: SimTime, kind: TraceKind, id: u64) {
        if self.enabled {
            self.append(time, kind, id);
        }
    }

    /// Writes a record through, or into the log of a buffered handle. Out
    /// of line, so that a disabled [`Self::emit`] is a flag test that saves
    /// no registers.
    #[inline(never)]
    fn append(&self, time: SimTime, kind: TraceKind, id: u64) {
        let id = id + self.offsets.of((kind.row().subject.of)(id));
        match &self.buffer {
            Some(buf) => buf.borrow_mut().push_back(TraceRecord { time, kind, id }),
            None => self.inner.borrow_mut().tracer.record(time, kind, id),
        }
    }

    /// A point-in-time copy of everything collected so far.
    pub fn snapshot(&self) -> Telemetry {
        self.inner.borrow().clone()
    }

    /// Moves everything collected so far out, leaving the pipeline with an
    /// empty, disabled tracer: what a finished session hands over instead
    /// of a [`Self::snapshot`] copy.
    pub fn take(&self) -> Telemetry {
        self.inner.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use TraceKind::*;

    #[test]
    fn records_and_filters() {
        let mut t = Tracer::new();
        t.record(SimTime::from_secs(1), UnitScheduled, 0);
        t.record(SimTime::from_secs(2), UnitExecStart, 0);
        t.record(SimTime::from_secs(2), UnitScheduled, 1);
        assert_eq!(t.len(), 3);
        assert_eq!(t.filter(UnitScheduled).count(), 2);
        assert_eq!(t.time_of(UnitExecStart, 0), Some(SimTime::from_secs(2)));
        assert_eq!(t.time_of(UnitExecStart, 1), None);
        assert_eq!(t.records()[2].subject(), Subject::Unit(1));
    }

    #[test]
    fn disabled_tracer_drops_records() {
        let mut t = Tracer::disabled();
        t.record(SimTime::ZERO, TaskDone, 0);
        assert!(t.is_empty());
    }

    /// A full trace doubles up to `SCRATCH_KEEP` records, then grows by a
    /// quarter of the power of two at or below its length: its room steps
    /// through 1, 1.25, 1.5 and 1.75 times a power of two.
    #[test]
    fn a_long_trace_grows_by_quarters_of_a_power_of_two() {
        let mut t = Tracer::new();
        let mut rooms = Vec::new();
        for i in 0..20_000 {
            t.record(SimTime::ZERO, TaskDone, i);
            if rooms.last() != Some(&t.records.capacity()) {
                rooms.push(t.records.capacity());
            }
        }
        let past = rooms.iter().position(|&room| room > 4_096).unwrap();
        assert!(rooms[..past].iter().all(|room| room.is_power_of_two()));
        assert_eq!(
            rooms[past..],
            [5_120, 6_144, 7_168, 8_192, 10_240, 12_288, 14_336, 16_384, 20_480]
        );
    }

    /// The table is the vocabulary: every kind has its own (layer, name)
    /// pair, parses back from it, and sits at its own index of `ALL`.
    #[test]
    fn every_kind_has_one_pair_that_parses_back() {
        let mut pairs = HashSet::new();
        for (i, &k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?} is out of table order");
            assert!(pairs.insert((k.layer(), k.name())), "{k:?}'s pair is taken");
            assert_eq!(TraceKind::parse(k.layer(), k.name()), Some(k));
            assert!(["entk", "pilot", "cluster"].contains(&k.layer()));
        }
        assert_eq!(pairs.len(), 37);
        assert_eq!(TraceKind::parse("entk", "unit_done"), None, "wrong layer");
        assert_eq!(TraceKind::parse("pilot", "unit_dne"), None, "misspelt name");
    }

    /// The string-typed shim maps a known pair onto its kind and panics,
    /// naming the pair, on anything else.
    #[test]
    #[allow(deprecated)]
    fn the_string_shim_refuses_what_the_vocabulary_lacks() {
        let shared = SharedTelemetry::new();
        shared.record(SimTime::ZERO, "pilot", "unit_done", Subject::Unit(4));
        let tracer = shared.snapshot().tracer;
        assert_eq!(
            tracer.records(),
            [TraceRecord {
                time: SimTime::ZERO,
                kind: UnitDone,
                id: 4
            }]
        );
        let refusal = |layer: &'static str, name: &'static str, subject| {
            let shared = shared.clone();
            let call = move || shared.record(SimTime::ZERO, layer, name, subject);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).unwrap_err();
            *payload.downcast::<String>().expect("a formatted panic")
        };
        let unknown = refusal("pilot", "unit_dne", Subject::Unit(4));
        assert!(
            unknown.contains("(\"pilot\", \"unit_dne\") is not in the vocabulary"),
            "{unknown}"
        );
        let mismatched = refusal("pilot", "unit_done", Subject::Task(4));
        assert!(
            mismatched.contains("is about Unit(4), not Task(4)"),
            "{mismatched}"
        );
        assert_eq!(shared.snapshot().tracer.len(), 1);
    }

    #[test]
    fn jsonl_export_is_one_object_per_record() {
        let mut t = Tracer::new();
        t.record(SimTime::from_secs(1), JobQueued, 3);
        t.record(SimTime::from_secs(2), JobStarted, 3);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\":1.000000,\"layer\":\"cluster\",\"event\":\"job_queued\",\"subject\":\"job.000003\"}"
        );
    }

    /// The exporter `render_jsonl_line` replaced, kept as the reference the
    /// renderer is held to: one `format!` per record, `{:.6}` of the float
    /// seconds, the subject through its own hard-coded pad widths.
    fn reference_jsonl(t: &Tracer) -> String {
        let mut out = String::new();
        for r in t.records() {
            let subject = match r.subject() {
                Subject::Session => "session".to_string(),
                Subject::Task(i) => format!("task.{i:06}"),
                Subject::Batch(i) => format!("batch.{i:04}"),
                Subject::Unit(i) => format!("unit.{i:06}"),
                Subject::Pilot(i) => format!("pilot.{i:04}"),
                Subject::Job(i) => format!("job.{i:06}"),
                Subject::Node(i) => format!("node.{i:04}"),
            };
            assert_eq!(r.subject().to_string(), subject);
            out.push_str(&format!(
                "{{\"t\":{:.6},\"layer\":\"{}\",\"event\":\"{}\",\"subject\":\"{}\"}}\n",
                r.time.as_secs_f64(),
                r.kind.layer(),
                r.kind.name(),
                subject
            ));
        }
        out
    }

    fn fnv64(bytes: &[u8]) -> u64 {
        let mut hash = Fnv64::new();
        hash.update(bytes);
        hash.finish()
    }

    /// The three consumers of the line renderer agree with the reference
    /// and with each other.
    fn assert_exports_match_reference(t: &Tracer) {
        let reference = reference_jsonl(t);
        assert_eq!(t.to_jsonl(), reference);
        let mut written = Vec::new();
        t.write_jsonl(&mut written).unwrap();
        assert_eq!(written, reference.as_bytes());
        assert_eq!(t.fingerprint(), fnv64(reference.as_bytes()));
    }

    /// 2^33 s in microseconds: the float reference is good for every time
    /// below it.
    const FLOAT_EXACT_MICROS: u64 = (1 << 33) * 1_000_000;

    #[test]
    fn jsonl_matches_the_format_reference_at_the_edges() {
        let times = [
            0,
            1,
            999_999,
            1_000_000,
            10_000_000 * 1_000_000,
            FLOAT_EXACT_MICROS - 1,
        ];
        // Both sides of each pad width, and the widest id there is.
        let ids = [0, 7, 9_999, 10_000, 999_999, 1_000_000, u64::MAX];
        let mut t = Tracer::new();
        for micros in times {
            for id in ids {
                for &kind in TraceKind::ALL {
                    t.record(SimTime::from_micros(micros), kind, id);
                }
            }
        }
        assert_eq!(t.len(), times.len() * ids.len() * TraceKind::ALL.len());
        assert_exports_match_reference(&t);
        assert_exports_match_reference(&Tracer::new());
    }

    #[test]
    fn jsonl_times_stay_exact_where_the_float_was_lossy() {
        let mut t = Tracer::new();
        for micros in [FLOAT_EXACT_MICROS + 1, u64::MAX] {
            t.record(SimTime::from_micros(micros), TaskDone, 1);
        }
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].starts_with("{\"t\":8589934592.000001,"));
        assert!(lines[1].starts_with("{\"t\":18446744073709.551615,"));
        assert_eq!(t.fingerprint(), fnv64(jsonl.as_bytes()));
    }

    #[test]
    fn fnv64_is_fnv1a_and_chunking_is_invisible() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), Fnv64::default().finish());
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        // Resuming from a finished state, or writing through io::Write, is
        // the same fold.
        let mut resumed = Fnv64::from_state(fnv64(b"foo"));
        io::Write::write_all(&mut resumed, b"bar").unwrap();
        assert_eq!(resumed.finish(), fnv64(b"foobar"));
    }

    proptest! {
        /// Random microsecond counts below 2^33 s, random ids and kinds:
        /// the integer renderer prints what `{:.6}` of the float printed.
        #[test]
        fn prop_jsonl_matches_the_format_reference(
            cases in proptest::collection::vec(
                (0..FLOAT_EXACT_MICROS, any::<u64>(), 0..TraceKind::ALL.len()),
                1..64,
            ),
        ) {
            let mut t = Tracer::new();
            for &(micros, id, kind) in &cases {
                t.record(SimTime::from_micros(micros), TraceKind::ALL[kind], id);
            }
            assert_exports_match_reference(&t);
        }

        /// A skip over `seg` is `Fnv64::update(seg)` from every low byte,
        /// whatever the bits above it.
        #[test]
        fn prop_skip_is_the_bytewise_fold(
            high in any::<u64>(),
            seg in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let skip = Skip::new(&seg);
            for l in 0..256 {
                let state = high & !0xff | l;
                let mut skipped = Fnv64::from_state(state);
                skip.apply(&mut skipped);
                let mut folded = Fnv64::from_state(state);
                folded.update(&seg);
                prop_assert_eq!(skipped, folded, "low byte {}", l);
            }
        }

        /// The fingerprint is the FNV-1a of the export over every kind, ids
        /// on both sides of each pad width and times up to `u64::MAX` µs.
        #[test]
        fn prop_fingerprint_is_the_fnv64_of_the_export(
            cases in proptest::collection::vec(
                ((0usize..4, any::<u64>()), (0usize..7, any::<u64>()), 0..TraceKind::ALL.len()),
                0..48,
            ),
        ) {
            let mut t = Tracer::new();
            for &((time, micros), (edge, id), kind) in &cases {
                let micros = [0, 999_999, 1_000_000, micros][time];
                let id = [0, 9_999, 10_000, 999_999, 1_000_000, u64::MAX, id][edge];
                t.record(SimTime::from_micros(micros), TraceKind::ALL[kind], id);
            }
            prop_assert_eq!(t.fingerprint(), fnv64(t.to_jsonl().as_bytes()));
        }
    }

    #[test]
    fn chrome_export_pairs_spans_and_balances_ends() {
        let mut t = Tracer::new();
        t.record(SimTime::from_secs(1), JobStarted, 1);
        t.record(SimTime::from_secs(5), JobCompleted, 1);
        // An end without a begin must be dropped, not emitted unbalanced.
        t.record(SimTime::from_secs(6), JobFailed, 2);
        t.record(SimTime::from_secs(7), NodeCrash, 0);
        let json = t.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"ts\":1000000"));
    }

    /// 10^5 spans open at once must export in time linear in the trace: a
    /// per-record scan of the open spans takes minutes here in a debug build.
    #[test]
    fn chrome_export_is_linear_in_open_spans() {
        const N: u64 = 100_000;
        let mut t = Tracer::new();
        for i in 0..N {
            t.record(SimTime::from_micros(i), TaskSubmitted, i);
        }
        // A begin on a track whose span is open is dropped.
        t.record(SimTime::from_micros(N), TaskSubmitted, 0);
        for i in 0..N {
            t.record(SimTime::from_micros(N + i), TaskDone, i);
        }
        // So is an end whose span is already closed.
        t.record(SimTime::from_micros(2 * N), TaskDone, 0);
        let json = t.to_chrome_json();
        let count = |ph: &str| json.lines().filter(|l| l.contains(ph)).count() as u64;
        assert_eq!(count("\"ph\":\"B\""), N);
        assert_eq!(count("\"ph\":\"E\""), N);
        // Header, the process-name event, the spans, footer.
        assert_eq!(json.lines().count() as u64, 1 + 1 + 2 * N + 1);
        assert!(json.starts_with("{\"traceEvents\":[\n{\"name\":\"process_name\""));
        assert!(json.ends_with("\"args\":{\"end\":\"task_done\"}}\n]}\n"));
    }

    #[test]
    fn chrome_export_of_an_empty_trace_is_an_empty_array() {
        assert_eq!(Tracer::new().to_chrome_json(), "{\"traceEvents\":[\n\n]}\n");
    }

    #[test]
    fn shared_telemetry_collects_across_clones() {
        let shared = SharedTelemetry::new();
        let clone = shared.clone();
        shared.emit(SimTime::ZERO, SessionStart, 0);
        clone.emit(SimTime::from_secs(1), PilotSubmitted, 0);
        let snap = shared.snapshot();
        assert_eq!(snap.tracer.len(), 2);
        assert_eq!(
            snap.tracer.time_of(PilotSubmitted, 0),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn subject_offsets_remap_entity_ids() {
        let shared = SharedTelemetry::new();
        let shifted = shared.with_subject_offsets(SubjectOffsets {
            pilot: 100,
            unit: 1000,
            job: 0,
            node: 10,
        });
        shared.emit(SimTime::ZERO, PilotSubmitted, 0);
        shifted.emit(SimTime::ZERO, PilotSubmitted, 0);
        shifted.emit(SimTime::ZERO, UnitSubmitted, 2);
        shifted.emit(SimTime::ZERO, NodeCrash, 3);
        shifted.emit(SimTime::ZERO, TaskSubmitted, 5);
        shifted.emit(SimTime::ZERO, SessionStart, 0);
        let snap = shared.snapshot();
        let subjects: Vec<Subject> = snap.tracer.records().iter().map(|r| r.subject()).collect();
        assert_eq!(
            subjects,
            vec![
                Subject::Pilot(0),
                Subject::Pilot(100),
                Subject::Unit(1002),
                Subject::Node(13),
                Subject::Task(5),
                Subject::Session,
            ]
        );
    }

    #[test]
    fn buffered_handle_holds_ops_until_spliced() {
        let shared = SharedTelemetry::new();
        let (member, buf) = shared.buffered(SubjectOffsets {
            pilot: 100,
            unit: 0,
            job: 0,
            node: 0,
        });
        member.emit(SimTime::ZERO, PilotSubmitted, 1);
        member.emit(SimTime::from_secs(1), PilotActive, 1);
        // Nothing reaches the shared pipeline until the spine splices.
        assert!(shared.snapshot().tracer.is_empty());
        assert_eq!(buf.len(), 2);

        buf.splice_into(&shared, 1);
        assert_eq!(buf.len(), 1, "a spliced record leaves the log");
        let snap = shared.snapshot();
        assert_eq!(snap.tracer.len(), 1);
        // Offsets were applied at record time, not splice time.
        assert_eq!(snap.tracer.records()[0].subject(), Subject::Pilot(101));

        buf.splice_into(&shared, 1);
        let snap = shared.snapshot();
        assert_eq!(snap.tracer.len(), 2);
        assert_eq!(snap.tracer.records()[1].kind, PilotActive);
        assert!(buf.is_empty());
    }

    #[test]
    fn buffered_handle_on_disabled_pipeline_buffers_nothing() {
        let shared = SharedTelemetry::disabled();
        let (member, buf) = shared.buffered(SubjectOffsets::default());
        member.emit(SimTime::ZERO, SessionStart, 0);
        assert!(buf.is_empty());
        buf.splice_into(&shared, 0);
        assert!(shared.snapshot().tracer.is_empty());
    }

    #[test]
    fn disabled_shared_telemetry_drops_everything() {
        let shared = SharedTelemetry::disabled();
        shared.emit(SimTime::ZERO, SessionStart, 0);
        assert!(shared.snapshot().tracer.is_empty());
    }
}
