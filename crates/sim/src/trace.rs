//! Structured trace of simulation events, mirroring RADICAL-Pilot's profiler.
//!
//! Every layer (cluster, pilot, toolkit) appends timestamped records to a
//! shared [`Tracer`] through one [`SharedTelemetry`] handle per session;
//! the trace is the session's only telemetry. The overhead decomposition
//! in the paper's Fig. 3 is computed from intervals between these records.
//!
//! Records are deliberately allocation-free on the hot path: layer and event
//! names are interned `&'static str` and the subject is a compact
//! [`Subject`] enum, rendered to text only at export time. Two exporters are
//! provided — flat JSONL ([`Tracer::write_jsonl`], [`Tracer::to_jsonl`]) and
//! Chrome trace-event JSON ([`Tracer::write_chrome_json`],
//! [`Tracer::to_chrome_json`]), loadable in Perfetto or `chrome://tracing`.
//! A caller that only needs to know whether two traces are the same bytes
//! asks for [`Tracer::fingerprint`], which hashes the JSONL bytes without
//! rendering them: the numbers byte by byte, the constant text around them
//! one table step per run of bytes.

use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::rc::Rc;

/// The entity a trace record is about, as a compact copyable id.
///
/// Rendered as text only at export/query time (`task.42`, `unit.000042`, …),
/// so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subject {
    /// No particular entity (layer-wide event).
    None,
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
        let (prefix, id) = self.text();
        f.write_str(prefix)?;
        match id {
            Some((id, width)) => write!(f, "{id:0width$}"),
            None => Ok(()),
        }
    }
}

impl Subject {
    /// The text form as a prefix plus, for numbered entities, the id and the
    /// width it is zero-padded to (a wider id prints in full). The one table
    /// behind both `Display` and the JSONL renderer.
    fn text(self) -> (&'static str, Option<(u64, usize)>) {
        match self {
            Subject::None => ("-", None),
            Subject::Session => ("session", None),
            Subject::Task(i) => ("task.", Some((i, 6))),
            Subject::Batch(i) => ("batch.", Some((i, 4))),
            Subject::Unit(i) => ("unit.", Some((i, 6))),
            Subject::Pilot(i) => ("pilot.", Some((i, 4))),
            Subject::Job(i) => ("job.", Some((i, 6))),
            Subject::Node(i) => ("node.", Some((i, 4))),
        }
    }

    /// A stable per-layer track id for timeline rendering. Entities of
    /// different kinds never collide within a layer's track space.
    fn track(self) -> u64 {
        match self {
            Subject::None | Subject::Session => 0,
            Subject::Task(i) | Subject::Unit(i) | Subject::Job(i) => 1 + i,
            Subject::Batch(i) | Subject::Pilot(i) | Subject::Node(i) => 1_000_000 + i,
        }
    }
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time of the record.
    pub time: SimTime,
    /// Emitting layer: `"entk"`, `"pilot"`, or `"cluster"`.
    pub layer: &'static str,
    /// Event name, e.g. `"unit_scheduled"`.
    pub name: &'static str,
    /// Subject entity.
    pub subject: Subject,
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
            records: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a tracer that drops all records (zero overhead bookkeeping).
    pub fn disabled() -> Self {
        Tracer {
            records: Vec::new(),
            enabled: false,
        }
    }

    /// Appends a record if tracing is enabled.
    pub fn record(
        &mut self,
        time: SimTime,
        layer: &'static str,
        name: &'static str,
        subject: Subject,
    ) {
        if self.enabled {
            self.records.push(TraceRecord {
                time,
                layer,
                name,
                subject,
            });
        }
    }

    /// All records in append order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records matching a layer and event name.
    pub fn filter<'a>(
        &'a self,
        layer: &'a str,
        name: &'a str,
    ) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records
            .iter()
            .filter(move |r| r.layer == layer && r.name == name)
    }

    /// First record time for (layer, name, subject), if any.
    pub fn time_of(&self, layer: &str, name: &str, subject: Subject) -> Option<SimTime> {
        self.records
            .iter()
            .find(|r| r.layer == layer && r.name == name && r.subject == subject)
            .map(|r| r.time)
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
    /// the layer, the event and the subject kind, the id digits and a
    /// constant close. Digits are folded byte by byte; each constant run is
    /// one table step (`Skip`), from a cache each thread keeps.
    pub fn fingerprint(&self) -> u64 {
        SKIPS.with(|cache| {
            let cache = &mut *cache.borrow_mut();
            let mut hash = Fnv64::new();
            let mut digits = [0; 20];
            for r in &self.records {
                let micros = r.time.as_micros();
                let (prefix, id) = r.subject.text();
                cache.open.apply(&mut hash);
                hash.update(decimal(&mut digits, micros / 1_000_000, 1));
                hash.update(b".");
                hash.update(decimal(&mut digits, micros % 1_000_000, 6));
                cache.fold_template(&mut hash, r.layer, r.name, prefix);
                if let Some((id, width)) = id {
                    hash.update(decimal(&mut digits, id, width));
                }
                cache.close.apply(&mut hash);
            }
            hash.finish()
        })
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
        // (span kind opened, layer, track) → guards unbalanced end events.
        let mut open: HashSet<(&'static str, &'static str, u64)> = HashSet::new();
        for r in &self.records {
            let pid = layer_pid(r.layer);
            if !named_pids.contains(&pid) {
                named_pids.push(pid);
                event(
                    out,
                    format_args!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        r.layer
                    ),
                )?;
            }
            let tid = r.subject.track();
            match span_kind(r.layer, r.name) {
                SpanRole::Begin(kind) => {
                    if open.insert((kind, r.layer, tid)) {
                        event(
                            out,
                            format_args!(
                                "{{\"name\":\"{kind}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{},\
                                 \"pid\":{pid},\"tid\":{tid},\"args\":{{\"subject\":\"{}\"}}}}",
                                r.layer,
                                r.time.as_micros(),
                                r.subject
                            ),
                        )?;
                    }
                }
                SpanRole::End(kind) => {
                    if open.remove(&(kind, r.layer, tid)) {
                        event(
                            out,
                            format_args!(
                                "{{\"name\":\"{kind}\",\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{},\
                                 \"pid\":{pid},\"tid\":{tid},\"args\":{{\"end\":\"{}\"}}}}",
                                r.layer,
                                r.time.as_micros(),
                                r.name
                            ),
                        )?;
                    }
                }
                SpanRole::Instant => {
                    event(
                        out,
                        format_args!(
                            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                             \"pid\":{pid},\"tid\":{tid},\"args\":{{\"subject\":\"{}\"}}}}",
                            r.name,
                            r.layer,
                            r.time.as_micros(),
                            r.subject
                        ),
                    )?;
                }
            }
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
    String::from_utf8(out).expect("layer and event names are str, the rest is ASCII")
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
    let (prefix, id) = r.subject.text();
    let mut digits = [0; 20];
    buf.extend_from_slice(LINE_OPEN);
    buf.extend_from_slice(decimal(&mut digits, micros / 1_000_000, 1));
    buf.push(b'.');
    buf.extend_from_slice(decimal(&mut digits, micros % 1_000_000, 6));
    for part in template(r.layer, r.name, prefix) {
        buf.extend_from_slice(part);
    }
    if let Some((id, width)) = id {
        buf.extend_from_slice(decimal(&mut digits, id, width));
    }
    buf.extend_from_slice(LINE_CLOSE);
}

/// What every JSONL line starts with, before its time.
const LINE_OPEN: &[u8] = b"{\"t\":";

/// What every JSONL line ends with, after its subject.
const LINE_CLOSE: &[u8] = b"\"}\n";

/// The bytes of a line between its time and its subject id: fixed by the
/// layer, the event and the subject kind's `prefix`.
fn template<'a>(layer: &'a str, name: &'a str, prefix: &'a str) -> [&'a [u8]; 6] {
    [
        b",\"layer\":\"",
        layer.as_bytes(),
        b"\",\"event\":\"",
        name.as_bytes(),
        b"\",\"subject\":\"",
        prefix.as_bytes(),
    ]
}

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
    fn new(seg: &[u8]) -> Box<Skip> {
        let mul = FNV_PRIME.wrapping_pow(seg.len() as u32);
        let mut add = [0; 256];
        for (l, add) in (0u64..).zip(&mut add) {
            let mut fold = Fnv64::from_state(l);
            fold.update(seg);
            *add = fold.finish().wrapping_sub(l.wrapping_mul(mul));
        }
        Box::new(Skip { mul, add })
    }

    #[inline]
    fn apply(&self, hash: &mut Fnv64) {
        let h = hash.0;
        hash.0 = h
            .wrapping_mul(self.mul)
            .wrapping_add(self.add[(h & 0xff) as usize]);
    }
}

/// Templates one thread keeps a [`Skip`] for. Past it a template is folded
/// byte by byte, so names made at run time (`Box::leak`) cannot grow the
/// cache without bound.
const MAX_TEMPLATES: usize = 256;

/// A template by identity: address and length of its layer, event and
/// subject-prefix strings. A `&'static str` never changes, so equal keys
/// are equal bytes; the length is in the key because a literal and a
/// prefix of it share an address.
#[derive(PartialEq, Eq, Hash)]
struct TemplateKey((usize, usize), (usize, usize), (usize, usize));

impl TemplateKey {
    fn new(layer: &str, name: &str, prefix: &str) -> Self {
        let id = |s: &str| (s.as_ptr() as usize, s.len());
        TemplateKey(id(layer), id(name), id(prefix))
    }
}

/// FxHash's word step. A [`TemplateKey`] is six machine words; with
/// SipHash over them the lookup cost most of what the skips save (the
/// `sim_trace` criterion bench read 12.6 µs against 7.0 µs per trace).
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(b.into());
        }
    }

    fn write_usize(&mut self, word: usize) {
        self.0 = (self.0.rotate_left(5) ^ word as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One thread's skips: the line's opening and close, and one per template
/// seen, up to [`MAX_TEMPLATES`].
struct SkipCache {
    open: Box<Skip>,
    close: Box<Skip>,
    templates: HashMap<TemplateKey, Box<Skip>, BuildHasherDefault<WordHasher>>,
}

impl SkipCache {
    fn new() -> Self {
        SkipCache {
            open: Skip::new(LINE_OPEN),
            close: Skip::new(LINE_CLOSE),
            templates: HashMap::default(),
        }
    }

    /// Folds [`template`]`(layer, name, prefix)` into `hash`.
    fn fold_template(&mut self, hash: &mut Fnv64, layer: &str, name: &str, prefix: &str) {
        let cached = self.templates.len();
        match self.templates.entry(TemplateKey::new(layer, name, prefix)) {
            Entry::Occupied(skip) => skip.get().apply(hash),
            Entry::Vacant(slot) if cached < MAX_TEMPLATES => slot
                .insert(Skip::new(&template(layer, name, prefix).concat()))
                .apply(hash),
            Entry::Vacant(_) => {
                for part in template(layer, name, prefix) {
                    hash.update(part);
                }
            }
        }
    }
}

thread_local! {
    static SKIPS: RefCell<SkipCache> = RefCell::new(SkipCache::new());
}

/// One process id per layer in the Chrome trace.
fn layer_pid(layer: &str) -> u64 {
    match layer {
        "entk" => 1,
        "pilot" => 2,
        "cluster" => 3,
        _ => 4,
    }
}

enum SpanRole {
    Begin(&'static str),
    End(&'static str),
    Instant,
}

/// Maps lifecycle event pairs to named duration spans; everything else is
/// an instant marker.
fn span_kind(layer: &str, name: &str) -> SpanRole {
    match (layer, name) {
        ("entk", "task_submitted") => SpanRole::Begin("attempt"),
        ("entk", "task_attempt_failed" | "task_done") => SpanRole::End("attempt"),
        ("pilot", "unit_exec_start") => SpanRole::Begin("exec"),
        ("pilot", "unit_exec_stop") => SpanRole::End("exec"),
        ("pilot", "pilot_submitted") => SpanRole::Begin("pilot"),
        ("pilot", "pilot_done" | "pilot_failed" | "pilot_cancelled") => SpanRole::End("pilot"),
        ("cluster", "job_started") => SpanRole::Begin("job_run"),
        ("cluster", "job_completed" | "job_failed" | "job_timedout" | "job_cancelled") => {
            SpanRole::End("job_run")
        }
        _ => SpanRole::Instant,
    }
}

/// Per-kind id offsets applied to [`Subject`]s as they are recorded.
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
    /// Applies the offsets to a subject.
    pub fn apply(&self, subject: Subject) -> Subject {
        match subject {
            Subject::Pilot(i) => Subject::Pilot(i + self.pilot),
            Subject::Unit(i) => Subject::Unit(i + self.unit),
            Subject::Job(i) => Subject::Job(i + self.job),
            Subject::Node(i) => Subject::Node(i + self.node),
            other => other,
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
            tracer.record(r.time, r.layer, r.name, r.subject);
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
/// use entk_sim::{SharedTelemetry, SimTime, Subject};
/// let telemetry = SharedTelemetry::new();
/// std::thread::spawn(move || {
///     telemetry.record(SimTime::ZERO, "entk", "session_start", Subject::Session)
/// });
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

    /// Appends a trace record, or logs it in a buffered handle's log.
    pub fn record(&self, time: SimTime, layer: &'static str, name: &'static str, subject: Subject) {
        if self.enabled {
            self.append(TraceRecord {
                time,
                layer,
                name,
                subject: self.offsets.apply(subject),
            });
        }
    }

    /// Writes `r` through, or into the log of a buffered handle. Out of
    /// line, so that a disabled [`Self::record`] is a flag test that saves
    /// no registers.
    #[inline(never)]
    fn append(&self, r: TraceRecord) {
        match &self.buffer {
            Some(buf) => buf.borrow_mut().push_back(r),
            None => {
                let tracer = &mut self.inner.borrow_mut().tracer;
                tracer.record(r.time, r.layer, r.name, r.subject);
            }
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

    #[test]
    fn records_and_filters() {
        let mut t = Tracer::new();
        t.record(
            SimTime::from_secs(1),
            "pilot",
            "unit_scheduled",
            Subject::Unit(0),
        );
        t.record(
            SimTime::from_secs(2),
            "pilot",
            "unit_started",
            Subject::Unit(0),
        );
        t.record(
            SimTime::from_secs(2),
            "entk",
            "unit_scheduled",
            Subject::Unit(0),
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.filter("pilot", "unit_scheduled").count(), 1);
        assert_eq!(
            t.time_of("pilot", "unit_started", Subject::Unit(0)),
            Some(SimTime::from_secs(2))
        );
        assert_eq!(t.time_of("pilot", "unit_started", Subject::Unit(1)), None);
    }

    #[test]
    fn disabled_tracer_drops_records() {
        let mut t = Tracer::disabled();
        t.record(SimTime::ZERO, "entk", "task_done", Subject::Task(0));
        assert!(t.is_empty());
    }

    #[test]
    fn jsonl_export_is_one_object_per_record() {
        let mut t = Tracer::new();
        t.record(
            SimTime::from_secs(1),
            "cluster",
            "job_queued",
            Subject::Job(3),
        );
        t.record(
            SimTime::from_secs(2),
            "cluster",
            "job_started",
            Subject::Job(3),
        );
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
            let subject = match r.subject {
                Subject::None => "-".to_string(),
                Subject::Session => "session".to_string(),
                Subject::Task(i) => format!("task.{i:06}"),
                Subject::Batch(i) => format!("batch.{i:04}"),
                Subject::Unit(i) => format!("unit.{i:06}"),
                Subject::Pilot(i) => format!("pilot.{i:04}"),
                Subject::Job(i) => format!("job.{i:06}"),
                Subject::Node(i) => format!("node.{i:04}"),
            };
            assert_eq!(r.subject.to_string(), subject);
            out.push_str(&format!(
                "{{\"t\":{:.6},\"layer\":\"{}\",\"event\":\"{}\",\"subject\":\"{}\"}}\n",
                r.time.as_secs_f64(),
                r.layer,
                r.name,
                subject
            ));
        }
        out
    }

    /// Every subject kind, numbered `id` where the kind takes a number.
    fn subjects(id: u64) -> [Subject; 8] {
        [
            Subject::None,
            Subject::Session,
            Subject::Task(id),
            Subject::Batch(id),
            Subject::Unit(id),
            Subject::Pilot(id),
            Subject::Job(id),
            Subject::Node(id),
        ]
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
                for subject in subjects(id) {
                    t.record(SimTime::from_micros(micros), "pilot", "unit_done", subject);
                }
            }
        }
        assert_eq!(t.len(), times.len() * ids.len() * 8);
        assert_exports_match_reference(&t);
        assert_exports_match_reference(&Tracer::new());
    }

    #[test]
    fn jsonl_times_stay_exact_where_the_float_was_lossy() {
        let mut t = Tracer::new();
        for micros in [FLOAT_EXACT_MICROS + 1, u64::MAX] {
            t.record(
                SimTime::from_micros(micros),
                "entk",
                "task_done",
                Subject::Task(1),
            );
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
        /// Random microsecond counts below 2^33 s and random ids: the
        /// integer renderer prints what `{:.6}` of the float printed.
        #[test]
        fn prop_jsonl_matches_the_format_reference(
            cases in proptest::collection::vec(
                (0..FLOAT_EXACT_MICROS, any::<u64>(), 0usize..8),
                1..64,
            ),
        ) {
            let mut t = Tracer::new();
            for &(micros, id, kind) in &cases {
                t.record(
                    SimTime::from_micros(micros),
                    "cluster",
                    "job_started",
                    subjects(id)[kind],
                );
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

        /// The fingerprint is the FNV-1a of the export over every subject
        /// kind, ids on both sides of each pad width, times up to
        /// `u64::MAX` µs, and names that share an address but not a length,
        /// on this thread (its cache warm from earlier cases) and on two
        /// fresh ones.
        #[test]
        fn prop_fingerprint_is_the_fnv64_of_the_export(
            cases in proptest::collection::vec(
                ((0usize..4, any::<u64>()), (0usize..7, any::<u64>()), 0usize..8, (0usize..4, 0usize..4)),
                0..48,
            ),
        ) {
            static LAYER: &str = "pilot";
            static EVENT: &str = "unit_exec_start";
            let layers = [LAYER, &LAYER[..3], "entk", ""];
            let events = [EVENT, &EVENT[..9], "task_done", "x"];
            prop_assert_eq!(layers[1].as_ptr(), LAYER.as_ptr());
            prop_assert_eq!(events[1].as_ptr(), EVENT.as_ptr());
            let mut t = Tracer::new();
            for &((time, micros), (edge, id), kind, (layer, event)) in &cases {
                let micros = [0, 999_999, 1_000_000, micros][time];
                let id = [0, 9_999, 10_000, 999_999, 1_000_000, u64::MAX, id][edge];
                t.record(
                    SimTime::from_micros(micros),
                    layers[layer],
                    events[event],
                    subjects(id)[kind],
                );
            }
            let expected = fnv64(t.to_jsonl().as_bytes());
            prop_assert_eq!(t.fingerprint(), expected);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| assert_eq!(t.fingerprint(), expected));
                }
            });
        }
    }

    /// Past [`MAX_TEMPLATES`] a thread folds new templates byte by byte and
    /// caches nothing more; the fingerprint does not change either way.
    #[test]
    fn templates_past_the_cache_cap_fold_byte_by_byte() {
        let names: Vec<&'static str> = (0..MAX_TEMPLATES / 8 + 10)
            .map(|i| &*Box::leak(format!("event_{i}").into_boxed_str()))
            .collect();
        let mut t = Tracer::new();
        for (i, name) in names.iter().enumerate() {
            for subject in subjects(i as u64) {
                t.record(SimTime::from_micros(i as u64), "entk", name, subject);
            }
        }
        assert!(names.len() * 8 > MAX_TEMPLATES);
        let expected = fnv64(t.to_jsonl().as_bytes());
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    assert_eq!(t.fingerprint(), expected);
                    assert_eq!(t.fingerprint(), expected, "with the cache full");
                    SKIPS.with(|c| assert_eq!(c.borrow().templates.len(), MAX_TEMPLATES));
                });
            }
        });
    }

    #[test]
    fn chrome_export_pairs_spans_and_balances_ends() {
        let mut t = Tracer::new();
        t.record(
            SimTime::from_secs(1),
            "cluster",
            "job_started",
            Subject::Job(1),
        );
        t.record(
            SimTime::from_secs(5),
            "cluster",
            "job_completed",
            Subject::Job(1),
        );
        // An end without a begin must be dropped, not emitted unbalanced.
        t.record(
            SimTime::from_secs(6),
            "cluster",
            "job_failed",
            Subject::Job(2),
        );
        t.record(
            SimTime::from_secs(7),
            "cluster",
            "node_crash",
            Subject::Node(0),
        );
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
            t.record(
                SimTime::from_micros(i),
                "entk",
                "task_submitted",
                Subject::Task(i),
            );
        }
        // A begin on a track whose span is open is dropped.
        t.record(
            SimTime::from_micros(N),
            "entk",
            "task_submitted",
            Subject::Task(0),
        );
        for i in 0..N {
            t.record(
                SimTime::from_micros(N + i),
                "entk",
                "task_done",
                Subject::Task(i),
            );
        }
        // So is an end whose span is already closed.
        t.record(
            SimTime::from_micros(2 * N),
            "entk",
            "task_done",
            Subject::Task(0),
        );
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
        shared.record(SimTime::ZERO, "entk", "session_start", Subject::Session);
        clone.record(
            SimTime::from_secs(1),
            "pilot",
            "pilot_submitted",
            Subject::Pilot(0),
        );
        let snap = shared.snapshot();
        assert_eq!(snap.tracer.len(), 2);
        assert_eq!(
            snap.tracer
                .time_of("pilot", "pilot_submitted", Subject::Pilot(0)),
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
        shared.record(SimTime::ZERO, "pilot", "pilot_submitted", Subject::Pilot(0));
        shifted.record(SimTime::ZERO, "pilot", "pilot_submitted", Subject::Pilot(0));
        shifted.record(SimTime::ZERO, "pilot", "unit_submitted", Subject::Unit(2));
        shifted.record(SimTime::ZERO, "entk", "session_start", Subject::Session);
        let snap = shared.snapshot();
        let subjects: Vec<Subject> = snap.tracer.records().iter().map(|r| r.subject).collect();
        assert_eq!(
            subjects,
            vec![
                Subject::Pilot(0),
                Subject::Pilot(100),
                Subject::Unit(1002),
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
        member.record(SimTime::ZERO, "pilot", "pilot_submitted", Subject::Pilot(1));
        member.record(
            SimTime::from_secs(1),
            "pilot",
            "pilot_active",
            Subject::Pilot(1),
        );
        // Nothing reaches the shared pipeline until the spine splices.
        assert!(shared.snapshot().tracer.is_empty());
        assert_eq!(buf.len(), 2);

        buf.splice_into(&shared, 1);
        assert_eq!(buf.len(), 1, "a spliced record leaves the log");
        let snap = shared.snapshot();
        assert_eq!(snap.tracer.len(), 1);
        // Offsets were applied at record time, not splice time.
        assert_eq!(snap.tracer.records()[0].subject, Subject::Pilot(101));

        buf.splice_into(&shared, 1);
        let snap = shared.snapshot();
        assert_eq!(snap.tracer.len(), 2);
        assert_eq!(snap.tracer.records()[1].name, "pilot_active");
        assert!(buf.is_empty());
    }

    #[test]
    fn buffered_handle_on_disabled_pipeline_buffers_nothing() {
        let shared = SharedTelemetry::disabled();
        let (member, buf) = shared.buffered(SubjectOffsets::default());
        member.record(SimTime::ZERO, "entk", "session_start", Subject::Session);
        assert!(buf.is_empty());
        buf.splice_into(&shared, 0);
        assert!(shared.snapshot().tracer.is_empty());
    }

    #[test]
    fn disabled_shared_telemetry_drops_everything() {
        let shared = SharedTelemetry::disabled();
        shared.record(SimTime::ZERO, "entk", "session_start", Subject::Session);
        assert!(shared.snapshot().tracer.is_empty());
    }
}
