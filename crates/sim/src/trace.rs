//! Structured trace of simulation events, mirroring RADICAL-Pilot's profiler.
//!
//! Every layer (cluster, pilot, toolkit) appends timestamped records to a
//! shared [`Tracer`]; the overhead decomposition in the paper's Fig. 3 is
//! computed from intervals between these records.
//!
//! Records are deliberately allocation-free on the hot path: layer and event
//! names are interned `&'static str` and the subject is a compact
//! [`Subject`] enum, rendered to text only at export time. Two exporters are
//! provided — flat JSONL ([`Tracer::to_jsonl`]) and Chrome trace-event JSON
//! ([`Tracer::to_chrome_json`]), loadable in Perfetto or `chrome://tracing`.

use crate::metrics::Metrics;
use crate::time::SimTime;
use std::fmt;
use std::sync::{Arc, Mutex};

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
        match self {
            Subject::None => write!(f, "-"),
            Subject::Session => write!(f, "session"),
            Subject::Task(i) => write!(f, "task.{i:06}"),
            Subject::Batch(i) => write!(f, "batch.{i:04}"),
            Subject::Unit(i) => write!(f, "unit.{i:06}"),
            Subject::Pilot(i) => write!(f, "pilot.{i:04}"),
            Subject::Job(i) => write!(f, "job.{i:06}"),
            Subject::Node(i) => write!(f, "node.{i:04}"),
        }
    }
}

impl Subject {
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

    /// Exports the trace as flat JSONL: one object per record, in append
    /// order, with times in virtual seconds.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 80);
        for r in &self.records {
            out.push_str(&format!(
                "{{\"t\":{:.6},\"layer\":\"{}\",\"event\":\"{}\",\"subject\":\"{}\"}}\n",
                r.time.as_secs_f64(),
                r.layer,
                r.name,
                r.subject
            ));
        }
        out
    }

    /// Exports the trace in Chrome trace-event JSON (the `traceEvents`
    /// array format), loadable in Perfetto or `chrome://tracing`.
    ///
    /// Each layer becomes one process (named track); entities become
    /// threads within it. Lifecycle event pairs (task attempts, unit
    /// executions, pilot lifetimes, job runs) render as duration spans;
    /// everything else as instant markers. Timestamps are virtual-clock
    /// microseconds, so the timeline reads in simulated time.
    pub fn to_chrome_json(&self) -> String {
        let mut events = Vec::with_capacity(self.records.len() + 8);
        let mut named_pids = Vec::new();
        // (span kind opened, layer, track) → guards unbalanced end events.
        let mut open: Vec<(&'static str, &'static str, u64)> = Vec::new();
        for r in &self.records {
            let pid = layer_pid(r.layer);
            if !named_pids.contains(&pid) {
                named_pids.push(pid);
                events.push(format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    r.layer
                ));
            }
            let tid = r.subject.track();
            let span = span_kind(r.layer, r.name);
            match span {
                SpanRole::Begin(kind) => {
                    let key = (kind, r.layer, tid);
                    if !open.contains(&key) {
                        open.push(key);
                        events.push(format!(
                            "{{\"name\":\"{kind}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{},\
                             \"pid\":{pid},\"tid\":{tid},\"args\":{{\"subject\":\"{}\"}}}}",
                            r.layer,
                            r.time.as_micros(),
                            r.subject
                        ));
                    }
                }
                SpanRole::End(kind) => {
                    let key = (kind, r.layer, tid);
                    if let Some(pos) = open.iter().position(|k| *k == key) {
                        open.swap_remove(pos);
                        events.push(format!(
                            "{{\"name\":\"{kind}\",\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{},\
                             \"pid\":{pid},\"tid\":{tid},\"args\":{{\"end\":\"{}\"}}}}",
                            r.layer,
                            r.time.as_micros(),
                            r.name
                        ));
                    }
                }
                SpanRole::Instant => {
                    events.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{{\"subject\":\"{}\"}}}}",
                        r.name,
                        r.layer,
                        r.time.as_micros(),
                        r.subject
                    ));
                }
            }
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
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
    /// True when every offset is zero (the identity mapping).
    pub fn is_identity(&self) -> bool {
        *self == SubjectOffsets::default()
    }

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

/// One buffered telemetry operation: what a layer recorded, in order.
///
/// The windowed federated drive gives each member cluster a *buffered*
/// telemetry handle (see [`SharedTelemetry::buffered`]): a member's
/// window appends ops to a member-private log instead of the shared
/// pipeline, and the merge spine later replays contiguous op ranges into
/// the session pipeline in deterministic chunk order — so the interleaved
/// trace does not depend on the order members were advanced in.
#[derive(Debug, Clone)]
pub enum TelemetryOp {
    /// A trace record (subject offsets already applied).
    Record(TraceRecord),
    /// A gauge sample.
    Gauge(&'static str, SimTime, f64),
    /// A counter increment.
    Add(&'static str, u64),
}

/// The backend-side end of a buffered telemetry handle: exposes the op log
/// so a merge spine can splice ranges into the shared pipeline.
#[derive(Debug, Clone)]
pub struct TelemetryBuffer {
    ops: Arc<Mutex<Vec<TelemetryOp>>>,
}

impl TelemetryBuffer {
    /// Number of ops recorded so far (monotone until [`Self::clear`]).
    pub fn len(&self) -> usize {
        self.ops.lock().expect("telemetry buffer lock").len()
    }

    /// True when no ops are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays ops `[start, end)` into `target`'s shared pipeline, verbatim
    /// (subject offsets were applied when the ops were recorded). Ranges
    /// must be replayed in recording order; the caller owns that invariant.
    pub fn splice_into(&self, target: &SharedTelemetry, start: usize, end: usize) {
        if start >= end || !target.enabled {
            return;
        }
        let ops = self.ops.lock().expect("telemetry buffer lock");
        let mut inner = target.inner.lock().expect("telemetry lock");
        for op in &ops[start..end.min(ops.len())] {
            match *op {
                TelemetryOp::Record(r) => inner.tracer.record(r.time, r.layer, r.name, r.subject),
                TelemetryOp::Gauge(name, time, value) => inner.metrics.gauge(name, time, value),
                TelemetryOp::Add(name, n) => inner.metrics.add(name, n),
            }
        }
    }

    /// Drops all buffered ops (after the caller has spliced everything).
    pub fn clear(&self) {
        self.ops.lock().expect("telemetry buffer lock").clear();
    }
}

/// A trace plus deterministic metrics: everything the observability layer
/// collects during one simulated session.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Cross-layer event trace.
    pub tracer: Tracer,
    /// Virtual-time gauges and counters.
    pub metrics: Metrics,
}

/// A cheaply clonable handle to one session's [`Telemetry`], shared by the
/// cluster, pilot, and toolkit layers.
///
/// The `enabled` flag is copied into the handle so a disabled pipeline
/// skips the lock entirely on the hot path.
#[derive(Debug, Clone)]
pub struct SharedTelemetry {
    inner: Arc<Mutex<Telemetry>>,
    enabled: bool,
    offsets: SubjectOffsets,
    /// When set, ops are appended here (offsets pre-applied) instead of the
    /// shared pipeline; a merge spine splices them in later.
    buffer: Option<Arc<Mutex<Vec<TelemetryOp>>>>,
}

impl Default for SharedTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedTelemetry {
    /// Creates an enabled shared telemetry pipeline.
    pub fn new() -> Self {
        SharedTelemetry {
            inner: Arc::new(Mutex::new(Telemetry {
                tracer: Tracer::new(),
                metrics: Metrics::new(),
            })),
            enabled: true,
            offsets: SubjectOffsets::default(),
            buffer: None,
        }
    }

    /// Creates a pipeline that drops everything recorded into it.
    pub fn disabled() -> Self {
        SharedTelemetry {
            inner: Arc::new(Mutex::new(Telemetry {
                tracer: Tracer::disabled(),
                metrics: Metrics::new(),
            })),
            enabled: false,
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
            inner: Arc::clone(&self.inner),
            enabled: self.enabled,
            offsets,
            buffer: self.buffer.clone(),
        }
    }

    /// A handle onto the same underlying telemetry that *buffers* ops
    /// (offsets pre-applied) instead of writing them through, plus the
    /// [`TelemetryBuffer`] to splice them from. The windowed federated drive
    /// hands the buffered handle to one member's layers so a member never
    /// touches the shared pipeline mid-window; the merge spine replays
    /// op ranges via [`TelemetryBuffer::splice_into`] in deterministic
    /// order.
    pub fn buffered(&self, offsets: SubjectOffsets) -> (SharedTelemetry, TelemetryBuffer) {
        let ops = Arc::new(Mutex::new(Vec::new()));
        let handle = SharedTelemetry {
            inner: Arc::clone(&self.inner),
            enabled: self.enabled,
            offsets,
            buffer: Some(Arc::clone(&ops)),
        };
        (handle, TelemetryBuffer { ops })
    }

    /// True when records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a trace record.
    pub fn record(&self, time: SimTime, layer: &'static str, name: &'static str, subject: Subject) {
        if self.enabled {
            let subject = self.offsets.apply(subject);
            if let Some(buf) = &self.buffer {
                buf.lock()
                    .expect("telemetry buffer lock")
                    .push(TelemetryOp::Record(TraceRecord {
                        time,
                        layer,
                        name,
                        subject,
                    }));
            } else {
                self.inner
                    .lock()
                    .expect("telemetry lock")
                    .tracer
                    .record(time, layer, name, subject);
            }
        }
    }

    /// Appends a gauge sample at `time`.
    pub fn gauge(&self, name: &'static str, time: SimTime, value: f64) {
        if self.enabled {
            if let Some(buf) = &self.buffer {
                buf.lock()
                    .expect("telemetry buffer lock")
                    .push(TelemetryOp::Gauge(name, time, value));
            } else {
                self.inner
                    .lock()
                    .expect("telemetry lock")
                    .metrics
                    .gauge(name, time, value);
            }
        }
    }

    /// Increments a counter by one.
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&self, name: &'static str, n: u64) {
        if self.enabled {
            if let Some(buf) = &self.buffer {
                buf.lock()
                    .expect("telemetry buffer lock")
                    .push(TelemetryOp::Add(name, n));
            } else {
                self.inner
                    .lock()
                    .expect("telemetry lock")
                    .metrics
                    .add(name, n);
            }
        }
    }

    /// A point-in-time copy of everything collected so far.
    pub fn snapshot(&self) -> Telemetry {
        self.inner.lock().expect("telemetry lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        clone.inc("entk.retries");
        clone.gauge("cluster.used_cores", SimTime::ZERO, 4.0);
        let snap = shared.snapshot();
        assert_eq!(snap.tracer.len(), 2);
        assert_eq!(snap.metrics.counter("entk.retries"), 1);
        assert_eq!(
            snap.metrics
                .series("cluster.used_cores")
                .unwrap()
                .points()
                .len(),
            1
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
        assert!(SubjectOffsets::default().is_identity());
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
        member.gauge("cluster.used_cores", SimTime::from_secs(1), 4.0);
        member.inc("pilot.units_done");
        // Nothing reaches the shared pipeline until the spine splices.
        assert!(shared.snapshot().tracer.is_empty());
        assert_eq!(buf.len(), 3);

        buf.splice_into(&shared, 0, 2);
        let snap = shared.snapshot();
        assert_eq!(snap.tracer.len(), 1);
        // Offsets were applied at record time, not splice time.
        assert_eq!(snap.tracer.records()[0].subject, Subject::Pilot(101));
        assert_eq!(
            snap.metrics
                .series("cluster.used_cores")
                .unwrap()
                .points()
                .len(),
            1
        );
        assert_eq!(snap.metrics.counter("pilot.units_done"), 0);

        buf.splice_into(&shared, 2, 3);
        assert_eq!(shared.snapshot().metrics.counter("pilot.units_done"), 1);

        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn buffered_handle_on_disabled_pipeline_buffers_nothing() {
        let shared = SharedTelemetry::disabled();
        let (member, buf) = shared.buffered(SubjectOffsets::default());
        member.record(SimTime::ZERO, "entk", "session_start", Subject::Session);
        member.inc("entk.retries");
        assert!(buf.is_empty());
        buf.splice_into(&shared, 0, 1);
        assert!(shared.snapshot().tracer.is_empty());
    }

    #[test]
    fn disabled_shared_telemetry_drops_everything() {
        let shared = SharedTelemetry::disabled();
        shared.record(SimTime::ZERO, "entk", "session_start", Subject::Session);
        shared.inc("entk.retries");
        let snap = shared.snapshot();
        assert!(snap.tracer.is_empty());
        assert_eq!(snap.metrics.counter("entk.retries"), 0);
    }
}
