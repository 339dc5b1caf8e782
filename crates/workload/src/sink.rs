//! Report sinks: named, pluggable destinations for a served stream's
//! outputs, selected from the spec file's `"sinks"` list through the
//! [`entk_core::Registry`] machinery — the last leg of "one spec file
//! drives any grid".
//!
//! Three built-ins:
//!
//! * `jsonl` — appends every session row to a file as it is emitted.
//! * `gauges` — samples the admission timeline at a fixed virtual-time
//!   period and writes one `{"t", "queue_depth", "in_service"}` JSONL row
//!   per sample, in memory bounded by the queued and in-flight sessions.
//! * `summary` — writes the aggregated [`WorkloadReport`] as pretty JSON
//!   when the stream completes (retaining serves only).
//!
//! Sinks are observers of the engine's one emission point
//! ([`crate::ServiceEngine::attach`]): they see records live, in emission
//! (arrival) order, under either serve mode. Everything they write is
//! deterministic, so two runs of the same spec produce byte-identical
//! sink files (asserted by the `registry-smoke` CI job).

use crate::runner::{depth_events, DepthEvent, SessionRecord, WorkloadReport};
use entk_core::{EntkError, Registry};
use entk_sim::SimDuration;
use serde::{DeError, Deserialize};
use serde_json::Value;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::OnceLock;

/// A destination for the served stream's outputs. A sink sees every
/// finalized session exactly once, in emission order, then the end of
/// the stream.
pub trait ReportSink: Send {
    /// Registered plugin name (used in error messages).
    fn name(&self) -> &'static str;

    /// Whether [`ReportSink::finish`] needs the aggregated report. Such a
    /// sink cannot observe a non-retaining (streaming) serve, which
    /// rejects it before serving anything.
    fn needs_report(&self) -> bool {
        false
    }

    /// One finalized session: the rendered stream-JSONL line (trailing
    /// newline included) plus the typed record it was rendered from.
    fn on_record(&mut self, line: &str, record: &SessionRecord) -> Result<(), EntkError>;

    /// The stream completed; write any buffered output and flush. The
    /// report is `None` after a non-retaining serve.
    fn finish(&mut self, report: Option<&WorkloadReport>) -> Result<(), EntkError>;
}

fn io_err(sink: &str, path: &str, e: std::io::Error) -> EntkError {
    EntkError::Runtime(format!("{sink} sink: {path}: {e}"))
}

fn create(sink: &str, path: &str) -> Result<BufWriter<File>, EntkError> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| io_err(sink, path, e))
}

// ------------------------------------------------------------------ jsonl

/// Streams session rows to a file as they are emitted.
pub struct JsonlSink {
    path: String,
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Opens (truncates) `path` for writing.
    pub fn create(path: impl Into<String>) -> Result<Self, EntkError> {
        let path = path.into();
        let out = create("jsonl", &path)?;
        Ok(JsonlSink { path, out })
    }
}

impl ReportSink for JsonlSink {
    fn name(&self) -> &'static str {
        "jsonl"
    }

    fn on_record(&mut self, line: &str, _record: &SessionRecord) -> Result<(), EntkError> {
        self.out
            .write_all(line.as_bytes())
            .map_err(|e| io_err("jsonl", &self.path, e))
    }

    fn finish(&mut self, _report: Option<&WorkloadReport>) -> Result<(), EntkError> {
        self.out.flush().map_err(|e| io_err("jsonl", &self.path, e))
    }
}

// ----------------------------------------------------------------- gauges

/// Samples the queue-depth / in-service gauges every `period_secs` of
/// virtual time (exact microsecond instants, same tie discipline as the
/// report's gauge series: finish → arrive → start). Records are emitted
/// in arrival order, so no later record can contribute an event before
/// the current record's arrival: every tick strictly before that
/// watermark is written at once, and only not-yet-passed events are held.
pub struct GaugesSink {
    path: String,
    out: BufWriter<File>,
    period_us: u64,
    /// Events at or after the watermark, earliest first.
    upcoming: BinaryHeap<Reverse<DepthEvent>>,
    queued: i64,
    running: i64,
    next_tick: u64,
}

/// A sampling period in whole microseconds: at least one, and below
/// [`SimDuration::MAX`], the last instant a tick can name.
fn period_us(secs: f64) -> Result<u64, String> {
    let max = SimDuration::MAX.as_secs_f64();
    if (1e-6..max).contains(&secs) {
        return Ok((secs * 1e6).round() as u64);
    }
    Err(format!(
        "must be at least 1e-6 s and below {max:.1e} s, got {secs:?}"
    ))
}

impl GaugesSink {
    /// Opens (truncates) `path`; samples every `period_secs`, at least
    /// one microsecond.
    pub fn create(path: impl Into<String>, period_secs: f64) -> Result<Self, EntkError> {
        let period_us = period_us(period_secs)
            .map_err(|e| EntkError::Usage(format!("gauges sink: period_secs {e}")))?;
        let path = path.into();
        let out = create("gauges", &path)?;
        Ok(GaugesSink {
            path,
            out,
            period_us,
            upcoming: BinaryHeap::new(),
            queued: 0,
            running: 0,
            next_tick: 0,
        })
    }

    fn write_sample(&mut self) -> Result<(), EntkError> {
        writeln!(
            self.out,
            "{{\"t\":{:.6},\"queue_depth\":{},\"in_service\":{}}}",
            self.next_tick as f64 / 1e6,
            self.queued,
            self.running
        )
        .map_err(|e| io_err("gauges", &self.path, e))
    }

    /// Applies every held event strictly before `watermark`, writing the
    /// ticks they pass.
    fn flush_before(&mut self, watermark: u64) -> Result<(), EntkError> {
        while let Some(&Reverse((t, _, dq, dr))) = self.upcoming.peek() {
            if t >= watermark {
                break;
            }
            self.upcoming.pop();
            while self.next_tick < t {
                self.write_sample()?;
                self.next_tick += self.period_us;
            }
            self.queued += dq;
            self.running += dr;
        }
        Ok(())
    }
}

impl ReportSink for GaugesSink {
    fn name(&self) -> &'static str {
        "gauges"
    }

    fn on_record(&mut self, _line: &str, r: &SessionRecord) -> Result<(), EntkError> {
        self.upcoming.extend(depth_events(r).map(Reverse));
        self.flush_before(r.arrival_us)
    }

    fn finish(&mut self, _report: Option<&WorkloadReport>) -> Result<(), EntkError> {
        self.flush_before(u64::MAX)?;
        // One closing sample at the first tick at/after the last event, so
        // the series always ends back at zero depth.
        self.write_sample()?;
        self.out
            .flush()
            .map_err(|e| io_err("gauges", &self.path, e))
    }
}

// ---------------------------------------------------------------- summary

/// Writes the aggregated report as pretty JSON when the stream completes.
pub struct SummarySink {
    path: String,
    out: BufWriter<File>,
}

impl SummarySink {
    /// Opens (truncates) `path` for writing.
    pub fn create(path: impl Into<String>) -> Result<Self, EntkError> {
        let path = path.into();
        let out = create("summary", &path)?;
        Ok(SummarySink { path, out })
    }
}

impl ReportSink for SummarySink {
    fn name(&self) -> &'static str {
        "summary"
    }

    fn needs_report(&self) -> bool {
        true
    }

    fn on_record(&mut self, _line: &str, _record: &SessionRecord) -> Result<(), EntkError> {
        Ok(())
    }

    fn finish(&mut self, report: Option<&WorkloadReport>) -> Result<(), EntkError> {
        let report = report.ok_or_else(|| {
            EntkError::Usage("summary sink: needs the full report of a retaining serve".into())
        })?;
        let text = serde_json::to_string_pretty(report)
            .map_err(|e| EntkError::Runtime(format!("summary sink: {e}")))?;
        self.out
            .write_all(text.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .and_then(|()| self.out.flush())
            .map_err(|e| io_err("summary", &self.path, e))
    }
}

// --------------------------------------------------------------- registry

/// Params of the `jsonl` and `summary` sink plugins.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
struct PathParams {
    /// Output file path (created / truncated).
    path: String,
}

/// Params of the `gauges` sink plugin.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
struct GaugesParams {
    /// Output file path (created / truncated).
    path: String,
    /// Virtual-time sampling period, seconds.
    #[serde(default = "default_period_secs")]
    period_secs: PeriodSecs,
}

/// A `period_secs` value the sink can sample at, refused while the spec is
/// read — where `entk check` sees it — rather than when the sink opens.
#[derive(Debug, Clone, Copy)]
struct PeriodSecs(f64);

impl Deserialize for PeriodSecs {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let secs = f64::from_value(v)?;
        period_us(secs).map_err(DeError::custom)?;
        Ok(PeriodSecs(secs))
    }
}

fn default_period_secs() -> PeriodSecs {
    PeriodSecs(60.0)
}

/// The report-sink registry: every name a spec file's `"sinks"` list can
/// select. All built-ins require a `path`, so an omitted params block is a
/// usage error naming the sink and the missing field.
pub fn sinks() -> &'static Registry<Box<dyn ReportSink>> {
    static TABLE: OnceLock<Registry<Box<dyn ReportSink>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut r: Registry<Box<dyn ReportSink>> = Registry::new("report sink");
        r.register("jsonl", |_: &(), p: PathParams| {
            Ok(Box::new(JsonlSink::create(p.path)?) as Box<dyn ReportSink>)
        });
        r.register("gauges", |_: &(), p: GaugesParams| {
            Ok(Box::new(GaugesSink::create(p.path, p.period_secs.0)?) as Box<dyn ReportSink>)
        });
        r.register("summary", |_: &(), p: PathParams| {
            Ok(Box::new(SummarySink::create(p.path)?) as Box<dyn ReportSink>)
        });
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::WorkloadGenerator;
    use crate::trace::SyntheticTrace;
    use crate::{ServiceConfig, ServiceEngine, WorkloadConfig};
    use entk_core::ComponentSpec;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("entk-sink-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn engine_with(sink: Box<dyn ReportSink>) -> ServiceEngine {
        let arrivals = SyntheticTrace::new(7, 6, 2).generate().unwrap();
        let config = ServiceConfig::fifo(WorkloadConfig {
            slots: 2,
            ..WorkloadConfig::default()
        });
        let mut engine = ServiceEngine::new(config, arrivals).unwrap();
        engine.attach(sink);
        engine
    }

    fn serve_with(sink: Box<dyn ReportSink>) -> WorkloadReport {
        engine_with(sink).run(&mut std::io::sink()).unwrap()
    }

    #[test]
    fn jsonl_sink_writes_the_stream_bytes() {
        let path = tmp("rows.jsonl");
        let mut stream = Vec::new();
        let engine = engine_with(Box::new(JsonlSink::create(&path).unwrap()));
        engine.run(&mut stream).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), stream);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gauges_sink_samples_periodically_and_ends_drained() {
        let path = tmp("gauges.jsonl");
        serve_with(Box::new(GaugesSink::create(&path, 30.0).unwrap()));
        let written = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = written.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("t").is_some() && v.get("queue_depth").is_some());
        }
        let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(last["queue_depth"].as_i64(), Some(0));
        assert_eq!(last["in_service"].as_i64(), Some(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_sink_writes_the_report_json() {
        let path = tmp("summary.json");
        let report = serve_with(Box::new(SummarySink::create(&path).unwrap()));
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v["sessions"].as_u64(), Some(report.sessions as u64));
        assert_eq!(v["stream_fp"].as_str(), Some(report.stream_fp.as_str()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_serve_rejects_a_sink_that_needs_the_report() {
        let path = tmp("stream-summary.json");
        let engine = engine_with(Box::new(SummarySink::create(&path).unwrap()));
        let mut rows = Vec::new();
        let err = engine
            .run_streaming(&mut rows)
            .expect_err("summary under --stream");
        assert!(matches!(err, EntkError::Usage(_)), "{err}");
        assert!(err.to_string().contains("\"summary\""), "{err}");
        assert!(rows.is_empty(), "rejected before serving anything");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_registry_requires_params_and_lists_names() {
        let err = match sinks().build(&ComponentSpec::named("jsonl"), &()) {
            Err(e) => e,
            Ok(_) => panic!("params required"),
        };
        assert_eq!(
            err.to_string(),
            "usage error: bad params for report sink \"jsonl\": PathParams: missing field `path`"
        );
        let err = match sinks().build(&ComponentSpec::named("csv"), &()) {
            Err(e) => e,
            Ok(_) => panic!("unknown sink"),
        };
        let msg = err.to_string();
        for name in ["gauges", "jsonl", "summary"] {
            assert!(msg.contains(name), "{msg}");
        }
    }
}
