//! Checkpoint / restore of the session service at an arrival boundary.
//!
//! [`ServiceEngine::checkpoint`] serializes the complete admission state
//! at an arrival boundary: the pending and deferred queues, in-flight
//! slot occupancy (finish instants), per-tenant usage balances with their
//! decay instant, the arrival cursor, the emitted-record cursor, and the
//! per-session seed cursor (the master seed — sub-seeds are a pure
//! splitmix64 function of it and the session index, so the cursor is just
//! the next index). The arrival-stream fingerprint is a *prefix*
//! fingerprint — the fold of the rendered CSV header plus every ingested
//! row — so it is identical at a given boundary no matter what the
//! look-ahead window happened to hold. [`ServiceEngine::restore`]
//! rebuilds the engine by re-pulling the served prefix from the stream
//! (validating, order-checking, and fingerprint-matching it row by row
//! while retaining only the rows still queued), re-evaluates only the
//! sessions that still need service times (pending, deferred, and
//! not-yet-arrived — completed sessions are carried as finalized
//! records), and replays to a byte-identical `WORKLOAD.jsonl` suffix:
//! prefix-emitted-before-the-kill + suffix is byte-identical to the
//! uninterrupted stream, including its fingerprint.
//!
//! Determinism argument: every admission decision is a pure function of
//! (config, arrivals, per-session service times), service times are pure
//! functions of (config, arrival, splitmix64(seed, index)), and the event
//! order is totally ordered by (time, kind, session index). A checkpoint
//! carries exactly the loop state, so the resumed trajectory is the same
//! trajectory.

use super::{EngineOptions, ServiceConfig, ServiceEngine};
use crate::arrival::IntoArrivalStream;
use crate::runner::{fnv64_update, SessionRecord};
use crate::trace::render_row;
use entk_core::EntkError;
use entk_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One in-flight slot in a checkpoint: the session and when its slot
/// frees. The start instant is already on the session's finalized record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InFlightSlot {
    /// Session occupying the slot.
    pub session: usize,
    /// Instant the slot frees, in microseconds.
    pub finish_us: u64,
}

/// A serialized arrival-boundary snapshot of the service's admission
/// state. JSON via [`ServiceCheckpoint::to_json`] /
/// [`ServiceCheckpoint::from_json`]; integrity-checked on restore against
/// the config and the arrival trace fingerprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCheckpoint {
    /// Checkpoint format version (2: `arrivals_fp` became a prefix
    /// fingerprint when ingestion went streaming).
    pub version: u32,
    /// Master seed (the RNG sub-seed cursor together with `next_arrival`).
    pub seed: u64,
    /// Resource label of the stream config.
    pub resource: String,
    /// Admission slots.
    pub slots: usize,
    /// Backend label (`simulated` or `federated:N`).
    pub backend: String,
    /// Admission policy label.
    pub policy: String,
    /// Fair-share usage half-life, seconds.
    pub half_life_secs: f64,
    /// Pending-queue bound (`None` = unbounded).
    pub max_queue_depth: Option<usize>,
    /// Saturation mode label.
    pub saturation: String,
    /// Strict failure semantics flag.
    pub strict: bool,
    /// Per-unit failure-injection rate of the stream config.
    pub unit_failure_rate: f64,
    /// Scheduler plugin of the stream config (`None` = backend default;
    /// absent in pre-registry checkpoints, which restore as the default).
    #[serde(default)]
    pub scheduler: Option<entk_core::ComponentSpec>,
    /// Session fault policy of the stream config (absent in pre-registry
    /// checkpoints, which restore as the default).
    #[serde(default)]
    pub fault: Option<entk_core::FaultConfig>,
    /// FNV-1a 64 fingerprint of the rendered arrival-trace *prefix*
    /// ingested so far (header plus rows `0..next_arrival`), so a
    /// checkpoint cannot silently resume against a stream whose served
    /// prefix differs. Rows past the boundary are not covered — an
    /// out-of-core stream cannot be hashed without consuming it — but
    /// they are still order- and schema-validated as they are pulled.
    pub arrivals_fp: String,
    /// Virtual clock at the boundary, microseconds.
    pub clock_us: u64,
    /// Arrivals ingested so far (the next arrival index).
    pub next_arrival: usize,
    /// Records already emitted to the stream JSONL (the suffix a resumed
    /// service produces starts here).
    pub emitted: usize,
    /// Arrived-but-not-admitted sessions, in queue order.
    pub pending: Vec<usize>,
    /// Overflow sessions deferred past the queue bound, in arrival order.
    pub deferred: Vec<usize>,
    /// Occupied slots and their release instants.
    pub in_flight: Vec<InFlightSlot>,
    /// Per-tenant decayed usage balances (fair-share state).
    pub usage: Vec<(u64, f64)>,
    /// Instant the balances were last decayed to, microseconds.
    pub usage_decayed_at_us: Option<u64>,
    /// Largest per-session cross-check error seen so far, seconds.
    pub max_cross_check_err_secs: f64,
    /// Finalized per-session records (admitted or rejected sessions).
    pub records: Vec<SessionRecord>,
}

impl ServiceCheckpoint {
    /// Serializes the checkpoint as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("checkpoint serializes")
    }

    /// Parses a checkpoint from JSON text.
    pub fn from_json(text: &str) -> Result<Self, EntkError> {
        serde_json::from_str(text).map_err(|e| EntkError::Usage(format!("bad checkpoint: {e}")))
    }
}

impl ServiceEngine {
    /// Serializes the admission state at the current arrival boundary.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        let s = &self.config.stream;
        ServiceCheckpoint {
            version: 2,
            seed: s.seed,
            resource: s.resource.clone(),
            slots: s.slots,
            backend: s.backend.label(),
            policy: self.config.policy.label().to_string(),
            half_life_secs: self.config.policy.half_life_secs(),
            max_queue_depth: self.config.max_queue_depth,
            saturation: self.config.saturation.label().to_string(),
            strict: self.config.strict,
            unit_failure_rate: s.unit_failure_rate,
            scheduler: s.scheduler.clone(),
            fault: Some(s.fault),
            arrivals_fp: format!("{:016x}", self.prefix_fp),
            clock_us: self.clock.as_micros(),
            next_arrival: self.next_arrival,
            emitted: self.emitted,
            pending: self.pending.iter().map(|row| row.index).collect(),
            deferred: self.deferred.iter().map(|row| row.index).collect(),
            in_flight: {
                let mut slots: Vec<InFlightSlot> = self
                    .in_flight
                    .iter()
                    .map(|&Reverse((t, i))| InFlightSlot {
                        session: i,
                        finish_us: t.as_micros(),
                    })
                    .collect();
                slots.sort_by_key(|s| (s.finish_us, s.session));
                slots
            },
            usage: self.ledger.balances().map(|(k, v)| (*k, v)).collect(),
            usage_decayed_at_us: self.ledger.last_decay_micros(),
            max_cross_check_err_secs: self.acc.stats.max_cross_check_err_secs,
            // Emitted sessions are a contiguous prefix, so this is index
            // order.
            records: self
                .records
                .iter()
                .chain(self.window.values())
                .cloned()
                .collect(),
        }
    }

    /// Rebuilds a service from a checkpoint. The checkpoint must match
    /// the config and the arrival stream's served prefix (the prefix is
    /// re-pulled, re-validated, and fingerprint-checked while skipping);
    /// only sessions that still need service times — pending, deferred,
    /// or not yet arrived — are re-evaluated, exactly the discipline the
    /// just-in-time pool applies everywhere. The restored engine emits
    /// the stream JSONL *suffix* from the checkpoint's `emitted` cursor;
    /// prefix + suffix is byte-identical to the uninterrupted run.
    pub fn restore(
        config: ServiceConfig,
        arrivals: impl IntoArrivalStream,
        ckpt: &ServiceCheckpoint,
    ) -> Result<Self, EntkError> {
        Self::restore_with_options(config, arrivals, ckpt, EngineOptions::default())
    }

    /// [`ServiceEngine::restore`] with explicit streaming knobs.
    pub fn restore_with_options(
        config: ServiceConfig,
        arrivals: impl IntoArrivalStream,
        ckpt: &ServiceCheckpoint,
        options: EngineOptions,
    ) -> Result<Self, EntkError> {
        Self::validate_config(&config)?;
        if ckpt.version != 2 {
            return Err(EntkError::Usage(format!(
                "unsupported checkpoint version {}",
                ckpt.version
            )));
        }
        let s = &config.stream;
        let mismatches: Vec<&str> = [
            (ckpt.seed != s.seed, "seed"),
            (ckpt.resource != s.resource, "resource"),
            (ckpt.slots != s.slots, "slots"),
            (ckpt.backend != s.backend.label(), "backend"),
            (ckpt.policy != config.policy.label(), "policy"),
            (
                ckpt.half_life_secs != config.policy.half_life_secs(),
                "half_life_secs",
            ),
            (
                ckpt.max_queue_depth != config.max_queue_depth,
                "max_queue_depth",
            ),
            (ckpt.saturation != config.saturation.label(), "saturation"),
            (ckpt.strict != config.strict, "strict"),
            (
                ckpt.unit_failure_rate != s.unit_failure_rate,
                "unit_failure_rate",
            ),
            (ckpt.scheduler != s.scheduler, "scheduler"),
            (ckpt.fault.unwrap_or_default() != s.fault, "fault"),
        ]
        .iter()
        .filter_map(|&(differs, name)| differs.then_some(name))
        .collect();
        if !mismatches.is_empty() {
            return Err(EntkError::Usage(format!(
                "checkpoint does not match the service config (differs on: {})",
                mismatches.join(", ")
            )));
        }
        // Balances are core-seconds; anything else would steer fair-share
        // admission wherever the edit pointed it.
        if let Some((tenant, balance)) = ckpt
            .usage
            .iter()
            .find(|(_, balance)| !(balance.is_finite() && *balance >= 0.0))
        {
            return Err(EntkError::Usage(format!(
                "checkpoint usage balance of tenant {tenant} must be finite and >= 0, \
                 got {balance:?}"
            )));
        }
        let mut tenants = BTreeSet::new();
        if let Some((tenant, _)) = ckpt.usage.iter().find(|(t, _)| !tenants.insert(*t)) {
            return Err(EntkError::Usage(format!(
                "checkpoint usage lists tenant {tenant} more than once"
            )));
        }
        // A session is in at most one of these lists; `listed` maps each
        // session to the list that names it first.
        let mut listed: HashMap<usize, &str> = HashMap::new();
        let places = (ckpt.pending.iter().map(|&i| ("pending", i)))
            .chain(ckpt.deferred.iter().map(|&i| ("deferred", i)))
            .chain(
                ckpt.in_flight
                    .iter()
                    .map(|slot| ("in_flight", slot.session)),
            );
        for (field, i) in places {
            if let Some(first) = listed.insert(i, field) {
                return Err(EntkError::Usage(format!(
                    "checkpoint session {i} is listed in {first} and again in {field}"
                )));
            }
        }
        let stream = arrivals.into_arrival_stream()?;
        let mut engine = Self::empty(config, options, stream);
        // Re-pull the served prefix: every row is validated, order-checked,
        // and folded into the prefix fingerprint, but only rows still
        // queued (pending or deferred) are retained — the rest are dropped
        // as soon as they are hashed, so restore stays bounded-memory.
        let mut queued = HashMap::new();
        while engine.next_arrival < ckpt.next_arrival {
            let Some((i, row)) = engine.pull_row()? else {
                return Err(EntkError::Usage("checkpoint cursors out of range".into()));
            };
            engine.next_arrival += 1;
            engine.prefix_fp = fnv64_update(engine.prefix_fp, render_row(&row).as_bytes());
            if matches!(listed.get(&i), Some(&"pending" | &"deferred")) {
                queued.insert(i, row);
            }
        }
        let clock = SimTime::from_micros(ckpt.clock_us);
        if engine.last_pulled_at.is_some_and(|last| clock < last) {
            return Err(EntkError::Usage(format!(
                "checkpoint clock_us {} is before the last ingested arrival",
                ckpt.clock_us
            )));
        }
        let fp = format!("{:016x}", engine.prefix_fp);
        if ckpt.arrivals_fp != fp {
            return Err(EntkError::Usage(
                "checkpoint was taken against a different arrival stream \
                 (trace fingerprint mismatch)"
                    .into(),
            ));
        }
        let n = ckpt.next_arrival;
        if ckpt.emitted > n {
            return Err(EntkError::Usage("checkpoint cursors out of range".into()));
        }
        let mut finalized: BTreeMap<usize, SessionRecord> = BTreeMap::new();
        for r in &ckpt.records {
            if r.session >= n || finalized.insert(r.session, r.clone()).is_some() {
                return Err(EntkError::Usage(format!(
                    "checkpoint record for session {} is out of range or duplicated",
                    r.session
                )));
            }
        }
        // Service times are needed only for sessions whose admission is
        // still ahead. Each queued row goes back to the evaluation pool and
        // into its queue now, in checkpoint order; not-yet-arrived rows are
        // dispatched as `fill_readahead` pulls them. A row past the boundary
        // was never pulled, so it is not in `queued`.
        let ServiceEngine {
            eval,
            pending,
            deferred,
            ..
        } = &mut engine;
        for (listed, queue) in [(&ckpt.pending, pending), (&ckpt.deferred, deferred)] {
            for &i in listed {
                let arrival = queued.remove(&i).filter(|_| !finalized.contains_key(&i));
                let Some(arrival) = arrival else {
                    return Err(EntkError::Usage(format!(
                        "checkpoint queues session {i} inconsistently"
                    )));
                };
                queue.push_back(eval.dispatch(i, arrival));
            }
        }
        for slot in &ckpt.in_flight {
            // `finalized` holds only sessions below `next_arrival`.
            let record = finalized.get(&slot.session);
            let Some(record) = record.filter(|_| slot.finish_us >= ckpt.clock_us) else {
                return Err(EntkError::Usage(format!(
                    "checkpoint in-flight slot for session {} is inconsistent",
                    slot.session
                )));
            };
            if record.finish_us != slot.finish_us {
                return Err(EntkError::Usage(format!(
                    "checkpoint in_flight finish_us {} of session {} differs from its \
                     record's finish_us {}",
                    slot.finish_us, slot.session, record.finish_us
                )));
            }
        }
        if ckpt.in_flight.len() > engine.config.stream.slots {
            return Err(EntkError::Usage(
                "checkpoint occupies more slots than the config provides".into(),
            ));
        }
        // Replay the emitted prefix through the emission point (no observer
        // is attached yet): running stats, fingerprint and retained lines
        // become exactly what the uninterrupted run held at this boundary,
        // and what stays in the window is finalized but not yet emitted.
        engine.window = finalized;
        engine.emit(&mut std::io::sink())?;
        if engine.emitted != ckpt.emitted {
            return Err(EntkError::Usage(
                "checkpoint emitted cursor does not match its finalized records".into(),
            ));
        }
        engine.ledger = entk_cluster::UsageLedger::restore(
            engine.config.policy.half_life_secs(),
            ckpt.usage.iter().copied(),
            ckpt.usage_decayed_at_us,
        );
        engine.clock = clock;
        engine.in_flight = ckpt
            .in_flight
            .iter()
            .map(|slot| Reverse((SimTime::from_micros(slot.finish_us), slot.session)))
            .collect();
        engine.acc.stats.max_cross_check_err_secs = ckpt.max_cross_check_err_secs;
        // A boundary applies no completion past the next arrival, so the
        // clock never passes it.
        engine.fill_readahead()?;
        if engine.peek_arrival().is_some_and(|next| clock > next) {
            return Err(EntkError::Usage(format!(
                "checkpoint clock_us {} is after the next arrival still to ingest",
                ckpt.clock_us
            )));
        }
        Ok(engine)
    }
}
