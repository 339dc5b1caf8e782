//! Property tests: a generated stream of valid arrivals survives the
//! CSV render → parse round-trip exactly; the event-driven service
//! matches the FIFO admission-recursion oracle, upholds the fair-share
//! invariant, respects queue bounds, checkpoint/restores exactly at
//! every arrival boundary, and shows attached sinks every session once.

use entk_sim::{SimDuration, SimTime};
use entk_workload::{
    parse_trace, render_record, render_trace, PatternKind, ReportSink, SaturationMode,
    ServiceCheckpoint, ServiceConfig, ServiceEngine, SessionArrival, SessionRecord, WorkloadConfig,
    WorkloadReport, SUPPORTED_KERNELS,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Builds a sorted, schema-valid arrival list from raw draws: each draw is
/// (gap_µs, tenant, selector, cores); pattern shape and kernel derive from
/// the selector.
fn arrivals_from_draws(draws: &[(u64, u64, u64, usize)]) -> Vec<SessionArrival> {
    let mut clock = SimTime::ZERO;
    draws
        .iter()
        .map(|&(gap_us, tenant, sel, cores)| {
            clock += SimDuration::from_secs_f64(gap_us as f64 * 1e-6);
            SessionArrival {
                arrival: clock,
                tenant,
                pattern: PatternKind::ALL[(sel % 4) as usize],
                tasks: 1 + (sel / 4 % 16) as usize,
                stages: 1 + (sel / 64 % 4) as usize,
                kernel: SUPPORTED_KERNELS[(sel / 256) as usize % SUPPORTED_KERNELS.len()]
                    .to_string(),
                cores,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generate_render_parse_round_trips(
        draws in proptest::collection::vec(
            (0u64..120_000_000, 0u64..10_000, 0u64..1_000_000, 1usize..256),
            1..40,
        )
    ) {
        let rows = arrivals_from_draws(&draws);
        let csv = render_trace(&rows);
        let parsed = parse_trace(&csv).expect("rendered trace must parse");
        prop_assert_eq!(parsed, rows);
    }

    #[test]
    fn rendered_traces_replay_identically(
        draws in proptest::collection::vec(
            (0u64..60_000_000, 0u64..100, 0u64..1_000_000, 1usize..64),
            1..20,
        )
    ) {
        let rows = arrivals_from_draws(&draws);
        let a = render_trace(&rows);
        let b = render_trace(&rows);
        prop_assert_eq!(a, b);
    }
}

/// Cheap evaluation draws: tiny sessions on the sleep kernel, so the
/// service-evaluation cost of the queueing properties stays trivial.
fn cheap_arrivals(draws: &[(u64, u64, usize)]) -> Vec<SessionArrival> {
    let mut clock = SimTime::ZERO;
    draws
        .iter()
        .map(|&(gap_us, tenant, cores)| {
            clock += SimDuration::from_secs_f64(gap_us as f64 * 1e-6);
            SessionArrival {
                arrival: clock,
                tenant,
                pattern: PatternKind::Eop,
                tasks: 1 + (cores % 3),
                stages: 1,
                kernel: "misc.sleep".to_string(),
                cores: 1 + cores % 16,
            }
        })
        .collect()
}

/// The original FIFO admission recursion, kept as the oracle:
/// arrival `i` starts at `max(arrival_i, k-th earliest slot-free time)`.
fn fifo_oracle(arrivals: &[SessionArrival], ttcs_us: &[u64], slots: usize) -> Vec<(u64, u64)> {
    let mut free: std::collections::BinaryHeap<std::cmp::Reverse<u64>> =
        (0..slots).map(|_| std::cmp::Reverse(0)).collect();
    arrivals
        .iter()
        .zip(ttcs_us)
        .map(|(a, &ttc)| {
            let std::cmp::Reverse(avail) = free.pop().expect("slots >= 1");
            let start = a.arrival.as_micros().max(avail);
            let finish = start + ttc;
            free.push(std::cmp::Reverse(finish));
            (start, finish)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn event_driven_fifo_matches_the_admission_recursion_oracle(
        draws in proptest::collection::vec((0u64..90_000_000, 0u64..5, 0usize..64), 1..10),
        slots in 1usize..4,
    ) {
        let arrivals = cheap_arrivals(&draws);
        let config = ServiceConfig::fifo(WorkloadConfig { slots, ..WorkloadConfig::default() });
        let report = ServiceEngine::new(config, &arrivals).unwrap().run(&mut std::io::sink()).unwrap();
        let ttcs: Vec<u64> = report.records.iter()
            .map(|r| r.finish_us - r.start_us)
            .collect();
        let expect = fifo_oracle(&arrivals, &ttcs, slots);
        for (r, (start, finish)) in report.records.iter().zip(expect) {
            prop_assert_eq!(r.start_us, start, "session {}", r.session);
            prop_assert_eq!(r.finish_us, finish, "session {}", r.session);
        }
    }

    /// `admit` debug-asserts the invariant at every decision, so a debug
    /// test build checks each admission of each drawn stream; a release
    /// build checks only that the serve completes.
    #[test]
    fn fair_share_never_admits_over_a_waiting_lighter_tenant(
        draws in proptest::collection::vec((0u64..30_000_000, 0u64..4, 0usize..64), 2..10),
        half_life_sel in 0usize..3,
    ) {
        let arrivals = cheap_arrivals(&draws);
        let config = ServiceConfig::fair_share(
            WorkloadConfig { slots: 1, ..WorkloadConfig::default() },
            [0.0, 120.0, 3600.0][half_life_sel],
        );
        let report = ServiceEngine::new(config, &arrivals).unwrap().run(&mut std::io::sink()).unwrap();
        prop_assert_eq!(report.ok_sessions, arrivals.len());
    }

    #[test]
    fn rejecting_saturation_never_exceeds_the_bound(
        draws in proptest::collection::vec((0u64..10_000_000, 0u64..4, 0usize..64), 2..10),
        bound in 1usize..3,
    ) {
        let arrivals = cheap_arrivals(&draws);
        let config = ServiceConfig {
            max_queue_depth: Some(bound),
            saturation: SaturationMode::Reject,
            ..ServiceConfig::fifo(WorkloadConfig { slots: 1, ..WorkloadConfig::default() })
        };
        let report = ServiceEngine::new(config, &arrivals).unwrap().run(&mut std::io::sink()).unwrap();
        prop_assert!(report.queue_depth_peak <= bound as f64);
        prop_assert_eq!(
            report.ok_sessions + report.rejected_sessions,
            arrivals.len()
        );
    }

    #[test]
    fn deferring_saturation_serves_everyone(
        draws in proptest::collection::vec((0u64..10_000_000, 0u64..4, 0usize..64), 2..10),
        bound in 1usize..3,
    ) {
        let arrivals = cheap_arrivals(&draws);
        let config = ServiceConfig {
            max_queue_depth: Some(bound),
            saturation: SaturationMode::Defer,
            ..ServiceConfig::fifo(WorkloadConfig { slots: 1, ..WorkloadConfig::default() })
        };
        let report = ServiceEngine::new(config, &arrivals).unwrap().run(&mut std::io::sink()).unwrap();
        prop_assert_eq!(report.rejected_sessions, 0);
        prop_assert_eq!(report.ok_sessions, arrivals.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole determinism property: the lazy streamed engine —
    /// arrivals pulled through a bounded look-ahead window, service times
    /// evaluated just-in-time on a worker pool, records rendered to a
    /// sink and dropped — produces byte-identical JSONL to the buffered
    /// engine, for every admission policy, saturation mode, look-ahead
    /// width, worker count, and seed. And a checkpoint taken at any
    /// arrival boundary under any look-ahead restores to a byte-identical
    /// suffix.
    #[test]
    fn streamed_engine_is_byte_identical_to_the_buffered_oracle(
        draws in proptest::collection::vec((0u64..20_000_000, 0u64..4, 0usize..64), 2..10),
        seed in 0u64..1000,
        policy_sel in 0usize..2,
        saturation_sel in 0usize..3,
        lookahead in 1usize..5,
        eval_workers in 1usize..3,
    ) {
        let arrivals = cheap_arrivals(&draws);
        let stream_cfg = WorkloadConfig { seed, slots: 1, ..WorkloadConfig::default() };
        let base = match policy_sel {
            0 => ServiceConfig::fifo(stream_cfg),
            _ => ServiceConfig::fair_share(stream_cfg, 120.0),
        };
        let config = match saturation_sel {
            0 => base,
            1 => ServiceConfig {
                max_queue_depth: Some(1),
                saturation: SaturationMode::Reject,
                ..base
            },
            _ => ServiceConfig {
                max_queue_depth: Some(1),
                saturation: SaturationMode::Defer,
                ..base
            },
        };
        let options = entk_workload::EngineOptions { lookahead, eval_workers };

        // Oracle: what the buffered engine wrote at default options.
        let mut oracle_jsonl = Vec::new();
        let oracle = ServiceEngine::new(config.clone(), &arrivals)
            .unwrap()
            .run(&mut oracle_jsonl)
            .unwrap();

        // Streamed sink serve under the drawn knobs.
        let mut sink = Vec::new();
        let stats = ServiceEngine::with_options(config.clone(), &arrivals, options)
            .unwrap()
            .run_streaming(&mut sink)
            .unwrap();
        prop_assert_eq!(&sink, &oracle_jsonl);
        prop_assert_eq!(&stats.stream_fp, &oracle.stream_fp);

        // Checkpoint at a mid-stream boundary under the drawn knobs: the
        // prefix the victim wrote, then the suffix the resumed engine wrote.
        let k = arrivals.len() / 2;
        let mut written = Vec::new();
        let mut victim =
            ServiceEngine::with_options(config.clone(), &arrivals, options).unwrap();
        victim.run_to_boundary(k, &mut written).unwrap();
        let ckpt = ServiceCheckpoint::from_json(&victim.checkpoint().to_json()).unwrap();
        ServiceEngine::restore_with_options(config, &arrivals, &ckpt, options)
            .unwrap()
            .run(&mut written)
            .unwrap();
        prop_assert_eq!(
            &written,
            &oracle_jsonl,
            "boundary {} under lookahead {} must replay exactly", k, lookahead
        );
    }
}

/// Everything a sink was shown, shared with the test that attached it.
type Seen = Arc<Mutex<Vec<(String, SessionRecord)>>>;

/// A sink that records what it is shown.
struct Tap(Seen);

impl ReportSink for Tap {
    fn name(&self) -> &'static str {
        "tap"
    }

    fn on_record(
        &mut self,
        line: &str,
        record: &SessionRecord,
    ) -> Result<(), entk_core::EntkError> {
        self.0
            .lock()
            .unwrap()
            .push((line.to_string(), record.clone()));
        Ok(())
    }

    fn finish(&mut self, _report: Option<&WorkloadReport>) -> Result<(), entk_core::EntkError> {
        Ok(())
    }
}

/// Attaches a fresh [`Tap`] and returns the log it fills.
fn tap(engine: &mut ServiceEngine) -> Seen {
    let seen = Seen::default();
    engine.attach(Box::new(Tap(Arc::clone(&seen))));
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sinks are observers of the one emission point: under every policy,
    /// saturation mode and look-ahead width, each attached sink sees every
    /// session exactly once, in session order, with the rendered line of
    /// that record — retaining or not — and a restored engine shows its
    /// sinks exactly the post-checkpoint suffix.
    #[test]
    fn attached_sinks_see_every_session_once_in_order(
        draws in proptest::collection::vec((0u64..20_000_000, 0u64..4, 0usize..64), 2..10),
        policy_sel in 0usize..2,
        saturation_sel in 0usize..3,
        lookahead in 1usize..5,
    ) {
        let arrivals = cheap_arrivals(&draws);
        let stream_cfg = WorkloadConfig { slots: 1, ..WorkloadConfig::default() };
        let config = ServiceConfig {
            max_queue_depth: (saturation_sel > 0).then_some(1),
            saturation: [SaturationMode::Reject, SaturationMode::Reject, SaturationMode::Defer]
                [saturation_sel],
            ..match policy_sel {
                0 => ServiceConfig::fifo(stream_cfg),
                _ => ServiceConfig::fair_share(stream_cfg, 120.0),
            }
        };
        let options = entk_workload::EngineOptions { lookahead, eval_workers: 1 };
        let engine = || ServiceEngine::with_options(config.clone(), &arrivals, options).unwrap();

        // Retaining run, two sinks.
        let mut retaining = engine();
        let (first, second) = (tap(&mut retaining), tap(&mut retaining));
        let mut retained_rows = Vec::new();
        let report = retaining.run(&mut retained_rows).unwrap();
        let first = first.lock().unwrap().clone();
        prop_assert_eq!(&*second.lock().unwrap(), &first);
        prop_assert_eq!(first.len(), arrivals.len());
        for (i, (line, record)) in first.iter().enumerate() {
            prop_assert_eq!(record.session, i);
            prop_assert_eq!(record, &report.records[i]);
            prop_assert_eq!(line, &render_record(record));
        }

        // Non-retaining run: the same records and lines.
        let mut streaming = engine();
        let streamed = tap(&mut streaming);
        let mut rows = Vec::new();
        streaming.run_streaming(&mut rows).unwrap();
        prop_assert_eq!(&*streamed.lock().unwrap(), &first);
        prop_assert_eq!(rows, retained_rows);

        // Restored engine: exactly the post-checkpoint suffix.
        let mut victim = engine();
        victim.run_to_boundary(arrivals.len() / 2, &mut std::io::sink()).unwrap();
        let ckpt = victim.checkpoint();
        let mut resumed =
            ServiceEngine::restore_with_options(config.clone(), &arrivals, &ckpt, options).unwrap();
        let suffix = tap(&mut resumed);
        resumed.run(&mut std::io::sink()).unwrap();
        prop_assert_eq!(&*suffix.lock().unwrap(), &first[ckpt.emitted..]);
    }
}

#[test]
fn checkpoint_restore_at_every_arrival_boundary_is_exact() {
    let draws: Vec<(u64, u64, usize)> = (0..8)
        .map(|i| (((i * 37) % 11) * 3_000_000, i % 3, (i * 13) as usize))
        .collect();
    let arrivals = cheap_arrivals(&draws);
    for (label, config) in [
        (
            "fifo",
            ServiceConfig::fifo(WorkloadConfig {
                slots: 2,
                ..WorkloadConfig::default()
            }),
        ),
        (
            "fair",
            ServiceConfig::fair_share(
                WorkloadConfig {
                    slots: 2,
                    ..WorkloadConfig::default()
                },
                120.0,
            ),
        ),
        (
            "bounded",
            ServiceConfig {
                max_queue_depth: Some(1),
                saturation: SaturationMode::Defer,
                ..ServiceConfig::fifo(WorkloadConfig {
                    slots: 1,
                    ..WorkloadConfig::default()
                })
            },
        ),
    ] {
        let mut full_jsonl = Vec::new();
        let full = ServiceEngine::new(config.clone(), &arrivals)
            .unwrap()
            .run(&mut full_jsonl)
            .unwrap();
        for k in 0..=arrivals.len() {
            // The prefix the victim wrote, then the suffix the resumed
            // engine wrote.
            let mut written = Vec::new();
            let mut victim = ServiceEngine::new(config.clone(), &arrivals).unwrap();
            victim.run_to_boundary(k, &mut written).unwrap();
            let ckpt = ServiceCheckpoint::from_json(&victim.checkpoint().to_json()).unwrap();
            let resumed = ServiceEngine::restore(config.clone(), &arrivals, &ckpt)
                .unwrap()
                .run(&mut written)
                .unwrap();
            assert_eq!(
                written, full_jsonl,
                "{label}: boundary {k} must replay a byte-identical stream"
            );
            assert_eq!(resumed, full, "{label}: boundary {k} report mismatch");
        }
    }
}
