//! End-to-end stream tests: the synthetic trace served on both backends,
//! with replay identity, cross-check budgets, populated reports,
//! per-session failure semantics, backpressure, and checkpoint/restore.

use entk_workload::{
    parse_trace, render_record, PatternKind, SaturationMode, ServiceCheckpoint, ServiceConfig,
    ServiceEngine, SessionArrival, SessionStatus, StreamBackend, StreamSpec, SyntheticTrace,
    WorkloadConfig, WorkloadGenerator, WorkloadReport,
};

fn small_config(backend: StreamBackend) -> WorkloadConfig {
    WorkloadConfig {
        seed: 2016,
        resource: "xsede.stampede".into(),
        slots: 2,
        backend,
        unit_failure_rate: 0.0,
        ..WorkloadConfig::default()
    }
}

/// A FIFO serve over an unbounded queue, with lenient failures.
fn serve(config: &WorkloadConfig, arrivals: &[SessionArrival]) -> WorkloadReport {
    ServiceEngine::new(ServiceConfig::fifo(config.clone()), arrivals)
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap()
}

#[test]
fn synthetic_stream_replays_identically_on_simulated_backend() {
    let arrivals = SyntheticTrace::new(11, 10, 4).generate().unwrap();
    let config = small_config(StreamBackend::Simulated);
    let a = serve(&config, &arrivals);
    let b = serve(&config, &arrivals);
    assert_eq!(a.records, b.records, "every stream record must replay");
    assert_eq!(a.stream_fp, b.stream_fp);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "serialized report must be byte-identical"
    );
}

#[test]
fn synthetic_stream_replays_identically_on_federated_backend() {
    let arrivals = SyntheticTrace::new(11, 6, 3).generate().unwrap();
    let config = small_config(StreamBackend::Federated { members: 2 });
    let a = serve(&config, &arrivals);
    let b = serve(&config, &arrivals);
    assert_eq!(a, b);
    assert_eq!(a.backend, "federated:2");
}

#[test]
fn served_stream_reports_are_fully_populated() {
    let arrivals = SyntheticTrace::new(5, 12, 4).generate().unwrap();
    let r = &serve(&small_config(StreamBackend::Simulated), &arrivals);
    assert_eq!(r.sessions, 12);
    assert!(r.tenants >= 1 && r.tenants <= 4);
    assert!(r.total_tasks > 0);
    assert!(r.total_events > 0);
    assert!(r.makespan_secs > 0.0);
    assert!(r.max_cross_check_err_secs <= 1e-6, "cross-check budget");
    // Aggregate latency percentiles are ordered and positive.
    assert!(r.latency.p50 > 0.0);
    assert!(r.latency.p50 <= r.latency.p95);
    assert!(r.latency.p95 <= r.latency.p99);
    // Per-tenant rows cover every tenant seen in the stream, sorted.
    assert_eq!(r.per_tenant.len(), r.tenants);
    for w in r.per_tenant.windows(2) {
        assert!(w[0].tenant < w[1].tenant);
    }
    assert_eq!(
        r.per_tenant.iter().map(|t| t.sessions).sum::<usize>(),
        r.sessions
    );
    // Queue depth series starts populated and drains to zero.
    assert!(!r.queue_depth.is_empty());
    assert_eq!(r.queue_depth.last().unwrap().1, 0.0);
    assert!(r.queue_depth_peak >= 0.0);
    // One record per session.
    assert_eq!(r.records.len(), r.sessions);
}

#[test]
fn synthetic_trace_csv_serves_the_same_stream_as_the_generator() {
    let synth = SyntheticTrace::new(9, 8, 3);
    let direct = synth.generate().unwrap();
    let via_csv = parse_trace(&synth.to_csv().unwrap()).unwrap();
    assert_eq!(direct, via_csv);
    let config = small_config(StreamBackend::Simulated);
    assert_eq!(serve(&config, &direct), serve(&config, &via_csv));
}

#[test]
fn spec_driven_run_matches_direct_serve() {
    let text = r#"{
        "seed": 11,
        "slots": 2,
        "source": { "kind": "synthetic", "sessions": 10, "tenants": 4 }
    }"#;
    let via_spec = StreamSpec::from_json(text).unwrap().run().unwrap();
    let arrivals = SyntheticTrace::new(11, 10, 4).generate().unwrap();
    let config = WorkloadConfig {
        seed: 11,
        ..small_config(StreamBackend::Simulated)
    };
    assert_eq!(via_spec, serve(&config, &arrivals));
}

#[test]
fn failed_sessions_are_recorded_without_killing_the_stream() {
    // An impossible core request fails that session's backend run; the
    // stream must carry it as a `failed` record and keep serving.
    let mut arrivals = SyntheticTrace::new(7, 8, 3).generate().unwrap();
    arrivals[3].cores = 1_000_000_000;
    let r = &serve(&small_config(StreamBackend::Simulated), &arrivals);
    assert_eq!(r.sessions, 8);
    assert_eq!(r.failed_sessions, 1);
    assert_eq!(r.ok_sessions, 7);
    let failed = &r.records[3];
    assert_eq!(failed.status, SessionStatus::Failed);
    assert!(failed.error.as_deref().unwrap().contains("resource error"));
    assert_eq!(failed.ttc_secs, 0.0);
    assert_eq!(failed.tasks, 0);
    assert!(render_record(failed).contains("\"status\":\"failed\""));
    // The failed session contributes no latency sample.
    assert_eq!(r.per_tenant.iter().map(|t| t.sessions).sum::<usize>(), 7);
}

/// A session error renders as a strict JSON string whatever it holds: no
/// raw control character reaches the line, and the line reads back to the
/// same error.
#[test]
fn a_session_error_renders_as_strict_json() {
    let arrivals = SyntheticTrace::new(7, 1, 1).generate().unwrap();
    let mut record = serve(&small_config(StreamBackend::Simulated), &arrivals).records[0].clone();
    for error in [
        "tab\there",
        "cr\rhere",
        "ctl\u{1}here",
        "q\"uote",
        "back\\slash",
        "new\nline",
    ] {
        record.error = Some(error.to_string());
        let line = render_record(&record);
        let body = line.strip_suffix('\n').expect("one line");
        assert!(
            body.bytes().all(|b| b >= 0x20),
            "{error:?} renders raw: {body}"
        );
        let parsed: serde_json::Value = serde_json::from_str(body).expect("strict JSON");
        assert_eq!(parsed["error"].as_str(), Some(error));
    }
}

/// Values that can only be mistakes stop a config built in code before any
/// session is served, the same as one loaded from a spec file.
#[test]
fn impossible_config_values_are_refused_before_the_first_session() {
    use entk_workload::AdmissionPolicy;
    let arrivals = SyntheticTrace::new(7, 4, 2).generate().unwrap();
    let config = |edit: fn(&mut ServiceConfig)| {
        let mut config = ServiceConfig::fifo(small_config(StreamBackend::Simulated));
        edit(&mut config);
        config
    };
    let rate = "unit_failure_rate must be a probability";
    for (config, needle) in [
        (config(|c| c.stream.unit_failure_rate = 2.0), rate),
        (config(|c| c.stream.unit_failure_rate = -1.0), rate),
        (config(|c| c.stream.unit_failure_rate = f64::NAN), rate),
        (
            config(|c| {
                c.policy = AdmissionPolicy::FairShare {
                    half_life_secs: -600.0,
                }
            }),
            "half_life_secs must be finite and >= 0",
        ),
        (
            config(|c| c.stream.resource = "nope".into()),
            "unknown resource \"nope\" (known platforms: xsede.comet",
        ),
    ] {
        let err = ServiceEngine::new(config, &arrivals)
            .map(|_| ())
            .expect_err(needle);
        assert!(matches!(err, entk_core::EntkError::Usage(_)), "{err}");
        assert!(err.to_string().contains(needle), "{err}");
    }
}

#[test]
fn strict_mode_restores_stream_fatal_failures() {
    let mut arrivals = SyntheticTrace::new(7, 8, 3).generate().unwrap();
    arrivals[3].cores = 1_000_000_000;
    let config = ServiceConfig {
        strict: true,
        ..ServiceConfig::fifo(small_config(StreamBackend::Simulated))
    };
    let err = ServiceEngine::new(config, &arrivals)
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap_err();
    assert!(err.to_string().contains("resource error"), "{err}");
}

#[test]
fn a_panicking_evaluation_is_a_failed_session_not_a_hung_serve() {
    // A hostile trace row: `usize::MAX` pipelines overflow the pattern's
    // task table, which panics ("capacity overflow") on the evaluation
    // worker. The worker survives and nothing else would ever report for
    // that session, so the serve used to block on it forever: run it on a
    // thread and bound the wait, so a regression fails instead of hanging.
    let mut arrivals = SyntheticTrace::new(7, 8, 3).generate().unwrap();
    arrivals[3].pattern = PatternKind::Eop;
    arrivals[3].tasks = usize::MAX;
    arrivals[3].stages = 1;
    let bounded = |config: ServiceConfig| {
        let arrivals = arrivals.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(
                ServiceEngine::new(config, &arrivals)
                    .unwrap()
                    .run(&mut std::io::sink()),
            );
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("the serve hung on a panicked evaluation")
    };
    let lenient = ServiceConfig::fifo(small_config(StreamBackend::Simulated));
    let report = bounded(lenient.clone()).unwrap();
    assert_eq!(report.sessions, 8);
    assert_eq!(report.failed_sessions, 1);
    assert_eq!(report.ok_sessions, 7);
    let failed = &report.records[3];
    assert_eq!(failed.status, SessionStatus::Failed);
    let error = failed.error.as_deref().unwrap();
    assert!(
        error.contains("evaluation panicked: capacity overflow"),
        "{error}"
    );
    // Under `strict` it is stream-fatal, like any other failed session.
    let err = bounded(ServiceConfig {
        strict: true,
        ..lenient
    })
    .unwrap_err();
    assert!(err.to_string().contains("evaluation panicked"), "{err}");
}

#[test]
fn degraded_sessions_are_recorded_as_partial() {
    let stream = WorkloadConfig {
        unit_failure_rate: 1.0,
        ..small_config(StreamBackend::Simulated)
    };
    let arrivals = SyntheticTrace::new(7, 4, 2).generate().unwrap();
    let report = serve(&stream, &arrivals);
    assert_eq!(report.partial_sessions, 4);
    assert_eq!(report.ok_sessions, 0);
    assert!(report
        .records
        .iter()
        .all(|r| r.status == SessionStatus::Partial && r.ttc_secs > 0.0));
    // Partial sessions still serve and still count toward latency.
    assert!(report.latency.p50 > 0.0);

    let strict = ServiceConfig {
        strict: true,
        ..ServiceConfig::fifo(stream)
    };
    let err = ServiceEngine::new(strict, &arrivals)
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap_err();
    assert!(err.to_string().contains("partial"), "{err}");
}

#[test]
fn bounded_queue_rejects_past_the_bound_with_saturated_outcomes() {
    let config = ServiceConfig {
        max_queue_depth: Some(1),
        saturation: SaturationMode::Reject,
        ..ServiceConfig::fifo(WorkloadConfig {
            slots: 1,
            ..small_config(StreamBackend::Simulated)
        })
    };
    let arrivals = SyntheticTrace::new(3, 16, 4).generate().unwrap();
    let r = &ServiceEngine::new(config, &arrivals)
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap();
    assert!(r.rejected_sessions > 0, "a burst must overflow depth 1");
    assert_eq!(r.rejected_sessions + r.ok_sessions, 16);
    assert!(
        r.queue_depth_peak <= 1.0,
        "rejection keeps the queue at its bound (peak {})",
        r.queue_depth_peak
    );
    for rec in r
        .records
        .iter()
        .filter(|r| r.status == SessionStatus::Rejected)
    {
        assert!(rec.error.as_deref().unwrap().starts_with("saturated:"));
        assert_eq!(rec.ttc_secs, 0.0);
        assert_eq!(rec.start_us, rec.arrival_us);
    }
    // Rejection is per-session, never stream-fatal: replay is identical.
    let again = ServiceEngine::new(
        ServiceConfig {
            max_queue_depth: Some(1),
            saturation: SaturationMode::Reject,
            ..ServiceConfig::fifo(WorkloadConfig {
                slots: 1,
                ..small_config(StreamBackend::Simulated)
            })
        },
        &arrivals,
    )
    .unwrap()
    .run(&mut std::io::sink())
    .unwrap();
    assert_eq!(r, &again);
}

#[test]
fn deferred_arrivals_are_eventually_served() {
    let config = ServiceConfig {
        max_queue_depth: Some(1),
        saturation: SaturationMode::Defer,
        ..ServiceConfig::fifo(WorkloadConfig {
            slots: 1,
            ..small_config(StreamBackend::Simulated)
        })
    };
    let arrivals = SyntheticTrace::new(3, 16, 4).generate().unwrap();
    let out = ServiceEngine::new(config, &arrivals)
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap();
    assert_eq!(out.rejected_sessions, 0);
    assert_eq!(out.ok_sessions, 16);
    // FIFO + defer serves in arrival order, so the outcome matches the
    // unbounded queue exactly.
    let unbounded = serve(
        &WorkloadConfig {
            slots: 1,
            ..small_config(StreamBackend::Simulated)
        },
        &arrivals,
    );
    assert_eq!(out.records, unbounded.records);
}

#[test]
fn kill_mid_stream_and_resume_replays_a_byte_identical_suffix() {
    let arrivals = SyntheticTrace::new(13, 12, 4).generate().unwrap();
    let config = ServiceConfig::fair_share(small_config(StreamBackend::Simulated), 300.0);

    let mut full_jsonl = Vec::new();
    let full = ServiceEngine::new(config.clone(), &arrivals)
        .unwrap()
        .run(&mut full_jsonl)
        .unwrap();

    // "Kill" the service at the mid-stream arrival boundary: keep only
    // what it checkpointed and what it had already written.
    let mut prefix = Vec::new();
    let mut victim = ServiceEngine::new(config.clone(), &arrivals).unwrap();
    victim.run_to_boundary(6, &mut prefix).unwrap();
    let ckpt_json = victim.checkpoint().to_json();
    drop(victim);

    let ckpt = ServiceCheckpoint::from_json(&ckpt_json).unwrap();
    assert_eq!(ckpt.next_arrival, 6);
    let mut suffix = Vec::new();
    let resumed = ServiceEngine::restore(config, &arrivals, &ckpt)
        .unwrap()
        .run(&mut suffix)
        .unwrap();
    assert_eq!(
        [prefix, suffix].concat(),
        full_jsonl,
        "prefix + resumed suffix must be byte-identical to the uninterrupted stream"
    );
    assert_eq!(resumed, full);
}

#[test]
fn checkpoints_refuse_mismatched_configs_and_streams() {
    let arrivals = SyntheticTrace::new(13, 8, 3).generate().unwrap();
    let config = ServiceConfig::fifo(small_config(StreamBackend::Simulated));
    let mut engine = ServiceEngine::new(config.clone(), &arrivals).unwrap();
    engine.run_to_boundary(4, &mut std::io::sink()).unwrap();
    let ckpt = engine.checkpoint();

    let wrong_seed = ServiceConfig::fifo(WorkloadConfig {
        seed: 999,
        ..small_config(StreamBackend::Simulated)
    });
    let err = ServiceEngine::restore(wrong_seed, &arrivals, &ckpt).unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");

    let wrong_policy = ServiceConfig::fair_share(small_config(StreamBackend::Simulated), 60.0);
    let err = ServiceEngine::restore(wrong_policy, &arrivals, &ckpt).unwrap_err();
    assert!(err.to_string().contains("policy"), "{err}");

    // The emitted cursor must be exactly the contiguous finalized prefix.
    let mut rewound = ckpt.clone();
    rewound.emitted -= 1;
    let err = ServiceEngine::restore(config.clone(), &arrivals, &rewound).unwrap_err();
    assert!(err.to_string().contains("emitted cursor"), "{err}");

    let other_arrivals = SyntheticTrace::new(14, 8, 3).generate().unwrap();
    let err = ServiceEngine::restore(config, &other_arrivals, &ckpt).unwrap_err();
    assert!(err.to_string().contains("fingerprint"), "{err}");
}

#[test]
fn streamed_serve_is_byte_identical_to_the_buffered_serve() {
    // run_streaming drops every record after rendering it, yet the sink
    // bytes, fingerprint, and scalar stats must match the buffered run.
    for backend in [
        StreamBackend::Simulated,
        StreamBackend::Federated { members: 2 },
    ] {
        let synth = SyntheticTrace::new(11, 10, 4);
        let config = ServiceConfig::fifo(small_config(backend));
        let mut lines = Vec::new();
        let buffered = ServiceEngine::new(config.clone(), synth.stream().unwrap())
            .unwrap()
            .run(&mut lines)
            .unwrap();
        let mut sink = Vec::new();
        let stats = ServiceEngine::new(config, synth.stream().unwrap())
            .unwrap()
            .run_streaming(&mut sink)
            .unwrap();
        assert_eq!(sink, lines);
        assert_eq!(stats.stream_fp, buffered.stream_fp);
        assert_eq!(stats.sessions, buffered.sessions);
        assert_eq!(stats.tenants, buffered.tenants);
        assert_eq!(stats.ok_sessions, buffered.ok_sessions);
        assert_eq!(stats.total_events, buffered.total_events);
        assert_eq!(stats.makespan_secs, buffered.makespan_secs);
        assert_eq!(stats.jsonl_bytes, lines.len() as u64);
        assert!(stats.peak_resident_sessions >= 1);
    }
}

#[test]
fn streamed_serve_residency_is_bounded_by_lookahead_and_queue() {
    use entk_workload::EngineOptions;
    // With a tight look-ahead window and an unsaturated FIFO queue, peak
    // residency must stay far below the stream length.
    let synth = SyntheticTrace::new(5, 64, 8);
    let config = ServiceConfig::fifo(WorkloadConfig {
        slots: 4,
        ..small_config(StreamBackend::Simulated)
    });
    let options = EngineOptions {
        lookahead: 4,
        ..EngineOptions::default()
    };
    let mut sink = Vec::new();
    let stats = ServiceEngine::with_options(config, synth.stream().unwrap(), options)
        .unwrap()
        .run_streaming(&mut sink)
        .unwrap();
    assert_eq!(stats.sessions, 64);
    assert!(
        stats.peak_resident_sessions < 64,
        "peak residency {} must not scale with the stream",
        stats.peak_resident_sessions
    );
}

#[test]
fn streaming_knobs_cannot_change_the_output() {
    use entk_workload::EngineOptions;
    let synth = SyntheticTrace::new(11, 10, 4);
    let config = ServiceConfig::fifo(small_config(StreamBackend::Simulated));
    let baseline = ServiceEngine::new(config.clone(), synth.stream().unwrap())
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap();
    for lookahead in [1, 3, 1024] {
        for eval_workers in [1, 2] {
            let options = EngineOptions {
                lookahead,
                eval_workers,
            };
            let out = ServiceEngine::with_options(config.clone(), synth.stream().unwrap(), options)
                .unwrap()
                .run(&mut std::io::sink())
                .unwrap();
            assert_eq!(
                out, baseline,
                "lookahead={lookahead} eval_workers={eval_workers} changed the stream"
            );
        }
    }
}

#[test]
fn fair_share_reorders_a_hot_tenant_burst() {
    use entk_workload::HotTenantTrace;
    let arrivals = HotTenantTrace::new(21, 24, 4).generate().unwrap();
    let stream = WorkloadConfig {
        slots: 1,
        ..small_config(StreamBackend::Simulated)
    };
    let fifo = ServiceEngine::new(ServiceConfig::fifo(stream.clone()), &arrivals)
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap();
    // The fairness invariant — no tenant is admitted over a waiting
    // tenant with a smaller balance — is debug-asserted at every admission
    // decision this serve takes.
    let fair = ServiceEngine::new(ServiceConfig::fair_share(stream, 600.0), &arrivals)
        .unwrap()
        .run(&mut std::io::sink())
        .unwrap();
    assert_eq!(fair.policy, "fair-share");
    assert_ne!(
        fifo.records, fair.records,
        "the hot tenant burst must be reordered"
    );
    // Light tenants (ids >= 1) should not be worse off under fair-share.
    let light_p99 = |r: &WorkloadReport| {
        r.per_tenant
            .iter()
            .filter(|t| t.tenant >= 1)
            .map(|t| t.p99)
            .fold(0.0f64, f64::max)
    };
    assert!(
        light_p99(&fair) <= light_p99(&fifo),
        "worst light-tenant p99 must not regress under fair-share \
         (fair {} vs fifo {})",
        light_p99(&fair),
        light_p99(&fifo)
    );
}

/// FNV-64 of the three sink files `examples/specs/grid_registry.json`
/// produced through the post-hoc `dispatch` replay, recorded at the
/// commit before sinks were attached to the engine's emission point.
const GRID_SINK_GOLDENS: [(&str, u64); 3] = [
    ("grid.jsonl", 0xbe63_97a2_fc16_cd94),
    ("grid_gauges.jsonl", 0xe3f8_ec67_591d_8bfa),
    ("grid_summary.json", 0xed13_7d7a_577b_d9c1),
];

#[test]
fn live_sinks_reproduce_the_dispatch_goldens() {
    let grid_spec_in = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("entk-grid-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/specs/grid_registry.json"
        ))
        .unwrap()
        .replace(
            "\"path\": \"grid",
            &format!("\"path\": \"{}/grid", dir.display()),
        );
        (dir, StreamSpec::from_json(&text).unwrap())
    };
    let fp_of = |dir: &std::path::Path, file: &str| {
        entk_workload::fnv64(&std::fs::read(dir.join(file)).unwrap())
    };

    // Retaining run: all three sinks, attached by the spec itself.
    let (dir, spec) = grid_spec_in("run");
    spec.run().unwrap();
    for (file, fp) in GRID_SINK_GOLDENS {
        assert_eq!(fp_of(&dir, file), fp, "{file} under the retaining run");
    }
    std::fs::remove_dir_all(&dir).ok();

    // Non-retaining run: the two sinks that need no report.
    let (dir, mut spec) = grid_spec_in("stream");
    spec.sinks.retain(|s| s.name != "summary");
    let mut engine = ServiceEngine::new(
        spec.service_config().unwrap(),
        spec.source_stream().unwrap(),
    )
    .unwrap();
    for sink in spec.build_sinks().unwrap() {
        engine.attach(sink);
    }
    let mut rows = Vec::new();
    engine.run_streaming(&mut rows).unwrap();
    for (file, fp) in &GRID_SINK_GOLDENS[..2] {
        assert_eq!(fp_of(&dir, file), *fp, "{file} under the streaming run");
    }
    assert_eq!(entk_workload::fnv64(&rows), GRID_SINK_GOLDENS[0].1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Session 1471 of the `serve-fed-fair` benchmark body at seed 2016. Ending
/// a session (`begin_shutdown`) is a zero-delay reaction, but the windowed
/// federated drive lets members run up to `lookahead` (10 ms) past it: the
/// still-queued second pilot goes active 3.8 ms after `teardown_start`
/// instead of being cancelled at it. The event-at-a-time drive that fixes
/// it moves this session's `trace_fp`, hence `benchmark/expected.json`.
#[test]
#[ignore = "live bug in the windowed federated drive: the fix waits for the benchmark unfreeze, ROADMAP 2/3a"]
fn no_pilot_goes_active_after_the_session_began_tearing_down() {
    use entk_core::{run_federated_traced, ClusterSpec, FederatedConfig};
    use entk_sim::{SimDuration, TraceKind};
    use entk_workload::{session_seed, HotTenantTrace};

    let index = 1471;
    let arrival = &HotTenantTrace::new(2016, 2000, 64).generate().unwrap()[index];
    let member = ClusterSpec::new(
        "xsede.stampede",
        arrival.cores,
        SimDuration::from_secs(10_000_000),
    );
    let fed = FederatedConfig {
        seed: session_seed(2016, index),
        clusters: vec![member.clone(), member],
        ..FederatedConfig::default()
    };
    let mut pattern = arrival.build_pattern().unwrap();
    let (_, telemetry) = run_federated_traced(fed, pattern.as_mut()).unwrap();
    let tracer = &telemetry.tracer;
    let teardown = tracer.filter(TraceKind::TeardownStart).next().unwrap().time;
    let late: Vec<_> = tracer
        .filter(TraceKind::PilotActive)
        .filter(|r| r.time > teardown)
        .map(|r| format!("{} pilot_active at {}", r.subject(), r.time))
        .collect();
    assert!(
        late.is_empty(),
        "teardown_start at {teardown}, then {late:?}"
    );
}
