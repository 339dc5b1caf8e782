//! Golden-fingerprint equivalence: these eight stream fingerprints were
//! captured from the evaluate-everything-upfront engine immediately
//! before the out-of-core streaming refactor. The lazy engine — pull
//! ingestion, just-in-time evaluation, bounded look-ahead — must keep
//! every byte, across both backends, both policies, both saturation
//! modes, and both degraded-session flavors. Each case is additionally
//! served through `run_streaming` to prove the sink path emits the same
//! bytes it would have buffered.

use entk_workload::{
    render_record, SaturationMode, ServiceConfig, ServiceEngine, SessionArrival, StreamBackend,
    SyntheticTrace, WorkloadConfig, WorkloadGenerator,
};

fn base(backend: StreamBackend, slots: usize) -> WorkloadConfig {
    WorkloadConfig {
        seed: 2016,
        resource: "xsede.stampede".into(),
        slots,
        backend,
        unit_failure_rate: 0.0,
        ..WorkloadConfig::default()
    }
}

fn check(label: &str, config: ServiceConfig, arrivals: &[SessionArrival], fp: &str, bytes: usize) {
    let mut written = Vec::new();
    let report = ServiceEngine::new(config.clone(), arrivals)
        .unwrap()
        .run(&mut written)
        .unwrap();
    let jsonl: String = report.records.iter().map(render_record).collect();
    assert_eq!(
        written,
        jsonl.as_bytes(),
        "{label}: written lines are the records'"
    );
    assert_eq!(report.stream_fp, fp, "{label}: buffered fingerprint");
    assert_eq!(
        format!("{:016x}", entk_workload::fnv64(jsonl.as_bytes())),
        fp,
        "{label}: re-rendered records hash to the emitted stream"
    );
    assert_eq!(jsonl.len(), bytes, "{label}: buffered byte count");
    let mut sink = Vec::new();
    let stats = ServiceEngine::new(config, arrivals)
        .unwrap()
        .run_streaming(&mut sink)
        .unwrap();
    assert_eq!(stats.stream_fp, fp, "{label}: streamed fingerprint");
    assert_eq!(sink.len(), bytes, "{label}: streamed byte count");
    assert_eq!(String::from_utf8(sink).unwrap(), jsonl, "{label}");
}

#[test]
fn sim_fifo_golden() {
    let arrivals = SyntheticTrace::new(11, 10, 4).generate().unwrap();
    check(
        "sim-fifo",
        ServiceConfig::fifo(base(StreamBackend::Simulated, 2)),
        &arrivals,
        "a27e6c5343a2ae32",
        2031,
    );
}

#[test]
fn fed_fifo_golden() {
    let arrivals = SyntheticTrace::new(11, 6, 3).generate().unwrap();
    check(
        "fed-fifo",
        ServiceConfig::fifo(base(StreamBackend::Federated { members: 2 }, 2)),
        &arrivals,
        "5b9f08268873b07e",
        1210,
    );
}

#[test]
fn hot_tenant_fair_share_golden() {
    let arrivals = entk_workload::HotTenantTrace::new(21, 24, 4)
        .generate()
        .unwrap();
    check(
        "hot-fair",
        ServiceConfig::fair_share(base(StreamBackend::Simulated, 1), 600.0),
        &arrivals,
        "9aad993584604a18",
        4938,
    );
}

#[test]
fn bounded_queue_goldens() {
    let arrivals = SyntheticTrace::new(3, 16, 4).generate().unwrap();
    check(
        "bounded-reject",
        ServiceConfig {
            max_queue_depth: Some(1),
            saturation: SaturationMode::Reject,
            ..ServiceConfig::fifo(base(StreamBackend::Simulated, 1))
        },
        &arrivals,
        "fa5477bc387fc5dc",
        4039,
    );
    check(
        "bounded-defer",
        ServiceConfig {
            max_queue_depth: Some(1),
            saturation: SaturationMode::Defer,
            ..ServiceConfig::fifo(base(StreamBackend::Simulated, 1))
        },
        &arrivals,
        "cca83bcc4a9fbb23",
        3269,
    );
}

#[test]
fn degraded_session_goldens() {
    let partials = SyntheticTrace::new(7, 4, 2).generate().unwrap();
    check(
        "partials",
        ServiceConfig::fifo(WorkloadConfig {
            unit_failure_rate: 1.0,
            ..base(StreamBackend::Simulated, 2)
        }),
        &partials,
        "43f697af7f1cd0d4",
        817,
    );
    let mut with_failed = SyntheticTrace::new(7, 8, 3).generate().unwrap();
    with_failed[3].cores = 1_000_000_000;
    check(
        "with-failed",
        ServiceConfig::fifo(base(StreamBackend::Simulated, 2)),
        &with_failed,
        "e84bc491543604ce",
        1692,
    );
}

#[test]
fn fair_share_synthetic_golden() {
    let arrivals = SyntheticTrace::new(13, 12, 4).generate().unwrap();
    check(
        "fair-synth",
        ServiceConfig::fair_share(base(StreamBackend::Simulated, 2), 300.0),
        &arrivals,
        "138e4df842318653",
        2441,
    );
}
