//! Micro-benchmarks of the substrate crates: the discrete-event engine, the
//! trace fingerprint, the fixed cost of one served session, the MD force
//! loop (cell list vs naive), the analysis eigensolvers, and a full-stack
//! throughput case.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    use entk_sim::{EventQueue, SimTime};
    let mut g = c.benchmark_group("sim_event_queue");
    g.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_micros((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, _, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    // Hold model at 1 024 pending (what a 1024-core pilot keeps in flight):
    // pop the head and push it back `increment` µs later. A random
    // increment lands anywhere in the queue; a near-constant 10 s one lands
    // behind everything, the FIFO-like regime where a bucketed calendar
    // queue beat the heap. Both sides of that trade stay visible here.
    for (name, base, spread) in [
        ("hold_1k_random", 0, 20_000_000),
        ("hold_1k_const_10s", 10_000_000, 1_000),
    ] {
        let increment = |x: u64| base + x % spread;
        g.bench_function(name, |b| {
            let mut q = EventQueue::new();
            for i in 0..1024u64 {
                q.push(SimTime::from_micros(increment(i * 7919)), i);
            }
            let mut x = 2016u64;
            b.iter(|| {
                for _ in 0..1024 {
                    let (t, _, v) = q.pop().expect("a hold never drains the queue");
                    // Knuth's MMIX LCG; the high bits are the random ones.
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    q.push(SimTime::from_micros(t.as_micros() + increment(x >> 33)), v);
                }
                black_box(q.len())
            })
        });
    }
    g.finish();
}

/// The first session of the seed-2016, 4 000-session synthetic stream on
/// stampede, and the config `entk serve` evaluates it under.
fn first_served_session() -> (entk_workload::SessionArrival, entk_core::FederatedConfig) {
    use entk_core::prelude::*;
    use entk_workload::{session_seed, SyntheticTrace, WorkloadGenerator};
    let arrival = SyntheticTrace::new(2016, 4000, 64)
        .stream()
        .and_then(|mut s| s.next_arrival())
        .expect("the stream opens")
        .expect("the stream has a first session");
    let config = FederatedConfig {
        seed: session_seed(2016, 0),
        clusters: vec![ClusterSpec::new(
            "xsede.stampede",
            arrival.cores,
            SimDuration::from_secs(10_000_000),
        )],
        ..FederatedConfig::default()
    };
    (arrival, config)
}

/// `Tracer::fingerprint()` against the byte-wise FNV-1a fold of the same
/// JSONL, already rendered, over one served session's trace (see
/// [`first_served_session`]).
fn bench_trace_fingerprint(c: &mut Criterion) {
    use entk_core::prelude::*;
    use entk_sim::Fnv64;
    let (arrival, config) = first_served_session();
    let mut pattern = arrival.build_pattern().expect("the session builds");
    let (_, telemetry) = run_federated_traced(config, pattern.as_mut()).expect("the session runs");
    let tracer = telemetry.tracer;
    let jsonl = tracer.to_jsonl();
    let mut g = c.benchmark_group("sim_trace");
    g.sample_size(1000);
    let name = |what: &str| format!("{what}_{}_records", tracer.len());
    g.bench_function(name("fingerprint"), |b| {
        b.iter(|| black_box(tracer.fingerprint()))
    });
    g.bench_function(name("fnv64_of_jsonl"), |b| {
        b.iter(|| {
            let mut hash = Fnv64::new();
            hash.update(black_box(jsonl.as_bytes()));
            black_box(hash.finish())
        })
    });
    g.finish();
}

/// The fixed cost of one served session, as `entk serve` evaluates it:
/// build the pattern, then construct → allocate → run → deallocate → drop
/// the handle, cross-check the trace against the report and fingerprint
/// it. The session is [`first_served_session`], about 110 events.
fn bench_served_session(c: &mut Criterion) {
    use entk_core::prelude::*;
    let (arrival, config) = first_served_session();
    let mut g = c.benchmark_group("served_session");
    g.sample_size(200);
    let serve = || {
        let mut pattern = arrival.build_pattern().expect("the session builds");
        let (report, telemetry) =
            run_federated_traced(config.clone(), pattern.as_mut()).expect("the session runs");
        let cc = cross_check(&report, &telemetry.tracer);
        (
            report.events,
            cc.max_abs_error_secs,
            telemetry.tracer.fingerprint(),
        )
    };
    let (events, _, _) = serve();
    g.bench_function(format!("stampede_{events}_events"), |b| {
        b.iter(|| black_box(serve()))
    });
    g.finish();
}

fn bench_md_forces(c: &mut Criterion) {
    use entk_md::{alanine_dipeptide_surrogate, ForceField};
    let mut g = c.benchmark_group("md_forces");
    g.sample_size(20);
    for &n in &[256usize, 1024] {
        let sys = alanine_dipeptide_surrogate(n, 1);
        let ff = ForceField::default();
        g.bench_with_input(BenchmarkId::new("cell_list", n), &n, |b, _| {
            let mut forces = Vec::new();
            b.iter(|| black_box(ff.compute(&sys, &mut forces)))
        });
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            let mut forces = Vec::new();
            b.iter(|| black_box(ff.compute_naive(&sys, &mut forces)))
        });
    }
    g.finish();
}

fn bench_md_segment(c: &mut Criterion) {
    use entk_md::{alanine_dipeptide_surrogate, EngineFlavor, MdEngine};
    let mut g = c.benchmark_group("md_segment");
    g.sample_size(10);
    g.bench_function("langevin_100steps_256atoms", |b| {
        let engine = MdEngine::new(EngineFlavor::Amber);
        b.iter(|| {
            let mut sys = alanine_dipeptide_surrogate(256, 2);
            sys.thermalize(1.0, 3);
            black_box(engine.run(&mut sys, 100, 4))
        })
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    use entk_analysis::{coco, jacobi_eigen, lsdmap, CocoConfig, LsdmapConfig, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut g = c.benchmark_group("analysis");
    g.sample_size(20);

    // Symmetric 48x48 eigendecomposition.
    let mut rng = StdRng::seed_from_u64(5);
    let n = 48;
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = rng.random::<f64>() - 0.5;
            m.set(i, j, v);
            m.set(j, i, v);
        }
    }
    g.bench_function("jacobi_eigen_48", |b| {
        b.iter(|| black_box(jacobi_eigen(&m)))
    });

    let frames: Vec<Vec<f64>> = (0..96)
        .map(|i| {
            let c = if i % 2 == 0 { 0.0 } else { 8.0 };
            (0..12).map(|k| c + ((i * k) % 7) as f64 * 0.1).collect()
        })
        .collect();
    g.bench_function("lsdmap_96_frames", |b| {
        b.iter(|| black_box(lsdmap(&frames, LsdmapConfig::default())))
    });
    g.bench_function("coco_96_frames", |b| {
        b.iter(|| black_box(coco(&frames, 8, CocoConfig::default())))
    });
    g.finish();
}

fn bench_wham(c: &mut Criterion) {
    use entk_analysis::wham;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut g = c.benchmark_group("wham");
    g.sample_size(10);
    let temps = [0.8, 1.0, 1.25, 1.5625];
    let samples: Vec<Vec<f64>> = temps
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            let mut rng = StdRng::seed_from_u64(k as u64);
            (0..5000)
                .map(|_| {
                    (0..10)
                        .map(|_| {
                            let u1: f64 = 1.0 - rng.random::<f64>();
                            let u2: f64 = rng.random::<f64>();
                            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                            0.5 * t * z * z
                        })
                        .sum()
                })
                .collect()
        })
        .collect();
    g.bench_function("wham_4temps_20k_samples", |b| {
        b.iter(|| black_box(wham(&samples, &temps, 60, 200)))
    });
    g.finish();
}

fn bench_full_stack(c: &mut Criterion) {
    use entk_core::prelude::*;
    use serde_json::json;
    let mut g = c.benchmark_group("full_stack");
    g.sample_size(10);
    g.bench_function("bag_1000_tasks_256_cores", |b| {
        b.iter(|| {
            let config = ResourceConfig::new("xsede.comet", 256, SimDuration::from_secs(1_000_000));
            let mut pattern = BagOfTasks::new(1000, |_| {
                KernelCall::new("misc.sleep", json!({ "secs": 60.0 }))
            });
            black_box(run_simulated(config, SimulatedConfig::default(), &mut pattern).unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    substrates,
    bench_event_queue,
    bench_trace_fingerprint,
    bench_served_session,
    bench_md_forces,
    bench_md_segment,
    bench_analysis,
    bench_wham,
    bench_full_stack
);
criterion_main!(substrates);
