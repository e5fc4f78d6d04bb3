//! Encoding throughput: spec → CNF, per evaluation subject. The
//! majority-gate encode time is tracked across commits via
//! `BENCH_encode_majority_3x3x5.json`.

use bench_support::report::BenchRecord;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use synth::encode::encode;
use workloads::graphs::Graph;
use workloads::specs::{graph_state_spec, majority_gate_spec, t_factory_nodelay_spec};

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode");
    group.sample_size(20);
    let cnot = lasre::fixtures::cnot_spec();
    group.bench_function("cnot_2x2x3", |b| {
        b.iter(|| encode(black_box(&cnot)).unwrap())
    });
    let gs = graph_state_spec(&Graph::cycle(8), 2);
    group.bench_function("graph_state_8q_d2", |b| {
        b.iter(|| encode(black_box(&gs)).unwrap())
    });
    let maj = majority_gate_spec(3);
    group.bench_function("majority_3x3x5", |b| {
        b.iter(|| encode(black_box(&maj)).unwrap())
    });
    let tf = t_factory_nodelay_spec(11);
    group.bench_function("t_factory_3x3x11", |b| {
        b.iter(|| encode(black_box(&tf)).unwrap())
    });
    group.finish();
    emit_majority_record(&maj);
}

/// Measures encoding alone and writes the tracked `BENCH_*.json`
/// record (encode-only, so the solver counters are zero).
fn emit_majority_record(spec: &lasre::LasSpec) {
    const SAMPLES: u32 = 20;
    let _ = encode(spec).unwrap(); // warm-up, unrecorded
    let start = std::time::Instant::now();
    for _ in 0..SAMPLES {
        let _ = black_box(encode(black_box(spec)).unwrap());
    }
    BenchRecord {
        name: "encode_majority_3x3x5".into(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3 / f64::from(SAMPLES),
        conflicts: 0,
        propagations: 0,
        proof_checked: None,
    }
    .emit();
}

criterion_group!(benches, bench_encode);
criterion_main!(benches);
