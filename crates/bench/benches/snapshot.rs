//! Criterion bench for the checkpoint/replay primitives: encoding and
//! decoding a mid-flight `Sim` snapshot (the per-checkpoint cost every
//! supervised sweep worker pays), plus the bare `EventQueue` container
//! round-trip. The scale harness (`experiments chaos_sweep`)
//! covers the `DIGG_CHECKPOINT_USERS` point; this bench tracks the
//! per-call cost at a fixed 5k users.

use criterion::{criterion_group, criterion_main, Criterion};
use des_core::EventQueue;
use digg_sim::population::PopulationConfig;
use digg_sim::sweep::{scenario_population, scenario_sim, ScenarioSpec};
use digg_sim::{Kernel, Sim, SimConfig};
use digg_snapshot::{ByteReader, ByteWriter, Codec, Restore, Snapshot, SnapshotError};
use std::hint::black_box;

const USERS: usize = 5_000;

fn spec() -> ScenarioSpec {
    let mut cfg = SimConfig::toy(0);
    cfg.users = USERS;
    ScenarioSpec {
        name: "bench".into(),
        cfg,
        pop_cfg: PopulationConfig::toy(USERS),
        kernel: Kernel::default(),
        minutes: 240,
    }
}

/// A mid-run sim with populated stories, listings, and event queue.
fn warm_sim() -> Sim {
    let mut sim = scenario_sim(&spec(), 42);
    sim.run(120);
    sim
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Payload(u64);

impl Codec for Payload {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut ByteReader) -> Result<Payload, SnapshotError> {
        Ok(Payload(r.get_u64()?))
    }
}

fn queue_with_events(n: u64) -> EventQueue<Payload> {
    let mut q = EventQueue::new();
    for i in 0..n {
        q.schedule(i % 977, (i % 4) as u8, Payload(i));
    }
    q
}

fn bench_snapshot(c: &mut Criterion) {
    let sim = warm_sim();
    let bytes = sim.snapshot();
    let pop = scenario_population(&spec(), 42);
    c.bench_function("sim_snapshot_encode_5k", |b| {
        b.iter(|| black_box(sim.snapshot()))
    });
    c.bench_function("sim_snapshot_decode_5k", |b| {
        b.iter(|| black_box(Sim::restore(&bytes, pop.clone()).expect("restore")))
    });

    let q = queue_with_events(10_000);
    let q_bytes = q.snapshot();
    c.bench_function("event_queue_snapshot_encode_10k", |b| {
        b.iter(|| black_box(q.snapshot()))
    });
    c.bench_function("event_queue_snapshot_decode_10k", |b| {
        b.iter(|| black_box(EventQueue::<Payload>::restore(&q_bytes, ()).expect("restore")))
    });
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
