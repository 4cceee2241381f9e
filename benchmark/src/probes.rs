//! Micro-probes: direct calls into single public functions of a layer,
//! on operands taken from the workload itself. They give the per-layer
//! rows that no rung difference can isolate.

use crate::inputs::{Op, Rng};
use crate::stack::TmpDir;
use hsched_engine::{JournalWriter, SchedService, SCHEMA_VERSION};
use hsched_net::proto::{encode_submit, parse_submit};
use hsched_net::{queue_frame, read_frame, FrameRead, SubmitMode};
use hsched_numeric::Rational;
use hsched_supply::SupplyCurve as _;
use hsched_transaction::TransactionSet;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per operation of the request path's codec: `encode_submit`
/// → `queue_frame` into a buffer → `read_frame` back → `parse_submit`.
pub fn frame_codec_ns(ops: &[Op]) -> f64 {
    const ROUNDS: usize = 20;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for op in ops {
            let mut wire = Vec::with_capacity(256);
            let payload = encode_submit(SubmitMode::Sync, SCHEMA_VERSION, &op.batch);
            queue_frame(&mut wire, &payload).expect("in-memory write");
            let Ok(FrameRead::Frame(read)) = read_frame(&mut wire.as_slice(), None) else {
                panic!("a queued frame reads back");
            };
            black_box(parse_submit(&read).expect("own frames parse"));
        }
    }
    started.elapsed().as_nanos() as f64 / (ROUNDS * ops.len()) as f64
}

/// Microseconds per `JournalWriter::append` of the workload's batches.
/// The public `append` writes the record *and* runs its own `sync_data`
/// (the no-sync variant is crate-private), so this is encode + write +
/// flush of one record, outside the engine.
pub fn journal_append_us(ops: &[Op], platforms: usize, dir: &TmpDir) -> f64 {
    let mut writer =
        JournalWriter::create(&dir.file("append-probe"), platforms).expect("journal creates");
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        writer
            .append(i as u64 + 1, &op.batch, op.admit)
            .expect("journal appends");
    }
    started.elapsed().as_secs_f64() * 1e6 / ops.len() as f64
}

/// Milliseconds of one direct `snapshot()` (compaction) of `engine`.
pub fn snapshot_call_ms(engine: &SchedService) -> f64 {
    let started = Instant::now();
    engine.snapshot().expect("journaled engine compacts");
    started.elapsed().as_secs_f64() * 1e3
}

/// The operands the analysis of this workload computes with: every
/// period, deadline and execution time of the live set, every platform
/// parameter, and every response time and jitter the service reports.
pub fn operand_deck(set: &TransactionSet, engine: &SchedService) -> Vec<Rational> {
    let mut deck = Vec::new();
    for tx in set.transactions() {
        deck.extend([tx.period, tx.deadline]);
        deck.extend(tx.tasks().iter().flat_map(|t| [t.wcet, t.bcet]));
    }
    for (_, platform) in set.platforms().iter() {
        deck.extend([platform.alpha(), platform.delta(), platform.beta()]);
    }
    for task in engine.report().tasks.iter().flatten() {
        deck.extend([task.response, task.best_response, task.jitter]);
    }
    deck.retain(|r| r.is_positive());
    deck
}

/// Share of the deck an inline `i64/i64` representation would hold:
/// operands whose numerator and denominator both fit `i64` (integers
/// included) — the measurement a small-value fast path under `Rational`
/// needs first.
pub fn small_operand_frac(deck: &[Rational]) -> f64 {
    let fits = |n: i128| i64::try_from(n).is_ok();
    let small = deck
        .iter()
        .filter(|r| fits(r.numer()) && fits(r.denom()))
        .count();
    small as f64 / deck.len() as f64
}

/// Nanoseconds per `Rational` operation (add, multiply, compare, divide
/// in equal parts) over seeded pairs from the deck.
pub fn rational_op_ns(deck: &[Rational], seed: u64) -> f64 {
    const PAIRS: usize = 4096;
    const ROUNDS: usize = 8;
    let mut rng = Rng::new(seed);
    let pairs: Vec<(Rational, Rational)> = (0..PAIRS)
        .map(|_| (deck[rng.below(deck.len())], deck[rng.below(deck.len())]))
        .collect();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for &(a, b) in &pairs {
            let (a, b) = (black_box(a), black_box(b));
            black_box(a.checked_add(b));
            black_box(a.checked_mul(b));
            black_box(a < b);
            black_box(a.checked_div(b));
        }
    }
    started.elapsed().as_nanos() as f64 / (ROUNDS * PAIRS * 4) as f64
}

/// Nanoseconds per supply inversion — worst-case time to serve a demand,
/// through the exact curve and through the linear bound — averaged per
/// platform, then over the platforms (so every kind weighs by its share
/// of the system).
pub fn supply_inverse_ns(set: &TransactionSet) -> f64 {
    const ROUNDS: usize = 64;
    let demands: Vec<Rational> = set
        .transactions()
        .iter()
        .flat_map(|tx| tx.tasks().iter().map(|t| t.wcet))
        .take(64)
        .collect();
    let platforms: Vec<_> = set.platforms().iter().map(|(_, p)| p).take(64).collect();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for platform in &platforms {
            let linear = platform.linear_model();
            for &demand in &demands {
                black_box(platform.time_to_supply_min(black_box(demand)));
                black_box(linear.worst_case_service(black_box(demand)));
            }
        }
    }
    started.elapsed().as_nanos() as f64 / (ROUNDS * platforms.len() * demands.len() * 2) as f64
}
