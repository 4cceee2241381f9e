//! Criterion bench: the cost of one `Rational` operation on each of its
//! paths. `Rational` stores `i128/i128`, runs integers as plain `i128`s
//! and any other operation at 64-bit width when both operands fit; the
//! four decks put the integers of the analysis's grid on the integer path,
//! two workloads on the narrow side (the integers and short decimals every
//! benchmark workload consists of) and one on the wide side, whose cost
//! must stay visible because it is the only path hostile magnitudes take.

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion,
};
use hsched_numeric::{rat, Rational};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAIRS: usize = 1024;

type Pair = (Rational, Rational);
type Deck = fn(&mut StdRng) -> Pair;

/// Periods, WCETs and response times: integers up to a few thousand.
fn small_integers(rng: &mut StdRng) -> Pair {
    (
        rat(rng.gen_range(1..5000), 1),
        rat(rng.gen_range(1..5000), 1),
    )
}

/// A fixpoint's values on its integer grid: integers below 2⁴⁰.
fn grid_integers(rng: &mut StdRng) -> Pair {
    (
        rat(rng.gen_range(1..1 << 40), 1),
        rat(rng.gen_range(1..1 << 40), 1),
    )
}

/// Platform rates and scaled demands: short decimals and small fractions.
fn small_fraction(rng: &mut StdRng) -> Rational {
    rat(rng.gen_range(1..100_000), rng.gen_range(1..1000))
}

fn small_fractions(rng: &mut StdRng) -> Pair {
    (small_fraction(rng), small_fraction(rng))
}

/// One operand with a numerator past `i64` against a small fraction: every
/// operation takes the full-width path, and none overflows `i128`, so the
/// numbers are all of completed operations.
fn wide(rng: &mut StdRng) -> Pair {
    let num = (1i128 << 64) + rng.gen_range(0i128..1 << 62);
    (rat(num, rng.gen_range(1..1000)), small_fraction(rng))
}

fn bench_op<R>(
    group: &mut BenchmarkGroup<'_>,
    id: BenchmarkId,
    pairs: &[Pair],
    op: impl Fn(Rational, Rational) -> R,
) {
    group.bench_with_input(id, pairs, |b, pairs| {
        b.iter(|| {
            for &(x, y) in pairs {
                black_box(op(black_box(x), black_box(y)));
            }
        })
    });
}

fn bench_rational_ops(c: &mut Criterion) {
    let decks: [(&str, Deck); 4] = [
        ("integers", grid_integers),
        ("small_integers", small_integers),
        ("small_fractions", small_fractions),
        ("wide", wide),
    ];
    let mut group = c.benchmark_group("numeric/rational_ops");
    for (deck, draw) in decks {
        let mut rng = StdRng::seed_from_u64(23);
        let pairs: Vec<Pair> = (0..PAIRS).map(|_| draw(&mut rng)).collect();
        let id = |op| BenchmarkId::new(op, deck);
        bench_op(&mut group, id("add"), &pairs, Rational::checked_add);
        bench_op(&mut group, id("mul"), &pairs, Rational::checked_mul);
        bench_op(&mut group, id("cmp"), &pairs, |x, y| x < y);
        bench_op(&mut group, id("div"), &pairs, Rational::checked_div);
        bench_op(&mut group, id("floor"), &pairs, |x, _| x.floor());
        // Every deck's second operand is positive.
        bench_op(&mut group, id("div_floor"), &pairs, Rational::div_floor);
        bench_op(&mut group, id("div_ceil"), &pairs, Rational::div_ceil);
    }
    group.finish();
}

criterion_group!(benches, bench_rational_ops);
criterion_main!(benches);
