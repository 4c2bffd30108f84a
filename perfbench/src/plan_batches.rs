//! `plan-batches`: a closed loop with one caller that, per generated join query, asks
//! `EstimatorService::serve` for every connected sub-plan in one call — what a join-order
//! optimizer asks while planning that query.
//!
//! The pool is the preset's, served by full scan (the default configuration), with no
//! runtime and no writes: the call runs the whole compute path (featurize, prepared-anchor
//! encode, the multi-query head on crn-nn's GEMM, the ε-filter and the median) and bypasses
//! the runtime, its caches, top-K and pool writes.  A change to any of those predicts no
//! change here.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crn_core::{Cnt2Crd, EstimatorService, ServeStats, ShardedPool};
use crn_estimators::{CardinalityEstimator, PostgresEstimator};
use crn_exec::Executor;
use crn_nn::WorkerPool;
use crn_query::ast::Query;

use crate::metrics::{set_model, set_service, set_setup, set_setup_fit, Values};
use crate::replay;
use crate::report::{peak_rss_mb, Checks, Failures, Report};
use crate::sampling::SplitMix64;
use crate::setup::{
    self, naive_cost, non_empty_queries, NAIVE_BUDGET, SETUP_EPOCHS, SETUP_REPEATS, SHARDS, THREADS,
};
use crate::stats::{median, percentile, q_error, windowed_p50_p99};
use crate::subplans::connected_subplans;
use crate::trace::{QueryRecord, Tracer};
use crate::Args;

/// Planned queries per round, by join count: (joins, plans).  A j-join plan has 2^j + j
/// sub-plans (6, 11, 20, 37).  The 4-join plans hold the middle of the distribution
/// (ranks 25–80%) and the 5-join plans its top fifth, so p50 and p99 each fall well inside
/// one plan size instead of between two.
const JOIN_MIX: &[(usize, usize)] = &[(2, 40), (3, 60), (4, 220), (5, 80)];
/// Rounds per measurement window: 5 × 400 calls, so each window's p99 has 20 calls
/// beyond it.  Latency and throughput are medians over windows.
const WINDOW_ROUNDS: usize = 5;
/// Sub-plans whose exact count is recomputed with the naive executor (drawn from those
/// within its budget; the single-table sub-plans always are).
const NAIVE_CHECKS: usize = 20;

pub fn run(args: &Args, process_start: Instant, tracer: &Tracer) -> Report {
    let preset = setup::preset();
    let (built, times) = setup::build_repeated(process_start, preset.pool_size, Some(SETUP_EPOCHS));
    let setup::Built {
        db,
        samples,
        pool,
        fallback,
        fit,
    } = built;
    let (model, history) = fit.expect("the serving workloads train in set-up");
    let mut values = Values::default();
    let mut checks = Checks::default();
    values.set("setup_s", times.setup_s);
    set_setup(&mut values, &times, samples.len());
    set_setup_fit(&mut values, &times, &history, samples.len());
    values.set("pool.entries", pool.len() as f64);

    // Workload inputs, from the seed only.
    let executor = Executor::new(&db);
    let plans = generate_plans(&executor, args.seed);
    for (query, subplans) in &plans {
        let j = query.num_joins();
        checks.check(
            "a j-join plan has 2^j + j sub-plans",
            subplans.len() == (1 << j) + j,
            || format!("{} sub-plans for {j} joins", subplans.len()),
        );
    }

    // Reference computations: outside every timed figure.
    let reference = Instant::now();
    let mut truths: BTreeMap<&Query, u64> = BTreeMap::new();
    for subplan in plans.iter().flat_map(|(_, s)| s) {
        truths
            .entry(subplan)
            .or_insert_with(|| executor.cardinality(subplan));
    }
    let mut rng = SplitMix64::new(args.seed ^ 0x006e_6169_7665);
    let cheap: Vec<(&Query, u64)> = truths
        .iter()
        .filter(|(q, _)| naive_cost(&executor, q) <= NAIVE_BUDGET)
        .map(|(q, t)| (*q, *t))
        .collect();
    for _ in 0..NAIVE_CHECKS {
        let (query, truth) = cheap[rng.below(cheap.len())];
        let naive = executor.cardinality_naive(query);
        checks.check(
            "exact counts agree with the naive executor",
            naive == truth,
            || format!("{truth} vs naive {naive} for {}", query.to_sql()),
        );
    }
    let (evaluation, evaluation_truths) = setup::evaluation_set(&executor);
    let sequential = Cnt2Crd::new(model.clone(), pool.clone())
        .with_fallback(Box::new(PostgresEstimator::analyze(&db)));

    let service = EstimatorService::new(
        model,
        ShardedPool::from_pool(&pool, SHARDS),
        WorkerPool::shared(THREADS),
    )
    .with_fallback(Box::new(fallback));
    // Warm-up round (fills the prepared-anchor cache); its estimates are the ones checked.
    let first: Vec<Vec<f64>> = plans
        .iter()
        .map(|(_, subplans)| service.serve(subplans).estimates)
        .collect();
    let mut parity = true;
    let mut sane = true;
    for ((_, subplans), estimates) in plans.iter().zip(&first) {
        for (subplan, estimate) in subplans.iter().zip(estimates) {
            parity &= sequential.estimate(subplan).to_bits() == estimate.to_bits();
            sane &= estimate.is_finite() && *estimate >= 0.0;
        }
    }
    checks.check(
        "plan estimates are bit-identical to one-by-one sequential Cnt2Crd",
        parity,
        || "a batched estimate differs from the sequential path".into(),
    );
    checks.check("estimates are finite and non-negative", sane, || {
        "an estimate is negative or not finite".into()
    });
    let reference_s = reference.elapsed().as_secs_f64();

    // Measured phase: whole windows of rounds over the plans until the run length is
    // used up.
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut window_rates = Vec::new();
    let mut first_round_latency = vec![0.0; plans.len()];
    let mut stats = ServeStats::default();
    let mut estimates = 0usize;
    let mut rounds = 0u64;
    let mut repeatable = true;
    let measured = Instant::now();
    while windows.is_empty() || measured.elapsed() < Duration::from_secs(args.seconds) {
        let window_start = Instant::now();
        let mut window = Vec::with_capacity(plans.len() * WINDOW_ROUNDS);
        let mut window_estimates = 0usize;
        for _ in 0..WINDOW_ROUNDS {
            for (index, (_, subplans)) in plans.iter().enumerate() {
                let start = Instant::now();
                let response = service.serve(subplans);
                let end = Instant::now();
                tracer.record("service.serve", None, Some(index as u64), start, end);
                let latency = (end - start).as_secs_f64() * 1e6;
                if rounds == 0 {
                    first_round_latency[index] = latency;
                }
                window.push(latency);
                repeatable &= response
                    .estimates
                    .iter()
                    .zip(&first[index])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                window_estimates += response.estimates.len();
                stats.accumulate(&response.stats);
            }
            rounds += 1;
        }
        window_rates.push(window_estimates as f64 / window_start.elapsed().as_secs_f64());
        estimates += window_estimates;
        windows.push(window);
    }
    let measured_s = measured.elapsed().as_secs_f64();
    checks.check(
        "every round repeats the first bit for bit",
        repeatable,
        || "an estimate changed between rounds".into(),
    );

    let q_errors: Vec<f64> = service
        .serve(&evaluation)
        .estimates
        .iter()
        .zip(&evaluation_truths)
        .map(|(&e, &t)| q_error(e, t))
        .collect();
    let (p50, p99) = windowed_p50_p99(windows.iter().map(Vec::as_slice));
    values.set("estimates_per_s", median(&window_rates).expect("a window"));
    values.set("latency_p50_us", p50);
    values.set("latency_p99_us", p99);
    values.set("q_error_p50", percentile(&q_errors, 50.0).expect("queries"));
    values.set("q_error_p95", percentile(&q_errors, 95.0).expect("queries"));
    set_service(&mut values, &stats, rounds * plans.len() as u64);
    // Fallbacks per round: a property of the plans and the model, not of the run length.
    values.set("service.fallbacks", stats.fallbacks as f64 / rounds as f64);

    if tracer.enabled() {
        let snapshot = service.pool().snapshot();
        let model = service.model();
        let mut total = replay::ModelTimes::default();
        for (index, (_, subplans)) in plans.iter().enumerate() {
            let parent = tracer.next_id();
            let start = Instant::now();
            let (times, sources) = replay::full_scan(
                &model,
                service.config(),
                &snapshot,
                subplans,
                tracer,
                Some(parent),
                Some(index as u64),
            );
            let request = Some(index as u64);
            tracer.record_with_id(parent, "model.replay", None, request, start, Instant::now());
            total.add(&times);
            for ((subplan, &estimate), source) in subplans.iter().zip(&first[index]).zip(sources) {
                let truth = truths[subplan];
                tracer.record_query(QueryRecord {
                    request: index as u64,
                    sql: subplan.to_sql(),
                    joins: subplan.num_joins(),
                    latency_us: first_round_latency[index],
                    estimate,
                    true_cardinality: truth,
                    q_error: q_error(estimate, truth),
                    source,
                });
            }
        }
        set_model(&mut values, &total, plans.len() as u64);
    }
    values.set("rss_mb", peak_rss_mb());

    Report {
        workload: "plan-batches",
        metrics: values.metrics(args.trace),
        traced_end_to_end: if args.trace {
            values.metrics(false)
        } else {
            Vec::new()
        },
        failures: Failures {
            requested: estimates as u64,
            ..Failures::default()
        },
        checks,
        notes: vec![
            format!("set-up {:.2} s (median of {SETUP_REPEATS})", times.setup_s),
            format!("reference counts and checks {reference_s:.2} s"),
            format!(
                "measured {measured_s:.2} s: {} windows of {WINDOW_ROUNDS} rounds of {} plans",
                windows.len(),
                plans.len()
            ),
        ],
    }
}

/// The planned queries of one round, with their sub-plans, in a seeded order that
/// interleaves the plan sizes.  Every plan has a non-empty result, so every sub-plan has
/// one too (dropping tables from a foreign-key star keeps each witness row's projection).
fn generate_plans(executor: &Executor<'_>, seed: u64) -> Vec<(Query, Vec<Query>)> {
    let mut rng = SplitMix64::new(seed ^ 0x0070_6c61_6e73);
    let mut plans = Vec::new();
    for &(joins, count) in JOIN_MIX {
        for (query, _) in non_empty_queries(executor, rng.next_u64(), joins, count) {
            let subplans = connected_subplans(&query);
            plans.push((query, subplans));
        }
    }
    rng.shuffle(&mut plans);
    plans
}
