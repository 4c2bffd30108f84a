//! `train`: the preset's training recipe as shipped, fitted over and over for the measured
//! phase, then the trained model serving the held-out evaluation set one query per call.
//!
//! It is the only workload whose measured work is crn-nn's batched forward/backward, the
//! Adam step and the worker pool.  Its figures are a rate and accuracies, so a change to
//! the stopping rule shows as `nn.epochs` and `q_error_*`, not as a slower run.

use std::time::{Duration, Instant};

use crn_core::{CrnModel, EstimatorService, ServeStats, ShardedPool, RATE_FLOOR};
use crn_exec::{ContainmentSample, Executor};
use crn_nn::{mean_q_error, train_validation_split, TrainingHistory, WorkerPool};
use crn_query::ast::Query;

use crate::metrics::{set_model, set_service, set_setup, Values};
use crate::replay;
use crate::report::{peak_rss_mb, Checks, Failures, Report};
use crate::sampling::SplitMix64;
use crate::setup::{self, naive_cost, NAIVE_BUDGET, SETUP_REPEATS, SHARDS, THREADS};
use crate::stats::{median, percentile, q_error, windowed_p50_p99};
use crate::trace::{QueryRecord, Tracer};
use crate::Args;

/// Timed passes of single-query serve calls over the held-out evaluation set.
const SERVE_PASSES: usize = 10;
/// Training labels recomputed with the naive executor (drawn from the pairs within its
/// budget).
const LABEL_CHECKS: usize = 40;

pub fn run(args: &Args, process_start: Instant, tracer: &Tracer) -> Report {
    let preset = setup::preset();
    let (built, times) = setup::build_repeated(process_start, preset.pool_size, None);
    let setup::Built {
        db,
        samples,
        pool,
        fallback,
        ..
    } = built;
    let mut values = Values::default();
    let mut checks = Checks::default();
    values.set("setup_s", times.setup_s);
    set_setup(&mut values, &times, samples.len());
    values.set("pool.entries", pool.len() as f64);

    // Reference computations: outside every timed figure.
    let reference = Instant::now();
    let executor = Executor::new(&db);
    check_labels(&executor, &samples, args.seed, &mut checks);
    let (held_out, truths) = setup::evaluation_set(&executor);

    let reference_s = reference.elapsed().as_secs_f64();

    // Measured phase: whole fits of the shipped recipe until the run length is used up.
    let config = setup::train_config(&preset);
    let (train_idx, valid_idx) =
        train_validation_split(samples.len(), config.validation_fraction, config.seed);
    let measured = Instant::now();
    let mut fits: Vec<(f64, TrainingHistory)> = Vec::new();
    let mut model = None;
    while model.is_none() || measured.elapsed() < Duration::from_secs(args.seconds) {
        let mut fitted = CrnModel::new(&db, config.clone());
        let start = Instant::now();
        let history = fitted.fit(&samples);
        let end = Instant::now();
        tracer.record("nn.fit", None, Some(fits.len() as u64), start, end);
        fits.push(((end - start).as_secs_f64(), history));
        model = Some(fitted);
    }
    let model = model.expect("at least one fit");
    let history = &fits[0].1;
    let epochs = history.len() as f64;
    let fit_seconds: Vec<f64> = fits.iter().map(|(s, _)| *s).collect();
    let rates: Vec<f64> = fit_seconds
        .iter()
        .map(|s| train_idx.len() as f64 * epochs / s)
        .collect();
    values.set("train_samples_per_s", median(&rates).expect("a fit"));
    values.set("nn.fit_s", median(&fit_seconds).expect("a fit"));
    values.set("nn.epochs", epochs);
    values.set(
        "nn.epoch_ms",
        median(&fit_seconds).expect("a fit") / epochs * 1e3,
    );
    values.set("nn.best_val_q_error", history.best_validation);
    checks.check(
        "deterministic fits repeat bit for bit",
        fits.iter().all(|(_, h)| h == history),
        || format!("{} fits disagree", fits.len()),
    );
    let validation = |m: &CrnModel| {
        let pairs: Vec<(f64, f64)> = valid_idx
            .iter()
            .map(|&i| (m.predict(&samples[i].q1, &samples[i].q2), samples[i].rate))
            .collect();
        mean_q_error(&pairs, RATE_FLOOR as f64)
    };
    let trained = validation(&model);
    let untrained = validation(&CrnModel::new(&db, config.clone()));
    checks.check(
        "training lowers the validation q-error",
        trained < untrained,
        || format!("trained {trained} vs untrained {untrained}"),
    );

    // The trained model serves the held-out workload, one query per call.
    let service = EstimatorService::new(
        model,
        ShardedPool::from_pool(&pool, SHARDS),
        WorkerPool::shared(THREADS),
    )
    .with_fallback(Box::new(fallback));
    let first: Vec<f64> = held_out
        .iter()
        .map(|q| service.serve(std::slice::from_ref(q)).estimates[0])
        .collect();
    checks.check(
        "held-out estimates are finite and non-negative",
        first.iter().all(|e| e.is_finite() && *e >= 0.0),
        || "a held-out estimate is negative or not finite".into(),
    );
    // Each pass is one window: latency and throughput are medians over passes.
    let mut passes: Vec<Vec<f64>> = Vec::with_capacity(SERVE_PASSES);
    let mut pass_rates = Vec::with_capacity(SERVE_PASSES);
    let mut stats = ServeStats::default();
    let mut repeatable = true;
    let serving = Instant::now();
    for _ in 0..SERVE_PASSES {
        let pass_start = Instant::now();
        let mut pass = Vec::with_capacity(held_out.len());
        for (index, query) in held_out.iter().enumerate() {
            let start = Instant::now();
            let response = service.serve(std::slice::from_ref(query));
            let end = Instant::now();
            tracer.record("service.serve", None, Some(index as u64), start, end);
            pass.push((end - start).as_secs_f64() * 1e6);
            repeatable &= response.estimates[0].to_bits() == first[index].to_bits();
            stats.accumulate(&response.stats);
        }
        pass_rates.push(held_out.len() as f64 / pass_start.elapsed().as_secs_f64());
        passes.push(pass);
    }
    let serving_s = serving.elapsed().as_secs_f64();
    checks.check("repeated serving is bit-identical", repeatable, || {
        "an estimate changed between passes".into()
    });
    let q_errors: Vec<f64> = first
        .iter()
        .zip(&truths)
        .map(|(&e, &t)| q_error(e, t))
        .collect();
    let (p50, p99) = windowed_p50_p99(passes.iter().map(Vec::as_slice));
    values.set("estimates_per_s", median(&pass_rates).expect("a pass"));
    values.set("latency_p50_us", p50);
    values.set("latency_p99_us", p99);
    values.set("q_error_p50", percentile(&q_errors, 50.0).expect("queries"));
    values.set("q_error_p95", percentile(&q_errors, 95.0).expect("queries"));
    set_service(&mut values, &stats, (held_out.len() * SERVE_PASSES) as u64);

    if tracer.enabled() {
        let snapshot = service.pool().snapshot();
        let model = service.model();
        let mut total = replay::ModelTimes::default();
        for (index, query) in held_out.iter().enumerate() {
            let parent = tracer.next_id();
            let start = Instant::now();
            let (times, sources) = replay::full_scan(
                &model,
                service.config(),
                &snapshot,
                std::slice::from_ref(query),
                tracer,
                Some(parent),
                Some(index as u64),
            );
            tracer.record_with_id(
                parent,
                "model.replay",
                None,
                Some(index as u64),
                start,
                Instant::now(),
            );
            total.add(&times);
            tracer.record_query(QueryRecord {
                request: index as u64,
                sql: query.to_sql(),
                joins: query.num_joins(),
                latency_us: passes[0][index],
                estimate: first[index],
                true_cardinality: truths[index],
                q_error: q_errors[index],
                source: sources[0],
            });
        }
        set_model(&mut values, &total, held_out.len() as u64);
    }
    values.set("rss_mb", peak_rss_mb());

    Report {
        workload: "train",
        metrics: values.metrics(args.trace),
        traced_end_to_end: if args.trace {
            values.metrics(false)
        } else {
            Vec::new()
        },
        failures: Failures {
            requested: (held_out.len() * (SERVE_PASSES + 1)) as u64,
            other: fits.len() as u64,
            ..Failures::default()
        },
        checks,
        notes: vec![
            format!("set-up {:.2} s (median of {SETUP_REPEATS})", times.setup_s),
            format!("reference counts and label checks {reference_s:.2} s"),
            format!(
                "measured {:.2} s: {} fits of {epochs} epochs",
                fit_seconds.iter().sum::<f64>(),
                fits.len()
            ),
            format!(
                "served {} held-out queries {SERVE_PASSES} times in {serving_s:.2} s",
                held_out.len()
            ),
        ],
    }
}

/// Recomputes a seeded sample of training labels with the naive executor: each must be
/// `|Q1 ∩ Q2| / |Q1|` (0 for an empty `Q1`), and every label must lie in `[0, 1]`.
fn check_labels(
    executor: &Executor<'_>,
    samples: &[ContainmentSample],
    seed: u64,
    checks: &mut Checks,
) {
    checks.check(
        "every label lies in [0, 1]",
        samples.iter().all(|s| (0.0..=1.0).contains(&s.rate)),
        || "a containment label lies outside [0, 1]".into(),
    );
    let cheap: Vec<&ContainmentSample> = samples
        .iter()
        .filter(|s| naive_cost(executor, &s.q1) <= NAIVE_BUDGET)
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x6c61_6265_6c73);
    for _ in 0..LABEL_CHECKS {
        // The intersection only adds predicates, so it costs no more than `Q1`.
        let sample = cheap[rng.below(cheap.len())];
        let intersection: Query = sample
            .q1
            .intersect(&sample.q2)
            .expect("labelled pairs share a FROM clause");
        let card_q1 = executor.cardinality_naive(&sample.q1);
        let card_both = executor.cardinality_naive(&intersection);
        let rate = if card_q1 == 0 {
            0.0
        } else {
            card_both as f64 / card_q1 as f64
        };
        checks.check(
            "label matches the naive executor",
            sample.card_q1 == card_q1
                && sample.card_intersection == card_both
                && sample.rate.to_bits() == rate.to_bits(),
            || format!("{} vs naive {rate}", sample.rate),
        );
    }
}
