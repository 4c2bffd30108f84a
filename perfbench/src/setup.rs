//! The `small` preset every workload starts from, and the timed set-up that builds it.
//!
//! The database, the 8000-pair training corpus, the model recipe and the pool come from
//! `ExperimentConfig::small` as shipped, with its own seed: they are the system under test,
//! identical in every run.  Only the workload inputs (queries, plans, draws) depend on the
//! benchmark's `--seed`.

use std::time::{Duration, Instant};

use crn_core::{CrnModel, QueriesPool};
use crn_db::database::Database;
use crn_db::imdb::generate_imdb;
use crn_estimators::PostgresEstimator;
use crn_eval::harness::ExperimentConfig;
use crn_eval::workloads::{crd_test2, WorkloadSizes};
use crn_exec::{label_containment_pairs, ContainmentSample, Executor};
use crn_nn::{ThreadPoolConfig, TrainConfig, TrainingHistory};
use crn_query::ast::Query;
use crn_query::generator::{GeneratorConfig, QueryGenerator};

use crate::stats::median;

/// Worker threads for labelling, training and serving: the two cores of the reference host.
/// Fixed rather than detected, so the benchmark does the same work on any host.
pub const THREADS: usize = 2;
/// Pool shards of the serving workloads (the `repro serve` default).
pub const SHARDS: usize = 4;
/// Set-ups per run; `setup_s` and the set-up's per-layer figures are their medians.
pub const SETUP_REPEATS: usize = 3;
/// Epochs the serving workloads train for in set-up, with early stopping off, so that
/// set-up cost does not depend on the stopping rule (`fit` still keeps the best epoch).
pub const SETUP_EPOCHS: usize = 20;

/// The shipped `small` preset.
pub fn preset() -> ExperimentConfig {
    ExperimentConfig::small()
}

/// Queries per join count (0–5) of the evaluation set.
const EVALUATION_PER_JOIN: usize = 100;

/// The evaluation set every workload's `q_error_*` is measured on, with exact counts: the
/// repository's `crd_test2` workload (0–5 joins, non-empty) at the preset's seed.  It is the
/// same in every run, so the q-errors are a function of the program alone: a seed-drawn
/// set of 1200 queries moved `q_error_p95` by 41% (quartile spread) across five seeds.
pub fn evaluation_set(executor: &Executor<'_>) -> (Vec<Query>, Vec<u64>) {
    let sizes = WorkloadSizes {
        crd_test2_per_join: EVALUATION_PER_JOIN,
        ..WorkloadSizes::small()
    };
    let queries = crd_test2(executor.database(), &sizes, preset().seed).queries;
    let truths = queries.iter().map(|q| executor.cardinality(q)).collect();
    (queries, truths)
}

/// The preset's training recipe on the benchmark's deterministic two-thread pool.
pub fn train_config(preset: &ExperimentConfig) -> TrainConfig {
    TrainConfig {
        parallel: ThreadPoolConfig::deterministic(THREADS),
        ..preset.train.clone()
    }
}

/// What one set-up builds.
pub struct Built {
    pub db: Database,
    pub samples: Vec<ContainmentSample>,
    pub pool: QueriesPool,
    /// The services' fallback for queries no pool anchor answers (as `repro serve` has).
    pub fallback: PostgresEstimator,
    /// `Some` on the serving workloads, which train in set-up.
    pub fit: Option<(CrnModel, TrainingHistory)>,
}

/// Median timings over the run's set-ups.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub setup_s: f64,
    pub label_s: f64,
    pub fit_s: f64,
    pub pool_build_s: f64,
}

/// Runs the set-up [`SETUP_REPEATS`] times and returns the last build with the median
/// timings.  The first set-up is timed from `process_start`.
pub fn build_repeated(
    process_start: Instant,
    pool_size: usize,
    train_epochs: Option<usize>,
) -> (Built, SetupTimes) {
    let preset = preset();
    let mut totals = Vec::new();
    let mut labels = Vec::new();
    let mut fits = Vec::new();
    let mut pools = Vec::new();
    let mut last = None;
    for repeat in 0..SETUP_REPEATS {
        let started = if repeat == 0 {
            process_start
        } else {
            Instant::now()
        };
        // Drop the previous build first so peak memory holds one build.
        drop(last.take());
        let (built, label, fit, pool) = build_once(&preset, pool_size, train_epochs);
        totals.push(started.elapsed().as_secs_f64());
        labels.push(label.as_secs_f64());
        fits.push(fit.as_secs_f64());
        pools.push(pool.as_secs_f64());
        last = Some(built);
    }
    let med = |values: &[f64]| median(values).expect("at least one set-up");
    (
        last.expect("at least one set-up"),
        SetupTimes {
            setup_s: med(&totals),
            label_s: med(&labels),
            fit_s: med(&fits),
            pool_build_s: med(&pools),
        },
    )
}

fn build_once(
    preset: &ExperimentConfig,
    pool_size: usize,
    train_epochs: Option<usize>,
) -> (Built, Duration, Duration, Duration) {
    let db = generate_imdb(&preset.db);
    let mut generator = QueryGenerator::new(&db, GeneratorConfig::paper(preset.seed));
    let pairs = generator.generate_pairs(preset.training_initial_queries, preset.training_pairs);
    let started = Instant::now();
    let samples = label_containment_pairs(&db, &pairs, THREADS);
    let label = started.elapsed();

    let started = Instant::now();
    let fit = train_epochs.map(|epochs| {
        let mut model = CrnModel::new(
            &db,
            TrainConfig {
                epochs,
                patience: None,
                ..train_config(preset)
            },
        );
        let history = model.fit(&samples);
        (model, history)
    });
    let fit_time = started.elapsed();

    let started = Instant::now();
    let pool = QueriesPool::generate(
        &db,
        pool_size,
        preset.pool_max_joins,
        preset.seed.wrapping_add(500),
    );
    let pool_time = started.elapsed();
    let fallback = PostgresEstimator::analyze(&db);
    (
        Built {
            db,
            samples,
            pool,
            fallback,
            fit,
        },
        label,
        fit_time,
        pool_time,
    )
}

/// `count` distinct generated queries with exactly `joins` joins and a non-empty result,
/// with their exact counts.  Empty results are common on the synthetic database and would
/// make any estimator that clamps to one row look exact, so the workloads leave them out,
/// as the repository's evaluation workloads do.
pub fn non_empty_queries(
    executor: &Executor<'_>,
    seed: u64,
    joins: usize,
    count: usize,
) -> Vec<(Query, u64)> {
    let mut generator = QueryGenerator::new(
        executor.database(),
        GeneratorConfig::with_max_joins(seed, 5),
    );
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    for _ in 0..100 {
        for query in generator.generate_initial_with_joins(count, joins) {
            if out.len() < count && seen.insert(query.clone()) {
                let cardinality = executor.cardinality(&query);
                if cardinality > 0 {
                    out.push((query, cardinality));
                }
            }
        }
        if out.len() == count {
            return out;
        }
    }
    panic!("the generator yields too few non-empty {joins}-join queries");
}

/// The most work a check may ask of the naive executor, as a product of row counts.  The
/// naive executor materializes every join combination, so checks sample only queries
/// under this bound (single tables and selective joins).
pub const NAIVE_BUDGET: f64 = 1e6;

/// An upper bound on the naive executor's work for `query`: the product of its tables'
/// filtered row counts.
pub fn naive_cost(executor: &Executor<'_>, query: &Query) -> f64 {
    query
        .tables()
        .iter()
        .map(|name| {
            let table = executor
                .database()
                .table(name)
                .expect("queries name tables of the database");
            executor.count_single_table(table, query.predicates()) as f64
        })
        .product()
}
