//! `feedback-mix`: closed-loop callers reading through `ServeRuntime`, each writing observed
//! feedback into the maintenance lane after every tenth completed read.
//!
//! It is the only workload that runs crn-serve (admission, batch close, coalescing, the
//! estimate cache, the maintenance lane) and the pool tier (top-K scoring, upsert,
//! retention eviction), and it uses the pool differently from `plan-batches`: writes run
//! beside reads.  The pool is ten times the preset's, bounded at its starting size, so its
//! size holds steady while writes insert and evict.
//!
//! The callers keep both cores busy.  An open loop at a fixed offered rate leaves them idle
//! between requests, and on a virtualised host waking an idle core then set the tail: at
//! 400 reads/s, p99 ranged from 1.6 to 4.6 ms across three runs of one seed with no writes
//! at all, while p50 held within 6%.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crn_core::{Cnt2CrdConfig, CrnModel, EstimatorService, ServeResponse, ShardedPool};
use crn_exec::Executor;
use crn_nn::WorkerPool;
use crn_query::ast::Query;
use crn_serve::{
    ComputeBackend, EstimateSource, RuntimeConfig, RuntimeStats, ServeRuntime, SubmitError, Ticket,
    TicketError,
};

use crate::metrics::{set_model, set_service, set_setup, set_setup_fit, Values};
use crate::replay;
use crate::report::{peak_rss_mb, Checks, Failures, Report};
use crate::sampling::{SplitMix64, Zipf};
use crate::setup::{self, non_empty_queries, SETUP_EPOCHS, SETUP_REPEATS, SHARDS, THREADS};
use crate::stats::{mean, percentile, q_error, windowed_p50_p99, windows};
use crate::trace::{QueryRecord, Source, Tracer};
use crate::Args;

/// The pool is this many times the preset's.
const POOL_SCALE: usize = 10;
/// Anchors each query is served from (top-K retrieval).
const TOP_K: usize = 8;
/// Distinct queries reads are drawn from, in equal shares of 0–5 joins.
const UNIVERSE: usize = 1998;
/// Zipf exponent of the read draws over the universe.
const ZIPF_EXPONENT: f64 = 1.0;
/// One feedback record per this many completed reads.
const WRITE_EVERY: usize = 10;
/// Closed-loop callers: enough to keep both cores busy and to give the batcher concurrent
/// requests to fuse.
const CALLERS: usize = 4;
/// Reads per latency window (in completion order): each window's p99 has 20 reads beyond.
const WINDOW_READS: usize = 2000;
/// Estimate-cache capacity: about twice the universe, so only invalidation evicts.
const CACHE_ENTRIES: usize = 4096;
/// Queue depth: far above the callers' at most one request each in flight.
const QUEUE_DEPTH: usize = 4096;

type Service = EstimatorService<CrnModel>;

pub fn run(args: &Args, process_start: Instant, tracer: &Arc<Tracer>) -> Report {
    let preset = setup::preset();
    let (built, times) = setup::build_repeated(
        process_start,
        preset.pool_size * POOL_SCALE,
        Some(SETUP_EPOCHS),
    );
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

    // Workload inputs, from the seed only: the read universe and the draws.  The exact
    // counts come with the universe; they stay outside every timed figure.
    let generating = Instant::now();
    let mut rng = SplitMix64::new(args.seed ^ 0x006d_6978);
    let executor = Executor::new(&db);
    let mut universe: Vec<(Query, u64)> = (0..=5)
        .flat_map(|joins| non_empty_queries(&executor, rng.next_u64(), joins, UNIVERSE / 6))
        .collect();
    rng.shuffle(&mut universe);
    let (universe, truths): (Vec<Query>, Vec<u64>) = universe.into_iter().unzip();
    let zipf = Zipf::new(universe.len(), ZIPF_EXPONENT);
    let (evaluation, evaluation_truths) = setup::evaluation_set(&executor);
    let generating_s = generating.elapsed().as_secs_f64();

    let sharded = ShardedPool::from_pool(&pool, SHARDS).with_capacity(pool.len());
    let quota = pool.len().div_ceil(SHARDS);
    let shard_bounds: Vec<usize> = {
        let snapshot = sharded.snapshot();
        (0..SHARDS)
            .map(|s| snapshot.shard(s).len().max(quota))
            .collect()
    };
    let service = EstimatorService::new(model, sharded, WorkerPool::shared(THREADS))
        .with_config(Cnt2CrdConfig {
            top_k: TOP_K,
            ..Cnt2CrdConfig::default()
        })
        .with_fallback(Box::new(fallback));
    let config = RuntimeConfig::default()
        .with_queue_depth(QUEUE_DEPTH)
        .with_per_caller_depth(QUEUE_DEPTH)
        .with_cache_entries(CACHE_ENTRIES);
    let inputs = Inputs {
        universe: &universe,
        truths: &truths,
        zipf: &zipf,
        seed: args.seed,
        seconds: args.seconds,
        shard_bounds: &shard_bounds,
        capacity: quota * SHARDS,
        evaluation: &evaluation,
    };

    let outcome = if tracer.enabled() {
        let backend = Arc::new(Traced::new(service, Arc::clone(tracer)));
        let runtime = ServeRuntime::new(Arc::clone(&backend), config);
        let outcome = drive(&runtime, backend.service(), &inputs, tracer, &mut checks);
        runtime.shutdown();
        backend.report(&mut values, &outcome, &inputs, tracer);
        outcome
    } else {
        let service = Arc::new(service);
        let runtime = ServeRuntime::new(Arc::clone(&service), config);
        let outcome = drive(&runtime, &service, &inputs, tracer, &mut checks);
        runtime.shutdown();
        outcome
    };

    let latencies: Vec<f64> = outcome.reads.iter().map(|r| r.latency_us).collect();
    // Accuracy once the feedback has settled, on the shared evaluation set.
    let q_errors: Vec<f64> = outcome
        .evaluated
        .iter()
        .zip(&evaluation_truths)
        .map(|(&e, &t)| q_error(e, t))
        .collect();
    values.set(
        "estimates_per_s",
        outcome.reads.len() as f64 / outcome.measured_s,
    );
    let (p50, p99) = windowed_p50_p99(windows(&latencies, WINDOW_READS));
    values.set("latency_p50_us", p50);
    values.set("latency_p99_us", p99);
    values.set("q_error_p50", percentile(&q_errors, 50.0).expect("queries"));
    values.set("q_error_p95", percentile(&q_errors, 95.0).expect("queries"));
    let stats = &outcome.stats;
    values.set("runtime.submit_us", mean(&outcome.submit_us));
    values.set(
        "runtime.queue_wait_us",
        mean(
            &outcome
                .reads
                .iter()
                .map(|r| r.queue_wait_us)
                .collect::<Vec<_>>(),
        ),
    );
    values.set("runtime.batches", stats.batches as f64);
    values.set("runtime.mean_batch", stats.mean_batch());
    values.set("runtime.coalesced", stats.coalesced as f64);
    values.set("runtime.cache_hit_ratio", stats.cache_hit_rate());
    values.set("runtime.cache_purged", stats.cache_purged as f64);
    values.set(
        "runtime.maintenance_applied",
        stats.maintenance_applied as f64,
    );
    values.set(
        "runtime.maintenance_rejected",
        stats.maintenance_rejected as f64,
    );
    values.set("rss_mb", peak_rss_mb());

    Report {
        workload: "feedback-mix",
        metrics: values.metrics(args.trace),
        traced_end_to_end: if args.trace {
            values.metrics(false)
        } else {
            Vec::new()
        },
        failures: outcome.failures,
        checks,
        notes: vec![
            format!("set-up {:.2} s (median of {SETUP_REPEATS})", times.setup_s),
            format!("reference counts and inputs {generating_s:.2} s"),
            format!("post-load checks {:.2} s", outcome.checks_s),
            format!(
                "measured {:.2} s: {} reads by {CALLERS} callers over {} queries",
                outcome.measured_s,
                outcome.reads.len(),
                universe.len()
            ),
        ],
    }
}

/// The generated inputs of one run.
struct Inputs<'a> {
    universe: &'a [Query],
    truths: &'a [u64],
    /// Draws universe ranks; each caller has its own seeded stream.
    zipf: &'a Zipf,
    seed: u64,
    seconds: u64,
    /// Per shard, the most entries it may hold: its quota, or its starting size when the
    /// pool started above quota there (entries present are not trimmed retroactively).
    shard_bounds: &'a [usize],
    /// The pool's capacity: quota × shards.
    capacity: usize,
    /// The shared evaluation set, served once the load has settled.
    evaluation: &'a [Query],
}

/// One completed read.
struct Read {
    index: u64,
    done: Instant,
    rank: usize,
    latency_us: f64,
    queue_wait_us: f64,
    estimate: f64,
    cached: bool,
}

struct Outcome {
    reads: Vec<Read>,
    /// The evaluation set's estimates after the load.
    evaluated: Vec<f64>,
    measured_s: f64,
    /// Wall time of the post-load checks and the read-only passes.
    checks_s: f64,
    submit_us: Vec<f64>,
    stats: RuntimeStats,
    failures: Failures,
}

/// What one caller did.
#[derive(Default)]
struct CallerLog {
    reads: Vec<Read>,
    submit_us: Vec<f64>,
    failures: Failures,
    written: Vec<usize>,
    /// Whether every shard stayed within its bound at each of this caller's writes.
    bounds_held: bool,
}

/// Runs the closed loop, then the post-load checks.
fn drive<B: ComputeBackend>(
    runtime: &ServeRuntime<B>,
    service: &Service,
    inputs: &Inputs<'_>,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Outcome {
    let requests = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(inputs.seconds);
    let logs: Vec<CallerLog> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let requests = &requests;
                scope.spawn(move || {
                    call(caller, runtime, service, inputs, tracer, requests, deadline)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("a caller thread panicked"))
            .collect()
    });
    let measured_s = start.elapsed().as_secs_f64();
    let checking = Instant::now();
    runtime.flush();
    let stats = runtime.stats();

    let mut reads = Vec::new();
    let mut submit_us = Vec::new();
    let mut failures = Failures::default();
    let mut written = BTreeSet::new();
    let mut bounds_held = true;
    for log in logs {
        reads.extend(log.reads);
        submit_us.extend(log.submit_us);
        written.extend(log.written);
        bounds_held &= log.bounds_held;
        let f = log.failures;
        failures.requested += f.requested;
        failures.rejected += f.rejected;
        failures.expired += f.expired;
        failures.degraded += f.degraded;
        failures.failed += f.failed;
        failures.feedback_sent += f.feedback_sent;
        failures.feedback_shed += f.feedback_shed;
    }
    reads.sort_by_key(|r| r.done);

    checks.check(
        "every admitted ticket resolves Computed or Cached",
        failures.failed_ops() == 0 && stats.fully_resolved(),
        || format!("{failures:?}"),
    );
    let snapshot = service.pool().snapshot();
    checks.check(
        "the pool never exceeds its capacity",
        bounds_held && snapshot.len() <= inputs.capacity,
        || format!("{} entries, capacity {}", snapshot.len(), inputs.capacity),
    );
    let mut stale = 0usize;
    for &rank in &written {
        let query = &inputs.universe[rank];
        if let Some(entry) = snapshot.matching(query).find(|e| e.query == *query) {
            stale += usize::from(entry.cardinality != inputs.truths[rank]);
        }
    }
    checks.check(
        "resident written queries hold their exact counts",
        stale == 0,
        || format!("{stale} resident entries hold a stale count"),
    );
    read_only_pass(runtime, service, inputs, checks);
    let evaluated = service.serve(inputs.evaluation).estimates;
    let checks_s = checking.elapsed().as_secs_f64();

    Outcome {
        reads,
        evaluated,
        measured_s,
        checks_s,
        submit_us,
        stats,
        failures,
    }
}

/// One caller: rounds of `WRITE_EVERY` reads, each submitted and waited for in turn, then
/// one feedback record for the round's last read, until the deadline.  A record the lane
/// is too full to take is retried, so the write share stays fixed and nothing is shed.
fn call<B: ComputeBackend>(
    caller: usize,
    runtime: &ServeRuntime<B>,
    service: &Service,
    inputs: &Inputs<'_>,
    tracer: &Tracer,
    requests: &AtomicU64,
    deadline: Instant,
) -> CallerLog {
    let mut rng = SplitMix64::new(inputs.seed ^ 0x6361_6c6c_6572 ^ caller as u64);
    let mut log = CallerLog {
        bounds_held: true,
        ..CallerLog::default()
    };
    while Instant::now() < deadline {
        let mut last = None;
        for _ in 0..WRITE_EVERY {
            let rank = inputs.zipf.sample(&mut rng);
            let index = requests.fetch_add(1, Ordering::Relaxed);
            log.failures.requested += 1;
            let submitted = Instant::now();
            let ticket = runtime.submit_retrying(caller as u64, &inputs.universe[rank]);
            let admitted = Instant::now();
            log.submit_us
                .push((admitted - submitted).as_secs_f64() * 1e6);
            let outcome = match ticket.map(|t| t.wait()) {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(TicketError::Expired)) => {
                    log.failures.expired += 1;
                    continue;
                }
                Ok(Err(TicketError::BatchFailed)) => {
                    log.failures.failed += 1;
                    continue;
                }
                Err(_) => {
                    log.failures.rejected += 1;
                    continue;
                }
            };
            let done = Instant::now();
            if outcome.source == EstimateSource::Degraded {
                log.failures.degraded += 1;
            }
            if tracer.enabled() {
                let root = tracer.next_id();
                let request = Some(index);
                tracer.record("runtime.submit", Some(root), request, submitted, admitted);
                tracer.record(
                    "runtime.queue_wait",
                    Some(root),
                    request,
                    admitted,
                    admitted + outcome.queue_wait,
                );
                tracer.record_with_id(root, "request", None, request, submitted, done);
            }
            log.reads.push(Read {
                index,
                done,
                rank,
                latency_us: (done - submitted).as_secs_f64() * 1e6,
                queue_wait_us: outcome.queue_wait.as_secs_f64() * 1e6,
                estimate: outcome.estimate,
                cached: outcome.source == EstimateSource::Cached,
            });
            last = Some((rank, outcome.estimate));
        }
        let Some((rank, estimate)) = last else {
            continue;
        };
        log.failures.feedback_sent += 1;
        loop {
            let query = inputs.universe[rank].clone();
            match runtime.record_observed(query, inputs.truths[rank], estimate) {
                Ok(()) => {
                    log.written.push(rank);
                    break;
                }
                Err(SubmitError::Overloaded { .. }) => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(_) => {
                    log.failures.feedback_shed += 1;
                    break;
                }
            }
        }
        let snapshot = service.pool().snapshot();
        log.bounds_held &=
            (0..snapshot.num_shards()).all(|s| snapshot.shard(s).len() <= inputs.shard_bounds[s]);
    }
    log
}

/// After the load, with no writes pending: the whole universe goes through the runtime
/// twice (the first pass warms the cache), and both passes must be bit-identical to one
/// `EstimatorService::serve` of the same queries on the same snapshot.
fn read_only_pass<B: ComputeBackend>(
    runtime: &ServeRuntime<B>,
    service: &Service,
    inputs: &Inputs<'_>,
    checks: &mut Checks,
) {
    let versions = service.serving_versions();
    let direct: ServeResponse = service.serve(inputs.universe);
    let mut identical = true;
    let mut warm_hits = 0usize;
    for pass in 0..2 {
        let tickets: Vec<Ticket> = inputs
            .universe
            .iter()
            .map(|q| {
                runtime
                    .submit_retrying(0, q)
                    .expect("the runtime is running")
            })
            .collect();
        for (ticket, expected) in tickets.iter().zip(&direct.estimates) {
            match ticket.wait() {
                Ok(outcome) => {
                    identical &= outcome.estimate.to_bits() == expected.to_bits();
                    if pass == 1 && outcome.source == EstimateSource::Cached {
                        warm_hits += 1;
                    }
                }
                Err(_) => identical = false,
            }
        }
    }
    checks.check(
        "read-only passes are bit-identical to EstimatorService::serve",
        identical && service.serving_versions() == versions,
        || "a runtime estimate differs from the direct serve".into(),
    );
    checks.check(
        "the second read-only pass is answered from the warm cache",
        warm_hits == inputs.universe.len(),
        || format!("{warm_hits} of {} cached", inputs.universe.len()),
    );
}

/// The traced run's backend: the service behind a `ComputeBackend` that times every call
/// into it, records the batches it served for the model replay, and counts what each pool
/// write changed.
struct Traced {
    inner: Service,
    tracer: Arc<Tracer>,
    serve_calls: AtomicU64,
    serve_ns: AtomicU64,
    batches: Mutex<Vec<Vec<Query>>>,
    upserts: AtomicU64,
    upsert_ns: AtomicU64,
    useful_upserts: AtomicU64,
    version_bumps: AtomicU64,
    evictions_at_start: u64,
}

impl Traced {
    fn new(inner: Service, tracer: Arc<Tracer>) -> Self {
        let evictions_at_start = inner.pool().evictions();
        Traced {
            inner,
            tracer,
            serve_calls: AtomicU64::new(0),
            serve_ns: AtomicU64::new(0),
            batches: Mutex::new(Vec::new()),
            upserts: AtomicU64::new(0),
            upsert_ns: AtomicU64::new(0),
            useful_upserts: AtomicU64::new(0),
            version_bumps: AtomicU64::new(0),
            evictions_at_start,
        }
    }

    fn service(&self) -> &Service {
        &self.inner
    }

    /// Runs one pool write, counting a version bump when it published a new snapshot;
    /// returns the write's result and duration.
    fn write<T>(&self, name: &'static str, work: impl FnOnce(&ShardedPool) -> T) -> (T, Duration) {
        let pool = self.inner.pool();
        let before = pool.snapshot().version();
        let start = Instant::now();
        let out = work(pool);
        let end = Instant::now();
        self.tracer.record(name, None, None, start, end);
        if pool.snapshot().version() != before {
            self.version_bumps.fetch_add(1, Ordering::Relaxed);
        }
        (out, end - start)
    }

    /// Sets the runtime, service, pool and model figures of the traced run, and writes
    /// one query record per read.
    fn report(&self, values: &mut Values, outcome: &Outcome, inputs: &Inputs<'_>, tracer: &Tracer) {
        let calls = self.serve_calls.load(Ordering::Relaxed);
        values.set(
            "runtime.backend_us",
            self.serve_ns.load(Ordering::Relaxed) as f64 / 1e3 / calls.max(1) as f64,
        );
        set_service(values, &outcome.stats.serve, calls);
        let upserts = self.upserts.load(Ordering::Relaxed);
        values.set("pool.upserts", upserts as f64);
        values.set(
            "pool.upsert_us",
            self.upsert_ns.load(Ordering::Relaxed) as f64 / 1e3 / upserts.max(1) as f64,
        );
        values.set(
            "pool.useful_upsert_ratio",
            self.useful_upserts.load(Ordering::Relaxed) as f64 / upserts.max(1) as f64,
        );
        values.set(
            "pool.version_bumps",
            self.version_bumps.load(Ordering::Relaxed) as f64,
        );
        values.set(
            "pool.evictions",
            (self.inner.pool().evictions() - self.evictions_at_start) as f64,
        );

        // Model replay of every served batch against the final snapshot.
        let snapshot = self.inner.pool().snapshot();
        let model = self.inner.model();
        let batches = self.batches.lock().expect("batch log poisoned");
        let mut total = replay::ModelTimes::default();
        let mut sources: BTreeMap<&Query, Source> = BTreeMap::new();
        let mut replayed_queries = 0u64;
        for batch in batches.iter() {
            let parent = tracer.next_id();
            let start = Instant::now();
            let (times, batch_sources) = replay::top_k(
                &model,
                self.inner.config(),
                &snapshot,
                batch,
                tracer,
                Some(parent),
            );
            tracer.record_with_id(parent, "model.replay", None, None, start, Instant::now());
            total.add(&times);
            replayed_queries += batch.len() as u64;
            for (query, source) in batch.iter().zip(batch_sources) {
                sources.insert(query, source);
            }
        }
        set_model(values, &total, batches.len() as u64);
        values.set(
            "pool.topk_scored",
            total.topk_scored as f64 / replayed_queries.max(1) as f64,
        );
        for read in &outcome.reads {
            let query = &inputs.universe[read.rank];
            let truth = inputs.truths[read.rank];
            tracer.record_query(QueryRecord {
                request: read.index,
                sql: query.to_sql(),
                joins: query.num_joins(),
                latency_us: read.latency_us,
                estimate: read.estimate,
                true_cardinality: truth,
                q_error: q_error(read.estimate, truth),
                source: if read.cached {
                    Source::Cache
                } else {
                    sources.get(query).copied().unwrap_or(Source::Fallback)
                },
            });
        }
    }
}

impl ComputeBackend for Traced {
    fn serve(&self, queries: &[Query]) -> ServeResponse {
        let start = Instant::now();
        let response = self.inner.serve(queries);
        let end = Instant::now();
        self.tracer.record("backend.serve", None, None, start, end);
        self.serve_calls.fetch_add(1, Ordering::Relaxed);
        self.serve_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        self.batches
            .lock()
            .expect("batch log poisoned")
            .push(queries.to_vec());
        response
    }

    fn fallback_estimate(&self, query: &Query) -> f64 {
        self.inner.fallback_estimate(query)
    }

    fn serving_versions(&self) -> (u64, u64) {
        self.inner.serving_versions()
    }

    fn apply_feedback(&self, query: &Query, cardinality: u64) {
        let (replaced, took) = self.write("pool.upsert", |pool| {
            pool.upsert(query.clone(), cardinality)
        });
        self.upsert_ns
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        self.upserts.fetch_add(1, Ordering::Relaxed);
        if replaced != Some(cardinality) {
            self.useful_upserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record_retention(&self, query: &Query, q_error: f64) -> bool {
        self.write("pool.retention", |pool| {
            pool.record_feedback(query, q_error)
        })
        .0
    }

    fn pool_evictions(&self) -> u64 {
        self.inner.pool().evictions()
    }

    fn compact(&self) -> usize {
        self.inner.pool().compact()
    }

    fn name(&self) -> &str {
        "Traced(EstimatorService)"
    }
}
