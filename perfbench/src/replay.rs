//! The traced run's view into the model layer: a served call's work replayed through the
//! model's public entry points, each timed and recorded as a span.  The service does not
//! expose its inner phases per query, so the replay re-runs the same calls on the same
//! snapshot: it measures what the call costs, not the call itself.

use std::hint::black_box;
use std::time::Instant;

use crn_core::{plan_groups, Cnt2CrdConfig, CrnModel, PoolSnapshot};
use crn_estimators::ContainmentEstimator;
use crn_query::ast::Query;

use crate::trace::{Source, Tracer};

/// Model-layer cost of one replayed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelTimes {
    pub featurize_us: f64,
    pub anchor_encode_us: f64,
    pub head_us: f64,
    /// (query, anchor) pairs scored by the containment heads.
    pub anchor_pairs: u64,
    /// Pool entries the top-K ranking scored (0 on the full-scan path).
    pub topk_scored: u64,
}

impl ModelTimes {
    pub fn add(&mut self, other: &ModelTimes) {
        self.featurize_us += other.featurize_us;
        self.anchor_encode_us += other.anchor_encode_us;
        self.head_us += other.head_us;
        self.anchor_pairs += other.anchor_pairs;
        self.topk_scored += other.topk_scored;
    }
}

/// Times `work` as a span named `name` and returns its result and duration in µs.
fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: Option<u64>,
    request: Option<u64>,
    work: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(work());
    let end = Instant::now();
    tracer.record(name, parent, request, start, end);
    (out, (end - start).as_secs_f64() * 1e6)
}

/// Replays a full-scan `serve` of `queries`: per (FROM-clause group, shard with matching
/// anchors) work item, the group's featurization, the anchor encode the prepared-anchor
/// cache holds, and the fused multi-query head.  Returns the times and each query's
/// source (pool when an anchor survives the ε-filter, else fallback).
pub fn full_scan(
    model: &CrnModel,
    config: &Cnt2CrdConfig,
    snapshot: &PoolSnapshot,
    queries: &[Query],
    tracer: &Tracer,
    parent: Option<u64>,
    request: Option<u64>,
) -> (ModelTimes, Vec<Source>) {
    let mut times = ModelTimes::default();
    let mut answered = vec![false; queries.len()];
    for (key, indices) in plan_groups(queries) {
        let group: Vec<&Query> = indices.iter().map(|&i| &queries[i]).collect();
        for shard in 0..snapshot.num_shards() {
            let entries: Vec<_> = snapshot.shard(shard).matching_key(&key).collect();
            if entries.is_empty() {
                continue;
            }
            let anchors: Vec<&Query> = entries.iter().map(|e| &e.query).collect();
            let (_, featurize) = timed(tracer, "model.featurize", parent, request, || {
                group
                    .iter()
                    .map(|q| model.featurizer().featurize(q))
                    .collect::<Vec<_>>()
            });
            let (state, encode) = timed(tracer, "model.anchor_encode", parent, request, || {
                model.prepare_anchors(&anchors)
            });
            let state = state.expect("the CRN model prepares anchor state");
            let (rates, head) = timed(tracer, "model.head", parent, request, || {
                model.predict_batch_prepared_multi(state.as_ref(), &anchors, &group)
            });
            times.featurize_us += featurize;
            times.anchor_encode_us += encode;
            times.head_us += head;
            times.anchor_pairs += (anchors.len() * group.len()) as u64;
            for (&index, query_rates) in indices.iter().zip(&rates) {
                answered[index] |= entries.iter().zip(query_rates).any(|(entry, &(x, y))| {
                    config.entry_estimate(entry.cardinality, x, y).is_some()
                });
            }
        }
    }
    (times, sources(&answered))
}

/// Replays a top-K `serve` of `queries`: per query, the ranking over its FROM bucket, the
/// query's featurization, the encode of its `k` anchors, and `predict_batch` (which
/// encodes those anchors again, as the top-K path does on every query).
pub fn top_k(
    model: &CrnModel,
    config: &Cnt2CrdConfig,
    snapshot: &PoolSnapshot,
    queries: &[Query],
    tracer: &Tracer,
    parent: Option<u64>,
) -> (ModelTimes, Vec<Source>) {
    let mut times = ModelTimes::default();
    let mut answered = vec![false; queries.len()];
    for (index, query) in queries.iter().enumerate() {
        times.topk_scored += snapshot.matching(query).count() as u64;
        let ranked = snapshot.matching_top_k(query, config.top_k);
        if ranked.is_empty() {
            continue;
        }
        let anchors: Vec<&Query> = ranked.iter().map(|(_, e)| &e.query).collect();
        let (_, featurize) = timed(tracer, "model.featurize", parent, None, || {
            model.featurizer().featurize(query)
        });
        let (_, encode) = timed(tracer, "model.anchor_encode", parent, None, || {
            model.prepare_anchors(&anchors)
        });
        let (rates, head) = timed(tracer, "model.head", parent, None, || {
            model.predict_batch(&anchors, query)
        });
        times.featurize_us += featurize;
        times.anchor_encode_us += encode;
        times.head_us += head;
        times.anchor_pairs += anchors.len() as u64;
        answered[index] = ranked
            .iter()
            .zip(&rates)
            .any(|((_, entry), &(x, y))| config.entry_estimate(entry.cardinality, x, y).is_some());
    }
    (times, sources(&answered))
}

fn sources(answered: &[bool]) -> Vec<Source> {
    answered
        .iter()
        .map(|&hit| if hit { Source::Pool } else { Source::Fallback })
        .collect()
}
