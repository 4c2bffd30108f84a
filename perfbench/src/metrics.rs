//! The benchmark's metric catalogue.  Every workload reports every metric: end-to-end
//! metrics in the untraced run, per-layer metrics in the traced run.  A per-layer metric of
//! a layer the workload does not run reads 0.

use std::collections::BTreeMap;

use crn_core::ServeStats;

use crate::report::Metric;

/// End-to-end metrics, as a user of the estimator sees them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("estimates_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("q_error_p50", "ratio"),
    ("q_error_p95", "ratio"),
    ("train_samples_per_s", "1/s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, named after the crate whose calls they time or count.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exec.label_s", "s"),
    ("exec.label_pairs_per_s", "1/s"),
    ("nn.fit_s", "s"),
    ("nn.epochs", "count"),
    ("nn.epoch_ms", "ms"),
    ("nn.best_val_q_error", "ratio"),
    ("model.featurize_us", "us"),
    ("model.anchor_encode_us", "us"),
    ("model.head_us", "us"),
    ("model.anchor_pairs", "count"),
    ("service.snapshot_us", "us"),
    ("service.group_us", "us"),
    ("service.compute_us", "us"),
    ("service.merge_us", "us"),
    ("service.work_items", "count"),
    ("service.pool_hit_ratio", "ratio"),
    ("service.fallbacks", "count"),
    ("pool.build_s", "s"),
    ("pool.entries", "count"),
    ("pool.upserts", "count"),
    ("pool.upsert_us", "us"),
    ("pool.useful_upsert_ratio", "ratio"),
    ("pool.version_bumps", "count"),
    ("pool.evictions", "count"),
    ("pool.topk_scored", "count"),
    ("runtime.submit_us", "us"),
    ("runtime.queue_wait_us", "us"),
    ("runtime.backend_us", "us"),
    ("runtime.batches", "count"),
    ("runtime.mean_batch", "count"),
    ("runtime.coalesced", "count"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.cache_purged", "count"),
    ("runtime.maintenance_applied", "count"),
    ("runtime.maintenance_rejected", "count"),
];

/// Metric values by name, checked against the catalogue.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// The catalogue's metrics in order: `per_layer` selects which list.
    pub fn metrics(&self, per_layer: bool) -> Vec<Metric> {
        let catalogue = if per_layer { PER_LAYER } else { END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// The service layer's figures from `stats` accumulated over `calls` serve calls: phase
/// times and work items per call, fallbacks in total.
pub fn set_service(values: &mut Values, stats: &ServeStats, calls: u64) {
    let per_call = |d: std::time::Duration| d.as_secs_f64() * 1e6 / calls.max(1) as f64;
    values.set("service.snapshot_us", per_call(stats.snapshot_time));
    values.set("service.group_us", per_call(stats.group_time));
    values.set("service.compute_us", per_call(stats.compute_time));
    values.set("service.merge_us", per_call(stats.merge_time));
    values.set(
        "service.work_items",
        stats.work_items as f64 / calls.max(1) as f64,
    );
    values.set(
        "service.pool_hit_ratio",
        stats.pool_hits as f64 / stats.queries.max(1) as f64,
    );
    values.set("service.fallbacks", stats.fallbacks as f64);
}

/// The model layer's replayed figures, per replayed serve call.
pub fn set_model(values: &mut Values, times: &crate::replay::ModelTimes, calls: u64) {
    let calls = calls.max(1) as f64;
    values.set("model.featurize_us", times.featurize_us / calls);
    values.set("model.anchor_encode_us", times.anchor_encode_us / calls);
    values.set("model.head_us", times.head_us / calls);
    values.set("model.anchor_pairs", times.anchor_pairs as f64 / calls);
}

/// The crn-exec and pool-build figures of a run's set-up.
pub fn set_setup(values: &mut Values, times: &crate::setup::SetupTimes, pairs: usize) {
    values.set("exec.label_s", times.label_s);
    values.set("exec.label_pairs_per_s", pairs as f64 / times.label_s);
    values.set("pool.build_s", times.pool_build_s);
}

/// The crn-nn figures of the set-up's fixed-epoch fit.
pub fn set_setup_fit(
    values: &mut Values,
    times: &crate::setup::SetupTimes,
    history: &crn_nn::TrainingHistory,
    samples: usize,
) {
    let preset = crate::setup::preset();
    let (train_idx, _) = crn_nn::train_validation_split(
        samples,
        preset.train.validation_fraction,
        preset.train.seed,
    );
    let epochs = history.len() as f64;
    values.set(
        "train_samples_per_s",
        train_idx.len() as f64 * epochs / times.fit_s,
    );
    values.set("nn.fit_s", times.fit_s);
    values.set("nn.epochs", epochs);
    values.set("nn.epoch_ms", times.fit_s / epochs * 1e3);
    values.set("nn.best_val_q_error", history.best_validation);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn unset_metrics_read_zero() {
        let mut values = Values::default();
        values.set("setup_s", 1.5);
        let metrics = values.metrics(false);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].value, 1.5);
        assert_eq!(metrics[1].value, 0.0);
    }
}
