//! Multi-tenant identity, weights, and quotas.
//!
//! Every [`crate::JobSpec`] carries a [`TenantId`]; the admission queue
//! keeps one FIFO sub-queue per tenant and drains them by weighted deficit
//! round-robin (see [`crate::queue`]), so a tenant's share of device time
//! follows its configured *weight* rather than its submission rate. On top
//! of the drain-side weighting, each tenant has an **in-flight cost
//! quota** — admitted-but-unfinished work, in the same calibrated cost
//! units the queue budget charges — so a single tenant can never occupy
//! the whole backlog: once its quota is full, further submissions are
//! *shed* with a typed retry hint while other tenants keep being admitted.
//!
//! Quotas default to the tenant's weighted share of the queue's cost
//! budget, which is what makes load shedding graceful *and* ordered:
//! the lowest-weight tenants have the smallest quotas, hit them first
//! under overload, and are therefore shed first, while every shed job
//! provably belonged to a tenant at or over its quota.
//!
//! The ledger half of this module accumulates the per-tenant counters the
//! service surfaces through [`crate::metrics`]: admitted/shed/completed
//! jobs, goodput in cost units, deadline misses, and completion-latency
//! samples reduced to p50/p95/p99.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::metrics::TenantReport;

/// A tenant's identity. `TenantId::default()` (id 0) is the anonymous
/// tenant every spec starts with; ids are small and assigned by the
/// embedding layer (e.g. one per API key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Per-tenant QoS parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Who the parameters apply to.
    pub id: TenantId,
    /// Fair-queuing weight: under contention a tenant receives device
    /// time proportional to its weight (weighted deficit round-robin with
    /// the calibrated per-job cost as the quantum currency).
    pub weight: u32,
    /// In-flight cost quota: admitted-but-unfinished work above this is
    /// shed. `None` derives the tenant's weighted share of the queue's
    /// cost budget.
    pub quota_cost: Option<u64>,
}

impl TenantConfig {
    /// A tenant with `weight` and the derived (weighted-share) quota.
    pub fn weighted(id: TenantId, weight: u32) -> Self {
        TenantConfig {
            id,
            weight,
            quota_cost: None,
        }
    }
}

/// Resolved per-tenant parameters: what the queue consults on every
/// admission and every deficit-round-robin turn.
#[derive(Debug, Clone)]
pub(crate) struct TenantTable {
    entries: HashMap<TenantId, (u32, u64)>,
    /// Weight and quota for tenants absent from the config.
    default_weight: u32,
    default_quota: u64,
}

impl TenantTable {
    /// Resolve `configs` against the queue's `cost_budget`.
    ///
    /// A configured tenant's derived quota is `budget × weight / Σweights`.
    /// With an empty config (the single-tenant case) every tenant gets
    /// weight 1 and an unlimited quota — the global cost budget is then
    /// the only backpressure, which is the pre-tenancy behaviour. With a
    /// non-empty config, unconfigured tenants get weight 1 and the share
    /// a weight-1 tenant would have had.
    pub fn resolve(configs: &[TenantConfig], cost_budget: u64) -> Self {
        if configs.is_empty() {
            return TenantTable {
                entries: HashMap::new(),
                default_weight: 1,
                default_quota: u64::MAX,
            };
        }
        let total_weight: u64 = configs.iter().map(|c| u64::from(c.weight.max(1))).sum();
        let entries = configs
            .iter()
            .map(|c| {
                let weight = c.weight.max(1);
                let quota = c
                    .quota_cost
                    .unwrap_or_else(|| quota_share(cost_budget, weight, total_weight));
                (c.id, (weight, quota))
            })
            .collect();
        TenantTable {
            entries,
            default_weight: 1,
            default_quota: quota_share(cost_budget, 1, total_weight),
        }
    }

    pub fn weight(&self, id: TenantId) -> u32 {
        self.entries.get(&id).map_or(self.default_weight, |e| e.0)
    }

    pub fn quota(&self, id: TenantId) -> u64 {
        self.entries.get(&id).map_or(self.default_quota, |e| e.1)
    }
}

fn quota_share(budget: u64, weight: u32, total_weight: u64) -> u64 {
    ((budget as u128 * u128::from(weight)) / u128::from(total_weight.max(1))).max(1) as u64
}

/// One tenant's accumulated counters.
#[derive(Debug, Default)]
struct TenantStats {
    admitted: u64,
    shed: u64,
    completed: u64,
    goodput_cost: u64,
    deadline_misses: u64,
    /// Wall-clock submit-to-completion latencies, nanoseconds. Unsorted;
    /// quantiles are computed at report time.
    latencies_ns: Vec<u64>,
}

/// Crate-internal per-tenant accounting: admission and completion paths
/// record into it, [`crate::Service::metrics`] reduces it to
/// [`TenantReport`] rows.
#[derive(Debug, Default)]
pub(crate) struct TenantLedger {
    inner: Mutex<HashMap<TenantId, TenantStats>>,
}

impl TenantLedger {
    pub fn admitted(&self, id: TenantId) {
        self.inner.lock().unwrap().entry(id).or_default().admitted += 1;
    }

    pub fn shed(&self, id: TenantId) {
        self.inner.lock().unwrap().entry(id).or_default().shed += 1;
    }

    pub fn completed(&self, id: TenantId, cost: u64, latency: Duration, deadline_missed: bool) {
        let mut inner = self.inner.lock().unwrap();
        let stats = inner.entry(id).or_default();
        stats.completed += 1;
        stats.goodput_cost += cost;
        stats.deadline_misses += u64::from(deadline_missed);
        stats
            .latencies_ns
            .push(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Reduce to report rows, sorted by tenant id for deterministic output.
    pub fn report(&self, table: &TenantTable) -> Vec<TenantReport> {
        let inner = self.inner.lock().unwrap();
        let mut rows: Vec<TenantReport> = inner
            .iter()
            .map(|(&id, stats)| {
                let mut sorted = stats.latencies_ns.clone();
                sorted.sort_unstable();
                TenantReport {
                    id,
                    weight: table.weight(id),
                    admitted: stats.admitted,
                    shed: stats.shed,
                    completed: stats.completed,
                    goodput_cost: stats.goodput_cost,
                    deadline_misses: stats.deadline_misses,
                    latency_p50_ns: quantile(&sorted, 0.50),
                    latency_p95_ns: quantile(&sorted, 0.95),
                    latency_p99_ns: quantile(&sorted, 0.99),
                }
            })
            .collect();
        rows.sort_by_key(|r| r.id);
        rows
    }
}

/// Nearest-rank quantile over an ascending-sorted slice; 0 when empty.
/// Shared with the windowed latency accounting in [`crate::metrics`] so
/// per-tenant and per-window percentiles agree on rank semantics.
pub(crate) fn quantile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_means_single_tenant_semantics() {
        let table = TenantTable::resolve(&[], 1000);
        assert_eq!(table.weight(TenantId(7)), 1);
        assert_eq!(
            table.quota(TenantId(7)),
            u64::MAX,
            "budget is the only limit"
        );
    }

    #[test]
    fn derived_quotas_are_weighted_shares_of_the_budget() {
        let configs = [
            TenantConfig::weighted(TenantId(1), 4),
            TenantConfig::weighted(TenantId(2), 2),
            TenantConfig::weighted(TenantId(3), 1),
        ];
        let table = TenantTable::resolve(&configs, 7000);
        assert_eq!(table.quota(TenantId(1)), 4000);
        assert_eq!(table.quota(TenantId(2)), 2000);
        assert_eq!(table.quota(TenantId(3)), 1000);
        // Unconfigured tenants get a weight-1 share, not a free ride.
        assert_eq!(table.weight(TenantId(9)), 1);
        assert_eq!(table.quota(TenantId(9)), 1000);
    }

    #[test]
    fn explicit_quotas_override_the_derived_share() {
        let configs = [TenantConfig {
            id: TenantId(1),
            weight: 1,
            quota_cost: Some(123),
        }];
        let table = TenantTable::resolve(&configs, 7000);
        assert_eq!(table.quota(TenantId(1)), 123);
    }

    #[test]
    fn ledger_reduces_latencies_to_quantiles() {
        let ledger = TenantLedger::default();
        let t = TenantId(5);
        ledger.admitted(t);
        ledger.shed(t);
        for ms in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            ledger.completed(t, 7, Duration::from_millis(ms), ms == 100);
        }
        let table = TenantTable::resolve(&[TenantConfig::weighted(t, 3)], 100);
        let rows = ledger.report(&table);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.weight, 3);
        assert_eq!(row.admitted, 1);
        assert_eq!(row.shed, 1);
        assert_eq!(row.completed, 10);
        assert_eq!(row.goodput_cost, 70);
        assert_eq!(row.deadline_misses, 1);
        assert_eq!(row.latency_p50_ns, 50_000_000);
        assert_eq!(row.latency_p95_ns, 100_000_000);
        assert_eq!(row.latency_p99_ns, 100_000_000);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.5), 7);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.99), 4);
    }
}
