//! The bounded admission queue: per-tenant FIFO sub-queues (each with a
//! high/normal priority lane) drained by **weighted deficit round-robin**,
//! behind one estimated-cost budget and per-tenant in-flight quotas, with
//! typed shedding — not blocking — when either limit is hit.
//!
//! Admission control happens here, and it is *cost*-aware rather than
//! count-aware: each job carries an estimated work cost (assembly bases ×
//! search variants), and that one number is currency for all three
//! mechanisms:
//!
//! - **Budget.** The summed cost of queued work may not exceed the queue
//!   budget (a job dearer than the whole budget is still admitted when the
//!   queue is empty, so the service stays live).
//! - **Quota.** Each tenant may not hold more than its quota of
//!   *in-flight* cost — admitted but not yet finished, which includes jobs
//!   already popped and running. Quotas default to the tenant's weighted
//!   share of the budget (see [`crate::tenant`]), so under overload the
//!   lowest-weight tenants saturate first and are shed first, and every
//!   shed job belongs to a tenant at or over its quota.
//! - **Quantum.** The pop side serves tenants by deficit round-robin:
//!   each tenant accrues deficit in proportion to its weight, and pays its
//!   head job's cost to serve it, so drained cost per tenant converges to
//!   the weight ratio regardless of submission rates. Priority lanes are
//!   per-tenant: a tenant's high-priority jobs jump its own normal lane,
//!   never another tenant's turn.
//!
//! Shedding is typed: [`QueueError::Shed`] carries `retry_after_cost`, the
//! amount of queued/in-flight cost that must drain before an identical
//! submission can succeed — a backoff hint instead of a blind "full".

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

use crate::job::{Job, Priority};
use crate::tenant::{TenantConfig, TenantId, TenantTable};

/// Why a submission was not enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// The job was load-shed: the queue cost budget or the tenant's
    /// in-flight quota is exhausted. `retry_after_cost` is how much cost
    /// must drain (queue-wide for budget sheds, the tenant's own for quota
    /// sheds) before the same submission can be admitted.
    Shed {
        /// Cost units that must drain before retrying.
        retry_after_cost: u64,
    },
    /// The service is shutting down; no further jobs are accepted.
    Closed,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Shed { retry_after_cost } => write!(
                f,
                "load shed: retry after {retry_after_cost} cost units drain"
            ),
            QueueError::Closed => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for QueueError {}

/// One tenant's FIFO sub-queue (two priority lanes) plus its fair-queuing
/// and quota accounting.
#[derive(Default)]
struct TenantQueue {
    high: VecDeque<Job>,
    normal: VecDeque<Job>,
    /// Deficit-round-robin credit, in cost units. Accrues in proportion
    /// to the tenant's weight; serving the head job spends its cost.
    deficit: u64,
    /// Cost queued here but not yet popped.
    queued_cost: u64,
    /// Cost admitted but not yet reported finished (queued + running);
    /// what the tenant's quota bounds.
    inflight_cost: u64,
}

impl TenantQueue {
    fn head_cost(&self) -> Option<u64> {
        self.high
            .front()
            .or_else(|| self.normal.front())
            .map(|j| j.cost)
    }

    fn pop_head(&mut self) -> Option<Job> {
        self.high.pop_front().or_else(|| self.normal.pop_front())
    }

    fn is_drained(&self) -> bool {
        self.high.is_empty() && self.normal.is_empty()
    }
}

#[derive(Default)]
struct State {
    tenants: HashMap<TenantId, TenantQueue>,
    /// Round-robin ring of tenants with queued jobs, in activation order.
    active: VecDeque<TenantId>,
    /// Summed cost of queued (not yet popped) jobs, all tenants.
    cost_queued: u64,
    /// Summed cost of admitted-but-unfinished jobs, all tenants.
    cost_inflight: u64,
    depth: usize,
    depth_high_water: usize,
    sheds_quota: u64,
    sheds_budget: u64,
    closed: bool,
}

/// A cost-budgeted, tenant-fair job queue: weighted deficit round-robin
/// across per-tenant sub-queues, per-tenant in-flight quotas, and typed
/// load shedding.
pub struct FairJobQueue {
    cost_budget: u64,
    table: TenantTable,
    state: Mutex<State>,
    available: Condvar,
}

impl FairJobQueue {
    /// An empty queue admitting jobs while their summed cost stays within
    /// `cost_budget` and each tenant stays within its quota from
    /// `tenants` (an empty slice means single-tenant semantics: weight 1,
    /// budget-only backpressure).
    pub fn new(cost_budget: u64, tenants: &[TenantConfig]) -> Self {
        assert!(cost_budget > 0, "queue cost budget must be positive");
        FairJobQueue {
            cost_budget,
            table: TenantTable::resolve(tenants, cost_budget),
            state: Mutex::new(State::default()),
            available: Condvar::new(),
        }
    }

    /// Enqueue `job`, shedding instead of blocking when its cost would
    /// push the tenant past its in-flight quota or the queued total past
    /// the budget. A job is always admitted into an empty queue — a
    /// single oversized job must still be servable.
    pub fn try_submit(&self, job: Job) -> Result<(), QueueError> {
        let tenant = job.spec.tenant;
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(QueueError::Closed);
        }
        // Quota first: with derived (weighted-share) quotas summing to the
        // budget, queued ≤ in-flight means the quota always binds before
        // the budget, so sheds are attributable to the over-quota tenant
        // rather than to global pressure. A tenant with nothing in flight
        // bypasses its quota (a job dearer than the whole quota must still
        // be servable), mirroring the empty-queue budget exception below.
        let tenant_inflight = state.tenants.get(&tenant).map_or(0, |tq| tq.inflight_cost);
        if tenant_inflight > 0 {
            let quota = self.table.quota(tenant);
            let want = tenant_inflight.saturating_add(job.cost);
            if want > quota {
                state.sheds_quota += 1;
                return Err(QueueError::Shed {
                    retry_after_cost: want - quota,
                });
            }
        }
        if state.depth > 0 {
            let queued = state.cost_queued.saturating_add(job.cost);
            if queued > self.cost_budget {
                state.sheds_budget += 1;
                return Err(QueueError::Shed {
                    retry_after_cost: queued - self.cost_budget,
                });
            }
        }
        let tq = state.tenants.entry(tenant).or_default();
        let was_drained = tq.is_drained();
        tq.queued_cost = tq.queued_cost.saturating_add(job.cost);
        tq.inflight_cost = tq.inflight_cost.saturating_add(job.cost);
        match job.spec.priority {
            Priority::High => tq.high.push_back(job.clone()),
            Priority::Normal => tq.normal.push_back(job.clone()),
        }
        if was_drained {
            state.active.push_back(tenant);
        }
        state.cost_queued = state.cost_queued.saturating_add(job.cost);
        state.cost_inflight = state.cost_inflight.saturating_add(job.cost);
        state.depth += 1;
        state.depth_high_water = state.depth_high_water.max(state.depth);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Serve the next job by weighted deficit round-robin. Assumes
    /// `state.depth > 0`.
    ///
    /// Deficits advance in lockstep — when no active tenant can afford its
    /// head job, every deficit jumps by the minimum whole number of quanta
    /// (quantum = weight) that lets some tenant afford, so a pop is
    /// O(active tenants) regardless of job costs, and drained cost per
    /// tenant stays proportional to weight.
    fn pop_locked(&self, state: &mut State) -> Job {
        loop {
            for _ in 0..state.active.len() {
                let tenant = *state
                    .active
                    .front()
                    .expect("depth > 0 but no active tenant");
                let tq = state
                    .tenants
                    .get_mut(&tenant)
                    .expect("active tenant has a queue");
                let head = tq.head_cost().expect("active tenant has a head job");
                if tq.deficit >= head {
                    let job = tq.pop_head().expect("head exists");
                    tq.deficit -= job.cost;
                    tq.queued_cost = tq.queued_cost.saturating_sub(job.cost);
                    if tq.is_drained() {
                        // An idle tenant must not bank credit for later
                        // bursts: reset and leave the ring.
                        tq.deficit = 0;
                        state.active.pop_front();
                    }
                    state.cost_queued = state.cost_queued.saturating_sub(job.cost);
                    state.depth -= 1;
                    return job;
                }
                state.active.rotate_left(1);
            }
            // No tenant can afford its head: advance virtual time.
            let rounds = state
                .active
                .iter()
                .map(|tenant| {
                    let tq = &state.tenants[tenant];
                    let gap = tq.head_cost().expect("active tenant has a head job") - tq.deficit;
                    gap.div_ceil(u64::from(self.table.weight(*tenant)))
                })
                .min()
                .expect("depth > 0 means some tenant is active");
            for tenant in state.active.clone() {
                let quantum = u64::from(self.table.weight(tenant));
                let tq = state.tenants.get_mut(&tenant).unwrap();
                tq.deficit = tq
                    .deficit
                    .saturating_add(rounds.max(1).saturating_mul(quantum));
            }
        }
    }

    /// Dequeue the next job by fair-queuing order, blocking while the
    /// queue is empty. Returns `None` once the queue is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.depth > 0 {
                return Some(self.pop_locked(&mut state));
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    /// Dequeue without blocking; `None` when currently empty.
    pub fn try_pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        if state.depth > 0 {
            Some(self.pop_locked(&mut state))
        } else {
            None
        }
    }

    /// Release `cost` of `tenant`'s in-flight quota: call exactly once
    /// per popped job when its results are published (or it fails).
    pub fn job_finished(&self, tenant: TenantId, cost: u64) {
        let mut state = self.state.lock().unwrap();
        state.cost_inflight = state.cost_inflight.saturating_sub(cost);
        if let Some(tq) = state.tenants.get_mut(&tenant) {
            tq.inflight_cost = tq.inflight_cost.saturating_sub(cost);
        }
    }

    /// Stop admissions and wake blocked consumers; queued jobs still drain.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }

    /// Summed cost of queued (not yet popped) jobs.
    pub fn queued_cost(&self) -> u64 {
        self.state.lock().unwrap().cost_queued
    }

    /// Summed cost of admitted-but-unfinished jobs (queued + running).
    pub fn inflight_cost(&self) -> u64 {
        self.state.lock().unwrap().cost_inflight
    }

    /// `tenant`'s admitted-but-unfinished cost.
    pub fn tenant_inflight_cost(&self, tenant: TenantId) -> u64 {
        self.state
            .lock()
            .unwrap()
            .tenants
            .get(&tenant)
            .map_or(0, |tq| tq.inflight_cost)
    }

    /// Sheds so far, split by cause: `(over_quota, over_budget)`.
    pub fn shed_counts(&self) -> (u64, u64) {
        let state = self.state.lock().unwrap();
        (state.sheds_quota, state.sheds_budget)
    }

    /// Jobs queued right now (admitted, not yet popped) — the live
    /// gauge the autoscaler samples, vs the cumulative high water.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().depth
    }

    /// Deepest (in jobs) the queue has ever been.
    pub fn depth_high_water(&self) -> usize {
        self.state.lock().unwrap().depth_high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use std::sync::Arc;

    fn job(id: u64, priority: Priority, cost: u64) -> Job {
        tenant_job(id, TenantId(0), priority, cost)
    }

    fn tenant_job(id: u64, tenant: TenantId, priority: Priority, cost: u64) -> Job {
        let mut spec = JobSpec::new("a", b"NGG".to_vec(), b"ANN".to_vec(), 1);
        spec.priority = priority;
        spec.tenant = tenant;
        Job { id, spec, cost }
    }

    #[test]
    fn admission_sheds_past_the_cost_budget() {
        let q = FairJobQueue::new(25, &[]);
        q.try_submit(job(0, Priority::Normal, 10)).unwrap();
        q.try_submit(job(1, Priority::Normal, 10)).unwrap();
        assert_eq!(
            q.try_submit(job(2, Priority::Normal, 10)),
            Err(QueueError::Shed {
                retry_after_cost: 5
            }),
            "30 > 25: third job is shed even though only 2 are queued"
        );
        // A cheap job still fits under the remaining budget.
        q.try_submit(job(3, Priority::Normal, 5)).unwrap();
        // Draining releases budget.
        assert_eq!(q.pop().unwrap().id, 0);
        q.try_submit(job(2, Priority::Normal, 10)).unwrap();
        assert_eq!(q.depth_high_water(), 3);
        assert_eq!(
            q.shed_counts(),
            (0, 1),
            "single-tenant shed is a budget shed"
        );
    }

    #[test]
    fn an_oversized_job_is_admitted_only_when_the_queue_is_empty() {
        let q = FairJobQueue::new(10, &[]);
        q.try_submit(job(0, Priority::Normal, 1_000)).unwrap();
        assert!(matches!(
            q.try_submit(job(1, Priority::Normal, 1)),
            Err(QueueError::Shed { .. })
        ));
        assert_eq!(q.pop().unwrap().id, 0);
        q.try_submit(job(1, Priority::Normal, 1)).unwrap();
    }

    #[test]
    fn high_priority_jumps_the_tenants_normal_lane() {
        let q = FairJobQueue::new(80, &[]);
        q.try_submit(job(0, Priority::Normal, 10)).unwrap();
        q.try_submit(job(1, Priority::High, 10)).unwrap();
        q.try_submit(job(2, Priority::Normal, 10)).unwrap();
        q.try_submit(job(3, Priority::High, 10)).unwrap();
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, [1, 3, 0, 2], "high lane FIFO, then normal FIFO");
    }

    #[test]
    fn close_rejects_new_work_but_drains_old() {
        let q = FairJobQueue::new(40, &[]);
        q.try_submit(job(0, Priority::Normal, 10)).unwrap();
        q.close();
        assert_eq!(
            q.try_submit(job(1, Priority::Normal, 10)),
            Err(QueueError::Closed)
        );
        assert_eq!(q.pop().unwrap().id, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_blocks_until_a_producer_arrives() {
        let q = Arc::new(FairJobQueue::new(40, &[]));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop().map(|j| j.id));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_submit(job(7, Priority::Normal, 10)).unwrap();
        assert_eq!(t.join().unwrap(), Some(7));
    }

    #[test]
    fn drain_order_follows_weights_not_submission_order() {
        // Tenant 1 (weight 3) and tenant 2 (weight 1) each queue 8
        // uniform-cost jobs; the drain must interleave ~3:1 regardless of
        // tenant 2 having submitted everything first.
        let configs = [
            TenantConfig::weighted(TenantId(1), 3),
            TenantConfig::weighted(TenantId(2), 1),
        ];
        let q = FairJobQueue::new(1_000_000, &configs);
        for i in 0..8 {
            q.try_submit(tenant_job(100 + i, TenantId(2), Priority::Normal, 10))
                .unwrap();
        }
        for i in 0..8 {
            q.try_submit(tenant_job(i, TenantId(1), Priority::Normal, 10))
                .unwrap();
        }
        let mut t1_served = 0u32;
        let mut t2_served = 0u32;
        let mut t2_at_half = 0u32;
        for n in 0..16 {
            let job = q.pop().unwrap();
            match job.spec.tenant {
                TenantId(1) => t1_served += 1,
                _ => t2_served += 1,
            }
            if n == 7 {
                t2_at_half = t2_served;
            }
        }
        assert_eq!((t1_served, t2_served), (8, 8));
        assert_eq!(
            t2_at_half, 2,
            "after 8 pops the 3:1 weights should have served 6 of t1, 2 of t2"
        );
    }

    #[test]
    fn weighted_drain_handles_unequal_costs() {
        // Tenant 1's jobs cost 30, tenant 2's cost 10, equal weights: in
        // cost terms each should drain ~alternating one t1 job per three
        // t2 jobs.
        let configs = [
            TenantConfig::weighted(TenantId(1), 1),
            TenantConfig::weighted(TenantId(2), 1),
        ];
        let q = FairJobQueue::new(1_000_000, &configs);
        for i in 0..4 {
            q.try_submit(tenant_job(i, TenantId(1), Priority::Normal, 30))
                .unwrap();
        }
        for i in 0..12 {
            q.try_submit(tenant_job(100 + i, TenantId(2), Priority::Normal, 10))
                .unwrap();
        }
        let mut served_cost = HashMap::new();
        let mut gap_high_water = 0i64;
        for _ in 0..16 {
            let job = q.pop().unwrap();
            *served_cost.entry(job.spec.tenant).or_insert(0i64) += job.cost as i64;
            let t1 = served_cost.get(&TenantId(1)).copied().unwrap_or(0);
            let t2 = served_cost.get(&TenantId(2)).copied().unwrap_or(0);
            gap_high_water = gap_high_water.max((t1 - t2).abs());
        }
        assert_eq!(served_cost[&TenantId(1)], 120);
        assert_eq!(served_cost[&TenantId(2)], 120);
        assert!(
            gap_high_water <= 30,
            "served-cost gap between equal-weight tenants stayed within one \
             max job cost, got {gap_high_water}"
        );
    }

    #[test]
    fn over_quota_tenants_are_shed_with_a_retry_hint() {
        // Budget 100 split 4:1 → quotas 80 and 20.
        let configs = [
            TenantConfig::weighted(TenantId(1), 4),
            TenantConfig::weighted(TenantId(2), 1),
        ];
        let q = FairJobQueue::new(100, &configs);
        q.try_submit(tenant_job(0, TenantId(1), Priority::Normal, 10))
            .unwrap();
        q.try_submit(tenant_job(1, TenantId(2), Priority::Normal, 20))
            .unwrap();
        // Tenant 2 is now at quota: the next job is a quota shed with the
        // tenant's own overshoot as the retry hint.
        assert_eq!(
            q.try_submit(tenant_job(2, TenantId(2), Priority::Normal, 15)),
            Err(QueueError::Shed {
                retry_after_cost: 15
            })
        );
        // Tenant 1 still has 70 of quota headroom.
        q.try_submit(tenant_job(3, TenantId(1), Priority::Normal, 60))
            .unwrap();
        assert_eq!(q.shed_counts(), (1, 0));
        // Popping does NOT release quota — the jobs are still running.
        // Even with the queue fully drained, tenant 2 stays at quota until
        // its running job is reported finished.
        for _ in 0..3 {
            q.pop().unwrap();
        }
        assert_eq!(q.tenant_inflight_cost(TenantId(2)), 20);
        assert!(matches!(
            q.try_submit(tenant_job(4, TenantId(2), Priority::Normal, 15)),
            Err(QueueError::Shed { .. })
        ));
        // Finishing does release it.
        q.job_finished(TenantId(2), 20);
        assert_eq!(q.tenant_inflight_cost(TenantId(2)), 0);
        q.try_submit(tenant_job(4, TenantId(2), Priority::Normal, 15))
            .unwrap();
    }

    #[test]
    fn concurrent_submitters_race_close_without_stranding_anyone() {
        // Regression: closing the queue must wake every blocked popper
        // exactly into the closed-and-drained protocol, and submitters
        // racing close must each see a clean Ok / Closed — never a hang
        // or a lost job. Run several rounds to give the race room.
        for _ in 0..20 {
            let q = Arc::new(FairJobQueue::new(u64::MAX / 2, &[]));
            let poppers: Vec<_> = (0..3)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut drained = 0u64;
                        while q.pop().is_some() {
                            drained += 1;
                        }
                        drained
                    })
                })
                .collect();
            let submitters: Vec<_> = (0..4)
                .map(|s| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut admitted = 0u64;
                        for i in 0..50 {
                            match q.try_submit(job(s * 1000 + i, Priority::Normal, 1)) {
                                Ok(()) => admitted += 1,
                                Err(QueueError::Closed) => break,
                                Err(QueueError::Shed { .. }) => {}
                            }
                        }
                        admitted
                    })
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_micros(200));
            q.close();
            let admitted: u64 = submitters.into_iter().map(|t| t.join().unwrap()).sum();
            let drained: u64 = poppers.into_iter().map(|t| t.join().unwrap()).sum();
            assert_eq!(
                admitted, drained,
                "every admitted job must be drained after close; none invented"
            );
        }
    }

    #[test]
    fn shed_decisions_are_a_pure_function_of_the_submission_sequence() {
        // The same submission/pop/finish script must produce identical
        // admit/shed outcomes and identical drain order on every run.
        let configs = [
            TenantConfig::weighted(TenantId(1), 4),
            TenantConfig::weighted(TenantId(2), 2),
            TenantConfig::weighted(TenantId(3), 1),
        ];
        let run = || {
            let q = FairJobQueue::new(70, &configs);
            let mut outcomes = Vec::new();
            let mut drained = Vec::new();
            for i in 0..30u64 {
                let tenant = TenantId(1 + (i % 3) as u32);
                let ok = q
                    .try_submit(tenant_job(i, tenant, Priority::Normal, 10))
                    .is_ok();
                outcomes.push(ok);
                if i % 5 == 4 {
                    if let Some(job) = q.try_pop() {
                        q.job_finished(job.spec.tenant, job.cost);
                        drained.push(job.id);
                    }
                }
            }
            while let Some(job) = q.try_pop() {
                q.job_finished(job.spec.tenant, job.cost);
                drained.push(job.id);
            }
            (outcomes, drained, q.shed_counts())
        };
        let first = run();
        for _ in 0..3 {
            assert_eq!(run(), first);
        }
        assert!(first.0.iter().any(|ok| !ok), "script must actually shed");
        assert_eq!(first.2 .1, 0, "derived quotas bind before the budget");
    }
}
