//! Admission control and scheduling policy.
//!
//! The service accepts work through a **bounded submission queue** (back
//! pressure instead of unbounded memory growth) and drains it under one
//! of two policies ([`SchedulingPolicy`]):
//!
//! * **`Priority`** (FIFO-with-priority): among queued jobs that are
//!   *eligible* right now, the highest tenant priority wins, ties broken
//!   by submission order.
//! * **`FairShare`** (weighted DRF, [`crate::fairshare`]): among tenants
//!   with an eligible job, the one with the lowest weighted dominant
//!   share over cores + catalog storage wins (exact share ties by lowest
//!   weighted lifetime dispatch count, then tenant id); within that
//!   tenant, a fresh session's job beats a parked pipelining successor,
//!   then submission order. Tenant priorities are ignored.
//!
//! A job is eligible when
//!
//! 1. the global concurrency cap has head-room
//!    ([`AdmissionCaps::max_concurrent_iterations`], counted over all
//!    dispatched jobs — it bounds runner threads),
//! 2. its tenant is under its own concurrency cap
//!    ([`TenantSpec::max_concurrent`](crate::TenantSpec), counted over
//!    *sessions with dispatched work* — a session executes at most one
//!    iteration at a time, so this bounds the tenant's executing
//!    iterations race-free, while a pipelining successor of an
//!    already-counted session rides free), and
//! 3. its session is pipelinable: a session iteration is "in flight" for
//!    ordering purposes only during its **execute phase**. While an
//!    incumbent executes, exactly one successor job of the same session
//!    may dispatch — it parks in the runner until the incumbent
//!    finishes, so it is ready to plan the moment the session frees up.
//!    Iterations of one session run and retire strictly in submission
//!    order (the session is stateful).
//!
//! Scheduling affects *when* a tenant's iteration runs, never *what* it
//! produces: the determinism contract is enforced one layer down
//! (provenance-keyed signatures that fold each session's seed into the
//! chain), so the policy here is
//! free to reorder across tenants for latency or fairness.

use crate::fairshare::{DrfAllocator, FairnessAudit, SchedulingPolicy, SHARE_SCALE};
use crate::ticket::TicketState;
use helix_core::{Session, Workflow};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Global admission limits.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionCaps {
    /// Maximum queued (not yet dispatched) jobs; submitters block beyond.
    pub queue_capacity: usize,
    /// Maximum iterations running at once across all tenants.
    pub max_concurrent_iterations: usize,
}

/// One queued iteration.
pub(crate) struct Job {
    pub seq: u64,
    pub priority: u8,
    pub tenant: String,
    /// Tenant concurrency cap, copied at submission time.
    pub tenant_max_concurrent: usize,
    pub session_id: u64,
    pub session: Arc<Mutex<Session>>,
    pub wf: Workflow,
    pub ticket: Arc<TicketState>,
    pub enqueued: Instant,
}

/// What one session's dispatched jobs are up to.
#[derive(Default)]
struct SessionActivity {
    /// Dispatched, unfinished jobs (at most 2: one executing + one
    /// planning successor).
    members: usize,
    /// Of those, jobs still in their plan phase.
    planning: usize,
}

/// Internal audit counters (snapshotted into [`FairnessAudit`]).
#[derive(Default)]
struct AuditState {
    picks: u64,
    non_drf_picks: u64,
    max_share_gap_scaled: u128,
    per_tenant: HashMap<String, TenantAuditState>,
}

#[derive(Default)]
struct TenantAuditState {
    dispatches: u64,
    /// Consecutive picks that went elsewhere while this tenant had an
    /// eligible job (reset to zero on every dispatch of this tenant).
    current_wait: u64,
    max_wait: u64,
}

/// Queue + running-set bookkeeping (lives behind the service mutex).
pub(crate) struct AdmissionQueue {
    caps: AdmissionCaps,
    queue: VecDeque<Job>,
    /// All dispatched, unfinished jobs (plan + execute phases) — what the
    /// global cap bounds, since each is a runner thread.
    dispatched_total: usize,
    /// Execute-phase jobs (observability: `QueueSnapshot::running`).
    executing_total: usize,
    /// Sessions with at least one dispatched job, per tenant — what the
    /// tenant concurrency cap bounds. Each session executes at most one
    /// iteration at a time (the session lock), so capping *active
    /// sessions* caps executing iterations without the pick-to-
    /// mark-executing race a phase-count check would have, while a
    /// pipelining successor (same session, already counted) stays free.
    active_sessions_per_tenant: HashMap<String, usize>,
    sessions: HashMap<u64, SessionActivity>,
    next_seq: u64,
    /// Queued + dispatched: zero means fully drained.
    jobs_in_system: usize,
    pub shutdown: bool,
    /// Which policy `pick` applies across tenants.
    policy: SchedulingPolicy,
    /// The DRF ledger: maintained under *both* policies so the fairness
    /// audit and per-tenant dominant shares are always observable.
    drf: DrfAllocator,
    audit: AuditState,
}

impl AdmissionQueue {
    /// A priority-policy queue with unit resource capacities (unit tests;
    /// the service uses [`with_policy`](Self::with_policy)).
    #[cfg(test)]
    pub fn new(caps: AdmissionCaps) -> AdmissionQueue {
        Self::with_policy(caps, SchedulingPolicy::Priority, 1, 1)
    }

    /// A queue applying `policy` over `cores_capacity` core tokens and
    /// `storage_capacity` catalog bytes (the DRF share denominators).
    pub fn with_policy(
        caps: AdmissionCaps,
        policy: SchedulingPolicy,
        cores_capacity: u64,
        storage_capacity: u64,
    ) -> AdmissionQueue {
        let weights = match &policy {
            SchedulingPolicy::FairShare { weights } => weights.clone(),
            SchedulingPolicy::Priority => Default::default(),
        };
        AdmissionQueue {
            caps,
            queue: VecDeque::new(),
            dispatched_total: 0,
            executing_total: 0,
            active_sessions_per_tenant: HashMap::new(),
            sessions: HashMap::new(),
            next_seq: 0,
            jobs_in_system: 0,
            shutdown: false,
            policy,
            drf: DrfAllocator::new(cores_capacity, storage_capacity).with_weights(weights),
            audit: AuditState::default(),
        }
    }

    /// Whether a new submission fits the bounded queue right now.
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.caps.queue_capacity
    }

    /// Enqueue a job, assigning its FIFO sequence number.
    pub fn enqueue(&mut self, mut job: Job) {
        job.seq = self.next_seq;
        self.next_seq += 1;
        self.jobs_in_system += 1;
        self.queue.push_back(job);
    }

    /// Remove and return the next dispatchable job per the policy, marking
    /// it dispatched (in its plan phase); `None` when nothing is eligible.
    pub fn pick(&mut self) -> Option<Job> {
        if self.dispatched_total >= self.caps.max_concurrent_iterations {
            return None;
        }
        // Shared eligibility pass (both policies), in seq order:
        // (queue index, is-pipelining-successor).
        let mut eligible: Vec<(usize, bool)> = Vec::new();
        for (ix, job) in self.queue.iter().enumerate() {
            // Session rule: idle sessions always qualify; a session whose
            // sole dispatched job has entered its execute phase may admit
            // exactly one planning successor.
            let session_active = self.sessions.get(&job.session_id);
            let eligible_session = match session_active {
                None => true,
                Some(activity) => activity.members == 1 && activity.planning == 0,
            };
            if !eligible_session {
                continue;
            }
            let successor = session_active.is_some();
            // Tenant cap: a successor joins an already-counted session;
            // a fresh session needs head-room.
            if !successor {
                let active = self.active_sessions_per_tenant.get(&job.tenant).copied().unwrap_or(0);
                if active >= job.tenant_max_concurrent {
                    continue;
                }
            }
            eligible.push((ix, successor));
        }
        // Each arm yields the chosen queue index plus the DRF reference
        // choice at decision-time shares (what the audit compares
        // against; under FairShare they coincide by construction).
        let (ix, drf_choice) = match &self.policy {
            SchedulingPolicy::Priority => {
                // The queue is in seq order, so the first hit at a given
                // (priority, fresh-vs-successor) rank is the FIFO winner.
                // Strictly higher priority displaces; at equal priority a
                // *fresh* session's job displaces a pipelining successor —
                // the successor would only park on its session's lock, and
                // under a tight global cap that slot should go to work
                // that can execute now (the successor is picked on the
                // very next round once capacity allows).
                let mut best: Option<(usize, bool)> = None;
                for &(ix, successor) in &eligible {
                    match best {
                        None => best = Some((ix, successor)),
                        Some((b, best_successor)) => {
                            let job = &self.queue[ix];
                            let better_priority = job.priority > self.queue[b].priority;
                            let fresh_beats_successor = job.priority == self.queue[b].priority
                                && best_successor
                                && !successor;
                            if better_priority || fresh_beats_successor {
                                best = Some((ix, successor));
                            }
                        }
                    }
                }
                let ix = best.map(|(ix, _)| ix)?;
                let choice = self
                    .drf
                    .pick(eligible.iter().map(|&(jx, _)| self.queue[jx].tenant.as_str()))?;
                (ix, choice)
            }
            SchedulingPolicy::FairShare { .. } => {
                // One candidate per tenant: the first eligible *fresh*
                // job in seq order, falling back to the first eligible
                // successor (same fresh-beats-parked-successor rationale
                // as above, applied within the tenant). Across tenants,
                // DRF: lowest weighted dominant share, ties by tenant id.
                let mut by_tenant: HashMap<&str, (usize, bool)> = HashMap::new();
                for &(ix, successor) in &eligible {
                    match by_tenant.get_mut(self.queue[ix].tenant.as_str()) {
                        None => {
                            by_tenant.insert(self.queue[ix].tenant.as_str(), (ix, successor));
                        }
                        Some(slot) => {
                            if slot.1 && !successor {
                                *slot = (ix, successor);
                            }
                        }
                    }
                }
                let tenant = self.drf.pick(by_tenant.keys().copied())?;
                (by_tenant[tenant].0, tenant)
            }
        };
        // Audit the decision against the DRF ledger (both policies), at
        // decision-time shares. Inline (field-disjoint borrows) so the
        // FairShare winner is reused instead of re-solving the pick.
        let picked_tenant = self.queue[ix].tenant.as_str();
        self.audit.picks += 1;
        if drf_choice != picked_tenant {
            self.audit.non_drf_picks += 1;
        }
        let gap = self
            .drf
            .dominant_share_scaled(picked_tenant)
            .saturating_sub(self.drf.dominant_share_scaled(drf_choice));
        self.audit.max_share_gap_scaled = self.audit.max_share_gap_scaled.max(gap);
        let mut eligible_tenants: Vec<&str> =
            eligible.iter().map(|&(jx, _)| self.queue[jx].tenant.as_str()).collect();
        eligible_tenants.sort_unstable();
        eligible_tenants.dedup();
        // Wait streaks measure *consecutive* picks while continuously
        // eligible: a tenant that left the eligible set since the last
        // pick (cap reached, sessions busy) ended its streak — it was
        // not waiting — so its counter restarts rather than resuming.
        for (tenant, state) in self.audit.per_tenant.iter_mut() {
            if !eligible_tenants.contains(&tenant.as_str()) {
                state.current_wait = 0;
            }
        }
        for tenant in &eligible_tenants {
            let entry = self.audit.per_tenant.entry((*tenant).to_string()).or_default();
            if *tenant == picked_tenant {
                entry.dispatches += 1;
                entry.current_wait = 0;
            } else {
                entry.current_wait += 1;
                entry.max_wait = entry.max_wait.max(entry.current_wait);
            }
        }
        self.drf.acquire(picked_tenant);
        let share_at_pick = self.drf.dominant_share_scaled(picked_tenant);

        let job = self.queue.remove(ix).expect("index valid");
        // Trace the enqueue→pick wait retrospectively, carrying the
        // tenant's (weighted, scaled) dominant share at pick time.
        let waited = helix_common::timing::duration_to_nanos(job.enqueued.elapsed());
        let _ = helix_obs::span_at(
            helix_obs::layer::SERVE,
            "admission.queued",
            helix_obs::now_nanos().saturating_sub(waited),
            waited,
        )
        .track(format!("tenant-{}", job.tenant))
        .tenant(job.tenant.as_str())
        .session(job.session_id)
        .amount(u64::try_from(share_at_pick).unwrap_or(u64::MAX));
        self.dispatched_total += 1;
        let activity = self.sessions.entry(job.session_id).or_default();
        if activity.members == 0 {
            *self.active_sessions_per_tenant.entry(job.tenant.clone()).or_insert(0) += 1;
        }
        activity.members += 1;
        activity.planning += 1;
        Some(job)
    }

    /// The distinct tenants with queued work, name-ordered. The
    /// scheduler pairs this with one batched catalog lookup and
    /// [`set_tenant_bytes`](Self::set_tenant_bytes) to refresh the DRF
    /// ledger's storage side before each pick round.
    pub fn queued_tenants(&self) -> Vec<String> {
        let mut tenants: Vec<&str> = self.queue.iter().map(|job| job.tenant.as_str()).collect();
        tenants.sort_unstable();
        tenants.dedup();
        tenants.into_iter().map(str::to_string).collect()
    }

    /// Install refreshed storage-side usage into the DRF ledger
    /// (parallel arrays, as returned by a batched catalog lookup).
    pub fn set_tenant_bytes(&mut self, tenants: &[String], bytes: &[u64]) {
        for (tenant, bytes) in tenants.iter().zip(bytes) {
            self.drf.set_bytes(tenant, *bytes);
        }
    }

    /// `tenant`'s weighted dominant share computed against `bytes` of
    /// storage usage — read-only (the stats path must not write into the
    /// scheduler's ledger).
    pub fn dominant_share(&self, tenant: &str, bytes: u64) -> f64 {
        self.drf.dominant_share_given_bytes(tenant, bytes)
    }

    /// The DRF weight in force for `tenant`.
    pub fn weight_of(&self, tenant: &str) -> u32 {
        self.drf.weight_of(tenant)
    }

    /// Snapshot the fairness audit.
    pub fn fairness(&self) -> FairnessAudit {
        FairnessAudit {
            picks: self.audit.picks,
            non_drf_picks: self.audit.non_drf_picks,
            max_share_gap: self.audit.max_share_gap_scaled as f64 / SHARE_SCALE as f64,
            per_tenant: self
                .audit
                .per_tenant
                .iter()
                .map(|(tenant, state)| {
                    (
                        tenant.clone(),
                        crate::fairshare::TenantAudit {
                            dispatches: state.dispatches,
                            max_eligible_wait: state.max_wait,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Remove a still-queued job by its ticket (cancellation). A job
    /// that already dispatched is not in the queue and returns `None` —
    /// it runs to completion; there is no dispatch bookkeeping to
    /// reverse for a job that never dispatched.
    pub fn remove_queued(&mut self, ticket: &Arc<TicketState>) -> Option<Job> {
        let ix = self.queue.iter().position(|job| Arc::ptr_eq(&job.ticket, ticket))?;
        let job = self.queue.remove(ix).expect("index valid");
        self.jobs_in_system -= 1;
        Some(job)
    }

    /// A dispatched job finished planning and entered its execute phase:
    /// from here its session may admit a planning successor.
    pub fn mark_executing(&mut self, session_id: u64) {
        if let Some(activity) = self.sessions.get_mut(&session_id) {
            activity.planning = activity.planning.saturating_sub(1);
        }
        self.executing_total += 1;
    }

    /// Retire a dispatched job. `entered_execute` tells the queue which
    /// phase the job died in (a failed `prepare` never marked executing).
    pub fn finish(&mut self, tenant: &str, session_id: u64, entered_execute: bool) {
        self.dispatched_total -= 1;
        self.jobs_in_system -= 1;
        self.drf.release(tenant);
        if entered_execute {
            self.executing_total = self.executing_total.saturating_sub(1);
        }
        if let Some(activity) = self.sessions.get_mut(&session_id) {
            activity.members -= 1;
            if !entered_execute {
                activity.planning = activity.planning.saturating_sub(1);
            }
            if activity.members == 0 {
                self.sessions.remove(&session_id);
                if let Some(active) = self.active_sessions_per_tenant.get_mut(tenant) {
                    *active = active.saturating_sub(1);
                }
            }
        }
    }

    /// Whether nothing is queued or dispatched.
    pub fn is_drained(&self) -> bool {
        self.jobs_in_system == 0
    }

    /// Point-in-time introspection.
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            queued: self.queue.len(),
            running: self.executing_total,
            planning: self.dispatched_total - self.executing_total,
            queue_capacity: self.caps.queue_capacity,
            max_concurrent_iterations: self.caps.max_concurrent_iterations,
        }
    }
}

/// Observable admission state (for dashboards and tests).
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct QueueSnapshot {
    /// Jobs waiting for dispatch.
    pub queued: usize,
    /// Iterations currently in their execute phase.
    pub running: usize,
    /// Dispatched jobs not yet in their execute phase (including
    /// successors parked behind a predecessor's execution).
    pub planning: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
    /// The global concurrency cap (over all dispatched jobs).
    pub max_concurrent_iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_core::{SessionConfig, Workflow};

    fn job(tenant: &str, priority: u8, session_id: u64, cap: usize) -> Job {
        let session =
            Arc::new(Mutex::new(Session::new(SessionConfig::in_memory()).expect("session opens")));
        Job {
            seq: 0,
            priority,
            tenant: tenant.to_string(),
            tenant_max_concurrent: cap,
            session_id,
            session,
            wf: Workflow::new("w"),
            ticket: TicketState::new(),
            enqueued: Instant::now(),
        }
    }

    fn caps(queue: usize, running: usize) -> AdmissionCaps {
        AdmissionCaps { queue_capacity: queue, max_concurrent_iterations: running }
    }

    #[test]
    fn fifo_within_equal_priority() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 1, 4));
        q.enqueue(job("b", 0, 2, 4));
        assert_eq!(q.pick().unwrap().tenant, "a");
        assert_eq!(q.pick().unwrap().tenant, "b");
        assert!(q.pick().is_none());
    }

    #[test]
    fn higher_priority_jumps_the_queue() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("steerage", 0, 1, 4));
        q.enqueue(job("first-class", 3, 2, 4));
        assert_eq!(q.pick().unwrap().tenant, "first-class");
        assert_eq!(q.pick().unwrap().tenant, "steerage");
    }

    #[test]
    fn per_tenant_cap_counts_active_sessions() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 1, 1));
        q.enqueue(job("a", 0, 2, 1)); // same tenant, different session
        q.enqueue(job("b", 0, 3, 1));
        let first = q.pick().unwrap();
        assert_eq!((first.tenant.as_str(), first.session_id), ("a", 1));
        // Tenant a has one active session — at its cap of 1 *immediately*
        // (no mark_executing window to race): b goes next despite later
        // seq.
        assert_eq!(q.pick().unwrap().tenant, "b");
        assert!(q.pick().is_none(), "a's second session must wait for the cap");
        q.finish("a", 1, false);
        assert_eq!(q.pick().unwrap().session_id, 2);
    }

    #[test]
    fn fresh_session_work_beats_a_parked_successor_at_equal_priority() {
        // Under a tight global cap, a dispatch slot should go to work
        // that can execute now, not to a successor that would park on
        // its session's lock — even when the successor was queued first.
        let mut q = AdmissionQueue::new(caps(10, 2));
        q.enqueue(job("a", 0, 1, 4));
        q.enqueue(job("a", 0, 1, 4)); // successor of session 1 (earlier seq)
        q.enqueue(job("b", 0, 2, 4)); // fresh session (later seq)
        assert_eq!(q.pick().unwrap().session_id, 1);
        q.mark_executing(1);
        assert_eq!(q.pick().unwrap().session_id, 2, "fresh session displaces the successor");
        assert!(q.pick().is_none(), "global cap of 2 dispatched reached");
        q.finish("b", 2, false);
        assert_eq!(q.pick().unwrap().session_id, 1, "successor picked once capacity allows");
    }

    #[test]
    fn remove_queued_cancels_only_undispatched_jobs() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 1, 4));
        q.enqueue(job("b", 0, 2, 4));
        let picked = q.pick().unwrap();
        assert_eq!(picked.tenant, "a");
        assert!(q.remove_queued(&picked.ticket).is_none(), "dispatched jobs are not cancellable");
        let queued_ticket = { Arc::clone(&q.queue.front().expect("b still queued").ticket) };
        let removed = q.remove_queued(&queued_ticket).expect("queued job cancels");
        assert_eq!(removed.tenant, "b");
        assert!(q.pick().is_none(), "nothing left to pick");
        q.finish("a", 1, false);
        assert!(q.is_drained(), "cancelled job left the system");
    }

    #[test]
    fn tenant_cap_still_admits_a_pipelining_successor() {
        // Cap 1, one session: the successor shares the session's slot.
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 5, 1));
        q.enqueue(job("a", 0, 5, 1));
        assert_eq!(q.pick().unwrap().session_id, 5);
        q.mark_executing(5);
        assert_eq!(q.pick().unwrap().session_id, 5, "successor rides the session's cap slot");
    }

    #[test]
    fn sessions_admit_one_planning_successor_once_executing() {
        let mut q = AdmissionQueue::new(caps(10, 10));
        q.enqueue(job("a", 0, 7, 4));
        q.enqueue(job("a", 0, 7, 4));
        q.enqueue(job("a", 0, 7, 4));
        assert_eq!(q.pick().unwrap().session_id, 7);
        assert!(q.pick().is_none(), "no successor while the incumbent is still planning");
        q.mark_executing(7);
        assert_eq!(
            q.pick().unwrap().session_id,
            7,
            "execute phase admits exactly one planning successor"
        );
        assert!(q.pick().is_none(), "but never a third dispatched job");
        // Incumbent retires; the successor is still planning, so the
        // third job keeps waiting until it, too, enters execution.
        q.finish("a", 7, true);
        assert!(q.pick().is_none());
        q.mark_executing(7);
        assert_eq!(q.pick().unwrap().session_id, 7);
        let snap = q.snapshot();
        assert_eq!((snap.running, snap.planning), (1, 1));
    }

    #[test]
    fn global_cap_limits_dispatched_total() {
        let mut q = AdmissionQueue::new(caps(10, 2));
        for s in 0..4 {
            q.enqueue(job("t", 0, s, 8));
        }
        assert!(q.pick().is_some());
        assert!(q.pick().is_some());
        assert!(q.pick().is_none(), "global cap of 2 dispatched jobs reached");
        q.finish("t", 0, false);
        assert!(q.pick().is_some());
    }

    fn fair_queue(cores: u64) -> AdmissionQueue {
        AdmissionQueue::with_policy(caps(64, 64), SchedulingPolicy::fair(), cores, 1 << 20)
    }

    #[test]
    fn fair_share_rotates_across_backlogged_tenants_ignoring_priority() {
        let mut q = fair_queue(4);
        // A high-priority heavy tenant floods the queue first; a
        // zero-priority light tenant arrives last.
        for s in 0..4 {
            q.enqueue(job("heavy", 3, s, 8));
        }
        q.enqueue(job("light", 0, 10, 8));
        // Both start at share 0: exact tie breaks by tenant id (h < l).
        assert_eq!(q.pick().unwrap().tenant, "heavy");
        // Heavy now holds one executing-core lease; light's zero share
        // wins despite later submission and lower priority.
        assert_eq!(q.pick().unwrap().tenant, "light");
        // One lease each: tie again, id order.
        assert_eq!(q.pick().unwrap().tenant, "heavy");
        let audit = q.fairness();
        assert_eq!(audit.picks, 3);
        assert_eq!(audit.non_drf_picks, 0, "fair-share picks are the DRF choice by construction");
        assert_eq!(audit.max_share_gap, 0.0);
    }

    #[test]
    fn fair_share_weights_entitle_proportionally_more() {
        let weights: std::collections::BTreeMap<String, u32> =
            [("heavy".to_string(), 2)].into_iter().collect();
        let mut q = AdmissionQueue::with_policy(
            caps(64, 64),
            SchedulingPolicy::FairShare { weights },
            2,
            1 << 20,
        );
        for s in 0..4 {
            q.enqueue(job("heavy", 0, s, 8));
        }
        q.enqueue(job("light", 0, 10, 8));
        q.enqueue(job("light", 0, 11, 8));
        let picked: Vec<String> = (0..5).map(|_| q.pick().unwrap().tenant).collect();
        // Weight 2 halves heavy's dominant share: it takes two leases for
        // every one of light's (ties by id).
        assert_eq!(picked, ["heavy", "light", "heavy", "heavy", "light"]);
    }

    #[test]
    fn priority_policy_records_drf_deviations_in_the_audit() {
        // Under strict priority the audit *measures* unfairness: the
        // starved light tenant's eligible-wait streak grows with the
        // heavy backlog, and picks deviate from the DRF choice.
        let mut q = AdmissionQueue::with_policy(caps(64, 64), SchedulingPolicy::Priority, 2, 1024);
        for s in 0..4 {
            q.enqueue(job("heavy", 3, s, 8));
        }
        q.enqueue(job("light", 0, 10, 8));
        for _ in 0..4 {
            assert_eq!(q.pick().unwrap().tenant, "heavy", "priority starves the light tenant");
        }
        assert_eq!(q.pick().unwrap().tenant, "light");
        let audit = q.fairness();
        assert!(audit.non_drf_picks >= 2, "picks 2..4 deviate from DRF");
        assert!(audit.max_share_gap > 0.0);
        assert_eq!(audit.per_tenant["light"].max_eligible_wait, 4);
        assert_eq!(audit.per_tenant["light"].dispatches, 1);
        assert_eq!(audit.per_tenant["heavy"].dispatches, 4);
    }

    #[test]
    fn fair_share_prefers_fresh_work_over_a_parked_successor_within_a_tenant() {
        let mut q = fair_queue(4);
        q.enqueue(job("a", 0, 1, 8));
        q.enqueue(job("a", 0, 1, 8)); // successor of session 1 (earlier seq)
        q.enqueue(job("a", 0, 2, 8)); // fresh session (later seq)
        assert_eq!(q.pick().unwrap().session_id, 1);
        q.mark_executing(1);
        assert_eq!(q.pick().unwrap().session_id, 2, "fresh session displaces the successor");
        assert_eq!(q.pick().unwrap().session_id, 1, "successor picked next");
    }

    #[test]
    fn bounded_queue_reports_space() {
        let mut q = AdmissionQueue::new(caps(2, 1));
        assert!(q.has_space());
        q.enqueue(job("a", 0, 1, 1));
        q.enqueue(job("a", 0, 2, 1));
        assert!(!q.has_space());
        let snap = q.snapshot();
        assert_eq!((snap.queued, snap.running, snap.queue_capacity), (2, 0, 2));
        assert!(!q.is_drained());
    }
}
