//! The process-wide core-token budget.
//!
//! The ROADMAP's `workers²` problem: under node-level parallelism every
//! data-parallel operator used to receive a full-width pool, so `w`
//! concurrently scheduled nodes could spawn `w × w` compute threads — and
//! two concurrent sessions doubled it again. [`CoreBudget`] fixes the
//! oversubscription at its root: one budget of `total` core tokens is
//! shared by *everything* that wants a thread — the service's concurrently
//! running iterations (one token each), the engine's frontier-dispatch
//! workers, and the chunk threads of data-parallel operators. A thread
//! does work only while a token backs it, so the number of working
//! threads in the process never exceeds the budget, no matter how many
//! tenants, sessions, or operators are in flight.
//!
//! Two acquisition modes keep this deadlock-free:
//!
//! * [`CoreBudget::acquire_one`] — *blocking*, used exactly once per
//!   running iteration (by the service's job runner). Leases are RAII and
//!   always released, so a blocked acquirer always eventually gets its
//!   token.
//! * [`CoreBudget::try_acquire`] — *non-blocking*, used for all extra
//!   parallelism (dispatch width, data-parallel chunks). A holder of the
//!   base token never blocks waiting for more; it degrades gracefully to
//!   inline execution when the budget is tight.
//!
//! Determinism contract: token grants influence only *how many threads*
//! execute a fixed, deterministically chunked job list — never the
//! chunking, combination order, or RNG seeding — so results are
//! byte-identical whether a caller is granted all, some, or none of the
//! tokens it asked for.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// A shared budget of core tokens (semaphore with peak tracking).
///
/// Leases may carry a **label** (the tenant that holds them):
/// [`CoreBudget::try_acquire_one_labeled_owned`] attributes the base
/// token of a running iteration to its tenant, and
/// [`leased_for`](CoreBudget::leased_for) /
/// [`peak_leased_for`](CoreBudget::peak_leased_for) expose the per-label
/// current and high-water counts. This is the per-tenant executing-core
/// accounting the fair-share scheduler and `ServiceStats` report against;
/// unlabeled leases (engine dispatch width, data-parallel chunks, I/O
/// lanes) still count against the shared total only.
pub struct CoreBudget {
    total: usize,
    state: Mutex<Counters>,
    released: Condvar,
    /// Grant-notification hook: invoked after every release, outside the
    /// budget lock. A pooled runner installs one so it can *park* a
    /// session waiting for a token (promoting it when capacity frees)
    /// instead of blocking an OS thread in [`acquire_one`].
    notifier: Mutex<Option<ReleaseNotifier>>,
}

/// The callback [`CoreBudget::set_release_notifier`] installs.
pub type ReleaseNotifier = Arc<dyn Fn() + Send + Sync>;

impl std::fmt::Debug for CoreBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreBudget")
            .field("total", &self.total)
            .field("leased", &self.leased())
            .finish()
    }
}

#[derive(Debug, Default)]
struct LabelCount {
    leased: usize,
    peak: usize,
}

#[derive(Debug)]
struct Counters {
    leased: usize,
    peak: usize,
    by_label: HashMap<String, LabelCount>,
}

impl CoreBudget {
    /// A budget of `total` tokens (minimum 1).
    pub fn new(total: usize) -> CoreBudget {
        CoreBudget {
            total: total.max(1),
            state: Mutex::new(Counters { leased: 0, peak: 0, by_label: HashMap::new() }),
            released: Condvar::new(),
            notifier: Mutex::new(None),
        }
    }

    /// Install (or clear) the release-notification hook. The callback
    /// runs after *every* token release, with no budget lock held, so it
    /// may freely call back into [`try_acquire_one`](Self::try_acquire_one)
    /// and friends. At most one notifier is active; installing replaces
    /// the previous one.
    pub fn set_release_notifier(&self, notifier: Option<ReleaseNotifier>) {
        *self.notifier.lock().expect("budget notifier poisoned") = notifier;
    }

    /// Total tokens in the budget.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Tokens currently leased.
    pub fn leased(&self) -> usize {
        self.state.lock().expect("budget poisoned").leased
    }

    /// High-water mark of simultaneously leased tokens.
    pub fn peak_leased(&self) -> usize {
        self.state.lock().expect("budget poisoned").peak
    }

    /// Tokens currently leased under `label`.
    pub fn leased_for(&self, label: &str) -> usize {
        self.state.lock().expect("budget poisoned").by_label.get(label).map_or(0, |c| c.leased)
    }

    /// High-water mark of tokens simultaneously leased under `label`.
    pub fn peak_leased_for(&self, label: &str) -> usize {
        self.state.lock().expect("budget poisoned").by_label.get(label).map_or(0, |c| c.peak)
    }

    /// Block until one token is free, then lease it.
    ///
    /// This is the *base* lease of a running iteration. To stay
    /// deadlock-free, callers must never hold one base lease while
    /// blocking for another — all further parallelism goes through the
    /// non-blocking [`try_acquire`](Self::try_acquire).
    pub fn acquire_one(&self) -> CoreLease<'_> {
        let mut state = self.state.lock().expect("budget poisoned");
        while state.leased >= self.total {
            state = self.released.wait(state).expect("budget poisoned");
        }
        state.leased += 1;
        state.peak = state.peak.max(state.leased);
        CoreLease { budget: self, tokens: 1 }
    }

    /// Lease exactly one token without blocking; `None` when the budget
    /// is exhausted. The convenience spelling I/O lanes (prefetchers,
    /// background writers) use to account for themselves opportunistically.
    pub fn try_acquire_one(&self) -> Option<CoreLease<'_>> {
        let lease = self.try_acquire(1);
        (lease.tokens() == 1).then_some(lease)
    }

    /// Lease one token without blocking, attributed to `label` in the
    /// per-label accounting (the service labels base tokens with the
    /// owning tenant). Returns an *owned* lease (`Arc`-backed, so it can
    /// be parked with a waiting session and released from whichever
    /// worker thread resumes it).
    /// `None` when the budget is exhausted — the pooled runner's cue to
    /// park the session on the grant queue instead of blocking a thread.
    pub fn try_acquire_one_labeled_owned(self: &Arc<Self>, label: &str) -> Option<OwnedCoreLease> {
        let mut state = self.state.lock().expect("budget poisoned");
        if state.leased >= self.total {
            return None;
        }
        state.leased += 1;
        state.peak = state.peak.max(state.leased);
        let count = state.by_label.entry(label.to_string()).or_default();
        count.leased += 1;
        count.peak = count.peak.max(count.leased);
        drop(state);
        Some(OwnedCoreLease { budget: Arc::clone(self), tokens: 1, label: label.to_string() })
    }

    /// Lease up to `max` tokens without blocking; the lease may hold zero.
    pub fn try_acquire(&self, max: usize) -> CoreLease<'_> {
        let mut state = self.state.lock().expect("budget poisoned");
        let grant = max.min(self.total - state.leased);
        state.leased += grant;
        state.peak = state.peak.max(state.leased);
        CoreLease { budget: self, tokens: grant }
    }

    fn release(&self, tokens: usize, label: Option<&str>) {
        if tokens == 0 {
            return;
        }
        let mut state = self.state.lock().expect("budget poisoned");
        state.leased -= tokens;
        if let Some(label) = label {
            if let Some(count) = state.by_label.get_mut(label) {
                count.leased = count.leased.saturating_sub(tokens);
            }
        }
        drop(state);
        self.released.notify_all();
        // Grant notification runs dead last, with no budget lock held:
        // the callback may re-enter `try_acquire*` without deadlock, and
        // blocking acquirers were already woken through the condvar.
        let notifier = self.notifier.lock().expect("budget notifier poisoned").clone();
        if let Some(notifier) = notifier {
            notifier();
        }
    }
}

/// An RAII lease of `tokens` unlabeled cores; released on drop.
#[derive(Debug)]
pub struct CoreLease<'a> {
    budget: &'a CoreBudget,
    tokens: usize,
}

impl CoreLease<'_> {
    /// Number of tokens this lease holds (possibly zero).
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

impl Drop for CoreLease<'_> {
    fn drop(&mut self) {
        self.budget.release(self.tokens, None);
    }
}

/// An owned (Arc-backed) RAII lease, for holders that outlive any one
/// stack frame — a parked session's granted token travels with the
/// session through the runner's queues and is released wherever the
/// session finishes. Identical accounting to [`CoreLease`], plus the
/// per-label attribution.
#[derive(Debug)]
pub struct OwnedCoreLease {
    budget: Arc<CoreBudget>,
    tokens: usize,
    /// Attribution label (tenant) for per-label accounting.
    label: String,
}

impl OwnedCoreLease {
    /// Number of tokens this lease holds.
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

impl Drop for OwnedCoreLease {
    fn drop(&mut self) {
        self.budget.release(self.tokens, Some(&self.label));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_acquire_grants_up_to_available() {
        let budget = CoreBudget::new(4);
        let a = budget.try_acquire(3);
        assert_eq!(a.tokens(), 3);
        let b = budget.try_acquire(3);
        assert_eq!(b.tokens(), 1, "only one token left");
        let c = budget.try_acquire(5);
        assert_eq!(c.tokens(), 0, "empty lease instead of blocking");
        assert_eq!(budget.leased(), 4);
        drop(a);
        assert_eq!(budget.leased(), 1);
        assert_eq!(budget.try_acquire(10).tokens(), 3);
        assert_eq!(budget.peak_leased(), 4);
    }

    #[test]
    fn labeled_leases_track_per_label_current_and_peak() {
        let budget = Arc::new(CoreBudget::new(4));
        let a1 = budget.try_acquire_one_labeled_owned("alice").unwrap();
        let a2 = budget.try_acquire_one_labeled_owned("alice").unwrap();
        let b = budget.try_acquire_one_labeled_owned("bob").unwrap();
        let _anon = budget.try_acquire(1);
        assert_eq!(budget.leased_for("alice"), 2);
        assert_eq!(budget.leased_for("bob"), 1);
        assert_eq!(budget.leased_for("nobody"), 0);
        assert_eq!(budget.leased(), 4, "labels are attribution, not extra capacity");
        drop(a1);
        drop(b);
        assert_eq!(budget.leased_for("alice"), 1);
        assert_eq!(budget.leased_for("bob"), 0);
        assert_eq!(budget.peak_leased_for("alice"), 2, "per-label high-water mark sticks");
        assert_eq!(budget.peak_leased_for("bob"), 1);
        drop(a2);
        assert_eq!(budget.leased_for("alice"), 0);
        assert!(budget.peak_leased() <= budget.total());
    }

    #[test]
    fn owned_leases_account_and_release_like_borrowed_ones() {
        let budget = Arc::new(CoreBudget::new(2));
        let a = budget.try_acquire_one_labeled_owned("alice").expect("token free");
        assert_eq!(a.tokens(), 1);
        assert_eq!(budget.leased_for("alice"), 1);
        let b = budget.try_acquire_one_labeled_owned("bob").expect("token free");
        assert!(budget.try_acquire_one_labeled_owned("carol").is_none(), "budget exhausted");
        // Owned leases can outlive the acquiring frame and release from
        // another thread.
        let handle = std::thread::spawn(move || drop(a));
        handle.join().unwrap();
        drop(b);
        assert_eq!(budget.leased(), 0);
        assert_eq!(budget.leased_for("alice"), 0);
        assert_eq!(budget.peak_leased_for("alice"), 1);
    }

    #[test]
    fn release_notifier_fires_after_every_release_without_the_lock() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let budget = Arc::new(CoreBudget::new(1));
        let fired = Arc::new(AtomicUsize::new(0));
        {
            let budget = Arc::downgrade(&budget);
            let fired = Arc::clone(&fired);
            budget.upgrade().unwrap().set_release_notifier(Some(Arc::new(move || {
                // Re-entering the budget's lock from the notifier must
                // not deadlock: grant promotion calls try_acquire here.
                if let Some(budget) = budget.upgrade() {
                    assert_eq!(budget.leased(), 0);
                }
                fired.fetch_add(1, Ordering::SeqCst);
            })));
        }
        drop(budget.acquire_one());
        drop(budget.try_acquire(1));
        assert_eq!(fired.load(Ordering::SeqCst), 2, "one notification per release");
        budget.set_release_notifier(None);
        drop(budget.acquire_one());
        assert_eq!(fired.load(Ordering::SeqCst), 2, "cleared notifier stays silent");
    }

    #[test]
    fn zero_total_clamped_to_one() {
        let budget = CoreBudget::new(0);
        assert_eq!(budget.total(), 1);
        assert_eq!(budget.try_acquire(2).tokens(), 1);
    }

    #[test]
    fn acquire_one_blocks_until_released() {
        let budget = Arc::new(CoreBudget::new(1));
        let lease = budget.acquire_one();
        let waiter = {
            let budget = Arc::clone(&budget);
            std::thread::spawn(move || {
                let _lease = budget.acquire_one();
                std::time::Instant::now()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        let released_at = std::time::Instant::now();
        drop(lease);
        let acquired_at = waiter.join().expect("waiter panicked");
        assert!(acquired_at >= released_at, "second acquire must wait for the release");
        assert_eq!(budget.peak_leased(), 1, "never more than one token out");
    }

    #[test]
    fn leases_never_exceed_total_under_contention() {
        let budget = Arc::new(CoreBudget::new(3));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let budget = &budget;
                scope.spawn(move || {
                    for _ in 0..200 {
                        let base = budget.acquire_one();
                        let extra = budget.try_acquire(2);
                        assert!(budget.leased() <= budget.total());
                        drop(extra);
                        drop(base);
                    }
                });
            }
        });
        assert_eq!(budget.leased(), 0);
        assert!(budget.peak_leased() <= 3);
    }
}
