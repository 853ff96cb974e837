//! The session state machine: one iteration as an explicit, resumable
//! driver.
//!
//! [`Session::prepare_iteration`] / [`Session::execute_prepared`] split
//! an iteration at its natural yield point (plan → execute). This module
//! formalizes that split into a [`SessionDriver`] that advances through
//! [`SessionDriver::step`], reporting what it needs next as a [`Step`]:
//!
//! ```text
//!            ┌────────────┐  core granted   ┌─────────┐
//!  step() ──▶│ NeedsCore* │────────────────▶│ NeedsIo*│──┐
//!            └────────────┘  (grant_core)   └─────────┘  │ step()
//!                 ▲  * only when required        * only  │
//!                 │    (pooled runners)       with write │
//!                 │                              backlog ▼
//!            ┌────────┐   execute(prepared)   ┌──────────────────┐
//!            │  Done  │◀──────────────────────│ Ready(Prepared…) │
//!            │ Failed │      (also from       └──────────────────┘
//!            └────────┘   step() on a plan error)
//! ```
//!
//! The point of the formalization is *who waits where*. A solo session
//! drives itself to completion inline ([`SessionDriver::drive`]) — the
//! states collapse into straight-line code. A pooled runner
//! (`helix-serve`) instead **parks** a driver that reports `NeedsCore`
//! and resumes it when the shared
//! [`CoreBudget`](helix_exec::CoreBudget) grants a token: a session
//! between steps costs memory, not an OS thread. Either way the
//! underlying lifecycle calls are the same two methods, so the
//! byte-identity contract is untouched — the driver only decides *when*
//! they run, never what they produce.

use crate::dsl::Workflow;
use crate::session::{IterationReport, PreparedIteration, Session};
use helix_common::{HelixError, Result};

/// What a [`SessionDriver`] needs next (or produced).
///
/// `NeedsCore` and `NeedsIo` are yield points: the driver made no
/// progress and expects the caller to satisfy the need (grant a core, or
/// let background writes drain — the latter is advisory) before stepping
/// again. `Ready` hands out the prepared iteration for the caller's
/// boundary work (a service releases the session's ordering hold here)
/// before [`SessionDriver::execute`]. `Done`/`Failed` are terminal.
pub enum Step {
    /// The driver requires a base core token before planning. Only
    /// emitted by drivers built with [`SessionDriver::require_core`];
    /// acknowledge with [`SessionDriver::grant_core`].
    NeedsCore,
    /// The session's background write lane still has backlog. Advisory:
    /// planning can proceed on the next `step`, but a runner may prefer
    /// to resume a different session first.
    NeedsIo,
    /// Planning finished (lifecycle steps 1–4½). Perform any boundary
    /// work, then pass the value to [`SessionDriver::execute`].
    Ready(PreparedIteration),
    /// The iteration completed (terminal; from `execute` only).
    Done(Box<IterationReport>),
    /// The iteration failed (terminal; from `step` on a planning error,
    /// or from `execute`).
    Failed(HelixError),
}

enum DriverState {
    AwaitCore,
    AwaitIo,
    Plan,
    AwaitExecute,
    Finished,
}

/// One iteration of one [`Session`], as an explicit state machine.
///
/// Protocol: call [`step`](Self::step) until it yields
/// [`Step::Ready`] (satisfying `NeedsCore` via
/// [`grant_core`](Self::grant_core) as requested), then call
/// [`execute`](Self::execute) exactly once. [`drive`](Self::drive) does
/// all of that inline for solo use.
pub struct SessionDriver<'s, 'w> {
    session: &'s mut Session,
    wf: &'w Workflow,
    require_core: bool,
    core_granted: bool,
    state: DriverState,
}

impl<'s, 'w> SessionDriver<'s, 'w> {
    /// A driver for one iteration of `wf` on `session`.
    pub fn new(session: &'s mut Session, wf: &'w Workflow) -> SessionDriver<'s, 'w> {
        SessionDriver {
            session,
            wf,
            require_core: false,
            core_granted: false,
            state: DriverState::AwaitCore,
        }
    }

    /// Builder: make [`step`](Self::step) yield [`Step::NeedsCore`]
    /// until [`grant_core`](Self::grant_core) is called. Pooled runners
    /// set this so the *caller* owns the blocking/parking decision; solo
    /// drivers leave it off (the engine's internal parallelism already
    /// self-limits through non-blocking budget leases).
    #[must_use]
    pub fn require_core(mut self) -> SessionDriver<'s, 'w> {
        self.require_core = true;
        self
    }

    /// Acknowledge [`Step::NeedsCore`]: the caller now holds (or does
    /// not need) the iteration's base core token.
    pub fn grant_core(&mut self) {
        self.core_granted = true;
    }

    /// Advance the plan side of the state machine. See [`Step`] for the
    /// yield points. Calling `step` after `Ready` (instead of
    /// [`execute`](Self::execute)) or after a terminal step is a
    /// protocol violation and panics.
    pub fn step(&mut self) -> Step {
        loop {
            match self.state {
                DriverState::AwaitCore => {
                    if self.require_core && !self.core_granted {
                        return Step::NeedsCore;
                    }
                    self.state = DriverState::AwaitIo;
                }
                DriverState::AwaitIo => {
                    self.state = DriverState::Plan;
                    if self.session.writer_backlog() > 0 {
                        return Step::NeedsIo;
                    }
                }
                DriverState::Plan => {
                    return match self.session.prepare_iteration(self.wf, None) {
                        Ok(prepared) => {
                            self.state = DriverState::AwaitExecute;
                            Step::Ready(prepared)
                        }
                        Err(err) => {
                            self.state = DriverState::Finished;
                            Step::Failed(err)
                        }
                    };
                }
                DriverState::AwaitExecute => {
                    panic!("SessionDriver::step called after Ready; call execute(prepared)")
                }
                DriverState::Finished => {
                    panic!("SessionDriver::step called after a terminal step")
                }
            }
        }
    }

    /// Run the execute phase of a [`Step::Ready`] plan (lifecycle steps
    /// 5–6). Terminal: returns [`Step::Done`] or [`Step::Failed`].
    pub fn execute(&mut self, prepared: PreparedIteration) -> Step {
        match self.state {
            DriverState::AwaitExecute => {}
            _ => panic!("SessionDriver::execute requires a Ready step first"),
        }
        self.state = DriverState::Finished;
        match self.session.execute_prepared(self.wf, prepared) {
            Ok(report) => Step::Done(Box::new(report)),
            Err(err) => Step::Failed(err),
        }
    }

    /// Drive the iteration to completion inline (the solo entry point:
    /// [`Session::run`] is exactly this).
    pub fn drive(mut self) -> Result<IterationReport> {
        loop {
            match self.step() {
                Step::NeedsCore => self.grant_core(),
                Step::NeedsIo => {}
                Step::Ready(prepared) => {
                    return match self.execute(prepared) {
                        Step::Done(report) => Ok(*report),
                        Step::Failed(err) => Err(err),
                        _ => unreachable!("execute is terminal"),
                    };
                }
                Step::Failed(err) => return Err(err),
                Step::Done(_) => unreachable!("step yields Done only through execute"),
            }
        }
    }
}
