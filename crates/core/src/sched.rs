//! The next-event-time scheduling contract shared by every steppable
//! simulation owner (`sc_cluster::Cluster`, `sc_system::System`).
//!
//! Dense lock-step simulation pays host time for every simulated cycle,
//! including the long windows where nothing architectural can happen:
//! cores parked on barriers, a DMA engine counting down its startup
//! latency, an L2 with no traffic. The scheduler contract lets an owner
//! *fast-forward* across such windows without changing a single cycle
//! count or statistic:
//!
//! * every component reports a [`Wake`] — the earliest future cycle at
//!   which stepping it could do anything beyond closed-form bookkeeping;
//! * the owner merges the wakes ([`Wake::merge`]), caps the window
//!   ([`Scheduler::plan`]) against externally imposed deadlines (cycle
//!   budget, watchdog), and either bulk-skips the window or steps one
//!   dense cycle.
//!
//! Each owner implements the contract as inherent methods —
//! `next_wake` (conservative: reporting [`Wake::EveryCycle`] is always
//! correct, a too-late wake never is) and `skip_idle` (bulk-applies a
//! window no wider than the reported wake) — and drives them from its
//! own `run` loop through a [`Scheduler`].
//!
//! A window is only skippable when every per-cycle phase of every
//! component is provably a no-op apart from closed-form counter updates
//! (a parked core's `cycles` counter, a waiting engine's
//! `dram_wait_cycles`). Components therefore err on the side of
//! [`Wake::EveryCycle`]: tracing subscriptions, per-cycle retry loops and
//! any state the owner cannot bulk-update all pin the dense path, which
//! is what keeps [`SchedMode::Event`] bit-identical to
//! [`SchedMode::Dense`].

/// The earliest future cycle at which stepping a component could change
/// architectural state or statistics beyond closed-form bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The component may act this very cycle (or its per-cycle work is
    /// not expressible in closed form): the owner must step densely.
    EveryCycle,
    /// Nothing can happen before the given absolute cycle (e.g. a DMA
    /// engine whose next beat is owed `wait` more countdown cycles).
    At(u64),
    /// Nothing can ever happen again without external input (a halted
    /// core, a parked hart, an idle engine).
    Idle,
}

impl Wake {
    /// Merges two wake reports: the *earlier* demand wins.
    /// [`Wake::EveryCycle`] dominates everything; [`Wake::Idle`] yields
    /// to everything.
    #[must_use]
    #[inline]
    pub fn merge(self, other: Wake) -> Wake {
        match (self, other) {
            (Wake::EveryCycle, _) | (_, Wake::EveryCycle) => Wake::EveryCycle,
            (Wake::Idle, w) | (w, Wake::Idle) => w,
            (Wake::At(a), Wake::At(b)) => Wake::At(a.min(b)),
        }
    }

    /// Folds an iterator of wake reports with [`Wake::merge`], starting
    /// from [`Wake::Idle`] (the identity).
    #[must_use]
    pub fn earliest(wakes: impl IntoIterator<Item = Wake>) -> Wake {
        wakes.into_iter().fold(Wake::Idle, Wake::merge)
    }
}

/// Which stepping regime a run loop uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Step every component every cycle (the reference behaviour).
    #[default]
    Dense,
    /// Fast-forward across windows where every component reports a
    /// future [`Wake`]. Pinned cycle- and stats-identical to
    /// [`SchedMode::Dense`] by the baseline grids and the differential
    /// proptests.
    Event,
}

/// Plans fast-forward windows for a cluster or system run loop.
///
/// The scheduler itself is deliberately stateless apart from the mode:
/// each iteration re-derives the next event time from the component's
/// live [`Wake`] report (a one-pass min-merge — the component tree *is*
/// the event queue, re-keyed every window, which is cheap because wake
/// reports are O(components) and windows amortise the cost over their
/// whole span).
#[derive(Debug, Clone, Copy, Default)]
pub struct Scheduler {
    mode: SchedMode,
}

impl Scheduler {
    /// A scheduler driving the given mode.
    #[must_use]
    pub fn new(mode: SchedMode) -> Self {
        Scheduler { mode }
    }

    /// The mode this scheduler drives.
    #[must_use]
    pub fn mode(&self) -> SchedMode {
        self.mode
    }

    /// The number of cycles the run loop may fast-forward right now:
    /// `0` means "step one dense cycle". Non-zero only in
    /// [`SchedMode::Event`], when `wake` lies strictly in the future,
    /// and never further than the smallest of `caps` (absolute cycle
    /// deadlines: the cycle budget, the watchdog's next deadline).
    ///
    /// An [`Wake::Idle`] report fast-forwards straight to the nearest
    /// cap — exactly where a dense loop would next do anything
    /// observable (time out, or fire the watchdog).
    #[must_use]
    pub fn plan(&self, now: u64, wake: Wake, caps: impl IntoIterator<Item = u64>) -> u64 {
        if self.mode == SchedMode::Dense {
            return 0;
        }
        let horizon = match wake {
            Wake::EveryCycle => return 0,
            Wake::At(cycle) => cycle,
            Wake::Idle => u64::MAX,
        };
        let horizon = caps.into_iter().fold(horizon, u64::min);
        horizon.saturating_sub(now)
    }

    /// Whether a single component may sit out the coming dense cycle —
    /// the *local skip* counterpart of [`Scheduler::plan`] for
    /// partially-idle windows, where the global merge says "dense" but
    /// a subset of components is provably inert.
    ///
    /// `true` iff the mode is [`SchedMode::Event`] and `wake` lies
    /// strictly past `now`: the owner steps the non-idle subset densely
    /// and bulk-advances this component by one cycle instead of
    /// stepping it. Always `false` in [`SchedMode::Dense`], which keeps
    /// the reference regime untouched.
    #[must_use]
    pub fn local_quiet(&self, now: u64, wake: Wake) -> bool {
        self.mode == SchedMode::Event
            && match wake {
                Wake::EveryCycle => false,
                Wake::At(cycle) => cycle > now,
                Wake::Idle => true,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefers_the_earliest_demand() {
        assert_eq!(Wake::Idle.merge(Wake::Idle), Wake::Idle);
        assert_eq!(Wake::Idle.merge(Wake::At(7)), Wake::At(7));
        assert_eq!(Wake::At(9).merge(Wake::At(7)), Wake::At(7));
        assert_eq!(Wake::At(9).merge(Wake::EveryCycle), Wake::EveryCycle);
        assert_eq!(Wake::EveryCycle.merge(Wake::Idle), Wake::EveryCycle);
        assert_eq!(
            Wake::earliest([Wake::Idle, Wake::At(12), Wake::At(4)]),
            Wake::At(4)
        );
        assert_eq!(Wake::earliest([]), Wake::Idle);
    }

    #[test]
    fn dense_mode_never_skips() {
        let s = Scheduler::new(SchedMode::Dense);
        assert_eq!(s.plan(10, Wake::Idle, [1_000]), 0);
        assert_eq!(s.plan(10, Wake::At(500), [1_000]), 0);
    }

    #[test]
    fn event_mode_skips_to_the_wake_or_the_nearest_cap() {
        let s = Scheduler::new(SchedMode::Event);
        assert_eq!(s.plan(10, Wake::EveryCycle, [1_000]), 0);
        assert_eq!(s.plan(10, Wake::At(50), [1_000]), 40);
        assert_eq!(s.plan(10, Wake::At(50), [30, 1_000]), 20);
        assert_eq!(s.plan(10, Wake::Idle, [1_000, 200]), 190);
        // A wake at or before `now` means the component is due: dense.
        assert_eq!(s.plan(10, Wake::At(10), [1_000]), 0);
        assert_eq!(s.plan(10, Wake::At(5), [1_000]), 0);
        // A cap at or before `now` forces a dense step too (the run
        // loop's own budget check then decides what happens).
        assert_eq!(s.plan(10, Wake::Idle, [10]), 0);
    }

    #[test]
    fn local_quiet_licenses_only_strictly_future_wakes_in_event_mode() {
        let event = Scheduler::new(SchedMode::Event);
        assert!(event.local_quiet(10, Wake::Idle));
        assert!(event.local_quiet(10, Wake::At(11)));
        assert!(!event.local_quiet(10, Wake::At(10)), "due now: dense");
        assert!(!event.local_quiet(10, Wake::At(5)), "overdue: dense");
        assert!(!event.local_quiet(10, Wake::EveryCycle));
        // A partially idle wake vector classifies component by component.
        let wakes = [Wake::EveryCycle, Wake::Idle, Wake::At(42), Wake::At(10)];
        let quiet = wakes.map(|w| event.local_quiet(10, w));
        assert_eq!(quiet, [false, true, true, false]);

        let dense = Scheduler::new(SchedMode::Dense);
        assert!(!dense.local_quiet(10, Wake::Idle));
        assert!(!dense.local_quiet(10, Wake::At(500)));
        assert!(!dense.local_quiet(10, Wake::At(42)));
    }
}
