//! Safety and liveness monitors.
//!
//! Monitors are special machines that can *receive* notifications from
//! ordinary machines but cannot send events. They cleanly separate the
//! instrumentation state needed to express a correctness property from the
//! program state of the system-under-test.
//!
//! * A **safety monitor** maintains a history of relevant events and flags an
//!   erroneous finite trace through [`MonitorContext::assert`].
//! * A **liveness monitor** additionally reports a [`Temperature`]: it is
//!   *hot* while progress is required but has not happened yet and *cold*
//!   once the system has progressed. An execution is erroneous when a monitor
//!   is still hot at the end of a bounded "infinite" execution (or at
//!   quiescence), mirroring the heuristic described in §2.5 of the paper.

use std::any::Any;

use crate::error::{Bug, BugKind};
use crate::event::{short_type_name, Event};

/// Progress status reported by a liveness monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Temperature {
    /// Progress is required but has not happened yet.
    Hot,
    /// No outstanding progress obligation.
    Cold,
}

/// Object-safe downcast support for trait objects.
///
/// Blanket-implemented for every `'static` type; monitor implementors never
/// need to implement it by hand.
pub trait AsAny {
    /// Returns `self` as `&dyn Any` for downcasting.
    fn as_any(&self) -> &dyn Any;

    /// Returns `self` as `&mut dyn Any` for in-place downcasting, used by the
    /// machine pool to recycle a retired box of the same concrete type.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A safety or liveness specification attached to a test.
///
/// # Examples
///
/// A safety monitor that checks an acknowledgement is never issued before
/// three replicas exist:
///
/// ```
/// use psharp::prelude::*;
/// use std::collections::HashSet;
///
/// #[derive(Debug)]
/// struct NotifyReplica(MachineId);
/// #[derive(Debug)]
/// struct NotifyAck;
///
/// #[derive(Default)]
/// struct ReplicaSafety {
///     replicas: HashSet<MachineId>,
/// }
///
/// impl Monitor for ReplicaSafety {
///     fn observe(&mut self, ctx: &mut MonitorContext<'_>, event: &Event) {
///         if let Some(n) = event.downcast_ref::<NotifyReplica>() {
///             self.replicas.insert(n.0);
///         } else if event.is::<NotifyAck>() {
///             ctx.assert(self.replicas.len() >= 3, "ack sent with fewer than 3 replicas");
///         }
///     }
/// }
/// ```
/// Monitors are `Send + Sync` so that runtime snapshots (which carry monitor
/// state for copy-on-write forks) can be shared across threads.
pub trait Monitor: AsAny + Send + Sync + 'static {
    /// Handles a notification published by a machine via
    /// [`Context::notify_monitor`](crate::runtime::Context::notify_monitor).
    fn observe(&mut self, ctx: &mut MonitorContext<'_>, event: &Event);

    /// Current liveness temperature.
    ///
    /// Safety-only monitors keep the default implementation, which always
    /// reports [`Temperature::Cold`].
    fn temperature(&self) -> Temperature {
        Temperature::Cold
    }

    /// Message attached to a liveness violation when this monitor is hot at
    /// the end of an execution.
    fn hot_message(&self) -> String {
        "liveness monitor is still in a hot state".to_string()
    }

    /// The monitor's display name, used in bug reports.
    fn name(&self) -> &str {
        short_type_name::<Self>()
    }

    /// Produces an independent copy of this monitor's current state for
    /// [`Runtime::snapshot`](crate::runtime::Runtime::snapshot).
    ///
    /// The default returns `None`, which marks the monitor as
    /// non-snapshotable (the runtime then cannot be forked). `Clone`
    /// monitors opt in with `Some(Box::new(self.clone()))`.
    fn clone_state(&self) -> Option<Box<dyn Monitor>> {
        None
    }
}

/// Context handed to [`Monitor::observe`]; allows flagging violations.
#[derive(Debug)]
pub struct MonitorContext<'a> {
    bug: &'a mut Option<Bug>,
    monitor_name: &'a str,
    step: usize,
}

impl<'a> MonitorContext<'a> {
    pub(crate) fn new(bug: &'a mut Option<Bug>, monitor_name: &'a str, step: usize) -> Self {
        MonitorContext {
            bug,
            monitor_name,
            step,
        }
    }

    /// Creates a standalone context for unit-testing a monitor outside of a
    /// [`Runtime`](crate::runtime::Runtime). Violations are written to `bug`.
    pub fn new_for_tests(bug: &'a mut Option<Bug>) -> Self {
        MonitorContext {
            bug,
            monitor_name: "test-monitor",
            step: 0,
        }
    }

    /// Flags a safety violation when `condition` is false.
    ///
    /// Only the first violation of an execution is retained.
    pub fn assert(&mut self, condition: bool, message: impl Into<String>) {
        if !condition {
            self.report_violation(message);
        }
    }

    /// Unconditionally flags a safety violation.
    pub fn report_violation(&mut self, message: impl Into<String>) {
        if self.bug.is_none() {
            *self.bug = Some(
                Bug::new(BugKind::SafetyViolation, message)
                    .with_source(self.monitor_name)
                    .with_step(self.step),
            );
        }
    }

    /// The execution step at which the observed event was published.
    pub fn step(&self) -> usize {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Tick;

    #[derive(Default)]
    struct CountingMonitor {
        seen: usize,
        hot: bool,
    }

    impl Monitor for CountingMonitor {
        fn observe(&mut self, ctx: &mut MonitorContext<'_>, event: &Event) {
            if event.is::<Tick>() {
                self.seen += 1;
                self.hot = true;
                ctx.assert(self.seen <= 2, "saw more than two ticks");
            }
        }
        fn temperature(&self) -> Temperature {
            if self.hot {
                Temperature::Hot
            } else {
                Temperature::Cold
            }
        }
    }

    #[test]
    fn assert_records_first_violation_only() {
        let mut bug = None;
        let mut monitor = CountingMonitor::default();
        for _ in 0..4 {
            let mut ctx = MonitorContext::new(&mut bug, "CountingMonitor", 7);
            monitor.observe(&mut ctx, &Event::new(Tick));
        }
        let bug = bug.expect("third tick should violate");
        assert_eq!(bug.kind, BugKind::SafetyViolation);
        assert_eq!(bug.step, 7);
        assert_eq!(bug.source.as_deref(), Some("CountingMonitor"));
        assert_eq!(monitor.seen, 4, "monitor keeps observing after violation");
    }

    #[test]
    fn default_temperature_is_cold() {
        struct SafetyOnly;
        impl Monitor for SafetyOnly {
            fn observe(&mut self, _ctx: &mut MonitorContext<'_>, _event: &Event) {}
        }
        assert_eq!(SafetyOnly.temperature(), Temperature::Cold);
        assert!(!SafetyOnly.hot_message().is_empty());
    }

    #[test]
    fn monitor_downcast_via_as_any() {
        let monitor: Box<dyn Monitor> = Box::new(CountingMonitor::default());
        assert!((*monitor)
            .as_any()
            .downcast_ref::<CountingMonitor>()
            .is_some());
    }

    #[test]
    fn report_violation_is_unconditional() {
        let mut bug = None;
        let mut ctx = MonitorContext::new(&mut bug, "M", 1);
        ctx.report_violation("boom");
        assert!(bug.is_some());
    }
}
