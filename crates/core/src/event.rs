//! Events exchanged between machines.
//!
//! A [`Event`] is a named, dynamically typed payload. Machines communicate
//! exclusively by sending events to each other's mailboxes; monitors observe
//! events that machines explicitly publish to them. The dynamic typing mirrors
//! the P# programming model where any event type can be delivered to any
//! machine, and the machine decides how (or whether) to handle it.

use std::any::Any;
use std::fmt;

/// Payload trait implemented by every concrete event type.
///
/// This is a blanket-implemented marker trait: any `'static + Send + Sync +
/// Debug` type can be used as an event payload. Implementors do not need to
/// do anything beyond deriving [`Debug`]. (`Sync` is required so that
/// runtime snapshots — which carry queued events for copy-on-write forks —
/// can be shared across threads.)
///
/// # Examples
///
/// ```
/// use psharp::event::Event;
///
/// #[derive(Debug)]
/// struct Ping(u32);
///
/// let event = Event::new(Ping(7));
/// assert!(event.is::<Ping>());
/// assert_eq!(event.downcast_ref::<Ping>().unwrap().0, 7);
/// ```
pub trait EventPayload: Any + Send + Sync + fmt::Debug {
    /// Returns `self` as a `&dyn Any` so the payload can be downcast.
    fn as_any(&self) -> &dyn Any;
    /// Returns `self` as a boxed `Any` so the payload can be consumed.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + Send + Sync + fmt::Debug> EventPayload for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A named, dynamically typed message delivered to a machine or monitor.
///
/// Events carry the short type name of their payload, which is used in traces
/// and bug reports so that a schedule can be read as a sequence of
/// human-meaningful steps (`ClientReq`, `Timeout`, `SyncReport`, ...).
pub struct Event {
    name: &'static str,
    payload: Box<dyn EventPayload>,
    /// Monomorphized copy constructor, present only for events created with
    /// [`Event::replicable`]. Fault injection can only duplicate messages
    /// that opted into replication this way.
    duplicate: Option<fn(&Event) -> Event>,
}

impl Event {
    /// Wraps a payload value into an event.
    ///
    /// The event name is derived from the payload's type name with module
    /// paths stripped.
    pub fn new<T: EventPayload>(payload: T) -> Self {
        Event {
            name: short_type_name::<T>(),
            payload: Box::new(payload),
            duplicate: None,
        }
    }

    /// Wraps a cloneable payload into an event that fault injection may
    /// *duplicate* (re-deliver a copy of). Use this constructor for messages
    /// sent over channels a harness marks lossy
    /// ([`Runtime::mark_lossy`](crate::runtime::Runtime::mark_lossy)), so
    /// the scheduler can explore at-least-once delivery; plain
    /// [`Event::new`] events on a lossy channel can still be dropped, just
    /// not duplicated.
    pub fn replicable<T: EventPayload + Clone>(payload: T) -> Self {
        fn duplicate_impl<T: EventPayload + Clone>(event: &Event) -> Event {
            Event::replicable(
                event
                    .downcast_ref::<T>()
                    .expect("duplicate constructor matches the payload type")
                    .clone(),
            )
        }
        Event {
            name: short_type_name::<T>(),
            payload: Box::new(payload),
            duplicate: Some(duplicate_impl::<T>),
        }
    }

    /// Returns `true` when this event was created with [`Event::replicable`]
    /// and can therefore be duplicated by fault injection.
    pub fn can_duplicate(&self) -> bool {
        self.duplicate.is_some()
    }

    /// Clones the event, if it is replicable.
    pub fn duplicate(&self) -> Option<Event> {
        self.duplicate.map(|dup| dup(self))
    }

    /// The short type name of the payload (no module path).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Returns `true` when the payload is of type `T`.
    pub fn is<T: Any>(&self) -> bool {
        // Dispatch through the trait object explicitly: the blanket
        // `EventPayload` impl also covers `Box<dyn EventPayload>` itself, and
        // plain method syntax would resolve to the box rather than the payload.
        EventPayload::as_any(&*self.payload).is::<T>()
    }

    /// Borrows the payload as `T`, if it has that type.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        EventPayload::as_any(&*self.payload).downcast_ref::<T>()
    }

    /// Consumes the event and returns the payload as `T`.
    ///
    /// # Errors
    ///
    /// Returns the original event unchanged when the payload is not a `T`.
    pub fn downcast<T: Any>(self) -> Result<T, Event> {
        if self.is::<T>() {
            let any = EventPayload::into_any(self.payload);
            Ok(*any.downcast::<T>().expect("type checked above"))
        } else {
            Err(self)
        }
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Event({:?})", self.payload)
    }
}

/// Returns the type name of `T` with any module path prefix removed.
///
/// Called on every event construction, so the path is stripped by a
/// backwards byte scan rather than `rsplit("::")`, which builds a substring
/// searcher per call. The result is identical: everything after the last
/// `"::"` (the whole name when there is none).
pub(crate) fn short_type_name<T: ?Sized>() -> &'static str {
    strip_module_path(std::any::type_name::<T>())
}

fn strip_module_path(full: &str) -> &str {
    let bytes = full.as_bytes();
    // `end` is one past the second colon of the rightmost `"::"`; both
    // colons are ASCII, so `end` is always a char boundary.
    let mut end = bytes.len();
    while end >= 2 {
        if bytes[end - 1] == b':' && bytes[end - 2] == b':' {
            return &full[end..];
        }
        end -= 1;
    }
    full
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);

    #[derive(Debug)]
    struct Pong;

    #[test]
    fn module_path_stripping_matches_rsplit() {
        fn reference(full: &str) -> &str {
            full.rsplit("::").next().unwrap_or(full)
        }
        let literals = [
            "",
            "Ping",
            "a::b::C",
            "Wrapper<a::B>",
            "a:::b",
            "::X",
            "X::",
            ":",
            "::",
            ":::",
            "a::b::Wrapper<c::D, e::F>",
        ];
        for full in literals {
            assert_eq!(strip_module_path(full), reference(full), "input {full:?}");
        }

        // Real event, machine and monitor types, through every caller.
        use crate::machine::{Machine, StateMachine, StateMachineRunner, Transition};
        use crate::monitor::{Monitor, MonitorContext};
        use crate::runtime::Context;
        struct Node;
        impl Machine for Node {
            fn handle(&mut self, _ctx: &mut Context<'_>, _event: Event) {}
        }
        struct Phased;
        impl StateMachine for Phased {
            type State = u8;
            fn initial_state(&self) -> u8 {
                0
            }
            fn handle_in(&mut self, _s: u8, _ctx: &mut Context<'_>, _e: Event) -> Transition<u8> {
                Transition::Stay
            }
        }
        struct Watch;
        impl Monitor for Watch {
            fn observe(&mut self, _ctx: &mut MonitorContext<'_>, _event: &Event) {}
        }
        let type_names = [
            std::any::type_name::<Ping>(),
            std::any::type_name::<Pong>(),
            std::any::type_name::<Payload>(),
            std::any::type_name::<Option<Ping>>(),
            std::any::type_name::<Node>(),
            std::any::type_name::<Phased>(),
            std::any::type_name::<Watch>(),
            std::any::type_name::<StateMachineRunner<Phased>>(),
            std::any::type_name::<[Ping; 2]>(),
            std::any::type_name::<(Ping, Pong)>(),
        ];
        for full in type_names {
            assert_eq!(strip_module_path(full), reference(full), "input {full:?}");
        }
        assert_eq!(Event::new(Ping(1)).name(), reference(type_names[0]));
        assert_eq!(Event::new(Some(Ping(1))).name(), reference(type_names[3]));
        assert_eq!(
            Event::replicable(Payload(1)).name(),
            reference(type_names[2])
        );
        assert_eq!(Machine::name(&Node), reference(type_names[4]));
        assert_eq!(StateMachine::name(&Phased), reference(type_names[5]));
        assert_eq!(Monitor::name(&Watch), reference(type_names[6]));
        assert_eq!(
            Machine::name(&StateMachineRunner::new(Phased)),
            reference(type_names[5])
        );
    }

    #[test]
    fn event_name_strips_module_path() {
        let e = Event::new(Ping(1));
        assert_eq!(e.name(), "Ping");
    }

    #[test]
    fn downcast_ref_matches_type() {
        let e = Event::new(Ping(42));
        assert!(e.is::<Ping>());
        assert!(!e.is::<Pong>());
        assert_eq!(e.downcast_ref::<Ping>(), Some(&Ping(42)));
        assert!(e.downcast_ref::<Pong>().is_none());
    }

    #[test]
    fn downcast_consumes_payload() {
        let e = Event::new(Ping(7));
        let p = e.downcast::<Ping>().expect("payload is a Ping");
        assert_eq!(p, Ping(7));
    }

    #[test]
    fn downcast_wrong_type_returns_event() {
        let e = Event::new(Ping(7));
        let e = e.downcast::<Pong>().expect_err("payload is not a Pong");
        assert_eq!(e.name(), "Ping");
    }

    #[test]
    fn debug_is_nonempty() {
        let e = Event::new(Ping(3));
        let s = format!("{e:?}");
        assert!(s.contains("Ping"));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Payload(u32);

    #[test]
    fn replicable_events_can_be_duplicated() {
        let e = Event::replicable(Payload(9));
        assert!(e.can_duplicate());
        assert_eq!(e.name(), "Payload");
        let copy = e.duplicate().expect("replicable event duplicates");
        assert_eq!(copy.downcast_ref::<Payload>(), Some(&Payload(9)));
        assert!(copy.can_duplicate(), "the copy stays replicable");
    }

    #[test]
    fn plain_events_cannot_be_duplicated() {
        let e = Event::new(Ping(1));
        assert!(!e.can_duplicate());
        assert!(e.duplicate().is_none());
    }
}
