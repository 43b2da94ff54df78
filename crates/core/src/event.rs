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
pub(crate) fn short_type_name<T: ?Sized>() -> &'static str {
    let full = std::any::type_name::<T>();
    full.rsplit("::").next().unwrap_or(full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);

    #[derive(Debug)]
    struct Pong;

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
