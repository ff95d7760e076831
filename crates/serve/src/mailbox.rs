//! A session's event queue: one [`Mailbox`] per session, holding exactly
//! the events sent to it and nothing more. The executor side owns the
//! [`Sender`] (on the session slot); the caller side reads through the
//! [`SessionHandle`](crate::SessionHandle).
//!
//! A mailbox is closed once nothing more can arrive: its final event
//! (`Done`/`Failed`) was sent, its sender was dropped (a session retired
//! by a panic), or its handle was dropped. Sends to a closed mailbox are
//! thrown away, so a dropped handle stops retaining events at once, and the
//! executor retires a session whose mailbox its handle closed. The
//! mailbox lock is a leaf lock: nothing else is taken while it is held.

use crate::service::{pwait, MutexExt, SessionEvent};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// The state shared by a session's [`Sender`] and its handle.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// Undelivered events, oldest first, and whether the mailbox is closed.
    state: Mutex<(VecDeque<SessionEvent>, bool)>,
    ready: Condvar,
}

/// The producer half: sends events in order and closes the mailbox when
/// dropped.
pub(crate) struct Sender(Arc<Mailbox>);

/// A connected sender and mailbox.
pub(crate) fn mailbox() -> (Sender, Arc<Mailbox>) {
    let mailbox = Arc::new(Mailbox::default());
    (Sender(Arc::clone(&mailbox)), mailbox)
}

impl Sender {
    /// Queues `event`; a final event closes the mailbox behind it. A send
    /// to a closed mailbox is dropped.
    pub(crate) fn send(&self, event: SessionEvent) {
        let mut state = self.0.state.plock();
        let (events, closed) = &mut *state;
        if *closed {
            return;
        }
        *closed = !matches!(event, SessionEvent::Partition(_));
        events.push_back(event);
        drop(state);
        self.0.ready.notify_all();
    }

    /// Whether the mailbox is closed. Until the session's final event is
    /// sent, only a dropped handle closes it.
    pub(crate) fn is_closed(&self) -> bool {
        self.0.state.plock().1
    }
}

impl Drop for Sender {
    fn drop(&mut self) {
        self.0.close(false);
    }
}

impl Mailbox {
    /// Blocks for the next event; `None` once the mailbox is closed and
    /// drained.
    pub(crate) fn recv(&self) -> Option<SessionEvent> {
        let mut state = self.state.plock();
        loop {
            if let Some(event) = state.0.pop_front() {
                return Some(event);
            }
            if state.1 {
                return None;
            }
            state = pwait(&self.ready, state);
        }
    }

    /// Closes the mailbox; `discard` also frees every undelivered event
    /// (the handle is gone, nobody will read them).
    pub(crate) fn close(&self, discard: bool) {
        let mut state = self.state.plock();
        state.1 = true;
        if discard {
            state.0 = VecDeque::new();
        }
        drop(state);
        self.ready.notify_all();
    }

    /// Bytes of event storage the mailbox holds.
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> usize {
        self.state.plock().0.capacity() * std::mem::size_of::<SessionEvent>()
    }
}
