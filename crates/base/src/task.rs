//! Minimal future-driving helpers for the routine reactor.
//!
//! The reactor in `drtm-core::routine` polls transaction futures by
//! hand; the yield points those futures contain only ever suspend when
//! the owning worker runs in a routine pool, of whatever size. Outside
//! a pool a worker waits on its own solo reactor, which resolves every
//! wait inside the yield point (and the baseline engines' bodies have
//! no yield points at all), so a synchronous caller can drive the same
//! async code with a single poll. [`block_now`] is that single poll: it
//! panics if the future dares to return `Pending`, which turns "a
//! blocking caller reached a real suspension point" from a silent hang
//! into a loud bug.

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

/// Drives `fut` to completion with exactly one poll.
///
/// This is the synchronous facade over the engine's async primitives:
/// on a worker outside any routine pool every yield point completes
/// immediately (its reactor of one folds the wait into the virtual
/// clock on the spot), so one poll finishes the whole future.
///
/// # Panics
///
/// Panics if the future returns `Poll::Pending` — that means a real
/// suspension point was reached from a context with no drive loop to
/// resume it, which is a programming error (a synchronous facade was
/// called inside a routine pool, or the future awaited something that
/// is not an engine yield point).
pub fn block_now<F: Future>(fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "block_now: future suspended with no reactor attached \
             (a sync facade inside a routine pool, or a foreign future)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_now_drives_ready_future() {
        let v = block_now(async { 41 + 1 });
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "no reactor attached")]
    fn block_now_panics_on_suspension() {
        block_now(std::future::pending::<()>());
    }
}
