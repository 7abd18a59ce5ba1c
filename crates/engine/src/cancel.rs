//! Cooperative cancellation for long-running evaluations.
//!
//! The paper's hard-side queries are hard *in practice* too: a generic
//! join on adversarial data runs for its full AGM bound whether or not
//! anyone is still waiting for the answer. A [`CancelToken`] lets a
//! caller bound that: the token carries an optional deadline, an
//! externally settable flag, and an optional liveness probe (e.g. "is
//! the client socket still open?"), and the engine's inner loops poll
//! it via [`CancelToken::check`], aborting with
//! [`EvalError::Cancelled`] when it trips.
//!
//! Polling is *strided*: `check` consults the clock / flag / probe only
//! every [`STRIDE`]th call, so the per-iteration cost in a tight join
//! loop is one relaxed atomic increment. The very first call always
//! performs a real check, so a deadline of "now" (e.g. `SET TIMEOUT db
//! 0`) cancels deterministically before any work is done. Once
//! tripped, a token stays cancelled (the flag latches), so every
//! subsequent check fails fast without consulting the clock again.

use crate::bind::EvalError;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many [`CancelToken::check`] calls share one real
/// clock/flag/probe consultation.
pub const STRIDE: u32 = 256;

/// A cancellation source shared between the engine's inner loops and
/// whoever wants to stop them. Cheap to clone conceptually — pass by
/// reference; the external cancel handle is the `Arc` flag from
/// [`CancelToken::flag`].
pub struct CancelToken {
    deadline: Option<Instant>,
    flag: Arc<AtomicBool>,
    probe: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    tick: AtomicU32,
}

impl Clone for CancelToken {
    /// Clones share the latching flag and probe (cancelling one cancels
    /// all) but keep an independent poll stride, so a clone's first
    /// `check` is always a real one.
    fn clone(&self) -> Self {
        CancelToken {
            deadline: self.deadline,
            flag: Arc::clone(&self.flag),
            probe: self.probe.clone(),
            tick: AtomicU32::new(0),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::never()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("deadline", &self.deadline)
            .field("cancelled", &self.flag.load(Ordering::Relaxed))
            .field("probe", &self.probe.is_some())
            .finish()
    }
}

impl CancelToken {
    /// A token that never cancels.
    pub fn never() -> Self {
        CancelToken {
            deadline: None,
            flag: Arc::new(AtomicBool::new(false)),
            probe: None,
            tick: AtomicU32::new(0),
        }
    }

    /// Cancel when `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken { deadline: Some(deadline), ..CancelToken::never() }
    }

    /// Cancel `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        // saturate at "no deadline" rather than panic on absurd timeouts
        match Instant::now().checked_add(timeout) {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::never(),
        }
    }

    /// Attach a liveness probe: `probe() == true` means "cancel now".
    /// Typical use: peek the client socket for EOF. The probe is
    /// consulted every [`STRIDE`]th check, which a fold reaches every
    /// microsecond or so: a probe that makes a syscall should space its
    /// calls by their own cost, as `cqd`'s socket peek does behind its
    /// `PeekGate`, answering in between from the last call.
    pub fn with_probe(
        mut self,
        probe: impl Fn() -> bool + Send + Sync + 'static,
    ) -> Self {
        self.probe = Some(Arc::new(probe));
        self
    }

    /// A token for another thread of the same evaluation: it shares this
    /// one's flag and deadline, so a trip on either side stops both, but
    /// not its probe, which stays with the thread that attached it (a
    /// socket peek must not run on two threads at once), and it counts
    /// its own polls.
    pub fn sibling(&self) -> CancelToken {
        CancelToken { probe: None, ..self.clone() }
    }

    /// The externally settable cancel flag: store `true` (from any
    /// thread) to cancel, no matter what the deadline says.
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }

    /// Cancel the token now.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has this token tripped (latched)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// How many [`CancelToken::check`] calls this *instance* has
    /// absorbed. Clones keep independent strides (see [`Clone`]), so
    /// this counts the polls issued through this particular handle —
    /// which is what a trace span wants to attribute: the polling done
    /// by the loop that owns the handle.
    pub fn polls(&self) -> u64 {
        u64::from(self.tick.load(Ordering::Relaxed))
    }

    /// The strided poll for inner loops: cheap on most calls, a real
    /// clock/flag/probe consultation every [`STRIDE`]th (and the very
    /// first) call.
    #[inline]
    pub fn check(&self) -> Result<(), EvalError> {
        if !self.tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(STRIDE) {
            return Ok(());
        }
        self.check_now()
    }

    /// [`CancelToken::check`] for `n` loop iterations at once: one
    /// counter update for the block, and a real consultation iff one of
    /// those `n` polls would have made one. A loop that calls this once
    /// per [`STRIDE`] rows keeps `check`'s cadence — and
    /// [`CancelToken::polls`] its meaning — without touching the
    /// counter per row.
    #[inline]
    pub fn check_many(&self, n: u32) -> Result<(), EvalError> {
        let before = self.tick.fetch_add(n, Ordering::Relaxed);
        // polls until the next multiple of STRIDE, `before` included
        if (STRIDE - before % STRIDE) % STRIDE >= n {
            return Ok(());
        }
        self.check_now()
    }

    /// An unstrided check: consult the flag, deadline, and probe right
    /// now, latching the flag on a trip.
    pub fn check_now(&self) -> Result<(), EvalError> {
        if self.flag.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.probe.as_ref().is_some_and(|p| p())
        {
            self.flag.store(true, Ordering::Relaxed);
            return Err(EvalError::Cancelled);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_never_cancels() {
        let t = CancelToken::never();
        for _ in 0..10_000 {
            t.check().unwrap();
        }
        assert!(!t.is_cancelled());
    }

    #[test]
    fn zero_deadline_cancels_on_first_check() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        assert_eq!(t.check(), Err(EvalError::Cancelled));
        assert!(t.is_cancelled());
    }

    #[test]
    fn flag_cancels_and_latches() {
        let t = CancelToken::never();
        let flag = t.flag();
        t.check().unwrap();
        flag.store(true, Ordering::Relaxed);
        // the strided path may skip up to STRIDE-1 calls before noticing
        let tripped = (0..=STRIDE).any(|_| t.check().is_err());
        assert!(tripped);
        assert_eq!(t.check_now(), Err(EvalError::Cancelled));
    }

    #[test]
    fn check_many_consults_exactly_when_its_polls_would_have() {
        use std::sync::atomic::AtomicU32;
        let consulted = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&consulted);
        let t = CancelToken::never().with_probe(move || {
            seen.fetch_add(1, Ordering::Relaxed);
            false
        });
        let real = || consulted.load(Ordering::Relaxed);
        t.check_many(0).unwrap();
        assert_eq!(real(), 0, "no polls, no consultation");
        t.check_many(STRIDE).unwrap(); // polls 0..STRIDE: the first is real
        assert_eq!(real(), 1);
        t.check_many(1).unwrap(); // poll STRIDE
        assert_eq!(real(), 2);
        t.check_many(STRIDE - 1).unwrap(); // polls STRIDE+1..2·STRIDE
        assert_eq!(real(), 2);
        t.check_many(3 * STRIDE).unwrap(); // a long block still consults once
        assert_eq!(real(), 3);
        assert_eq!(t.polls(), u64::from(5 * STRIDE));
        t.cancel();
        assert_eq!(t.check_many(STRIDE), Err(EvalError::Cancelled));
    }

    #[test]
    fn a_sibling_shares_flag_and_deadline_but_not_the_probe() {
        let t = CancelToken::never().with_probe(|| true);
        let s = t.sibling();
        s.check().unwrap(); // a real check, and no probe to trip it
        assert_eq!((t.polls(), s.polls()), (0, 1), "each counts its own polls");
        assert_eq!(t.check(), Err(EvalError::Cancelled));
        assert_eq!(s.check_now(), Err(EvalError::Cancelled), "the trip latched both");
        let expired = CancelToken::with_timeout(Duration::ZERO).sibling();
        assert_eq!(expired.check(), Err(EvalError::Cancelled));
    }

    #[test]
    fn probe_trips_the_token() {
        let t = CancelToken::never().with_probe(|| true);
        assert_eq!(t.check(), Err(EvalError::Cancelled));
    }

    #[test]
    fn future_deadline_passes_checks() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        for _ in 0..1000 {
            t.check().unwrap();
        }
    }
}
