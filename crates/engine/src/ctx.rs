//! What every operator runs under: [`ExecCtx`].
//!
//! An evaluation has two cross-cutting inputs besides the query and the
//! database: the per-database [`IndexCatalog`] its indexes and
//! preprocessing products are memoized in, and the [`CancelToken`] its
//! loops poll. Every operator takes them together, as the first
//! parameter of its one entry point. A one-shot ("cold") evaluation is
//! not a second code path — it is [`ExecCtx::cold`], the same operator
//! over a catalog nobody keeps.
//!
//! A live context is also one unit of the process-wide *busy* gauge:
//! an operator that can split its work (generic join's `COUNT`) hands
//! pieces to helper threads only while the gauge says a core is
//! free, so two connections evaluating at once on two cores spawn
//! nothing.

use crate::cancel::CancelToken;
use cq_data::IndexCatalog;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A field the context either borrows from its caller or owns itself
/// (the throwaway halves of [`ExecCtx::cold`] / [`ExecCtx::warm`]).
enum Held<'a, T> {
    Borrowed(&'a T),
    Owned(T),
}

impl<T> Held<'_, T> {
    fn get(&self) -> &T {
        match self {
            Held::Borrowed(t) => t,
            Held::Owned(t) => t,
        }
    }
}

/// Threads evaluating right now: one per live [`ExecCtx`], one per
/// running helper thread.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// One unit of the busy gauge, held for as long as its thread
/// evaluates.
pub(crate) struct Busy(());

impl Busy {
    pub(crate) fn enter() -> Busy {
        BUSY.fetch_add(1, Ordering::Relaxed);
        Busy(())
    }
}

impl Drop for Busy {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Cores no evaluation runs on: the machine's parallelism less the busy
/// gauge. A snapshot — two operators reading it at once may both take
/// the same core, for as long as one of them runs.
pub(crate) fn idle_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    cores.saturating_sub(BUSY.load(Ordering::Relaxed))
}

/// The catalog an operator acquires its indexes through and the token
/// its loops poll.
pub struct ExecCtx<'a> {
    catalog: Held<'a, IndexCatalog>,
    cancel: Held<'a, CancelToken>,
    /// Polls of the helper threads' siblings of `cancel`, which count
    /// their own: see [`ExecCtx::polls`].
    helper_polls: AtomicU64,
    _busy: Busy,
}

impl<'a> ExecCtx<'a> {
    fn with(catalog: Held<'a, IndexCatalog>, cancel: Held<'a, CancelToken>) -> Self {
        ExecCtx { catalog, cancel, helper_polls: AtomicU64::new(0), _busy: Busy::enter() }
    }

    /// Run against `catalog`, bounded by `cancel`. The token is
    /// borrowed, not cloned, so [`CancelToken::polls`] on the caller's
    /// handle counts the polling done on the calling thread under this
    /// context.
    pub fn new(catalog: &'a IndexCatalog, cancel: &'a CancelToken) -> ExecCtx<'a> {
        ExecCtx::with(Held::Borrowed(catalog), Held::Borrowed(cancel))
    }

    /// Run against `catalog`, never cancelled.
    pub fn warm(catalog: &'a IndexCatalog) -> ExecCtx<'a> {
        ExecCtx::with(Held::Borrowed(catalog), Held::Owned(CancelToken::never()))
    }

    /// One-shot evaluation: a throwaway catalog, dropped with the
    /// context, and a token that never trips.
    pub fn cold() -> ExecCtx<'static> {
        ExecCtx::with(Held::Owned(IndexCatalog::new()), Held::Owned(CancelToken::never()))
    }

    /// The catalog indexes and preprocessing products are memoized in.
    pub fn catalog(&self) -> &IndexCatalog {
        self.catalog.get()
    }

    /// The token the operator's loops poll.
    pub fn cancel(&self) -> &CancelToken {
        self.cancel.get()
    }

    /// Every poll made under this context: the token's, on the calling
    /// thread, and those of the helper threads' siblings of it.
    pub fn polls(&self) -> u64 {
        self.cancel().polls() + self.helper_polls.load(Ordering::Relaxed)
    }

    /// Add a finished helper thread's polls to [`ExecCtx::polls`].
    pub(crate) fn add_helper_polls(&self, polls: u64) {
        self.helper_polls.fetch_add(polls, Ordering::Relaxed);
    }
}
