//! What every operator runs under: [`ExecCtx`].
//!
//! An evaluation has two cross-cutting inputs besides the query and the
//! database: the per-database [`IndexCatalog`] its indexes and
//! preprocessing products are memoized in, and the [`CancelToken`] its
//! loops poll. Every operator takes them together, as the first
//! parameter of its one entry point. A one-shot ("cold") evaluation is
//! not a second code path — it is [`ExecCtx::cold`], the same operator
//! over a catalog nobody keeps.

use crate::cancel::CancelToken;
use cq_data::IndexCatalog;

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

/// The catalog an operator acquires its indexes through and the token
/// its loops poll.
pub struct ExecCtx<'a> {
    catalog: Held<'a, IndexCatalog>,
    cancel: Held<'a, CancelToken>,
}

impl<'a> ExecCtx<'a> {
    /// Run against `catalog`, bounded by `cancel`. The token is
    /// borrowed, not cloned, so [`CancelToken::polls`] on the caller's
    /// handle counts the polling done under this context.
    pub fn new(catalog: &'a IndexCatalog, cancel: &'a CancelToken) -> ExecCtx<'a> {
        ExecCtx { catalog: Held::Borrowed(catalog), cancel: Held::Borrowed(cancel) }
    }

    /// Run against `catalog`, never cancelled.
    pub fn warm(catalog: &'a IndexCatalog) -> ExecCtx<'a> {
        ExecCtx {
            catalog: Held::Borrowed(catalog),
            cancel: Held::Owned(CancelToken::never()),
        }
    }

    /// One-shot evaluation: a throwaway catalog, dropped with the
    /// context, and a token that never trips.
    pub fn cold() -> ExecCtx<'static> {
        ExecCtx {
            catalog: Held::Owned(IndexCatalog::new()),
            cancel: Held::Owned(CancelToken::never()),
        }
    }

    /// The catalog indexes and preprocessing products are memoized in.
    pub fn catalog(&self) -> &IndexCatalog {
        self.catalog.get()
    }

    /// The token the operator's loops poll.
    pub fn cancel(&self) -> &CancelToken {
        self.cancel.get()
    }
}
