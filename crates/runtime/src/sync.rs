//! The runtime's single doorway to synchronization primitives.
//!
//! Concurrency-bearing runtime code is written against
//! [`SyncFacade`] and instantiated with [`StdSync`] in production and
//! [`CheckSync`] under the `presp-check` model checker — the same
//! protocol source is shipped and explored. This module is the one place
//! in `presp-runtime` allowed to name `std::sync` / `std::thread`
//! directly; `presp-analyze` enforces that everywhere else goes through
//! it.

pub use presp_check::facade::{CheckSync, StdSync, SyncFacade};

// `Arc` is pure reference counting with no scheduling-visible blocking,
// so both worlds share the std type.
pub use std::sync::Arc;
