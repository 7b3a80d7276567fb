//! Phase 3: graph refinement (§6).
//!
//! Each iteration annotates every mid-path IR with its operating AS
//! ([`router`], Algorithm 2), then re-annotates every interface with the AS
//! it connects to ([`interface`], §6.2). Annotations propagate across the
//! graph between iterations, and the loop stops at the first repeated
//! global state ([`engine`], §6.3). The router sweep runs one wavefront
//! level ([`levels`]) at a time on a crew of [`Config::threads`](crate::Config)
//! workers or fewer ([`parallel`]), with bit-identical results for every
//! crew size.

pub mod engine;
pub mod exceptions;
pub mod hidden;
pub mod interface;
pub mod levels;
pub mod parallel;
pub mod realloc;
pub mod router;
pub mod votes;

pub use engine::{refine, CONVERGENCE_HASH_SEED};
pub use levels::wavefront_levels;
