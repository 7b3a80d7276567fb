//! Facade crate re-exporting the bdrmapit-rs workspace public API.
#![forbid(unsafe_code)]
pub use alias;
pub use as_rel;
pub use bdrmap;
pub use bdrmapit_core as core;
pub use bgp;
pub use eval;
pub use mapit;
pub use net_types;
pub use obs;
pub use pool;
pub use serve;
pub use snapshot;
pub use topo_gen;
pub use traceroute;
