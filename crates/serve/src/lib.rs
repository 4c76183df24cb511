//! `tp-serve` — a fault-isolated inference service for the timing GNN.
//!
//! Serving a pre-routing slack predictor inside a placement loop means the
//! model is *infrastructure*: it must survive bad inputs, panicking
//! handlers, corrupt checkpoints and load spikes without dropping the
//! predictions other tools are blocking on. This crate is that hardening
//! layer (DESIGN.md §10), std-only like the rest of the workspace:
//!
//! - **Wire protocol** ([`protocol`]) — line-delimited JSON over TCP;
//!   `tp-obs`'s depth-bounded, panic-free parser (re-exported as [`json`])
//!   decodes requests, and replies render through its deterministic JSON
//!   emitters so identical session state yields identical reply *bytes*.
//! - **Snapshots** ([`snapshot`]) — requests compute against an immutable
//!   `Arc<ModelSnapshot>`; hot-swap stages a checkpoint into a fresh model
//!   (container checksum + parameter-blob validation) and only then
//!   atomically publishes it. A corrupt `.tpck` is rejected while the old
//!   snapshot keeps serving.
//! - **Sessions** ([`session`]) — per-design [`tp_gnn::IncrementalGnn`]
//!   engines answer ECO `move_pins` edits by re-predicting only the dirty
//!   cone, bit-identical to a full forward pass.
//! - **Server** ([`server`]) — thread-per-connection, every request
//!   executing inline on its connection thread, with bounded
//!   admission (`overloaded` replies beyond `TP_SERVE_QUEUE` in-flight
//!   requests), EWMA-scaled per-request deadlines (`TP_REQ_DEADLINE_MS`
//!   floor; 0 disables deadlines), per-request panic isolation with
//!   session quarantine, and graceful drain that flushes a tp-obs run
//!   manifest. Seeded [`tp_gnn::FaultPlan`] request faults make every
//!   failure path deterministically testable.
//! - **Registry** ([`registry`]) — the wire `register` op ships design
//!   parameters over JSONL; builds are cached under a content hash so
//!   re-registration and duplicate designs are free (DESIGN.md §12).

pub mod client;
pub mod json;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session;
pub mod snapshot;

pub use client::Client;
pub use json::JsonValue;
pub use protocol::{register_line, Envelope, RegisterSpec, Request};
pub use registry::{content_hash, CachedDesign, DesignRegistry};
pub use server::{prediction_hash, DrainReport, ServeConfig, Server};
pub use session::DesignSession;
pub use snapshot::{ModelSnapshot, SnapshotError, SnapshotStore};
