//! `tecopt-serve` — a fault-tolerant evaluation service for the tecopt
//! thin-film TEC cooling optimizer.
//!
//! The paper's workloads (steady solves of Eq. 4, λ_m runaway sweeps,
//! designer candidate sweeps) become request/response jobs behind a
//! dependency-free line-framed protocol over TCP, or
//! behind the in-process [`Engine`] API directly. The service layer adds
//! what a long-running deployment needs and the library deliberately
//! does not: bounded admission with typed [`ServeError::Overloaded`]
//! load shedding, per-request deadlines mapped onto
//! [`tecopt::RunContext`], per-request panic containment, idempotent
//! retries deduplicated against a result cache, disconnect-triggered
//! cancellation, and a graceful drain that checkpoints long sweeps.
//! See DESIGN.md §13 for the architecture.
//!
//! On top of single-server operation sits the **fleet tier** (DESIGN.md
//! §17): a [`Router`] consistent-hashes idempotency keys across engine
//! shards (in-process [`LocalShard`] or socket-backed [`RemoteShard`]
//! behind the one [`ShardHandle`] trait), health-checks them through a
//! hysteretic `Healthy → Suspect → Down` machine, fails over on
//! refusals and disconnects with capped jittered backoff, optionally
//! hedges tail-latency stragglers, and replicates the deterministic
//! result cache between shards ([`Replicator`]) so a failover often
//! lands on a shard that already knows the answer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub mod client;
pub mod engine;
pub mod error;
pub mod health;
pub mod queue;
pub mod replicate;
pub mod router;
pub mod server;
mod util;
pub mod wire;

pub use client::{Client, ClientError, RetryPolicy};
pub use engine::{Engine, EngineConfig, Evaluator, MetricsSnapshot, TecEvaluator, Ticket};
pub use error::ServeError;
pub use health::{HealthMonitor, HealthPolicy, HealthState};
pub use queue::{BoundedQueue, PushError};
pub use replicate::{ReplEntry, ReplicationSink, Replicator};
pub use router::{
    HedgePolicy, LocalShard, RemoteShard, Router, RouterConfig, RouterMetricsSnapshot, ShardHandle,
};
pub use server::{Listener, Server, ServerConfig, ServerReport};
pub use wire::{Request, RequestFrame, Response, ResponseFrame};
