//! `parallex::resilience` — surviving faults on commodity clusters.
//!
//! AMT runtimes deployed on cheap Arm nodes (the paper's Kunpeng and
//! ThunderX2 boxes, the follow-up Raspberry Pi clusters) see flaky
//! networks and node loss as a matter of course; HPX ships
//! `hpx::resiliency` for exactly this. This module is our equivalent,
//! spanning three layers:
//!
//! * **Fault injection** ([`fault`]): a seeded, replayable [`FaultPlan`]
//!   drives the [`FaultyParcelport`] decorator (drop / duplicate /
//!   delay-reorder / bit-corrupt / crash / hang) and schedules the task
//!   panics a solver's step replay injects ([`FaultPlan::panic_steps`]).
//!   Determinism is the point: any chaos failure replays from its seed.
//! * **Reliable delivery** ([`reliable`]): per-peer sequence numbers,
//!   ack/retransmit, receive-side dedup and an end-to-end payload
//!   checksum turn an unreliable transport into at-least-once delivery
//!   with exactly-once handoff.
//! * **Failure detection** ([`heartbeat`]) and **recovery combinators**
//!   ([`replay`]): phi-style peer liveness over heartbeat parcels, and
//!   HPX-style `async_replay` / `async_replicate` on futures.

pub mod fault;
pub mod heartbeat;
pub mod reliable;
pub mod replay;

pub use fault::{ChaosSpec, FaultPlan, FaultyParcelport, SendFate, SplitMix64};
pub use heartbeat::{HeartbeatConfig, PeerHealth, PeerState, HEARTBEAT_ACTION};
pub use reliable::{ReliableConfig, ReliableParcelport, RELIABLE_ACK, RELIABLE_DATA};
pub use replay::{async_replay, async_replicate, async_replicate_vote, replay_sync, retry};
