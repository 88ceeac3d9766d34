//! Multi-process sharded serving: remote scatter legs and the router.
//!
//! [`ShardedEngine`](crate::ShardedEngine) scatters over in-process
//! [`LocalLeg`](crate::LocalLeg)s; this module promotes those legs to
//! **separate `verd` processes**. A [`RemoteLeg`] implements the same
//! [`ShardBackend`] contract by speaking the `verd` wire protocol
//! (`ShardQuery` → `ShardOutput`) through the
//! [`ResilientClient`](crate::net::resilient) envelope — per-attempt
//! timeouts, reconnect-on-error, jittered backoff, per-leg circuit
//! breaker. A [`RouterEngine`] fans a query over one remote leg per shard
//! and finishes it centrally ([`Ver::gather_shard_outputs`]).
//!
//! **Determinism invariant 13.** With every leg healthy, the router's
//! answer is bit-identical to the in-process [`ShardedEngine`](crate::ShardedEngine)
//! at the same shard count — and therefore to the single engine
//! (invariant 11): each leg runs COLUMN-SELECTION itself (a pure function
//! of index + spec + config, so every process computes the same
//! selection), ships its slice whole over the wire, and the router merges
//! through the same content-based total order. Pinned against live
//! processes in `tests/chaos.rs`.
//!
//! **Failure model.** A leg that cannot answer — process killed
//! mid-query, connection refused while it restarts, circuit open, retry
//! budget exhausted, deadline passed — is *dropped at the gather* and the
//! merged result is flagged partial, exactly the PR 7/8 contract: a shard
//! failure is never an error, and partial results are never cached. The
//! query budget is deducted before every remote attempt, so the wire
//! carries remaining (not original) milliseconds. Per-leg health is
//! visible in [`RouterEngine::leg_stats`] and on the `Stats` wire reply.

use crate::engine::{Engine, MissBackend, ServeConfig};
use crate::net::resilient::{BreakerState, ResilientClient, RetryPolicy};
use crate::sharded::{Scatter, ShardBackend};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use ver_common::budget::QueryBudget;
use ver_common::error::{Result, VerError};
use ver_common::sync::lock_unpoisoned;
use ver_core::{QueryResult, Ver};
use ver_index::DiscoveryIndex;
use ver_qbe::ViewSpec;
use ver_search::{SearchCaches, ShardSearchOutput};
use ver_store::catalog::TableCatalog;

/// Point-in-time health snapshot of one remote leg, as surfaced in
/// [`RouterEngine::leg_stats`] and on the `Stats` wire reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterLegStats {
    /// The leg's `verd` address.
    pub addr: String,
    /// Network attempts made (first tries, retries, and probes).
    pub attempts: u64,
    /// Attempts beyond the first within a single call.
    pub retries: u64,
    /// Attempts that failed at the transport level.
    pub failures: u64,
    /// Queries in which this leg was dropped and the merge degraded.
    pub failovers: u64,
    /// Circuit-breaker state at snapshot time.
    pub breaker: BreakerState,
}

/// A [`ShardBackend`] that runs its leg on a remote shard-serving `verd`
/// through the resilient-client envelope.
///
/// The wrapped client is behind a `Mutex` because the wire protocol is
/// strictly request→response per connection; the scatter runs each leg on
/// its own pool worker, so legs never contend on one another's locks.
pub struct RemoteLeg {
    addr: SocketAddr,
    client: Mutex<ResilientClient>,
}

impl RemoteLeg {
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> RemoteLeg {
        RemoteLeg {
            addr,
            client: Mutex::new(ResilientClient::new(addr, policy)),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current health counters and breaker state; `failovers` is the
    /// scatter's count of queries that dropped this leg.
    pub fn stats(&self, failovers: u64) -> RouterLegStats {
        let client = lock_unpoisoned(&self.client);
        let c = client.counters();
        RouterLegStats {
            addr: self.addr.to_string(),
            attempts: c.attempts,
            retries: c.retries,
            failures: c.failures,
            failovers,
            breaker: client.breaker_state(),
        }
    }
}

impl ShardBackend for RemoteLeg {
    fn leg_query(
        &self,
        spec: &ViewSpec,
        shard: usize,
        shard_count: usize,
        budget: &QueryBudget,
    ) -> Result<ShardSearchOutput> {
        let out = lock_unpoisoned(&self.client).shard_query(
            spec,
            shard as u32,
            shard_count as u32,
            budget,
        )?;
        if (out.shard, out.shard_count) != (shard, shard_count) {
            return Err(VerError::Protocol(format!(
                "leg {} answered for shard {}/{} but was asked {shard}/{shard_count}",
                self.addr, out.shard, out.shard_count
            )));
        }
        Ok(out)
    }

    /// Remote legs degrade on everything the local scatter drops **plus**
    /// transport-level failures: a dead or desynced or shedding peer costs
    /// its leg, never the query (the merge is flagged partial instead).
    fn degradable(&self, e: &VerError) -> bool {
        e.degrades() || e.is_transport()
    }
}

impl MissBackend for Scatter<RemoteLeg> {
    fn compute(&self, ver: &Ver, spec: &ViewSpec, budget: &QueryBudget) -> Result<QueryResult> {
        self.scatter(ver, spec, budget)
    }

    /// The router runs no local search.
    fn caches(&self) -> Option<&SearchCaches> {
        None
    }

    fn shard_count(&self) -> usize {
        self.legs.len()
    }

    fn leg_stats(&self) -> Vec<RouterLegStats> {
        let dropped = self.shard_stats();
        self.legs
            .iter()
            .zip(dropped)
            .map(|(leg, shard)| leg.stats(shard.failed))
            .collect()
    }
}

/// The scatter/gather router over remote legs — `verd --route`: the
/// serving front ([`Engine`]) whose every result-cache miss fans out to
/// one [`RemoteLeg`] per shard. The router holds its own catalog + index
/// (the same artifacts the legs serve) for COLUMN-SELECTION and the
/// central finish of every query — merge, distillation, ranking. Per-leg
/// health: [`Engine::leg_stats`].
pub type RouterEngine = Engine<Scatter<RemoteLeg>>;

impl RouterEngine {
    /// Route over one remote leg per address in `addrs` (shard `i` is
    /// served by `addrs[i]`, so the order is part of the deployment).
    pub fn warm_start(
        catalog: Arc<TableCatalog>,
        index: Arc<DiscoveryIndex>,
        config: ServeConfig,
        addrs: &[SocketAddr],
        policy: RetryPolicy,
    ) -> Result<RouterEngine> {
        if addrs.is_empty() {
            return Err(VerError::Config(
                "router mode needs at least one shard-leg address".into(),
            ));
        }
        let ver = Ver::from_parts(catalog, index, config.pipeline.clone())?;
        let legs: Vec<_> = addrs
            .iter()
            .map(|&a| Arc::new(RemoteLeg::new(a, policy)))
            .collect();
        // Fan out wide: legs are network-bound, so give each its own
        // worker regardless of the local compute budget.
        let fanout = legs.len();
        Ok(Engine::assemble(
            ver,
            config,
            Scatter::new(legs, fanout, None),
        ))
    }
}
