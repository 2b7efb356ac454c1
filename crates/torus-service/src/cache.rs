//! The LRU plan cache shared by every job the engine runs.
//!
//! Preparing an exchange is the expensive part of a job: building the
//! schedule, the seeding tables, the verification tables, and the step
//! plan is `O(N²)` in nodes, while executing a cached plan is pure data
//! movement. Two jobs with the same `(shape, block_bytes, workers)` key
//! execute byte-for-byte identical schedules, so the cache hands both
//! the *same* reference-counted [`PreparedExchange`] and
//! [`StepPlan`] — plus a shared [`PoolBank`] so the warm frame buffers
//! one job's workers grew are recycled by the next job's workers.
//!
//! Everything cached is immutable schedule state (the `PoolBank` is
//! internally synchronized), so sharing an entry across concurrently
//! executing jobs is safe; per-run mutable state lives in the runtime's
//! per-run context, never in the cache.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use alltoall_core::steps::StepPlan;
use alltoall_core::PreparedExchange;
use torus_runtime::{CollectivePlan, JobOp, PoolBank};
use torus_topology::TorusShape;

/// Cache key: jobs agreeing on all four fields share a plan.
///
/// `workers` is the *resolved* per-job worker count (after clamping to
/// the node count and the pool size), not the raw config value, so
/// `workers: None` and an explicit `workers: Some(default)` hit the
/// same entry. `op` is part of the key because different collectives
/// (and different roots of the same collective) lower to different
/// step manifests.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Logical torus shape of the exchange.
    pub shape: TorusShape,
    /// Bytes per `(src, dst)` block.
    pub block_bytes: usize,
    /// Resolved worker-thread count the job will run with.
    pub workers: usize,
    /// The operation the plan executes (all-to-all or a collective,
    /// including its root/operator/dtype parameters).
    pub op: JobOp,
}

/// The op-specific immutable schedule state of a cache entry.
pub enum PlanVariant {
    /// An all-to-all exchange plan.
    Alltoall {
        /// Prepared schedule, seeding, and verification tables.
        prepared: Arc<PreparedExchange>,
        /// Flattened per-step execution plan.
        plan: Arc<StepPlan>,
    },
    /// A lowered collective send manifest.
    Collective {
        /// The validated collective plan.
        plan: Arc<CollectivePlan>,
    },
}

/// One cache entry: the immutable schedule state shared across jobs.
pub struct CachedPlan {
    /// The op-specific plan.
    pub variant: PlanVariant,
    /// Warm frame pools recycled across jobs with this key.
    pub bank: Arc<PoolBank>,
}

impl std::fmt::Debug for CachedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("CachedPlan");
        match &self.variant {
            PlanVariant::Alltoall { plan, .. } => d
                .field("op", &"alltoall")
                .field("shape", plan.shape())
                .field("total_steps", &plan.total_steps()),
            PlanVariant::Collective { plan } => d
                .field("op", &plan.op().kind())
                .field("shape", plan.shape())
                .field("total_steps", &plan.num_steps()),
        }
        .finish_non_exhaustive()
    }
}

/// Outcome of [`PlanCache::begin_lookup`]: what the caller must do
/// next for its key.
#[derive(Debug)]
pub enum Lookup {
    /// The plan is cached — use it. Counted as a hit.
    Hit(Arc<CachedPlan>),
    /// Nothing cached and nobody building: the caller now owns the
    /// build for this key and must finish with [`PlanCache::complete_build`]
    /// or [`PlanCache::abandon_build`]. Counted as a miss.
    Build,
    /// Another caller is already building this key. Wait (on whatever
    /// condvar the owner pairs with the cache mutex) and retry; counted
    /// as neither hit nor miss — the retry decides.
    Wait,
}

/// A bounded LRU map from [`PlanKey`] to [`CachedPlan`], with
/// single-flight build coordination.
///
/// Not internally synchronized — the engine wraps it in a `Mutex` held
/// only for lookup/insert, never while a job executes. Blocking for an
/// in-flight build happens on a condvar paired with that mutex, never
/// inside the cache itself.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<PlanKey, (Arc<CachedPlan>, u64)>,
    /// Keys whose plan is being built right now. A key in this set and
    /// in `entries` at once is impossible: `complete_build` does both
    /// transitions under the caller's single cache lock.
    building: HashSet<PlanKey>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            building: HashSet::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Single-flight lookup: a hit returns the plan, a cold key claims
    /// the build for this caller, and a key someone else is already
    /// building says `Lookup::Wait`. Exactly one caller per cold key
    /// ever sees `Lookup::Build`, so concurrent jobs sharing a key
    /// pay for one `O(N²)` plan construction, not one each.
    pub fn begin_lookup(&mut self, key: &PlanKey) -> Lookup {
        self.tick += 1;
        if let Some((plan, used)) = self.entries.get_mut(key) {
            *used = self.tick;
            self.hits += 1;
            return Lookup::Hit(Arc::clone(plan));
        }
        if self.building.contains(key) {
            return Lookup::Wait;
        }
        self.building.insert(key.clone());
        self.misses += 1;
        Lookup::Build
    }

    /// Publishes a finished build claimed via `Lookup::Build` and
    /// releases the key's build claim in one step. The caller must
    /// notify its condvar afterwards so waiters retry.
    pub fn complete_build(&mut self, key: PlanKey, plan: Arc<CachedPlan>) {
        self.building.remove(&key);
        self.insert(key, plan);
    }

    /// Releases a build claim without publishing a plan (the build
    /// failed). The caller must notify its condvar afterwards; a
    /// retrying waiter will claim the build itself and surface the
    /// same construction error.
    pub fn abandon_build(&mut self, key: &PlanKey) {
        self.building.remove(key);
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<CachedPlan>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((plan, used)) => {
                *used = self.tick;
                self.hits += 1;
                Some(Arc::clone(plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `plan` under `key`, evicting the least-recently-used
    /// entry if the cache is at capacity. Jobs still holding an `Arc`
    /// to an evicted plan keep running — eviction only forgets the
    /// entry, it never invalidates in-flight work.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<CachedPlan>) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, (plan, self.tick));
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to build a plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(r: u32, c: u32) -> PlanKey {
        PlanKey {
            shape: TorusShape::new_2d(r, c).unwrap(),
            block_bytes: 64,
            workers: 2,
            op: JobOp::Alltoall,
        }
    }

    fn entry(shape: &TorusShape) -> Arc<CachedPlan> {
        let prepared = Arc::new(PreparedExchange::new(shape).unwrap());
        let plan = prepared.step_plan_arc();
        Arc::new(CachedPlan {
            variant: PlanVariant::Alltoall { prepared, plan },
            bank: Arc::new(PoolBank::new()),
        })
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let mut cache = PlanCache::new(4);
        let k = key(2, 2);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), entry(&k.shape));
        assert!(cache.get(&k).is_some());
        assert!(cache.get(&k).is_some());
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let mut cache = PlanCache::new(4);
        let a = key(2, 2);
        let mut b = key(2, 2);
        b.block_bytes = 128;
        cache.insert(a.clone(), entry(&a.shape));
        assert!(cache.get(&b).is_none(), "block_bytes is part of the key");
        let mut c = key(2, 2);
        c.workers = 4;
        assert!(cache.get(&c).is_none(), "workers is part of the key");
        let mut d = key(2, 2);
        d.op = JobOp::Collective(torus_runtime::CollectiveOp::Allgather);
        assert!(cache.get(&d).is_none(), "op is part of the key");
        let mut e = key(2, 2);
        e.op = JobOp::Collective(torus_runtime::CollectiveOp::Broadcast { root: 1 });
        assert!(cache.get(&e).is_none(), "op parameters are part of the key");
        assert!(cache.get(&a).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_entry_at_capacity() {
        let mut cache = PlanCache::new(2);
        let a = key(2, 2);
        let b = key(2, 4);
        let c = key(4, 4);
        cache.insert(a.clone(), entry(&a.shape));
        cache.insert(b.clone(), entry(&b.shape));
        // Touch `a` so `b` is the LRU entry when `c` arrives.
        assert!(cache.get(&a).is_some());
        cache.insert(c.clone(), entry(&c.shape));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some(), "recently used entry survives");
        assert!(cache.get(&c).is_some(), "new entry present");
        assert!(cache.get(&b).is_none(), "LRU entry evicted");
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = PlanCache::new(2);
        let a = key(2, 2);
        let b = key(2, 4);
        cache.insert(a.clone(), entry(&a.shape));
        cache.insert(b.clone(), entry(&b.shape));
        cache.insert(a.clone(), entry(&a.shape));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&b).is_some());
    }

    #[test]
    fn single_flight_admits_exactly_one_builder_per_cold_key() {
        let mut cache = PlanCache::new(4);
        let k = key(2, 2);
        assert!(matches!(cache.begin_lookup(&k), Lookup::Build));
        // Second and third lookups while the build is in flight wait —
        // they neither build nor count toward hits or misses.
        assert!(matches!(cache.begin_lookup(&k), Lookup::Wait));
        assert!(matches!(cache.begin_lookup(&k), Lookup::Wait));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        cache.complete_build(k.clone(), entry(&k.shape));
        // Retrying waiters now hit; the cold key cost exactly one miss.
        assert!(matches!(cache.begin_lookup(&k), Lookup::Hit(_)));
        assert!(matches!(cache.begin_lookup(&k), Lookup::Hit(_)));
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn abandoned_build_lets_the_next_lookup_claim_the_key() {
        let mut cache = PlanCache::new(4);
        let k = key(2, 2);
        assert!(matches!(cache.begin_lookup(&k), Lookup::Build));
        cache.abandon_build(&k);
        // The failed build published nothing; a retrying waiter claims
        // the build itself rather than waiting forever.
        assert!(matches!(cache.begin_lookup(&k), Lookup::Build));
        assert_eq!(cache.misses(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_entries_are_the_same_allocation() {
        let mut cache = PlanCache::new(2);
        let k = key(2, 2);
        cache.insert(k.clone(), entry(&k.shape));
        let first = cache.get(&k).unwrap();
        let second = cache.get(&k).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        match (&first.variant, &second.variant) {
            (PlanVariant::Alltoall { plan: a, .. }, PlanVariant::Alltoall { plan: b, .. }) => {
                assert!(Arc::ptr_eq(a, b));
            }
            _ => panic!("expected all-to-all entries"),
        }
    }
}
