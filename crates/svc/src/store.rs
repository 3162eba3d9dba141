//! Fleet-scale session lifecycle: the [`SessionStore`] (LRU eviction over
//! a capacity/byte budget) and the bounded [`ProofCache`].
//!
//! The service's original session registry was a `HashMap` that grew
//! monotonically — every registered circuit pinned its proving key (the
//! eight circuit MLE tables plus any precomputed commit tables) forever. A
//! fleet holding millions of sessions cannot do that. The store keeps the
//! *provisioned* working set bounded: when a session is evicted it drops
//! its proving key and commit tables but keeps the verifying key and
//! digest, so a later `SubmitCircuit` of the same bytes transparently
//! re-provisions it on the same shard. Jobs already queued keep proving —
//! every queued job carries its own `Arc<ProvingKey>`, so eviction never
//! races an in-flight wave.
//!
//! The proof cache closes the other reuse loop: identical resubmissions
//! (same circuit digest, same canonical witness bytes) answer with the
//! previously proven bytes without queueing. Keys pair the circuit digest
//! with the witness digest, so cross-session collisions would require a
//! SHA3-256 collision; entries are LRU-evicted under a byte bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zkspeed_hyperplonk::{ProvingKey, VerifyingKey};

use crate::sync::lock;

/// Lifecycle state of a registered session.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SessionState {
    /// Provisioned: proving key resident, jobs are accepted.
    Active = 0,
    /// Evicted: verifying key and digest retained, proving key dropped.
    /// Submissions are rejected until the circuit is re-registered.
    Evicted = 1,
}

impl SessionState {
    /// Decodes a session-state tag byte.
    pub fn from_u8(tag: u8) -> Option<SessionState> {
        match tag {
            0 => Some(SessionState::Active),
            1 => Some(SessionState::Evicted),
            _ => None,
        }
    }

    /// Lower-case label used in metrics JSON and CLI listings.
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Active => "active",
            SessionState::Evicted => "evicted",
        }
    }
}

/// Inspection row describing one session the store knows about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session's circuit digest.
    pub digest: [u8; 32],
    /// The circuit's `μ`.
    pub num_vars: usize,
    /// Current lifecycle state.
    pub state: SessionState,
    /// The shard the session's jobs queue on.
    pub shard: usize,
    /// Estimated resident bytes of the proving key (circuit MLE tables plus
    /// precomputed commit tables); 0 once evicted.
    pub resident_bytes: u64,
}

/// A provisioned session handed to the submit path. (The verifying key is
/// fetched separately through [`SessionStore::verifying_key`] — it
/// survives eviction, unlike this handle.)
pub(crate) struct ActiveSession {
    pub(crate) pk: Arc<ProvingKey>,
    pub(crate) num_vars: usize,
    pub(crate) shard: usize,
}

struct SessionEntry {
    /// `Some` while active; dropped on eviction.
    pk: Option<Arc<ProvingKey>>,
    vk: Arc<VerifyingKey>,
    num_vars: usize,
    shard: usize,
    resident_bytes: u64,
    /// Logical LRU stamp (monotonic counter, not wall-clock).
    last_touch: u64,
}

/// The bounded session registry. Counts and budgets apply to **active**
/// sessions only; evicted entries cost a verifying key each.
pub(crate) struct SessionStore {
    entries: Mutex<HashMap<[u8; 32], SessionEntry>>,
    clock: AtomicU64,
    /// Maximum active sessions; 0 = unlimited.
    capacity: usize,
    /// Maximum summed `resident_bytes` over active sessions; 0 = unlimited.
    byte_budget: u64,
    pub(crate) evictions: AtomicU64,
    pub(crate) reprovisions: AtomicU64,
    pub(crate) rejected_evicted: AtomicU64,
}

impl SessionStore {
    pub(crate) fn new(capacity: usize, byte_budget: u64) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(1),
            capacity,
            byte_budget,
            evictions: AtomicU64::new(0),
            reprovisions: AtomicU64::new(0),
            rejected_evicted: AtomicU64::new(0),
        }
    }

    fn touch(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The session's state, or `None` for digests never registered.
    pub(crate) fn state(&self, digest: &[u8; 32]) -> Option<SessionState> {
        lock(&self.entries).get(digest).map(|e| match e.pk {
            Some(_) => SessionState::Active,
            None => SessionState::Evicted,
        })
    }

    /// The provisioned session under `digest`, touching its LRU stamp, or
    /// `None` when unknown or evicted.
    pub(crate) fn get_active(&self, digest: &[u8; 32]) -> Option<ActiveSession> {
        let stamp = self.touch();
        let mut entries = lock(&self.entries);
        let entry = entries.get_mut(digest)?;
        let pk = entry.pk.as_ref()?;
        entry.last_touch = stamp;
        Some(ActiveSession {
            pk: Arc::clone(pk),
            num_vars: entry.num_vars,
            shard: entry.shard,
        })
    }

    /// The verifying key, retained across eviction.
    pub(crate) fn verifying_key(&self, digest: &[u8; 32]) -> Option<Arc<VerifyingKey>> {
        lock(&self.entries).get(digest).map(|e| Arc::clone(&e.vk))
    }

    /// The shard a known session is assigned to (evicted sessions keep
    /// their assignment for re-provisioning).
    pub(crate) fn shard_of(&self, digest: &[u8; 32]) -> Option<usize> {
        lock(&self.entries).get(digest).map(|e| e.shard)
    }

    /// Reassigns a session's shard (the rebalancer's move operation). Jobs
    /// already queued keep their original shard; only future submissions
    /// follow the new assignment.
    pub(crate) fn set_shard(&self, digest: &[u8; 32], shard: usize) -> bool {
        match lock(&self.entries).get_mut(digest) {
            Some(entry) => {
                entry.shard = shard;
                true
            }
            None => false,
        }
    }

    /// Inserts (or re-provisions) a session as active and runs the LRU
    /// eviction pass. Returns the digests evicted to make room.
    pub(crate) fn insert_active(
        &self,
        digest: [u8; 32],
        pk: Arc<ProvingKey>,
        vk: Arc<VerifyingKey>,
        num_vars: usize,
        shard: usize,
        resident_bytes: u64,
    ) -> Vec<[u8; 32]> {
        let stamp = self.touch();
        let mut entries = lock(&self.entries);
        let reprovision = matches!(entries.get(&digest), Some(e) if e.pk.is_none());
        entries.insert(
            digest,
            SessionEntry {
                pk: Some(pk),
                vk,
                num_vars,
                shard,
                resident_bytes,
                last_touch: stamp,
            },
        );
        if reprovision {
            self.reprovisions.fetch_add(1, Ordering::Relaxed);
        }
        self.evict_over_budget(&mut entries)
    }

    /// Evicts least-recently-used active sessions until both the capacity
    /// and the byte budget hold. The most recently touched session is never
    /// evicted, so a session that fits neither budget alone still serves
    /// the jobs submitted right after its registration.
    fn evict_over_budget(&self, entries: &mut HashMap<[u8; 32], SessionEntry>) -> Vec<[u8; 32]> {
        let mut evicted = Vec::new();
        loop {
            let active: Vec<([u8; 32], u64)> = entries
                .iter()
                .filter(|(_, e)| e.pk.is_some())
                .map(|(d, e)| (*d, e.last_touch))
                .collect();
            if active.len() <= 1 {
                return evicted;
            }
            let over_count = self.capacity > 0 && active.len() > self.capacity;
            let over_bytes = self.byte_budget > 0
                && entries
                    .values()
                    .filter(|e| e.pk.is_some())
                    .map(|e| e.resident_bytes)
                    .sum::<u64>()
                    > self.byte_budget;
            if !over_count && !over_bytes {
                return evicted;
            }
            let lru = *active
                .iter()
                .min_by_key(|(_, stamp)| *stamp)
                .map(|(d, _)| d)
                .expect("at least two active sessions");
            let entry = entries.get_mut(&lru).expect("digest just listed");
            entry.pk = None;
            entry.resident_bytes = 0;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted.push(lru);
        }
    }

    /// Active session count.
    pub(crate) fn active_count(&self) -> usize {
        lock(&self.entries)
            .values()
            .filter(|e| e.pk.is_some())
            .count()
    }

    /// Total sessions known (active + evicted).
    pub(crate) fn total_count(&self) -> usize {
        lock(&self.entries).len()
    }

    /// The configured capacity (0 = unlimited).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inspection rows for every known session, ordered by digest.
    pub(crate) fn snapshot(&self) -> Vec<SessionInfo> {
        let entries = lock(&self.entries);
        let mut rows: Vec<SessionInfo> = entries
            .iter()
            .map(|(digest, e)| SessionInfo {
                digest: *digest,
                num_vars: e.num_vars,
                state: match e.pk {
                    Some(_) => SessionState::Active,
                    None => SessionState::Evicted,
                },
                shard: e.shard,
                resident_bytes: e.resident_bytes,
            })
            .collect();
        rows.sort_unstable_by_key(|r| r.digest);
        rows
    }
}

struct ProofEntry {
    proof: Arc<Vec<u8>>,
    last_touch: u64,
}

struct ProofCacheState {
    entries: HashMap<([u8; 32], [u8; 32]), ProofEntry>,
    bytes: u64,
    clock: u64,
}

/// Bounded LRU cache of canonical proof bytes keyed by
/// `(circuit_digest, witness_digest)`. Disabled at capacity 0: every
/// operation is a no-op, so the default service pays nothing for it.
pub(crate) struct ProofCache {
    state: Mutex<ProofCacheState>,
    capacity_bytes: u64,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    pub(crate) insertions: AtomicU64,
    pub(crate) evictions: AtomicU64,
}

impl ProofCache {
    pub(crate) fn new(capacity_bytes: u64) -> Self {
        Self {
            state: Mutex::new(ProofCacheState {
                entries: HashMap::new(),
                bytes: 0,
                clock: 1,
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    pub(crate) fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Looks up a cached proof, touching its LRU stamp and counting the
    /// hit/miss.
    pub(crate) fn get(&self, circuit: &[u8; 32], witness: &[u8; 32]) -> Option<Arc<Vec<u8>>> {
        if !self.enabled() {
            return None;
        }
        let mut state = lock(&self.state);
        state.clock += 1;
        let stamp = state.clock;
        match state.entries.get_mut(&(*circuit, *witness)) {
            Some(entry) => {
                entry.last_touch = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.proof))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly proven result, evicting least-recently-used
    /// entries while over the byte bound. Proofs larger than the whole
    /// cache are skipped.
    pub(crate) fn insert(&self, circuit: [u8; 32], witness: [u8; 32], proof: Arc<Vec<u8>>) {
        if !self.enabled() || proof.len() as u64 > self.capacity_bytes {
            return;
        }
        let mut state = lock(&self.state);
        state.clock += 1;
        let stamp = state.clock;
        let added = proof.len() as u64;
        let previous = state.entries.insert(
            (circuit, witness),
            ProofEntry {
                proof,
                last_touch: stamp,
            },
        );
        state.bytes += added;
        if let Some(previous) = previous {
            state.bytes -= previous.proof.len() as u64;
        } else {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        while state.bytes > self.capacity_bytes {
            let lru = *state
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(k, _)| k)
                .expect("bytes > 0 implies entries");
            let removed = state.entries.remove(&lru).expect("key just listed");
            state.bytes -= removed.proof.len() as u64;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current `(entries, bytes)` gauges.
    pub(crate) fn usage(&self) -> (usize, u64) {
        let state = lock(&self.state);
        (state.entries.len(), state.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkspeed_hyperplonk::{try_preprocess, Circuit, GateSelectors};
    use zkspeed_pcs::{PrecomputeBudget, Srs};
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    fn keys() -> (Arc<ProvingKey>, Arc<VerifyingKey>) {
        use std::sync::OnceLock;
        static KEYS: OnceLock<(Arc<ProvingKey>, Arc<VerifyingKey>)> = OnceLock::new();
        KEYS.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0x5707e);
            let srs = Srs::try_setup(1, &mut rng, &Serial).expect("tiny setup");
            let circuit = Circuit::with_identity_wiring(&vec![GateSelectors::addition(); 2]);
            let (pk, vk) = try_preprocess(circuit, &srs, &Serial, &PrecomputeBudget::disabled())
                .expect("fits");
            (Arc::new(pk), Arc::new(vk))
        })
        .clone()
    }

    fn store_with(store: &SessionStore, digest: u8, bytes: u64) -> Vec<[u8; 32]> {
        let (pk, vk) = keys();
        store.insert_active([digest; 32], pk, vk, 1, digest as usize % 2, bytes)
    }

    #[test]
    fn lru_eviction_respects_capacity_and_keeps_vk() {
        let store = SessionStore::new(2, 0);
        assert!(store_with(&store, 1, 100).is_empty());
        assert!(store_with(&store, 2, 100).is_empty());
        // Touch session 1 so session 2 is the LRU candidate.
        assert!(store.get_active(&[1u8; 32]).is_some());
        let evicted = store_with(&store, 3, 100);
        assert_eq!(evicted, vec![[2u8; 32]]);
        assert_eq!(store.state(&[2u8; 32]), Some(SessionState::Evicted));
        assert_eq!(store.state(&[1u8; 32]), Some(SessionState::Active));
        assert!(store.get_active(&[2u8; 32]).is_none());
        assert!(store.verifying_key(&[2u8; 32]).is_some(), "vk retained");
        assert_eq!(store.active_count(), 2);
        assert_eq!(store.total_count(), 3);
        assert_eq!(store.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn byte_budget_evicts_but_never_the_newest() {
        let store = SessionStore::new(0, 250);
        assert!(store_with(&store, 1, 200).is_empty());
        // 200 + 200 > 250: the older session goes.
        assert_eq!(store_with(&store, 2, 200), vec![[1u8; 32]]);
        // A single session over the whole budget still stays resident.
        let evicted = store_with(&store, 3, 400);
        assert_eq!(evicted, vec![[2u8; 32]]);
        assert_eq!(store.state(&[3u8; 32]), Some(SessionState::Active));
    }

    #[test]
    fn reactivation_counts_and_keeps_shard() {
        let store = SessionStore::new(1, 0);
        store_with(&store, 1, 10);
        store_with(&store, 2, 10); // evicts 1
        assert_eq!(store.state(&[1u8; 32]), Some(SessionState::Evicted));
        let shard_before = store.shard_of(&[1u8; 32]).unwrap();
        store_with(&store, 1, 10); // re-provision
        assert_eq!(store.state(&[1u8; 32]), Some(SessionState::Active));
        assert_eq!(store.shard_of(&[1u8; 32]), Some(shard_before));
        assert_eq!(store.reprovisions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn snapshot_orders_by_digest_and_reports_state() {
        let store = SessionStore::new(1, 0);
        store_with(&store, 9, 64);
        store_with(&store, 3, 64); // evicts 9
        let rows = store.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].digest, [3u8; 32]);
        assert_eq!(rows[0].state, SessionState::Active);
        assert_eq!(rows[0].resident_bytes, 64);
        assert_eq!(rows[1].digest, [9u8; 32]);
        assert_eq!(rows[1].state, SessionState::Evicted);
        assert_eq!(rows[1].resident_bytes, 0);
    }

    #[test]
    fn disabled_proof_cache_is_inert() {
        let cache = ProofCache::new(0);
        assert!(!cache.enabled());
        cache.insert([1; 32], [2; 32], Arc::new(vec![0; 16]));
        assert!(cache.get(&[1; 32], &[2; 32]).is_none());
        assert_eq!(cache.hits.load(Ordering::Relaxed), 0);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 0);
        assert_eq!(cache.usage(), (0, 0));
    }

    #[test]
    fn proof_cache_hits_and_stays_bounded_under_churn() {
        let cache = ProofCache::new(256);
        cache.insert([1; 32], [1; 32], Arc::new(vec![0xaa; 100]));
        assert_eq!(
            cache.get(&[1; 32], &[1; 32]).map(|p| p.len()),
            Some(100),
            "inserted proof is retrievable"
        );
        // Churn: many distinct witnesses; the cache never exceeds its bound.
        for w in 2..50u8 {
            cache.insert([1; 32], [w; 32], Arc::new(vec![w; 100]));
            let (entries, bytes) = cache.usage();
            assert!(bytes <= 256, "cache over budget: {bytes}");
            assert!(entries <= 2);
        }
        assert!(cache.evictions.load(Ordering::Relaxed) > 0);
        // Different circuit digest, same witness digest: distinct key.
        cache.insert([7; 32], [49; 32], Arc::new(vec![1; 8]));
        cache.insert([8; 32], [49; 32], Arc::new(vec![2; 8]));
        assert_eq!(cache.get(&[7; 32], &[49; 32]).map(|p| p[0]), Some(1));
        assert_eq!(cache.get(&[8; 32], &[49; 32]).map(|p| p[0]), Some(2));
        // Oversized proofs are skipped, not cached.
        cache.insert([9; 32], [9; 32], Arc::new(vec![0; 1024]));
        assert!(cache.get(&[9; 32], &[9; 32]).is_none());
    }

    #[test]
    fn proof_cache_lru_keeps_recently_used_entries() {
        let cache = ProofCache::new(300);
        cache.insert([1; 32], [1; 32], Arc::new(vec![1; 100]));
        cache.insert([1; 32], [2; 32], Arc::new(vec![2; 100]));
        cache.insert([1; 32], [3; 32], Arc::new(vec![3; 100]));
        // Touch entry 1 so entry 2 is the LRU victim.
        assert!(cache.get(&[1; 32], &[1; 32]).is_some());
        cache.insert([1; 32], [4; 32], Arc::new(vec![4; 100]));
        assert!(cache.get(&[1; 32], &[1; 32]).is_some());
        assert!(cache.get(&[1; 32], &[2; 32]).is_none());
    }
}
