//! Fleet-scale session lifecycle: the [`SessionStore`] (LRU eviction over
//! a byte budget), and the owner of every session's metrics row.
//!
//! The store keeps the *provisioned* working set bounded: when a session
//! is evicted it drops its proving key but keeps the
//! verifying key and digest, so a later `SubmitCircuit` of the same bytes
//! transparently re-provisions it on the same shard. Jobs already queued
//! keep proving — every queued job carries its own `Arc<ProvingKey>`, so
//! eviction never races an in-flight wave.
//!
//! An entry is never removed, and it holds its session's submit→proof
//! latency histogram, so [`SessionStore::snapshot`]
//! is the whole per-session table that the metrics scrape and the wire
//! `ListSessions` listing both read.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zkspeed_hyperplonk::{ProvingKey, VerifyingKey};
use zkspeed_rt::trace::Histogram;

use crate::metrics::SessionMetrics;
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

zkspeed_rt::impl_codec_enum!(SessionState { Active, Evicted });

impl SessionState {
    /// Lower-case label used in metrics JSON and CLI listings.
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Active => "active",
            SessionState::Evicted => "evicted",
        }
    }
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
    /// Submit→proof latency of every completed job of the session.
    latency: Histogram,
}

impl SessionEntry {
    fn state(&self) -> SessionState {
        match self.pk {
            Some(_) => SessionState::Active,
            None => SessionState::Evicted,
        }
    }
}

/// The bounded session registry. The budget applies to **active**
/// sessions only; evicted entries cost a verifying key each.
#[derive(Default)]
pub(crate) struct SessionStore {
    entries: Mutex<HashMap<[u8; 32], SessionEntry>>,
    clock: AtomicU64,
    /// Maximum summed `resident_bytes` over active sessions; 0 = unlimited.
    byte_budget: u64,
    pub(crate) evictions: AtomicU64,
    pub(crate) reprovisions: AtomicU64,
    pub(crate) rejected_evicted: AtomicU64,
}

impl SessionStore {
    pub(crate) fn new(byte_budget: u64) -> Self {
        Self {
            clock: AtomicU64::new(1),
            byte_budget,
            ..Self::default()
        }
    }

    fn touch(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The session's state, or `None` for digests never registered.
    pub(crate) fn state(&self, digest: &[u8; 32]) -> Option<SessionState> {
        lock(&self.entries).get(digest).map(SessionEntry::state)
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

    /// Inserts (or re-provisions) a session as active and runs the LRU
    /// eviction pass. A re-provisioned session keeps its latency history.
    /// Returns the digests evicted to make room.
    pub(crate) fn insert_active(
        &self,
        digest: [u8; 32],
        pk: Arc<ProvingKey>,
        vk: Arc<VerifyingKey>,
        shard: usize,
        resident_bytes: u64,
    ) -> Vec<[u8; 32]> {
        let stamp = self.touch();
        let mut entries = lock(&self.entries);
        let previous = entries.remove(&digest);
        if previous.as_ref().is_some_and(|e| e.pk.is_none()) {
            self.reprovisions.fetch_add(1, Ordering::Relaxed);
        }
        entries.insert(
            digest,
            SessionEntry {
                num_vars: pk.circuit.num_vars(),
                pk: Some(pk),
                vk,
                shard,
                resident_bytes,
                last_touch: stamp,
                latency: previous.map(|e| e.latency).unwrap_or_default(),
            },
        );
        self.evict_over_budget(&mut entries)
    }

    /// Records one completed job's submit→proof latency on its session.
    pub(crate) fn record_latency(&self, digest: &[u8; 32], latency_ms: f64) {
        if let Some(entry) = lock(&self.entries).get_mut(digest) {
            entry.latency.record(latency_ms);
        }
    }

    /// Evicts least-recently-used active sessions until the byte budget
    /// holds. The most recently touched session is never evicted, so a
    /// session over the whole budget alone still serves the jobs submitted
    /// right after its registration.
    fn evict_over_budget(&self, entries: &mut HashMap<[u8; 32], SessionEntry>) -> Vec<[u8; 32]> {
        let mut evicted = Vec::new();
        loop {
            let active = entries.iter().filter(|(_, e)| e.pk.is_some());
            let count = active.clone().count();
            let bytes: u64 = active.clone().map(|(_, e)| e.resident_bytes).sum();
            if count <= 1 || self.byte_budget == 0 || bytes <= self.byte_budget {
                return evicted;
            }
            let (&lru, _) = active
                .min_by_key(|(_, e)| e.last_touch)
                .expect("at least two active sessions");
            let entry = entries.get_mut(&lru).expect("digest just listed");
            entry.pk = None;
            entry.resident_bytes = 0;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted.push(lru);
        }
    }

    /// The metrics row of every known session, ordered by digest.
    pub(crate) fn snapshot(&self) -> Vec<SessionMetrics> {
        let entries = lock(&self.entries);
        let mut rows: Vec<SessionMetrics> = entries
            .iter()
            .map(|(digest, e)| SessionMetrics {
                digest: *digest,
                num_vars: e.num_vars,
                state: e.state(),
                shard: e.shard,
                resident_bytes: e.resident_bytes,
                jobs_completed: e.latency.count(),
                p50_ms: e.latency.quantile(0.50),
                p99_ms: e.latency.quantile(0.99),
                max_ms: e.latency.max_ms(),
                latency: e.latency.clone(),
            })
            .collect();
        rows.sort_unstable_by_key(|r| r.digest);
        rows
    }
}

/// A tiny proving and verifying key pair (μ = 1), built once per test
/// binary.
#[cfg(test)]
pub(crate) fn test_keys() -> (Arc<ProvingKey>, Arc<VerifyingKey>) {
    use std::sync::OnceLock;
    use zkspeed_hyperplonk::{try_preprocess, Circuit, GateSelectors};
    use zkspeed_pcs::Srs;
    use zkspeed_rt::pool::Serial;
    use zkspeed_rt::rngs::StdRng;
    use zkspeed_rt::SeedableRng;

    static KEYS: OnceLock<(Arc<ProvingKey>, Arc<VerifyingKey>)> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x5707e);
        let srs = Srs::try_setup(1, &mut rng, &Serial).expect("tiny setup");
        let circuit = Circuit::with_identity_wiring(&vec![GateSelectors::addition(); 2]);
        let (pk, vk) = try_preprocess(circuit, &srs, &Serial).expect("fits");
        (Arc::new(pk), Arc::new(vk))
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(store: &SessionStore, digest: u8, bytes: u64) -> Vec<[u8; 32]> {
        let (pk, vk) = test_keys();
        store.insert_active([digest; 32], pk, vk, digest as usize % 2, bytes)
    }

    #[test]
    fn lru_eviction_respects_capacity_and_keeps_vk() {
        // A budget of two sessions' bytes holds two of them.
        let store = SessionStore::new(200);
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
        let rows = store.snapshot();
        let active = rows.iter().filter(|r| r.state == SessionState::Active);
        assert_eq!((active.count(), rows.len()), (2, 3));
        assert_eq!(store.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn byte_budget_evicts_but_never_the_newest() {
        let store = SessionStore::new(250);
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
        let store = SessionStore::new(1);
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
        let store = SessionStore::new(1);
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
    fn evicted_sessions_keep_their_historical_rows() {
        // Session 1 proves once and is then evicted by session 5: its row
        // keeps the latency history beside the lifecycle state, and
        // re-provisioning carries it over.
        let store = SessionStore::new(1);
        store_with(&store, 1, 64);
        store.record_latency(&[1u8; 32], 25.0);
        assert_eq!(store_with(&store, 5, 777), vec![[1u8; 32]]);
        let rows = store.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].digest, [1u8; 32]);
        assert_eq!(rows[0].state, SessionState::Evicted);
        assert_eq!(rows[0].num_vars, 1);
        assert_eq!(rows[0].resident_bytes, 0);
        assert_eq!(rows[0].jobs_completed, 1);
        let p50 = rows[0].p50_ms;
        assert!((25.0..=25.0 * 1.07).contains(&p50), "p50 {p50}");
        assert_eq!(rows[1].state, SessionState::Active);
        assert_eq!(rows[1].resident_bytes, 777);
        assert_eq!(store.evictions.load(Ordering::Relaxed), 1);

        store_with(&store, 1, 64);
        store.record_latency(&[1u8; 32], 30.0);
        let row = &store.snapshot()[0];
        assert_eq!(row.state, SessionState::Active);
        assert_eq!(row.jobs_completed, 2, "history survives re-provisioning");
        assert_eq!(row.max_ms, 30.0);
    }

    #[test]
    fn latency_histograms_never_drop_samples() {
        // A sliding window would cap each session's samples; the histogram
        // keeps an exact count (and bounded quantile error) however many
        // completions a long-running session accumulates.
        let store = SessionStore::new(0);
        store_with(&store, 9, 64);
        let n = 10_000u64;
        for i in 0..n {
            store.record_latency(&[9u8; 32], i as f64);
        }
        let row = &store.snapshot()[0];
        assert_eq!(row.digest, [9u8; 32]);
        assert_eq!(row.jobs_completed, n);
        assert_eq!(row.max_ms, (n - 1) as f64);
        let exact_p99 = 9900.0; // nearest-rank over 0..9999
        let p99 = row.p99_ms;
        assert!(
            p99 >= exact_p99 && p99 <= exact_p99 * 1.07,
            "p99 {p99} vs exact {exact_p99}"
        );
    }
}
