//! Epoch-based snapshot holder: an atomically swappable handle over one
//! ingested world, so a background re-ingest publishes without ever
//! blocking in-flight readers (DESIGN.md §12).
//!
//! The holder is deliberately simple: the current snapshot lives behind a
//! `Mutex<Arc<Snapshot>>` that is locked only long enough to clone or
//! replace the `Arc` — a few nanoseconds, never across a relaxation, an
//! ingest or a world's destructor. Readers therefore hold a plain
//! `Arc<Snapshot>` and keep working against their epoch for as long as
//! they like; the old epoch's memory is reclaimed by the last `Arc` drop,
//! wherever that happens — on the publisher, after the lock is released,
//! when no reader holds it. A retirement counter (wired by the server's
//! observability) makes that reclamation observable: it increments
//! exactly when the last holder lets go.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use medkb_core::{IngestOutput, QueryRelaxer, RelaxConfig};
use medkb_obs::Counter;

/// One immutable epoch of the world: an ingested snapshot wrapped in a
/// ready-to-serve [`QueryRelaxer`], labeled with the epoch number it was
/// published under and the config fingerprint its answers depend on.
pub struct Snapshot {
    epoch: u64,
    fingerprint: u64,
    relaxer: QueryRelaxer,
    /// Incremented on drop — i.e. when the *last* holder (store or reader)
    /// releases this epoch. `None` when the owning store is uninstrumented.
    retired: Option<Arc<Counter>>,
}

impl Snapshot {
    /// The epoch this snapshot was published under (0 for the initial one).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// [`RelaxConfig::result_fingerprint`] of the serving configuration —
    /// part of the cache key, so config changes can never alias entries.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The relaxation engine bound to this epoch's ingest artifacts.
    pub fn relaxer(&self) -> &QueryRelaxer {
        &self.relaxer
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("fingerprint", &self.fingerprint)
            .finish_non_exhaustive()
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        if let Some(c) = &self.retired {
            c.inc();
        }
    }
}

/// The swappable holder. `load()` is what every request does; `publish()`
/// is what a background re-ingest does. Neither ever blocks the other for
/// longer than an `Arc` clone/store under the mutex.
pub struct SnapshotStore {
    current: Mutex<Arc<Snapshot>>,
    next_epoch: AtomicU64,
    config: RelaxConfig,
    retired: Option<Arc<Counter>>,
}

impl SnapshotStore {
    /// Wrap an ingested world as epoch 0 under `config`. The config is
    /// fixed for the store's lifetime — re-ingests swap *data*, not
    /// semantics; a config change is a new store (and a new fingerprint,
    /// so even a shared cache could never mix the two).
    pub fn new(ingested: IngestOutput, config: RelaxConfig) -> Self {
        Self::with_retired_counter(ingested, config, None)
    }

    /// As [`SnapshotStore::new`], with a counter that fires when an epoch
    /// is reclaimed (last holder dropped). The server wires this to
    /// `serve.snapshot.retired`.
    pub fn with_retired_counter(
        ingested: IngestOutput,
        config: RelaxConfig,
        retired: Option<Arc<Counter>>,
    ) -> Self {
        let snap = Arc::new(Snapshot {
            epoch: 0,
            fingerprint: config.result_fingerprint(),
            relaxer: QueryRelaxer::new(ingested, config.clone()),
            retired: retired.clone(),
        });
        Self { current: Mutex::new(snap), next_epoch: AtomicU64::new(1), config, retired }
    }

    /// Install `snap` as the current snapshot and hand back the one it
    /// displaced. The lock is released before this returns, so dropping
    /// the result — possibly the last reference to a whole world — never
    /// runs inside the critical section.
    fn swap(&self, snap: Arc<Snapshot>) -> Arc<Snapshot> {
        std::mem::replace(&mut *self.current.lock().expect("snapshot store poisoned"), snap)
    }

    /// The current snapshot. Readers hold the returned `Arc` for the whole
    /// request; a concurrent [`SnapshotStore::publish`] never invalidates
    /// it — it only stops *new* loads from seeing it.
    pub fn load(&self) -> Arc<Snapshot> {
        self.current.lock().expect("snapshot store poisoned").clone()
    }

    /// Publish a re-ingested world as the next epoch and return its number.
    ///
    /// All heavy work (building the relaxer over the new artifacts) happens
    /// before the lock is taken, and freeing the displaced world after it
    /// is released; the critical section is a single pointer swap. The
    /// displaced epoch survives exactly as long as its slowest in-flight
    /// reader, and with none it is freed here, on the publisher.
    pub fn publish(&self, ingested: IngestOutput) -> u64 {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        let snap = Arc::new(Snapshot {
            epoch,
            fingerprint: self.config.result_fingerprint(),
            relaxer: QueryRelaxer::new(ingested, self.config.clone()),
            retired: self.retired.clone(),
        });
        drop(self.swap(snap));
        epoch
    }

    /// Publish a world persisted by `medkb-store` as the next epoch.
    ///
    /// The restart-recovery path: instead of re-running Algorithm 1 to
    /// refresh a server, open the checksummed store file (bit-identical to
    /// the ingest that wrote it) and swap it in. Corrupted or
    /// version-mismatched files surface as
    /// [`medkb_types::MedKbError::Validation`] and leave the current epoch
    /// serving untouched.
    ///
    /// # Errors
    /// Whatever [`medkb_store::WorldStore::open`] reports; nothing is
    /// published on error.
    pub fn publish_from_store(&self, path: &std::path::Path) -> medkb_types::Result<u64> {
        let ingested = medkb_store::WorldStore::open(path)?;
        Ok(self.publish(ingested))
    }

    /// The currently published epoch number.
    pub fn epoch(&self) -> u64 {
        self.load().epoch
    }

    /// The serving configuration (shared by every epoch of this store).
    pub fn config(&self) -> &RelaxConfig {
        &self.config
    }
}

impl fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotStore").field("epoch", &self.epoch()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medkb_core::{ingest, MappingMethod};
    use medkb_corpus::{CorpusConfig, CorpusGenerator, MentionCounts};
    use medkb_obs::Registry;
    use medkb_snomed::{MedWorld, WorldConfig};

    /// Dropping the displaced world happens on the caller, off the lock:
    /// `swap` returns with `current` unlocked and the caller holding the
    /// old snapshot's only reference, so the destructor of a whole world
    /// can never stall a reader's `load()`.
    #[test]
    fn swap_hands_the_retired_world_back_unlocked() {
        let world = MedWorld::generate(&WorldConfig::tiny(71));
        let corpus = CorpusGenerator::new(&world.terminology, &world.oracle)
            .generate(&CorpusConfig::tiny(72));
        let counts = MentionCounts::count(&corpus, &world.terminology.ekg);
        let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
        let out = ingest(&world.kb, world.terminology.ekg, &counts, None, &config).unwrap();
        let registry = Registry::shared();
        let retired = registry.counter("retired");
        let store = SnapshotStore::with_retired_counter(
            out.clone(),
            config.clone(),
            Some(Arc::clone(&retired)),
        );
        let next = Arc::new(Snapshot {
            epoch: store.next_epoch.fetch_add(1, Ordering::Relaxed),
            fingerprint: config.result_fingerprint(),
            relaxer: QueryRelaxer::new(out.clone(), config),
            retired: Some(Arc::clone(&retired)),
        });

        let old = store.swap(next);
        assert!(store.current.try_lock().is_ok(), "swap returned with the lock held");
        assert_eq!(old.epoch(), 0);
        assert_eq!(Arc::strong_count(&old), 1, "the caller holds the only reference");
        assert_eq!(retired.get(), 0);
        drop(old);
        assert_eq!(retired.get(), 1, "freed on the caller");
        assert_eq!(store.load().epoch(), 1);

        // publish goes through the same swap: with no reader, the displaced
        // epoch is retired by the time publish returns; a reader's pin
        // outlives it.
        assert_eq!(store.publish(out.clone()), 2);
        assert_eq!(retired.get(), 2);
        let reader = store.load();
        assert_eq!(store.publish(out), 3);
        assert_eq!(retired.get(), 2);
        drop(reader);
        assert_eq!(retired.get(), 3);
    }
}
