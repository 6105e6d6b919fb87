//! The serving caches' one eviction and single-flight policy.
//!
//! [`Lru`] is a map bounded by a *weight* budget — bytes for the genome,
//! candidate and result caches, 1 per entry for the kernel-variant cache,
//! whose capacity is therefore a count. It keeps entries by last use: a
//! [`get`](Lru::get) refreshes an entry's recency and counts a hit or a
//! miss, a [`peek`](Lru::peek) refreshes and counts nothing (for observers
//! such as the scheduler's cost predictions, which must not perturb what
//! they predict from), and an [`insert`](Lru::insert) evicts least recently
//! used entries until the new one fits. An entry heavier than the whole
//! budget is still admitted, alone: it serves until the next insert evicts
//! it. A user that must not flush the cache for such an entry checks the
//! weight before inserting.
//!
//! [`SingleFlight`] makes an [`Lru`] thread-safe and collapses concurrent
//! misses on one key into one compute: the first caller to miss a key
//! becomes its *lead* and owes a [`publish`](SingleFlight::publish) (or an
//! [`abandon`](SingleFlight::abandon) on failure); callers asking for the
//! key meanwhile block until the lead resolves, then hit — or, after an
//! abandon, one of them leads in its place.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Condvar, Mutex};

/// Fraction of `hits + misses` lookups that hit, 0 when there were none.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Point-in-time counters of an [`Lru`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LruStats {
    /// [`Lru::get`] calls that found the key (for a [`SingleFlight`],
    /// including lookups that waited on an in-flight lead).
    pub hits: u64,
    /// [`Lru::get`] calls that did not (for a [`SingleFlight`], lookups
    /// that made the caller the lead).
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted to fit the budget.
    pub evictions: u64,
    /// Entries resident.
    pub len: usize,
    /// Summed weight of the resident entries: bytes for the byte-budgeted
    /// caches, which are the ones that report it.
    pub resident_bytes: usize,
}

impl LruStats {
    /// Fraction of lookups that hit, 0 when there were none.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.misses)
    }
}

struct Slot<V> {
    value: V,
    weight: usize,
    last_used: u64,
}

/// A map bounded by summed entry weight, evicting least recently used
/// entries. See the module docs for the policy.
pub struct Lru<K, V> {
    budget: usize,
    map: HashMap<K, Slot<V>>,
    /// Recency clock: every get and insert takes the next tick.
    tick: u64,
    stats: LruStats,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty map holding at most `budget` summed weight (beyond that,
    /// only a single oversized entry).
    pub fn new(budget: usize) -> Self {
        Lru {
            budget,
            map: HashMap::new(),
            tick: 0,
            stats: LruStats::default(),
        }
    }

    /// The value for `key`, made most recently used; counts a hit or a
    /// miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.stats.hits += 1;
                Some(&slot.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The value for `key`, without touching recency or the counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|slot| &slot.value)
    }

    /// Insert `value` as the most recently used entry, replacing any entry
    /// under `key`, after evicting least recently used entries until
    /// `weight` fits the budget (or nothing is left to evict). Returns the
    /// evicted values, for owners that must release what they hold.
    pub fn insert(&mut self, key: K, value: V, weight: usize) -> Vec<V> {
        if let Some(old) = self.map.remove(&key) {
            self.stats.resident_bytes -= old.weight;
        }
        let mut evicted = Vec::new();
        while !self.map.is_empty() && self.stats.resident_bytes + weight > self.budget {
            // O(len) scan; resident counts stay small by construction.
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
                .expect("the map is not empty");
            let slot = self.map.remove(&lru).expect("the key was just found");
            self.stats.resident_bytes -= slot.weight;
            self.stats.evictions += 1;
            evicted.push(slot.value);
        }
        self.tick += 1;
        self.map.insert(
            key,
            Slot {
                value,
                weight,
                last_used: self.tick,
            },
        );
        self.stats.resident_bytes += weight;
        self.stats.inserts += 1;
        evicted
    }

    /// Current counters.
    pub fn stats(&self) -> LruStats {
        LruStats {
            len: self.map.len(),
            ..self.stats
        }
    }

    /// Every resident value, in no particular order, for owners that must
    /// release what they hold.
    pub fn into_values(self) -> Vec<V> {
        self.map.into_values().map(|slot| slot.value).collect()
    }
}

/// Outcome of [`SingleFlight::lookup_or_lead`].
pub enum Flight<V> {
    /// The value is resident (possibly published by a lead this caller
    /// waited on).
    Hit(V),
    /// The caller is now the key's lead: compute the value, then
    /// [`publish`](SingleFlight::publish) or
    /// [`abandon`](SingleFlight::abandon).
    Lead,
}

struct FlightState<K, V> {
    lru: Lru<K, V>,
    /// Keys with a lead in flight; never resident at the same time.
    pending: HashSet<K>,
}

/// A thread-safe [`Lru`] whose concurrent misses on one key share a
/// single compute. See the module docs for the protocol.
pub struct SingleFlight<K, V> {
    state: Mutex<FlightState<K, V>>,
    resolved: Condvar,
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty cache with a weight `budget` (see [`Lru::new`]).
    pub fn new(budget: usize) -> Self {
        SingleFlight {
            state: Mutex::new(FlightState {
                lru: Lru::new(budget),
                pending: HashSet::new(),
            }),
            resolved: Condvar::new(),
        }
    }

    /// The value for `key` (a hit), or the lead on it (a miss). Blocks
    /// while another caller leads `key`, without counting; if that lead
    /// abandons, one waiter leads in its place.
    pub fn lookup_or_lead(&self, key: &K) -> Flight<V> {
        let mut state = self.state.lock().expect("cache lock poisoned");
        while state.pending.contains(key) {
            state = self.resolved.wait(state).expect("cache lock poisoned");
        }
        if let Some(value) = state.lru.get(key) {
            return Flight::Hit(value.clone());
        }
        state.pending.insert(key.clone());
        Flight::Lead
    }

    /// Resolve the lead on `key` with `value`, inserted at `weight`, and
    /// wake its waiters.
    pub fn publish(&self, key: &K, value: V, weight: usize) {
        let mut state = self.state.lock().expect("cache lock poisoned");
        state.pending.remove(key);
        state.lru.insert(key.clone(), value, weight);
        drop(state);
        self.resolved.notify_all();
    }

    /// Give up the lead on `key` without a value; a waiter, if any, leads
    /// in its place.
    pub fn abandon(&self, key: &K) {
        self.state
            .lock()
            .expect("cache lock poisoned")
            .pending
            .remove(key);
        self.resolved.notify_all();
    }

    /// The value for `key`, without touching recency, the counters or any
    /// lead (see [`Lru::peek`]).
    pub fn peek(&self, key: &K) -> Option<V> {
        let state = self.state.lock().expect("cache lock poisoned");
        state.lru.peek(key).cloned()
    }

    /// Current counters.
    pub fn stats(&self) -> LruStats {
        self.state.lock().expect("cache lock poisoned").lru.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    /// xorshift64*, the model test's seeded source.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) % n
        }
    }

    /// The naive reference: `(key, value, weight)` in recency order,
    /// least recently used first.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u64, u64, usize)>,
        stats: LruStats,
    }

    impl Model {
        fn position(&self, key: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.0 == key)
        }

        fn get(&mut self, key: u64) -> Option<u64> {
            match self.position(key) {
                Some(i) => {
                    let entry = self.entries.remove(i);
                    self.entries.push(entry);
                    self.stats.hits += 1;
                    Some(entry.1)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: u64, value: u64, weight: usize, budget: usize) {
            if let Some(i) = self.position(key) {
                self.entries.remove(i);
            }
            while !self.entries.is_empty() && self.weight() + weight > budget {
                self.entries.remove(0);
                self.stats.evictions += 1;
            }
            self.entries.push((key, value, weight));
            self.stats.inserts += 1;
        }

        fn weight(&self) -> usize {
            self.entries.iter().map(|e| e.2).sum()
        }
    }

    fn check_against_model(seed: u64, budget: usize, max_weight: u64) {
        let mut rng = Rng(seed);
        let mut lru = Lru::new(budget);
        let mut model = Model::default();
        for step in 0..400 {
            let key = rng.below(12);
            match rng.below(4) {
                0 => assert_eq!(
                    lru.peek(&key).copied(),
                    model.position(key).map(|i| model.entries[i].1)
                ),
                1 => assert_eq!(lru.get(&key).copied(), model.get(key), "step {step}"),
                _ => {
                    let weight = 1 + rng.below(max_weight) as usize;
                    lru.insert(key, step, weight);
                    model.insert(key, step, weight, budget);
                }
            }
            let stats = lru.stats();
            let mut keys: Vec<u64> = model.entries.iter().map(|e| e.0).collect();
            keys.sort_unstable();
            let mut resident: Vec<u64> = lru.map.keys().copied().collect();
            resident.sort_unstable();
            assert_eq!(resident, keys, "seed {seed} step {step}");
            assert_eq!(
                stats,
                LruStats {
                    len: keys.len(),
                    resident_bytes: model.weight(),
                    ..model.stats
                },
                "seed {seed} step {step}"
            );
        }
    }

    #[test]
    fn random_sequences_match_the_recency_ordered_reference() {
        for seed in 1..=20u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let budget = 1 + rng.below(40) as usize;
            // Weights up to twice the budget: oversized entries included.
            check_against_model(seed, budget, 2 * budget as u64);
        }
    }

    #[test]
    fn weight_one_entries_make_the_budget_a_count() {
        for seed in 1..=5 {
            check_against_model(seed, 3, 1);
        }
        let mut lru = Lru::new(2);
        let evicted: Vec<Vec<u64>> = (0..3).map(|key| lru.insert(key, key, 1)).collect();
        assert_eq!(
            evicted,
            [vec![], vec![], vec![0]],
            "insert hands back what it evicts"
        );
        assert_eq!(lru.stats().len, 2);
        assert_eq!(lru.stats().evictions, 1);
        assert!(lru.peek(&0).is_none(), "the oldest went first");
    }

    #[test]
    fn an_oversized_entry_is_admitted_alone() {
        let mut lru = Lru::new(10);
        lru.insert(1, 'a', 4);
        lru.insert(2, 'b', 4);
        lru.insert(3, 'c', 25);
        assert_eq!(lru.stats().len, 1);
        assert_eq!(lru.stats().resident_bytes, 25);
        assert_eq!(lru.get(&3), Some(&'c'), "it serves while resident");
        lru.insert(4, 'd', 1);
        assert_eq!(lru.stats().len, 1, "and the next insert evicts it");
        assert_eq!(lru.stats().evictions, 3);
    }

    #[test]
    fn an_abandoned_lead_promotes_exactly_one_waiter() {
        let cache = SingleFlight::<u8, u8>::new(8);
        assert!(matches!(cache.lookup_or_lead(&1), Flight::Lead));
        let leads = AtomicUsize::new(0);
        let started = Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    started.wait();
                    if let Flight::Lead = cache.lookup_or_lead(&1) {
                        leads.fetch_add(1, Ordering::SeqCst);
                        cache.publish(&1, 7, 1);
                    }
                });
            }
            started.wait();
            cache.abandon(&1);
        });
        assert_eq!(leads.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.inserts), (2, 2, 1));
    }

    #[test]
    fn waiters_share_the_published_value() {
        let cache = Arc::new(SingleFlight::<u8, Arc<u8>>::new(8));
        assert!(matches!(cache.lookup_or_lead(&1), Flight::Lead));
        let started = Arc::new(Barrier::new(4));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let (cache, started) = (Arc::clone(&cache), Arc::clone(&started));
                std::thread::spawn(move || {
                    started.wait();
                    match cache.lookup_or_lead(&1) {
                        Flight::Hit(v) => v,
                        Flight::Lead => panic!("the key is led until published"),
                    }
                })
            })
            .collect();
        let value = Arc::new(9);
        started.wait();
        cache.publish(&1, Arc::clone(&value), 1);
        for w in waiters {
            assert!(Arc::ptr_eq(&w.join().unwrap(), &value));
        }
        assert!(cache.peek(&1).is_some());
        assert_eq!(cache.stats().hits, 3);
    }
}
