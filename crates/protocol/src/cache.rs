//! The per-node processor cache.

use crate::data::LineData;
use dsm_sim::{CacheParams, LineAddr};

/// Stable coherence state of a cached line (invalid lines are absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Read-only copy; other caches may also hold the line.
    Shared,
    /// The only cached copy; may be dirty with respect to memory.
    Exclusive,
}

/// A resident cache line.
#[derive(Debug, Clone)]
pub struct CacheLine {
    /// Which line this is.
    pub line: LineAddr,
    /// Coherence state.
    pub state: CacheState,
    /// Contents.
    pub data: LineData,
    lru: u64,
}

/// A line displaced by [`Cache::insert`].
#[derive(Debug, Clone)]
pub struct Evicted {
    /// Which line was displaced.
    pub line: LineAddr,
    /// Its state at eviction.
    pub state: CacheState,
    /// Its contents (needed for the write-back if it was exclusive).
    pub data: LineData,
}

/// A set-associative, LRU-replacement cache.
///
/// # Example
///
/// ```
/// use dsm_protocol::{Cache, CacheState, LineData};
/// use dsm_sim::{CacheParams, LineAddr};
///
/// let mut c = Cache::new(CacheParams { sets: 2, ways: 1 });
/// c.insert(LineAddr::new(0), CacheState::Shared, LineData::zeroed(32));
/// assert_eq!(c.state(LineAddr::new(0)), Some(CacheState::Shared));
/// // Line 2 maps to the same set (2 % 2 == 0) and evicts line 0.
/// let ev = c.insert(LineAddr::new(2), CacheState::Exclusive, LineData::zeroed(32));
/// assert_eq!(ev.unwrap().line, LineAddr::new(0));
/// assert_eq!(c.state(LineAddr::new(0)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<CacheLine>>,
    ways: usize,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheParams::validate`]).
    pub fn new(params: CacheParams) -> Self {
        params.validate().expect("invalid cache geometry");
        Cache {
            sets: vec![Vec::new(); params.sets],
            ways: params.ways,
            tick: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        let n = self.sets.len() as u64;
        // Set counts are powers of two in every configuration in use;
        // masking avoids a hardware modulo on each cache probe. The
        // fallback keeps odd set counts (tests) working.
        if n.is_power_of_two() {
            (line.number() & (n - 1)) as usize
        } else {
            (line.number() % n) as usize
        }
    }

    /// Returns the state of `line`, or `None` if not resident.
    pub fn state(&self, line: LineAddr) -> Option<CacheState> {
        let set = &self.sets[self.set_index(line)];
        set.iter().find(|l| l.line == line).map(|l| l.state)
    }

    /// Returns the resident line, updating its LRU position.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|l| l.line == line)?;
        // Tick only on a hit, so a miss-probe leaves LRU state (and
        // therefore future eviction choices) exactly as if it never
        // happened — callers may probe speculatively.
        self.tick += 1;
        // Move the hit line to slot 0: processors touch the same line
        // repeatedly (sequential word accesses), so keeping the MRU
        // line first makes the common re-probe a single tag compare.
        // Set order carries no meaning — residency is keyed by tag and
        // eviction by the `lru` stamps — so the swap is unobservable.
        if pos != 0 {
            set.swap(0, pos);
        }
        let l = &mut set[0];
        l.lru = self.tick;
        Some(l)
    }

    /// Applies the LRU effect of `n` consecutive hits on `line` — the
    /// state `n` calls of [`get_mut`](Self::get_mut) leave — in one
    /// step. Returns `false` (and changes nothing) if `line` is not
    /// resident.
    pub fn touch_n(&mut self, line: LineAddr, n: u64) -> bool {
        if n == 0 {
            return self.peek(line).is_some();
        }
        let Some(l) = self.get_mut(line) else {
            return false;
        };
        l.lru += n - 1;
        self.tick += n - 1;
        true
    }

    /// Returns the resident line without touching LRU state.
    pub fn peek(&self, line: LineAddr) -> Option<&CacheLine> {
        self.sets[self.set_index(line)]
            .iter()
            .find(|l| l.line == line)
    }

    /// Inserts (or overwrites) `line`, evicting the LRU line of a full
    /// set. Returns the displaced line, if any.
    pub fn insert(&mut self, line: LineAddr, state: CacheState, data: LineData) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if let Some(l) = set.iter_mut().find(|l| l.line == line) {
            l.state = state;
            l.data = data;
            l.lru = tick;
            return None;
        }
        let evicted = if set.len() >= ways {
            let (victim_idx, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("set is non-empty");
            let victim = set.swap_remove(victim_idx);
            Some(Evicted {
                line: victim.line,
                state: victim.state,
                data: victim.data,
            })
        } else {
            None
        };
        set.push(CacheLine {
            line,
            state,
            data,
            lru: tick,
        });
        evicted
    }

    /// Removes `line` from the cache, returning it if it was resident.
    pub fn remove(&mut self, line: LineAddr) -> Option<CacheLine> {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        let pos = set.iter().position(|l| l.line == line)?;
        Some(set.swap_remove(pos))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine> {
        self.sets.iter().flatten()
    }

    /// Folds the full cache state — geometry, LRU clock, and every
    /// resident line with its LRU stamp — into a checkpoint digest.
    /// Storage order within a set is hashed as-is: it evolves
    /// deterministically (MRU swap and `swap_remove` only), so replayed
    /// runs reproduce it exactly.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_usize(self.ways);
        h.write_u64(self.tick);
        h.write_usize(self.sets.len());
        for set in &self.sets {
            h.write_usize(set.len());
            for l in set {
                h.write_u64(l.line.number());
                h.write_u8(match l.state {
                    CacheState::Shared => 0,
                    CacheState::Exclusive => 1,
                });
                l.data.digest(h);
                h.write_u64(l.lru);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> Cache {
        Cache::new(CacheParams { sets, ways })
    }

    fn data(v: u64) -> LineData {
        let mut d = LineData::zeroed(32);
        d.set_word(dsm_sim::Addr::new(0), v);
        d
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c = cache(4, 2);
        assert!(c.is_empty());
        c.insert(LineAddr::new(5), CacheState::Shared, data(9));
        assert_eq!(c.state(LineAddr::new(5)), Some(CacheState::Shared));
        assert_eq!(
            c.peek(LineAddr::new(5))
                .unwrap()
                .data
                .word(dsm_sim::Addr::new(0)),
            9
        );
        let removed = c.remove(LineAddr::new(5)).unwrap();
        assert_eq!(removed.line, LineAddr::new(5));
        assert!(c.is_empty());
        assert!(c.remove(LineAddr::new(5)).is_none());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = cache(2, 1);
        c.insert(LineAddr::new(0), CacheState::Shared, data(1));
        let ev = c.insert(LineAddr::new(0), CacheState::Exclusive, data(2));
        assert!(ev.is_none());
        assert_eq!(c.state(LineAddr::new(0)), Some(CacheState::Exclusive));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(1, 2);
        c.insert(LineAddr::new(0), CacheState::Shared, data(0));
        c.insert(LineAddr::new(1), CacheState::Shared, data(1));
        // Touch line 0 so line 1 becomes LRU.
        c.get_mut(LineAddr::new(0));
        let ev = c
            .insert(LineAddr::new(2), CacheState::Shared, data(2))
            .unwrap();
        assert_eq!(ev.line, LineAddr::new(1));
        assert!(c.state(LineAddr::new(0)).is_some());
        assert!(c.state(LineAddr::new(2)).is_some());
    }

    #[test]
    fn eviction_returns_dirty_state_and_data() {
        let mut c = cache(1, 1);
        c.insert(LineAddr::new(0), CacheState::Exclusive, data(42));
        let ev = c
            .insert(LineAddr::new(1), CacheState::Shared, data(0))
            .unwrap();
        assert_eq!(ev.state, CacheState::Exclusive);
        assert_eq!(ev.data.word(dsm_sim::Addr::new(0)), 42);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = cache(2, 1);
        c.insert(LineAddr::new(0), CacheState::Shared, data(0)); // set 0
        let ev = c.insert(LineAddr::new(1), CacheState::Shared, data(1)); // set 1
        assert!(ev.is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn get_mut_allows_state_transitions() {
        let mut c = cache(4, 2);
        c.insert(LineAddr::new(3), CacheState::Shared, data(7));
        let l = c.get_mut(LineAddr::new(3)).unwrap();
        l.state = CacheState::Exclusive;
        l.data.set_word(dsm_sim::Addr::new(8), 99);
        assert_eq!(c.state(LineAddr::new(3)), Some(CacheState::Exclusive));
        assert_eq!(
            c.peek(LineAddr::new(3))
                .unwrap()
                .data
                .word(dsm_sim::Addr::new(8)),
            99
        );
    }

    #[test]
    fn touch_n_equals_n_hits() {
        let digest = |c: &Cache| {
            let mut h = dsm_sim::StableHasher::new();
            c.digest(&mut h);
            h.finish()
        };
        for n in [0u64, 1, 2, 1000] {
            let mut one = cache(2, 2);
            one.insert(LineAddr::new(0), CacheState::Shared, data(0));
            one.insert(LineAddr::new(2), CacheState::Exclusive, data(2));
            let mut bulk = one.clone();
            for _ in 0..n {
                one.get_mut(LineAddr::new(0));
            }
            assert!(bulk.touch_n(LineAddr::new(0), n));
            assert_eq!(digest(&one), digest(&bulk), "{n} hits");
        }
        let mut c = cache(2, 2);
        let before = digest(&c);
        assert!(!c.touch_n(LineAddr::new(4), 3), "a miss touches nothing");
        assert_eq!(digest(&c), before);
    }

    #[test]
    fn iter_visits_all_lines() {
        let mut c = cache(4, 4);
        for i in 0..6 {
            c.insert(LineAddr::new(i), CacheState::Shared, data(i));
        }
        let mut lines: Vec<u64> = c.iter().map(|l| l.line.number()).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1, 2, 3, 4, 5]);
    }
}
