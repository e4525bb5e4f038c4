//! Cache-line data payloads.

use crate::types::Value;
use dsm_sim::Addr;
use std::num::NonZeroU32;

/// Words stored inline before spilling to the heap. Every configuration
/// the paper (and this repo's harness) uses has 32-byte lines = 4 words,
/// so in practice a `LineData` never allocates.
const INLINE_WORDS: usize = 4;

/// The data contents of one cache line, as an array of 64-bit words.
///
/// Lines travel by value inside coherence messages and live in caches
/// and memory modules, so they are copied on the simulator's hottest
/// paths. Up to `INLINE_WORDS` (4) words (32-byte lines — every
/// configuration in use) are stored inline, so `clone` copies a flat
/// record with no heap traffic; larger lines spill to a heap vector
/// and keep working. The record is kept to 48 bytes — the spill sits
/// behind one thin pointer and the size is a nonzero `u32`, which also
/// gives `Option<LineData>` a free niche — so that a [`Msg`] carrying
/// a line stays within 128 bytes (see the size test in `msg.rs`).
///
/// [`Msg`]: crate::Msg
///
/// All atomic primitives operate on single words within a line.
///
/// # Example
///
/// ```
/// use dsm_protocol::LineData;
/// use dsm_sim::Addr;
///
/// let mut line = LineData::zeroed(32);
/// line.set_word(Addr::new(0x48), 7); // offset 8 within a 32-byte line
/// assert_eq!(line.word(Addr::new(0x48)), 7);
/// assert_eq!(line.word(Addr::new(0x40)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct LineData {
    /// Inline storage, used in full or in part when the line fits.
    inline: [Value; INLINE_WORDS],
    /// Heap spill for lines wider than `INLINE_WORDS` words; `None`
    /// (and never allocated) otherwise. The box is the point: it keeps
    /// the field one thin pointer instead of a three-word `Vec` or a
    /// two-word boxed slice, so clippy's box_collection (which assumes
    /// the indirection is accidental) does not apply.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<Value>>>,
    /// The line size in bytes.
    line_size: NonZeroU32,
}

impl LineData {
    /// Creates an all-zero line of `line_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a positive multiple of 8, or does
    /// not fit in 32 bits.
    pub fn zeroed(line_size: u64) -> Self {
        assert!(
            line_size > 0 && line_size.is_multiple_of(8),
            "line size must be a multiple of 8 bytes"
        );
        let size = u32::try_from(line_size)
            .ok()
            .and_then(NonZeroU32::new)
            .expect("line size must fit in 32 bits");
        let words = (line_size / 8) as usize;
        LineData {
            inline: [0; INLINE_WORDS],
            spill: (words > INLINE_WORDS).then(|| Box::new(vec![0; words])),
            line_size: size,
        }
    }

    /// The line size in bytes.
    pub fn size(&self) -> u64 {
        u64::from(self.line_size.get())
    }

    /// Number of words in the line.
    pub fn word_count(&self) -> usize {
        (self.line_size.get() / 8) as usize
    }

    fn index(&self, addr: Addr) -> usize {
        let off = addr.offset_in_line(self.size());
        debug_assert_eq!(off % 8, 0, "atomic operations must be word-aligned");
        (off / 8) as usize
    }

    /// Reads the word containing `addr`.
    pub fn word(&self, addr: Addr) -> Value {
        self.words()[self.index(addr)]
    }

    /// Writes the word containing `addr`.
    pub fn set_word(&mut self, addr: Addr, value: Value) {
        let i = self.index(addr);
        self.words_mut()[i] = value;
    }

    /// Immutable view of all words.
    pub fn words(&self) -> &[Value] {
        match &self.spill {
            Some(spill) => spill,
            None => &self.inline[..self.word_count()],
        }
    }

    /// Folds the line's size and contents into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_u64(self.size());
        for &w in self.words() {
            h.write_u64(w);
        }
    }

    /// Mutable view of all words.
    fn words_mut(&mut self) -> &mut [Value] {
        let n = self.word_count();
        match &mut self.spill {
            Some(spill) => spill,
            None => &mut self.inline[..n],
        }
    }
}

// Manual impls: equality and hashing must see the logical words only,
// never unused inline slots, so inline and spilled lines of the same
// contents behave identically.
impl PartialEq for LineData {
    fn eq(&self, other: &Self) -> bool {
        self.line_size == other.line_size && self.words() == other.words()
    }
}

impl Eq for LineData {}

impl std::hash::Hash for LineData {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.size().hash(state);
        self.words().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_line() {
        let l = LineData::zeroed(32);
        assert_eq!(l.size(), 32);
        assert_eq!(l.word_count(), 4);
        assert!(l.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn word_addressing_uses_offset_in_line() {
        let mut l = LineData::zeroed(32);
        // 0x100 and 0x120 map to the same offset in different lines.
        l.set_word(Addr::new(0x100), 11);
        assert_eq!(l.word(Addr::new(0x120)), 11);
        l.set_word(Addr::new(0x118), 22);
        assert_eq!(l.words(), &[11, 0, 0, 22]);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_line_size_rejected() {
        let _ = LineData::zeroed(20);
    }

    #[test]
    fn small_lines_use_partial_inline_storage() {
        let mut l = LineData::zeroed(16);
        assert_eq!(l.word_count(), 2);
        l.set_word(Addr::new(0x18), 5);
        assert_eq!(l.words(), &[0, 5]);
    }

    #[test]
    fn wide_lines_spill_to_the_heap() {
        let mut l = LineData::zeroed(64);
        assert_eq!(l.word_count(), 8);
        l.set_word(Addr::new(0x38), 9);
        assert_eq!(l.word(Addr::new(0x38)), 9);
        assert_eq!(l.words().len(), 8);
        let copy = l.clone();
        assert_eq!(copy, l);
    }

    #[test]
    fn eq_and_hash_ignore_unused_inline_slots() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut a = LineData::zeroed(32);
        let mut b = LineData::zeroed(32);
        a.set_word(Addr::new(0x40), 1);
        b.set_word(Addr::new(0x40), 1);
        assert_eq!(a, b);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        // Different sizes with the same words differ.
        assert_ne!(LineData::zeroed(16), LineData::zeroed(32));
    }
}
