//! Paged sparse flat memory for the functional state.
//!
//! The core's data and checkpoint memories used to be `BTreeMap<u64, i64>`;
//! every load and store walked the tree, which `BENCH_reproduce.json`
//! showed dominating simulation time. [`PagedMem`] replaces the tree with
//! fixed-size flat pages indexed by `addr >> PAGE_SHIFT`:
//!
//! * **O(1) word access** within a page (one shift, one mask, one array
//!   index) plus a short binary search over the sorted page directory —
//!   kernels touch a handful of pages (the data segment near its base and
//!   one page of checkpoint slots at `CKPT_BASE`), so the directory stays
//!   tiny;
//! * a **presence bitmap** per page preserves the map's untouched-word
//!   semantics exactly: a load of a never-written address still reads 0 via
//!   `get(..) == None`, and [`PagedMem::to_btree`] reconstructs the
//!   `BTreeMap` view of [`SimOutcome`](crate::SimOutcome) byte-identically
//!   (only addresses ever inserted appear, in sorted order);
//! * pages live behind [`Arc`], so cloning a `PagedMem` is O(pages) pointer
//!   copies — the copy-on-write substrate of the core's snapshot/fork API
//!   ([`RunOpts::snapshots`](crate::RunOpts::snapshots)).
//!   Writes after a clone go through [`Arc::make_mut`], copying only the
//!   written page.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// log2 of the address span of one page. A page covers `1 << PAGE_SHIFT`
/// *byte addresses* (the functional maps key on exact `u64` addresses, so
/// presence is tracked per address, not per 8-byte word): 512 addresses,
/// 4 KiB of word storage plus a 64-byte presence bitmap.
const PAGE_SHIFT: u32 = 9;
/// Addressable slots per page.
const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;
/// Low-bits mask selecting the slot within a page.
const PAGE_MASK: u64 = (PAGE_SLOTS as u64) - 1;

/// One fixed-size page: a flat word array and the presence bitmap telling
/// written slots apart from the implicit-zero background.
#[derive(Debug, Clone)]
struct Page {
    /// One bit per slot; set once the slot has been inserted.
    present: [u64; PAGE_SLOTS / 64],
    /// Word storage, indexed by `addr & PAGE_MASK`.
    words: Box<[i64; PAGE_SLOTS]>,
}

impl Page {
    fn new() -> Self {
        Page {
            present: [0; PAGE_SLOTS / 64],
            words: Box::new([0; PAGE_SLOTS]),
        }
    }

    #[inline]
    fn is_present(&self, slot: usize) -> bool {
        self.present[slot / 64] & (1 << (slot % 64)) != 0
    }

    #[inline]
    fn set(&mut self, slot: usize, value: i64) {
        self.present[slot / 64] |= 1 << (slot % 64);
        self.words[slot] = value;
    }
}

/// Sparse flat memory: a sorted directory of copy-on-write pages.
///
/// Drop-in replacement for the simulator's former `BTreeMap<u64, i64>`
/// functional memories with identical observable semantics (see the module
/// docs) and O(1) in-page access.
#[derive(Debug, Default)]
pub struct PagedMem {
    /// `(page_index, page)` sorted by page index.
    pages: Vec<(u64, Arc<Page>)>,
    /// Directory position of the most recently accessed page — a one-entry
    /// TLB for the accessor fast paths. Relaxed atomic (not `Cell`) purely
    /// so shared snapshots stay `Sync`; it is a performance hint with no
    /// observable effect.
    hot: AtomicUsize,
}

impl Clone for PagedMem {
    fn clone(&self) -> Self {
        PagedMem {
            pages: self.pages.clone(),
            hot: AtomicUsize::new(self.hot.load(Ordering::Relaxed)),
        }
    }
}

impl PagedMem {
    /// An empty memory (every address reads as untouched).
    pub fn new() -> Self {
        PagedMem::default()
    }

    #[inline]
    fn find(&self, page_idx: u64) -> Result<usize, usize> {
        let hot = self.hot.load(Ordering::Relaxed);
        if let Some(&(i, _)) = self.pages.get(hot) {
            if i == page_idx {
                return Ok(hot);
            }
        }
        let found = self.pages.binary_search_by_key(&page_idx, |&(i, _)| i);
        if let Ok(i) = found {
            self.hot.store(i, Ordering::Relaxed);
        }
        found
    }

    /// The value at `addr`, or `None` if the address was never inserted.
    #[inline]
    pub fn get(&self, addr: u64) -> Option<i64> {
        let (idx, slot) = (addr >> PAGE_SHIFT, (addr & PAGE_MASK) as usize);
        let i = self.find(idx).ok()?;
        let page = &self.pages[i].1;
        page.is_present(slot).then(|| page.words[slot])
    }

    /// Insert (or overwrite) the word at `addr`. Copies the page first if
    /// it is shared with a snapshot (copy-on-write).
    #[inline]
    pub fn insert(&mut self, addr: u64, value: i64) {
        let (idx, slot) = (addr >> PAGE_SHIFT, (addr & PAGE_MASK) as usize);
        match self.find(idx) {
            Ok(i) => Arc::make_mut(&mut self.pages[i].1).set(slot, value),
            Err(i) => {
                let mut page = Page::new();
                page.set(slot, value);
                self.pages.insert(i, (idx, Arc::new(page)));
            }
        }
    }

    /// Number of inserted addresses.
    pub fn len(&self) -> usize {
        self.pages
            .iter()
            .map(|(_, p)| {
                p.present
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether no address was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `self` and `other` hold identical content: the same set of
    /// inserted addresses, each with an equal value. Pages shared through
    /// the copy-on-write ancestry compare by pointer; a page present in
    /// only one directory matches only if it is all-absent (which never
    /// arises in practice — pages are created by `insert` — but keeps the
    /// predicate exact).
    pub fn content_eq(&self, other: &PagedMem) -> bool {
        fn blank(page: &Page) -> bool {
            page.present.iter().all(|&w| w == 0)
        }
        let (mut a, mut b) = (self.pages.iter().peekable(), other.pages.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (None, None) => return true,
                (Some((_, p)), None) => {
                    if !blank(p) {
                        return false;
                    }
                    a.next();
                }
                (None, Some((_, p))) => {
                    if !blank(p) {
                        return false;
                    }
                    b.next();
                }
                (Some((ia, pa)), Some((ib, pb))) => {
                    if ia < ib {
                        if !blank(pa) {
                            return false;
                        }
                        a.next();
                    } else if ib < ia {
                        if !blank(pb) {
                            return false;
                        }
                        b.next();
                    } else {
                        if !Arc::ptr_eq(pa, pb) {
                            if pa.present != pb.present {
                                return false;
                            }
                            for slot in 0..PAGE_SLOTS {
                                if pa.is_present(slot) && pa.words[slot] != pb.words[slot] {
                                    return false;
                                }
                            }
                        }
                        a.next();
                        b.next();
                    }
                }
            }
        }
    }

    /// The `BTreeMap` view: every inserted `(addr, value)` pair in address
    /// order — byte-identical to what the former map-backed memory held.
    pub fn to_btree(&self) -> BTreeMap<u64, i64> {
        let mut out = BTreeMap::new();
        for (idx, page) in &self.pages {
            let base = idx << PAGE_SHIFT;
            for slot in 0..PAGE_SLOTS {
                if page.is_present(slot) {
                    out.insert(base + slot as u64, page.words[slot]);
                }
            }
        }
        out
    }
}

impl FromIterator<(u64, i64)> for PagedMem {
    fn from_iter<T: IntoIterator<Item = (u64, i64)>>(iter: T) -> Self {
        let mut m = PagedMem::new();
        for (a, v) in iter {
            m.insert(a, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_addresses_read_none() {
        let m = PagedMem::new();
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(0x1000), None);
        assert!(m.is_empty());
    }

    #[test]
    fn insert_get_roundtrip_across_page_boundaries() {
        let mut m = PagedMem::new();
        // Straddle a page boundary: 0x1ff and 0x200 land on different pages.
        for a in [0u64, 0x1ff, 0x200, 0x1000, 0x8000_0000, u64::MAX] {
            m.insert(a, a as i64 ^ 0x5a);
        }
        for a in [0u64, 0x1ff, 0x200, 0x1000, 0x8000_0000, u64::MAX] {
            assert_eq!(m.get(a), Some(a as i64 ^ 0x5a), "addr {a:#x}");
        }
        // Neighbors of written slots stay untouched.
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(0x201), None);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn overwrite_keeps_one_entry() {
        let mut m = PagedMem::new();
        m.insert(0x40, 1);
        m.insert(0x40, 2);
        assert_eq!(m.get(0x40), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn zero_value_is_distinct_from_untouched() {
        let mut m = PagedMem::new();
        m.insert(0x10, 0);
        assert_eq!(m.get(0x10), Some(0));
        assert_eq!(m.get(0x18), None);
        assert_eq!(m.to_btree(), BTreeMap::from([(0x10, 0)]));
    }

    #[test]
    fn to_btree_matches_reference_map() {
        let pairs: Vec<(u64, i64)> = (0..2000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) % 0x10_0000, i as i64 - 7))
            .collect();
        let m: PagedMem = pairs.iter().copied().collect();
        let reference: BTreeMap<u64, i64> = pairs.iter().copied().collect();
        assert_eq!(m.to_btree(), reference);
    }

    #[test]
    fn content_eq_is_structural() {
        let pairs: Vec<(u64, i64)> = vec![(0x10, 1), (0x1ff, 2), (0x200, 3), (0x9000, 4)];
        let a: PagedMem = pairs.iter().copied().collect();
        let mut b: PagedMem = pairs.iter().rev().copied().collect();
        assert!(a.content_eq(&b));
        assert!(b.content_eq(&a));
        // A COW clone shares pages: pointer fast path.
        let c = a.clone();
        assert!(a.content_eq(&c));
        // Divergent value.
        b.insert(0x1ff, 7);
        assert!(!a.content_eq(&b));
        // Divergent presence (extra address on an existing page).
        let mut d = a.clone();
        d.insert(0x11, 0);
        assert!(!a.content_eq(&d));
        // Extra page on one side.
        let mut e = a.clone();
        e.insert(0xdead_0000, 0);
        assert!(!a.content_eq(&e));
        assert!(!e.content_eq(&a));
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = PagedMem::new();
        a.insert(0x100, 7);
        let b = a.clone();
        a.insert(0x100, 8); // must not write through to the clone
        a.insert(0x108, 9);
        assert_eq!(b.get(0x100), Some(7));
        assert_eq!(b.get(0x108), None);
        assert_eq!(a.get(0x100), Some(8));
    }
}
