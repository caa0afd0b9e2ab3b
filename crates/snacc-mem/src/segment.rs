//! Segment-store memory: zero-copy functional media.
//!
//! [`SegmentMemory`] replaces the page-materialising [`crate::SparseMemory`]
//! behind the functional media models (SSD NAND, host DRAM, on-board DRAM,
//! URAM). Instead of copying every written byte into 4 KiB pages, it keeps
//! an ordered map of non-overlapping [`Payload`] windows:
//!
//! * **Payload writes retain the payload** — an O(log segments) metadata
//!   insert that looks up its neighbours once. Lazy pattern or fill
//!   segments stay lazy; a 2 GiB synthetic write pass moves O(segments)
//!   metadata instead of gigabytes of bytes.
//! * **Small byte writes land in place.** The byte API (`write` and the
//!   scalar helpers) has to copy the caller's bytes once anyway. When one
//!   segment covers the whole write and that segment is the *only* holder
//!   of an owned byte backing ([`Payload::unique_mut`]), the bytes are
//!   copied into that backing and the map is left alone. Any reader
//!   snapshot, clone or sibling segment (e.g. the two halves of a trimmed
//!   segment) keeps the backing shared, so nobody can observe the
//!   mutation; such writes, and every write into pattern or fill
//!   segments, take the insert path with a fresh backing instead. Rings,
//!   PRP lists and completion entries therefore stop fragmenting once
//!   their window has been materialised.
//! * **Reads return zero-copy views** — a read covered by one segment is a
//!   slice of that segment's backing; gaps come back as lazy zero-fill.
//!   Only reads spanning multiple backings copy (via [`Payload::concat`]),
//!   and [`read_payload_parts`](SegmentMemory::read_payload_parts) avoids
//!   even that for consumers that can handle a part list.
//! * **Copy-on-write coalescing** bounds fragmentation: when more than
//!   [`COALESCE_SEGS`] segments accumulate inside one 1 MiB window *and*
//!   at least one of them is shorter than a page, the window is
//!   materialised into a single owned segment. Besides the byte API's
//!   copies this is the store's only copying path. The store keeps a
//!   `(segments, sub-page segments)` count per window, so a write checks
//!   the condition without scanning the window. A window whose segments
//!   are all at least a page long is left alone: their starts are at
//!   least a page apart, so it holds at most `COALESCE_WINDOW / PAGE_SIZE`
//!   (256) segments and per-segment metadata stays a few percent of the
//!   bytes described. Scattered 4 KiB media writes therefore stay
//!   zero-copy, while windows fragmented by sub-page writes (rings, PRP
//!   lists, tiny adversarial writes) stay bounded at `COALESCE_SEGS + 2`
//!   segments.
//!
//! The byte-oriented API (`write`/`read`/`read_vec`/scalar helpers) matches
//! `SparseMemory` so ring buffers, descriptor pages and tests work
//! unchanged.

use snacc_sim::bytes::Payload;
use std::collections::{BTreeMap, HashMap};

use crate::sparse::PAGE_SIZE;

/// CoW coalescing window (bytes). Fragmentation is bounded per window.
pub const COALESCE_WINDOW: u64 = 1 << 20;

/// Maximum segments tolerated inside one window holding a sub-page
/// segment before the window is materialised into a single owned segment.
pub const COALESCE_SEGS: usize = 64;

/// Chunk size for [`SegmentMemory::fill`] backings: bounds how much one
/// lazy fill segment materialises if a byte of it is ever inspected.
const FILL_CHUNK: u64 = 1 << 20;

/// A sparse, zero-initialised byte-addressable memory storing zero-copy
/// payload segments. See the module docs.
#[derive(Default)]
pub struct SegmentMemory {
    /// Non-overlapping segments keyed by start byte address. Every change
    /// to the map updates `windows` to match.
    segs: BTreeMap<u64, Payload>,
    windows: WindowCounts,
    bytes_written: u64,
    bytes_read: u64,
}

/// `(segments, sub-page segments)` per coalescing window, keyed by the
/// window holding each segment's start. Windows without segments have no
/// entry.
#[derive(Default)]
struct WindowCounts(HashMap<u64, (usize, usize)>);

impl WindowCounts {
    fn get(&self, win: u64) -> (usize, usize) {
        self.0.get(&win).copied().unwrap_or_default()
    }

    /// Count a segment of `len` bytes starting at `start`.
    fn add(&mut self, start: u64, len: usize) {
        let c = self.0.entry(start / COALESCE_WINDOW).or_default();
        c.0 += 1;
        c.1 += usize::from(len < PAGE_SIZE);
    }

    /// Re-count a segment at `start` whose length went from `old` to `new`.
    fn resize(&mut self, start: u64, old: usize, new: usize) {
        let sub_page = new < PAGE_SIZE;
        if (old < PAGE_SIZE) != sub_page {
            let c = self
                .0
                .get_mut(&(start / COALESCE_WINDOW))
                .expect("segment was counted");
            if sub_page {
                c.1 += 1;
            } else {
                c.1 -= 1;
            }
        }
    }

    /// Uncount a segment previously counted by [`add`](Self::add).
    fn remove(&mut self, start: u64, len: usize) {
        let win = start / COALESCE_WINDOW;
        let c = self.0.get_mut(&win).expect("segment was counted");
        c.0 -= 1;
        c.1 -= usize::from(len < PAGE_SIZE);
        if c.0 == 0 {
            self.0.remove(&win);
        }
    }
}

impl SegmentMemory {
    /// New empty memory (all bytes read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct 4 KiB pages covered by resident segments — the
    /// same footprint measure `SparseMemory::resident_pages` reports.
    pub fn resident_pages(&self) -> usize {
        let mut pages = 0usize;
        let mut last_counted: Option<u64> = None;
        for (&start, seg) in &self.segs {
            let first = start / PAGE_SIZE as u64;
            let last = (start + seg.len() as u64 - 1) / PAGE_SIZE as u64;
            let first = match last_counted {
                Some(lc) if first <= lc => lc + 1,
                _ => first,
            };
            if first <= last {
                pages += (last - first + 1) as usize;
                last_counted = Some(last);
            }
        }
        pages
    }

    /// Number of resident segments (fragmentation metric).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Total bytes written through the write paths.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes read through the read paths.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Write `data` starting at byte address `addr`. Copies `data` once:
    /// in place when one segment covers the span and is the sole holder
    /// of an owned byte backing (no map change), otherwise into a fresh
    /// backing that is inserted like a payload write. Prefer
    /// [`write_payload`](Self::write_payload) for bulk data.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = addr + data.len() as u64;
        if let Some((&s, seg)) = self.segs.range_mut(..=addr).next_back() {
            if s + seg.len() as u64 >= end {
                if let Some(bytes) = seg.unique_mut() {
                    let off = (addr - s) as usize;
                    // The byte-API boundary: this copy replaces the one
                    // into a fresh backing below.
                    bytes[off..off + data.len()].copy_from_slice(data);
                    self.bytes_written += data.len() as u64;
                    return;
                }
            }
        }
        self.write_payload(addr, Payload::from(data));
    }

    /// Write a payload window starting at `addr` — O(log segments) metadata
    /// update, no byte copying. Overlapped extents of existing segments are
    /// trimmed (zero-copy slices); adjacent windows of the same backing
    /// re-join so a producer slicing one large buffer leaves one segment.
    pub fn write_payload(&mut self, addr: u64, data: Payload) {
        self.write_parts(addr, [data]);
    }

    /// Write `parts` back to back from `addr` (one logical write delivered
    /// in pieces, e.g. the TLPs of a DMA). Adjacent parts that continue
    /// the same backing are joined before they are inserted, so 256 page
    /// slices of one 64 KiB window cost one insert, not 256. Every part is
    /// inserted before the coalescing check runs, once per 1 MiB window
    /// the write touched, so a write whose parts re-join into page-sized
    /// windows is never materialised because one of its parts was
    /// transiently sub-page.
    pub fn write_parts(&mut self, addr: u64, parts: impl IntoIterator<Item = Payload>) {
        let mut end = addr;
        let mut run_start = addr;
        let mut run = Payload::empty();
        for p in parts {
            let n = p.len() as u64;
            match run.try_join(&p) {
                Some(joined) => run = joined,
                None => {
                    self.insert_segment(run_start, std::mem::replace(&mut run, p));
                    run_start = end;
                }
            }
            end += n;
        }
        self.insert_segment(run_start, run);
        self.bytes_written += end - addr;
        if end > addr {
            let first = addr / COALESCE_WINDOW;
            let last = (end - 1) / COALESCE_WINDOW;
            for w in first..=last {
                self.maybe_coalesce(w * COALESCE_WINDOW);
            }
        }
    }

    /// Fill `[addr, addr + len)` with `byte` as lazy shared-backing fill
    /// segments — O(len / 1 MiB) metadata, no allocation until (and unless)
    /// the bytes are inspected. Chunks are cut at absolute 1 MiB boundaries
    /// so aligned 1 MiB reads land on exactly one segment.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) {
        if len == 0 {
            return;
        }
        self.bytes_written += len;
        let backing = Payload::fill(byte, FILL_CHUNK.min(len) as usize);
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let chunk_end = ((cur / FILL_CHUNK) + 1) * FILL_CHUNK;
            let n = chunk_end.min(end) - cur;
            self.insert_segment(cur, backing.slice(0..n as usize));
            cur += n;
        }
    }

    /// Read into `out` starting at byte address `addr`. Unwritten bytes
    /// come back as zero; untouched extents never allocate.
    pub fn read(&mut self, addr: u64, out: &mut [u8]) {
        self.bytes_read += out.len() as u64;
        self.read_at(addr, out);
    }

    /// Read `len` bytes starting at `addr` as one [`Payload`] — zero-copy
    /// when one segment covers the span (or the span is a gap, which comes
    /// back as lazy zero-fill); spans crossing backings copy once.
    pub fn read_payload(&mut self, addr: u64, len: usize) -> Payload {
        self.bytes_read += len as u64;
        let parts = self.gather_parts(addr, len);
        match parts.len() {
            0 => Payload::empty(),
            1 => parts.into_iter().next().expect("len checked"),
            _ => Payload::concat(&parts),
        }
    }

    /// Read `len` bytes starting at `addr` as a list of zero-copy payload
    /// parts (in address order, gaps as lazy zero-fill). Never copies.
    pub fn read_payload_parts(&mut self, addr: u64, len: usize) -> Vec<Payload> {
        self.bytes_read += len as u64;
        self.gather_parts(addr, len)
    }

    /// Convenience: read `len` bytes into a fresh vector.
    pub fn read_vec(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v);
        v
    }

    /// Read a little-endian u32.
    pub fn read_u32(&mut self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Read a little-endian u64.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Copy `len` bytes from `src_addr` to `dst_addr` within this memory —
    /// zero-copy: the destination shares the source segments' backings.
    pub fn copy_within(&mut self, src_addr: u64, dst_addr: u64, len: usize) {
        let parts = self.read_payload_parts(src_addr, len);
        self.write_parts(dst_addr, parts);
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.windows = WindowCounts::default();
    }

    /// Gather `[addr, addr + len)` as zero-copy parts: segment slices plus
    /// lazy zero-fill for gaps. Parts cover the span exactly, in order.
    fn gather_parts(&self, addr: u64, len: usize) -> Vec<Payload> {
        if len == 0 {
            return Vec::new();
        }
        let end = addr + len as u64;
        let mut parts = Vec::new();
        let mut cur = addr;
        // A segment starting before `addr` may cover the front.
        if let Some((&s, seg)) = self.segs.range(..addr).next_back() {
            let seg_end = s + seg.len() as u64;
            if seg_end > addr {
                let from = (addr - s) as usize;
                let to = (seg_end.min(end) - s) as usize;
                parts.push(seg.slice(from..to));
                cur = seg_end.min(end);
            }
        }
        for (&s, seg) in self.segs.range(addr..end) {
            if cur >= end {
                break;
            }
            if s > cur {
                parts.push(Payload::fill(0, (s.min(end) - cur) as usize));
                cur = s.min(end);
                if cur >= end {
                    break;
                }
            }
            let seg_end = s + seg.len() as u64;
            let to = (seg_end.min(end) - s) as usize;
            parts.push(seg.slice(0..to));
            cur = seg_end.min(end);
        }
        if cur < end {
            parts.push(Payload::fill(0, (end - cur) as usize));
        }
        parts
    }

    /// Copy `[addr, addr + out.len())` into `out` without touching the
    /// read counter (shared by `read` and the coalescer).
    fn read_at(&self, addr: u64, out: &mut [u8]) {
        let mut off = 0usize;
        for p in self.gather_parts(addr, out.len()) {
            let n = p.len();
            // The copy below is the byte-API boundary: callers handed us a
            // borrowed output buffer, so the bytes must land there.
            out[off..off + n].copy_from_slice(p.as_slice());
            off += n;
        }
    }

    /// Insert `data` at `addr`, trimming any overlapped extents of existing
    /// segments and re-joining with same-backing neighbours. All slicing is
    /// zero-copy. One predecessor lookup handles both the trim and the
    /// join on the left; one forward walk from `addr` removes the covered
    /// segments, keeps a tail reaching past the new window and stops at
    /// the successor at `end`, the join candidate on the right.
    fn insert_segment(&mut self, addr: u64, data: Payload) {
        if data.is_empty() {
            return;
        }
        let end = addr + data.len() as u64;
        let mut start = addr;
        let mut merged = data;
        // The part of an overlapped segment reaching past `end`.
        let mut tail = None;
        if let Some((&s, seg)) = self.segs.range_mut(..addr).next_back() {
            let seg_end = s + seg.len() as u64;
            if seg_end > addr {
                if seg_end > end {
                    tail = Some(seg.slice((end - s) as usize..seg.len()));
                }
                let old_len = seg.len();
                *seg = seg.slice(0..(addr - s) as usize);
                self.windows.resize(s, old_len, seg.len());
            }
            if s + seg.len() as u64 == addr {
                if let Some(j) = seg.try_join(&merged) {
                    // The final `put` replaces the predecessor.
                    start = s;
                    merged = j;
                }
            }
        }
        // A predecessor reaching past `end` leaves nothing else to remove.
        let mut succ = None;
        if tail.is_none() {
            let joins_at_end =
                |s: &u64, seg: &mut Payload| *s < end || merged.try_join(seg).is_some();
            for (s, seg) in self.segs.extract_if(addr..=end, joins_at_end) {
                self.windows.remove(s, seg.len());
                let seg_end = s + seg.len() as u64;
                if s == end {
                    succ = Some(seg);
                } else if seg_end > end {
                    tail = Some(seg.slice((end - s) as usize..seg.len()));
                }
            }
        }
        if let Some(t) = tail {
            match merged.try_join(&t) {
                Some(j) => merged = j,
                None => self.put(end, t),
            }
        } else if let Some(t) = succ {
            merged = merged
                .try_join(&t)
                .expect("the walk only takes a joining successor");
        }
        self.put(start, merged);
    }

    /// Insert `seg` at `addr` (replacing any segment starting there) and
    /// count it in its window.
    fn put(&mut self, addr: u64, seg: Payload) {
        let len = seg.len();
        match self.segs.insert(addr, seg) {
            Some(old) => self.windows.resize(addr, old.len(), len),
            None => self.windows.add(addr, len),
        }
    }

    /// If the 1 MiB window starting at `win_start` holds more than
    /// [`COALESCE_SEGS`] segments and one of them is shorter than a page,
    /// materialise its covered extent into one owned segment. The check
    /// reads the window's counts; only a window that passes it is scanned.
    fn maybe_coalesce(&mut self, win_start: u64) {
        let (count, sub_page) = self.windows.get(win_start / COALESCE_WINDOW);
        debug_assert_eq!(
            (count, sub_page),
            self.scan_counts(win_start),
            "window counts drifted from the segment map"
        );
        if count <= COALESCE_SEGS || sub_page == 0 {
            return;
        }
        let win_end = win_start + COALESCE_WINDOW;
        let mut seen = 0usize;
        let mut seen_sub_page = false;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for (&s, seg) in self.segs.range(win_start..win_end) {
            seen += 1;
            seen_sub_page |= seg.len() < PAGE_SIZE;
            lo = lo.min(s);
            hi = hi.max((s + seg.len() as u64).min(win_end));
            if seen > COALESCE_SEGS && seen_sub_page {
                break;
            }
        }
        let mut buf = vec![0u8; (hi - lo) as usize];
        self.read_at(lo, &mut buf);
        self.insert_segment(lo, Payload::from_vec(buf));
    }

    /// `(segments, sub-page segments)` starting in the window at
    /// `win_start`, by scanning the map (checks the maintained counts).
    fn scan_counts(&self, win_start: u64) -> (usize, usize) {
        self.segs
            .range(win_start..win_start + COALESCE_WINDOW)
            .fold((0, 0), |(n, sub), (_, seg)| {
                (n + 1, sub + usize::from(seg.len() < PAGE_SIZE))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let mut m = SegmentMemory::new();
        assert_eq!(m.read_vec(123_456, 16), vec![0u8; 16]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = SegmentMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write(1000, &data);
        assert_eq!(m.read_vec(1000, 256), data);
        assert_eq!(m.bytes_written(), 256);
    }

    #[test]
    fn overwrite_partial() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 8]);
        m.write(4, &[2u8; 2]);
        assert_eq!(m.read_vec(0, 8), vec![1, 1, 1, 1, 2, 2, 1, 1]);
    }

    #[test]
    fn overwrite_spanning_many_segments() {
        let mut m = SegmentMemory::new();
        for i in 0..8u64 {
            m.write(i * 10, &[i as u8; 10]);
        }
        m.write(15, &[0xee; 50]);
        let got = m.read_vec(0, 80);
        for (i, b) in got.iter().enumerate() {
            let want = if (15..65).contains(&i) {
                0xee
            } else {
                (i / 10) as u8
            };
            assert_eq!(*b, want, "byte {i}");
        }
    }

    #[test]
    fn payload_write_is_retained_zero_copy() {
        let mut m = SegmentMemory::new();
        let p = Payload::pattern(7, 4096);
        m.write_payload(64, p.clone());
        let back = m.read_payload(64, 4096);
        // The store returned our window, not a copy.
        assert!(shares_backing(&p, &back));
        assert_eq!(back, p);
        assert_eq!(m.segment_count(), 1);
    }

    #[test]
    fn adjacent_slices_of_one_buffer_rejoin() {
        let mut m = SegmentMemory::new();
        let big = Payload::from_vec((0u8..=255).cycle().take(4096).collect());
        for i in 0..8 {
            m.write_payload((i * 512) as u64, big.slice(i * 512..(i + 1) * 512));
        }
        assert_eq!(m.segment_count(), 1, "same-backing windows must re-join");
        assert_eq!(m.read_vec(0, 4096), big.to_vec());
    }

    #[test]
    fn gap_reads_are_lazy_fill() {
        let mut m = SegmentMemory::new();
        m.write(8192, &[9u8; 16]);
        let p = m.read_payload(0, 4096);
        let dbg = format!("{p:?}");
        assert!(dbg.contains("fill"), "gap read should be lazy: {dbg}");
        assert_eq!(p.to_vec(), vec![0u8; 4096]);
    }

    #[test]
    fn fill_is_metadata_only_and_aligned() {
        let mut m = SegmentMemory::new();
        m.fill(0, 8 << 20, 0xa5);
        assert_eq!(m.segment_count(), 8, "1 MiB chunks");
        // An aligned 1 MiB read is one zero-copy part.
        let parts = m.read_payload_parts(2 << 20, 1 << 20);
        assert_eq!(parts.len(), 1);
        assert_eq!(m.read_vec(123, 7), vec![0xa5; 7]);
    }

    #[test]
    fn resident_pages_counts_covered_pages_once() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 100]);
        m.write(200, &[2u8; 100]); // same page
        assert_eq!(m.resident_pages(), 1);
        m.write(4096, &[3u8; 4096]);
        assert_eq!(m.resident_pages(), 2);
        m.write(2_000_000_000_000 - 4, &[7u8; 8]);
        assert_eq!(m.resident_pages(), 4, "straddles two pages");
    }

    #[test]
    fn coalesce_bounds_fragmentation() {
        let mut m = SegmentMemory::new();
        // Interleave non-adjacent tiny writes from distinct backings.
        for i in 0..(2 * COALESCE_SEGS as u64) {
            m.write(i * 128, &[i as u8; 64]);
        }
        assert!(
            m.segment_count() <= COALESCE_SEGS + 2,
            "coalescing must bound fragmentation: {} segments",
            m.segment_count()
        );
        // Contents survive coalescing.
        for i in 0..(2 * COALESCE_SEGS as u64) {
            assert_eq!(m.read_vec(i * 128, 64), vec![i as u8; 64]);
            assert_eq!(m.read_vec(i * 128 + 64, 64), vec![0u8; 64]);
        }
    }

    /// True when `got` is a window of `buf`'s backing: a slice of one
    /// re-joins with a slice of the other only if they share a buffer.
    fn shares_backing(buf: &Payload, got: &Payload) -> bool {
        let half = got.len() / 2;
        buf.slice(0..half)
            .try_join(&got.slice(half..got.len()))
            .is_some()
    }

    #[test]
    fn scattered_page_writes_stay_zero_copy() {
        let mut m = SegmentMemory::new();
        m.fill(0, COALESCE_WINDOW, 0x5a);
        let page = PAGE_SIZE as u64;
        let n = 48u64;
        let big = Payload::pattern(3, (n * page) as usize);
        // Every third page: no two writes are adjacent, so nothing re-joins
        // and the window ends up with ~2n page-sized segments (> 64).
        for i in 0..n {
            let b = (i * page) as usize;
            m.write_payload(3 * i * page + page, big.slice(b..b + PAGE_SIZE));
        }
        assert!(m.segment_count() > COALESCE_SEGS);
        for i in 0..n {
            let b = (i * page) as usize;
            let got = m.read_payload(3 * i * page + page, PAGE_SIZE);
            assert!(
                shares_backing(&big.slice(b..b + PAGE_SIZE), &got),
                "page write {i} was materialised"
            );
            assert_eq!(got, big.slice(b..b + PAGE_SIZE));
        }
        assert_eq!(m.read_vec(0, PAGE_SIZE), vec![0x5a; PAGE_SIZE]);
    }

    #[test]
    fn write_parts_coalesces_after_the_whole_write() {
        let mut m = SegmentMemory::new();
        let page = PAGE_SIZE as u64;
        // More than COALESCE_SEGS page-sized segments from distinct backings.
        for i in 0..(COALESCE_SEGS as u64 + 8) {
            m.write_payload(2 * i * page, Payload::pattern(i, PAGE_SIZE));
        }
        let before = m.segment_count();
        // One 4 KiB write delivered as 16 x 256 B parts of one buffer: each
        // part alone is sub-page, but together they re-join into one page.
        let buf = Payload::pattern(99, PAGE_SIZE);
        let at = 21 * page;
        m.write_parts(at, (0..16).map(|i| buf.slice(i * 256..(i + 1) * 256)));
        assert_eq!(m.segment_count(), before + 1, "window was materialised");
        let got = m.read_payload(at, PAGE_SIZE);
        assert!(shares_backing(&buf, &got));
        assert_eq!(got, buf);
        assert_eq!(m.bytes_written(), before as u64 * page + page);
    }

    #[test]
    fn sub_page_fragment_still_triggers_coalescing() {
        let mut m = SegmentMemory::new();
        let page = PAGE_SIZE as u64;
        for i in 0..(COALESCE_SEGS as u64 + 8) {
            m.write_payload(2 * i * page, Payload::pattern(i, PAGE_SIZE));
        }
        m.write(21 * page, &[7u8; 48]);
        assert!(
            m.segment_count() <= COALESCE_SEGS + 2,
            "a sub-page fragment must bound the window: {} segments",
            m.segment_count()
        );
        assert_eq!(m.read_vec(21 * page, 48), vec![7u8; 48]);
        assert_eq!(
            m.read_payload(2 * page, PAGE_SIZE),
            Payload::pattern(1, PAGE_SIZE)
        );
    }

    /// Fragment one window with 64 B writes until it is materialised.
    fn coalesced_ring() -> SegmentMemory {
        let mut m = SegmentMemory::new();
        for i in 0..(2 * COALESCE_SEGS as u64) {
            m.write(i * 128, &[i as u8; 64]);
        }
        m
    }

    #[test]
    fn byte_write_into_materialised_window_lands_in_place() {
        let mut m = coalesced_ring();
        let before = m.segment_count();
        m.write(3 * 128 + 8, &[0xab; 48]);
        m.write_u64(40 * 128, 0x0102_0304_0506_0708);
        assert_eq!(m.segment_count(), before, "no segment was split");
        let mut want = vec![3u8; 64];
        want[8..56].fill(0xab);
        assert_eq!(m.read_vec(3 * 128, 64), want);
        assert_eq!(m.read_u64(40 * 128), 0x0102_0304_0506_0708);
        assert_eq!(m.read_vec(40 * 128 + 8, 56), vec![40u8; 56]);
        assert_eq!(m.read_vec(4 * 128, 64), vec![4u8; 64]);
    }

    #[test]
    fn byte_write_never_changes_a_held_snapshot() {
        let mut m = coalesced_ring();
        let snap = m.read_payload(5 * 128, 64);
        m.write(5 * 128, &[0xcd; 64]);
        assert_eq!(snap, vec![5u8; 64], "reader snapshot was mutated");
        assert_eq!(m.read_vec(5 * 128, 64), vec![0xcd; 64]);
        // Trim the window so its two halves share one backing: neither
        // half is written in place, and each keeps its other bytes.
        let mut m = coalesced_ring();
        let cut = Payload::pattern(1, 128);
        m.write_payload(10 * 128, cut.clone());
        m.write(2 * 128, &[0xee; 16]);
        m.write(20 * 128, &[0xef; 16]);
        assert_eq!(m.read_vec(2 * 128 + 15, 2), vec![0xee, 2]);
        assert_eq!(m.read_vec(20 * 128 + 15, 2), vec![0xef, 20]);
        assert_eq!(m.read_payload(10 * 128, 128), cut);
        for i in [0u64, 9, 11, 19, 30, 64] {
            assert_eq!(m.read_vec(i * 128, 64), vec![i as u8; 64], "slot {i}");
        }
        // A zero-copy copy elsewhere shares the backing too.
        let mut m = coalesced_ring();
        m.copy_within(128, 1 << 20, 64);
        m.write(128, &[0xaa; 8]);
        assert_eq!(m.read_vec(1 << 20, 8), vec![1u8; 8]);
        assert_eq!(m.read_vec(128, 8), vec![0xaa; 8]);
    }

    #[test]
    fn copy_within_shares_backing() {
        let mut m = SegmentMemory::new();
        m.write(0, b"hello world");
        m.copy_within(0, 1 << 20, 11);
        assert_eq!(m.read_vec(1 << 20, 11), b"hello world");
        assert_eq!(m.segment_count(), 2);
    }

    #[test]
    fn scalar_helpers() {
        let mut m = SegmentMemory::new();
        m.write_u32(16, 0xdead_beef);
        m.write_u64(24, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(16), 0xdead_beef);
        assert_eq!(m.read_u64(24), 0x0123_4567_89ab_cdef);
    }
}
