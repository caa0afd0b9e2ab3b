//! Property tests: [`SegmentMemory`] is byte-equivalent to the
//! page-materialising [`SparseMemory`] under arbitrary write / read /
//! overwrite / span / fill / copy / multi-part write sequences — the
//! segment store is a pure representation change (zero-copy windows + CoW
//! coalescing + in-place byte writes) and must never alter what a read
//! returns, including a payload read earlier and still held. Also checks
//! that `resident_pages` is monotone while no `clear` happens (coverage
//! only ever grows), and that a multi-part write leaves the segments
//! writing its parts one at a time would.

use proptest::prelude::*;
use snacc_mem::{SegmentMemory, SparseMemory};
use snacc_sim::bytes::Payload;

/// Keep the models inside a small address space so random ops overlap
/// and straddle each other often.
const SPACE: u64 = 1 << 15;

/// One coalescing window, in bytes and in pages.
const WINDOW: u64 = snacc_mem::segment::COALESCE_WINDOW;
const PAGE: u64 = snacc_mem::sparse::PAGE_SIZE as u64;
const PAGES: u64 = WINDOW / PAGE;

/// Apply one op to both stores. A read op returns the segment store's
/// payload together with the byte store's bytes for the same span.
fn apply(
    seg: &mut SegmentMemory,
    sparse: &mut SparseMemory,
    op: [u64; 4],
) -> Option<(Payload, Vec<u8>)> {
    let [sel, a, l, s] = op;
    let addr = a % SPACE;
    let len = 1 + l % 5000;
    match sel % 8 {
        0 => {
            // Byte write of deterministic junk.
            let data: Vec<u8> = (0..len).map(|i| (s ^ i) as u8).collect();
            seg.write(addr, &data);
            sparse.write(addr, &data);
        }
        1 => {
            // Zero-copy payload write of a lazy pattern window.
            let p = Payload::pattern(s, len as usize);
            seg.write_payload(addr, p.clone());
            sparse.write(addr, p.as_slice());
        }
        2 => {
            // A slice of a shared backing (windows that may re-join).
            let big = Payload::pattern(s, 8192);
            let from = (a % 4096) as usize;
            let to = from + (len as usize).min(8192 - from);
            seg.write_payload(addr, big.slice(from..to));
            sparse.write(addr, &big.as_slice()[from..to]);
        }
        3 => {
            // Lazy fill vs materialised fill.
            let byte = s as u8;
            seg.fill(addr, len, byte);
            sparse.write(addr, &vec![byte; len as usize]);
        }
        4 => {
            // Zero-copy intra-store copy vs read+write.
            let dst = s % SPACE;
            seg.copy_within(addr, dst, len as usize);
            let bytes = sparse.read_vec(addr, len as usize);
            sparse.write(dst, &bytes);
        }
        5 => {
            // Scalar writes.
            seg.write_u64(addr, s);
            sparse.write_u64(addr, s);
        }
        6 => {
            // One write delivered as parts: adjacent slices of one buffer
            // with parts of other backings mixed in.
            let parts = mixed_parts(s, 1 + (l % 48) as usize, 1 + (a % 200) as usize);
            let n: usize = parts.iter().map(Payload::len).sum();
            let addr = addr.min(SPACE - n as u64);
            for (p, at) in parts.iter().zip(part_addrs(addr, &parts)) {
                sparse.write(at, p.as_slice());
            }
            seg.write_parts(addr, parts);
        }
        _ => {
            // A zero-copy read the caller holds across the next op.
            let p = seg.read_payload(addr, len as usize);
            return Some((p, sparse.read_vec(addr, len as usize)));
        }
    }
    None
}

/// `count` back-to-back parts of `len` bytes each: slices of one buffer,
/// except where bit k of `s` picks a part of its own backing.
fn mixed_parts(s: u64, count: usize, len: usize) -> Vec<Payload> {
    let big = Payload::pattern(s, count * len);
    (0..count)
        .map(|k| {
            if (s >> (k % 64)) & 1 == 1 {
                Payload::from_vec(vec![k as u8; len])
            } else {
                big.slice(k * len..(k + 1) * len)
            }
        })
        .collect()
}

/// Start address of each of `parts` when written back to back from `addr`.
fn part_addrs(addr: u64, parts: &[Payload]) -> Vec<u64> {
    let mut at = addr;
    parts
        .iter()
        .map(|p| {
            let a = at;
            at += p.len() as u64;
            a
        })
        .collect()
}

proptest! {
    /// Same bytes out under arbitrary op sequences, through every read
    /// path, a payload read stays unchanged while later ops (in-place
    /// byte writes among them) run, and `resident_pages` never shrinks.
    #[test]
    fn segment_store_matches_byte_store(
        ops in proptest::collection::vec(any::<[u64; 4]>(), 1..32),
        probes in proptest::collection::vec(any::<[u64; 2]>(), 1..8),
    ) {
        let mut seg = SegmentMemory::new();
        let mut sparse = SparseMemory::new();
        let mut pages_before = 0usize;
        let mut held: Option<(Payload, Vec<u8>)> = None;
        for op in ops {
            let read = apply(&mut seg, &mut sparse, op);
            if let Some((p, want)) = held.take() {
                prop_assert!(p.as_slice() == &want[..], "a held read changed");
            }
            if let Some((p, want)) = &read {
                prop_assert_eq!(p.as_slice(), &want[..]);
            }
            held = read;
            let pages = seg.resident_pages();
            prop_assert!(
                pages >= pages_before,
                "resident_pages shrank: {} -> {}", pages_before, pages
            );
            pages_before = pages;
        }
        for [a, l] in probes {
            let addr = a % (SPACE + 4096); // probe past the write space too
            let len = (l % 9000) as usize;
            let want = sparse.read_vec(addr, len);
            // Byte path.
            prop_assert_eq!(&seg.read_vec(addr, len), &want);
            // Zero-copy single-payload path.
            let p = seg.read_payload(addr, len);
            prop_assert_eq!(p.as_slice(), &want[..]);
            // Zero-copy parts path: parts tile the span exactly.
            let parts = seg.read_payload_parts(addr, len);
            let mut flat = Vec::with_capacity(len);
            for p in &parts {
                flat.extend_from_slice(p.as_slice());
            }
            prop_assert_eq!(&flat, &want);
        }
    }

    /// Interleaved tiny writes trip CoW coalescing without changing any
    /// byte; fragmentation stays bounded per window. `mix` selects which
    /// writes land: 48 B ones only, page-granular ones only (over a
    /// prewarmed fill, never coalesced but bounded by a page per segment),
    /// or both interleaved.
    #[test]
    fn coalescing_preserves_bytes(
        writes in proptest::collection::vec(any::<[u64; 2]>(), 80..200),
        mix in 0u8..3,
    ) {
        let mut seg = SegmentMemory::new();
        let mut sparse = SparseMemory::new();
        if mix > 0 {
            seg.fill(0, WINDOW, 0x3c);
            sparse.write(0, &vec![0x3c; WINDOW as usize]);
        }
        for (i, [a, s]) in writes.iter().enumerate() {
            let page_write = match mix {
                0 => false,
                1 => true,
                _ => i % 2 == 1,
            };
            if page_write {
                // Page-aligned 1-4 page writes of lazy pattern windows.
                let addr = (a % PAGES) * PAGE;
                let len = (PAGE * (1 + s % 4)).min(WINDOW - addr) as usize;
                let p = Payload::pattern(*s, len);
                seg.write_payload(addr, p.clone());
                sparse.write(addr, p.as_slice());
            } else {
                // Dense tiny writes inside one 1 MiB window.
                let addr = a % WINDOW;
                let data = [(s & 0xff) as u8; 48];
                seg.write(addr, &data);
                sparse.write(addr, &data);
            }
        }
        let bound = match mix {
            0 => snacc_mem::segment::COALESCE_SEGS + 2,
            1 => PAGES as usize + 2,
            _ => usize::MAX,
        };
        prop_assert!(
            seg.segment_count() <= bound,
            "window fragmentation unbounded: {} segments (mix {})", seg.segment_count(), mix
        );
        let want = sparse.read_vec(0, WINDOW as usize);
        prop_assert_eq!(seg.read_vec(0, WINDOW as usize), want);
    }

    /// `write_parts` of 256 back-to-back parts (adjacent slices of one
    /// buffer, with other backings mixed in) stores the same bytes as the
    /// byte store and, for page-sized parts, exactly as many segments as
    /// writing the parts one at a time.
    #[test]
    fn write_parts_matches_one_at_a_time(
        s in any::<u64>(),
        at in 0u64..WINDOW,
        sub_page in any::<bool>(),
        prewarm in any::<bool>(),
    ) {
        let len = if sub_page { 1 + (s % 4000) as usize } else { PAGE as usize };
        let parts = mixed_parts(s, 256, len);
        let addr = if sub_page { at } else { at / PAGE * PAGE };
        let span = 2 * WINDOW + 256 * PAGE;
        let mut batched = SegmentMemory::new();
        let mut single = SegmentMemory::new();
        let mut sparse = SparseMemory::new();
        if prewarm {
            batched.fill(0, span, 0x3c);
            single.fill(0, span, 0x3c);
            sparse.write(0, &vec![0x3c; span as usize]);
        }
        for (p, a) in parts.iter().zip(part_addrs(addr, &parts)) {
            single.write_payload(a, p.clone());
            sparse.write(a, p.as_slice());
        }
        batched.write_parts(addr, parts);
        let want = sparse.read_vec(0, span as usize);
        prop_assert!(batched.read_vec(0, span as usize) == want, "write_parts bytes differ");
        prop_assert!(single.read_vec(0, span as usize) == want, "write_payload bytes differ");
        if !sub_page {
            prop_assert_eq!(batched.segment_count(), single.segment_count());
        }
    }
}
