//! Synthetic image stream.
//!
//! The paper streams 16384 images totalling 147 GB over 100 G Ethernet
//! (Sec 6.2) — exactly 9 MB per frame, i.e. 2048×1536 RGB. We generate
//! deterministic images with real pixel structure (smooth gradients plus
//! a class-dependent pattern) so the downscaler and classifier operate on
//! meaningful data and classifications are reproducible.

use snacc_sim::SimRng;

/// The case-study capture format: 2048×1536 at 3 bytes per pixel, exactly
/// 9,437,184 B (9 MiB) per frame. 16384 frames are 154.6 GB; the paper's
/// 147 GB (Sec 6.2) counts each frame as 9 MB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageFormat {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl ImageFormat {
    /// The paper's capture resolution.
    pub fn capture() -> Self {
        ImageFormat {
            width: 2048,
            height: 1536,
        }
    }

    /// The classifier input resolution (MobileNet-V1).
    pub fn classify() -> Self {
        ImageFormat {
            width: 224,
            height: 224,
        }
    }

    /// Payload bytes (RGB).
    pub fn bytes(&self) -> usize {
        self.width as usize * self.height as usize * 3
    }
}

/// On-wire image header (precedes the pixel payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageHeader {
    /// Frame sequence number.
    pub id: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Ground-truth class baked into the pattern (for verification).
    pub truth: u32,
}

/// Header magic.
pub const IMAGE_MAGIC: u32 = 0x534E_4949; // "SNII"
/// Encoded header size.
pub const HEADER_BYTES: usize = 20;

impl ImageHeader {
    /// Encode to wire format.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut b = [0u8; HEADER_BYTES];
        b[0..4].copy_from_slice(&IMAGE_MAGIC.to_le_bytes());
        b[4..12].copy_from_slice(&self.id.to_le_bytes());
        b[12..16].copy_from_slice(&self.len.to_le_bytes());
        b[16..20].copy_from_slice(&self.truth.to_le_bytes());
        b
    }

    /// Decode; `None` if the magic doesn't match.
    pub fn decode(b: &[u8]) -> Option<ImageHeader> {
        if b.len() < HEADER_BYTES {
            return None;
        }
        let magic = u32::from_le_bytes(b[0..4].try_into().unwrap());
        if magic != IMAGE_MAGIC {
            return None;
        }
        Some(ImageHeader {
            id: u64::from_le_bytes(b[4..12].try_into().unwrap()),
            len: u32::from_le_bytes(b[12..16].try_into().unwrap()),
            truth: u32::from_le_bytes(b[16..20].try_into().unwrap()),
        })
    }
}

/// Number of classes the synthetic pattern encodes.
pub const NUM_CLASSES: u32 = 10;

/// Generate frame `id`: a gradient background with a class-dependent
/// block pattern (the class is `id % NUM_CLASSES`). Fully deterministic.
pub fn generate_image(fmt: ImageFormat, id: u64) -> (ImageHeader, Vec<u8>) {
    let truth = (id % NUM_CLASSES as u64) as u32;
    let mut px = vec![0u8; fmt.bytes()];
    // Noise is keyed by class so frames of one class are bit-identical —
    // the wire sender caches one body per class and patches headers.
    let mut rng = SimRng::new(truth as u64 ^ 0x1417_beef);
    let w = fmt.width as usize;
    let h = fmt.height as usize;
    // Class pattern: vertical bands whose period depends on the class.
    // Periods stay resolvable after the 2048→224 downscale.
    let period = 24 + truth as usize * 20;
    let bands: Vec<u8> = (0..w)
        .map(|x| {
            if (x / period).is_multiple_of(2) {
                200
            } else {
                40
            }
        })
        .collect();
    let mut noise = vec![0u8; w];
    for y in 0..h {
        let row = &mut px[y * w * 3..(y + 1) * w * 3];
        // One draw per pixel in row-major order, drawn ahead of the
        // pixel arithmetic so that loop has no RNG call in it.
        for n in noise.iter_mut() {
            *n = (rng.next_u64() & 0x0f) as u8;
        }
        // With band ∈ {40, 200}, n ≤ 15 and grad = 255·y/h ≤ 254:
        // R = band + n ≤ 215 and B = (band + grad)/2 + n ≤ 242 never
        // reach 255; only G can, and it saturates there.
        let grad = (255 * y / h) as u8;
        for ((p, &band), &n) in row.chunks_exact_mut(3).zip(&bands).zip(&noise) {
            p[0] = band + n;
            p[1] = grad.saturating_add(n);
            p[2] = ((u16::from(band) + u16::from(grad)) / 2) as u8 + n;
        }
    }
    let hdr = ImageHeader {
        id,
        len: px.len() as u32,
        truth,
    };
    (hdr, px)
}

/// Box-filter downscale the RGB image `from`, given as consecutive byte
/// `chunks` (a flat image is `[&px[..]]`), to `to` — the "scale the
/// images down to 224×224 pixels" PE of Fig 5, with real arithmetic.
///
/// Output pixel `(tx, ty)` is the mean of source columns
/// `[tx·fw/tw, (tx+1)·fw/tw)` and rows `[ty·fh/th, (ty+1)·fh/th)`. Since
/// `to` is no larger than `from`, these boxes partition the source, so
/// each source row is added once into per-column sums and each output
/// row is read off those sums. A row that lies inside one chunk is read
/// in place; only a row that straddles chunks is copied, into one
/// row-sized scratch buffer.
pub fn downscale<'a>(
    chunks: impl IntoIterator<Item = &'a [u8]>,
    from: ImageFormat,
    to: ImageFormat,
) -> Vec<u8> {
    let (fw, fh) = (from.width as usize, from.height as usize);
    let (tw, th) = (to.width as usize, to.height as usize);
    assert!(
        (1..=fw).contains(&tw) && (1..=fh).contains(&th),
        "downscale maps onto a non-empty format no larger than its source"
    );
    let row_bytes = fw * 3;
    // Column boundaries of the output boxes.
    let xs: Vec<usize> = (0..=tw).map(|tx| tx * fw / tw).collect();
    let mut col_sums = vec![0u32; row_bytes];
    let mut out = Vec::with_capacity(to.bytes());
    let mut y = 0;
    let mut add_row = |row: &[u8]| {
        assert!(y < fh, "image longer than its format");
        for (s, &p) in col_sums.iter_mut().zip(row) {
            *s += u32::from(p);
        }
        y += 1;
        let ty = out.len() / (tw * 3);
        let (y0, y1) = (ty * fh / th, (ty + 1) * fh / th);
        if y < y1 {
            return;
        }
        for x in xs.windows(2) {
            let n = ((y1 - y0) * (x[1] - x[0])) as u32;
            let mut acc = [0u32; 3];
            for px in col_sums[x[0] * 3..x[1] * 3].chunks_exact(3) {
                acc[0] += px[0];
                acc[1] += px[1];
                acc[2] += px[2];
            }
            out.extend(acc.map(|a| (a / n) as u8));
        }
        col_sums.fill(0);
    };
    let mut straddle = Vec::with_capacity(row_bytes);
    for mut chunk in chunks {
        if !straddle.is_empty() {
            let take = (row_bytes - straddle.len()).min(chunk.len());
            straddle.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if straddle.len() < row_bytes {
                continue;
            }
            add_row(&straddle);
            straddle.clear();
        }
        let mut rows = chunk.chunks_exact(row_bytes);
        rows.by_ref().for_each(&mut add_row);
        straddle.extend_from_slice(rows.remainder());
    }
    assert!(
        y == fh && straddle.is_empty(),
        "image shorter than its format"
    );
    out
}

/// The classifier: fixed-point band-period features + a deterministic
/// decision rule. Operates on the 224×224 downscaled image and recovers
/// the band period (and thus the class) the generator baked in. This is
/// the functional stand-in for the FINN MobileNet-V1 PE — small but real
/// arithmetic over every pixel.
pub fn classify(img: &[u8], fmt: ImageFormat) -> u32 {
    assert_eq!(img.len(), fmt.bytes());
    let w = fmt.width as usize;
    let h = fmt.height as usize;
    // Threshold the red channel and count bright/dark transitions along
    // rows; the mean band width recovers the pattern period.
    let mut transitions: u64 = 0;
    let mut rows: u64 = 0;
    for y in (0..h).step_by(4) {
        rows += 1;
        let row = y * w * 3;
        let mut prev_bright = img[row] >= 120;
        for x in 1..w {
            let bright = img[row + x * 3] >= 120;
            if bright != prev_bright {
                transitions += 1;
            }
            prev_bright = bright;
        }
    }
    if transitions == 0 {
        return 0;
    }
    // Each band is one run: per row there are capture_width / period
    // transitions, independent of the downscale factor.
    let capture_width = 2048u64;
    let period = capture_width * rows / transitions;
    // Invert period = 24 + 20·class.
    let class = (period.saturating_sub(24) + 10) / 20;
    (class as u32).min(NUM_CLASSES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The generator as first written: one RNG draw and three clamped
    /// `u16` sums per pixel. [`generate_image`] must match it bit for bit.
    fn reference_image(fmt: ImageFormat, id: u64) -> Vec<u8> {
        let truth = (id % NUM_CLASSES as u64) as u32;
        let mut px = vec![0u8; fmt.bytes()];
        let mut rng = SimRng::new(truth as u64 ^ 0x1417_beef);
        let w = fmt.width as usize;
        let h = fmt.height as usize;
        let period = 24 + truth as usize * 20;
        for y in 0..h {
            let row = y * w * 3;
            for x in 0..w {
                let o = row + x * 3;
                let band = if (x / period).is_multiple_of(2) {
                    200u16
                } else {
                    40u16
                };
                let grad = (255 * y / h) as u16;
                let noise = (rng.next_u64() & 0x0f) as u16;
                px[o] = ((band + noise).min(255)) as u8;
                px[o + 1] = ((grad + noise).min(255)) as u8;
                px[o + 2] = (((band + grad) / 2 + noise).min(255)) as u8;
            }
        }
        px
    }

    /// The box filter as first written: a nested loop per output pixel
    /// over a flat image. [`downscale`] must match it bit for bit.
    fn reference_downscale(src: &[u8], from: ImageFormat, to: ImageFormat) -> Vec<u8> {
        assert_eq!(src.len(), from.bytes());
        let (fw, fh) = (from.width as usize, from.height as usize);
        let (tw, th) = (to.width as usize, to.height as usize);
        let mut out = vec![0u8; to.bytes()];
        for ty in 0..th {
            let y0 = ty * fh / th;
            let y1 = ((ty + 1) * fh / th).max(y0 + 1);
            for tx in 0..tw {
                let x0 = tx * fw / tw;
                let x1 = ((tx + 1) * fw / tw).max(x0 + 1);
                let mut acc = [0u32; 3];
                let n = ((y1 - y0) * (x1 - x0)) as u32;
                for y in y0..y1 {
                    for x in x0..x1 {
                        let o = (y * fw + x) * 3;
                        acc[0] += src[o] as u32;
                        acc[1] += src[o + 1] as u32;
                        acc[2] += src[o + 2] as u32;
                    }
                }
                let o = (ty * tw + tx) * 3;
                out[o] = (acc[0] / n) as u8;
                out[o + 1] = (acc[1] / n) as u8;
                out[o + 2] = (acc[2] / n) as u8;
            }
        }
        out
    }

    /// Split `src` into consecutive chunks whose lengths cycle through
    /// `lens`; a zero length yields an empty chunk followed by a 1-byte
    /// one. The list starts and ends with an empty chunk.
    fn chunked<'a>(src: &'a [u8], lens: &[usize]) -> Vec<&'a [u8]> {
        let mut out = vec![&src[..0]];
        let mut at = 0;
        for &len in lens.iter().cycle() {
            if at == src.len() {
                break;
            }
            let mut n = len;
            if n == 0 {
                out.push(&src[at..at]);
                n = 1;
            }
            let n = n.min(src.len() - at);
            out.push(&src[at..at + n]);
            at += n;
        }
        out.push(&src[src.len()..]);
        out
    }

    #[test]
    fn generator_matches_reference_for_every_class() {
        let cap = ImageFormat::capture();
        for id in 0..u64::from(NUM_CLASSES) {
            assert_eq!(
                generate_image(cap, id).1,
                reference_image(cap, id),
                "class {id}"
            );
        }
    }

    #[test]
    fn generator_matches_reference_at_odd_formats() {
        // 1001 is a multiple of no band period (24 + 20·class); 300 rows
        // take grad past 240, where G saturates; empty formats stay empty.
        for (width, height) in [(1, 1), (37, 5), (1001, 3), (3, 300), (0, 4), (4, 0)] {
            let fmt = ImageFormat { width, height };
            for id in 0..u64::from(NUM_CLASSES) {
                let got = generate_image(fmt, id).1;
                assert_eq!(got, reference_image(fmt, id), "{width}x{height} class {id}");
            }
        }
    }

    #[test]
    fn downscale_of_a_tee_shaped_capture_matches_reference() {
        // Like the classification tee: a first window 20 B short (the
        // header shares its frame), then 8 KiB frames, so 6 KiB rows
        // straddle frames.
        let (cap, cls) = (ImageFormat::capture(), ImageFormat::classify());
        let px = generate_image(cap, 3).1;
        let chunks = chunked(&px, &[8192 - HEADER_BYTES, 8192, 8192]);
        assert_eq!(
            downscale(chunks, cap, cls),
            reference_downscale(&px, cap, cls)
        );
    }

    proptest! {
        #[test]
        fn downscale_matches_reference_over_any_chunking(
            fw in 1u32..40,
            fh in 1u32..40,
            tw in any::<u32>(),
            th in any::<u32>(),
            seed in any::<u64>(),
            lens in proptest::collection::vec(0usize..300, 1..6),
        ) {
            // Any target no larger than the source, most not dividing it.
            let from = ImageFormat { width: fw, height: fh };
            let to = ImageFormat { width: 1 + tw % fw, height: 1 + th % fh };
            let mut rng = SimRng::new(seed);
            let src: Vec<u8> = (0..from.bytes()).map(|_| rng.next_u64() as u8).collect();
            let want = reference_downscale(&src, from, to);
            prop_assert_eq!(downscale([&src[..]], from, to), want.clone());
            prop_assert_eq!(downscale(chunked(&src, &[1]), from, to), want.clone());
            prop_assert_eq!(downscale(chunked(&src, &lens), from, to), want);
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = ImageHeader {
            id: 42,
            len: 9_437_184,
            truth: 7,
        };
        assert_eq!(ImageHeader::decode(&h.encode()), Some(h));
        assert_eq!(ImageHeader::decode(&[0u8; HEADER_BYTES]), None);
    }

    #[test]
    fn capture_format_matches_paper_totals() {
        let f = ImageFormat::capture();
        assert_eq!(f.bytes(), 9_437_184);
        // 16384 frames ≈ 147 GB as reported in Sec 6.2.
        let total = f.bytes() as u64 * 16384;
        assert!((total as f64 / 1e9 - 154.6).abs() < 1.0 || total / 1_000_000_000 == 154);
        // (The paper's "147 GB" is 16384 × 9 MB read as GiB-ish; we match
        // the frame count and size exactly.)
    }

    #[test]
    fn generation_is_deterministic() {
        let (h1, p1) = generate_image(ImageFormat::capture(), 5);
        let (h2, p2) = generate_image(ImageFormat::capture(), 5);
        assert_eq!(h1, h2);
        assert_eq!(p1, p2);
        assert_eq!(h1.truth, 5);
    }

    #[test]
    fn downscale_shrinks_and_averages() {
        let from = ImageFormat {
            width: 16,
            height: 16,
        };
        let to = ImageFormat {
            width: 4,
            height: 4,
        };
        let src = vec![100u8; from.bytes()];
        let out = downscale([&src[..]], from, to);
        assert_eq!(out.len(), to.bytes());
        assert!(out.iter().all(|&v| v == 100));
    }

    #[test]
    fn classifier_recovers_ground_truth() {
        let cap = ImageFormat::capture();
        let cls = ImageFormat::classify();
        let mut correct = 0;
        let n = 20;
        for id in 0..n {
            let (hdr, px) = generate_image(cap, id);
            let small = downscale([&px[..]], cap, cls);
            let got = classify(&small, cls);
            if got == hdr.truth {
                correct += 1;
            }
        }
        // The tiny model needn't be perfect — MobileNet-V1 isn't either —
        // but it must be far above chance (10 classes).
        assert!(correct >= n * 6 / 10, "only {correct}/{n} correct");
    }
}
