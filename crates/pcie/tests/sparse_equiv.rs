//! Differential tests of `PhysMemory`'s sparse page store against a dense
//! reference model kept here: one flat byte vector per region, plus the
//! set of pages any write has touched (the modelled footprint) and the set
//! that has ever received a non-zero byte (the pages with host backing).
//! Driven by the deterministic in-repo [`Rng`].

use std::collections::BTreeSet;

use dcs_pcie::{AddrRange, PhysAddr, PhysMemory, PortId};
use dcs_sim::Rng;

const PAGE: usize = 4096;
/// Pages per modelled region: small enough to compare whole regions after
/// every step, large enough for multi-page spans.
const REGION_PAGES: usize = 12;
const REGION_LEN: usize = REGION_PAGES * PAGE;

/// The dense reference for one region.
struct DenseRegion {
    range: AddrRange,
    bytes: Vec<u8>,
    /// Pages that any write (including a copy's) has touched.
    touched: BTreeSet<usize>,
    /// Pages that have ever been written a non-zero byte.
    nonzero: BTreeSet<usize>,
}

impl DenseRegion {
    fn write(&mut self, off: usize, data: &[u8]) {
        self.bytes[off..off + data.len()].copy_from_slice(data);
        for (i, &b) in data.iter().enumerate() {
            let page = (off + i) / PAGE;
            self.touched.insert(page);
            if b != 0 {
                self.nonzero.insert(page);
            }
        }
    }
}

/// What a copy's source page looked like before the copy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum SourcePage {
    Untouched,
    ZeroMaterialized,
    Backed,
}

struct Harness {
    mem: PhysMemory,
    model: Vec<DenseRegion>,
    /// Which kinds of source page cross-region copies have read from.
    copied_from: BTreeSet<SourcePage>,
}

impl Harness {
    /// Three allocated regions on distinct ports and one fixed region
    /// registered below them.
    fn new() -> Self {
        let mut mem = PhysMemory::new();
        let mut ranges = Vec::new();
        for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
            ranges.push(mem.alloc_region(name, REGION_LEN as u64, PortId(i as u16)));
        }
        let fixed = AddrRange::new(PhysAddr(0x10_0000), REGION_LEN as u64);
        mem.add_region_at("fixed", fixed, PortId(7));
        ranges.push(fixed);
        let model = ranges
            .into_iter()
            .map(|range| DenseRegion {
                range,
                bytes: vec![0; REGION_LEN],
                touched: BTreeSet::new(),
                nonzero: BTreeSet::new(),
            })
            .collect();
        Harness {
            mem,
            model,
            copied_from: BTreeSet::new(),
        }
    }

    fn addr(&self, region: usize, off: usize) -> PhysAddr {
        self.model[region].range.start + off as u64
    }

    fn write(&mut self, region: usize, off: usize, data: &[u8]) {
        self.mem.write(self.addr(region, off), data);
        self.model[region].write(off, data);
    }

    fn copy(&mut self, (sr, so): (usize, usize), (dr, d_off): (usize, usize), len: usize) {
        if sr != dr {
            let src = &self.model[sr];
            for page in so / PAGE..(so + len).div_ceil(PAGE) {
                self.copied_from.insert(if src.nonzero.contains(&page) {
                    SourcePage::Backed
                } else if src.touched.contains(&page) {
                    SourcePage::ZeroMaterialized
                } else {
                    SourcePage::Untouched
                });
            }
        }
        self.mem.copy(self.addr(sr, so), self.addr(dr, d_off), len);
        let data = self.model[sr].bytes[so..so + len].to_vec();
        self.model[dr].write(d_off, &data);
    }

    /// Reads `[off, off+len)` of `region` through `read`, `read_into` and
    /// `visit` and checks each against the model.
    fn check_span(&self, region: usize, off: usize, len: usize) {
        let addr = self.addr(region, off);
        let want = &self.model[region].bytes[off..off + len];
        assert_eq!(
            self.mem.read(addr, len),
            want,
            "read r{region} +{off} len {len}"
        );
        let mut buf = vec![0xA5; len];
        self.mem.read_into(addr, &mut buf);
        assert_eq!(buf, want, "read_into r{region} +{off} len {len}");
        let mut seen = Vec::with_capacity(len);
        self.mem.visit(addr, len, |piece| {
            assert!(!piece.is_empty() && piece.len() <= PAGE);
            seen.extend_from_slice(piece);
        });
        assert_eq!(seen, want, "visit r{region} +{off} len {len}");
    }

    /// Every region's bytes and both page counts match the model.
    fn check_all(&self) {
        for r in 0..self.model.len() {
            self.check_span(r, 0, REGION_LEN);
        }
        let pages = |f: fn(&DenseRegion) -> usize| self.model.iter().map(f).sum::<usize>() * PAGE;
        assert_eq!(self.mem.resident_bytes(), pages(|m| m.touched.len()));
        assert_eq!(self.mem.backed_bytes(), pages(|m| m.nonzero.len()));
        assert!(self.mem.backed_bytes() <= self.mem.resident_bytes());
    }
}

/// A random span inside a region: unaligned, often straddling pages, up
/// to three pages long.
fn span(rng: &mut Rng) -> (usize, usize) {
    let len = match rng.gen_range(0..4) {
        0 => rng.gen_range(1..65) as usize,
        1 => PAGE,
        _ => rng.gen_range(1..3 * PAGE as u64) as usize,
    };
    let off = rng.gen_range(0..(REGION_LEN - len) as u64 + 1) as usize;
    (off, len)
}

/// Write data of one of the shapes that matter to zero-page elision.
fn payload(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    match rng.gen_range(0..6) {
        // All zero.
        0 | 1 => {}
        // Non-zero throughout.
        2 => v.iter_mut().for_each(|b| *b = rng.gen_range(1..256) as u8),
        // Mixed: random bytes with zero runs.
        3 => {
            rng.fill_bytes(&mut v);
            let a = rng.gen_range(0..len as u64) as usize;
            let b = rng.gen_range(a as u64..len as u64 + 1) as usize;
            v[a..b].fill(0);
        }
        // Zero but for the last byte, or the first.
        4 => v[len - 1] = 0x80,
        _ => v[0] = 0x01,
    }
    v
}

#[test]
fn random_operations_match_the_dense_model() {
    for seed in 0..6u64 {
        let mut rng = Rng::new(0x5350_4152 ^ seed);
        let mut h = Harness::new();
        let regions = h.model.len() as u64;
        for step in 0..400 {
            let r = rng.gen_range(0..regions) as usize;
            match rng.gen_range(0..10) {
                0..=3 => {
                    let (off, len) = span(&mut rng);
                    let data = payload(&mut rng, len);
                    h.write(r, off, &data);
                }
                4..=5 => {
                    let (so, len) = span(&mut rng);
                    let d = (r + 1 + rng.gen_range(0..regions - 1) as usize) % regions as usize;
                    let d_off = rng.gen_range(0..(REGION_LEN - len) as u64 + 1) as usize;
                    h.copy((r, so), (d, d_off), len);
                }
                6 => {
                    // Overlapping copy within one region, either direction.
                    let (so, len) = span(&mut rng);
                    let shift = rng.gen_range(1..len as u64 + 1) as usize;
                    let d_off = if rng.gen_bool(0.5) && so + shift + len <= REGION_LEN {
                        so + shift
                    } else {
                        so.saturating_sub(shift)
                    };
                    h.copy((r, so), (r, d_off), len);
                }
                _ => {
                    let (off, len) = span(&mut rng);
                    h.check_span(r, off, len);
                }
            }
            if step % 8 == 0 {
                h.check_all();
            }
        }
        h.check_all();
        assert_eq!(
            h.copied_from.len(),
            3,
            "seed {seed}: copies read only {:?}",
            h.copied_from
        );
    }
}

#[test]
fn all_zero_traffic_backs_nothing() {
    let mut h = Harness::new();
    let mut rng = Rng::new(0x5A45_524F);
    for _ in 0..100 {
        let r = rng.gen_range(0..4) as usize;
        let (off, len) = span(&mut rng);
        match rng.gen_range(0..3) {
            0 => h.write(r, off, &vec![0; len]),
            1 => {
                let d = (r + 1) % 4;
                let d_off = rng.gen_range(0..(REGION_LEN - len) as u64 + 1) as usize;
                h.copy((r, off), (d, d_off), len);
            }
            _ => h.copy((r, off), (r, REGION_LEN - len - off / 2), len),
        }
    }
    h.check_all();
    assert!(h.mem.resident_bytes() > 0);
    assert_eq!(h.mem.backed_bytes(), 0);
}

/// A single non-zero byte at any position of a write into a fresh page
/// backs that page and reads back, whatever the piece's length.
#[test]
fn a_lone_nonzero_byte_is_never_elided() {
    for len in [1, 2, 63, 64, 65, 127, 128, 129, 1000, PAGE - 1, PAGE] {
        for at in [0, len / 2, len.saturating_sub(2), len - 1] {
            for in_page in [0, 1, 64, PAGE - len] {
                let mut h = Harness::new();
                let mut data = vec![0u8; len];
                data[at] = 0x40;
                h.write(1, PAGE + in_page, &data);
                h.check_all();
                assert_eq!(h.mem.backed_bytes(), PAGE, "len {len} at {at} +{in_page}");
            }
        }
    }
}
