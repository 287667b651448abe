//! The global physical memory map: sparsely-backed regions that DMA moves
//! real bytes between.
//!
//! Regions can be huge (the SSD flash region is hundreds of gigabytes) but
//! only touched pages are materialized, and only pages holding a non-zero
//! byte take host memory, so scenarios stay cheap. Each
//! region is tagged with the PCIe [`PortId`] it sits behind so the fabric
//! can charge transfers to the right links.

use std::fmt;

use crate::addr::{AddrRange, PhysAddr};

/// Identifies a PCIe port (switch slot or the root port toward the host).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u16);

impl PortId {
    /// The root port: host DRAM and everything reached through the root
    /// complex sits behind this port.
    pub const ROOT: PortId = PortId(0);
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Byte storage materialized page-by-page on first write.
///
/// A materialized page is counted by [`SparseBytes::resident_bytes`] from
/// its first write on, but holds host bytes only once a non-zero byte
/// lands in it: most modelled memory (flash, engine DDR) only ever holds
/// zeros, and a fresh host page costs an allocation plus a page fault.
#[derive(Default)]
struct SparseBytes {
    /// Page number -> page; `None` is a materialized page whose bytes are
    /// all zero. Only ever looked up by key, never iterated, so its order
    /// cannot reach the simulation; every DMA walks it page by page, where
    /// a hashed lookup beats a tree walk.
    pages: std::collections::HashMap<u64, Option<Box<[u8; PAGE_SIZE]>>>, // dcs-lint: allow(hash-collection) — lookup-only page index on every DMA's hot path; never iterated
    /// How many of `pages` hold a host page.
    backed: usize,
}

/// What an untouched page reads as.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

impl SparseBytes {
    /// Calls `f` with `[offset, offset+len)` in page-bounded pieces, in
    /// address order, borrowed in place; untouched pages yield zeros.
    fn visit(&self, offset: u64, len: usize, mut f: impl FnMut(&[u8])) {
        let mut off = offset;
        let mut left = len;
        while left > 0 {
            let page = off >> PAGE_SHIFT;
            let in_page = (off as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(left);
            let bytes = self
                .pages
                .get(&page)
                .and_then(|p| p.as_deref())
                .unwrap_or(&ZERO_PAGE);
            f(&bytes[in_page..in_page + n]);
            off += n as u64;
            left -= n;
        }
    }

    fn read_into(&self, offset: u64, out: &mut [u8]) {
        let mut done = 0;
        self.visit(offset, out.len(), |piece| {
            out[done..done + piece.len()].copy_from_slice(piece);
            done += piece.len();
        });
    }

    fn write_from(&mut self, offset: u64, data: &[u8]) {
        let mut off = offset;
        let mut done = 0;
        while done < data.len() {
            let page = off >> PAGE_SHIFT;
            let in_page = (off as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let piece = &data[done..done + n];
            match self.pages.entry(page).or_insert(None) {
                Some(p) => p[in_page..in_page + n].copy_from_slice(piece),
                None if is_zero(piece) => {}
                slot @ None => {
                    let mut p = Box::new([0u8; PAGE_SIZE]);
                    p[in_page..in_page + n].copy_from_slice(piece);
                    *slot = Some(p);
                    self.backed += 1;
                }
            }
            off += n as u64;
            done += n;
        }
    }

    fn resident_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    fn backed_bytes(&self) -> usize {
        self.backed * PAGE_SIZE
    }
}

/// Whether every byte of `bytes` is zero: an OR-fold over 64-byte chunks
/// that stops at the first chunk holding a non-zero byte.
fn is_zero(bytes: &[u8]) -> bool {
    let mut chunks = bytes.chunks_exact(64);
    chunks.all(|c| c.iter().fold(0, |acc, &b| acc | b) == 0)
        && chunks.remainder().iter().all(|&b| b == 0)
}

/// Metadata describing a registered region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionInfo {
    /// Human-readable name (`"host-dram"`, `"ssd0-flash"`, …).
    pub name: String,
    /// The address range the region occupies.
    pub range: AddrRange,
    /// The PCIe port the region's owner sits behind.
    pub port: PortId,
}

struct Region {
    info: RegionInfo,
    bytes: SparseBytes,
}

/// The system-wide physical memory map.
///
/// Lives in the simulator [`World`](dcs_sim::World); components read and
/// write it directly (memory accuracy is byte-level, timing is modeled by
/// the fabric and device components).
#[derive(Default)]
pub struct PhysMemory {
    /// Regions in registration order.
    regions: Vec<Region>,
    /// `(start address, index into regions)`, sorted by start; regions
    /// never overlap, so an access can only lie in the last region that
    /// starts at or below it.
    by_start: Vec<(u64, usize)>,
    next_free: u64,
}

/// Alignment for allocated regions: 4 GiB keeps region bases readable in
/// traces and leaves room to grow.
const REGION_ALIGN: u64 = 1 << 32;

impl PhysMemory {
    /// An empty memory map.
    pub fn new() -> Self {
        PhysMemory {
            regions: Vec::new(),
            by_start: Vec::new(),
            next_free: REGION_ALIGN,
        }
    }

    /// Allocates a fresh region of `len` bytes behind `port`, placed at the
    /// next free aligned address, and returns its range.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn alloc_region(&mut self, name: &str, len: u64, port: PortId) -> AddrRange {
        assert!(len > 0, "cannot allocate an empty region");
        let start = PhysAddr(self.next_free);
        let range = AddrRange::new(start, len);
        self.next_free = (start.0 + len).div_ceil(REGION_ALIGN) * REGION_ALIGN;
        self.push_region(name, range, port);
        range
    }

    /// Registers a region at a fixed range (used by tests and for MMIO
    /// windows that must not collide with allocation).
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing region.
    pub fn add_region_at(&mut self, name: &str, range: AddrRange, port: PortId) {
        for r in &self.regions {
            assert!(
                !r.info.range.overlaps(range),
                "region {name} at {range} overlaps {} at {}",
                r.info.name,
                r.info.range
            );
        }
        self.next_free = self
            .next_free
            .max((range.end().as_u64()).div_ceil(REGION_ALIGN) * REGION_ALIGN);
        self.push_region(name, range, port);
    }

    fn push_region(&mut self, name: &str, range: AddrRange, port: PortId) {
        let start = range.start.as_u64();
        let at = self.by_start.partition_point(|&(s, _)| s <= start);
        self.by_start.insert(at, (start, self.regions.len()));
        self.regions.push(Region {
            info: RegionInfo {
                name: name.to_string(),
                range,
                port,
            },
            bytes: SparseBytes::default(),
        });
    }

    fn region_index_of(&self, addr: PhysAddr, len: usize) -> usize {
        let after = self.by_start.partition_point(|&(s, _)| s <= addr.as_u64());
        after
            .checked_sub(1)
            .map(|k| self.by_start[k].1)
            .filter(|&i| self.regions[i].info.range.contains_span(addr, len))
            .unwrap_or_else(|| {
                panic!(
                    "access [{addr} +{len}) hits no single region; registered: {:?}",
                    self.regions
                        .iter()
                        .map(|r| (&r.info.name, r.info.range))
                        .collect::<Vec<_>>()
                )
            })
    }

    /// Region metadata for the region containing `[addr, addr+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the span is not fully contained in one region.
    pub fn region_of(&self, addr: PhysAddr, len: usize) -> &RegionInfo {
        &self.regions[self.region_index_of(addr, len)].info
    }

    /// Looks up a region by name.
    pub fn region_named(&self, name: &str) -> Option<&RegionInfo> {
        self.regions
            .iter()
            .map(|r| &r.info)
            .find(|i| i.name == name)
    }

    /// Reads `len` bytes starting at `addr`. Untouched memory reads as zero.
    ///
    /// # Panics
    ///
    /// Panics if the span is not fully contained in one region.
    pub fn read(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let idx = self.region_index_of(addr, len);
        let r = &self.regions[idx];
        let mut out = vec![0u8; len];
        r.bytes.read_into(addr - r.info.range.start, &mut out);
        out
    }

    /// Reads into a caller-provided buffer (avoids allocation in hot paths).
    pub fn read_into(&self, addr: PhysAddr, out: &mut [u8]) {
        let idx = self.region_index_of(addr, out.len());
        let r = &self.regions[idx];
        r.bytes.read_into(addr - r.info.range.start, out);
    }

    /// Calls `f` with the bytes of `[addr, addr+len)` in page-bounded
    /// pieces, in address order, borrowed in place instead of copied out;
    /// untouched memory yields zeros. The pieces concatenate to exactly
    /// what [`PhysMemory::read`] returns.
    ///
    /// # Panics
    ///
    /// Panics if the span is not fully contained in one region.
    pub fn visit(&self, addr: PhysAddr, len: usize, f: impl FnMut(&[u8])) {
        let r = &self.regions[self.region_index_of(addr, len)];
        r.bytes.visit(addr - r.info.range.start, len, f);
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the span is not fully contained in one region.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let idx = self.region_index_of(addr, data.len());
        let r = &mut self.regions[idx];
        let off = addr - r.info.range.start;
        r.bytes.write_from(off, data);
    }

    /// Copies `len` bytes from `src` to `dst` (the data movement behind a
    /// completed DMA). Source and destination may be in different regions;
    /// overlapping self-copies behave like `memmove`.
    ///
    /// A cross-region copy moves each byte once, page by page, straight
    /// from the source pages into the destination. Untouched source pages
    /// are written as zeros, so the destination materializes exactly the
    /// pages a read-then-write would.
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: usize) {
        if len == 0 {
            return;
        }
        let si = self.region_index_of(src, len);
        let di = self.region_index_of(dst, len);
        if si == di {
            // Source and destination may overlap: stage through a buffer.
            let data = self.read(src, len);
            self.write(dst, &data);
            return;
        }
        let (from, to) = if si < di {
            let (lo, hi) = self.regions.split_at_mut(di);
            (&lo[si], &mut hi[0])
        } else {
            let (lo, hi) = self.regions.split_at_mut(si);
            (&hi[0], &mut lo[di])
        };
        let mut at = dst - to.info.range.start;
        from.bytes.visit(src - from.info.range.start, len, |piece| {
            to.bytes.write_from(at, piece);
            at += piece.len() as u64;
        });
    }

    /// Total bytes of materialized pages: every page a write has touched,
    /// zero or not. This is the modelled footprint that reports count.
    pub fn resident_bytes(&self) -> usize {
        self.regions.iter().map(|r| r.bytes.resident_bytes()).sum()
    }

    /// Host bytes behind materialized pages: only pages that a non-zero
    /// byte has landed in hold host memory, so this never exceeds
    /// [`PhysMemory::resident_bytes`].
    pub fn backed_bytes(&self) -> usize {
        self.regions.iter().map(|r| r.bytes.backed_bytes()).sum()
    }

    /// Iterates over registered region metadata.
    pub fn regions(&self) -> impl Iterator<Item = &RegionInfo> + '_ {
        self.regions.iter().map(|r| &r.info)
    }
}

impl fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhysMemory")
            .field(
                "regions",
                &self.regions.iter().map(|r| &r.info).collect::<Vec<_>>(),
            )
            .field("resident_bytes", &self.resident_bytes())
            .field("backed_bytes", &self.backed_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_regions_do_not_overlap_and_are_aligned() {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 10, PortId::ROOT);
        let b = m.alloc_region("b", 1 << 33, PortId(1));
        let c = m.alloc_region("c", 1, PortId(2));
        assert!(!a.overlaps(b) && !b.overlaps(c) && !a.overlaps(c));
        assert_eq!(a.start.as_u64() % REGION_ALIGN, 0);
        assert_eq!(b.start.as_u64() % REGION_ALIGN, 0);
        assert_eq!(c.start.as_u64() % REGION_ALIGN, 0);
    }

    #[test]
    fn read_write_roundtrip_across_pages() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("dram", 1 << 20, PortId::ROOT);
        // Span two pages.
        let addr = r.start + (PAGE_SIZE as u64 - 3);
        let data: Vec<u8> = (0..10u8).collect();
        m.write(addr, &data);
        assert_eq!(m.read(addr, 10), data);
        // Untouched bytes read back as zero.
        assert_eq!(m.read(r.start, 4), vec![0; 4]);
    }

    #[test]
    fn sparse_backing_stays_small() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("flash", 400 << 30, PortId(1)); // 400 GiB
        m.write(r.start + (300u64 << 30), b"x");
        assert!(m.resident_bytes() <= 2 * PAGE_SIZE);
    }

    #[test]
    fn copy_moves_bytes_between_regions() {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 1 << 16, PortId::ROOT);
        let b = m.alloc_region("b", 1 << 16, PortId(1));
        m.write(a.start, b"dcs-ctrl");
        m.copy(a.start, b.start + 100, 8);
        assert_eq!(m.read(b.start + 100, 8), b"dcs-ctrl");
    }

    #[test]
    fn region_lookup_and_port_tagging() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("gpu-bar", 1 << 20, PortId(3));
        let info = m.region_of(r.start + 5, 10);
        assert_eq!(info.name, "gpu-bar");
        assert_eq!(info.port, PortId(3));
        assert_eq!(m.region_named("gpu-bar").unwrap().range, r);
        assert!(m.region_named("nope").is_none());
    }

    #[test]
    fn region_lookup_follows_address_not_registration_order() {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 0x3000, PortId(1));
        // Fixed regions registered high first, then low, then between.
        let high = AddrRange::new(PhysAddr(0x8000), 0x1000);
        let low = AddrRange::new(PhysAddr(0x1000), 0x2000);
        let mid = AddrRange::new(PhysAddr(0x4000), 0x10);
        m.add_region_at("high", high, PortId(2));
        m.add_region_at("low", low, PortId(3));
        m.add_region_at("mid", mid, PortId(4));
        let b = m.alloc_region("b", 0x100, PortId(5));
        for r in [a, high, low, mid, b] {
            let first = m.region_of(r.start, 1);
            let last = m.region_of(PhysAddr(r.end().as_u64() - 1), 1);
            assert_eq!((first.range, last.range), (r, r));
            assert_eq!(m.region_of(r.start, r.len as usize).range, r);
        }
        // Gaps between and below regions belong to none.
        for gap in [0, 0xfff, 0x3000, 0x4010, 0x7fff, 0x9000, a.end().as_u64()] {
            let hit = std::panic::catch_unwind(|| m.region_of(PhysAddr(gap), 1).range);
            assert!(hit.is_err(), "address {gap:#x} hit {hit:?}");
        }
        let names: Vec<_> = m.regions().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "high", "low", "mid", "b"]);
    }

    #[test]
    #[should_panic(expected = "no single region")]
    fn access_outside_regions_panics() {
        let m = PhysMemory::new();
        let _ = m.read(PhysAddr(0x10), 4);
    }

    #[test]
    #[should_panic(expected = "no single region")]
    fn access_spanning_region_end_panics() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("small", 8, PortId::ROOT);
        let _ = m.read(r.start + 4, 8);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn fixed_region_overlap_is_rejected() {
        let mut m = PhysMemory::new();
        m.add_region_at("x", AddrRange::new(PhysAddr(0x1000), 0x1000), PortId::ROOT);
        m.add_region_at("y", AddrRange::new(PhysAddr(0x1800), 0x1000), PortId::ROOT);
    }

    /// Two regions on different ports; the source has its first and third
    /// pages written and the second left untouched.
    fn patchy_source() -> (PhysMemory, AddrRange, AddrRange) {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 1 << 20, PortId::ROOT);
        let b = m.alloc_region("b", 1 << 20, PortId(1));
        let first: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7 + 1) as u8).collect();
        let third: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 13 + 5) as u8).collect();
        m.write(a.start, &first);
        m.write(a.start + 2 * PAGE_SIZE as u64, &third);
        (m, a, b)
    }

    #[test]
    fn cross_region_copy_matches_read_then_write() {
        // Unaligned on both sides, spanning the untouched source page.
        let len = 3 * PAGE_SIZE - 200;
        let (mut direct, a, b) = patchy_source();
        let (mut staged, _, _) = patchy_source();
        let (src, dst) = (a.start + 100, b.start + 1000);
        direct.copy(src, dst, len);
        let bytes = staged.read(src, len);
        staged.write(dst, &bytes);
        assert_eq!(direct.read(dst, len), bytes);
        assert_eq!(
            direct.read(b.start, 4 * PAGE_SIZE),
            staged.read(b.start, 4 * PAGE_SIZE)
        );
        assert_eq!(direct.resident_bytes(), staged.resident_bytes());
        // The untouched source page still materializes its destination
        // page: 2 source pages + the 4 destination pages the span touches.
        assert_eq!(direct.resident_bytes(), 6 * PAGE_SIZE);
        // Copying back the other way (destination region before source).
        direct.copy(dst, a.start + 5 * PAGE_SIZE as u64, len);
        assert_eq!(direct.read(a.start + 5 * PAGE_SIZE as u64, len), bytes);
    }

    #[test]
    fn overlapping_same_region_copy_is_memmove() {
        let mut m = PhysMemory::new();
        let r = m.alloc_region("dram", 1 << 20, PortId::ROOT);
        let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let base = r.start + 50;
        // Forward overlap: destination above source.
        m.write(base, &data);
        m.copy(base, base + 300, data.len());
        assert_eq!(m.read(base + 300, data.len()), data);
        assert_eq!(m.read(base, 300), data[..300]);
        // Backward overlap: destination below source.
        m.write(base, &data);
        m.copy(base + 300, base, data.len() - 300);
        assert_eq!(m.read(base, data.len() - 300), data[300..]);
    }

    #[test]
    fn visit_yields_exactly_what_read_returns() {
        let (m, a, _) = patchy_source();
        for (off, len) in [
            (0, 0),
            (5, 10),
            (PAGE_SIZE - 3, 7),
            (100, 3 * PAGE_SIZE - 50),
        ] {
            let addr = a.start + off as u64;
            let mut seen = Vec::new();
            let mut pieces = 0;
            m.visit(addr, len, |piece| {
                assert!(!piece.is_empty() && piece.len() <= PAGE_SIZE);
                seen.extend_from_slice(piece);
                pieces += 1;
            });
            assert_eq!(seen, m.read(addr, len), "offset {off} len {len}");
            assert_eq!(pieces, (off + len).div_ceil(PAGE_SIZE) - off / PAGE_SIZE);
        }
    }

    #[test]
    fn zero_length_copy_is_noop() {
        let mut m = PhysMemory::new();
        let a = m.alloc_region("a", 16, PortId::ROOT);
        m.copy(a.start, a.start + 8, 0);
        assert_eq!(m.resident_bytes(), 0);
    }
}
