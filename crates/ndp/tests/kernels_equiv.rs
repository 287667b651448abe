//! Differential tests of the unrolled MD5 kernel against its loop-form
//! reference model `md5::reference`, plus the streaming CRC-32 against its
//! one-shot form. Driven by the deterministic in-repo [`Rng`], like
//! `properties.rs`.

use dcs_ndp::crc32::{self, Crc32};
use dcs_ndp::function::Digester;
use dcs_ndp::md5::{self, Md5};
use dcs_ndp::NdpFunction;
use dcs_sim::Rng;

const PAGE: usize = 4096;

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Asserts that the unrolled MD5 agrees with the reference on `data`.
fn assert_md5_agrees(data: &[u8], what: &str) {
    assert_eq!(
        md5::md5(data),
        md5::reference::md5(data),
        "md5 on {what} (len {})",
        data.len()
    );
}

/// Feeds `data` to the streaming MD5 and CRC-32 in the pieces `cuts`
/// delimits and checks the results against the one-shot reference MD5
/// and the one-shot CRC-32.
fn assert_streaming_agrees(data: &[u8], cuts: &[usize], what: &str) {
    let mut m = Md5::new();
    let mut c = Crc32::new();
    let mut start = 0;
    for &end in cuts.iter().chain(std::iter::once(&data.len())) {
        m.update(&data[start..end]);
        c.update(&data[start..end]);
        start = end;
    }
    assert_eq!(m.finalize(), md5::reference::md5(data), "md5 {what}");
    assert_eq!(c.finalize(), crc32::crc32(data), "crc32 {what}");
}

/// Every length 0–200 (all padding layouts, one- and two-block tails),
/// the padding edges, and random lengths up to 64 KiB.
#[test]
fn md5_matches_reference_on_every_small_length_and_random_lengths() {
    let mut rng = Rng::new(0x4B45_524E);
    let pool = random_bytes(&mut rng, 1 << 16);
    for len in 0..=200 {
        assert_md5_agrees(&pool[..len], "prefix");
    }
    for len in [55, 56, 63, 64, 119, 120, 127, 128, 4095, 4096, 4097] {
        assert_md5_agrees(&pool[..len], "padding edge");
        assert_md5_agrees(&vec![0xFF; len], "all-ones");
    }
    for _ in 0..64 {
        let len = rng.gen_range(0..pool.len() as u64 + 1) as usize;
        assert_md5_agrees(&pool[..len], "random length");
    }
}

/// Inputs that start at every offset within a block, so the unrolled
/// kernel reads its words from unaligned addresses.
#[test]
fn md5_matches_reference_at_random_alignments() {
    let mut rng = Rng::new(0xA11C);
    let pool = random_bytes(&mut rng, 20_000);
    for start in 0..64 {
        let len = rng.gen_range(0..(pool.len() - start) as u64) as usize;
        assert_md5_agrees(&pool[start..start + len], "offset slice");
    }
    for _ in 0..64 {
        let start = rng.gen_range(0..4096) as usize;
        let len = rng.gen_range(0..10_000) as usize;
        assert_md5_agrees(&pool[start..start + len], "random slice");
    }
}

/// Streaming feeds split at random points (including empty pieces)
/// digest exactly like the one-shot forms.
#[test]
fn streaming_at_random_splits_matches_reference() {
    let mut rng = Rng::new(0x5_7EA4);
    for round in 0..128 {
        let len = rng.gen_range(0..5_000) as usize;
        let data = random_bytes(&mut rng, len);
        let pieces = rng.gen_range(0..12) as usize;
        let mut cuts: Vec<usize> = (0..pieces)
            .map(|_| rng.gen_range(0..len as u64 + 1) as usize)
            .collect();
        cuts.sort_unstable();
        assert_streaming_agrees(&data, &cuts, &format!("round {round}, cuts {cuts:?}"));
    }
}

/// Page-sized pieces starting at an unaligned offset: the shape
/// `PhysMemory::visit` hands a digest (a short first piece up to the page
/// boundary, then whole pages, then a short tail).
#[test]
fn streaming_in_unaligned_page_chunks_matches_reference() {
    let mut rng = Rng::new(0x9A6E);
    for _ in 0..32 {
        let offset = rng.gen_range(0..PAGE as u64) as usize;
        let len = rng.gen_range(0..6 * PAGE as u64) as usize;
        let data = random_bytes(&mut rng, len);
        let mut cuts = Vec::new();
        let mut at = (PAGE - offset % PAGE).min(len);
        while at < len {
            cuts.push(at);
            at += PAGE;
        }
        assert_streaming_agrees(&data, &cuts, &format!("offset {offset}, len {len}"));
    }
}

/// The streaming digest type and `apply_pieces` give what `apply` gives,
/// for every function, however the input is cut.
#[test]
fn piecewise_dispatch_matches_whole_input_dispatch() {
    let mut rng = Rng::new(0xD16E);
    let mut aux = random_bytes(&mut rng, 48);
    for f in NdpFunction::ALL {
        let len = rng.gen_range(0..3 * PAGE as u64) as usize;
        let mut data = random_bytes(&mut rng, len);
        if f == NdpFunction::GzipDecompress {
            data = dcs_ndp::deflate::gzip_compress(&data);
        }
        let whole = f.apply(&data, &aux).expect("valid input");
        let piece = rng.gen_range(1..PAGE as u64) as usize;
        let pieced = f
            .apply_pieces(data.len(), |visit| data.chunks(piece).for_each(visit), &aux)
            .expect("valid input");
        assert_eq!(pieced, whole, "{f}");
        match Digester::new(f) {
            Some(mut h) => {
                assert!(f.is_digest());
                data.chunks(piece).for_each(|c| h.update(c));
                assert_eq!(Some(h.finalize()), whole.digest, "{f}");
            }
            None => assert!(!f.is_digest()),
        }
        aux.rotate_left(1);
    }
}
