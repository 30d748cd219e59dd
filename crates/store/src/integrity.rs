//! Byte-level integrity primitives shared by every on-disk container:
//! a dependency-free CRC-32 and an atomic publish-by-rename writer.
//!
//! The container formats ([`crate::codec`], [`crate::checkpoint`])
//! frame every record with a length and a CRC-32 of its payload, the
//! standard durability recipe of write-ahead logs and log-structured
//! stores: a flipped bit fails the record's checksum instead of
//! producing silently wrong decodes, and a torn tail fails the length
//! check instead of reading garbage. Checksums make damage *detectable*;
//! [`write_atomic_with`] makes fresh damage *unlikely* — data reaches the
//! final name only after a full write, an fsync, and a rename, so a
//! mid-write kill leaves the previous file (or none), never half of the
//! new one.

use std::fs;
use std::io::{self, BufWriter};
use std::path::Path;

/// CRC-32 (IEEE 802.3 polynomial, reflected — the same parametrisation
/// as zlib/PNG/gzip), table-driven and computed without any dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(CRC32_INIT, bytes) ^ CRC32_XOROUT
}

/// Streaming form of [`crc32`]: seed with [`CRC32_INIT`], fold chunks,
/// finish by XOR-ing [`CRC32_XOROUT`].
///
/// Slicing-by-8: each 8-byte word is folded through eight tables at once
/// (table `k` advances a byte's contribution by `k` further zero bytes),
/// and the tail shorter than a word goes through the bytewise loop.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Initial CRC-32 state (all ones).
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;
/// Final XOR applied to the CRC-32 state.
pub const CRC32_XOROUT: u32 = 0xFFFF_FFFF;

/// The slicing-by-8 tables, built at compile time. Table 0 is the
/// classic reflected byte table; table `k` is table `k - 1` advanced by
/// one more zero byte.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Capacity of the buffered writer [`write_atomic_with`] hands out.
const WRITE_BUF: usize = 64 * 1024;

/// Streams a file to `path` atomically: `write` fills a buffered `.tmp`
/// sibling (it may seek back to patch what it wrote), which is flushed
/// *and fsynced*, and only then renamed over the final name. A kill at
/// any instant leaves either the previous file or no file under `path`
/// — never a torn one — and a `write` that fails removes the `.tmp`, so
/// the previous file stays as it was. Every store/checkpoint writer in
/// this crate publishes through here.
pub fn write_atomic_with<E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> Result<(), E>,
) -> Result<(), E> {
    let tmp = path.with_extension("tmp");
    let publish = || -> Result<(), E> {
        let mut out = BufWriter::with_capacity(WRITE_BUF, fs::File::create(&tmp)?);
        write(&mut out)?;
        out.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        Ok(fs::rename(&tmp, path)?)
    };
    if let Err(e) = publish() {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Best-effort directory fsync so the rename itself is durable; not
    // all platforms/filesystems support syncing a directory handle.
    if let Some(dir) = path.parent() {
        if let Ok(handle) = fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn crc32_known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Streaming folds equal the one-shot digest.
        let state = crc32_update(CRC32_INIT, b"12345");
        let state = crc32_update(state, b"6789");
        assert_eq!(state ^ CRC32_XOROUT, crc32(b"123456789"));
    }

    /// The bytewise table loop: the oracle for slicing-by-8.
    fn crc32_update_bytewise(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_loop() {
        // Deterministic pseudo-random bytes (xorshift), every length
        // 0..64, split at every point, so each word/tail boundary is hit.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in 0..=data.len() {
            let bytes = &data[..len];
            let want = crc32_update_bytewise(CRC32_INIT, bytes);
            assert_eq!(crc32_update(CRC32_INIT, bytes), want, "len {len}");
            assert_eq!(crc32(bytes), want ^ CRC32_XOROUT, "len {len}");
            for split in 0..=len {
                let state = crc32_update(CRC32_INIT, &bytes[..split]);
                assert_eq!(crc32_update(state, &bytes[split..]), want, "len {len} split {split}");
            }
        }
    }

    proptest::proptest! {
        /// Longer random inputs, folded in two pieces at a random split.
        #[test]
        fn slicing_by_8_equals_the_bytewise_loop_at_random_splits(
            bytes in proptest::collection::vec(0u16..256, 0..600),
            at in 0f64..1.0,
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let split = (at * bytes.len() as f64) as usize;
            let state = crc32_update(CRC32_INIT, &bytes[..split]);
            proptest::prop_assert_eq!(
                crc32_update(state, &bytes[split..]),
                crc32_update_bytewise(CRC32_INIT, &bytes)
            );
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = vec![0u8; 256];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        let clean = crc32(&data);
        for byte in [0usize, 100, 255] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn write_atomic_leaves_no_tmp_and_replaces_content() {
        let dir = std::env::temp_dir().join("taxitrace-integrity-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let write = |bytes: &'static [u8]| {
            write_atomic_with(&path, |out| out.write_all(bytes)).unwrap();
        };
        write(b"first");
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write(b"second, longer payload");
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer payload");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
