//! Stage checkpoint container: named binary sections behind a magic and a
//! config fingerprint.
//!
//! The study persists its simulated sessions (`simulate.ttck`) and the
//! stream its feed cursor (`stream.ttck`) so a killed run can resume
//! instead of re-simulating a year; everything derived is recomputed. The
//! container is deliberately dumb: it knows nothing about payloads, only
//! about framing them. Callers encode their own sections with the
//! [`crate::codec`] wire primitives.
//!
//! Layout, v2 (all integers little-endian):
//!
//! ```text
//! magic            8 bytes  b"TTCK\x00\x00\x00\x02"
//! fingerprint      u64      caller-supplied config fingerprint
//! section count    u64
//! header crc       u32      CRC-32 of the 24 header bytes above
//! per section:
//!   name           u16 length + UTF-8 bytes
//!   payload        u64 length + u32 CRC-32 + bytes
//! ```
//!
//! Unlike the trip store there is no salvage path: a checkpoint that
//! fails validation is simply recomputed by the pipeline, so any damage
//! is a typed [`StoreError::BadFormat`] (which resume already treats as
//! "no checkpoint"). Writes are atomic *and fsynced* via
//! [`crate::integrity::write_atomic_with`]. Reads take the whole image:
//! resume is the only reader, and it decodes every section anyway.

use std::io::Write;
use std::ops::Range;
use std::path::Path;

use bytes::{BufMut, BytesMut};

use crate::codec::{put_str, take_str, take_u32, take_u64};
use crate::integrity::{crc32, write_atomic_with};
use crate::StoreError;

/// Magic prefix of v2 checkpoint files, the only checkpoint format.
pub const CHECKPOINT_MAGIC_V2: [u8; 8] = *b"TTCK\x00\x00\x00\x02";

/// A loaded checkpoint: the fingerprint it was written under plus its
/// named payload sections, in file order. The file image is held once;
/// each section is a byte range into it.
#[derive(Debug, Clone)]
pub struct CheckpointFile {
    /// Fingerprint of the configuration that produced this checkpoint.
    /// Resume must refuse a checkpoint whose fingerprint does not match
    /// the current configuration.
    pub fingerprint: u64,
    raw: Vec<u8>,
    sections: Vec<(String, Range<usize>)>,
}

impl CheckpointFile {
    /// Returns the payload of the named section, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        let (_, range) = self.sections.iter().find(|(n, _)| n == name)?;
        Some(&self.raw[range.clone()])
    }

    /// Number of sections in the file.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }
}

/// Writes a v2 checkpoint atomically: the header and each section's
/// frame go through one small buffer and are streamed out with the
/// caller's payloads, which are never copied into a file image; the
/// file is published with temp file + fsync + rename.
pub fn save_checkpoint(
    path: &Path,
    fingerprint: u64,
    sections: &[(&str, &[u8])],
) -> Result<(), StoreError> {
    let count = u64::try_from(sections.len())
        .map_err(|_| StoreError::BadFormat("section count exceeds u64".into()))?;
    let mut head = BytesMut::new();
    head.put_slice(&CHECKPOINT_MAGIC_V2);
    head.put_u64_le(fingerprint);
    head.put_u64_le(count);
    let header_crc = crc32(&head);
    head.put_u32_le(header_crc);
    write_atomic_with(path, |out| {
        out.write_all(&head)?;
        for (name, payload) in sections {
            head.clear();
            put_str(&mut head, name)?;
            let len = u64::try_from(payload.len())
                .map_err(|_| StoreError::BadFormat("section length exceeds u64".into()))?;
            head.put_u64_le(len);
            head.put_u32_le(crc32(payload));
            out.write_all(&head)?;
            out.write_all(payload)?;
        }
        Ok(())
    })
}

/// Reads and validates a v2 checkpoint.
pub fn load_checkpoint(path: &Path) -> Result<CheckpointFile, StoreError> {
    parse_checkpoint(std::fs::read(path)?)
}

/// Validates a v2 checkpoint image and indexes its sections in place.
fn parse_checkpoint(raw: Vec<u8>) -> Result<CheckpointFile, StoreError> {
    if raw.len() < 8 {
        return Err(StoreError::BadFormat("file too short for magic".into()));
    }
    if raw[..8] != CHECKPOINT_MAGIC_V2 {
        return Err(StoreError::BadFormat("checkpoint magic mismatch".into()));
    }
    if raw.len() < 28 {
        return Err(StoreError::BadFormat("file too short for v2 header".into()));
    }
    let stored = u32::from_le_bytes([raw[24], raw[25], raw[26], raw[27]]);
    let actual = crc32(&raw[..24]);
    if stored != actual {
        return Err(StoreError::BadFormat(format!(
            "checkpoint header CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    // Magic and header CRC verified above.
    let mut b = &raw[8..24];
    let fingerprint = take_u64(&mut b)?;
    let count = take_u64(&mut b)? as usize;
    let mut b = &raw[28..];
    let mut sections = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let name = take_str(&mut b)?;
        let len = take_u64(&mut b)? as usize;
        let stored = take_u32(&mut b)?;
        let Some((payload, rest)) = b.split_at_checked(len) else {
            return Err(StoreError::BadFormat(format!(
                "truncated section {name:?}: wanted {len} bytes, had {}",
                b.len()
            )));
        };
        let actual = crc32(payload);
        if stored != actual {
            return Err(StoreError::BadFormat(format!(
                "section {name:?} CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        let start = raw.len() - b.len();
        sections.push((name, start..start + len));
        b = rest;
    }
    if !b.is_empty() {
        return Err(StoreError::BadFormat(format!(
            "{} trailing bytes after last section",
            b.len()
        )));
    }
    Ok(CheckpointFile { fingerprint, raw, sections })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_named_sections() {
        let dir = std::env::temp_dir().join("ttck-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.ttck");
        save_checkpoint(&path, 0xDEAD_BEEF, &[("alpha", b"abc"), ("beta", &[0u8; 9])])
            .unwrap();
        let ck = load_checkpoint(&path).unwrap();
        assert_eq!(ck.fingerprint, 0xDEAD_BEEF);
        assert_eq!(ck.section("alpha"), Some(&b"abc"[..]));
        assert_eq!(ck.section("beta"), Some(&[0u8; 9][..]));
        assert!(ck.section("gamma").is_none());
        assert_eq!(ck.section_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_and_corrupt_files_are_typed_errors() {
        let dir = std::env::temp_dir().join("ttck-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("od.ttck");
        save_checkpoint(&path, 7, &[("funnel", b"0123456789")]).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Chop mid-payload: typed BadFormat, not a panic.
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        assert!(matches!(load_checkpoint(&path), Err(StoreError::BadFormat(_))));

        // Wrong magic.
        let mut bad = full.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(load_checkpoint(&path), Err(StoreError::BadFormat(_))));

        // A flipped payload bit now fails the section CRC.
        let mut flipped = full.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "{err}");

        // A flipped header bit fails the header CRC.
        let mut head = full.clone();
        head[9] ^= 0x01;
        std::fs::write(&path, &head).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("header CRC"), "{err}");

        // Trailing garbage.
        let mut long = full.clone();
        long.extend_from_slice(b"zz");
        std::fs::write(&path, &long).unwrap();
        assert!(matches!(load_checkpoint(&path), Err(StoreError::BadFormat(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncated_prefix_is_a_typed_error() {
        let dir = std::env::temp_dir().join("ttck-prefix");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two.ttck");
        save_checkpoint(&path, 3, &[("alpha", b"abc"), ("beta", &[7u8; 9])]).unwrap();
        let full = std::fs::read(&path).unwrap();
        assert!(parse_checkpoint(full.clone()).is_ok());
        // Every cut: inside the header, a section name, its length, CRC
        // or payload, and on the boundary between the two sections.
        for cut in 0..full.len() {
            let result = parse_checkpoint(full[..cut].to_vec());
            assert!(matches!(result, Err(StoreError::BadFormat(_))), "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_are_published_by_rename() {
        let dir = std::env::temp_dir().join("ttck-rename");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim.ttck");
        save_checkpoint(&path, 1, &[("s", b"x")]).unwrap();
        // The tmp sibling must not linger after a successful save.
        assert!(!path.with_extension("tmp").exists());
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
