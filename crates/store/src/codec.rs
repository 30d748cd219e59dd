//! Versioned binary file format for trip data.
//!
//! One container is read and written, v3 (`b"TTRS\x00\x00\x00\x03"`): a
//! self-describing header, an offset index and per-record CRC framing.
//!
//! ```text
//! magic         8 bytes  b"TTRS\x00\x00\x00\x03"
//! fingerprint   u64      config fingerprint (0 = untagged)
//! record count  u64
//! header crc    u32      CRC-32 of the 24 header bytes above
//! offset index  count × u64   absolute frame-start offset per record
//! index crc     u32      CRC-32 of the offset-index bytes
//! per record:
//!   len         u64      payload length in bytes
//!   crc         u32      CRC-32 of the payload
//!   payload     len bytes (one session in the wire format below)
//! ```
//!
//! All integers little-endian; floats as IEEE-754 bits. The format is
//! hand-rolled (rather than `serde_json` etc.) because a simulated year is
//! ~10⁶ route points and the store is reloaded repeatedly while iterating
//! on analyses. The length+CRC framing buys torn-write *salvage*: a
//! flipped bit fails one record's checksum and a truncated tail fails the
//! length check, so [`load`] with [`LoadOptions::salvage`] recovers every
//! record that still verifies instead of aborting (see [`SalvageReport`]).
//!
//! Memory is bounded by one record, never the file image (62 MB at
//! scale 1). [`load`] walks the file front to back through a fixed-size
//! read buffer, reading each payload into one reused record buffer to
//! verify and decode it; the offset index is checked against the walk
//! rather than seeked by, and a clean walk that found every frame at its
//! index slot is reported as [`LoadOutcome::indexed`]. The record-count
//! field is covered by the header CRC, so the body start
//! `28 + count*8 + 4` stays computable even when the index bytes
//! themselves are damaged, and the walk still recovers every verifiable
//! record. Any other magic, the retired v1 and v2 ones included, is an
//! unknown container. Writes stream the same way through
//! [`crate::integrity::write_atomic_with`], so they are atomic too.

use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::{BufMut, BytesMut};
use taxitrace_geo::{GeoPoint, Point};
use taxitrace_roadnet::{ElementId, NodeId};
use taxitrace_timebase::{Duration, Timestamp};
use taxitrace_traces::{
    CustomerTripTruth, PointTruth, RawTrip, RecordSpan, RoutePoint, TaxiId, TripId,
};

use crate::integrity::{crc32, write_atomic_with};
use crate::StoreError;

/// Magic prefix of store files.
pub const MAGIC_V3: [u8; 8] = *b"TTRS\x00\x00\x00\x03";

/// Fixed header size: magic + fingerprint + record count + CRC.
const HEADER_LEN: usize = 8 + 8 + 8 + 4;
/// CRC-32 trailer after the offset index.
const INDEX_CRC_LEN: usize = 4;
/// Per-record frame: payload length + payload CRC.
const FRAME_LEN: usize = 8 + 4;
/// Fixed bytes of one encoded route point: id, eight 8-byte scalars,
/// truth seq and the element tag. A tag of 1 is followed by an 8-byte
/// element id.
const POINT_FIXED_LEN: usize = 8 + 8 * 8 + 4 + 1;
/// Capacity of the buffered reader [`load`] walks a file through.
const READ_BUF: usize = 64 * 1024;
/// Torn-tail detail for a source that ended before its length.
const SHRANK: &str = "file ended early (it shrank while being read)";
/// Cap on individually reported torn-tail records; a torn tail that loses
/// more is summarised in the final damage entry so a corrupt header count
/// cannot balloon the report.
const MAX_TORN_DAMAGE: u64 = 4096;

/// What went wrong with one damaged record (or the file header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamageKind {
    /// The record's framing was intact but its payload failed the CRC or
    /// did not decode; the record was skipped and reading continued.
    CorruptRecord,
    /// The file ended mid-record (truncation / torn write); everything
    /// from this record to the declared end is lost.
    TornTail,
    /// The header is unusable (bad magic, failed header CRC) or disagrees
    /// with the file body (declared count vs. records present).
    HeaderMismatch,
    /// The offset index failed its CRC. The records themselves are
    /// unaffected — the walk still recovers them — but no read of the
    /// file is reported as indexed until it is rewritten.
    CorruptIndex,
}

impl DamageKind {
    /// Stable lowercase label (quarantine reasons, fsck output, metrics).
    pub fn label(self) -> &'static str {
        match self {
            DamageKind::CorruptRecord => "corrupt_record",
            DamageKind::TornTail => "torn_tail",
            DamageKind::HeaderMismatch => "header_mismatch",
            DamageKind::CorruptIndex => "corrupt_index",
        }
    }
}

/// One damaged record (or header problem) found while reading a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordDamage {
    /// Zero-based record index the damage was found at. For header-level
    /// damage this is the index reading stopped at (0 for a bad magic).
    pub index: u64,
    /// Classification of the damage.
    pub kind: DamageKind,
    /// Human-readable specifics for the quarantine ledger / fsck report.
    pub detail: String,
}

/// Integrity summary of one store file: what the header claims, what was
/// actually recovered, and every piece of damage encountered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Container version (3; 0 when the magic was unrecognised).
    pub version: u32,
    /// Config fingerprint from the header (0 for untagged files).
    pub fingerprint: u64,
    /// Record count the header declares.
    pub records_declared: u64,
    /// Records that verified and decoded.
    pub records_valid: u64,
    /// Damage entries in file order; empty means the file is clean.
    pub damage: Vec<RecordDamage>,
}

impl SalvageReport {
    /// True when every declared record verified and nothing else was wrong.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty()
    }
}

/// Writes sessions to `path` as an untagged container (fingerprint 0).
pub fn save_sessions(path: &Path, sessions: &[RawTrip]) -> Result<(), StoreError> {
    save_sessions_tagged(path, sessions, 0)
}

/// Writes sessions to `path` (offset index + CRC'd record frames) stamped
/// with the given config fingerprint. The write is atomic: temp file +
/// fsync + rename.
///
/// The file is streamed: the header, then a zeroed offset index and
/// index-CRC slot, then each session encoded into one reused buffer and
/// framed with its length and CRC. At the end the writer seeks back and
/// fills in the index and its CRC.
pub fn save_sessions_tagged(
    path: &Path,
    sessions: &[RawTrip],
    fingerprint: u64,
) -> Result<(), StoreError> {
    let mut head = BytesMut::with_capacity(HEADER_LEN);
    head.put_slice(&MAGIC_V3);
    head.put_u64_le(fingerprint);
    head.put_u64_le(checked_u64(sessions.len(), "session count")?);
    let header_crc = crc32(&head);
    head.put_u32_le(header_crc);
    let index_len = sessions.len() * 8;
    let mut index = BytesMut::with_capacity(index_len + INDEX_CRC_LEN);
    index.put_bytes(0, index_len + INDEX_CRC_LEN);
    write_atomic_with(path, |out| {
        out.write_all(&head)?;
        out.write_all(&index)?;
        index.clear();
        let mut offset = checked_u64(HEADER_LEN + index_len + INDEX_CRC_LEN, "record offset")?;
        let mut record = BytesMut::new();
        for s in sessions {
            index.put_u64_le(offset);
            record.clear();
            encode_session(&mut record, s)?;
            let len = checked_u64(record.len(), "session record length")?;
            out.write_all(&len.to_le_bytes())?;
            out.write_all(&crc32(&record).to_le_bytes())?;
            out.write_all(&record)?;
            offset += FRAME_LEN as u64 + len;
        }
        let index_crc = crc32(&index);
        index.put_u32_le(index_crc);
        out.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        out.write_all(&index)?;
        Ok(())
    })
}

/// How [`load`] treats damage found in a container.
///
/// The default (and [`LoadOptions::strict`]) fails on the first damaged
/// record; [`LoadOptions::salvage`] recovers every record that verifies
/// and reports the rest as typed damage in the [`LoadOutcome`] report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadOptions {
    /// Recover verifiable records from a damaged file instead of failing.
    pub salvage: bool,
}

impl LoadOptions {
    /// Fail on any damage (CRC mismatch, truncation, header disagreement).
    pub fn strict() -> Self {
        Self { salvage: false }
    }

    /// Recover every verifiable record; damage goes in the report.
    pub fn salvage() -> Self {
        Self { salvage: true }
    }
}

/// Result of a [`load`]: the sessions plus full provenance — the
/// integrity report and whether the offset index verified the read.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// Sessions that verified and decoded, in file order.
    pub sessions: Vec<RawTrip>,
    /// Per-file integrity report; clean indexed reads carry a clean one.
    pub report: SalvageReport,
    /// True when the header and offset index verified, every frame
    /// started at its index slot and the walk ended at the end of the
    /// file with every record verifying. The pipeline reports this as the
    /// `store.indexed_reads` counter.
    pub indexed: bool,
}

/// Reads sessions from `path`: the one store read entry point, walking
/// the file front to back through a fixed-size buffer and one reused
/// record buffer (see the module docs). With
/// [`LoadOptions::strict`] the first damage entry becomes a
/// [`StoreError::BadFormat`]; with [`LoadOptions::salvage`] damage never
/// fails the read — the worst case (unrecognised magic, failed header
/// CRC) yields zero sessions and one [`DamageKind::HeaderMismatch`] entry
/// in the report. Only I/O errors reading the file are fatal in salvage
/// mode.
pub fn load(path: &Path, opts: &LoadOptions) -> Result<LoadOutcome, StoreError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    enforce(walk(BufReader::with_capacity(READ_BUF, file), len)?, opts)
}

/// [`load`] over an in-memory image (tests, benchmarks): the same walk.
pub fn load_bytes(raw: &[u8], opts: &LoadOptions) -> Result<LoadOutcome, StoreError> {
    enforce(walk(raw, raw.len() as u64)?, opts)
}

/// The salvage read of an in-memory image (tests, benchmarks): every
/// record that verifies, and the rest as typed damage. A slice read has
/// no I/O to fail, so this is `Ok` for any bytes.
pub fn salvage_bytes(raw: &[u8]) -> Result<LoadOutcome, StoreError> {
    load_bytes(raw, &LoadOptions::salvage())
}

/// Applies [`LoadOptions`] to a finished walk.
fn enforce(out: LoadOutcome, opts: &LoadOptions) -> Result<LoadOutcome, StoreError> {
    match out.report.damage.first() {
        Some(d) if !opts.salvage => Err(StoreError::BadFormat(format!(
            "{} at record {}: {}",
            d.kind.label(),
            d.index,
            d.detail
        ))),
        _ => Ok(out),
    }
}

/// Byte extents of each framed record in a store image (frame and
/// payload offsets; see [`taxitrace_traces::RecordSpan`]). Fails on an
/// unreadable header; used by the on-disk chaos injector to aim bit
/// flips at record payloads and duplicate whole frames deterministically.
pub fn record_spans(raw: &[u8]) -> Result<Vec<RecordSpan>, StoreError> {
    let mut src = Source { reader: raw, len: raw.len() as u64, at: 0 };
    read_header(&mut src, &mut SalvageReport::default())?
        .ok_or_else(|| StoreError::BadFormat("unreadable store header".into()))?;
    let mut spans = Vec::new();
    let mut offset = raw.len() - src.reader.len();
    while raw.len() - offset >= FRAME_LEN {
        let len = read_u64_at(raw, offset);
        let payload_at = offset + FRAME_LEN;
        let Some(end) = usize::try_from(len)
            .ok()
            .and_then(|len| payload_at.checked_add(len))
            .filter(|&end| end <= raw.len())
        else {
            break;
        };
        spans.push(RecordSpan { frame_start: offset, payload_start: payload_at, end });
        offset = end;
    }
    Ok(spans)
}

/// A container being walked: `reader` is positioned at byte `at` of `len`.
struct Source<R> {
    reader: R,
    len: u64,
    at: u64,
}

impl<R: Read> Source<R> {
    fn left(&self) -> u64 {
        self.len - self.at
    }

    /// Fills `buf` from the source; `false` when the source ended first
    /// (a file that shrank under the reader).
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<bool> {
        match self.reader.read_exact(buf) {
            Ok(()) => {
                self.at += buf.len() as u64;
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// The one store reader: walks a container `len` bytes long from `reader`,
/// front to back — header, offset index, then each frame's payload into
/// one reused record buffer — decoding every record that verifies and
/// classifying the rest. Reading continues past a corrupt record (its
/// frame still delimits it) and stops only at a torn tail, where the
/// frame itself can no longer be trusted; a source that ends before
/// `len` is a torn tail too. A frame's length is checked against what is
/// left of `len` before the buffer grows, so a corrupt length cannot
/// drive an allocation past the file size. Only I/O errors fail.
fn walk(reader: impl Read, len: u64) -> io::Result<LoadOutcome> {
    let mut src = Source { reader, len, at: 0 };
    let mut report = SalvageReport::default();
    let Some(index) = read_header(&mut src, &mut report)? else {
        return Ok(LoadOutcome { sessions: Vec::new(), report, indexed: false });
    };
    let declared = report.records_declared;
    let mut slots = index.chunks_exact(8);
    let mut at_slots = true;
    let mut sessions = Vec::with_capacity(declared.min(1 << 20) as usize);
    let mut frame = [0u8; FRAME_LEN];
    let mut record = Vec::new();
    let mut i: u64 = 0;
    let torn = loop {
        let (at, left) = (src.at, src.left());
        if left == 0 {
            break None;
        }
        if left < FRAME_LEN as u64 {
            break Some(format!("{left} bytes left, record frame needs {FRAME_LEN}"));
        }
        if !src.fill(&mut frame)? {
            break Some(SHRANK.into());
        }
        let payload_len = read_u64_at(&frame, 0);
        let left = src.left();
        let Some(n) = usize::try_from(payload_len).ok().filter(|_| payload_len <= left) else {
            break Some(format!("record claims {payload_len} bytes, only {left} remain"));
        };
        record.resize(n, 0);
        if !src.fill(&mut record)? {
            break Some(SHRANK.into());
        }
        at_slots &= slots.next().map(|slot| read_u64_at(slot, 0)) == Some(at);
        let stored = read_u32_at(&frame, 8);
        let actual = crc32(&record);
        let damage = if stored != actual {
            Some(format!("payload CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"))
        } else {
            let mut rest = &record[..];
            match decode_session(&mut rest) {
                Ok(s) if rest.is_empty() => {
                    sessions.push(s);
                    None
                }
                Ok(_) => Some(format!("{} undecoded payload bytes", rest.len())),
                Err(e) => Some(format!("payload does not decode: {e}")),
            }
        };
        if let Some(detail) = damage {
            report.damage.push(RecordDamage { index: i, kind: DamageKind::CorruptRecord, detail });
        }
        i += 1;
    };
    if let Some(detail) = torn {
        push_torn_tail(&mut report, i, declared, &detail);
    } else if i < declared {
        // The file ends cleanly on a record boundary but short of the
        // declared count — a truncation that happened to land between
        // records is still a torn tail.
        push_torn_tail(&mut report, i, declared, "file ends before declared count");
    } else if i > declared {
        // The CRC-protected header disagrees with the body, which gained
        // whole records (e.g. a duplicated record).
        report.damage.push(RecordDamage {
            index: i,
            kind: DamageKind::HeaderMismatch,
            detail: format!("header declares {declared} records, file holds {i}"),
        });
    }
    report.records_valid = sessions.len() as u64;
    let indexed = at_slots && report.is_clean();
    Ok(LoadOutcome { sessions, report, indexed })
}

/// Reads and CRC-verifies the header and offset index, filling in the
/// report's version, fingerprint and declared count, and returns the
/// index slots. `None` when the header is unusable, reported as
/// [`DamageKind::HeaderMismatch`]. A damaged offset index is reported as
/// [`DamageKind::CorruptIndex`] but the walk goes on: the CRC-protected
/// count still fixes where the body starts.
fn read_header(
    src: &mut Source<impl Read>,
    report: &mut SalvageReport,
) -> io::Result<Option<Vec<u8>>> {
    let len = src.len;
    let mut head = [0u8; HEADER_LEN];
    if !src.fill(&mut head[..len.min(HEADER_LEN as u64) as usize])? {
        return header_mismatch(report, SHRANK.into());
    }
    if len < 8 {
        return header_mismatch(report, format!("file too short for magic ({len} bytes)"));
    }
    if head[..8] != MAGIC_V3 {
        return header_mismatch(report, "magic mismatch".into());
    }
    report.version = 3;
    if len < HEADER_LEN as u64 {
        return header_mismatch(report, format!("file too short for v3 header ({len} bytes)"));
    }
    let stored = read_u32_at(&head, 24);
    let actual = crc32(&head[..24]);
    if stored != actual {
        return header_mismatch(
            report,
            format!("header CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"),
        );
    }
    report.fingerprint = read_u64_at(&head, 8);
    report.records_declared = read_u64_at(&head, 16);
    let Some(index_len) = index_len(report.records_declared, len) else {
        let detail = format!(
            "file too short for {}-entry offset index ({len} bytes)",
            report.records_declared
        );
        return header_mismatch(report, detail);
    };
    let mut index = vec![0u8; index_len + INDEX_CRC_LEN];
    if !src.fill(&mut index)? {
        return header_mismatch(report, SHRANK.into());
    }
    let stored_idx = read_u32_at(&index, index_len);
    index.truncate(index_len);
    let actual_idx = crc32(&index);
    if stored_idx != actual_idx {
        report.damage.push(RecordDamage {
            index: 0,
            kind: DamageKind::CorruptIndex,
            detail: format!(
                "offset index CRC mismatch (stored {stored_idx:#010x}, computed {actual_idx:#010x})"
            ),
        });
    }
    Ok(Some(index))
}

fn header_mismatch(report: &mut SalvageReport, detail: String) -> io::Result<Option<Vec<u8>>> {
    report.damage.push(RecordDamage { index: 0, kind: DamageKind::HeaderMismatch, detail });
    Ok(None)
}

/// Byte length of the offset index of a container with `declared`
/// records, or `None` when a file of `len` bytes cannot hold it
/// (overflow or truncation inside it).
fn index_len(declared: u64, len: u64) -> Option<usize> {
    let bytes = declared.checked_mul(8)?;
    let body_start = bytes.checked_add((HEADER_LEN + INDEX_CRC_LEN) as u64)?;
    if body_start > len {
        return None;
    }
    usize::try_from(bytes).ok()
}

/// Reports every record from `index` to the declared end as lost (capped
/// at [`MAX_TORN_DAMAGE`] entries so a corrupt count cannot balloon the
/// report), keeping the quarantine ledger 1:1 with lost records.
fn push_torn_tail(report: &mut SalvageReport, index: u64, declared: u64, detail: &str) {
    let lost = declared.saturating_sub(index).max(1);
    let reported = lost.min(MAX_TORN_DAMAGE);
    for i in 0..reported {
        let last = i + 1 == reported;
        report.damage.push(RecordDamage {
            index: index + i,
            kind: DamageKind::TornTail,
            detail: if i == 0 {
                format!("torn tail: {detail}")
            } else if last && lost > reported {
                format!("lost in torn tail (+{} more records)", lost - reported)
            } else {
                "lost in torn tail".into()
            },
        });
    }
}

fn read_u32_at(raw: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&raw[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64_at(raw: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&raw[at..at + 8]);
    u64::from_le_bytes(b)
}

fn checked_u64(n: usize, what: &str) -> Result<u64, StoreError> {
    u64::try_from(n).map_err(|_| StoreError::BadFormat(format!("{what} {n} exceeds u64")))
}

fn checked_u32(n: usize, what: &str) -> Result<u32, StoreError> {
    u32::try_from(n).map_err(|_| StoreError::BadFormat(format!("{what} {n} exceeds u32")))
}

/// The wire format carries taxi ids in one byte; a wider in-memory id is
/// a typed encode error rather than silent truncation.
fn checked_taxi(taxi: TaxiId) -> Result<u8, StoreError> {
    u8::try_from(taxi.0).map_err(|_| {
        StoreError::BadFormat(format!(
            "taxi id {} exceeds the wire format's cap of {}",
            taxi.0,
            TaxiId::MAX_PERSISTABLE
        ))
    })
}

fn finite(v: f64, what: &str) -> Result<f64, StoreError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(StoreError::BadFormat(format!("non-finite {what}: {v}")))
    }
}

/// Encodes one session in the store's wire format (exposed so the
/// `simulate` checkpoint can embed session payloads). Rejects
/// non-finite floats and counts that overflow their wire width rather
/// than writing a record that cannot round-trip.
pub fn encode_session(buf: &mut BytesMut, s: &RawTrip) -> Result<(), StoreError> {
    buf.put_u64_le(s.id.0);
    buf.put_u8(checked_taxi(s.taxi)?);
    buf.put_i64_le(s.start_time.secs());
    buf.put_i64_le(s.end_time.secs());
    buf.put_i64_le(s.total_time.secs());
    buf.put_f64_le(finite(s.total_distance_m, "total_distance_m")?);
    buf.put_f64_le(finite(s.total_fuel_ml, "total_fuel_ml")?);
    buf.put_u32_le(checked_u32(s.points.len(), "point count")?);
    for p in &s.points {
        encode_point(buf, p)?;
    }
    buf.put_u32_le(checked_u32(s.truth_trips.len(), "truth trip count")?);
    for t in &s.truth_trips {
        encode_truth(buf, t)?;
    }
    Ok(())
}

/// Encodes one route point.
fn encode_point(buf: &mut BytesMut, p: &RoutePoint) -> Result<(), StoreError> {
    buf.put_u64_le(p.point_id);
    buf.put_f64_le(finite(p.geo.lon, "geo.lon")?);
    buf.put_f64_le(finite(p.geo.lat, "geo.lat")?);
    buf.put_f64_le(finite(p.pos.x, "pos.x")?);
    buf.put_f64_le(finite(p.pos.y, "pos.y")?);
    buf.put_i64_le(p.timestamp.secs());
    buf.put_f64_le(finite(p.speed_kmh, "speed_kmh")?);
    buf.put_f64_le(finite(p.heading_deg, "heading_deg")?);
    buf.put_f64_le(finite(p.fuel_ml, "fuel_ml")?);
    buf.put_u32_le(p.truth.seq);
    match p.truth.element {
        Some(e) => {
            buf.put_u8(1);
            buf.put_u64_le(e.0);
        }
        None => buf.put_u8(0),
    }
    Ok(())
}

fn encode_truth(buf: &mut BytesMut, t: &CustomerTripTruth) -> Result<(), StoreError> {
    buf.put_u32_le(t.start_seq);
    buf.put_u32_le(t.end_seq);
    buf.put_u32_le(t.origin.0);
    buf.put_u32_le(t.destination.0);
    buf.put_u32_le(checked_u32(t.elements.len(), "truth element count")?);
    for e in &t.elements {
        buf.put_u64_le(e.0);
    }
    match &t.od_pair {
        Some((a, b)) => {
            buf.put_u8(1);
            put_str(buf, a)?;
            put_str(buf, b)?;
        }
        None => buf.put_u8(0),
    }
    Ok(())
}

/// Writes a u16-length-prefixed UTF-8 string (wire primitive). Fails on
/// strings longer than the u16 width can frame.
pub fn put_str(buf: &mut BytesMut, s: &str) -> Result<(), StoreError> {
    let len = u16::try_from(s.len())
        .map_err(|_| StoreError::BadFormat(format!("string length {} exceeds u16", s.len())))?;
    buf.put_u16_le(len);
    buf.put_slice(s.as_bytes());
    Ok(())
}

/// Decodes one session from the store's wire format, advancing `b` past
/// it. Every read is length-checked against what is left of `b`.
pub fn decode_session(b: &mut &[u8]) -> Result<RawTrip, StoreError> {
    let id = TripId(take_u64(b)?);
    let taxi = TaxiId(take_u8(b)?.into());
    let start_time = Timestamp::from_secs(take_i64(b)?);
    let end_time = Timestamp::from_secs(take_i64(b)?);
    let total_time = Duration::from_secs(take_i64(b)?);
    let total_distance_m = take_f64(b)?;
    let total_fuel_ml = take_f64(b)?;
    let np = take_count(b, POINT_FIXED_LEN, "point count")?;
    let mut points = Vec::with_capacity(np);
    for _ in 0..np {
        points.push(decode_point(b, id, taxi)?);
    }
    let nt = take_count(b, 21, "truth trip count")?;
    let mut truth_trips = Vec::with_capacity(nt);
    for _ in 0..nt {
        truth_trips.push(decode_truth(b)?);
    }
    Ok(RawTrip {
        id,
        taxi,
        start_time,
        end_time,
        points,
        total_time,
        total_distance_m,
        total_fuel_ml,
        truth_trips,
    })
}

/// Reads a u32 element count and validates it against the bytes that
/// remain, given a minimum encoded size per element — a corrupt count can
/// therefore never drive an allocation past the record it came from.
fn take_count(b: &mut &[u8], min_elem_size: usize, what: &str) -> Result<usize, StoreError> {
    let n = take_u32(b)? as usize;
    if n.saturating_mul(min_elem_size) > b.len() {
        return Err(StoreError::BadFormat(format!(
            "{what} {n} exceeds remaining {} bytes",
            b.len()
        )));
    }
    Ok(n)
}

/// Decodes one route point: its fixed [`POINT_FIXED_LEN`]-byte block
/// after a single length check, then the element id its tag announces.
/// `trip_id`/`taxi` come from the enclosing record (points do not repeat
/// them on the wire).
fn decode_point(b: &mut &[u8], trip_id: TripId, taxi: TaxiId) -> Result<RoutePoint, StoreError> {
    let Some((block, rest)) = b.split_first_chunk::<POINT_FIXED_LEN>() else {
        let field = truncated_point_field(b.len());
        return Err(StoreError::BadFormat(format!("truncated {field}")));
    };
    *b = rest;
    let f64_at = |at| f64::from_bits(read_u64_at(block, at));
    let element = match block[POINT_FIXED_LEN - 1] {
        0 => None,
        1 => Some(ElementId(take_u64(b)?)),
        tag => return Err(StoreError::BadFormat(format!("invalid element tag {tag}"))),
    };
    Ok(RoutePoint {
        point_id: read_u64_at(block, 0),
        trip_id,
        taxi,
        geo: GeoPoint::new(f64_at(8), f64_at(16)),
        pos: Point::new(f64_at(24), f64_at(32)),
        timestamp: Timestamp::from_secs(read_u64_at(block, 40) as i64),
        speed_kmh: f64_at(48),
        heading_deg: f64_at(56),
        fuel_ml: f64_at(64),
        truth: PointTruth { seq: read_u32_at(block, 72), element },
    })
}

/// Wire type of the route-point field that a block cut after `have`
/// bytes ends inside, so a short block names the field a field-by-field
/// read would have stopped at.
fn truncated_point_field(have: usize) -> &'static str {
    match have {
        0..8 => "u64",
        8..40 | 48..72 => "f64",
        40..48 => "i64",
        72..76 => "u32",
        _ => "u8",
    }
}

fn decode_truth(b: &mut &[u8]) -> Result<CustomerTripTruth, StoreError> {
    let start_seq = take_u32(b)?;
    let end_seq = take_u32(b)?;
    let origin = NodeId(take_u32(b)?);
    let destination = NodeId(take_u32(b)?);
    let ne = take_count(b, 8, "truth element count")?;
    let mut elements = Vec::with_capacity(ne);
    for _ in 0..ne {
        elements.push(ElementId(take_u64(b)?));
    }
    let od_pair = match take_u8(b)? {
        0 => None,
        1 => Some((take_str(b)?, take_str(b)?)),
        tag => return Err(StoreError::BadFormat(format!("invalid od_pair tag {tag}"))),
    };
    Ok(CustomerTripTruth { start_seq, end_seq, origin, destination, elements, od_pair })
}

macro_rules! take_impl {
    ($name:ident, $ty:ty) => {
        /// Truncation-checked little-endian scalar read (wire primitive).
        pub fn $name(b: &mut &[u8]) -> Result<$ty, StoreError> {
            let Some((head, rest)) = b.split_first_chunk() else {
                return Err(StoreError::BadFormat(concat!("truncated ", stringify!($ty)).into()));
            };
            *b = rest;
            Ok(<$ty>::from_le_bytes(*head))
        }
    };
}

take_impl!(take_u64, u64);
take_impl!(take_i64, i64);
take_impl!(take_f64, f64);
take_impl!(take_u32, u32);
take_impl!(take_u8, u8);

/// Reads a u16-length-prefixed UTF-8 string (wire primitive).
pub fn take_str(b: &mut &[u8]) -> Result<String, StoreError> {
    let Some((len, rest)) = b.split_first_chunk() else {
        return Err(StoreError::BadFormat("truncated string length".into()));
    };
    let Some((body, rest)) = rest.split_at_checked(usize::from(u16::from_le_bytes(*len))) else {
        return Err(StoreError::BadFormat("truncated string body".into()));
    };
    *b = rest;
    std::str::from_utf8(body)
        .map(str::to_owned)
        .map_err(|_| StoreError::BadFormat("invalid utf-8 in string".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_session() -> RawTrip {
        let mk = |i: u32| RoutePoint {
            point_id: i as u64,
            trip_id: TripId(9),
            taxi: TaxiId(3),
            geo: GeoPoint::new(25.4 + i as f64 * 0.001, 65.0),
            pos: Point::new(i as f64 * 10.0, -5.0),
            timestamp: Timestamp::from_secs(1000 + i as i64 * 15),
            speed_kmh: 20.0 + i as f64,
            heading_deg: 90.0,
            fuel_ml: i as f64 * 2.0,
            truth: PointTruth {
                seq: i,
                element: if i.is_multiple_of(2) { Some(ElementId(121_000 + i as u64)) } else { None },
            },
        };
        RawTrip {
            id: TripId(9),
            taxi: TaxiId(3),
            start_time: Timestamp::from_secs(1000),
            end_time: Timestamp::from_secs(1100),
            points: (0..6).map(mk).collect(),
            total_time: Duration::from_secs(100),
            total_distance_m: 60.0,
            total_fuel_ml: 11.5,
            truth_trips: vec![CustomerTripTruth {
                start_seq: 0,
                end_seq: 5,
                origin: NodeId(1),
                destination: NodeId(4),
                elements: vec![ElementId(121_000), ElementId(121_001)],
                od_pair: Some(("T".into(), "S".into())),
            }],
        }
    }

    fn sample_sessions(n: u64) -> Vec<RawTrip> {
        (0..n)
            .map(|i| {
                let mut s = sample_session();
                s.id = TripId(100 + i);
                for p in &mut s.points {
                    p.trip_id = s.id;
                }
                s
            })
            .collect()
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("taxitrace_codec_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_in_memory() {
        let s = sample_session();
        let mut buf = BytesMut::new();
        encode_session(&mut buf, &s).unwrap();
        let mut rest = &buf[..];
        let back = decode_session(&mut rest).unwrap();
        assert_eq!(back, s);
        assert!(rest.is_empty(), "no trailing bytes");
    }

    #[test]
    fn truncation_is_detected() {
        let s = sample_session();
        let mut buf = BytesMut::new();
        encode_session(&mut buf, &s).unwrap();
        // Every prefix: each boundary inside a point's fixed block, its
        // optional element id and the truth trips.
        for cut in 1..buf.len() {
            let result = decode_session(&mut &buf[..cut]);
            assert!(matches!(result, Err(StoreError::BadFormat(_))), "cut at {cut}");
        }
    }

    #[test]
    fn truncated_point_names_the_cut_field() {
        // A single point's wire layout, field by field (types and widths).
        let fields =
            [("u64", 8), ("f64", 8), ("f64", 8), ("f64", 8), ("f64", 8), ("i64", 8)]
                .into_iter()
                .chain([("f64", 8), ("f64", 8), ("f64", 8), ("u32", 4), ("u8", 1)]);
        let mut at = 0;
        for (ty, width) in fields {
            for have in at..at + width {
                assert_eq!(truncated_point_field(have), ty, "cut after {have} bytes");
            }
            at += width;
        }
        assert_eq!(at, POINT_FIXED_LEN);
    }

    #[test]
    fn unknown_wire_tags_are_rejected() {
        let mut buf = BytesMut::new();
        encode_session(&mut buf, &sample_session()).unwrap();
        // The first point's element tag is the last byte of its fixed
        // block, after the session header (49 bytes) and the point count.
        let point_tag = 49 + 4 + POINT_FIXED_LEN - 1;
        // The od_pair tag follows the truth trip's two element ids; its
        // strings "T" and "S" (3 bytes each) close the payload.
        let od_tag = buf.len() - 2 * 3 - 1;
        for (at, what) in [(point_tag, "element tag"), (od_tag, "od_pair tag")] {
            assert_eq!(buf[at], 1, "{what} offset");
            let mut raw = buf.to_vec();
            raw[at] = 2;
            let err = decode_session(&mut &raw[..]).unwrap_err();
            assert!(err.to_string().contains(&format!("invalid {what} 2")), "{err}");
        }
        // In a stored record with a valid CRC the bad tag is a corrupt
        // record, not a silently different session.
        let path = tmp_path("badtag.tts");
        save_sessions(&path, &sample_sessions(2)).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let span = record_spans(&raw).unwrap()[1];
        raw[span.payload_start + point_tag] = 2;
        let crc = crc32(&raw[span.payload_start..span.end]);
        raw[span.payload_start - 4..span.payload_start].copy_from_slice(&crc.to_le_bytes());
        let salvage = salvage_bytes(&raw).unwrap();
        assert_eq!(salvage.report.records_valid, 1);
        assert_eq!(salvage.report.damage.len(), 1);
        assert_eq!(salvage.report.damage[0].index, 1);
        assert_eq!(salvage.report.damage[0].kind, DamageKind::CorruptRecord);
        assert_eq!(
            salvage.report.damage[0].detail,
            "payload does not decode: bad store file: invalid element tag 2"
        );
        assert!(load_bytes(&raw, &LoadOptions::strict()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip_many_sessions() {
        let path = tmp_path("many.tts");
        let sessions = sample_sessions(10);
        save_sessions(&path, &sessions).unwrap();
        let loaded = load(&path, &LoadOptions::strict()).unwrap();
        assert_eq!(loaded.sessions, sessions);
        assert!(loaded.indexed, "clean v3 file should take the index path");
        // A clean file salvages to the same content with a clean report.
        let salvage = load(&path, &LoadOptions::salvage()).unwrap();
        assert!(salvage.report.is_clean());
        assert_eq!(salvage.report.version, 3);
        assert_eq!(salvage.report.records_declared, 10);
        assert_eq!(salvage.report.records_valid, 10);
        assert_eq!(salvage.sessions, sessions);
        std::fs::remove_file(&path).ok();
    }

    /// The clean image of `sample_sessions(6)` and each damage case the
    /// suite builds: bit flip, torn tail, corrupt index, duplicated record
    /// and garbage header.
    fn clean_and_damaged_images() -> Vec<(&'static str, Vec<u8>)> {
        let path = tmp_path("cases.tts");
        save_sessions_tagged(&path, &sample_sessions(6), 0xCAFE).unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let spans = record_spans(&clean).unwrap();
        let mut flip = clean.clone();
        flip[(spans[3].payload_start + spans[3].end) / 2] ^= 0x10;
        let torn = clean[..spans[4].payload_start + 3].to_vec();
        let mut bad_index = clean.clone();
        bad_index[HEADER_LEN + 2] ^= 0x40;
        let mut dup = clean[..spans[1].end].to_vec();
        dup.extend_from_slice(&clean[spans[1].frame_start..]);
        let mut garbage = clean.clone();
        garbage[0] = b'X';
        vec![
            ("clean", clean),
            ("bit flip", flip),
            ("torn tail", torn),
            ("corrupt index", bad_index),
            ("duplicated record", dup),
            ("garbage header", garbage),
        ]
    }

    #[test]
    fn streamed_load_equals_image_load() {
        let path = tmp_path("streamed.tts");
        for (case, image) in clean_and_damaged_images() {
            std::fs::write(&path, &image).unwrap();
            let image = std::fs::read(&path).unwrap();
            let streamed = load(&path, &LoadOptions::salvage()).unwrap();
            let whole = load_bytes(&image, &LoadOptions::salvage()).unwrap();
            assert_eq!(streamed.sessions, whole.sessions, "{case}");
            assert_eq!(streamed.report, whole.report, "{case}");
            assert_eq!(streamed.indexed, whole.indexed, "{case}");
            assert_eq!(streamed.indexed, case == "clean", "{case}");
            assert_eq!(streamed.report.is_clean(), case == "clean", "{case}");
            let strict = |out: Result<LoadOutcome, StoreError>| {
                out.map(|o| o.sessions).map_err(|e| e.to_string())
            };
            assert_eq!(
                strict(load(&path, &LoadOptions::strict())),
                strict(load_bytes(&image, &LoadOptions::strict())),
                "{case}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_source_that_ends_early_is_a_torn_tail() {
        let image = &clean_and_damaged_images()[0].1;
        let spans = record_spans(image).unwrap();
        let len = image.len() as u64;
        // Inside record 2's payload: records 2.. are lost.
        let out = walk(&image[..spans[2].payload_start + 5], len).unwrap();
        assert_eq!(out.sessions, sample_sessions(2));
        assert!(!out.indexed);
        assert_eq!(out.report.damage.len(), 4);
        assert!(out.report.damage.iter().all(|d| d.kind == DamageKind::TornTail));
        assert_eq!(out.report.damage[0].index, 2);
        assert_eq!(out.report.damage[0].detail, format!("torn tail: {SHRANK}"));
        // Inside a frame, and inside the header or offset index.
        let out = walk(&image[..spans[1].frame_start + 4], len).unwrap();
        assert_eq!((out.sessions.len(), out.report.damage[0].index), (1, 1));
        for cut in [4, HEADER_LEN + 3] {
            let out = walk(&image[..cut], len).unwrap();
            assert!(out.sessions.is_empty());
            assert_eq!(out.report.damage.len(), 1);
            assert_eq!(out.report.damage[0].kind, DamageKind::HeaderMismatch);
            assert_eq!(out.report.damage[0].detail, SHRANK);
        }
    }

    #[test]
    fn frame_length_past_eof_is_a_torn_tail() {
        let path = tmp_path("huge-frame.tts");
        let mut image = clean_and_damaged_images().swap_remove(0).1;
        let spans = record_spans(&image).unwrap();
        // Record 1 claims half the address space: no allocation of that
        // size, no panic, just a torn tail from record 1 on.
        let at = spans[1].frame_start;
        image[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        std::fs::write(&path, &image).unwrap();
        let out = load(&path, &LoadOptions::salvage()).unwrap();
        assert_eq!(out.sessions, sample_sessions(1));
        assert_eq!(out.report.damage.len(), 5);
        assert!(out.report.damage.iter().all(|d| d.kind == DamageKind::TornTail));
        assert_eq!(out.report.damage[0].index, 1);
        assert!(out.report.damage[0].detail.contains(&format!("claims {}", u64::MAX / 2)));
        assert!(load(&path, &LoadOptions::strict()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_write_failing_mid_stream_leaves_the_previous_file() {
        let path = tmp_path("mid-stream.tts");
        save_sessions(&path, &sample_sessions(3)).unwrap();
        let before = std::fs::read(&path).unwrap();
        // The second session fails to encode after the first record has
        // been streamed into the `.tmp` sibling.
        let mut sessions = sample_sessions(3);
        sessions[1].points[4].fuel_ml = f64::NAN;
        let err = save_sessions(&path, &sessions).unwrap_err();
        assert!(err.to_string().contains("non-finite fuel_ml"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_index_still_salvages_every_record() {
        let path = tmp_path("badindex.tts");
        let sessions = sample_sessions(5);
        save_sessions(&path, &sessions).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a bit inside the offset index (first entry).
        raw[HEADER_LEN + 2] ^= 0x40;
        // The walk recovers everything, flagging the index and not
        // reporting the read as indexed.
        let salvage = salvage_bytes(&raw).unwrap();
        assert!(!salvage.indexed);
        assert_eq!(salvage.report.version, 3);
        assert_eq!(salvage.report.records_valid, 5);
        assert_eq!(salvage.sessions, sessions);
        assert_eq!(salvage.report.damage.len(), 1);
        assert_eq!(salvage.report.damage[0].kind, DamageKind::CorruptIndex);
        // Strict load reports the damage rather than trusting the file;
        // a salvage load recovers everything and keeps the report.
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            load(&path, &LoadOptions::strict()),
            Err(StoreError::BadFormat(_))
        ));
        let out = load(&path, &LoadOptions::salvage()).unwrap();
        assert!(!out.indexed);
        assert_eq!(out.sessions, sessions);
        assert_eq!(out.report.damage[0].kind, DamageKind::CorruptIndex);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_taxi_id_is_rejected_on_encode() {
        let mut s = sample_session();
        s.taxi = TaxiId(TaxiId::MAX_PERSISTABLE + 1);
        let mut buf = BytesMut::new();
        let err = encode_session(&mut buf, &s).unwrap_err();
        assert!(err.to_string().contains("taxi id"), "{err}");
        // The cap itself still round-trips.
        let mut s = sample_session();
        s.taxi = TaxiId(TaxiId::MAX_PERSISTABLE);
        for p in &mut s.points {
            p.taxi = s.taxi;
        }
        buf.clear();
        encode_session(&mut buf, &s).unwrap();
        assert_eq!(decode_session(&mut &buf[..]).unwrap(), s);
    }

    #[test]
    fn fingerprint_round_trips() {
        let path = tmp_path("tagged.tts");
        save_sessions_tagged(&path, &sample_sessions(2), 0xFEED_F00D).unwrap();
        let out = load(&path, &LoadOptions::salvage()).unwrap();
        assert_eq!(out.report.fingerprint, 0xFEED_F00D);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_floats_are_rejected_on_encode() {
        let mut s = sample_session();
        s.total_distance_m = f64::NAN;
        let mut buf = BytesMut::new();
        assert!(matches!(encode_session(&mut buf, &s), Err(StoreError::BadFormat(_))));
        let mut s = sample_session();
        s.points[2].speed_kmh = f64::INFINITY;
        buf.clear();
        assert!(matches!(encode_session(&mut buf, &s), Err(StoreError::BadFormat(_))));
    }

    #[test]
    fn corrupt_count_does_not_overallocate() {
        // A session header declaring u32::MAX points must fail the
        // count-vs-remaining check instead of allocating gigabytes.
        let mut buf = BytesMut::new();
        encode_session(&mut buf, &sample_session()).unwrap();
        let mut raw = buf.to_vec();
        // Point count lives after id(8)+taxi(1)+3×i64(24)+2×f64(16) = 49.
        raw[49..53].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_session(&mut &raw[..]).unwrap_err();
        assert!(matches!(err, StoreError::BadFormat(_)));
        assert!(err.to_string().contains("point count"), "{err}");
    }

    #[test]
    fn bit_flip_salvages_all_but_one_record() {
        let path = tmp_path("flip.tts");
        let sessions = sample_sessions(8);
        save_sessions(&path, &sessions).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let spans = record_spans(&raw).unwrap();
        assert_eq!(spans.len(), 8);
        // Flip one bit in the middle of record 3's payload.
        let mid = (spans[3].payload_start + spans[3].end) / 2;
        raw[mid] ^= 0x10;
        let salvage = salvage_bytes(&raw).unwrap();
        assert_eq!(salvage.report.records_valid, 7);
        assert_eq!(salvage.report.damage.len(), 1);
        assert_eq!(salvage.report.damage[0].index, 3);
        assert_eq!(salvage.report.damage[0].kind, DamageKind::CorruptRecord);
        let kept: Vec<_> = salvage.sessions.iter().map(|s| s.id.0).collect();
        assert_eq!(kept, [100, 101, 102, 104, 105, 106, 107]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_salvages_prefix() {
        let path = tmp_path("torn.tts");
        let sessions = sample_sessions(5);
        save_sessions(&path, &sessions).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let spans = record_spans(&raw).unwrap();
        // Chop mid-way through the final record's payload.
        let cut = spans[4].payload_start + (spans[4].end - spans[4].payload_start) / 2;
        let salvage = salvage_bytes(&raw[..cut]).unwrap();
        assert_eq!(salvage.report.records_valid, 4);
        assert_eq!(salvage.report.damage.len(), 1);
        assert_eq!(salvage.report.damage[0].index, 4);
        assert_eq!(salvage.report.damage[0].kind, DamageKind::TornTail);
        // Strict load refuses the same bytes.
        std::fs::write(&path, &raw[..cut]).unwrap();
        assert!(matches!(
            load(&path, &LoadOptions::strict()),
            Err(StoreError::BadFormat(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_reports_every_lost_record() {
        let path = tmp_path("torn-many.tts");
        let sessions = sample_sessions(6);
        save_sessions(&path, &sessions).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let spans = record_spans(&raw).unwrap();
        // Chop inside record 2: records 2..6 are lost, 4 damage entries.
        let cut = spans[2].payload_start + 3;
        let salvage = salvage_bytes(&raw[..cut]).unwrap();
        assert_eq!(salvage.report.records_valid, 2);
        assert_eq!(salvage.report.damage.len(), 4);
        for (i, d) in salvage.report.damage.iter().enumerate() {
            assert_eq!(d.kind, DamageKind::TornTail);
            assert_eq!(d.index, 2 + i as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_header_is_header_mismatch() {
        let path = tmp_path("garbage.tts");
        save_sessions(&path, &sample_sessions(3)).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[0] = b'X';
        let salvage = salvage_bytes(&raw).unwrap();
        assert_eq!(salvage.report.records_valid, 0);
        assert_eq!(salvage.report.damage.len(), 1);
        assert_eq!(salvage.report.damage[0].kind, DamageKind::HeaderMismatch);
        // A flipped bit *inside* the header (count field) fails the
        // header CRC rather than being trusted.
        let mut raw2 = std::fs::read(&path).unwrap();
        raw2[16] ^= 0x01;
        let salvage2 = salvage_bytes(&raw2).unwrap();
        assert_eq!(salvage2.report.damage[0].kind, DamageKind::HeaderMismatch);
        assert!(salvage2.report.damage[0].detail.contains("header CRC"));
        // The retired v1 and v2 magics (nothing writes them) are unknown
        // containers: typed header damage, not a panic.
        for magic in [b"TTRS\x00\x00\x00\x01", b"TTRS\x00\x00\x00\x02"] {
            let mut old = std::fs::read(&path).unwrap();
            old[..8].copy_from_slice(magic);
            let salvage3 = salvage_bytes(&old).unwrap();
            assert_eq!((salvage3.report.version, salvage3.report.records_valid), (0, 0));
            assert_eq!(salvage3.report.damage.len(), 1);
            assert_eq!(salvage3.report.damage[0].kind, DamageKind::HeaderMismatch);
            assert!(load_bytes(&old, &LoadOptions::strict()).is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicated_record_is_flagged_not_fatal() {
        let path = tmp_path("dup.tts");
        let sessions = sample_sessions(3);
        save_sessions(&path, &sessions).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let spans = record_spans(&raw).unwrap();
        // Duplicate record 1 (frame + payload) in place.
        let mut dup = raw[..spans[1].end].to_vec();
        dup.extend_from_slice(&raw[spans[1].frame_start..spans[1].end]);
        dup.extend_from_slice(&raw[spans[1].end..]);
        let salvage = salvage_bytes(&dup).unwrap();
        // All four physical records decode; the count disagreement is
        // reported as header damage.
        assert_eq!(salvage.report.records_valid, 4);
        assert_eq!(salvage.report.damage.len(), 1);
        assert_eq!(salvage.report.damage[0].kind, DamageKind::HeaderMismatch);
        let ids: Vec<_> = salvage.sessions.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, [100, 101, 101, 102]);
        std::fs::remove_file(&path).ok();
    }
}
