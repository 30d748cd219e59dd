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
//! The offset index buys *seek reads*: [`load`] jumps straight to each
//! record and decodes it in place. The file is read into one owned
//! buffer and every reader borrows `&[u8]` slices of it, so the image
//! is held once, never copied into a second buffer. The
//! record-count field is covered by the header CRC, so the body start
//! `28 + count*8 + 4` stays computable even when the index bytes
//! themselves are damaged — salvage then falls back to a sequential frame
//! scan and recovers every verifiable record. Any other magic, the
//! retired v1 and v2 ones included, is an unknown container. Writes are
//! atomic everywhere via [`crate::integrity::write_atomic`].

use std::path::Path;

use bytes::{BufMut, BytesMut};
use taxitrace_geo::{GeoPoint, Point};
use taxitrace_roadnet::{ElementId, NodeId};
use taxitrace_timebase::{Duration, Timestamp};
use taxitrace_traces::{
    CustomerTripTruth, PointTruth, RawTrip, RecordSpan, RoutePoint, TaxiId, TripId,
};

use crate::integrity::{crc32, write_atomic};
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
    /// unaffected — salvage recovers them by sequential scan — but seek
    /// reads are off the table until the file is rewritten.
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

/// Result of a salvage read: every recoverable session plus the report.
#[derive(Debug, Clone)]
pub struct Salvage {
    /// Sessions that verified and decoded, in file order.
    pub sessions: Vec<RawTrip>,
    /// Per-file integrity report.
    pub report: SalvageReport,
}

/// Writes sessions to `path` as an untagged container (fingerprint 0).
pub fn save_sessions(path: &Path, sessions: &[RawTrip]) -> Result<(), StoreError> {
    save_sessions_tagged(path, sessions, 0)
}

/// Writes sessions to `path` (offset index + CRC'd record frames) stamped
/// with the given config fingerprint. The write is atomic: temp file +
/// fsync + rename.
///
/// The image is built in one buffer: the offset index is laid down as
/// zeros and each slot is patched as its record is framed, and each
/// record is encoded in place after a zeroed length + CRC slot, which is
/// patched in turn.
pub fn save_sessions_tagged(
    path: &Path,
    sessions: &[RawTrip],
    fingerprint: u64,
) -> Result<(), StoreError> {
    let mut out = BytesMut::new();
    out.put_slice(&MAGIC_V3);
    out.put_u64_le(fingerprint);
    out.put_u64_le(checked_u64(sessions.len(), "session count")?);
    let header_crc = crc32(&out);
    out.put_u32_le(header_crc);
    let index_start = out.len();
    let index_end = index_start + sessions.len() * 8;
    out.put_bytes(0, index_end - index_start + INDEX_CRC_LEN);
    for (slot, s) in (index_start..index_end).step_by(8).zip(sessions) {
        let frame = out.len();
        let offset = checked_u64(frame, "record offset")?;
        out[slot..slot + 8].copy_from_slice(&offset.to_le_bytes());
        let payload = frame + FRAME_LEN;
        out.put_bytes(0, FRAME_LEN);
        encode_session(&mut out, s)?;
        let len = checked_u64(out.len() - payload, "session record length")?;
        let crc = crc32(&out[payload..]);
        out[frame..frame + 8].copy_from_slice(&len.to_le_bytes());
        out[frame + 8..payload].copy_from_slice(&crc.to_le_bytes());
    }
    let index_crc = crc32(&out[index_start..index_end]);
    out[index_end..index_end + INDEX_CRC_LEN].copy_from_slice(&index_crc.to_le_bytes());
    write_atomic(path, &out)?;
    Ok(())
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
/// integrity report and whether the offset index served the read
/// (seek + in-place payload decode) rather than the sequential scan.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// Sessions that verified and decoded, in file order.
    pub sessions: Vec<RawTrip>,
    /// Per-file integrity report; clean indexed reads carry a clean one.
    pub report: SalvageReport,
    /// True when the offset index served the read. The pipeline reports
    /// this as the `store.indexed_reads` counter.
    pub indexed: bool,
}

/// Reads sessions from `path`. The single store read entry point: a clean
/// file is served through the offset-index fast path; a file with *any*
/// verification failure goes through the sequential salvage scan so
/// damage is named precisely. With [`LoadOptions::strict`] the first
/// damage entry becomes a [`StoreError::BadFormat`]; with
/// [`LoadOptions::salvage`] damage never fails the read — the worst case
/// (unrecognised magic, failed header CRC) yields zero sessions and one
/// [`DamageKind::HeaderMismatch`] entry in the report. Only I/O errors
/// reading the file are fatal in salvage mode.
pub fn load(path: &Path, opts: &LoadOptions) -> Result<LoadOutcome, StoreError> {
    load_bytes(&std::fs::read(path)?, opts)
}

/// [`load`] over an in-memory image (benchmarks, tests).
pub fn load_bytes(raw: &[u8], opts: &LoadOptions) -> Result<LoadOutcome, StoreError> {
    if let Some(Salvage { sessions, report }) = indexed_load_bytes(raw) {
        return Ok(LoadOutcome { sessions, report, indexed: true });
    }
    let salvage = salvage_bytes(raw);
    match salvage.report.damage.first() {
        Some(d) if !opts.salvage => Err(StoreError::BadFormat(format!(
            "{} at record {}: {}",
            d.kind.label(),
            d.index,
            d.detail
        ))),
        _ => Ok(LoadOutcome {
            sessions: salvage.sessions,
            report: salvage.report,
            indexed: false,
        }),
    }
}

/// The salvage scan over an in-memory image (fsck, tests): recovers every
/// record that verifies and reports the rest as typed damage.
pub fn salvage_bytes(raw: &[u8]) -> Salvage {
    let mut report = SalvageReport::default();
    let Some(header) = parse_header(raw, &mut report) else {
        return Salvage { sessions: Vec::new(), report };
    };
    let sessions = salvage_records(raw, header, &mut report);
    report.records_valid = sessions.len() as u64;
    Salvage { sessions, report }
}

/// Byte extents of each framed record in a store image (frame and
/// payload offsets; see [`taxitrace_traces::RecordSpan`]). Fails on an
/// unreadable header; used by the on-disk chaos injector to aim bit
/// flips at record payloads and duplicate whole frames deterministically.
pub fn record_spans(raw: &[u8]) -> Result<Vec<RecordSpan>, StoreError> {
    let header = parse_header(raw, &mut SalvageReport::default())
        .ok_or_else(|| StoreError::BadFormat("unreadable store header".into()))?;
    let mut spans = Vec::new();
    let mut offset = header.body_start;
    while raw.len() - offset >= FRAME_LEN {
        let len = read_u64_at(raw, offset);
        let payload_at = offset + FRAME_LEN;
        let Some(end) = payload_end(payload_at, len, raw.len()) else { break };
        spans.push(RecordSpan { frame_start: offset, payload_start: payload_at, end });
        offset = end;
    }
    Ok(spans)
}

/// Decodes the framed record at absolute offset `off` straight from a
/// borrowed slice of `raw`; no payload bytes are copied before decode.
/// Strict: CRC failure, truncation or trailing payload bytes yield `None`.
fn decode_record_at(raw: &[u8], off: usize) -> Option<(RawTrip, usize)> {
    if raw.len().saturating_sub(off) < FRAME_LEN {
        return None;
    }
    let len = read_u64_at(raw, off);
    let payload_at = off + FRAME_LEN;
    let end = payload_end(payload_at, len, raw.len())?;
    let mut payload = &raw[payload_at..end];
    if crc32(payload) != read_u32_at(raw, off + 8) {
        return None;
    }
    let session = decode_session(&mut payload).ok()?;
    payload.is_empty().then_some((session, end))
}

/// Indexed read of a whole image: seeks each record via the offset index
/// and decodes payload slices borrowed from `raw` — no full-file scan, no
/// per-payload copies. It is [`parse_header`] with no damage reported,
/// offsets that tile the body exactly through to the end of the file, and
/// every record verifying; anything else is `None`, so [`load_bytes`]
/// falls back to [`salvage_bytes`] for a typed report.
fn indexed_load_bytes(raw: &[u8]) -> Option<Salvage> {
    let mut report = SalvageReport::default();
    let header = parse_header(raw, &mut report).filter(|_| report.is_clean())?;
    let mut sessions = Vec::with_capacity(header.declared.min(1 << 20) as usize);
    let mut expected = header.body_start;
    // parse_header verified that the whole index lies inside the file.
    for slot in (HEADER_LEN..header.body_start - INDEX_CRC_LEN).step_by(8) {
        if usize::try_from(read_u64_at(raw, slot)).ok()? != expected {
            return None;
        }
        let (session, end) = decode_record_at(raw, expected)?;
        sessions.push(session);
        expected = end;
    }
    if expected != raw.len() {
        return None;
    }
    report.records_valid = report.records_declared;
    Some(Salvage { sessions, report })
}

/// Parsed, verified container header.
struct Header {
    declared: u64,
    body_start: usize,
}

/// Parses and CRC-verifies the header and offset index of `raw`, filling
/// in the report's version, fingerprint and declared count. `None` when
/// the header is unusable, reported as [`DamageKind::HeaderMismatch`]. A
/// damaged offset index is reported as [`DamageKind::CorruptIndex`] but
/// still yields the header: the records are recovered by sequential scan.
fn parse_header(raw: &[u8], report: &mut SalvageReport) -> Option<Header> {
    let mismatch =
        |detail: String| RecordDamage { index: 0, kind: DamageKind::HeaderMismatch, detail };
    if raw.len() < 8 {
        report.damage.push(mismatch(format!("file too short for magic ({} bytes)", raw.len())));
        return None;
    }
    if raw[..8] != MAGIC_V3 {
        report.damage.push(mismatch("magic mismatch".into()));
        return None;
    }
    report.version = 3;
    if raw.len() < HEADER_LEN {
        report.damage.push(mismatch(format!("file too short for v3 header ({} bytes)", raw.len())));
        return None;
    }
    let stored = read_u32_at(raw, 24);
    let actual = crc32(&raw[..24]);
    if stored != actual {
        report.damage.push(mismatch(format!(
            "header CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
        return None;
    }
    report.fingerprint = read_u64_at(raw, 8);
    report.records_declared = read_u64_at(raw, 16);
    // The CRC-protected count fixes where the body starts even when the
    // index bytes themselves are damaged.
    let Some(body_start) = body_start(report.records_declared, raw.len()) else {
        report.damage.push(mismatch(format!(
            "file too short for {}-entry offset index ({} bytes)",
            report.records_declared,
            raw.len()
        )));
        return None;
    };
    let index_end = body_start - INDEX_CRC_LEN;
    let stored_idx = read_u32_at(raw, index_end);
    let actual_idx = crc32(&raw[HEADER_LEN..index_end]);
    if stored_idx != actual_idx {
        report.damage.push(RecordDamage {
            index: 0,
            kind: DamageKind::CorruptIndex,
            detail: format!(
                "offset index CRC mismatch (stored {stored_idx:#010x}, computed {actual_idx:#010x})"
            ),
        });
    }
    Some(Header { declared: report.records_declared, body_start })
}

/// Body offset of a container with `declared` records, or `None` when
/// the file cannot hold that index (overflow or truncation inside it).
fn body_start(declared: u64, file_len: usize) -> Option<usize> {
    let index_bytes = usize::try_from(declared).ok()?.checked_mul(8)?;
    let body_start = HEADER_LEN.checked_add(index_bytes)?.checked_add(INDEX_CRC_LEN)?;
    (body_start <= file_len).then_some(body_start)
}

/// Walks the record frames from `body_start`, decoding every record that
/// verifies and classifying the rest. Reading continues past a corrupt
/// record (its frame still delimits it) and stops only at a torn tail,
/// where the frame itself can no longer be trusted.
fn salvage_records(raw: &[u8], header: Header, report: &mut SalvageReport) -> Vec<RawTrip> {
    let mut sessions = Vec::with_capacity(header.declared.min(1 << 20) as usize);
    let mut offset = header.body_start;
    let mut index: u64 = 0;
    let mut torn: Option<String> = None;
    while offset < raw.len() {
        let remaining = raw.len() - offset;
        if remaining < FRAME_LEN {
            torn = Some(format!("{remaining} bytes left, record frame needs {FRAME_LEN}"));
            break;
        }
        let len = read_u64_at(raw, offset);
        let payload_at = offset + FRAME_LEN;
        let Some(end) = payload_end(payload_at, len, raw.len()) else {
            torn = Some(format!(
                "record claims {len} bytes, only {} remain",
                raw.len() - payload_at
            ));
            break;
        };
        let payload = &raw[payload_at..end];
        let stored = read_u32_at(raw, offset + 8);
        let actual = crc32(payload);
        if stored != actual {
            report.damage.push(RecordDamage {
                index,
                kind: DamageKind::CorruptRecord,
                detail: format!(
                    "payload CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
                ),
            });
            offset = end;
            index += 1;
            continue;
        }
        let mut rest = payload;
        match decode_session(&mut rest) {
            Ok(s) if rest.is_empty() => sessions.push(s),
            Ok(_) => report.damage.push(RecordDamage {
                index,
                kind: DamageKind::CorruptRecord,
                detail: format!("{} undecoded payload bytes", rest.len()),
            }),
            Err(e) => report.damage.push(RecordDamage {
                index,
                kind: DamageKind::CorruptRecord,
                detail: format!("payload does not decode: {e}"),
            }),
        }
        offset = end;
        index += 1;
    }
    if let Some(detail) = torn {
        push_torn_tail(report, index, header.declared, &detail);
    } else if index < header.declared {
        // The file ends cleanly on a record boundary but short of the
        // declared count — a truncation that happened to land between
        // records is still a torn tail.
        push_torn_tail(report, index, header.declared, "file ends before declared count");
    } else if index > header.declared {
        // The CRC-protected header disagrees with the body, which gained
        // whole records (e.g. a duplicated record).
        report.damage.push(RecordDamage {
            index,
            kind: DamageKind::HeaderMismatch,
            detail: format!(
                "header declares {} records, file holds {index}",
                header.declared
            ),
        });
    }
    sessions
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

/// End offset of a payload of `len` bytes starting at `payload_at`, or
/// `None` when the declared length overruns the file (so a corrupt length
/// can never trigger an allocation beyond the file size).
fn payload_end(payload_at: usize, len: u64, file_len: usize) -> Option<usize> {
    let len = usize::try_from(len).ok()?;
    let end = payload_at.checked_add(len)?;
    (end <= file_len).then_some(end)
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
        let salvage = salvage_bytes(&raw);
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

    #[test]
    fn indexed_load_matches_scan() {
        let path = tmp_path("indexed.tts");
        let sessions = sample_sessions(9);
        save_sessions_tagged(&path, &sessions, 0xCAFE).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let indexed = load_bytes(&raw, &LoadOptions::strict()).unwrap();
        assert!(indexed.indexed);
        assert_eq!(indexed.report.fingerprint, 0xCAFE);
        assert_eq!(indexed.sessions, sessions);
        let scanned = salvage_bytes(&raw);
        assert!(scanned.report.is_clean());
        assert_eq!(indexed.sessions, scanned.sessions);
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
        // Fast path refuses...
        assert!(indexed_load_bytes(&raw).is_none());
        // ...but the sequential scan recovers everything, flagging the index.
        let salvage = salvage_bytes(&raw);
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
        let salvage = salvage_bytes(&raw);
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
        let salvage = salvage_bytes(&raw[..cut]);
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
        let salvage = salvage_bytes(&raw[..cut]);
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
        let salvage = salvage_bytes(&raw);
        assert_eq!(salvage.report.records_valid, 0);
        assert_eq!(salvage.report.damage.len(), 1);
        assert_eq!(salvage.report.damage[0].kind, DamageKind::HeaderMismatch);
        // A flipped bit *inside* the header (count field) fails the
        // header CRC rather than being trusted.
        let mut raw2 = std::fs::read(&path).unwrap();
        raw2[16] ^= 0x01;
        let salvage2 = salvage_bytes(&raw2);
        assert_eq!(salvage2.report.damage[0].kind, DamageKind::HeaderMismatch);
        assert!(salvage2.report.damage[0].detail.contains("header CRC"));
        // The retired v1 and v2 magics (nothing writes them) are unknown
        // containers: typed header damage, not a panic.
        for magic in [b"TTRS\x00\x00\x00\x01", b"TTRS\x00\x00\x00\x02"] {
            let mut old = std::fs::read(&path).unwrap();
            old[..8].copy_from_slice(magic);
            let salvage3 = salvage_bytes(&old);
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
        let salvage = salvage_bytes(&dup);
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
