//! Offline integrity checking and repair for store/checkpoint files.
//!
//! [`fsck_path`] walks a file or directory, classifies every container it
//! recognises (TTRS trip stores, TTCK stage checkpoints), and reports
//! per-file integrity: version, fingerprint, records declared vs. valid,
//! and every piece of damage the salvage reader found. With `repair`:
//!
//! * a damaged **store** is rewritten as a clean v3 file
//!   from its salvageable records, deduplicated by trip id, under the
//!   same fingerprint — the atomic writer guarantees the original stays
//!   intact if the rewrite dies;
//! * a damaged **checkpoint** is removed: checkpoints carry no primary
//!   data (the pipeline recomputes the stage), so deletion *is* the
//!   repair — resume treats the missing file as "stage not done".

use std::collections::BTreeSet;
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::codec::{load, save_sessions_tagged, DamageKind, RecordDamage};
use crate::{load_checkpoint, LoadOptions, StoreError};

/// Which container family a scanned file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A TTRS trip-store container.
    Store,
    /// A TTCK stage-checkpoint container.
    Checkpoint,
}

impl FileKind {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FileKind::Store => "store",
            FileKind::Checkpoint => "checkpoint",
        }
    }
}

/// Integrity report for one scanned file.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// The file the report describes.
    pub path: PathBuf,
    /// Container family.
    pub kind: FileKind,
    /// Container version (3 for stores, 2 for checkpoints; 0 when the
    /// header was unreadable).
    pub version: u32,
    /// Config fingerprint from the header (0 = untagged / unreadable).
    pub fingerprint: u64,
    /// Records (stores) or sections (checkpoints) the header declares.
    pub records_declared: u64,
    /// Records/sections that verified.
    pub records_valid: u64,
    /// Damage found, in file order; empty means clean.
    pub damage: Vec<RecordDamage>,
    /// Repair action taken, when repair was requested and needed:
    /// `"rewritten"` (store salvaged to clean v3) or `"removed"`
    /// (unusable checkpoint).
    pub repaired: Option<&'static str>,
}

impl FsckReport {
    /// True when the file verified end to end.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty()
    }

    /// `"corrupt_record 2, torn_tail 1"`-style damage tally, `"clean"`
    /// when there is none.
    pub fn damage_summary(&self) -> String {
        if self.damage.is_empty() {
            return "clean".into();
        }
        let count = |k: DamageKind| self.damage.iter().filter(|d| d.kind == k).count();
        let mut parts = Vec::new();
        for kind in [
            DamageKind::CorruptRecord,
            DamageKind::TornTail,
            DamageKind::HeaderMismatch,
            DamageKind::CorruptIndex,
        ] {
            let n = count(kind);
            if n > 0 {
                parts.push(format!("{} {n}", kind.label()));
            }
        }
        parts.join(", ")
    }
}

/// Scans `path` (a file, or a directory walked recursively in sorted
/// order) and returns one report per recognised container file. Files
/// that are neither TTRS nor TTCK — by `.tts`/`.ttrs`/`.ttck` extension
/// or by magic sniffing — are skipped silently, as are `.tmp` siblings
/// left by an interrupted atomic write.
pub fn fsck_path(path: &Path, repair: bool) -> Result<Vec<FsckReport>, StoreError> {
    let mut reports = Vec::new();
    walk(path, repair, &mut reports)?;
    Ok(reports)
}

fn walk(path: &Path, repair: bool, out: &mut Vec<FsckReport>) -> Result<(), StoreError> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            walk(&entry, repair, out)?;
        }
        return Ok(());
    }
    let Some(kind) = sniff(path)? else { return Ok(()) };
    let report = match kind {
        FileKind::Store => fsck_store(path, repair)?,
        FileKind::Checkpoint => fsck_checkpoint(path, repair)?,
    };
    out.push(report);
    Ok(())
}

/// Decides whether `path` is a container worth scanning: extension
/// first (so a garbage-headered store is still reported, not skipped),
/// then magic sniffing (of the first 8 bytes only) for unconventional
/// names.
fn sniff(path: &Path) -> Result<Option<FileKind>, StoreError> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("tts") | Some("ttrs") => return Ok(Some(FileKind::Store)),
        Some("ttck") => return Ok(Some(FileKind::Checkpoint)),
        Some("tmp") => return Ok(None),
        _ => {}
    }
    let mut head = Vec::with_capacity(8);
    std::fs::File::open(path)?.take(8).read_to_end(&mut head)?;
    Ok(match head.get(..4) {
        Some(b"TTRS") => Some(FileKind::Store),
        Some(b"TTCK") => Some(FileKind::Checkpoint),
        _ => None,
    })
}

fn fsck_store(path: &Path, repair: bool) -> Result<FsckReport, StoreError> {
    let salvage = load(path, &LoadOptions::salvage())?;
    let mut report = FsckReport {
        path: path.to_path_buf(),
        kind: FileKind::Store,
        version: salvage.report.version,
        fingerprint: salvage.report.fingerprint,
        records_declared: salvage.report.records_declared,
        records_valid: salvage.report.records_valid,
        damage: salvage.report.damage,
        repaired: None,
    };
    // An unreadable header (version 0 or a failed header CRC) leaves
    // nothing trustworthy to rewrite from; repair only when the header
    // parsed and there is damage to shed.
    let header_usable = report.version != 0
        && !report.damage.iter().any(|d| d.kind == DamageKind::HeaderMismatch && d.index == 0);
    if repair && header_usable && !report.is_clean() {
        let mut seen = BTreeSet::new();
        let unique: Vec<_> = salvage
            .sessions
            .into_iter()
            .filter(|s| seen.insert(s.id.0))
            .collect();
        save_sessions_tagged(path, &unique, report.fingerprint)?;
        report.repaired = Some("rewritten");
    }
    Ok(report)
}

fn fsck_checkpoint(path: &Path, repair: bool) -> Result<FsckReport, StoreError> {
    let raw = std::fs::read(path)?;
    // Best-effort header peek so even an unloadable file reports its
    // claimed version and fingerprint.
    let version = match raw.get(..8) {
        Some(m) if m == crate::CHECKPOINT_MAGIC_V2 => 2,
        _ => 0,
    };
    let fingerprint = if version != 0 && raw.len() >= 16 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&raw[8..16]);
        u64::from_le_bytes(b)
    } else {
        0
    };
    let mut report = FsckReport {
        path: path.to_path_buf(),
        kind: FileKind::Checkpoint,
        version,
        fingerprint,
        records_declared: 0,
        records_valid: 0,
        damage: Vec::new(),
        repaired: None,
    };
    match load_checkpoint(path) {
        Ok(ck) => {
            report.fingerprint = ck.fingerprint;
            report.records_declared = ck.section_count() as u64;
            report.records_valid = ck.section_count() as u64;
        }
        Err(e) => {
            let kind = if version == 0 {
                DamageKind::HeaderMismatch
            } else {
                DamageKind::CorruptRecord
            };
            report.damage.push(RecordDamage { index: 0, kind, detail: e.to_string() });
            if repair {
                // Checkpoints are derived data: removing the unusable
                // file makes resume recompute the stage cleanly.
                std::fs::remove_file(path)?;
                report.repaired = Some("removed");
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{load, record_spans, save_sessions};
    use crate::LoadOptions;
    use taxitrace_geo::{GeoPoint, Point};
    use taxitrace_timebase::{Duration, Timestamp};
    use taxitrace_traces::{PointTruth, RawTrip, RoutePoint, TaxiId, TripId};

    fn session(trip: u64) -> RawTrip {
        let points: Vec<RoutePoint> = (0..4)
            .map(|i| RoutePoint {
                point_id: trip * 100 + i,
                trip_id: TripId(trip),
                taxi: TaxiId(1),
                geo: GeoPoint::new(25.0, 65.0),
                pos: Point::new(i as f64, 0.0),
                timestamp: Timestamp::from_secs(i as i64 * 10),
                speed_kmh: 30.0,
                heading_deg: 0.0,
                fuel_ml: 1.0,
                truth: PointTruth { seq: i as u32, element: None },
            })
            .collect();
        RawTrip {
            id: TripId(trip),
            taxi: TaxiId(1),
            start_time: Timestamp::from_secs(0),
            end_time: Timestamp::from_secs(40),
            points,
            total_time: Duration::from_secs(40),
            total_distance_m: 4.0,
            total_fuel_ml: 4.0,
            truth_trips: Vec::new(),
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("taxitrace-fsck-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_dir_scan_reports_all_files() {
        let dir = tmp_dir("clean");
        let sessions: Vec<_> = (1..=3).map(session).collect();
        save_sessions(&dir.join("a.tts"), &sessions).unwrap();
        crate::save_checkpoint(&dir.join("b.ttck"), 9, &[("s", b"x")]).unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a container").unwrap();
        let reports = fsck_path(&dir, false).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.is_clean()));
        assert_eq!(reports[0].kind, FileKind::Store);
        assert_eq!(reports[1].kind, FileKind::Checkpoint);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_round_trips_a_bit_flipped_store() {
        let dir = tmp_dir("flip");
        let path = dir.join("s.tts");
        let sessions: Vec<_> = (1..=5).map(session).collect();
        save_sessions(&path, &sessions).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let spans = record_spans(&raw).unwrap();
        raw[spans[2].payload_start + 4] ^= 0x08;
        std::fs::write(&path, &raw).unwrap();

        // Scan-only: damage reported, file untouched.
        let scan = fsck_path(&path, false).unwrap();
        assert_eq!(scan[0].records_valid, 4);
        assert_eq!(scan[0].damage_summary(), "corrupt_record 1");
        assert!(scan[0].repaired.is_none());

        // Repair: rewritten; a re-scan is clean with the survivors.
        let fix = fsck_path(&path, true).unwrap();
        assert_eq!(fix[0].repaired, Some("rewritten"));
        let rescan = fsck_path(&path, true).unwrap();
        assert!(rescan[0].is_clean());
        assert_eq!(rescan[0].version, 3);
        assert_eq!(rescan[0].records_valid, 4);
        assert!(rescan[0].repaired.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_offset_index_is_repaired_by_rewrite() {
        let dir = tmp_dir("badindex");
        let path = dir.join("s.tts");
        let sessions: Vec<_> = (1..=4).map(session).collect();
        save_sessions(&path, &sessions).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a bit inside the v3 offset index (starts after the 28-byte
        // header).
        raw[30] ^= 0x20;
        std::fs::write(&path, &raw).unwrap();
        let scan = fsck_path(&path, false).unwrap();
        assert_eq!(scan[0].damage_summary(), "corrupt_index 1");
        assert_eq!(scan[0].records_valid, 4, "records scan-salvage fine");
        let fix = fsck_path(&path, true).unwrap();
        assert_eq!(fix[0].repaired, Some("rewritten"));
        let rescan = fsck_path(&path, false).unwrap();
        assert!(rescan[0].is_clean());
        assert_eq!(rescan[0].version, 3);
        assert_eq!(rescan[0].records_valid, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_dedupes_duplicated_records() {
        let dir = tmp_dir("dup");
        let path = dir.join("s.tts");
        let sessions: Vec<_> = (1..=3).map(session).collect();
        save_sessions(&path, &sessions).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let spans = record_spans(&raw).unwrap();
        let mut dup = raw[..spans[1].end].to_vec();
        dup.extend_from_slice(&raw[spans[1].frame_start..spans[1].end]);
        dup.extend_from_slice(&raw[spans[1].end..]);
        std::fs::write(&path, &dup).unwrap();
        let fix = fsck_path(&path, true).unwrap();
        assert_eq!(fix[0].repaired, Some("rewritten"));
        let repaired = load(&path, &LoadOptions::strict()).unwrap();
        assert_eq!(repaired.sessions, sessions);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_header_store_is_reported_but_never_rewritten() {
        let dir = tmp_dir("garbage");
        let path = dir.join("s.tts");
        save_sessions(&path, &[session(1)]).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[..8].copy_from_slice(b"GARBAGE!");
        std::fs::write(&path, &raw).unwrap();
        let fix = fsck_path(&path, true).unwrap();
        assert_eq!(fix[0].damage_summary(), "header_mismatch 1");
        assert!(fix[0].repaired.is_none(), "nothing trustworthy to rewrite from");
        assert_eq!(std::fs::read(&path).unwrap(), raw, "file untouched");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_removed_on_repair() {
        let dir = tmp_dir("ck");
        let path = dir.join("clean.ttck");
        crate::save_checkpoint(&path, 5, &[("alpha", b"abcdef")]).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let scan = fsck_path(&path, false).unwrap();
        assert!(!scan[0].is_clean());
        assert_eq!(scan[0].version, 2);
        assert_eq!(scan[0].fingerprint, 5);
        assert!(path.exists());
        let fix = fsck_path(&path, true).unwrap();
        assert_eq!(fix[0].repaired, Some("removed"));
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unconventional_names_are_magic_sniffed() {
        let dir = tmp_dir("sniff");
        let path = dir.join("data.bin");
        save_sessions(&path, &[session(1)]).unwrap();
        let reports = fsck_path(&dir, false).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, FileKind::Store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extensionless_names_are_sniffed_by_their_magic() {
        let dir = tmp_dir("noext");
        save_sessions(&dir.join("trips"), &[session(1), session(2)]).unwrap();
        crate::save_checkpoint(&dir.join("resume"), 4, &[("s", b"x")]).unwrap();
        std::fs::write(dir.join("README"), b"TTR, but not a container").unwrap();
        std::fs::write(dir.join("empty"), b"").unwrap();
        let reports = fsck_path(&dir, false).unwrap();
        let found: Vec<_> = reports
            .iter()
            .map(|r| (r.path.file_name().unwrap().to_str().unwrap(), r.kind, r.records_valid))
            .collect();
        assert_eq!(found, [("resume", FileKind::Checkpoint, 1), ("trips", FileKind::Store, 2)]);
        assert!(reports.iter().all(|r| r.is_clean()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
