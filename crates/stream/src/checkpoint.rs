//! Stream-cursor checkpoints.
//!
//! Mid-stream kill/resume reuses the store's TTCK checkpoint container
//! (CRC-framed sections, atomic rename — see `taxitrace-store`). A stream
//! checkpoint persists one section, `stream/cursor`: the number of feed
//! records consumed plus the persisted counter values, so cumulative
//! totals survive the kill. Nothing derived is stored. The feed is
//! deterministic, so a resuming run replays records `0..cursor` through
//! the same watermark machine, trip closes and ledger filing as the live
//! path, which rebuilds the open-trip buffers, the per-session products
//! and the stream-stage ledger exactly.
//!
//! The file is keyed by a fingerprint of both the study config and the
//! stream config: resuming under different watermark semantics would
//! silently change which trips closed before the cursor, so it must
//! start fresh instead.

use std::path::Path;

use bytes::{BufMut, BytesMut};
use taxitrace_core::Error;
use taxitrace_store::codec::{put_str, take_str, take_u32, take_u64};
use taxitrace_store::{load_checkpoint, save_checkpoint};

use crate::metrics::{StreamMetrics, PERSISTED_COUNTERS};

/// File name inside the checkpoint directory.
pub const STREAM_CHECKPOINT_FILE: &str = "stream.ttck";

/// Checkpoint key: study config fingerprint mixed with the stream
/// config, so either changing invalidates the cursor.
pub fn stream_fingerprint(
    config: &taxitrace_core::StudyConfig,
    stream: &crate::StreamConfig,
) -> u64 {
    let stream = taxitrace_core::fnv1a(format!("{stream:?}").as_bytes());
    taxitrace_core::config_fingerprint(config) ^ stream
}

/// Writes the stream checkpoint atomically: `cursor` records consumed,
/// and the persisted counters' current values.
pub(crate) fn save_stream_checkpoint(
    path: &Path,
    fingerprint: u64,
    cursor: u64,
    metrics: &StreamMetrics,
) -> Result<(), Error> {
    let mut section = BytesMut::new();
    section.put_u64_le(cursor);
    section.put_u32_le(PERSISTED_COUNTERS.len() as u32);
    for name in PERSISTED_COUNTERS {
        put_str(&mut section, name).map_err(Error::Store)?;
        section.put_u64_le(metrics.persisted_value(name));
    }
    save_checkpoint(path, fingerprint, &[("stream/cursor", &section)]).map_err(Error::Store)
}

/// Loads a stream checkpoint if one exists for this fingerprint. Returns
/// the cursor plus the persisted counter values (restored by the caller
/// onto fresh metric handles). Any mismatch — missing file, stale
/// fingerprint, truncated section — means "start from the beginning";
/// resumability is an optimization, never a correctness requirement.
pub(crate) fn load_stream_checkpoint(
    path: &Path,
    fingerprint: u64,
) -> Option<(u64, Vec<(String, u64)>)> {
    let file = load_checkpoint(path).ok()?;
    if file.fingerprint != fingerprint {
        return None;
    }
    let mut b = file.section("stream/cursor")?;
    let cursor = take_u64(&mut b).ok()?;
    let n = take_u32(&mut b).ok()? as usize;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        let name = take_str(&mut b).ok()?;
        let value = take_u64(&mut b).ok()?;
        counters.push((name, value));
    }
    Some((cursor, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_obs::Registry;

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join(format!("ttstream-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(STREAM_CHECKPOINT_FILE);
        let registry = Registry::new();
        let metrics = StreamMetrics::new(&registry);
        metrics.trips_closed.add(2);
        save_stream_checkpoint(&path, 77, 41, &metrics).expect("save");

        assert!(load_stream_checkpoint(&path, 78).is_none(), "fingerprint gate");
        let (cursor, counters) = load_stream_checkpoint(&path, 77).expect("load");
        assert_eq!(cursor, 41);
        assert_eq!(counters.len(), PERSISTED_COUNTERS.len());
        let trips = counters.iter().find(|(n, _)| n == "stream.trips_closed").expect("counter");
        assert_eq!(trips.1, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
