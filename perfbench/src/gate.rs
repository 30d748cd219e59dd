//! The correctness gate. A run whose outputs disagree with their reference
//! prints no numbers: batch and stream must converge to the same study
//! fingerprint (and, at the pinned seed, to the value `repro` prints), and
//! every body the server answers with 200 must equal the in-process answer.

use taxitrace_core::StudyOutput;

/// The seed whose scale-1.0 study fingerprint is pinned.
pub const PINNED_SEED: u64 = 2012;
/// `study fingerprint` that `repro --seed 2012 --scale 1.0` prints (also
/// recorded in `BENCH_pipeline.json`).
pub const PINNED_FINGERPRINT: u64 = 0xf2d3_92b8_2926_b399;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fnv1a_u64(h: u64, v: u64) -> u64 {
    fnv1a_bytes(h, &v.to_le_bytes())
}

/// Fingerprint of a full pipeline output: cleaning totals, the funnel and
/// every fused transition down to point-speed bits. A copy of the private
/// `study_fingerprint` of the `repro` binary; [`PINNED_FINGERPRINT`] ties
/// the two together.
pub fn study_fingerprint(out: &StudyOutput) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a_u64(h, out.cleaning.sessions as u64);
    h = fnv1a_u64(h, out.cleaning.segments_kept as u64);
    h = fnv1a_u64(h, out.segments.len() as u64);
    for row in out.funnel() {
        for v in [
            u64::from(row.taxi),
            row.segments_total as u64,
            row.any_crossing as u64,
            row.filtered_cleaned as u64,
            row.transitions_total as u64,
            row.within_center as u64,
            row.post_filtered as u64,
        ] {
            h = fnv1a_u64(h, v);
        }
    }
    for t in &out.transitions {
        h = fnv1a_bytes(h, t.pair.as_bytes());
        h = fnv1a_u64(h, t.points.len() as u64);
        h = fnv1a_u64(h, t.dist_km.to_bits());
        h = fnv1a_u64(h, t.time_h.to_bits());
        for p in &t.points {
            h = fnv1a_u64(h, p.speed_kmh.to_bits());
        }
    }
    h
}

/// Batch and stream fingerprints must agree, and at `pinned.0` they must
/// equal `pinned.1`.
pub fn check_fingerprints(
    seed: u64,
    batch: u64,
    stream: u64,
    pinned: (u64, u64),
) -> Result<(), String> {
    if batch != stream {
        return Err(format!(
            "batch fingerprint {batch:#018x} != stream fingerprint {stream:#018x}"
        ));
    }
    if seed == pinned.0 && batch != pinned.1 {
        return Err(format!(
            "seed {seed}: fingerprint {batch:#018x} != pinned {:#018x}",
            pinned.1
        ));
    }
    Ok(())
}

/// A served body must be byte-identical to the in-process answer.
pub fn check_body(path: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{path}: served body ({} bytes) differs from the in-process answer ({} bytes)",
            got.len(),
            expected.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED: (u64, u64) = (PINNED_SEED, PINNED_FINGERPRINT);

    #[test]
    fn pinned_seed_accepts_the_pinned_fingerprint() {
        assert!(check_fingerprints(2012, PINNED_FINGERPRINT, PINNED_FINGERPRINT, PINNED).is_ok());
    }

    #[test]
    fn a_wrong_pinned_value_fails_the_gate() {
        let wrong = (PINNED_SEED, PINNED_FINGERPRINT ^ 1);
        let err = check_fingerprints(2012, PINNED_FINGERPRINT, PINNED_FINGERPRINT, wrong)
            .expect_err("a wrong pinned value must fail");
        assert!(err.contains("pinned"), "{err}");
    }

    #[test]
    fn other_seeds_only_need_batch_stream_agreement() {
        assert!(check_fingerprints(7, 42, 42, PINNED).is_ok());
        assert!(check_fingerprints(7, 42, 43, PINNED).is_err());
    }

    #[test]
    fn body_mismatch_fails_the_gate() {
        assert!(check_body("/trip?id=1", "{\"a\":1}", "{\"a\":1}").is_ok());
        assert!(check_body("/trip?id=1", "{\"a\":1}", "{\"a\":2}").is_err());
    }
}
