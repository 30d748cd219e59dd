//! FNV-1a, the one hash behind every fingerprint the system prints or
//! pins (study, config, stream cursor, store image, load mix), and the
//! study fingerprint built on it. Not a cryptographic hash: it detects
//! drift, not tampering.

use crate::experiment::StudyOutput;

/// FNV-1a offset basis: the state an unseeded hash starts from.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_seeded(FNV_OFFSET, bytes)
}

/// FNV-1a continued from state `h`, so a sequence of fields hashes as one
/// stream: `fnv1a_seeded(fnv1a(a), b) == fnv1a(a ++ b)`.
pub fn fnv1a_seeded(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl StudyOutput {
    /// Fingerprint of the pipeline output: the cleaning totals, the
    /// Table 3 funnel and the fused transitions down to point-speed bits,
    /// each word little-endian. Equal fingerprints certify that front
    /// doors, worker counts and resumes produced the same study. Nothing
    /// the analysis stage computes is covered.
    pub fn fingerprint(&self) -> u64 {
        let word = |h: u64, v: u64| fnv1a_seeded(h, &v.to_le_bytes());
        let mut h = FNV_OFFSET;
        h = word(h, self.cleaning.sessions as u64);
        h = word(h, self.cleaning.segments_kept as u64);
        h = word(h, self.segments.len() as u64);
        for row in self.funnel() {
            for v in [
                u64::from(row.taxi),
                row.segments_total as u64,
                row.any_crossing as u64,
                row.filtered_cleaned as u64,
                row.transitions_total as u64,
                row.within_center as u64,
                row.post_filtered as u64,
            ] {
                h = word(h, v);
            }
        }
        for t in &self.transitions {
            h = fnv1a_seeded(h, t.pair.as_bytes());
            h = word(h, t.points.len() as u64);
            h = word(h, t.dist_km.to_bits());
            h = word(h, t.time_h.to_bits());
            for p in &t.points {
                h = word(h, p.speed_kmh.to_bits());
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
        assert_eq!(fnv1a_seeded(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
