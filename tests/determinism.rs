//! Reproducibility: every study is a pure function of its seed — rerunning
//! the whole pipeline yields byte-identical intermediate and final results,
//! and different seeds genuinely differ. `StudyConfig::quick(7)` is pinned
//! twice: its study fingerprint, and a hash of its Eq. 3 mixed-model fit,
//! which the fingerprint does not cover.

use std::sync::OnceLock;

use taxi_traces::core::{
    fnv1a_seeded, mixed_model, Study, StudyConfig, StudyOutput, Table4, FNV_OFFSET,
};

fn word(h: u64, v: u64) -> u64 {
    fnv1a_seeded(h, &v.to_le_bytes())
}

fn fingerprint(cfg: StudyConfig) -> (usize, usize, usize, u64) {
    let out = Study::new(cfg).run().expect("study runs");
    // Hash the Table 4 values into a stable fingerprint.
    let t4 = Table4::compute(&out);
    let mut h = FNV_OFFSET;
    for r in &t4.rows {
        for v in [r.summary.min, r.summary.mean, r.summary.max] {
            h = word(h, v.to_bits());
        }
    }
    (
        out.segments.len(),
        out.transitions.len(),
        out.total_transition_points(),
        h,
    )
}

fn quick7() -> &'static StudyOutput {
    static OUT: OnceLock<StudyOutput> = OnceLock::new();
    OUT.get_or_init(|| Study::new(StudyConfig::quick(7)).run().expect("study runs"))
}

#[test]
fn quick_study_fingerprint_is_pinned() {
    assert_eq!(quick7().fingerprint(), 0xBD6F_96E2_E886_8E65, "quick(7) study fingerprint");
}

/// The analysis stage, pinned bit for bit: σ²ₑ, σ²ᵤ, λ and every cell's
/// n, BLUP and prediction standard error of the Eq. 3 fit.
#[test]
fn quick_study_mixed_model_is_pinned() {
    let fit = mixed_model(quick7()).expect("Eq. 3 fits");
    let mut h = FNV_OFFSET;
    for v in [fit.sigma2_e, fit.sigma2_u, fit.lambda] {
        h = word(h, v.to_bits());
    }
    for c in &fit.cells {
        h = word(h, c.n as u64);
        h = word(h, c.blup.to_bits());
        h = word(h, c.se.to_bits());
    }
    assert_eq!(fit.cells.len(), 97, "Eq. 3 cells");
    assert_eq!(h, 0x139F_D92E_55E4_C536, "Eq. 3 fit hash");
}

#[test]
fn same_seed_same_study() {
    let a = fingerprint(StudyConfig::quick(1234));
    let b = fingerprint(StudyConfig::quick(1234));
    assert_eq!(a, b);
}

#[test]
fn different_seed_different_study() {
    let a = fingerprint(StudyConfig::quick(1234));
    let b = fingerprint(StudyConfig::quick(4321));
    assert_ne!(a, b);
}

#[test]
fn scale_only_changes_volume_not_map() {
    let small = Study::new(StudyConfig::scaled(9, 0.02)).run().expect("study runs");
    let large = Study::new(StudyConfig::scaled(9, 0.05)).run().expect("study runs");
    // The city is identical (same seed)…
    assert_eq!(small.city.graph.num_nodes(), large.city.graph.num_nodes());
    assert_eq!(small.city.graph.num_edges(), large.city.graph.num_edges());
    assert_eq!(
        small.city.objects.all().len(),
        large.city.objects.all().len()
    );
    // …but the data volume scales.
    assert!(large.cleaning.raw_points > small.cleaning.raw_points);
}
