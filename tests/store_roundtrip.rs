//! Persistence integration: a simulated year survives a save/load cycle
//! bit-for-bit, and the cleaning pipeline produces identical results on the
//! reloaded store.

use taxi_traces::cleaning::{clean_session, CleaningConfig};
use taxi_traces::core::{fnv1a, Study, StudyConfig};
use taxi_traces::roadnet::synth::{generate, OuluConfig};
use taxi_traces::store::{codec, LoadOptions, TripStore};
use taxi_traces::traces::{simulate_fleet, FleetConfig};
use taxi_traces::weather::WeatherModel;

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("taxitrace_integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn save_load_preserves_everything() {
    let city = generate(&OuluConfig::default());
    let weather = WeatherModel::new(42);
    let data = simulate_fleet(&city, &weather, &FleetConfig::tiny(77));
    let mut store = TripStore::new();
    store.insert_all(data.sessions.clone()).expect("insert");

    let path = tmp_path("roundtrip_full.tts");
    codec::save_sessions(&path, store.sessions()).expect("save");
    let out = codec::load(&path, &LoadOptions::strict()).expect("load");
    std::fs::remove_file(&path).ok();
    assert!(out.indexed, "a clean store loads through the offset index");
    let mut loaded = TripStore::new();
    loaded.insert_all(out.sessions).expect("reinsert");

    assert_eq!(loaded.len(), store.len());
    // Sessions compare equal including ground truth.
    for s in store.sessions() {
        let l = loaded.get(s.id).expect("session survives");
        assert_eq!(l, s);
    }

    // Cleaning on original == cleaning on reloaded.
    let config = CleaningConfig::default();
    for (a, b) in store.sessions().iter().zip(loaded.sessions()) {
        let ca = clean_session(a, &config);
        let cb = clean_session(b, &config);
        assert_eq!(ca.segments.len(), cb.segments.len());
        assert_eq!(ca.stats.rule_fires_total(), cb.stats.rule_fires_total());
    }
}

/// Stage 1 hands over every simulated session at its exact size. A point
/// buffer grown by doubling holds up to twice its points' memory for the
/// rest of the run.
#[test]
fn simulated_sessions_are_exact_size() {
    let sim = Study::new(StudyConfig::quick(7)).simulate().expect("simulate");
    assert!(!sim.store.sessions().is_empty());
    for s in sim.store.sessions() {
        assert_eq!(s.points.capacity(), s.points.len(), "session {:?}", s.id);
    }
}

/// The store image `StudyConfig::quick(7)` saves, pinned byte for byte:
/// every raw point and ground-truth leg the simulator produced, and the v3
/// layout around them (header, offset index, CRC framing). The study
/// fingerprint does not cover the stored sessions, so this pin is what
/// fails when the simulator or the store writer changes one output bit.
#[test]
fn quick_study_store_image_is_pinned() {
    let sim = Study::new(StudyConfig::quick(7)).simulate().expect("simulate");
    let path = tmp_path("quick7_pinned.tts");
    sim.save_store(&path).expect("save store");
    let image = std::fs::read(&path).expect("read store");
    std::fs::remove_file(&path).ok();
    assert_eq!(image.len(), 3_034_768, "store image length");
    assert_eq!(fnv1a(&image), 0xFC52_8C4A_C241_C94A, "store image FNV-1a hash");
}

/// The `simulate.ttck` checkpoint `StudyConfig::quick(7)` writes, pinned
/// byte for byte: the section layout (names, lengths, CRCs) and the
/// sessions payload. Resume decodes this image, so a checkpoint-writer
/// change must leave it unchanged.
#[test]
fn quick_study_checkpoint_image_is_pinned() {
    let dir = tmp_path("quick7_checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    Study::new(StudyConfig::quick(7)).run_with_checkpoints(&dir).expect("checkpointed run");
    let image = std::fs::read(dir.join("simulate.ttck")).expect("read checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(image.len(), 3_017_369, "checkpoint image length");
    assert_eq!(fnv1a(&image), 0x2B72_BBF2_CF22_778E, "checkpoint image FNV-1a hash");
}

trait RuleFires {
    fn rule_fires_total(&self) -> usize;
}

impl RuleFires for taxi_traces::cleaning::CleaningStats {
    fn rule_fires_total(&self) -> usize {
        self.segmentation.rule_fires.iter().sum()
    }
}
