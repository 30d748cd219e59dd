//! Property tests of the trip-store codec, plus committed damage fixtures.
//!
//! The properties: an *arbitrary* session population — empty trips,
//! extreme-but-finite coordinates, hostile strings — survives
//! encode → decode bit-identically through the v3 container, writing the
//! same population twice produces the same bytes, and a file read through
//! its buffered walk returns exactly what the walk over its whole image
//! returns. Sessions
//! carrying non-finite floats are rejected at encode time with a typed
//! error instead of poisoning a file.
//!
//! The vendored proptest shim has no `Arbitrary` derive, so each case
//! draws one seed and expands it through a deterministic generator that
//! deliberately mixes in representable extremes (`f64::MAX`, `-0.0`, the
//! smallest subnormal) the wire format must carry losslessly.
//!
//! The fixtures: two committed damaged containers (a torn tail, a flipped
//! payload bit) whose salvage outcome is pinned to exact record counts and
//! damage kinds. Regenerate deliberately with
//! `BLESS_FIXTURES=1 cargo test -p taxitrace-store --test codec_props`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use taxitrace_geo::{GeoPoint, Point};
use taxitrace_roadnet::{ElementId, NodeId};
use taxitrace_store::codec::{load, load_bytes, record_spans, salvage_bytes, save_sessions_tagged};
use taxitrace_store::{DamageKind, LoadOptions, StoreError};
use taxitrace_timebase::{Duration, Timestamp};
use taxitrace_traces::{CustomerTripTruth, PointTruth, RawTrip, RoutePoint, TaxiId, TripId};

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttrs-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // sync(FILE_SEQ): scratch-file uniqueness needs only RMW atomicity.
    dir.join(format!("{tag}-{}.tts", FILE_SEQ.fetch_add(1, Ordering::Relaxed)))
}

/// splitmix64 — one seed expands into a whole session population.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Finite floats, biased toward the representable extremes the wire
    /// format must carry bit-exactly.
    fn finite(&mut self) -> f64 {
        match self.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MAX,
            3 => f64::MIN,
            4 => f64::MIN_POSITIVE,
            5 => 5e-324, // smallest subnormal
            _ => (self.next() as f64 / u64::MAX as f64 - 0.5) * 2.0e12,
        }
    }
}

fn gen_point(rng: &mut Mix, trip_id: TripId, taxi: TaxiId, seq: u32) -> RoutePoint {
    RoutePoint {
        point_id: rng.next(),
        trip_id,
        taxi,
        geo: GeoPoint::new(rng.finite(), rng.finite()),
        pos: Point::new(rng.finite(), rng.finite()),
        timestamp: Timestamp::from_secs(rng.below(2_000_000_000) as i64 - 1_000_000_000),
        speed_kmh: rng.finite(),
        heading_deg: rng.finite(),
        fuel_ml: rng.finite(),
        truth: PointTruth {
            seq,
            element: if rng.below(2) == 0 { None } else { Some(ElementId(rng.next())) },
        },
    }
}

fn gen_truth(rng: &mut Mix) -> CustomerTripTruth {
    let start_seq = rng.below(10_000) as u32;
    CustomerTripTruth {
        start_seq,
        end_seq: start_seq + rng.below(1000) as u32,
        origin: NodeId(rng.next() as u32),
        destination: NodeId(rng.next() as u32),
        elements: (0..rng.below(5)).map(|_| ElementId(rng.next())).collect(),
        od_pair: if rng.below(2) == 0 {
            None
        } else {
            Some((format!("Z{}", rng.below(100)), format!("area {}", rng.below(100))))
        },
    }
}

fn gen_session(rng: &mut Mix, id: u64) -> RawTrip {
    let trip_id = TripId(id);
    let taxi = TaxiId(u16::from(rng.next() as u8));
    let start = rng.below(2_000_000_000) as i64 - 1_000_000_000;
    let dur = rng.below(10_000_000) as i64;
    // Empty trips are legal on the wire; generate them often.
    let n_points = rng.below(10) as u32;
    RawTrip {
        id: trip_id,
        taxi,
        start_time: Timestamp::from_secs(start),
        end_time: Timestamp::from_secs(start + dur),
        points: (0..n_points).map(|seq| gen_point(rng, trip_id, taxi, seq)).collect(),
        total_time: Duration::from_secs(dur),
        total_distance_m: rng.finite(),
        total_fuel_ml: rng.finite(),
        truth_trips: (0..rng.below(3)).map(|_| gen_truth(rng)).collect(),
    }
}

/// Up to four sessions with distinct ids (the trip store rejects
/// duplicates); zero sessions is a legal, interesting population.
fn gen_sessions(seed: u64) -> Vec<RawTrip> {
    let mut rng = Mix(seed);
    let base = rng.next();
    let count = rng.below(4);
    (0..count).map(|i| gen_session(&mut rng, base.wrapping_add(i))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn v3_files_round_trip_bit_identically(seed in 0u64..u64::MAX, fp in 0u64..u64::MAX) {
        let sessions = gen_sessions(seed);
        let path = scratch_file("v3");
        save_sessions_tagged(&path, &sessions, fp).expect("save v3");
        let loaded = load(&path, &LoadOptions::strict()).expect("strict load").sessions;
        prop_assert_eq!(&loaded, &sessions);

        // Salvage agrees with the strict reader on healthy data.
        let salvage = load(&path, &LoadOptions::salvage()).expect("salvage");
        prop_assert!(salvage.report.is_clean());
        prop_assert_eq!(salvage.report.version, 3);
        prop_assert_eq!(salvage.report.fingerprint, fp);
        prop_assert_eq!(salvage.report.records_valid, sessions.len() as u64);
        prop_assert_eq!(&salvage.sessions, &sessions);

        // Bit identity: re-encoding the decoded population reproduces the
        // file byte for byte.
        let again = scratch_file("v3-again");
        save_sessions_tagged(&again, &loaded, fp).expect("re-save");
        prop_assert_eq!(
            std::fs::read(&path).expect("read a"),
            std::fs::read(&again).expect("read b")
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&again);
    }

    #[test]
    fn streamed_load_equals_image_load(seed in 0u64..u64::MAX, fp in 0u64..u64::MAX) {
        let sessions = gen_sessions(seed);
        let path = scratch_file("v3-stream");
        save_sessions_tagged(&path, &sessions, fp).expect("save v3");
        let raw = std::fs::read(&path).expect("read");

        // The file walked through its read buffer agrees with the same
        // walk over the whole image, and a clean file verifies its index.
        let streamed = load(&path, &LoadOptions::strict()).expect("streamed load");
        let image = load_bytes(&raw, &LoadOptions::strict()).expect("image load");
        prop_assert!(streamed.indexed, "a clean v3 file must verify its index");
        prop_assert_eq!(streamed.indexed, image.indexed);
        prop_assert_eq!(&streamed.report, &image.report);
        prop_assert_eq!(&streamed.sessions, &image.sessions);
        prop_assert_eq!(&streamed.sessions, &sessions);
        prop_assert!(salvage_bytes(&raw).expect("slice read").report.is_clean());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_floats_never_reach_disk(seed in 0u64..u64::MAX, pick in 0u64..9) {
        let mut session = gen_session(&mut Mix(seed), 7);
        let bad = match pick % 3 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        match pick / 3 {
            0 => session.total_distance_m = bad,
            1 => session.total_fuel_ml = bad,
            _ => {
                if let Some(p) = session.points.first_mut() {
                    p.speed_kmh = bad;
                } else {
                    session.total_distance_m = bad;
                }
            }
        }
        let path = scratch_file("poison");
        let err = save_sessions_tagged(&path, &[session], 0).expect_err("must reject");
        prop_assert!(matches!(err, StoreError::BadFormat(_)), "got {:?}", err);
        // The atomic writer must not leave the target or its temp sibling.
        prop_assert!(!path.exists());
        prop_assert!(!path.with_extension("tmp").exists());
    }
}

// ------------------------------------------------------- damage fixtures

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The deterministic three-session population behind both fixtures.
fn fixture_sessions() -> Vec<RawTrip> {
    (0..3u64)
        .map(|i| {
            let points = (0..4u64)
                .map(|j| RoutePoint {
                    point_id: i * 10 + j,
                    trip_id: TripId(i),
                    taxi: TaxiId(i as u16 + 1),
                    geo: GeoPoint::new(25.4 + j as f64 * 0.001, 65.0),
                    pos: Point::new(j as f64 * 50.0, i as f64 * 25.0),
                    timestamp: Timestamp::from_secs(1_349_000_000 + (i * 600 + j * 30) as i64),
                    speed_kmh: 30.0 + j as f64,
                    heading_deg: 90.0,
                    fuel_ml: 40.0 * j as f64,
                    truth: PointTruth { seq: j as u32, element: None },
                })
                .collect();
            RawTrip {
                id: TripId(i),
                taxi: TaxiId(i as u16 + 1),
                start_time: Timestamp::from_secs(1_349_000_000 + (i * 600) as i64),
                end_time: Timestamp::from_secs(1_349_000_000 + (i * 600 + 90) as i64),
                points,
                total_time: Duration::from_secs(90),
                total_distance_m: 1500.0,
                total_fuel_ml: 120.0,
                truth_trips: Vec::new(),
            }
        })
        .collect()
}

/// Builds the clean container plus its two damaged variants. Pure function
/// of [`fixture_sessions`], so blessing is reproducible.
fn fixture_bytes() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let path = scratch_file("fixture-base");
    save_sessions_tagged(&path, &fixture_sessions(), 0xF1C5).expect("save fixture");
    let clean = std::fs::read(&path).expect("read fixture");
    let _ = std::fs::remove_file(&path);

    // Torn tail: the final record's last 5 bytes never hit the disk.
    let torn = clean[..clean.len() - 5].to_vec();

    // Bit flip: one payload bit of the middle record.
    let spans = record_spans(&clean).expect("spans");
    let mut flipped = clean.clone();
    flipped[spans[1].payload_start + 10] ^= 0x20;
    (clean, torn, flipped)
}

#[test]
fn damage_fixtures_salvage_exactly() {
    let dir = fixture_dir();
    let torn_path = dir.join("torn_tail_v3.tts");
    let flip_path = dir.join("bit_flip_v3.tts");
    if std::env::var_os("BLESS_FIXTURES").is_some() {
        let (_, torn, flipped) = fixture_bytes();
        std::fs::create_dir_all(&dir).expect("fixture dir");
        std::fs::write(&torn_path, torn).expect("write torn fixture");
        std::fs::write(&flip_path, flipped).expect("write flip fixture");
        return;
    }
    let torn = std::fs::read(&torn_path)
        .expect("fixture missing — run once with BLESS_FIXTURES=1 to create it");
    let flipped = std::fs::read(&flip_path).expect("bit-flip fixture");

    // Committed bytes match the deterministic generator (drift alarm).
    let (_, gen_torn, gen_flipped) = fixture_bytes();
    assert_eq!(torn, gen_torn, "torn fixture drifted from its generator");
    assert_eq!(flipped, gen_flipped, "flip fixture drifted from its generator");

    // Torn tail: the first two records survive, the lost one is reported
    // as exactly one torn-tail damage entry.
    let salvage = salvage_bytes(&torn).expect("slice read");
    assert_eq!(salvage.sessions.len(), 2);
    assert_eq!(salvage.report.records_valid, 2);
    assert_eq!(salvage.report.records_declared, 3);
    assert_eq!(salvage.report.damage.len(), 1);
    assert_eq!(salvage.report.damage[0].kind, DamageKind::TornTail);
    assert_eq!(salvage.report.damage[0].index, 2);
    assert_eq!(&salvage.sessions[..], &fixture_sessions()[..2]);

    // Bit flip: record 1 fails its CRC, records 0 and 2 survive intact.
    let salvage = salvage_bytes(&flipped).expect("slice read");
    assert_eq!(salvage.sessions.len(), 2);
    assert_eq!(salvage.report.records_valid, 2);
    assert_eq!(salvage.report.damage.len(), 1);
    assert_eq!(salvage.report.damage[0].kind, DamageKind::CorruptRecord);
    assert_eq!(salvage.report.damage[0].index, 1);
    let expected: Vec<RawTrip> = fixture_sessions().into_iter().step_by(2).collect();
    assert_eq!(salvage.sessions, expected);

    // The strict reader reports both damages as typed errors.
    let dir = std::env::temp_dir().join(format!("ttrs-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("dir");
    let p = dir.join("torn.tts");
    std::fs::write(&p, &torn).expect("write");
    let err = load(&p, &LoadOptions::strict()).expect_err("torn must fail strict load");
    assert!(err.to_string().contains("torn_tail"), "{err}");
    std::fs::write(&p, &flipped).expect("write");
    let err = load(&p, &LoadOptions::strict()).expect_err("flip must fail strict load");
    assert!(err.to_string().contains("corrupt_record"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
