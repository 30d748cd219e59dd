use std::collections::HashMap;
use std::fmt;

use taxitrace_traces::{RawTrip, TripId};

/// Store errors.
#[derive(Debug)]
pub enum StoreError {
    /// A session with this trip id is already stored.
    DuplicateTrip(TripId),
    /// I/O failure during persistence.
    Io(std::io::Error),
    /// The file is not a trip-store file or has an unsupported version.
    BadFormat(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateTrip(id) => write!(f, "duplicate trip id {id}"),
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadFormat(m) => write!(f, "bad store file: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// In-memory trip database: the sessions in insertion order plus a
/// trip-id lookup, the only access paths the pipeline and the server use.
///
/// Sessions are immutable once inserted (the device uploads whole engine-on
/// sessions), which keeps the id map append-only.
#[derive(Debug, Default)]
pub struct TripStore {
    sessions: Vec<RawTrip>,
    by_id: HashMap<TripId, usize>,
}

impl TripStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one session, refusing a trip id that is already stored.
    pub fn insert(&mut self, session: RawTrip) -> Result<(), StoreError> {
        if self.by_id.contains_key(&session.id) {
            return Err(StoreError::DuplicateTrip(session.id));
        }
        self.by_id.insert(session.id, self.sessions.len());
        self.sessions.push(session);
        Ok(())
    }

    /// Bulk insert.
    pub fn insert_all(
        &mut self,
        sessions: impl IntoIterator<Item = RawTrip>,
    ) -> Result<(), StoreError> {
        for s in sessions {
            self.insert(s)?;
        }
        Ok(())
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the store holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Session by trip id.
    pub fn get(&self, id: TripId) -> Option<&RawTrip> {
        self.by_id.get(&id).map(|&i| &self.sessions[i])
    }

    /// All sessions in insertion order.
    pub fn sessions(&self) -> &[RawTrip] {
        &self.sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_timebase::{Duration, Timestamp};
    use taxitrace_traces::TaxiId;

    fn session(trip: u64, taxi: u16) -> RawTrip {
        RawTrip {
            id: TripId(trip),
            taxi: TaxiId(taxi),
            start_time: Timestamp::from_secs(0),
            end_time: Timestamp::from_secs(10),
            points: Vec::new(),
            total_time: Duration::from_secs(10),
            total_distance_m: 100.0,
            total_fuel_ml: 50.0,
            truth_trips: Vec::new(),
        }
    }

    fn filled() -> TripStore {
        let mut s = TripStore::new();
        s.insert_all([session(1, 1), session(2, 1), session(3, 2)]).unwrap();
        s
    }

    #[test]
    fn insert_and_get() {
        let s = filled();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(TripId(2)).unwrap().taxi, TaxiId(1));
        assert!(s.get(TripId(9)).is_none());
        let ids: Vec<u64> = s.sessions().iter().map(|t| t.id.0).collect();
        assert_eq!(ids, [1, 2, 3], "insertion order");
    }

    #[test]
    fn duplicate_rejected() {
        let mut s = filled();
        assert!(matches!(
            s.insert(session(1, 1)),
            Err(StoreError::DuplicateTrip(TripId(1)))
        ));
        assert_eq!(s.len(), 3);
    }
}
