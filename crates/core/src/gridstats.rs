use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};
use taxitrace_geo::{CellId, Grid, Point};
use taxitrace_roadnet::MapObjectKind;
use taxitrace_stats::Summary;

use crate::experiment::StudyOutput;
use crate::transitions::TransitionRecord;

/// Per-cell aggregate of point speeds and map features.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CellStat {
    /// Number of measured point speeds in the cell.
    pub n: usize,
    /// Mean point speed, km/h.
    pub mean_speed: f64,
    pub traffic_lights: usize,
    pub bus_stops: usize,
    pub pedestrian_crossings: usize,
}

/// The §V 200 m grid analysis: per-cell average speeds joined with per-cell
/// feature counts (Fig. 6's underlying data).
#[derive(Debug, Clone)]
pub struct GridStats {
    pub grid: Grid,
    /// Cells with at least one measurement, sorted by id.
    pub cells: BTreeMap<CellId, CellStat>,
    /// Study-area feature totals {lights, stops, ped. crossings}
    /// (the paper's Fig. 6 caption reports {67, 48, 293}).
    pub feature_totals: [usize; 3],
}

/// The grid analysis for all pairs and for every direction pair, built by
/// [`StudyOutput::grid_index`] in one binning pass. It holds every grid
/// answer a study can give, so answering from it never bins a point.
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// Equal to `grid_stats(None)`.
    pub all: GridStats,
    /// Equal to `grid_stats(Some(pair))`, for each pair with transitions.
    pub by_pair: BTreeMap<String, GridStats>,
}

impl StudyOutput {
    /// The §V 200 m grid analysis on this study's transitions: per-cell
    /// average speeds joined with per-cell feature counts, optionally for
    /// one direction pair only (Fig. 6 shows L-T).
    pub fn grid_stats(&self, pair: Option<&str>) -> GridStats {
        let features = Features::of(self);
        let chosen = self.transitions.iter().filter(|t| pair.is_none_or(|p| t.pair == p));
        let (sums, _) = bin(&features.grid, chosen, false);
        features.join(sums)
    }

    /// [`grid_stats`](Self::grid_stats) for all pairs and for each pair at
    /// once, from one pass over the transitions and one feature join. The
    /// unified query surface answers `CellSpeed` and `GridStats` from it.
    pub fn grid_index(&self) -> GridIndex {
        let features = Features::of(self);
        let (all, by_pair) = bin(&features.grid, self.transitions.iter(), true);
        GridIndex {
            all: features.join(all),
            by_pair: by_pair
                .into_iter()
                .map(|(pair, sums)| (pair.to_string(), features.join(sums)))
                .collect(),
        }
    }
}

/// Per-cell `(points, speed sum)`.
type Sums = BTreeMap<CellId, (usize, f64)>;

/// The one binning pass. Each point's speed is added to its cell's sums
/// for all pairs and, with `per_pair`, to its pair's sums. Either way each
/// cell's sum is taken in transition and point order, so a mean is
/// bit-identical however it was built.
fn bin<'a>(
    grid: &Grid,
    transitions: impl Iterator<Item = &'a TransitionRecord>,
    per_pair: bool,
) -> (Sums, BTreeMap<&'a str, Sums>) {
    let mut all = Sums::new();
    let mut by_pair: BTreeMap<&str, Sums> = BTreeMap::new();
    for t in transitions {
        let mut pair_sums = per_pair.then(|| by_pair.entry(&t.pair).or_default());
        for p in &t.points {
            let cell = grid.cell_of(p.pos);
            for sums in std::iter::once(&mut all).chain(pair_sums.as_deref_mut()) {
                let e = sums.entry(cell).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += p.speed_kmh;
            }
        }
    }
    (all, by_pair)
}

/// The map side of every grid analysis of one study: its grid, the
/// per-cell feature counts in the study area and the feature totals.
struct Features {
    grid: Grid,
    per_cell: HashMap<CellId, [usize; 3]>,
    totals: [usize; 3],
}

impl Features {
    fn of(output: &StudyOutput) -> Self {
        let grid = Grid::new(Point::new(0.0, 0.0), output.config.grid_size_m);
        let objects = &output.city.objects;
        Self {
            grid,
            per_cell: objects.counts_per_cell(&grid, &output.city.graph.bbox()),
            totals: [
                objects.count_of_kind(MapObjectKind::TrafficLight),
                objects.count_of_kind(MapObjectKind::BusStop),
                objects.count_of_kind(MapObjectKind::PedestrianCrossing),
            ],
        }
    }

    /// Joins binned speed sums with the per-cell feature counts.
    fn join(&self, sums: Sums) -> GridStats {
        let cells = sums
            .into_iter()
            .map(|(cell, (n, sum))| {
                let f = self.per_cell.get(&cell).copied().unwrap_or([0, 0, 0]);
                let stat = CellStat {
                    n,
                    mean_speed: sum / n as f64,
                    traffic_lights: f[0],
                    bus_stops: f[1],
                    pedestrian_crossings: f[2],
                };
                (cell, stat)
            })
            .collect();
        GridStats { grid: self.grid, cells, feature_totals: self.totals }
    }
}

/// One class column of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Table5Class {
    pub label: &'static str,
    pub cells: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub var: f64,
}

/// Table 5: the effect of traffic lights and bus stops on cell average
/// speed, in the paper's four cell classes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table5 {
    pub classes: Vec<Table5Class>,
}

impl GridStats {
    /// Computes Table 5 from the per-cell statistics.
    pub fn table5(&self) -> Table5 {
        let class = |label: &'static str, pred: &dyn Fn(&CellStat) -> bool| {
            let speeds: Vec<f64> = self
                .cells
                .values()
                .filter(|c| pred(c))
                .map(|c| c.mean_speed)
                .collect();
            let s = Summary::of(&speeds);
            Table5Class {
                label,
                cells: speeds.len(),
                min: s.map_or(f64::NAN, |s| s.min),
                max: s.map_or(f64::NAN, |s| s.max),
                mean: s.map_or(f64::NAN, |s| s.mean),
                var: s.map_or(f64::NAN, |s| s.var),
            }
        };
        Table5 {
            classes: vec![
                class("lights = 0", &|c| c.traffic_lights == 0),
                class("lights = 0 & stops = 0", &|c| {
                    c.traffic_lights == 0 && c.bus_stops == 0
                }),
                class("lights > 0 & stops > 0", &|c| {
                    c.traffic_lights > 0 && c.bus_stops > 0
                }),
                class("lights > 0", &|c| c.traffic_lights > 0),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Study, StudyConfig};

    fn stats() -> GridStats {
        crate::experiment::test_output().grid_stats(None)
    }

    #[test]
    fn cells_cover_study_area() {
        let g = stats();
        assert!(g.cells.len() > 20, "cells {}", g.cells.len());
        assert_eq!(g.feature_totals, [67, 48, 293]);
        for c in g.cells.values() {
            assert!(c.n > 0);
            assert!((0.0..=120.0).contains(&c.mean_speed));
        }
    }

    #[test]
    fn table5_shape_matches_paper() {
        let g = stats();
        let t5 = g.table5();
        assert_eq!(t5.classes.len(), 4);
        let no_lights = &t5.classes[0];
        let with_lights = &t5.classes[3];
        assert!(no_lights.cells > 0 && with_lights.cells > 0);
        // Paper's Table 5 shape: cells with lights are slower on average
        // and much less variable.
        assert!(
            with_lights.mean < no_lights.mean,
            "lights {} vs none {}",
            with_lights.mean,
            no_lights.mean
        );
        assert!(
            with_lights.var < no_lights.var,
            "var lights {} vs none {}",
            with_lights.var,
            no_lights.var
        );
    }

    #[test]
    fn pair_filter_restricts_points() {
        let out = crate::experiment::test_output();
        let all = out.grid_stats(None);
        let pair = out.pairs().first().cloned();
        if let Some(p) = pair {
            let only = out.grid_stats(Some(&p));
            let n_all: usize = all.cells.values().map(|c| c.n).sum();
            let n_only: usize = only.cells.values().map(|c| c.n).sum();
            assert!(n_only <= n_all);
            assert!(n_only > 0);
        }
    }

    /// Asserts two analyses are equal bit for bit: same cells, counts,
    /// feature joins, totals and the exact bits of every mean.
    fn assert_bit_identical(got: &GridStats, want: &GridStats, what: &str) {
        assert_eq!(got.grid, want.grid, "{what}: grid");
        assert_eq!(got.feature_totals, want.feature_totals, "{what}: totals");
        let keys: Vec<_> = got.cells.keys().collect();
        assert_eq!(keys, want.cells.keys().collect::<Vec<_>>(), "{what}: cells");
        for ((cell, g), w) in got.cells.iter().zip(want.cells.values()) {
            assert_eq!(g.mean_speed.to_bits(), w.mean_speed.to_bits(), "{what}: {cell:?} mean");
            assert_eq!(g, w, "{what}: {cell:?}");
        }
    }

    #[test]
    fn grid_index_equals_grid_stats_bit_for_bit() {
        let out = Study::new(StudyConfig::quick(7)).run().expect("study");
        let index = out.grid_index();
        assert_bit_identical(&index.all, &out.grid_stats(None), "all pairs");
        let pairs = out.pairs();
        assert!(!pairs.is_empty());
        assert_eq!(index.by_pair.keys().cloned().collect::<Vec<_>>(), pairs);
        for (pair, stats) in &index.by_pair {
            assert_bit_identical(stats, &out.grid_stats(Some(pair)), pair);
        }
        // An unknown pair answers like `grid_stats`: no cells, the totals.
        let unknown = crate::answer(&out, &index, &crate::QueryRequest::GridStats {
            pair: Some("NOPE".into()),
        })
        .expect("grid answers never fail");
        let nope = out.grid_stats(Some("NOPE"));
        assert!(nope.cells.is_empty());
        assert_eq!(
            unknown,
            crate::QueryResponse::GridStats { cells: Vec::new(), feature_totals: nope.feature_totals }
        );
    }
}
