use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use taxitrace_geo::{CellId, Grid, Point};
use taxitrace_stats::Summary;
use taxitrace_traces::TraceColumns;

use crate::experiment::StudyOutput;

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

impl StudyOutput {
    /// The §V 200 m grid analysis on this study's transitions: per-cell
    /// average speeds joined with per-cell feature counts, optionally for
    /// one direction pair only (Fig. 6 shows L-T). Part of the unified
    /// query surface — `QueryRequest::GridStats` routes here.
    pub fn grid_stats(&self, pair: Option<&str>) -> GridStats {
        let grid = Grid::new(Point::new(0.0, 0.0), self.config.grid_size_m);
        let mut sums: BTreeMap<CellId, (usize, f64)> = BTreeMap::new();
        for t in &self.transitions {
            if let Some(p) = pair {
                if t.pair != p {
                    continue;
                }
            }
            // Bin from struct-of-arrays columns: the loop touches only the
            // coordinate and speed columns, not the full route-point structs.
            let cols = TraceColumns::from_points(&t.points);
            for i in 0..cols.len() {
                let cell = grid.cell_of(Point::new(cols.x[i], cols.y[i]));
                let e = sums.entry(cell).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += cols.speed_kmh[i];
            }
        }

        let area = self.city.graph.bbox();
        let features = self.city.objects.counts_per_cell(&grid, &area);
        let mut cells = BTreeMap::new();
        for (cell, (n, sum)) in sums {
            let f = features.get(&cell).copied().unwrap_or([0, 0, 0]);
            cells.insert(
                cell,
                CellStat {
                    n,
                    mean_speed: sum / n as f64,
                    traffic_lights: f[0],
                    bus_stops: f[1],
                    pedestrian_crossings: f[2],
                },
            );
        }
        let feature_totals = [
            self.city.objects.count_of_kind(taxitrace_roadnet::MapObjectKind::TrafficLight),
            self.city.objects.count_of_kind(taxitrace_roadnet::MapObjectKind::BusStop),
            self.city
                .objects
                .count_of_kind(taxitrace_roadnet::MapObjectKind::PedestrianCrossing),
        ];
        GridStats { grid, cells, feature_totals }
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
}
