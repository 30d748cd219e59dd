use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use taxitrace_geo::{BBox, CellId, Grid, Point};

use crate::ElementId;

/// Kind of a transportation-system point object (Digiroad's "objects of the
/// transportation system, like bus stops and traffic lights").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MapObjectKind {
    TrafficLight,
    BusStop,
    PedestrianCrossing,
}

impl MapObjectKind {
    /// All object kinds.
    pub const ALL: [MapObjectKind; 3] = [
        MapObjectKind::TrafficLight,
        MapObjectKind::BusStop,
        MapObjectKind::PedestrianCrossing,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            MapObjectKind::TrafficLight => "traffic light",
            MapObjectKind::BusStop => "bus stop",
            MapObjectKind::PedestrianCrossing => "pedestrian crossing",
        }
    }
}

/// A point object attached to a traffic element.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapObject {
    pub kind: MapObjectKind,
    /// Location in the planar frame.
    pub location: Point,
    /// The traffic element the object belongs to.
    pub element: ElementId,
    /// Arc-length offset along the element's digitisation direction, metres.
    pub offset_m: f64,
}

/// The attribute layer of the digital map: all point objects, with per-kind
/// and per-element indexes for the paper's §IV-F attribute fetching and the
/// grid feature counts of Table 5 / Fig. 6.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MapObjects {
    objects: Vec<MapObject>,
    by_element: HashMap<ElementId, Vec<usize>>,
}

impl MapObjects {
    /// Builds the layer from a list of objects.
    pub fn new(objects: Vec<MapObject>) -> Self {
        let mut by_element: HashMap<ElementId, Vec<usize>> = HashMap::new();
        for (i, o) in objects.iter().enumerate() {
            by_element.entry(o.element).or_default().push(i);
        }
        Self { objects, by_element }
    }

    /// All objects.
    #[inline]
    pub fn all(&self) -> &[MapObject] {
        &self.objects
    }

    /// Number of objects of a given kind.
    pub fn count_of_kind(&self, kind: MapObjectKind) -> usize {
        self.objects.iter().filter(|o| o.kind == kind).count()
    }

    /// Objects attached to a traffic element.
    pub fn on_element(&self, e: ElementId) -> impl Iterator<Item = &MapObject> + '_ {
        self.by_element
            .get(&e)
            .into_iter()
            .flatten()
            .map(move |&i| &self.objects[i])
    }

    /// Counts objects of `kind` along a sequence of traversed elements
    /// (the §IV-F "number of … traffic lights for transitions" fetch).
    /// Elements traversed twice are counted twice, matching the paper's
    /// per-route totals.
    pub fn count_along(&self, elements: &[ElementId], kind: MapObjectKind) -> usize {
        elements
            .iter()
            .map(|e| self.on_element(*e).filter(|o| o.kind == kind).count())
            .sum()
    }

    /// Counts objects of each kind per grid cell within `area`
    /// (the per-cell feature statistics behind Table 5 and Fig. 6).
    pub fn counts_per_cell(
        &self,
        grid: &Grid,
        area: &BBox,
    ) -> HashMap<CellId, [usize; 3]> {
        let mut out: HashMap<CellId, [usize; 3]> = HashMap::new();
        for o in &self.objects {
            if !area.contains(o.location) {
                continue;
            }
            let cell = grid.cell_of(o.location);
            let slot = match o.kind {
                MapObjectKind::TrafficLight => 0,
                MapObjectKind::BusStop => 1,
                MapObjectKind::PedestrianCrossing => 2,
            };
            out.entry(cell).or_default()[slot] += 1;
        }
        out
    }

    /// Objects within `radius` metres of `p`.
    pub fn near(&self, p: Point, radius: f64) -> impl Iterator<Item = &MapObject> + '_ {
        let r2 = radius * radius;
        self.objects.iter().filter(move |o| o.location.distance_sq(p) <= r2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(kind: MapObjectKind, x: f64, y: f64, element: u64) -> MapObject {
        MapObject {
            kind,
            location: Point::new(x, y),
            element: ElementId(element),
            offset_m: 0.0,
        }
    }

    fn layer() -> MapObjects {
        MapObjects::new(vec![
            obj(MapObjectKind::TrafficLight, 10.0, 10.0, 1),
            obj(MapObjectKind::TrafficLight, 250.0, 10.0, 2),
            obj(MapObjectKind::BusStop, 50.0, 50.0, 1),
            obj(MapObjectKind::PedestrianCrossing, 90.0, 10.0, 1),
            obj(MapObjectKind::PedestrianCrossing, 300.0, 300.0, 3),
        ])
    }

    #[test]
    fn kind_counts() {
        let l = layer();
        assert_eq!(l.count_of_kind(MapObjectKind::TrafficLight), 2);
        assert_eq!(l.count_of_kind(MapObjectKind::BusStop), 1);
        assert_eq!(l.count_of_kind(MapObjectKind::PedestrianCrossing), 2);
    }

    #[test]
    fn count_along_route() {
        let l = layer();
        let route = vec![ElementId(1), ElementId(2)];
        assert_eq!(l.count_along(&route, MapObjectKind::TrafficLight), 2);
        assert_eq!(l.count_along(&route, MapObjectKind::PedestrianCrossing), 1);
        // Revisited element counts twice.
        let loop_route = vec![ElementId(1), ElementId(2), ElementId(1)];
        assert_eq!(l.count_along(&loop_route, MapObjectKind::TrafficLight), 3);
    }

    #[test]
    fn per_cell_counts() {
        let l = layer();
        let grid = Grid::new(Point::new(0.0, 0.0), 200.0);
        let area = BBox::from_corners(Point::new(0.0, 0.0), Point::new(400.0, 400.0));
        let counts = l.counts_per_cell(&grid, &area);
        // Cell (0,0): light + stop + crossing.
        assert_eq!(counts[&CellId { ix: 0, iy: 0 }], [1, 1, 1]);
        // Cell (1,0): the second light.
        assert_eq!(counts[&CellId { ix: 1, iy: 0 }], [1, 0, 0]);
        assert_eq!(counts[&CellId { ix: 1, iy: 1 }], [0, 0, 1]);
    }

    #[test]
    fn area_filter_excludes_outside() {
        let l = layer();
        let grid = Grid::new(Point::new(0.0, 0.0), 200.0);
        let area = BBox::from_corners(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let counts = l.counts_per_cell(&grid, &area);
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn near_query() {
        let l = layer();
        let hits: Vec<_> = l.near(Point::new(0.0, 0.0), 60.0).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].kind, MapObjectKind::TrafficLight);
    }
}
