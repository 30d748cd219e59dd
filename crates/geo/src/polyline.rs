use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{BBox, Point, Segment};

/// Error constructing a [`Polyline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolylineError {
    /// Fewer than two vertices were supplied.
    TooFewVertices(usize),
    /// A vertex contained a non-finite coordinate.
    NonFiniteVertex(usize),
}

impl fmt::Display for PolylineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolylineError::TooFewVertices(n) => {
                write!(f, "polyline needs at least 2 vertices, got {n}")
            }
            PolylineError::NonFiniteVertex(i) => {
                write!(f, "polyline vertex {i} has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for PolylineError {}

/// Result of projecting a point onto a polyline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// Index of the segment the closest point lies on.
    pub segment: usize,
    /// Parameter within that segment, `[0, 1]`.
    pub t: f64,
    /// The closest point itself.
    pub point: Point,
    /// Distance from the query point to `point`, metres.
    pub distance: f64,
    /// Arc-length position of `point` from the start of the polyline, metres.
    pub offset: f64,
}

/// A polyline (road centre-line geometry) in the planar frame.
///
/// Cumulative segment lengths are precomputed so projection, interpolation
/// and length queries are cheap — these run in the inner loops of
/// map-matching and attribute fetching.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    vertices: Vec<Point>,
    /// `cum[i]` = arc length from the start to vertex `i`; `cum[0] == 0`.
    cum: Vec<f64>,
}

impl Polyline {
    /// Builds a polyline from at least two finite vertices.
    pub fn new(vertices: Vec<Point>) -> Result<Self, PolylineError> {
        if vertices.len() < 2 {
            return Err(PolylineError::TooFewVertices(vertices.len()));
        }
        for (i, v) in vertices.iter().enumerate() {
            if !v.x.is_finite() || !v.y.is_finite() {
                return Err(PolylineError::NonFiniteVertex(i));
            }
        }
        let mut cum = Vec::with_capacity(vertices.len());
        cum.push(0.0);
        for w in vertices.windows(2) {
            // lint:allow(panic-free-library): `cum` starts with a pushed 0.0
            let last = *cum.last().expect("cum starts non-empty");
            cum.push(last + w[0].distance(w[1]));
        }
        Ok(Self { vertices, cum })
    }

    /// The vertices of the polyline.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Total arc length, metres.
    #[inline]
    pub fn length(&self) -> f64 {
        // lint:allow(panic-free-library): `new` seeds `cum` with 0.0
        *self.cum.last().expect("cum non-empty")
    }

    /// First vertex.
    #[inline]
    pub fn start(&self) -> Point {
        self.vertices[0]
    }

    /// Last vertex.
    #[inline]
    pub fn end(&self) -> Point {
        // lint:allow(panic-free-library): `new` rejects < 2 vertices
        *self.vertices.last().expect("at least two vertices")
    }

    /// Number of segments (`vertices - 1`).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.vertices.len() - 1
    }

    /// The `i`-th segment.
    #[inline]
    pub fn segment(&self, i: usize) -> Segment {
        Segment::new(self.vertices[i], self.vertices[i + 1])
    }

    /// Iterator over all segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Bounding box over all vertices.
    pub fn bbox(&self) -> BBox {
        BBox::from_points(&self.vertices)
    }

    /// Point at arc-length `offset` from the start, clamped to `[0, length]`.
    pub fn point_at(&self, offset: f64) -> Point {
        let offset = offset.clamp(0.0, self.length());
        self.point_in(self.vertex_at_or_before(offset), offset)
    }

    /// Compass heading of the polyline at arc-length `offset` (heading of the
    /// segment containing that offset).
    pub fn heading_at(&self, offset: f64) -> f64 {
        let offset = offset.clamp(0.0, self.length());
        self.heading_from(self.vertex_at_or_before(offset))
    }

    /// A cursor answering [`Self::point_at`] / [`Self::heading_at`] for
    /// offsets that mostly grow, without a search per query.
    pub fn cursor(&self) -> PolylineCursor<'_> {
        PolylineCursor { line: self, vertex: 0, heading: None }
    }

    /// Index of the last vertex at or before the clamped `offset`: the
    /// segment holding it, or `num_segments()` at the far end. Repeated
    /// vertex offsets (zero-length segments) resolve to the last of them.
    fn vertex_at_or_before(&self, offset: f64) -> usize {
        self.cum
            .partition_point(|c| c.total_cmp(&offset).is_le())
            .saturating_sub(1)
    }

    /// Point at the clamped `offset`, whose last vertex at or before it is `i`.
    #[inline]
    fn point_in(&self, i: usize, offset: f64) -> Point {
        if i >= self.num_segments() {
            return self.end();
        }
        let seg_len = self.cum[i + 1] - self.cum[i];
        let t = if seg_len > 0.0 { (offset - self.cum[i]) / seg_len } else { 0.0 };
        self.segment(i).point_at(t)
    }

    /// Heading of the first non-zero-length segment from vertex `i` on, or
    /// of segment `i` itself when every later one is degenerate.
    fn heading_from(&self, i: usize) -> f64 {
        let i = i.min(self.num_segments() - 1);
        let j = (i..self.num_segments())
            .find(|&j| self.segment(j).length() != 0.0)
            .unwrap_or(i);
        self.segment(j).heading()
    }

    /// Projects `p` onto the polyline, returning the nearest location.
    pub fn project(&self, p: Point) -> Projection {
        let mut best = Projection {
            segment: 0,
            t: 0.0,
            point: self.vertices[0],
            distance: p.distance(self.vertices[0]),
            offset: 0.0,
        };
        for i in 0..self.num_segments() {
            let seg = self.segment(i);
            let t = seg.project_t(p);
            let c = seg.point_at(t);
            let d = c.distance(p);
            if d < best.distance {
                best = Projection {
                    segment: i,
                    t,
                    point: c,
                    distance: d,
                    offset: self.cum[i] + t * seg.length(),
                };
            }
        }
        best
    }

    /// Minimum distance from `p` to the polyline.
    #[inline]
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.project(p).distance
    }

    /// Resamples the polyline at roughly `step` metre spacing (endpoints
    /// always included). Useful for rasterising routes onto the analysis grid.
    pub fn resample(&self, step: f64) -> Vec<Point> {
        assert!(step > 0.0, "resample step must be positive");
        let len = self.length();
        if len == 0.0 {
            return vec![self.start(), self.end()];
        }
        let n = (len / step).ceil() as usize;
        let mut out = Vec::with_capacity(n + 1);
        for k in 0..=n {
            out.push(self.point_at(len * k as f64 / n as f64));
        }
        out
    }

    /// Concatenates `parts` in order, each reversed when its flag is set,
    /// dropping a part's first vertex where it coincides (within 1 mm) with
    /// the last vertex so far. `None` when there are no parts.
    pub fn join<'p>(parts: impl IntoIterator<Item = (&'p Polyline, bool)>) -> Option<Polyline> {
        let mut verts: Vec<Point> = Vec::new();
        for (part, reversed) in parts {
            let start = if reversed { part.end() } else { part.start() };
            let skip = usize::from(verts.last().is_some_and(|p| p.distance(start) < 1e-3));
            if reversed {
                verts.extend(part.vertices.iter().rev().skip(skip));
            } else {
                verts.extend_from_slice(&part.vertices[skip..]);
            }
        }
        Polyline::new(verts).ok()
    }

    /// The polyline with vertex order reversed.
    pub fn reversed(&self) -> Polyline {
        let mut v = self.vertices.clone();
        v.reverse();
        // lint:allow(panic-free-library): `self` already had >= 2 vertices
        Polyline::new(v).expect("reversal keeps >= 2 vertices")
    }
}

/// A cursor over a [`Polyline`] that answers [`Polyline::point_at`] and
/// [`Polyline::heading_at`] bit for bit, walking from the segment of the
/// previous query instead of searching. A run of growing offsets costs
/// O(1) amortised per query; an offset that moves back walks back. The
/// heading of the segment last resolved is kept, so a caller stepping
/// within one segment pays for its heading once.
#[derive(Debug, Clone)]
pub struct PolylineCursor<'a> {
    line: &'a Polyline,
    /// Last vertex at or before the previous query's offset.
    vertex: usize,
    /// `(vertex, heading)` of the last [`Self::heading_at`] answer.
    heading: Option<(usize, f64)>,
}

impl PolylineCursor<'_> {
    /// Same as [`Polyline::point_at`].
    #[inline]
    pub fn point_at(&mut self, offset: f64) -> Point {
        let offset = self.seek(offset);
        self.line.point_in(self.vertex, offset)
    }

    /// Same as [`Polyline::heading_at`].
    #[inline]
    pub fn heading_at(&mut self, offset: f64) -> f64 {
        self.seek(offset);
        match self.heading {
            Some((at, h)) if at == self.vertex => h,
            _ => {
                let h = self.line.heading_from(self.vertex);
                self.heading = Some((self.vertex, h));
                h
            }
        }
    }

    /// Clamps `offset` and moves to its [`Polyline::vertex_at_or_before`].
    #[inline]
    fn seek(&mut self, offset: f64) -> f64 {
        let offset = offset.clamp(0.0, self.line.length());
        let cum = &self.line.cum;
        while self.vertex + 1 < cum.len() && cum[self.vertex + 1].total_cmp(&offset).is_le() {
            self.vertex += 1;
        }
        while self.vertex > 0 && cum[self.vertex].total_cmp(&offset).is_gt() {
            self.vertex -= 1;
        }
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(v: &[(f64, f64)]) -> Polyline {
        Polyline::new(v.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(matches!(
            Polyline::new(vec![Point::new(0.0, 0.0)]),
            Err(PolylineError::TooFewVertices(1))
        ));
        assert!(matches!(
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 0.0)]),
            Err(PolylineError::NonFiniteVertex(1))
        ));
    }

    #[test]
    fn length_of_l_shape() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        assert_eq!(p.length(), 15.0);
        assert_eq!(p.num_segments(), 2);
    }

    #[test]
    fn point_at_walks_the_line() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        assert_eq!(p.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(p.point_at(5.0), Point::new(5.0, 0.0));
        assert_eq!(p.point_at(12.0), Point::new(10.0, 2.0));
        assert_eq!(p.point_at(15.0), Point::new(10.0, 5.0));
        assert_eq!(p.point_at(99.0), Point::new(10.0, 5.0)); // clamped
    }

    #[test]
    fn heading_changes_at_corner() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        assert!((p.heading_at(5.0) - 90.0).abs() < 1e-9); // east
        assert!((p.heading_at(12.0) - 0.0).abs() < 1e-9); // north
    }

    #[test]
    fn projection_on_corner_line() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        let proj = p.project(Point::new(4.0, 3.0));
        assert_eq!(proj.segment, 0);
        assert_eq!(proj.point, Point::new(4.0, 0.0));
        assert_eq!(proj.distance, 3.0);
        assert_eq!(proj.offset, 4.0);

        let proj2 = p.project(Point::new(12.0, 4.0));
        assert_eq!(proj2.segment, 1);
        assert_eq!(proj2.point, Point::new(10.0, 4.0));
        assert_eq!(proj2.offset, 14.0);
    }

    #[test]
    fn resample_endpoint_inclusive() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0)]);
        let pts = p.resample(3.0);
        assert_eq!(*pts.first().unwrap(), Point::new(0.0, 0.0));
        assert_eq!(*pts.last().unwrap(), Point::new(10.0, 0.0));
        assert!(pts.len() >= 4);
    }

    #[test]
    fn join_dedups_and_orients_parts() {
        let a = pl(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = pl(&[(10.0, 0.0), (10.0, 5.0)]);
        let j = Polyline::join([(&a, false), (&b, false)]).unwrap();
        assert_eq!(j.vertices().len(), 3);
        assert_eq!(j.length(), 15.0);
        // Reversed parts join at their far end; a gap keeps both vertices.
        let c = pl(&[(20.0, 5.0), (10.0, 5.0)]);
        let j = Polyline::join([(&a, false), (&b, false), (&c, true)]).unwrap();
        assert_eq!(j.vertices().len(), 4);
        assert_eq!(j.end(), Point::new(20.0, 5.0));
        let j = Polyline::join([(&a, false), (&c, false)]).unwrap();
        assert_eq!(j.vertices().len(), 4);
        assert!(Polyline::join([]).is_none());
    }

    #[test]
    fn reversed_preserves_length() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        let r = p.reversed();
        assert_eq!(r.length(), p.length());
        assert_eq!(r.start(), p.end());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_polyline() -> impl Strategy<Value = Polyline> {
        proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..12)
            .prop_map(|v| {
                Polyline::new(v.into_iter().map(|(x, y)| Point::new(x, y)).collect()).unwrap()
            })
    }

    proptest! {
        /// Projection distance equals the minimum over per-segment distances.
        #[test]
        fn projection_is_minimum(p in arb_polyline(), x in -2e3f64..2e3, y in -2e3f64..2e3) {
            let q = Point::new(x, y);
            let proj = p.project(q);
            let brute = p
                .segments()
                .map(|s| s.distance_to_point(q))
                .fold(f64::INFINITY, f64::min);
            prop_assert!((proj.distance - brute).abs() < 1e-9);
            prop_assert!(proj.offset >= -1e-9 && proj.offset <= p.length() + 1e-9);
        }

        /// point_at(offset) round-trips through projection offset for points
        /// on the line (for non-self-intersecting access we only check the
        /// distance is ~0).
        #[test]
        fn point_at_lies_on_line(p in arb_polyline(), f in 0f64..1.0) {
            let q = p.point_at(f * p.length());
            prop_assert!(p.distance_to_point(q) < 1e-6);
        }

        /// Resampling preserves endpoints and stays on the line.
        #[test]
        fn resample_on_line(p in arb_polyline(), step in 1f64..100.0) {
            let pts = p.resample(step);
            prop_assert_eq!(*pts.first().unwrap(), p.start());
            prop_assert!(pts.last().unwrap().distance(p.end()) < 1e-6);
            for q in pts {
                prop_assert!(p.distance_to_point(q) < 1e-6);
            }
        }

        /// `point_at`, `heading_at` and a cursor walking the same offsets
        /// (sorted, then in generated order) equal the binary-search
        /// oracle bit for bit, on vertex offsets, zero-length segments and
        /// offsets past either end.
        #[test]
        fn cursor_and_lookups_match_the_search_oracle(
            p in arb_polyline_with_repeats(),
            probes in proptest::collection::vec((0usize..4, 0f64..1.0), 1..40),
        ) {
            let mut offsets: Vec<f64> = probes.iter().map(|&(kind, u)| probe(&p, kind, u)).collect();
            let mut walks = vec![offsets.clone()];
            offsets.sort_by(f64::total_cmp);
            walks.push(offsets);
            for walk in walks {
                let mut cursor = p.cursor();
                for off in walk {
                    let want_point = point_bits(point_at_reference(&p, off));
                    let want_heading = heading_at_reference(&p, off).to_bits();
                    prop_assert_eq!(point_bits(p.point_at(off)), want_point);
                    prop_assert_eq!(p.heading_at(off).to_bits(), want_heading);
                    prop_assert_eq!(cursor.heading_at(off).to_bits(), want_heading);
                    prop_assert_eq!(point_bits(cursor.point_at(off)), want_point);
                }
            }
        }

        /// `join` builds exactly what appending the parts one at a time
        /// builds, including the 1 mm join dedup.
        #[test]
        fn join_matches_the_extend_fold(
            raw in proptest::collection::vec(
                (proptest::collection::vec((0usize..3, 0usize..3, 0usize..3), 2..5), proptest::bool::ANY),
                0..6,
            ),
        ) {
            // Grid vertices make joins coincide often; a 0.5 mm or 2 mm
            // nudge lands just inside or outside the dedup tolerance.
            let nudge = [0.0, 5e-4, 2e-3];
            let parts: Vec<(Polyline, bool)> = raw
                .into_iter()
                .map(|(v, rev)| {
                    let verts = v
                        .into_iter()
                        .map(|(x, y, n)| Point::new(x as f64 + nudge[n], y as f64))
                        .collect();
                    (Polyline::new(verts).unwrap(), rev)
                })
                .collect();
            let got = Polyline::join(parts.iter().map(|(p, rev)| (p, *rev)));
            let want = join_reference(&parts);
            prop_assert_eq!(got.as_ref().map(line_bits), want.as_ref().map(line_bits));
        }
    }

    /// Polylines whose vertices may repeat, giving zero-length segments
    /// (a fully degenerate line included).
    fn arb_polyline_with_repeats() -> impl Strategy<Value = Polyline> {
        proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3, 0usize..3), 1..10).prop_map(|v| {
            let mut verts = Vec::new();
            for (x, y, repeats) in v {
                verts.extend(std::iter::repeat_n(Point::new(x, y), repeats + 1));
            }
            if verts.len() < 2 {
                verts.push(verts[0]);
            }
            Polyline::new(verts).unwrap()
        })
    }

    /// A probe offset: a vertex offset, an interior offset, or one before
    /// the start or past the end.
    fn probe(p: &Polyline, kind: usize, u: f64) -> f64 {
        match kind {
            0 => p.cum[((u * p.cum.len() as f64) as usize).min(p.cum.len() - 1)],
            1 => u * p.length(),
            2 => -1.0 - 10.0 * u,
            _ => p.length() + 1.0 + 10.0 * u,
        }
    }

    fn point_bits(p: Point) -> (u64, u64) {
        (p.x.to_bits(), p.y.to_bits())
    }

    fn line_bits(p: &Polyline) -> (Vec<(u64, u64)>, Vec<u64>) {
        (
            p.vertices.iter().map(|&v| point_bits(v)).collect(),
            p.cum.iter().map(|c| c.to_bits()).collect(),
        )
    }

    /// Binary-search oracle for `point_at`.
    fn point_at_reference(p: &Polyline, offset: f64) -> Point {
        let offset = offset.clamp(0.0, p.length());
        let i = match p.cum.binary_search_by(|c| c.total_cmp(&offset)) {
            Ok(i) => i.min(p.num_segments()),
            Err(i) => i - 1,
        };
        if i >= p.num_segments() {
            return p.end();
        }
        let seg_len = p.cum[i + 1] - p.cum[i];
        let t = if seg_len > 0.0 { (offset - p.cum[i]) / seg_len } else { 0.0 };
        p.segment(i).point_at(t)
    }

    /// Binary-search oracle for `heading_at`, with its own zero-length
    /// segment scan.
    fn heading_at_reference(p: &Polyline, offset: f64) -> f64 {
        let offset = offset.clamp(0.0, p.length());
        let mut i = match p.cum.binary_search_by(|c| c.total_cmp(&offset)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        if i >= p.num_segments() {
            i = p.num_segments() - 1;
        }
        let mut j = i;
        while j < p.num_segments() && p.segment(j).length() == 0.0 {
            j += 1;
        }
        if j >= p.num_segments() {
            j = i.min(p.num_segments() - 1);
        }
        p.segment(j).heading()
    }

    /// Oracle for `join`: each part appended to the running line, which
    /// is rebuilt from scratch every time.
    fn join_reference(parts: &[(Polyline, bool)]) -> Option<Polyline> {
        let mut out: Option<Polyline> = None;
        for (part, rev) in parts {
            let part = if *rev { part.reversed() } else { part.clone() };
            match &mut out {
                None => out = Some(part),
                Some(line) => {
                    let mut verts = std::mem::take(&mut line.vertices);
                    let skip_first = verts.last().is_some_and(|p| p.distance(part.start()) < 1e-3);
                    let tail = if skip_first { &part.vertices[1..] } else { &part.vertices[..] };
                    verts.extend_from_slice(tail);
                    *line = Polyline::new(verts).unwrap();
                }
            }
        }
        out
    }
}
