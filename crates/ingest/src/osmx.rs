//! OSMX: a compact OSM-flavoured map exchange text format.
//!
//! OpenStreetMap's data model — shared *nodes* referenced by tagged
//! *ways* — adapted to the pipeline's planar frame, one record per line:
//!
//! ```text
//! OSMX 1
//! origin 25.4651 65.0121
//! bounds -1150 -1150 1150 1150
//! node 0 -1150 -575
//! way 121000 class=3 speed=40 flow=B nodes=0,1,2
//! obj TL 121000 12.5 -1100.25 -575
//! route T outer=14 inner=3 ways=121402,121403 axis=-1150:0;-900:0
//! signal 17
//! ```
//!
//! Unlike the trusted Digiroad interchange (which aborts on the first bad
//! record), OSMX parsing is lenient per record: a bad node, a way naming
//! a node that does not exist, an object on an unknown way each produce
//! one typed [`RecordIssue`] and are skipped. Only global invariants are
//! fatal — an unreadable header, a missing `origin`, or a surviving way
//! set that cannot form a road graph.
//!
//! Coordinates are written with exact-float formatting, and `route`/
//! `signal` records carry explicit graph node ids rather than re-derived
//! nearest-node lookups, so export → ingest rebuilds a bit-identical
//! city when the file is undamaged. (On a damaged file, quarantined ways
//! shift the rebuilt graph's node numbering; route/signal ids are still
//! range-checked, and the error budget bounds how much damage a run will
//! accept.)

use std::collections::{BTreeSet, HashMap, HashSet};

use taxitrace_geo::{BBox, GeoPoint, LocalProjection, Point, Polyline};
use taxitrace_roadnet::synth::{NamedRoad, SyntheticCity};
use taxitrace_roadnet::{
    ElementId, FlowDirection, FunctionalClass, MapObject, MapObjectKind, MapObjects, NodeId,
    RoadGraph, TrafficElement,
};

use crate::error::{IngestError, IngestReason, RecordIssue};
use crate::sanitize::{frame_lines, line_str, parse_f64, parse_u64, snippet, FieldFault};

const HEADER: &str = "OSMX 1";
/// Planar coordinate bound, metres (matches the trace schema).
const MAX_PLANAR_M: f64 = 1.0e7;
/// Speed-limit bound, km/h.
const MAX_SPEED_KMH: f64 = 1.0e4;

/// Result of parsing a map file: the rebuilt city, the issue ledger, and
/// the number of record candidates (the budget denominator).
#[derive(Debug)]
pub struct MapParse {
    pub city: SyntheticCity,
    /// One entry per rejected record, in line order.
    pub issues: Vec<RecordIssue>,
    /// Total record candidates: non-empty, non-comment lines after the
    /// header.
    pub records_total: usize,
}

fn issue(line: u64, reason: IngestReason, detail: impl Into<String>) -> RecordIssue {
    RecordIssue::new(line, reason, detail)
}

fn fault_reason(fault: FieldFault) -> IngestReason {
    match fault {
        FieldFault::BadSyntax => IngestReason::MalformedLine,
        FieldFault::OutOfDomain => IngestReason::NumericRange,
    }
}

/// A lexed `key=value` token.
fn tagged<'a>(token: &'a str, key: &str) -> Option<&'a str> {
    token.strip_prefix(key)?.strip_prefix('=')
}

/// Records held until the full scan finishes, so forward references
/// (an `obj` before its `way`, a `route` before the graph exists) resolve.
#[derive(Debug)]
struct PendingObj {
    line: u64,
    kind: MapObjectKind,
    element: u64,
    offset_m: f64,
    at: Point,
}

#[derive(Debug)]
struct PendingRoute {
    line: u64,
    name: String,
    outer: u64,
    inner: u64,
    ways: Vec<u64>,
    axis: Vec<Point>,
}

#[derive(Debug)]
struct PendingWay {
    line: u64,
    id: u64,
    class: FunctionalClass,
    speed: f64,
    flow: FlowDirection,
    nodes: Vec<u64>,
}

/// Parses arbitrary bytes as an OSMX map. Per-record damage degrades
/// into [`RecordIssue`]s; fatal errors are limited to a bad header, a
/// missing `origin`, or a way set that cannot form a graph.
pub fn parse_osmx(bytes: &[u8]) -> Result<MapParse, IngestError> {
    let lines = frame_lines(bytes);
    let mut it = lines.into_iter();
    let header = loop {
        match it.next() {
            None => return Err(IngestError::BadHeader("<empty>".into())),
            Some((_, [])) => continue,
            Some((_, raw)) => {
                break line_str(raw).map(str::trim).unwrap_or("<binary>").to_string()
            }
        }
    };
    if header != HEADER {
        return Err(IngestError::BadHeader(snippet(&header)));
    }

    let mut issues: Vec<RecordIssue> = Vec::new();
    let mut records_total = 0usize;
    let mut origin: Option<GeoPoint> = None;
    let mut bounds = BBox::EMPTY;
    let mut nodes: HashMap<u64, Point> = HashMap::new();
    let mut ways: Vec<PendingWay> = Vec::new();
    let mut way_ids: HashSet<u64> = HashSet::new();
    let mut objs: Vec<PendingObj> = Vec::new();
    let mut routes: Vec<PendingRoute> = Vec::new();
    let mut signals: Vec<(u64, u64)> = Vec::new();

    for (no, raw) in it {
        if raw.is_empty() {
            continue;
        }
        let Some(text) = line_str(raw) else {
            records_total += 1;
            issues.push(issue(no, IngestReason::MalformedLine, "invalid utf-8"));
            continue;
        };
        let text = text.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        records_total += 1;
        if text.len() > 1 << 20 {
            issues.push(issue(
                no,
                IngestReason::MalformedLine,
                format!("record oversized ({} bytes)", text.len()),
            ));
            continue;
        }
        let mut tokens = text.split_whitespace();
        // A non-empty trimmed line always has a first token.
        let tag = tokens.next().unwrap_or("");
        let rest: Vec<&str> = tokens.collect();
        let result = match tag {
            "origin" => parse_origin(no, &rest).map(|g| origin = Some(g)),
            "bounds" => parse_bounds(no, &rest).map(|b| bounds = b),
            "node" => parse_node(no, &rest, &mut nodes),
            "way" => parse_way(no, &rest, &mut way_ids).map(|w| ways.push(w)),
            "obj" => parse_obj(no, &rest).map(|o| objs.push(o)),
            "route" => parse_route(no, &rest).map(|r| routes.push(r)),
            "signal" => parse_u64(rest.first().copied().unwrap_or(""), u64::from(u32::MAX))
                .map(|id| signals.push((no, id)))
                .map_err(|f| issue(no, fault_reason(f), "bad signal node id")),
            other => Err(issue(
                no,
                IngestReason::MalformedLine,
                format!("unknown record tag {:?}", snippet(other)),
            )),
        };
        if let Err(i) = result {
            issues.push(i);
        }
    }

    let origin = origin.ok_or_else(|| IngestError::BadHeader("missing origin record".into()))?;
    let projection = LocalProjection::new(origin);

    // Resolve ways against the node table.
    let mut elements: Vec<TrafficElement> = Vec::new();
    for w in ways {
        match resolve_way(&w, &nodes) {
            Ok(e) => elements.push(e),
            Err(i) => issues.push(i),
        }
    }
    if elements.is_empty() {
        return Err(IngestError::Empty("no valid way records".into()));
    }
    let element_ids: HashSet<u64> = elements.iter().map(|e| e.id.0).collect();
    let graph = RoadGraph::build(&elements, projection)?;
    let num_nodes = graph.num_nodes() as u64;

    let mut objects: Vec<MapObject> = Vec::new();
    for o in objs {
        if !element_ids.contains(&o.element) {
            issues.push(issue(
                o.line,
                IngestReason::DanglingRef,
                format!("obj references unknown way {}", o.element),
            ));
            continue;
        }
        objects.push(MapObject {
            kind: o.kind,
            location: o.at,
            element: ElementId(o.element),
            offset_m: o.offset_m,
        });
    }

    let mut od_roads: Vec<NamedRoad> = Vec::new();
    for r in routes {
        if let Some(&missing) = r.ways.iter().find(|w| !element_ids.contains(w)) {
            issues.push(issue(
                r.line,
                IngestReason::DanglingRef,
                format!("route {:?} references unknown way {missing}", snippet(&r.name)),
            ));
            continue;
        }
        if r.outer >= num_nodes || r.inner >= num_nodes {
            issues.push(issue(
                r.line,
                IngestReason::DanglingRef,
                format!("route {:?} endpoint node out of range", snippet(&r.name)),
            ));
            continue;
        }
        let Ok(axis) = Polyline::new(r.axis) else {
            issues.push(issue(
                r.line,
                IngestReason::MalformedLine,
                format!("route {:?} axis is not a polyline", snippet(&r.name)),
            ));
            continue;
        };
        od_roads.push(NamedRoad {
            name: r.name,
            axis,
            elements: r.ways.into_iter().map(ElementId).collect(),
            outer_node: NodeId(r.outer as u32),
            inner_node: NodeId(r.inner as u32),
        });
    }

    let mut signalized: HashSet<NodeId> = HashSet::new();
    for (line, id) in signals {
        if id >= num_nodes {
            issues.push(issue(
                line,
                IngestReason::DanglingRef,
                format!("signal node {id} out of range (graph has {num_nodes} nodes)"),
            ));
            continue;
        }
        signalized.insert(NodeId(id as u32));
    }

    issues.sort_by_key(|i| i.record);
    let city = SyntheticCity {
        graph,
        objects: MapObjects::new(objects),
        od_roads,
        center_area: bounds,
        signalized,
        elements,
    };
    Ok(MapParse { city, issues, records_total })
}

fn parse_origin(no: u64, rest: &[&str]) -> Result<GeoPoint, RecordIssue> {
    if rest.len() != 2 {
        return Err(issue(no, IngestReason::MalformedLine, "origin needs <lon> <lat>"));
    }
    let lon = parse_f64(rest[0], 180.0)
        .map_err(|f| issue(no, fault_reason(f), "bad origin lon"))?;
    let lat = parse_f64(rest[1], 90.0)
        .map_err(|f| issue(no, fault_reason(f), "bad origin lat"))?;
    Ok(GeoPoint { lon, lat })
}

fn parse_bounds(no: u64, rest: &[&str]) -> Result<BBox, RecordIssue> {
    if rest.len() != 4 {
        return Err(issue(no, IngestReason::MalformedLine, "bounds needs four numbers"));
    }
    let mut v = [0.0f64; 4];
    for (i, s) in rest.iter().enumerate() {
        v[i] = parse_f64(s, MAX_PLANAR_M)
            .map_err(|f| issue(no, fault_reason(f), format!("bad bounds value {}", i + 1)))?;
    }
    Ok(BBox::from_corners(Point { x: v[0], y: v[1] }, Point { x: v[2], y: v[3] }))
}

fn parse_node(
    no: u64,
    rest: &[&str],
    nodes: &mut HashMap<u64, Point>,
) -> Result<(), RecordIssue> {
    if rest.len() != 3 {
        return Err(issue(no, IngestReason::MalformedLine, "node needs <id> <x> <y>"));
    }
    let id = parse_u64(rest[0], u64::MAX)
        .map_err(|f| issue(no, fault_reason(f), "bad node id"))?;
    let x = parse_f64(rest[1], MAX_PLANAR_M)
        .map_err(|f| issue(no, fault_reason(f), "bad node x"))?;
    let y = parse_f64(rest[2], MAX_PLANAR_M)
        .map_err(|f| issue(no, fault_reason(f), "bad node y"))?;
    if nodes.contains_key(&id) {
        return Err(issue(
            no,
            IngestReason::SchemaMismatch,
            format!("duplicate node id {id}"),
        ));
    }
    nodes.insert(id, Point { x, y });
    Ok(())
}

fn parse_way(
    no: u64,
    rest: &[&str],
    way_ids: &mut HashSet<u64>,
) -> Result<PendingWay, RecordIssue> {
    if rest.len() != 5 {
        return Err(issue(
            no,
            IngestReason::MalformedLine,
            "way needs <id> class= speed= flow= nodes=",
        ));
    }
    let id = parse_u64(rest[0], u64::MAX)
        .map_err(|f| issue(no, fault_reason(f), "bad way id"))?;
    let class = match tagged(rest[1], "class") {
        Some("1") => FunctionalClass::Arterial,
        Some("2") => FunctionalClass::Collector,
        Some("3") => FunctionalClass::Local,
        _ => return Err(issue(no, IngestReason::MalformedLine, "bad way class")),
    };
    let speed = tagged(rest[2], "speed")
        .ok_or_else(|| issue(no, IngestReason::MalformedLine, "missing way speed"))
        .and_then(|s| {
            parse_f64(s, MAX_SPEED_KMH).map_err(|f| issue(no, fault_reason(f), "bad way speed"))
        })?;
    let flow = match tagged(rest[3], "flow") {
        Some("B") => FlowDirection::Both,
        Some("F") => FlowDirection::WithDigitization,
        Some("A") => FlowDirection::AgainstDigitization,
        _ => return Err(issue(no, IngestReason::MalformedLine, "bad way flow")),
    };
    let refs = tagged(rest[4], "nodes")
        .ok_or_else(|| issue(no, IngestReason::MalformedLine, "missing way nodes"))?;
    let nodes: Vec<u64> = refs
        .split(',')
        .map(|s| parse_u64(s, u64::MAX))
        .collect::<Result<_, _>>()
        .map_err(|f| issue(no, fault_reason(f), "bad way node ref"))?;
    if nodes.len() < 2 {
        return Err(issue(no, IngestReason::MalformedLine, "way needs at least two nodes"));
    }
    if !way_ids.insert(id) {
        return Err(issue(
            no,
            IngestReason::SchemaMismatch,
            format!("duplicate way id {id}"),
        ));
    }
    Ok(PendingWay { line: no, id, class, speed, flow, nodes })
}

fn resolve_way(w: &PendingWay, nodes: &HashMap<u64, Point>) -> Result<TrafficElement, RecordIssue> {
    let mut pts = Vec::with_capacity(w.nodes.len());
    for r in &w.nodes {
        match nodes.get(r) {
            Some(&p) => pts.push(p),
            None => {
                return Err(issue(
                    w.line,
                    IngestReason::DanglingRef,
                    format!("way {} references unknown node {r}", w.id),
                ))
            }
        }
    }
    let geometry = Polyline::new(pts).map_err(|e| {
        issue(w.line, IngestReason::MalformedLine, format!("way {} geometry: {e:?}", w.id))
    })?;
    Ok(TrafficElement {
        id: ElementId(w.id),
        geometry,
        class: w.class,
        speed_limit_kmh: w.speed,
        flow: w.flow,
    })
}

fn parse_obj(no: u64, rest: &[&str]) -> Result<PendingObj, RecordIssue> {
    if rest.len() != 5 {
        return Err(issue(
            no,
            IngestReason::MalformedLine,
            "obj needs <kind> <way> <offset> <x> <y>",
        ));
    }
    let kind = match rest[0] {
        "TL" => MapObjectKind::TrafficLight,
        "BS" => MapObjectKind::BusStop,
        "PC" => MapObjectKind::PedestrianCrossing,
        other => {
            return Err(issue(
                no,
                IngestReason::MalformedLine,
                format!("unknown obj kind {:?}", snippet(other)),
            ))
        }
    };
    let element = parse_u64(rest[1], u64::MAX)
        .map_err(|f| issue(no, fault_reason(f), "bad obj way id"))?;
    let offset_m = parse_f64(rest[2], MAX_PLANAR_M)
        .map_err(|f| issue(no, fault_reason(f), "bad obj offset"))?;
    let x = parse_f64(rest[3], MAX_PLANAR_M)
        .map_err(|f| issue(no, fault_reason(f), "bad obj x"))?;
    let y = parse_f64(rest[4], MAX_PLANAR_M)
        .map_err(|f| issue(no, fault_reason(f), "bad obj y"))?;
    Ok(PendingObj { line: no, kind, element, offset_m, at: Point { x, y } })
}

fn parse_route(no: u64, rest: &[&str]) -> Result<PendingRoute, RecordIssue> {
    if rest.len() != 5 {
        return Err(issue(
            no,
            IngestReason::MalformedLine,
            "route needs <name> outer= inner= ways= axis=",
        ));
    }
    let name = rest[0].to_string();
    let outer = tagged(rest[1], "outer")
        .ok_or_else(|| issue(no, IngestReason::MalformedLine, "missing route outer"))
        .and_then(|s| {
            parse_u64(s, u64::from(u32::MAX))
                .map_err(|f| issue(no, fault_reason(f), "bad route outer node"))
        })?;
    let inner = tagged(rest[2], "inner")
        .ok_or_else(|| issue(no, IngestReason::MalformedLine, "missing route inner"))
        .and_then(|s| {
            parse_u64(s, u64::from(u32::MAX))
                .map_err(|f| issue(no, fault_reason(f), "bad route inner node"))
        })?;
    let ways: Vec<u64> = tagged(rest[3], "ways")
        .ok_or_else(|| issue(no, IngestReason::MalformedLine, "missing route ways"))?
        .split(',')
        .map(|s| parse_u64(s, u64::MAX))
        .collect::<Result<_, _>>()
        .map_err(|f| issue(no, fault_reason(f), "bad route way id"))?;
    let axis: Vec<Point> = tagged(rest[4], "axis")
        .ok_or_else(|| issue(no, IngestReason::MalformedLine, "missing route axis"))?
        .split(';')
        .map(|pair| {
            let (xs, ys) = pair
                .split_once(':')
                .ok_or_else(|| issue(no, IngestReason::MalformedLine, "bad axis pair"))?;
            let x = parse_f64(xs, MAX_PLANAR_M)
                .map_err(|f| issue(no, fault_reason(f), "bad axis x"))?;
            let y = parse_f64(ys, MAX_PLANAR_M)
                .map_err(|f| issue(no, fault_reason(f), "bad axis y"))?;
            Ok(Point { x, y })
        })
        .collect::<Result<_, RecordIssue>>()?;
    Ok(PendingRoute { line: no, name, outer, inner, ways, axis })
}

/// Exports a city to OSMX with exact-float coordinates. Shared element
/// vertices (junction endpoints) become shared nodes, keyed by exact bit
/// pattern; `route`/`signal` records carry explicit graph node ids so a
/// re-import needs no nearest-node re-derivation.
pub fn export_osmx(city: &SyntheticCity) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    let o = city.graph.projection().origin();
    let _ = writeln!(out, "origin {} {}", o.lon, o.lat);
    let c = city.center_area;
    if c.min_x.is_finite() {
        let _ = writeln!(out, "bounds {} {} {} {}", c.min_x, c.min_y, c.max_x, c.max_y);
    }
    // Assign node ids in first-encounter order over element vertices,
    // deduplicated by exact coordinate bits.
    let mut node_of: HashMap<(u64, u64), u64> = HashMap::new();
    for e in &city.elements {
        for p in e.geometry.vertices() {
            let key = (p.x.to_bits(), p.y.to_bits());
            let next = node_of.len() as u64;
            let id = *node_of.entry(key).or_insert(next);
            if id == next {
                let _ = writeln!(out, "node {next} {} {}", p.x, p.y);
            }
        }
    }
    for e in &city.elements {
        let refs: Vec<String> = e
            .geometry
            .vertices()
            .iter()
            .map(|p| node_of[&(p.x.to_bits(), p.y.to_bits())].to_string())
            .collect();
        let flow = match e.flow {
            FlowDirection::Both => "B",
            FlowDirection::WithDigitization => "F",
            FlowDirection::AgainstDigitization => "A",
        };
        let _ = writeln!(
            out,
            "way {} class={} speed={} flow={} nodes={}",
            e.id.0,
            e.class.level(),
            e.speed_limit_kmh,
            flow,
            refs.join(",")
        );
    }
    for obj in city.objects.all() {
        let kind = match obj.kind {
            MapObjectKind::TrafficLight => "TL",
            MapObjectKind::BusStop => "BS",
            MapObjectKind::PedestrianCrossing => "PC",
        };
        let _ = writeln!(
            out,
            "obj {kind} {} {} {} {}",
            obj.element.0, obj.offset_m, obj.location.x, obj.location.y
        );
    }
    for r in &city.od_roads {
        let ways: Vec<String> = r.elements.iter().map(|e| e.0.to_string()).collect();
        let axis: Vec<String> =
            r.axis.vertices().iter().map(|p| format!("{}:{}", p.x, p.y)).collect();
        // Names are single tokens in this format; whitespace would break
        // the framing, so it is folded to underscores on export.
        let name: String =
            r.name.chars().map(|ch| if ch.is_whitespace() { '_' } else { ch }).collect();
        let _ = writeln!(
            out,
            "route {name} outer={} inner={} ways={} axis={}",
            r.outer_node.0,
            r.inner_node.0,
            ways.join(","),
            axis.join(";")
        );
    }
    // lint:allow(determinism): collected straight into a BTreeSet, which sorts the ids
    let ordered: BTreeSet<u32> = city.signalized.iter().map(|n| n.0).collect();
    for n in ordered {
        let _ = writeln!(out, "signal {n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_roadnet::synth::{generate, OuluConfig};

    #[test]
    fn full_city_round_trip_is_bit_exact() {
        let city = generate(&OuluConfig::default());
        let text = export_osmx(&city);
        assert!(text.starts_with("OSMX 1\n"));
        let parsed = parse_osmx(text.as_bytes()).expect("valid map ingests");
        assert!(parsed.issues.is_empty(), "{:?}", &parsed.issues[..parsed.issues.len().min(5)]);
        let back = parsed.city;

        assert_eq!(back.elements, city.elements, "elements bit-identical");
        assert_eq!(back.graph.num_nodes(), city.graph.num_nodes());
        assert_eq!(back.graph.num_edges(), city.graph.num_edges());
        assert_eq!(back.objects.all(), city.objects.all());
        assert_eq!(back.signalized, city.signalized);
        assert_eq!(back.od_roads.len(), city.od_roads.len());
        for (a, b) in city.od_roads.iter().zip(&back.od_roads) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.elements, b.elements);
            assert_eq!(a.outer_node, b.outer_node);
            assert_eq!(a.inner_node, b.inner_node);
            assert_eq!(a.axis.vertices(), b.axis.vertices());
        }
        assert_eq!(back.center_area, city.center_area);
        // Export is deterministic, and export → ingest → export is a
        // fixed point.
        assert_eq!(export_osmx(&back), text, "re-export is byte-identical");
    }

    #[test]
    fn header_and_origin_are_fatal() {
        assert!(matches!(parse_osmx(b""), Err(IngestError::BadHeader(_))));
        assert!(matches!(parse_osmx(b"OSMX 2\n"), Err(IngestError::BadHeader(_))));
        assert!(matches!(parse_osmx(b"\xFF\xFE\n"), Err(IngestError::BadHeader(_))));
        let no_origin = "OSMX 1\nnode 0 0 0\nnode 1 9 9\nway 5 class=3 speed=40 flow=B nodes=0,1\n";
        assert!(matches!(parse_osmx(no_origin.as_bytes()), Err(IngestError::BadHeader(_))));
    }

    #[test]
    fn damaged_records_quarantine_and_the_rest_survive() {
        let text = "OSMX 1\norigin 25.4651 65.0121\n\
            node 0 0 0\nnode 1 100 0\nnode 2 100 100\n\
            node 2 7 7\n\
            node bad 1 2\n\
            way 10 class=3 speed=40 flow=B nodes=0,1\n\
            way 11 class=2 speed=50 flow=B nodes=1,2\n\
            way 12 class=3 speed=40 flow=B nodes=1,99\n\
            way 13 class=9 speed=40 flow=B nodes=0,2\n\
            obj TL 10 5.0 50 0\n\
            obj TL 999 5.0 50 0\n\
            signal 0\nsignal 4000\n";
        let parsed = parse_osmx(text.as_bytes()).expect("graph still forms");
        let city = parsed.city;
        assert_eq!(city.elements.len(), 2, "ways 10 and 11 survive");
        assert_eq!(city.objects.all().len(), 1);
        assert_eq!(city.signalized.len(), 1);
        let mut by_reason: std::collections::BTreeMap<IngestReason, usize> =
            Default::default();
        for i in &parsed.issues {
            *by_reason.entry(i.reason).or_default() += 1;
        }
        assert_eq!(by_reason.get(&IngestReason::SchemaMismatch), Some(&1), "dup node");
        assert_eq!(by_reason.get(&IngestReason::MalformedLine), Some(&2), "bad id + class");
        assert_eq!(
            by_reason.get(&IngestReason::DanglingRef),
            Some(&3),
            "way→node, obj→way, signal range"
        );
        assert_eq!(parsed.records_total, 14);
    }

    #[test]
    fn no_valid_ways_is_fatal_empty() {
        let text = "OSMX 1\norigin 25 65\nnode 0 0 0\n";
        assert!(matches!(parse_osmx(text.as_bytes()), Err(IngestError::Empty(_))));
    }

    #[test]
    fn comments_and_blank_lines_are_not_records() {
        let city = generate(&OuluConfig::default());
        let mut text = export_osmx(&city);
        text.insert_str("OSMX 1\n".len(), "# comment\n\n");
        let parsed = parse_osmx(text.as_bytes()).expect("still valid");
        assert!(parsed.issues.is_empty());
    }
}
