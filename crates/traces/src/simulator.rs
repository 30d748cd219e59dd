use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use taxitrace_geo::Point;
use taxitrace_roadnet::synth::SyntheticCity;
use taxitrace_roadnet::{dijkstra, CostModel, ElementId, NodeId, RoutePath, SearchState};
use taxitrace_timebase::{study_period_start, Duration, Season, Timestamp};
use taxitrace_weather::WeatherModel;

use crate::corruption::{corrupt_session, CorruptionConfig};
use crate::driver::{season_speed_factor, DriverProfile};
use crate::fuel::FuelModel;
use crate::model::{CustomerTripTruth, PointTruth, RawTrip, RoutePoint, TaxiId, TripId};
use crate::rng::Rng;
use crate::sampler::{Sampler, SamplerConfig};

/// A crowded pedestrian area ("hotspot").
///
/// The paper attributes part of the low-speed pattern to "real movements of
/// people" in crowded areas (its region B, detected via WiFi client counts in
/// Kostakos et al.): pedestrian interference slows traffic regardless of the
/// static map features. Crowd zones model that interference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrowdZone {
    pub center: Point,
    pub radius_m: f64,
    /// Multiplier on the cruise target inside the zone.
    pub slow_factor: f64,
    /// Probability of a short pedestrian-yield stop per 100 m inside.
    pub micro_stop_per_100m: f64,
}

impl CrowdZone {
    fn contains(&self, p: Point) -> bool {
        p.distance_sq(self.center) <= self.radius_m * self.radius_m
    }
}

/// Paper Table 3 trip-segment counts per taxi, used as default activity.
pub const PAPER_SEGMENTS_PER_TAXI: [f64; 7] =
    [2409.0, 3068.0, 1790.0, 2486.0, 2429.0, 1815.0, 4080.0];

/// Fleet-simulation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetConfig {
    pub seed: u64,
    /// Target driven legs per taxi over the study year (before scaling).
    pub legs_per_taxi: Vec<f64>,
    /// Volume scale (1.0 = full paper-sized year; tests use ~0.01).
    pub scale: f64,
    /// Calendar days simulated from the study period start (the paper's
    /// 1.10.2012–30.9.2013 year is 365).
    pub days: usize,
    pub sampler: SamplerConfig,
    pub corruption: CorruptionConfig,
    pub fuel: FuelModel,
    /// GPS noise sigma per axis, metres.
    pub gps_noise_m: f64,
    /// Probability a point is a gross GPS outlier (100–400 m off).
    pub p_gps_outlier: f64,
    /// Probability a leg's destination is one of the named O-D roads.
    pub p_od_dest: f64,
    pub crowd_zones: Vec<CrowdZone>,
    /// Integration step, seconds.
    pub step_s: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            seed: 2012,
            legs_per_taxi: PAPER_SEGMENTS_PER_TAXI.to_vec(),
            scale: 1.0,
            days: 365,
            sampler: SamplerConfig::default(),
            corruption: CorruptionConfig::default(),
            fuel: FuelModel::default(),
            gps_noise_m: 4.0,
            p_gps_outlier: 0.002,
            p_od_dest: 0.30,
            crowd_zones: vec![
                // Market square / city centre: touches every through route.
                CrowdZone {
                    center: Point::new(-60.0, 60.0),
                    radius_m: 260.0,
                    slow_factor: 0.62,
                    micro_stop_per_100m: 0.30,
                },
                // The paper's "area B": a crowded zone on the east leg of
                // the T–S corridor (T-S/S-T routes pass it, T-L/L-T do
                // not) — this is what makes the Table 4 low-speed shares
                // differ while light counts stay similar.
                CrowdZone {
                    center: Point::new(560.0, -60.0),
                    radius_m: 500.0,
                    slow_factor: 0.30,
                    micro_stop_per_100m: 1.0,
                },
            ],
            step_s: 1.0,
        }
    }
}

impl FleetConfig {
    /// A small configuration for unit tests (2 taxis, ~30 legs each).
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            legs_per_taxi: vec![2500.0, 2500.0],
            scale: 0.012,
            ..Self::default()
        }
    }

    /// Checks the invariants [`simulate_fleet`] relies on: a non-empty
    /// fleet, a finite positive scale, and a fleet narrow enough that
    /// 1-based [`TaxiId`]s fit their `u16` representation.
    pub fn validate(&self) -> Result<(), String> {
        if self.legs_per_taxi.is_empty() {
            return Err("fleet must have at least one taxi".into());
        }
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(format!("scale {} must be finite and positive", self.scale));
        }
        if self.legs_per_taxi.len() > u16::MAX as usize {
            return Err(format!(
                "fleet of {} taxis exceeds the {} TaxiId can address",
                self.legs_per_taxi.len(),
                u16::MAX
            ));
        }
        Ok(())
    }
}

/// The simulated fleet's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetData {
    pub sessions: Vec<RawTrip>,
    /// Number of (taxi, day) work units the simulation was sharded into
    /// (reported as the `exec.shard_units` metric by the pipeline).
    #[serde(default)]
    pub shard_count: usize,
    /// Customer legs a route was found for, summed over shards. Unlike
    /// [`FleetData::total_legs`], this also counts legs that record no
    /// truth trip because the route was trivial or shorter than 1 m.
    #[serde(default)]
    pub routed_legs: u64,
    /// Kinematic integration steps over every driven leg.
    #[serde(default)]
    pub steps: u64,
    /// Nodes expanded by the route-choice A* searches.
    #[serde(default)]
    pub route_expanded: u64,
}

impl FleetData {
    /// Total route points across sessions.
    pub fn total_points(&self) -> usize {
        self.sessions.iter().map(|s| s.points.len()).sum()
    }

    /// Total true driven legs across sessions.
    pub fn total_legs(&self) -> usize {
        self.sessions.iter().map(|s| s.truth_trips.len()).sum()
    }
}

/// Simulates the whole fleet over the study year.
///
/// The work list is sharded *below* the taxi level into (taxi, day) units:
/// a cheap sequential planner pass derives each taxi's driver profile and
/// per-day leg allocation from the per-taxi stream
/// `Rng::new(seed).fork(taxi)`, then every day unit simulates under its own
/// counter-derived stream `Rng::new(seed).fork(taxi).fork(day)` — derived,
/// not threaded, so no unit depends on another unit's draws. With ~365
/// units per taxi instead of one long stream each, the work-stealing
/// executor stays saturated at scale 10/100 instead of bottlenecking on a
/// handful of long taxi streams. The result is deterministic in
/// `config.seed` regardless of thread count or scheduling.
pub fn simulate_fleet(
    city: &SyntheticCity,
    weather: &WeatherModel,
    config: &FleetConfig,
) -> FleetData {
    let shards = plan_shards(config);
    let elem_len: HashMap<ElementId, f64> =
        city.elements.iter().map(|e| (e.id, e.length())).collect();
    let edges = city.graph.edges();
    let ctx = FleetCtx {
        city,
        weather,
        config,
        edge_elements: edges
            .iter()
            .map(|e| e.elements.iter().map(|id| (*id, elem_len[id])).collect())
            .collect(),
        edge_costs: edges
            .iter()
            .map(|e| (CostModel::TravelTime.cost(e), e.length_m))
            .collect(),
        core_nodes: core_node_weights(city),
        od_names: city
            .od_roads
            .iter()
            .map(|r| (r.outer_node, r.name.as_str()))
            .collect(),
    };
    let (per_shard, workers) =
        taxitrace_exec::par_map_init(&shards, Worker::default, |worker, shard| {
            simulate_day(worker, &ctx, shard)
        });
    let mut sessions: Vec<RawTrip> = per_shard.into_iter().flatten().collect();
    sessions.sort_by_key(|s| (s.taxi, s.start_time));
    FleetData {
        sessions,
        shard_count: shards.len(),
        routed_legs: workers.iter().map(|w| w.routed_legs).sum(),
        steps: workers.iter().map(|w| w.steps).sum(),
        route_expanded: workers.iter().map(|w| w.search.expanded_total()).sum(),
    }
}

/// One executor worker's scratch, reused across the shards it claims:
/// the route search state, the route-choice weight buffer, and the work
/// counters [`FleetData`] sums.
#[derive(Default)]
struct Worker {
    search: SearchState,
    /// The current leg's perturbed edge weights, by edge id.
    weights: Vec<f64>,
    routed_legs: u64,
    steps: u64,
}

/// One (taxi, day) unit of fleet work, fully planned up front so the unit
/// can run on any worker in any order.
#[derive(Debug, Clone, Copy)]
struct DayShard {
    taxi_idx: usize,
    day: usize,
    /// Customer legs allocated to this day by the planner stream.
    legs: usize,
    /// The taxi's driver profile (sampled once per taxi by the planner).
    profile: DriverProfile,
}

/// Shared read-only fleet context, built once instead of per taxi.
struct FleetCtx<'a> {
    city: &'a SyntheticCity,
    weather: &'a WeatherModel,
    config: &'a FleetConfig,
    /// Each edge's traffic elements and their lengths, in edge direction,
    /// by edge id.
    edge_elements: Vec<Vec<(ElementId, f64)>>,
    /// Each edge's free-flow travel time and length, by edge id.
    edge_costs: Vec<(f64, f64)>,
    core_nodes: (Vec<NodeId>, Vec<f64>),
    od_names: Vec<(NodeId, &'a str)>,
}

/// Sequential planning pass: samples each taxi's profile and splits its
/// leg target over the study days, consuming only the per-taxi planner
/// stream (`fork(taxi)`). Day simulation never touches this stream, so
/// the plan is independent of execution order.
fn plan_shards(config: &FleetConfig) -> Vec<DayShard> {
    let days = config.days.max(1);
    // Fleets wider than TaxiId are rejected by FleetConfig::validate /
    // StudyConfig::validate before simulation; clamp defensively so a
    // hand-built config cannot alias taxi identities.
    let taxis = config.legs_per_taxi.len().min(u16::MAX as usize);
    let mut shards = Vec::new();
    for taxi_idx in 0..taxis {
        let mut planner = Rng::new(config.seed).fork(taxi_idx as u64 + 1);
        let profile = DriverProfile::sample(&mut planner);
        let target_legs =
            (config.legs_per_taxi[taxi_idx] * config.scale).round().max(1.0) as usize;
        let legs_per_day = target_legs as f64 / days as f64;
        let mut remaining = target_legs;
        for day in 0..days {
            if remaining == 0 {
                break;
            }
            let mut today = legs_per_day.floor() as usize;
            if planner.chance(legs_per_day - today as f64) {
                today += 1;
            }
            let today = today.min(remaining);
            if today == 0 {
                continue;
            }
            remaining -= today;
            shards.push(DayShard { taxi_idx, day, legs: today, profile });
        }
    }
    shards
}

/// Shared per-route lookup: which element spans which arc-offset range.
struct ElemSpan {
    id: ElementId,
    route_start: f64,
    len: f64,
    reversed: bool,
}

/// A speed-relevant event along the route.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Come to a stop and dwell for the given seconds.
    Stop { dwell_s: f64 },
    /// Pass at no more than the given speed (m/s).
    SlowTo { v_ms: f64 },
}

struct Event {
    offset: f64,
    kind: EventKind,
    done: bool,
}

/// Simulates one (taxi, day) shard under its own derived RNG stream,
/// adding its work to `worker`'s counters.
///
/// Overnight the taxi is off duty (parks, repositions, shift change), so
/// each day's shift starts from an independently drawn node instead of
/// chaining the previous day's drop-off — which is what makes day units
/// independent work items.
fn simulate_day(
    worker: &mut Worker,
    ctx: &FleetCtx<'_>,
    shard: &DayShard,
) -> Option<RawTrip> {
    let FleetCtx { city, weather, config, .. } = *ctx;
    let mut rng = Rng::new(config.seed)
        .fork(shard.taxi_idx as u64 + 1)
        .fork(shard.day as u64 + 1);
    let taxi = TaxiId(shard.taxi_idx as u16 + 1);
    let profile = shard.profile;

    let day_start = study_period_start() + Duration::from_days(shard.day as i64);
    let session_start =
        day_start + Duration::from_secs(6 * 3600 + (rng.f64() * 4.0 * 3600.0) as i64);
    let weather_day = weather.at(session_start);
    let season = Season::of_timestamp(session_start);
    let speed_env = season_speed_factor(season) * weather_day.condition.speed_factor();

    let trip_id = TripId((shard.taxi_idx as u64 + 1) * 1_000_000 + shard.day as u64);
    let mut sb = SessionBuilder::new(
        trip_id,
        taxi,
        session_start,
        *city.graph.projection(),
        Sampler::new(config.sampler),
        config.fuel,
        config.gps_noise_m,
        config.p_gps_outlier,
    );
    // The shift starts where the previous evening ended: near an arterial
    // O-D stand about as often as customers ask to be taken to one. Drawing
    // this from the day's own stream (instead of chaining the previous
    // day's drop-off) is what keeps day units independent work items.
    let mut current_node = if !city.od_roads.is_empty() && rng.chance(config.p_od_dest) {
        city.od_roads[rng.below(city.od_roads.len())].outer_node
    } else {
        NodeId(rng.below(city.graph.num_nodes()) as u32)
    };

    for _ in 0..shard.legs {
        // Customer boards.
        let boarding = rng.range(20.0, 90.0);
        sb.dwell(&mut rng, boarding, city.graph.node_point(current_node));
        // Choose a destination and route.
        let dest = sample_destination(
            &mut rng,
            city,
            &ctx.core_nodes,
            current_node,
            config.p_od_dest,
        );
        let Some(route) = choose_route(
            &mut worker.search,
            &mut worker.weights,
            ctx,
            &mut rng,
            &profile,
            current_node,
            dest,
        ) else {
            continue;
        };
        let od_pair = od_pair_of(&ctx.od_names, current_node, dest);
        worker.routed_legs += 1;
        worker.steps += drive_leg(
            &mut sb,
            &mut rng,
            ctx,
            &profile,
            &route,
            speed_env,
            od_pair,
            current_node,
            dest,
        );
        current_node = dest;
        // Customer leaves; then wait for the next fare.
        let leaving = rng.range(20.0, 60.0);
        sb.dwell(&mut rng, leaving, city.graph.node_point(current_node));
        let gap = rng.exponential(360.0).clamp(45.0, 1400.0);
        if gap > 420.0 && rng.chance(0.25) {
            // Silent relocation to a nearby taxi stand: the device
            // sleeps through a short reposition drive, producing the
            // long-gap-with-movement pattern that Table 2 rules 2 and
            // 4 exist to catch.
            let stand = nearby_node(&mut rng, city, current_node, 1500.0);
            sb.silent_gap(gap);
            current_node = stand;
        } else {
            sb.dwell(&mut rng, gap, city.graph.node_point(current_node));
        }
    }

    if sb.points.is_empty() {
        return None;
    }
    Some(sb.finish(&config.corruption, &mut rng))
}

/// Hotspot-weighted list of candidate customer nodes: demand concentrates
/// towards downtown but covers the whole region (suburban pickups pass the
/// arterials, which is what makes the paper's "filtered and cleaned" funnel
/// stage select a sizeable share of ordinary segments).
fn core_node_weights(city: &SyntheticCity) -> (Vec<NodeId>, Vec<f64>) {
    let mut nodes = Vec::new();
    let mut weights = Vec::new();
    for i in 0..city.graph.num_nodes() as u32 {
        let n = NodeId(i);
        let p = city.graph.node_point(n);
        let d = p.distance(Point::new(0.0, 0.0));
        nodes.push(n);
        weights.push(0.25 + 4.0 * (-d * d / (2.0 * 500.0 * 500.0)).exp());
    }
    (nodes, weights)
}

/// A random node within `max_dist_m` of `from` (falls back to `from`).
fn nearby_node(
    rng: &mut Rng,
    city: &SyntheticCity,
    from: NodeId,
    max_dist_m: f64,
) -> NodeId {
    let origin = city.graph.node_point(from);
    for _ in 0..24 {
        let cand = NodeId(rng.below(city.graph.num_nodes()) as u32);
        if cand != from && city.graph.node_point(cand).distance(origin) <= max_dist_m {
            return cand;
        }
    }
    from
}

fn sample_destination(
    rng: &mut Rng,
    city: &SyntheticCity,
    core_nodes: &(Vec<NodeId>, Vec<f64>),
    current: NodeId,
    p_od_dest: f64,
) -> NodeId {
    for _ in 0..16 {
        let cand = if rng.chance(p_od_dest) {
            city.od_roads[rng.below(city.od_roads.len())].outer_node
        } else {
            core_nodes.0[rng.weighted(&core_nodes.1)]
        };
        if cand != current {
            return cand;
        }
    }
    current
}

fn od_pair_of(
    od_names: &[(NodeId, &str)],
    origin: NodeId,
    dest: NodeId,
) -> Option<(String, String)> {
    let o = od_names.iter().find(|(n, _)| *n == origin)?.1;
    let d = od_names.iter().find(|(n, _)| *n == dest)?.1;
    if o == d {
        None
    } else {
        Some((o.to_string(), d.to_string()))
    }
}

/// Free route choice: per-trip log-normally perturbed travel-time costs,
/// searched goal-directed. The heuristic scale is the tightest admissible
/// one for this trip's weights: the minimum perturbed cost-per-metre over
/// all edges, so `weight(e) >= h_scale * length(e)` holds edge by edge and
/// the weighted A* returns exactly what the blind search would. One pass
/// draws every edge's noise in edge order, stores its weight in `weights`
/// and folds the scale.
fn choose_route(
    search: &mut SearchState,
    weights: &mut Vec<f64>,
    ctx: &FleetCtx<'_>,
    rng: &mut Rng,
    profile: &DriverProfile,
    from: NodeId,
    to: NodeId,
) -> Option<RoutePath> {
    weights.clear();
    let mut h_scale = f64::INFINITY;
    for &(cost, len) in &ctx.edge_costs {
        let weight = cost * (profile.route_noise * rng.normal()).exp();
        weights.push(weight);
        h_scale = h_scale.min(weight / len);
    }
    let h_scale = h_scale.max(0.0);
    let h_scale = if h_scale.is_finite() { h_scale } else { 0.0 };
    let graph = &ctx.city.graph;
    dijkstra::astar_weighted_with(search, graph, from, to, |e| weights[e.id.0 as usize], h_scale)
}

/// Drives one customer leg along `route`, feeding the session builder;
/// returns the kinematic integration steps taken.
#[allow(clippy::too_many_arguments)]
fn drive_leg(
    sb: &mut SessionBuilder,
    rng: &mut Rng,
    ctx: &FleetCtx<'_>,
    profile: &DriverProfile,
    route: &RoutePath,
    speed_env: f64,
    od_pair: Option<(String, String)>,
    origin: NodeId,
    dest: NodeId,
) -> u64 {
    let FleetCtx { city, config, .. } = *ctx;
    let Some(line) = route.polyline(&city.graph) else { return 0 };
    let total = line.length();
    if total < 1.0 {
        return 0;
    }

    // --- Element spans and speed-limit spans along the route. ---
    let mut spans: Vec<ElemSpan> = Vec::new();
    let mut limits: Vec<(f64, f64)> = Vec::new(); // (route_end_offset, limit m/s)
    {
        let (mut span_off, mut limit_off) = (0.0, 0.0);
        for (&eid, &at) in route.edges.iter().zip(&route.nodes) {
            let edge = city.graph.edge(eid);
            let reversed = edge.from != at;
            let elems = &ctx.edge_elements[eid.0 as usize];
            for k in 0..elems.len() {
                let (id, len) = elems[if reversed { elems.len() - 1 - k } else { k }];
                spans.push(ElemSpan { id, route_start: span_off, len, reversed });
                span_off += len;
            }
            limit_off += edge.length_m;
            limits.push((limit_off, edge.speed_limit_kmh / 3.6));
        }
    }

    // --- Events. ---
    let mut events: Vec<Event> = Vec::new();
    // Junction events at interior path nodes.
    {
        let mut off = 0.0;
        for (i, &eid) in route.edges.iter().enumerate() {
            let edge = city.graph.edge(eid);
            off += edge.length_m;
            if i + 1 >= route.nodes.len() - 1 {
                break;
            }
            let node = route.nodes[i + 1];
            if city.signalized.contains(&node) {
                if rng.chance(profile.light_stop_prob) {
                    events.push(Event {
                        offset: off,
                        kind: EventKind::Stop { dwell_s: profile.light_wait_s(rng) },
                        done: false,
                    });
                } else {
                    events.push(Event {
                        offset: off,
                        kind: EventKind::SlowTo { v_ms: 6.5 },
                        done: false,
                    });
                }
            } else if city.graph.neighbors(node).len() >= 3 && rng.chance(0.55) {
                events.push(Event {
                    offset: off,
                    kind: EventKind::SlowTo { v_ms: 7.5 },
                    done: false,
                });
            }
        }
    }
    // Corner events from geometry.
    {
        let verts = line.vertices();
        let mut off = 0.0;
        let mut h_in = verts[0].heading_to(verts[1]);
        for i in 1..verts.len() - 1 {
            off += verts[i - 1].distance(verts[i]);
            let h_out = verts[i].heading_to(verts[i + 1]);
            let turn = taxitrace_geo::heading_diff_deg(h_in, h_out);
            h_in = h_out;
            if turn > 60.0 {
                events.push(Event { offset: off, kind: EventKind::SlowTo { v_ms: 4.2 }, done: false });
            } else if turn > 35.0 {
                events.push(Event { offset: off, kind: EventKind::SlowTo { v_ms: 6.0 }, done: false });
            } else if turn > 18.0 {
                events.push(Event { offset: off, kind: EventKind::SlowTo { v_ms: 8.5 }, done: false });
            }
        }
    }
    // Pedestrian-crossing events.
    for span in &spans {
        for obj in city.objects.on_element(span.id) {
            if obj.kind != taxitrace_roadnet::MapObjectKind::PedestrianCrossing {
                continue;
            }
            let local = if span.reversed { span.len - obj.offset_m } else { obj.offset_m };
            if !(0.0..=span.len).contains(&local) {
                continue;
            }
            let off = span.route_start + local;
            if rng.chance(0.12) {
                events.push(Event {
                    offset: off,
                    kind: EventKind::Stop { dwell_s: rng.range(2.0, 9.0) },
                    done: false,
                });
            } else if rng.chance(profile.crossing_yield_prob) {
                events.push(Event { offset: off, kind: EventKind::SlowTo { v_ms: 4.5 }, done: false });
            }
        }
    }
    // Crowd-zone micro-stops: pedestrians stepping onto the street force
    // queue-like stop-and-go (several seconds each, repeatedly).
    for zone in &config.crowd_zones {
        let mut cursor = line.cursor();
        let mut s = 0.0;
        while s < total {
            if zone.contains(cursor.point_at(s)) && rng.chance(zone.micro_stop_per_100m) {
                events.push(Event {
                    offset: s + rng.range(0.0, 100.0_f64.min(total - s)),
                    kind: EventKind::Stop { dwell_s: rng.range(4.0, 16.0) },
                    done: false,
                });
            }
            s += 100.0;
        }
    }
    events.sort_by(|a, b| a.offset.total_cmp(&b.offset));

    // --- Kinematic integration. ---
    let dt = config.step_s;
    let mut s = 0.0f64;
    let mut v = 0.0f64; // m/s
    let mut limit_idx = 0usize;
    let mut span_idx = 0usize;
    let mut next_event = 0usize;
    let start_seq = sb.next_seq;
    let max_steps = (3.0 * 3600.0 / dt) as usize; // 3 h safety cap
    let decel = profile.decel_ms2;
    let mut steps = 0u64;
    // The route only moves forward, so one cursor serves every lookup.
    // `pos` is the true position at `s`: each step's post-step point is
    // the next step's start, since `s < total - 0.5` at the loop top.
    let mut cursor = line.cursor();
    let mut pos = cursor.point_at(s);

    for _ in 0..max_steps {
        if s >= total - 0.5 {
            break;
        }
        steps += 1;
        while limit_idx + 1 < limits.len() && s > limits[limit_idx].0 {
            limit_idx += 1;
        }
        while span_idx + 1 < spans.len()
            && s > spans[span_idx].route_start + spans[span_idx].len
        {
            span_idx += 1;
        }
        while next_event < events.len() && events[next_event].done {
            next_event += 1;
        }

        // Cruise target with environment and crowd factors.
        let mut cruise = limits[limit_idx].1 * profile.speed_factor * speed_env;
        for zone in &config.crowd_zones {
            if zone.contains(pos) {
                cruise *= zone.slow_factor;
            }
        }
        // Constraint from events ahead (within braking horizon).
        let mut v_allowed = cruise;
        let horizon = v * v / (2.0 * decel) + 20.0;
        let mut k = next_event;
        while k < events.len() {
            let e = &events[k];
            k += 1;
            if e.done {
                continue;
            }
            let gap = e.offset - s;
            if gap > horizon {
                break;
            }
            let v_target = match e.kind {
                EventKind::Stop { .. } => 0.0,
                EventKind::SlowTo { v_ms } => v_ms,
            };
            let brake_v = (v_target * v_target + 2.0 * decel * gap.max(0.0)).sqrt();
            v_allowed = v_allowed.min(brake_v.max(v_target));
        }
        // Also brake for the route end.
        let end_brake = (2.0 * decel * (total - s).max(0.0)).sqrt();
        v_allowed = v_allowed.min(end_brake);

        // Update speed.
        let v_old = v;
        if v < v_allowed {
            v = (v + profile.accel_ms2 * dt).min(v_allowed);
        } else {
            v = (v - decel * dt).max(v_allowed.min(v));
        }
        let a = (v - v_old) / dt;
        s += v * dt;
        // Re-resolve the element span for the *post-step* position so the
        // recorded ground-truth element matches the emitted coordinates.
        while span_idx + 1 < spans.len()
            && s > spans[span_idx].route_start + spans[span_idx].len
        {
            span_idx += 1;
        }

        sb.advance_time(dt);
        sb.fuel += config.fuel.step_ml(v, a, dt);
        sb.dist_m += v * dt;

        let heading = cursor.heading_at(s.min(total));
        pos = cursor.point_at(s.min(total));
        let elem = spans.get(span_idx).map(|sp| sp.id);
        sb.observe(rng, pos, v * 3.6, heading, elem);

        // Handle every reached event, not just the frontmost: a single
        // step can overshoot several events, and an unexpired SlowTo in
        // front of an overshot Stop must not block it (that combination
        // would pin the speed to zero forever). Stop events trigger as
        // soon as the vehicle arrives at the stop line; SlowTo events
        // expire once passed.
        let mut total_dwell = 0.0f64;
        let mut k = next_event;
        while k < events.len() && events[k].offset <= s + 2.0 {
            let e = &mut events[k];
            if !e.done {
                match e.kind {
                    EventKind::Stop { dwell_s } => {
                        e.done = true;
                        v = 0.0;
                        total_dwell += dwell_s;
                    }
                    EventKind::SlowTo { .. } => {
                        if s > e.offset + 3.0 {
                            e.done = true;
                        }
                    }
                }
            }
            k += 1;
        }
        if total_dwell > 0.0 {
            sb.dwell_on_route(rng, total_dwell, pos, heading, elem);
        }
    }
    // Final point at the destination with v = 0.
    let end_elem = spans.last().map(|sp| sp.id);
    sb.force_emit(rng, line.end(), 0.0, cursor.heading_at(total), end_elem);

    let end_seq = sb.next_seq.saturating_sub(1);
    if end_seq > start_seq {
        sb.truth_trips.push(CustomerTripTruth {
            start_seq,
            end_seq,
            origin,
            destination: dest,
            elements: spans.iter().map(|sp| sp.id).collect(),
            od_pair,
        });
    }
    steps
}

/// Builds one session's point stream.
struct SessionBuilder {
    trip_id: TripId,
    taxi: TaxiId,
    start_time: Timestamp,
    time: Timestamp,
    /// Sub-second accumulator so fractional steps keep full precision.
    frac_s: f64,
    projection: taxitrace_geo::LocalProjection,
    sampler: Sampler,
    fuel_model: FuelModel,
    gps_noise_m: f64,
    p_outlier: f64,
    points: Vec<RoutePoint>,
    next_seq: u32,
    fuel: f64,
    dist_m: f64,
    truth_trips: Vec<CustomerTripTruth>,
    /// GPS position freeze: real trackers re-report the last fix while the
    /// vehicle is stationary, so stationary pairs have *exactly* zero
    /// distance — which is what the paper's Table 2 stop rules (0.002 m/s!)
    /// rely on.
    frozen_pos: Option<Point>,
}

impl SessionBuilder {
    #[allow(clippy::too_many_arguments)]
    fn new(
        trip_id: TripId,
        taxi: TaxiId,
        start_time: Timestamp,
        projection: taxitrace_geo::LocalProjection,
        sampler: Sampler,
        fuel_model: FuelModel,
        gps_noise_m: f64,
        p_outlier: f64,
    ) -> Self {
        Self {
            trip_id,
            taxi,
            start_time,
            time: start_time,
            frac_s: 0.0,
            projection,
            sampler,
            fuel_model,
            gps_noise_m,
            p_outlier,
            points: Vec::new(),
            next_seq: 0,
            fuel: 0.0,
            dist_m: 0.0,
            truth_trips: Vec::new(),
            frozen_pos: None,
        }
    }

    fn advance_time(&mut self, dt: f64) {
        self.frac_s += dt;
        let whole = self.frac_s.floor();
        self.frac_s -= whole;
        self.time += Duration::from_secs(whole as i64);
    }

    /// Feeds an observation to the device sampler; emits a point if the
    /// sampler fires.
    fn observe(
        &mut self,
        rng: &mut Rng,
        true_pos: Point,
        speed_kmh: f64,
        heading_deg: f64,
        element: Option<ElementId>,
    ) {
        let measured = self.measure(rng, true_pos, speed_kmh);
        if self.sampler.observe(self.time, measured, speed_kmh, heading_deg) {
            self.emit(measured, speed_kmh, heading_deg, element);
        }
    }

    /// Emits a point unconditionally (leg endpoints).
    fn force_emit(
        &mut self,
        rng: &mut Rng,
        true_pos: Point,
        speed_kmh: f64,
        heading_deg: f64,
        element: Option<ElementId>,
    ) {
        let measured = self.measure(rng, true_pos, speed_kmh);
        // Keep the sampler's state in sync.
        let _ = self.sampler.observe(self.time, measured, speed_kmh, heading_deg);
        self.emit(measured, speed_kmh, heading_deg, element);
    }

    /// Measured position: frozen while (nearly) stationary, noisy otherwise.
    fn measure(&mut self, rng: &mut Rng, p: Point, speed_kmh: f64) -> Point {
        if speed_kmh < 1.0 {
            if let Some(f) = self.frozen_pos {
                return f;
            }
            let f = self.noisy(rng, p);
            self.frozen_pos = Some(f);
            return f;
        }
        if speed_kmh > 2.0 {
            self.frozen_pos = None;
        } else if let Some(f) = self.frozen_pos {
            return f;
        }
        self.noisy(rng, p)
    }

    fn noisy(&mut self, rng: &mut Rng, p: Point) -> Point {
        if rng.chance(self.p_outlier) {
            let r = rng.range(100.0, 400.0);
            let theta = rng.range(0.0, std::f64::consts::TAU);
            Point::new(p.x + r * theta.cos(), p.y + r * theta.sin())
        } else {
            Point::new(
                p.x + rng.normal() * self.gps_noise_m,
                p.y + rng.normal() * self.gps_noise_m,
            )
        }
    }

    fn emit(&mut self, pos: Point, speed_kmh: f64, heading_deg: f64, element: Option<ElementId>) {
        self.points.push(RoutePoint {
            point_id: 0, // assigned by corruption/renumbering
            trip_id: self.trip_id,
            taxi: self.taxi,
            geo: self.projection.unproject(pos),
            pos,
            timestamp: self.time,
            speed_kmh,
            heading_deg,
            fuel_ml: self.fuel,
            truth: PointTruth { seq: self.next_seq, element },
        });
        self.next_seq += 1;
    }

    /// A fully silent time gap (device asleep while repositioning): time
    /// and idle fuel advance, nothing is emitted, and the position freeze
    /// is cleared because the vehicle moved.
    fn silent_gap(&mut self, dur_s: f64) {
        self.advance_time(dur_s);
        self.fuel += self.fuel_model.step_ml(2.0, 0.0, dur_s);
        self.frozen_pos = None;
        self.sampler.reset();
    }

    /// Stationary dwell off-route (pickups, fare gaps).
    ///
    /// During long fare gaps the device occasionally power-saves and emits
    /// nothing until movement resumes — producing the long silent gaps that
    /// the paper's Table 2 rules 2 and 4 detect.
    fn dwell(&mut self, rng: &mut Rng, dur_s: f64, at: Point) {
        if dur_s > 420.0 && rng.chance(0.3) {
            // Device sleeps: one observation at dwell start, then silence.
            self.observe(rng, at, 0.0, 0.0, None);
            self.advance_time(dur_s);
            self.fuel += self.fuel_model.step_ml(0.0, 0.0, dur_s);
            return;
        }
        self.dwell_on_route(rng, dur_s, at, 0.0, None);
    }

    /// Stationary dwell keeping the current route context.
    fn dwell_on_route(
        &mut self,
        rng: &mut Rng,
        dur_s: f64,
        at: Point,
        heading: f64,
        element: Option<ElementId>,
    ) {
        let mut remaining = dur_s;
        // Observe every 10 s of dwell (the sampler decides what to store).
        while remaining > 0.0 {
            let step = remaining.min(10.0);
            self.advance_time(step);
            self.fuel += self.fuel_model.step_ml(0.0, 0.0, step);
            remaining -= step;
            self.observe(rng, at, 0.0, heading, element);
        }
    }

    fn finish(self, corruption: &CorruptionConfig, rng: &mut Rng) -> RawTrip {
        let end_time = self.time;
        let (mut points, _) = corrupt_session(corruption, rng, self.points);
        // The buffer grew by doubling; seal the session at its exact size.
        points.shrink_to_fit();
        RawTrip {
            id: self.trip_id,
            taxi: self.taxi,
            start_time: self.start_time,
            end_time,
            points,
            total_time: end_time - self.start_time,
            total_distance_m: self.dist_m,
            total_fuel_ml: self.fuel,
            truth_trips: self.truth_trips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_roadnet::synth::{generate, OuluConfig};

    fn small_fleet() -> (SyntheticCity, FleetData) {
        let city = generate(&OuluConfig::default());
        let weather = WeatherModel::new(42);
        let data = simulate_fleet(&city, &weather, &FleetConfig::tiny(7));
        (city, data)
    }

    #[test]
    fn fleet_produces_sessions_and_points() {
        let (_, data) = small_fleet();
        assert!(!data.sessions.is_empty());
        assert!(data.total_points() > 200, "{}", data.total_points());
        assert!(data.total_legs() >= 40, "{}", data.total_legs());
    }

    #[test]
    fn deterministic_in_seed() {
        let city = generate(&OuluConfig::default());
        let weather = WeatherModel::new(42);
        let a = simulate_fleet(&city, &weather, &FleetConfig::tiny(7));
        let b = simulate_fleet(&city, &weather, &FleetConfig::tiny(7));
        assert_eq!(a.sessions.len(), b.sessions.len());
        assert_eq!(a.total_points(), b.total_points());
        let (pa, pb) = (&a.sessions[0].points, &b.sessions[0].points);
        assert_eq!(pa, pb);
    }

    #[test]
    fn shards_split_below_the_taxi_level() {
        let cfg = FleetConfig::tiny(7);
        let city = generate(&OuluConfig::default());
        let weather = WeatherModel::new(42);
        let data = simulate_fleet(&city, &weather, &cfg);
        // ~30 active days per taxi means far more work units than taxis.
        assert!(
            data.shard_count > 10 * cfg.legs_per_taxi.len(),
            "shard_count {}",
            data.shard_count
        );
        // The planner allocates exactly the scaled leg target per taxi.
        let target: usize = cfg
            .legs_per_taxi
            .iter()
            .map(|&l| (l * cfg.scale).round().max(1.0) as usize)
            .sum();
        let planned: usize = data.sessions.iter().map(|s| s.truth_trips.len()).sum();
        // Some legs abort before emitting (unroutable pairs), so planned
        // truth legs can fall slightly short of the target, never above.
        assert!(planned <= target, "planned {planned} target {target}");
        assert!(planned * 10 >= target * 9, "planned {planned} target {target}");
    }

    #[test]
    fn fleet_config_validates_width_and_scale() {
        assert!(FleetConfig::tiny(1).validate().is_ok());
        let mut cfg = FleetConfig::tiny(1);
        cfg.legs_per_taxi.clear();
        assert!(cfg.validate().is_err());
        let mut cfg = FleetConfig::tiny(1);
        cfg.scale = f64::NAN;
        assert!(cfg.validate().is_err());
        let mut cfg = FleetConfig::tiny(1);
        cfg.legs_per_taxi = vec![1.0; u16::MAX as usize + 1];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn different_seed_differs() {
        let city = generate(&OuluConfig::default());
        let weather = WeatherModel::new(42);
        let a = simulate_fleet(&city, &weather, &FleetConfig::tiny(7));
        let b = simulate_fleet(&city, &weather, &FleetConfig::tiny(8));
        assert_ne!(a.total_points(), b.total_points());
    }

    #[test]
    fn speeds_and_times_sane() {
        let (_, data) = small_fleet();
        for s in &data.sessions {
            assert!(s.end_time > s.start_time);
            for p in &s.points {
                assert!((0.0..=130.0).contains(&p.speed_kmh), "speed {}", p.speed_kmh);
                // Clock-glitch injection may push a timestamp slightly
                // past the session bounds; allow that margin.
                assert!(
                    p.timestamp >= s.start_time - Duration::from_secs(120)
                        && p.timestamp <= s.end_time + Duration::from_secs(120)
                );
                assert!(p.fuel_ml >= 0.0);
            }
        }
    }

    #[test]
    fn points_ordered_by_arrival_id() {
        let (_, data) = small_fleet();
        for s in &data.sessions {
            for (i, p) in s.points.iter().enumerate() {
                assert_eq!(p.point_id, i as u64);
            }
        }
    }

    #[test]
    fn truth_legs_have_elements_and_bounds() {
        let (_, data) = small_fleet();
        for s in &data.sessions {
            for leg in &s.truth_trips {
                assert!(leg.end_seq > leg.start_seq);
                assert!(!leg.elements.is_empty());
                assert!((leg.end_seq as usize) < s.points.len() + 5);
            }
        }
    }

    #[test]
    fn some_od_to_od_legs_exist() {
        let city = generate(&OuluConfig::default());
        let weather = WeatherModel::new(42);
        let mut cfg = FleetConfig::tiny(9);
        cfg.scale = 0.05;
        cfg.p_od_dest = 0.5; // force plenty of OD traffic for the test
        let data = simulate_fleet(&city, &weather, &cfg);
        let od_legs: usize = data
            .sessions
            .iter()
            .flat_map(|s| &s.truth_trips)
            .filter(|l| l.od_pair.is_some())
            .count();
        assert!(od_legs > 3, "{od_legs}");
    }

    #[test]
    fn fuel_magnitude_matches_table4_scale() {
        let (_, data) = small_fleet();
        // Average fuel per leg-kilometre should be in the urban range.
        let mut fuel_per_km = Vec::new();
        for s in &data.sessions {
            if s.total_distance_m > 1000.0 {
                fuel_per_km.push(s.total_fuel_ml / (s.total_distance_m / 1000.0));
            }
        }
        assert!(!fuel_per_km.is_empty());
        let mean = fuel_per_km.iter().sum::<f64>() / fuel_per_km.len() as f64;
        // Sessions include idle dwells, so per-km figures run higher than
        // pure driving; accept a broad urban band.
        assert!((60.0..400.0).contains(&mean), "mean fuel/km {mean}");
    }

    #[test]
    fn session_distance_close_to_truth_leg_geometry() {
        let (city, data) = small_fleet();
        let elem_len: HashMap<ElementId, f64> =
            city.elements.iter().map(|e| (e.id, e.length())).collect();
        for s in data.sessions.iter().take(5) {
            let truth_dist: f64 = s
                .truth_trips
                .iter()
                .flat_map(|l| &l.elements)
                .map(|e| elem_len[e])
                .sum();
            if truth_dist > 0.0 {
                let ratio = s.total_distance_m / truth_dist;
                assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
            }
        }
    }
}
