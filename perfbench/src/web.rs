//! The browser-facing workloads: a live steered simulation watched over
//! HTTP, and the serving layer alone under a live viewer plus a stream of
//! catch-up polls.  Both run the front end with `FrontEndConfig::default()`
//! and drive it from two generator threads, one keep-alive connection
//! each.

use crate::audit::{FrameLog, KindCounts, Logged, Viewer};
use crate::client::{Conn, Reply};
use crate::host;
use crate::report::{LayerCounts, Report};
use crate::rng::Rng;
use crate::stats::{Dist, Series};
use crate::trace::{SpanId, Tracer};
use crate::{setup_median, Phases};
use crossbeam::channel::{Receiver, Sender};
use ricsa_bench::synth_web_frame;
use ricsa_core::api::{SimulationCommand, SimulationServer};
use ricsa_hydro::problems::Problem;
use ricsa_hydro::steering::SteerableParams;
use ricsa_viz::camera::Camera;
use ricsa_viz::image::Image;
use ricsa_viz::isosurface::extract_isosurface;
use ricsa_viz::render::render_mesh;
use ricsa_vizdata::field::Dims;
use ricsa_vizdata::io::VolumeContainer;
use ricsa_webfront::http::{HttpRequest, HttpResponse, Outcome};
use ricsa_webfront::hub::{Frame, PollMode, SessionHub};
use ricsa_webfront::server::{route, FrontEndConfig, FrontEndServer};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Image edge of every published frame, pixels.
const IMAGE: usize = 256;
/// Long-poll timeout of the live viewer; bounds how long it takes to
/// notice the end of a run.
const LIVE_POLL_MS: u64 = 500;

fn start_front_end() -> FrontEndServer {
    FrontEndServer::start_with("127.0.0.1:0", FrontEndConfig::default())
        .expect("bind the front end on an ephemeral local port")
}

fn check(reply: std::io::Result<Reply>) -> Result<Reply, String> {
    match reply {
        Ok(r) if (200..300).contains(&r.status) => Ok(r),
        Ok(r) => Err(format!(
            "HTTP {}: {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        )),
        Err(e) => Err(format!("connection: {e}")),
    }
}

/// Register a polling client over `conn`.
fn register(conn: &mut Conn) -> Result<u64, String> {
    let reply = check(conn.get("/api/client"))?;
    let value = crate::json::parse(&reply.body).map_err(|e| format!("client json: {e}"))?;
    value
        .get("client")
        .and_then(|c| c.as_u64())
        .ok_or_else(|| "client id missing".to_string())
}

/// Sleep until `due` (no-op when it has passed).
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// What the live viewer thread saw.
#[derive(Default)]
struct LiveView {
    /// `(sequence, receipt, produced→receipt ms, published→receipt ms)`.
    deliveries: Vec<(u64, Instant, f64, f64)>,
    /// Steer tag echoed by each delivery, in receipt order.
    tags: Vec<i64>,
    kinds: KindCounts,
    wire_bytes: u64,
    errors: Vec<String>,
}

/// The live delta long-poller: one registered client on one keep-alive
/// connection, auditing and pixel-checking every frame it receives.
fn live_viewer(
    addr: SocketAddr,
    mut viewer: Viewer,
    log: FrameLog,
    stop: Arc<AtomicBool>,
    tracer: Tracer,
) -> LiveView {
    let mut out = LiveView::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("viewer connect: {e}"));
            return out;
        }
    };
    let client = match register(&mut conn) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("viewer register: {e}"));
            return out;
        }
    };
    while !stop.load(Ordering::SeqCst) {
        let path = format!(
            "/api/poll?client={client}&since={}&mode=delta&timeout_ms={LIVE_POLL_MS}",
            viewer.held
        );
        let sent = Instant::now();
        let reply = conn.get(&path);
        let received = Instant::now();
        let reply = match check(reply) {
            Ok(r) => r,
            Err(e) => {
                out.errors.push(format!("viewer poll: {e}"));
                return out;
            }
        };
        let span = tracer.record("http.poll", viewer.held + 1, SpanId::NONE, sent, received);
        let audit = tracer.begin("client.audit", viewer.held + 1, span);
        let got = viewer.receive(&reply.body, &log);
        tracer.end(audit);
        match got {
            Ok(None) => {}
            Ok(Some(frame)) => {
                out.wire_bytes += reply.wire_bytes;
                out.kinds.add(frame.kind);
                let logged = log.get(frame.sequence).expect("audited frames are logged");
                tracer.end_at(logged.span, received);
                out.deliveries.push((
                    frame.sequence,
                    received,
                    (received - logged.produced_at).as_secs_f64() * 1e3,
                    (received - logged.published_at).as_secs_f64() * 1e3,
                ));
                let tag = frame
                    .monitors
                    .iter()
                    .find(|(name, _)| name == "steer_tag")
                    .map_or(-1, |(_, v)| v.round() as i64);
                out.tags.push(tag);
            }
            Err(e) => out.errors.push(format!("viewer audit: {e:?}")),
        }
    }
    out
}

// ------------------------------------------------------------ live_steer

/// Sod shock tube grid of the live run.
const SOD: (usize, usize, usize) = (128, 32, 16);
/// A frame is rendered and published every this many cycles.
const FRAME_EVERY: u64 = 5;
/// Steering POSTs are due at uniform gaps in this range, ms.
const STEER_GAP_MS: (f64, f64) = (30.0, 90.0);
/// No POST is due in the last this-many seconds of a run, so every POST
/// has time to show in a frame.
const STEER_TAIL_S: f64 = 1.5;
/// The steer tag rides in `inflow_velocity`, which the shock tube reads
/// only at start-up: tag `k` is `TAG_BASE + (k + 1) * TAG_STEP`.
const TAG_BASE: f64 = 2.0;
const TAG_STEP: f64 = 1e-3;

fn base_params() -> SteerableParams {
    SteerableParams {
        end_cycle: u64::MAX / 2,
        ..SteerableParams::default()
    }
}

/// POST `k` of the seeded steering schedule: gamma and CFL from a narrow
/// in-range band, so the work per cycle stays comparable between runs.
fn steer_params(rng: &mut Rng, k: u64) -> SteerableParams {
    SteerableParams {
        gamma: rng.range(1.39, 1.41),
        cfl: rng.range(0.39, 0.41),
        inflow_velocity: TAG_BASE + (k + 1) as f64 * TAG_STEP,
        ..base_params()
    }
}

fn steer_tag(params: &SteerableParams) -> f64 {
    ((params.inflow_velocity - TAG_BASE) / TAG_STEP).round() - 1.0
}

fn steer_body(p: &SteerableParams) -> String {
    format!(
        "{{\"gamma\":{},\"cfl\":{},\"drive_strength\":{},\"inflow_velocity\":{},\"end_cycle\":{}}}",
        p.gamma, p.cfl, p.drive_strength, p.inflow_velocity, p.end_cycle
    )
}

/// The simulation side of the live run, ready to serve its first frame.
struct LiveSim {
    front_end: FrontEndServer,
    hub: SessionHub,
    server: SimulationServer,
    commands: Sender<SimulationCommand>,
    datasets: Receiver<VolumeContainer>,
    camera: Camera,
    log: FrameLog,
}

/// Timings of one rendered frame.
struct Rendered {
    iso_ms: f64,
    render_ms: f64,
    publish_us: f64,
    triangles: usize,
}

impl LiveSim {
    fn start() -> LiveSim {
        let front_end = start_front_end();
        let hub = front_end.hub();
        let mut server = SimulationServer::startup();
        let (commands, datasets) = server.wait_accept_connection();
        commands
            .send(SimulationCommand::Start {
                problem: Problem::SodShockTube,
                dims: Dims::new(SOD.0, SOD.1, SOD.2),
                params: base_params(),
            })
            .expect("the simulation server holds its command receiver");
        let mut sim = LiveSim {
            front_end,
            hub,
            server: {
                server.run_cycle();
                server
            },
            commands,
            datasets,
            camera: Camera::with_viewport(IMAGE, IMAGE),
            log: FrameLog::default(),
        };
        let now = Instant::now();
        sim.publish_latest(now, &Tracer::new(false), SpanId::NONE);
        sim
    }

    /// Render the newest snapshot and publish it, logging it first.
    fn publish_latest(
        &mut self,
        produced_at: Instant,
        tracer: &Tracer,
        frame: SpanId,
    ) -> Option<Rendered> {
        let snapshot: VolumeContainer = self.datasets.try_iter().last()?;
        let id = self.hub.latest_sequence() + 1;
        let pressure = snapshot
            .variable("pressure")
            .expect("the solver publishes pressure");
        let (lo, hi) = pressure.value_range();
        let iso = lo + 0.5 * (hi - lo);
        let t0 = Instant::now();
        let surface = extract_isosurface(pressure, iso, 16);
        let t1 = Instant::now();
        let image = render_mesh(&surface.mesh, &self.camera, [0.85, 0.55, 0.25]);
        let t2 = Instant::now();
        tracer.record("viz.isosurface", id, frame, t0, t1);
        tracer.record("viz.render", id, frame, t1, t2);
        let params = self.server.params().unwrap_or_else(base_params);
        let raw = image.encode_raw();
        let published_at = Instant::now();
        self.log.insert(
            id,
            Logged {
                raw: Arc::new(raw.clone()),
                image: Arc::new(image),
                published_at,
                produced_at,
                span: frame,
            },
        );
        let seq = self.hub.publish(Frame {
            sequence: 0,
            cycle: snapshot.cycle,
            time: snapshot.time,
            image: raw,
            monitors: vec![
                ("isovalue".into(), iso as f64),
                ("triangles".into(), surface.mesh.triangle_count() as f64),
                ("gamma".into(), params.gamma),
                ("cfl".into(), params.cfl),
                ("steer_tag".into(), steer_tag(&params)),
            ],
        });
        let t3 = Instant::now();
        tracer.record("hub.publish", id, frame, published_at, t3);
        assert_eq!(seq, id, "the benchmark is the hub's only publisher");
        Some(Rendered {
            iso_ms: (t1 - t0).as_secs_f64() * 1e3,
            render_ms: (t2 - t1).as_secs_f64() * 1e3,
            publish_us: (t3 - published_at).as_secs_f64() * 1e6,
            triangles: surface.mesh.triangle_count(),
        })
    }
}

/// What the steering thread did: `(due, sent, tag)` per POST.
#[derive(Default)]
struct Steered {
    posts: Vec<(Instant, Instant, u64)>,
    errors: Vec<String>,
}

fn steerer(addr: SocketAddr, seed: u64, start: Instant, until: Instant, tracer: Tracer) -> Steered {
    let mut out = Steered::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("steer connect: {e}"));
            return out;
        }
    };
    let mut rng = Rng::new(seed, 5);
    let mut due = start;
    for k in 0.. {
        due += Duration::from_secs_f64(rng.range(STEER_GAP_MS.0, STEER_GAP_MS.1) / 1e3);
        if due >= until {
            break;
        }
        let params = steer_params(&mut rng, k);
        wait_until(due);
        let sent = Instant::now();
        let reply = conn.post("/api/steer", &steer_body(&params));
        tracer.record("http.steer", k, SpanId::NONE, sent, Instant::now());
        if let Err(e) = check(reply) {
            out.errors.push(format!("steer post {k}: {e}"));
            return out;
        }
        out.posts.push((due, sent, k));
    }
    out
}

struct LivePhase {
    start: Instant,
    cycles: u64,
    cycle_ms: Vec<f64>,
    /// When each publishing cycle ended.
    frame_at: Vec<Instant>,
    rendered: Vec<Rendered>,
    view: LiveView,
    steered: Steered,
    /// Hub encodes made while the phase ran.
    encodes: u64,
    /// Process CPU seconds over the phase.
    cpu_s: f64,
}

fn live_phase(seed: u64, seconds: f64, tracer: &Tracer, report: &mut Report) -> LivePhase {
    let mut sim = LiveSim::start();
    let addr = sim.front_end.addr();
    let inbox = sim.front_end.inbox();
    let stop = Arc::new(AtomicBool::new(false));
    let viewer =
        Viewer::holding(sim.hub.latest_sequence(), &sim.log).expect("the start-up frame is logged");
    let encodes_before = sim.hub.encode_count();
    let cpu_before = host::cpu_s();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let steer_until = end - Duration::from_secs_f64(STEER_TAIL_S.min(seconds / 4.0));
    let mut out = LivePhase {
        start,
        cycles: 0,
        cycle_ms: Vec::new(),
        frame_at: Vec::new(),
        rendered: Vec::new(),
        view: LiveView::default(),
        steered: Steered::default(),
        encodes: 0,
        cpu_s: 0.0,
    };
    std::thread::scope(|scope| {
        let view = {
            let (log, stop, tracer) = (sim.log.clone(), stop.clone(), tracer.clone());
            scope.spawn(move || live_viewer(addr, viewer, log, stop, tracer))
        };
        let steered = {
            let tracer = tracer.clone();
            scope.spawn(move || steerer(addr, seed, start, steer_until, tracer))
        };
        while Instant::now() < end {
            let publishes = (sim.server.cycle() + 1).is_multiple_of(FRAME_EVERY);
            let id = sim.server.cycle() + 1;
            let frame = if publishes {
                tracer.begin("frame", id, SpanId::NONE)
            } else {
                SpanId::NONE
            };
            let t0 = Instant::now();
            let running = sim.server.run_cycle();
            let t1 = Instant::now();
            tracer.record("hydro.cycle", id, frame, t0, t1);
            out.cycle_ms.push((t1 - t0).as_secs_f64() * 1e3);
            if !running {
                report.fail("the simulation finished before the run ended".into());
                break;
            }
            // Steering posted from the browser is applied between cycles.
            if let Some(params) = inbox.drain_latest() {
                sim.commands
                    .send(SimulationCommand::UpdateParameters(params))
                    .expect("the simulation server holds its command receiver");
            }
            if publishes {
                out.frame_at.push(t1);
                match sim.publish_latest(t1, tracer, frame) {
                    Some(r) => out.rendered.push(r),
                    None => report.fail(format!("cycle {id}: no snapshot to render")),
                }
            } else {
                // Keep only the newest snapshot, as the renderer would.
                let _ = sim.datasets.try_iter().count();
            }
        }
        out.cycles = out.cycle_ms.len() as u64;
        out.steered = steered.join().expect("steering thread panicked");
        // Let the viewer collect the last frame before it stops.
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::SeqCst);
        out.view = view.join().expect("viewer thread panicked");
    });
    out.cpu_s = host::cpu_s() - cpu_before;
    out.encodes = sim.hub.encode_count() - encodes_before;
    sim.front_end.shutdown();
    out
}

/// Steering latency of every POST: from its due time to the receipt of
/// the first delivered frame echoing it or a later POST.  `None` for a
/// POST no frame reflects.
fn steer_latencies(posts: &[(Instant, Instant, u64)], view: &LiveView) -> Vec<Option<f64>> {
    posts
        .iter()
        .map(|&(due, _, k)| {
            view.deliveries
                .iter()
                .zip(&view.tags)
                .find(|(_, &tag)| tag >= k as i64)
                .map(|((_, received, _, _), _)| {
                    received.saturating_duration_since(due).as_secs_f64() * 1e3
                })
        })
        .collect()
}

/// Seconds from `start` to `at`.
fn since(start: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(start).as_secs_f64()
}

/// Window for live-run statistics: long enough that each holds the ~100
/// steering POSTs a p90 needs.
const LIVE_WINDOW_S: f64 = 10.0;

/// Loop rate: cycles per second over the median five-cycle frame period
/// (cycles, render and publish), robust to a briefly disturbed host.
fn cycle_rate(phase: &LivePhase) -> Option<f64> {
    let periods: Vec<f64> = phase
        .frame_at
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    Dist::new(periods).median().map(|p| FRAME_EVERY as f64 / p)
}

/// The paper's Fig. 1 user loop: a Sod shock tube stepped by
/// `SimulationServer::run_cycle`, an isosurface rendered and published
/// every fifth cycle, one delta long-poll viewer, and one steering
/// connection POSTing on an open-loop seeded schedule.
pub fn live_steer(seed: u64, phases: Phases) -> Report {
    let mut report = Report::default();
    let base = live_phase(seed, phases.base_s, &Tracer::new(false), &mut report);
    gate_live(&base, &mut report);
    let rate = cycle_rate(&base).unwrap_or(f64::NAN);
    let frame_ms = Dist::new(base.view.deliveries.iter().map(|d| d.2).collect());
    if !phases.traced() {
        let mut steer = Series::default();
        for (post, latency) in base
            .steered
            .posts
            .iter()
            .zip(steer_latencies(&base.steered.posts, &base.view))
        {
            if let Some(ms) = latency {
                steer.push(since(base.start, post.0), ms);
            }
        }
        // Set-ups are timed after the measured phase, on a warmed host.
        let (setup_s, setup_n) = setup_median(|| {
            let sim = LiveSim::start();
            sim.front_end.shutdown();
        });
        report.put("setup_s", setup_s, "s", setup_n);
        report.put_per(
            "cpu_ms_per_frame",
            base.cpu_s * 1e3,
            base.frame_at.len(),
            "ms",
        );
        report.put("cycle_rate_hz", rate, "1/s", base.frame_at.len());
        report.put_pct("frame_latency_p50_ms", &frame_ms, 0.5, 1.0, "ms");
        report.put_windowed("steer_latency_p50_ms", &steer, LIVE_WINDOW_S, 0.5, "ms");
        report.put_windowed("steer_latency_p90_ms", &steer, LIVE_WINDOW_S, 0.9, "ms");
        let frames = base.view.deliveries.len();
        report.put(
            "wire_bytes_per_frame",
            base.view.wire_bytes as f64 / frames.max(1) as f64,
            "B",
            frames,
        );
        report.lateness_ms = lateness_p90(base.steered.posts.iter().map(|p| (p.0, p.1)));
        return report;
    }
    // The frame-latency tail is an end-to-end figure taken with tracing
    // off, but it carries no regression bound: about one frame in ten waits
    // an extra 2-3.5 ms for a core while the next cycle's hydro threads run,
    // p90 sits on the edge of that group, and the group's share follows
    // host steal (0.34 quartile spread over ten seeds).
    report.put_pct("frame_latency_p90_ms", &frame_ms, 0.9, 1.0, "ms");
    let tracer = Tracer::new(true);
    let traced = live_phase(seed, phases.traced_s, &tracer, &mut report);
    gate_live(&traced, &mut report);
    report.spans = tracer.spans();
    report.layers = LayerCounts {
        frames: traced.view.deliveries.len() as u64,
        renders: traced.rendered.len() as u64,
        triangles: traced.rendered.iter().map(|r| r.triangles as u64).sum(),
        published: traced.rendered.len() as u64,
        encodes: traced.encodes,
        replies: traced.view.kinds.total(),
        deltas: traced.view.kinds.delta,
        ..LayerCounts::default()
    };
    let cycles = Dist::new(traced.cycle_ms.clone());
    report.put_pct("hydro.cycle_ms.p50", &cycles, 0.5, 1.0, "ms");
    report.put_pct("hydro.cycle_ms.p90", &cycles, 0.9, 1.0, "ms");
    let r = &traced.rendered;
    report.put_pct(
        "viz.isosurface_ms",
        &Dist::new(r.iter().map(|r| r.iso_ms).collect()),
        0.5,
        1.0,
        "ms",
    );
    report.put_pct(
        "viz.render_ms",
        &Dist::new(r.iter().map(|r| r.render_ms).collect()),
        0.5,
        1.0,
        "ms",
    );
    report.put_pct(
        "hub.publish_us",
        &Dist::new(r.iter().map(|r| r.publish_us).collect()),
        0.5,
        1.0,
        "us",
    );
    if let Some(traced_rate) = cycle_rate(&traced) {
        report.put(
            "trace.overhead_pct",
            100.0 * (rate / traced_rate - 1.0),
            "%",
            traced.cycles as usize,
        );
    }
    report.lateness_ms = lateness_p90(traced.steered.posts.iter().map(|p| (p.0, p.1)));
    report
}

/// Correctness gates of a live phase: every frame delivered intact, every
/// POST accepted and reflected, no HTTP failure.
fn gate_live(phase: &LivePhase, report: &mut Report) {
    for _ in &phase.view.deliveries {
        report.op::<()>(Ok(()));
    }
    for e in &phase.view.errors {
        report.op(Err(e));
    }
    for e in &phase.steered.errors {
        report.op(Err(e));
    }
    for (post, latency) in phase
        .steered
        .posts
        .iter()
        .zip(steer_latencies(&phase.steered.posts, &phase.view))
    {
        report.op(latency
            .ok_or_else(|| format!("steer post {} never reflected in a frame", post.2))
            .map(|_| ()));
    }
    if phase.view.deliveries.is_empty() {
        report.fail("the viewer received no frame".into());
    }
}

/// p90 of how late the open-loop generator sent, ms, from `(due, sent)`
/// pairs (the median when there are too few for a p90).
fn lateness_p90(sends: impl Iterator<Item = (Instant, Instant)>) -> f64 {
    let late = Dist::new(
        sends
            .map(|(due, sent)| sent.saturating_duration_since(due).as_secs_f64() * 1e3)
            .collect(),
    );
    late.pct(0.9).or(late.median()).unwrap_or(0.0)
}

// --------------------------------------------------------- viewer_fanout

/// Frames published before the run, so catch-up lags have a history.
const HISTORY: u64 = 40;
/// Open-loop publish interval (25 frames/s: a 256×256 synthetic frame
/// costs the hub ~6-7 ms to encode, so this keeps the publisher to about
/// a sixth of a core and leaves the catch-up loop room on two).
const PUBLISH_EVERY: Duration = Duration::from_millis(40);
/// Registered client ids the catch-up stream polls for.
const CATCHUP_CLIENTS: usize = 64;
/// Every this-many requests on the catch-up connection is a steering POST.
const STEER_EVERY: u64 = 16;

/// Seeded catch-up lag: one behind (a delta), 2..=8 (a composed chain)
/// or 9..=16 (a resync), at 4 : 5 : 1.
fn catchup_lag(rng: &mut Rng) -> u64 {
    match rng.int(0, 9) {
        0..=3 => 1,
        4..=8 => rng.int(2, 8),
        _ => rng.int(9, 16),
    }
}

/// Publish `frame` as the hub's next sequence, logging it first.
fn publish_logged(hub: &SessionHub, log: &FrameLog, frame: Frame, tracer: &Tracer) -> (u64, f64) {
    let id = hub.latest_sequence() + 1;
    let image = Image::decode_raw(&frame.image).expect("synthetic frames are valid images");
    let published_at = Instant::now();
    log.insert(
        id,
        Logged {
            raw: Arc::new(frame.image.clone()),
            image: Arc::new(image),
            published_at,
            produced_at: published_at,
            span: SpanId::NONE,
        },
    );
    let seq = hub.publish(frame);
    let done = Instant::now();
    tracer.record("hub.publish", id, SpanId::NONE, published_at, done);
    assert_eq!(seq, id, "the benchmark is the hub's only publisher");
    (seq, (done - published_at).as_secs_f64() * 1e6)
}

/// The serving layer ready for its first request: history published and
/// the catch-up client ids registered over the catch-up connection.
struct Fanout {
    front_end: FrontEndServer,
    hub: SessionHub,
    log: FrameLog,
    conn: Conn,
    clients: Vec<u64>,
}

impl Fanout {
    fn start() -> Result<Fanout, String> {
        let front_end = start_front_end();
        let hub = front_end.hub();
        let log = FrameLog::default();
        for step in 0..HISTORY {
            publish_logged(
                &hub,
                &log,
                synth_web_frame(step, IMAGE, IMAGE),
                &Tracer::new(false),
            );
        }
        let mut conn = Conn::open(front_end.addr()).map_err(|e| format!("connect: {e}"))?;
        let clients = (0..CATCHUP_CLIENTS)
            .map(|_| register(&mut conn))
            .collect::<Result<_, _>>()?;
        Ok(Fanout {
            front_end,
            hub,
            log,
            conn,
            clients,
        })
    }
}

/// What the catch-up connection did.
#[derive(Default)]
struct Catchup {
    /// `(sent, round trip ms)` of each catch-up poll.
    rtt_ms: Vec<(Instant, f64)>,
    kinds: KindCounts,
    wire_bytes: u64,
    steers: u64,
    errors: Vec<String>,
    ok: u64,
    /// Parked connections `/api/stats` reported when the stream stopped.
    parked: f64,
}

/// Closed-loop catch-up polls for seeded client ids at seeded lags, with a
/// steering POST every [`STEER_EVERY`] requests.
fn catchup_stream(
    mut conn: Conn,
    clients: &[u64],
    head: &AtomicU64,
    log: &FrameLog,
    seed: u64,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> Catchup {
    let mut out = Catchup::default();
    let mut rng = Rng::new(seed, 2);
    let mut steer_rng = Rng::new(seed, 3);
    for i in 1.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if i % STEER_EVERY == 0 {
            let body = steer_body(&steer_params(&mut steer_rng, i));
            match check(conn.post("/api/steer", &body)) {
                Ok(_) => out.steers += 1,
                Err(e) => {
                    out.errors.push(format!("catch-up steer: {e}"));
                    return out;
                }
            }
            continue;
        }
        let client = clients[rng.int(0, clients.len() as u64 - 1) as usize];
        let lag = catchup_lag(&mut rng);
        let since = head.load(Ordering::SeqCst).saturating_sub(lag).max(1);
        let mut viewer = match Viewer::holding(since, log) {
            Ok(v) => v,
            Err(e) => {
                out.errors.push(format!("catch-up since {since}: {e:?}"));
                continue;
            }
        };
        let path = format!("/api/poll?client={client}&since={since}&mode=delta&timeout_ms=1000");
        let sent = Instant::now();
        let reply = conn.get(&path);
        let received = Instant::now();
        let reply = match check(reply) {
            Ok(r) => r,
            Err(e) => {
                out.errors.push(format!("catch-up poll: {e}"));
                return out;
            }
        };
        let span = tracer.record("http.catchup", i, SpanId::NONE, sent, received);
        let audit = tracer.begin("client.audit", i, span);
        let got = viewer.receive(&reply.body, log);
        tracer.end(audit);
        match got {
            Ok(Some(frame)) => {
                out.ok += 1;
                out.kinds.add(frame.kind);
                out.wire_bytes += reply.wire_bytes;
                out.rtt_ms
                    .push((sent, (received - sent).as_secs_f64() * 1e3));
            }
            Ok(None) => out
                .errors
                .push(format!("catch-up since {since}: empty poll")),
            Err(e) => out.errors.push(format!("catch-up audit: {e:?}")),
        }
    }
    let stats = check(conn.get("/api/stats")).and_then(|reply| {
        let value = crate::json::parse(&reply.body).map_err(|e| format!("stats json: {e}"))?;
        value
            .get("parked_connections")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| "stats: parked_connections missing".to_string())
    });
    match stats {
        Ok(parked) => out.parked = parked,
        Err(e) => out.errors.push(e),
    }
    out
}

#[derive(Default)]
struct FanoutPhase {
    start: Option<Instant>,
    elapsed_s: f64,
    /// `(due, sent)` of each publish.
    publishes: Vec<(Instant, Instant)>,
    publish_us: Vec<f64>,
    encodes: u64,
    queue_max: usize,
    view: LiveView,
    catchup: Catchup,
    try_payload_us: Vec<f64>,
    route_us: Vec<f64>,
    /// Process CPU seconds over the measured part of the phase.
    cpu_s: f64,
}

fn fanout_phase(seed: u64, seconds: f64, tracer: &Tracer, report: &mut Report) -> FanoutPhase {
    let mut out = FanoutPhase::default();
    let Fanout {
        front_end,
        hub,
        log,
        conn,
        clients,
    } = match Fanout::start() {
        Ok(f) => f,
        Err(e) => {
            report.op(Err(e));
            return out;
        }
    };
    let addr = front_end.addr();
    let inbox = front_end.inbox();
    let metrics = front_end.metrics();
    let head = AtomicU64::new(hub.latest_sequence());
    let stop_catchup = AtomicBool::new(false);
    let stop_viewer = Arc::new(AtomicBool::new(false));
    let viewer = Viewer::holding(hub.latest_sequence(), &log).expect("the history is logged");
    let encodes_before = hub.encode_count();
    let cpu_before = host::cpu_s();
    let start = Instant::now();
    out.start = Some(start);
    std::thread::scope(|scope| {
        let view = {
            let (log, stop, tracer) = (log.clone(), stop_viewer.clone(), tracer.clone());
            scope.spawn(move || live_viewer(addr, viewer, log, stop, tracer))
        };
        let catchup = {
            let (clients, head, log, stop) = (&clients, &head, &log, &stop_catchup);
            scope.spawn(move || catchup_stream(conn, clients, head, log, seed, stop, tracer))
        };
        let mut step = HISTORY;
        let mut due = start;
        while due < start + Duration::from_secs_f64(seconds) {
            let frame = synth_web_frame(step, IMAGE, IMAGE);
            step += 1;
            wait_until(due);
            let sent = Instant::now();
            let (seq, us) = publish_logged(&hub, &log, frame, tracer);
            head.store(seq, Ordering::SeqCst);
            out.publishes.push((due, sent));
            out.publish_us.push(us);
            out.queue_max = out.queue_max.max(metrics.snapshot().queue_depth);
            // The visualization side drains steering between frames.
            let _ = inbox.drain_latest();
            due += PUBLISH_EVERY;
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        out.encodes = hub.encode_count() - encodes_before;
        // The catch-up connection stops first and reads /api/stats while
        // the live viewer is still parked in its long poll.
        stop_catchup.store(true, Ordering::SeqCst);
        out.catchup = catchup.join().expect("catch-up thread panicked");
        stop_viewer.store(true, Ordering::SeqCst);
        out.view = view.join().expect("viewer thread panicked");
    });
    out.cpu_s = host::cpu_s() - cpu_before;
    if tracer.enabled() {
        in_process_probes(&hub, &front_end, &clients, seed, &mut out);
    }
    front_end.shutdown();
    out
}

/// Time the hub's payload lookup and the poll route in-process, at the
/// workload's seeded lags.  A frame is published before every
/// [`PROBES_PER_FRAME`] probes, as the live run interleaves them, so
/// composed chains are timed both when first encoded and when cached.
fn in_process_probes(
    hub: &SessionHub,
    front_end: &FrontEndServer,
    clients: &[u64],
    seed: u64,
    out: &mut FanoutPhase,
) {
    const PROBES_PER_FRAME: usize = 20;
    let mut rng = Rng::new(seed, 4);
    let inbox = front_end.inbox();
    let metrics = front_end.metrics();
    for probe in 0..400 {
        if probe % PROBES_PER_FRAME == 0 {
            hub.publish(synth_web_frame(
                hub.latest_sequence() + HISTORY,
                IMAGE,
                IMAGE,
            ));
        }
        let since = hub
            .latest_sequence()
            .saturating_sub(catchup_lag(&mut rng))
            .max(1);
        let t = Instant::now();
        std::hint::black_box(hub.try_payload(since, PollMode::Delta));
        out.try_payload_us.push(t.elapsed().as_secs_f64() * 1e6);
        let client = clients[rng.int(0, clients.len() as u64 - 1) as usize];
        let query: HashMap<String, String> = [
            ("client", client.to_string()),
            ("since", since.to_string()),
            ("mode", "delta".to_string()),
            ("timeout_ms", "1000".to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let request = HttpRequest {
            method: "GET".into(),
            path: "/api/poll".into(),
            version: "HTTP/1.1".into(),
            query,
            headers: HashMap::new(),
            body: Vec::new(),
            connection: 0,
        };
        let t = Instant::now();
        let response: Option<HttpResponse> = match route(hub, &inbox, &metrics, request) {
            Outcome::Ready(r) => Some(r),
            Outcome::Pending(mut pending) => pending(),
        };
        std::hint::black_box(response);
        out.route_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
}

/// Windows for serving-layer statistics: ~250 live deliveries, and
/// thousands of catch-up polls, each.
const DELIVERY_WINDOW_S: f64 = 10.0;
const CATCHUP_WINDOW_S: f64 = 5.0;

/// Live delivery latency (publish → receipt) and catch-up round trips,
/// stamped by when they happened.
fn fanout_series(phase: &FanoutPhase) -> (Series, Series) {
    let start = phase.start.unwrap_or_else(Instant::now);
    let mut delivery = Series::default();
    for d in &phase.view.deliveries {
        delivery.push(since(start, d.1), d.3);
    }
    let mut rtt = Series::default();
    for &(sent, ms) in &phase.catchup.rtt_ms {
        rtt.push(since(start, sent), ms);
    }
    (delivery, rtt)
}

fn gate_fanout(phase: &FanoutPhase, report: &mut Report) {
    for _ in 0..phase.view.deliveries.len() as u64 + phase.catchup.ok + phase.catchup.steers {
        report.op::<()>(Ok(()));
    }
    for e in phase.view.errors.iter().chain(&phase.catchup.errors) {
        report.op(Err(e));
    }
    if phase.view.deliveries.is_empty() || phase.catchup.ok == 0 {
        report.fail("a generator connection delivered nothing".into());
    }
}

/// The serving layer alone: synthetic frames published open-loop at a
/// fixed rate, one live delta long-poller, and one closed-loop stream of
/// catch-up polls with steering POSTs interleaved.
pub fn viewer_fanout(seed: u64, phases: Phases) -> Report {
    let mut report = Report::default();
    let base = fanout_phase(seed, phases.base_s, &Tracer::new(false), &mut report);
    gate_fanout(&base, &mut report);
    let (delivery, rtt) = fanout_series(&base);
    let catchup_rps = rtt
        .windowed_rate(CATCHUP_WINDOW_S, base.elapsed_s)
        .unwrap_or(f64::NAN);
    report.lateness_ms = lateness_p90(base.publishes.iter().copied());
    if !phases.traced() {
        let frames = base.view.deliveries.len() + base.catchup.ok as usize;
        let bytes = base.view.wire_bytes + base.catchup.wire_bytes;
        // Set-ups are timed after the measured phase, on a warmed host.
        let (setup_s, setup_n) = setup_median(|| match Fanout::start() {
            Ok(f) => f.front_end.shutdown(),
            Err(e) => panic!("front end set-up failed: {e}"),
        });
        report.put("setup_s", setup_s, "s", setup_n);
        report.put_windowed("delivery_p50_ms", &delivery, DELIVERY_WINDOW_S, 0.5, "ms");
        report.put_per("cpu_ms_per_frame", base.cpu_s * 1e3, frames, "ms");
        report.put("catchup_rps", catchup_rps, "1/s", base.catchup.ok as usize);
        report.put(
            "wire_bytes_per_frame",
            bytes as f64 / frames.max(1) as f64,
            "B",
            frames,
        );
        return report;
    }
    // The two tails are taken with tracing off, but carry no bound: they
    // follow host steal (quartile spreads over ten seeds of 0.43 for the
    // catch-up p90 at 4-17 % steal, 0.29 for the delivery p90 at 16-30 %).
    report.put_windowed("delivery_p90_ms", &delivery, DELIVERY_WINDOW_S, 0.9, "ms");
    report.put_windowed("catchup_p90_ms", &rtt, CATCHUP_WINDOW_S, 0.9, "ms");
    let tracer = Tracer::new(true);
    let traced = fanout_phase(seed, phases.traced_s, &tracer, &mut report);
    gate_fanout(&traced, &mut report);
    report.spans = tracer.spans();
    let published = traced.publish_us.len();
    let mut kinds = traced.view.kinds;
    kinds.merge(traced.catchup.kinds);
    report.layers = LayerCounts {
        frames: traced.view.deliveries.len() as u64 + traced.catchup.ok,
        published: published as u64,
        encodes: traced.encodes,
        replies: kinds.total(),
        deltas: kinds.delta,
        ..LayerCounts::default()
    };
    let route = Dist::new(traced.route_us.clone());
    let (_, traced_rtt) = fanout_series(&traced);
    let rtt = traced_rtt.dist();
    report.put_pct(
        "hub.publish_us",
        &Dist::new(traced.publish_us.clone()),
        0.5,
        1.0,
        "us",
    );
    report.put_pct(
        "hub.try_payload_us",
        &Dist::new(traced.try_payload_us.clone()),
        0.5,
        1.0,
        "us",
    );
    report.put(
        "hub.chain_share",
        kinds.share(kinds.chain),
        "ratio",
        kinds.total() as usize,
    );
    report.put(
        "hub.resync_share",
        kinds.share(kinds.resync),
        "ratio",
        kinds.total() as usize,
    );
    report.put_pct("route.poll_us", &route, 0.5, 1.0, "us");
    if let (Some(rtt), Some(route)) = (rtt.median(), route.median()) {
        report.put(
            "http.socket_us",
            rtt * 1e3 - route,
            "us",
            traced.catchup.rtt_ms.len(),
        );
    }
    report.put(
        "http.run_queue_max",
        traced.queue_max as f64,
        "count",
        published,
    );
    report.put("http.parked", traced.catchup.parked, "count", 1);
    if let Some(traced_rps) = traced_rtt.windowed_rate(CATCHUP_WINDOW_S, traced.elapsed_s) {
        report.put(
            "trace.overhead_pct",
            100.0 * (catchup_rps / traced_rps - 1.0),
            "%",
            traced.catchup.ok as usize,
        );
    }
    report.lateness_ms = lateness_p90(traced.publishes.iter().copied());
    report
}
