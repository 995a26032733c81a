//! Multi-session serving: many frame-paced user loops on one WAN.
//!
//! One RICSA deployment serves many users at once, each steering their own
//! pipeline.  All those loops run against the *same* simulated WAN — the
//! sessions contend for links, and one session's traffic is another
//! session's cross-traffic.  This module is the session manager:
//!
//! * [`SessionMux`] — the per-node application that lets several sessions'
//!   [`StageApp`]s share a node: datagrams are routed by the session
//!   encoded in their flow id (or control-message session field), and
//!   timers are routed to the stage that armed them.  Sessions can be
//!   inserted and removed while the simulation runs, which is how loops
//!   spawn and retire live.
//! * [`run_multi_session`] — spawns N frame-paced loops on one
//!   [`Simulator`], maps them under a [`MappingPolicy`] (independent
//!   per-session solves, the contention-aware joint solve of
//!   [`ricsa_pipemap::joint`], or the client/server baseline), drives
//!   every loop concurrently, and audits per session that every requested
//!   frame is delivered exactly once.
//! * Per-session adaptive monitors ([`ricsa_adapt`]) ingest each loop's
//!   own passive telemetry.  Because links are shared, a monitor's
//!   estimates move when *other* sessions load or free a link: a retiring
//!   (or migrating) session frees bandwidth and the survivors' detectors
//!   see the recovery.  With `adaptive` enabled, a confirmed improvement
//!   migrates the session at its next frame boundary by the quiesce →
//!   teardown → VRT-handoff → resume protocol (DESIGN.md §8.5).
//!
//! The same driver runs the single adaptive loop of [`crate::adapt`] as
//! one session, so every externally paced loop in the crate shares one
//! frame wait, one stage installer, one migration routine and one frame
//! audit.  Only the paper's client-driven Fig. 9 loop
//! ([`crate::session::SteeringSession`]) paces itself.
//! * [`contention_wan`] — the N-session benchmark WAN: every session has a
//!   fast route over a shared two-hub trunk and a private (slightly
//!   slower) relay route.  Independent solves all pile onto the trunk;
//!   the joint solve spreads the load.
//!
//! DESIGN.md §11 documents the layer; the `session_sweep` bench bin
//! quantifies joint-vs-independent-vs-client/server across session counts.

use crate::adapt::{AdaptPolicy, MigrationRecord};
use crate::message::{ControlMessage, CONTROL_REDUNDANCY, KIND_CONTROL};
use crate::stage::{stage_configs, FrameAudit, LinkTelemetrySink, StageApp, StageConfig};
use ricsa_adapt::monitor::{AdaptConfig, AdaptMonitor, Decision, DecisionRecord};
use ricsa_netsim::app::{Application, Context};
use ricsa_netsim::dynamics::{apply_event_to_topology, DynamicScenario, LinkChange, LinkEvent};
use ricsa_netsim::link::{LinkId, LinkSpec};
use ricsa_netsim::node::{NodeId, NodeSpec};
use ricsa_netsim::packet::{Datagram, Payload};
use ricsa_netsim::sim::Simulator;
use ricsa_netsim::time::SimTime;
use ricsa_netsim::topology::Topology;
use ricsa_pipemap::delay::{evaluate_mapping, Mapping};
use ricsa_pipemap::dp::{optimize_with, OptimizedMapping};
use ricsa_pipemap::joint::{contended_delays, solve_joint, JointOptions, JointSession};
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::pipeline::Pipeline;
use ricsa_pipemap::sweep::client_server_on_route;
use ricsa_pipemap::vrt::VisualizationRoutingTable;
use ricsa_transport::flow::{KIND_ACK, KIND_DATA};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

// ------------------------------------------------------------ session mux

/// Mutable state shared between a node's installed mux shell and the
/// session manager's handle to it.
struct MuxState {
    /// Session id → that session's stage on this node.
    inners: BTreeMap<u64, StageApp>,
    /// Timer id → the session whose stage armed it.  Ids are per-node
    /// monotonic and fire at most once, so entries are removed on fire;
    /// a timer whose owner has since been removed is dropped.
    timer_owner: HashMap<u64, u64>,
}

/// Route one callback into a session's inner stage, recording any timers
/// the stage arms during the callback as owned by that session.
fn deliver(
    state: &mut MuxState,
    session: u64,
    ctx: &mut Context,
    f: impl FnOnce(&mut StageApp, &mut Context),
) {
    let MuxState {
        inners,
        timer_owner,
    } = state;
    let Some(app) = inners.get_mut(&session) else {
        return;
    };
    let before: HashSet<u64> = ctx.scheduled_timers().iter().map(|t| t.timer_id).collect();
    f(app, ctx);
    for t in ctx.scheduled_timers() {
        if !before.contains(&t.timer_id) {
            timer_owner.insert(t.timer_id, session);
        }
    }
}

/// The session a datagram belongs to: the session field of a control
/// message when it has one, otherwise the high bits of the transport flow
/// id ([`crate::stage::flow_id`] packs the session at bit 40).  `None`
/// means "no session identity" and the datagram is offered to every
/// resident stage (each filters by its own configuration).
fn datagram_session(payload: &Payload) -> Option<u64> {
    if payload.kind == KIND_CONTROL {
        return match ControlMessage::from_payload(payload)? {
            ControlMessage::VrtDelivery { session, .. }
            | ControlMessage::BeginIteration { session, .. }
            | ControlMessage::ImageReady { session, .. } => Some(session),
            _ => None,
        };
    }
    match payload.kind {
        KIND_DATA | KIND_ACK => Some(payload.flow >> 40),
        _ => None,
    }
}

/// A node application multiplexing the pipeline stages of many sessions.
///
/// The shell installed into the simulator and the handles the session
/// manager keeps share one [`Rc`]'d state, so stages can be inserted and
/// removed while the simulation runs — that is how sessions spawn, retire
/// and migrate live.  Late-inserted stages do not receive `on_start`
/// (this manager never configures a client drive, whose initial request
/// is the only thing `StageApp::on_start` does).
pub struct SessionMux {
    state: Rc<RefCell<MuxState>>,
}

impl Clone for SessionMux {
    fn clone(&self) -> Self {
        SessionMux {
            state: Rc::clone(&self.state),
        }
    }
}

impl Default for SessionMux {
    fn default() -> Self {
        SessionMux::new()
    }
}

impl SessionMux {
    /// An empty mux.
    pub fn new() -> Self {
        SessionMux {
            state: Rc::new(RefCell::new(MuxState {
                inners: BTreeMap::new(),
                timer_owner: HashMap::new(),
            })),
        }
    }

    /// Insert (or replace) `session`'s stage on this node.
    pub fn insert(&self, session: u64, app: StageApp) {
        self.state.borrow_mut().inners.insert(session, app);
    }

    /// Remove `session`'s stage; its not-yet-fired timers will be dropped
    /// when they fire.  Returns whether a stage was resident.
    pub fn remove(&self, session: u64) -> bool {
        self.state.borrow_mut().inners.remove(&session).is_some()
    }

    /// Session ids with a resident stage, ascending.
    pub fn sessions(&self) -> Vec<u64> {
        self.state.borrow().inners.keys().copied().collect()
    }

    /// A shell sharing this mux's state, boxed for [`Simulator::install`].
    pub fn shell(&self) -> Box<dyn Application> {
        Box::new(self.clone())
    }
}

impl Application for SessionMux {
    fn on_start(&mut self, ctx: &mut Context) {
        let state = &mut *self.state.borrow_mut();
        let ids: Vec<u64> = state.inners.keys().copied().collect();
        for session in ids {
            deliver(state, session, ctx, |app, ctx| app.on_start(ctx));
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context, dg: Datagram) {
        let state = &mut *self.state.borrow_mut();
        match datagram_session(&dg.payload) {
            Some(session) => deliver(state, session, ctx, |app, ctx| app.on_datagram(ctx, dg)),
            None => {
                let ids: Vec<u64> = state.inners.keys().copied().collect();
                for session in ids {
                    let copy = dg.clone();
                    deliver(state, session, ctx, |app, ctx| app.on_datagram(ctx, copy));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, timer_id: u64) {
        let state = &mut *self.state.borrow_mut();
        let Some(session) = state.timer_owner.remove(&timer_id) else {
            return;
        };
        deliver(state, session, ctx, |app, ctx| app.on_timer(ctx, timer_id));
    }
}

// -------------------------------------------------------------- the spec

/// How the manager maps the contending sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingPolicy {
    /// Every session solves the pristine graph in isolation (and they all
    /// pile onto the same "optimal" links).
    Independent,
    /// The contention-aware joint solve of [`ricsa_pipemap::joint`].
    Joint,
    /// The paper's client/server baseline: ship everything over the
    /// default route and compute at the endpoints.
    ClientServer,
}

impl MappingPolicy {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            MappingPolicy::Independent => "independent",
            MappingPolicy::Joint => "joint",
            MappingPolicy::ClientServer => "client-server",
        }
    }
}

/// One user loop in a multi-session run.
#[derive(Debug, Clone)]
pub struct SessionLoopSpec {
    /// Session identifier (flow-id namespace; must be unique and below
    /// `2^24` so it fits the flow-id session bits).
    pub id: u64,
    /// The session's visualization pipeline.
    pub pipeline: Pipeline,
    /// Data-source node (must be unique per session: frame starts are
    /// attributed to sessions by source node).
    pub source: NodeId,
    /// Client node (must be unique per session: frame completions are
    /// attributed to sessions by client node).
    pub client: NodeId,
    /// Frames to pull through the loop before the session retires.
    pub frames: u64,
    /// Virtual time at which the loop spawns (0 = at simulation start).
    pub start_at: f64,
}

/// Everything one multi-session run is configured with.
#[derive(Debug, Clone)]
pub struct MultiSessionSpec {
    /// The shared WAN.
    pub topology: Topology,
    /// Central-management node (injects `BeginIteration` and VRT
    /// handoffs; must not be any session's data source).
    pub cm: NodeId,
    /// The user loops.
    pub sessions: Vec<SessionLoopSpec>,
    /// How the sessions are mapped.
    pub policy: MappingPolicy,
    /// Simulator seed.
    pub seed: u64,
    /// Target goodput of the stage-to-stage flows, bytes/second.
    pub target_goodput: f64,
    /// Wire a per-session [`AdaptMonitor`] and migrate a session at its
    /// frame boundary when its monitor confirms a better mapping.
    /// Monitors also run (estimates only) when this is off.
    pub adaptive: bool,
    /// Monitor configuration (also supplies the DP options every policy
    /// solves with).
    pub adapt: AdaptConfig,
    /// Round bound for the joint best-response iteration.
    pub joint_rounds: usize,
    /// Virtual-time budget for the whole run.
    pub max_virtual_time: SimTime,
}

// ------------------------------------------------------------- the result

/// Per-session outcome of a multi-session run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRun {
    /// Session identifier.
    pub id: u64,
    /// Data paths used, in order (initial mapping, then one per
    /// migration).
    pub paths: Vec<Vec<usize>>,
    /// Frames requested.
    pub requested: u64,
    /// Distinct frames delivered to the client.
    pub completed: u64,
    /// Requested frames never delivered (0 on a healthy run).
    pub lost: u64,
    /// Extra deliveries of an already-delivered frame (0 on a healthy
    /// run).
    pub duplicated: u64,
    /// Measured end-to-end delay of each completed frame, frame order.
    pub delays: Vec<f64>,
    /// Virtual start time of each completed frame, frame order.
    pub starts: Vec<f64>,
    /// Migrations executed.
    pub migrations: u64,
    /// Virtual time the loop spawned.
    pub spawned_at: f64,
    /// Virtual time the loop retired (`None` if it ran out the budget).
    pub retired_at: Option<f64>,
    /// Frames per virtual second over the session's active window.
    pub fps: f64,
    /// Final per-link bandwidth-scale estimates of the session's monitor
    /// (`(from, to, current/baseline goodput)`): > 1 on a link whose
    /// congestion receded while the session watched it.
    pub link_scales: Vec<(usize, usize, f64)>,
}

/// The outcome of one multi-session run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiSessionRun {
    /// Mapping policy name.
    pub policy: String,
    /// Per-session outcomes, spec order.
    pub sessions: Vec<SessionRun>,
    /// Virtual time the run ended.
    pub duration: f64,
    /// Total completed frames across sessions divided by the virtual time
    /// from first spawn to last completion.
    pub aggregate_fps: f64,
    /// Jain fairness index of the per-session frame rates.
    pub fairness: f64,
    /// The solver's predicted aggregate frame delay, scored for every
    /// policy under the same contended model (each link's bandwidth
    /// divided by its total assigned load), so values are comparable
    /// across policies.
    pub predicted_aggregate: f64,
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 when every session gets the
/// same rate, `1/n` when one session gets everything.  1 for an empty (or
/// all-zero) input by convention.
pub fn jain_fairness(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let squares: f64 = rates.iter().map(|r| r * r).sum();
    if squares <= 0.0 || rates.is_empty() {
        return 1.0;
    }
    (sum * sum) / (rates.len() as f64 * squares)
}

// -------------------------------------------------------------- the WAN

/// The N-session contention WAN (see [`contention_wan`]).
#[derive(Debug, Clone)]
pub struct ContentionWan {
    /// The topology.
    pub topology: Topology,
    /// First trunk hub.
    pub hub1: NodeId,
    /// Second trunk hub.
    pub hub2: NodeId,
    /// Per-session data sources.
    pub sources: Vec<NodeId>,
    /// Per-session private relay nodes.
    pub mids: Vec<NodeId>,
    /// Per-session clients.
    pub clients: Vec<NodeId>,
    /// Central-management node.
    pub cm: NodeId,
    /// Both directions of the shared hub1–hub2 trunk.
    pub trunk: (LinkId, LinkId),
}

impl ContentionWan {
    /// The trunk's endpoint node indices `(hub1, hub2)` — a data path
    /// crosses the trunk iff these appear adjacent in it.
    pub fn trunk_nodes(&self) -> (usize, usize) {
        (self.hub1.0, self.hub2.0)
    }
}

/// Build the `n`-session contention WAN: session `i` owns source `S_i`,
/// relay `M_i` and client `C_i`.  The fast route `S_i → hub1 → hub2 → C_i`
/// shares the hub trunk with every other session; the private route
/// `S_i → M_i → C_i` is slightly slower but uncontended.  The hubs are
/// pure routers (weak, no graphics), so the bulk geometry must cross the
/// trunk rather than being rendered down before it.  In isolation the
/// trunk wins, so independent solves all pile onto it; with the trunk
/// split k ways the private route wins, which is what the joint solve
/// (and an adaptive monitor watching goodput collapse) discovers.
pub fn contention_wan(n: usize) -> ContentionWan {
    let mut t = Topology::new();
    let hub1 = t.add_node(NodeSpec::headless("hub1", 0.5));
    let hub2 = t.add_node(NodeSpec::headless("hub2", 0.5));
    let cm = t.add_node(NodeSpec::workstation("cm", 1.0));
    let trunk = t.connect(hub1, hub2, LinkSpec::from_mbps(320.0, 0.008));
    let mut sources = Vec::with_capacity(n);
    let mut mids = Vec::with_capacity(n);
    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let s = t.add_node(NodeSpec::headless(format!("src{i}"), 1.0));
        let m = t.add_node(NodeSpec::headless(format!("mid{i}"), 2.0));
        let c = t.add_node(NodeSpec::workstation(format!("client{i}"), 1.5));
        t.connect(s, hub1, LinkSpec::from_mbps(400.0, 0.004));
        t.connect(hub2, c, LinkSpec::from_mbps(400.0, 0.004));
        t.connect(s, m, LinkSpec::from_mbps(200.0, 0.012));
        t.connect(m, c, LinkSpec::from_mbps(200.0, 0.012));
        t.connect(cm, s, LinkSpec::from_mbps(80.0, 0.010));
        t.connect(cm, c, LinkSpec::from_mbps(80.0, 0.010));
        sources.push(s);
        mids.push(m);
        clients.push(c);
    }
    ContentionWan {
        topology: t,
        hub1,
        hub2,
        sources,
        mids,
        clients,
        cm,
        trunk,
    }
}

/// A transfer-dominated demonstration pipeline for multi-session runs;
/// `scale` varies the data volume so co-scheduled sessions differ.  The
/// geometry stays large until the final render (extraction enriches
/// rather than decimates), so the bulk transfer crosses whatever
/// wide-area link the mapping picks — which is what makes sessions
/// genuinely contend on a shared trunk.
pub fn demo_session_pipeline(scale: f64) -> Pipeline {
    use ricsa_pipemap::pipeline::ModuleSpec;
    Pipeline::new(
        "session",
        1.6e6 * scale,
        vec![
            ModuleSpec::new("filter", 2e-9, 1.6e6 * scale),
            ModuleSpec::new("extract", 1e-8, 1.2e6 * scale),
            ModuleSpec::new("render", 5e-9, 1.6e5 * scale).requiring_graphics(),
        ],
    )
}

// ------------------------------------------------------------ the driver

/// Drain window before a migration's teardown, virtual seconds: long
/// enough for the completed frame's final-ACK handshakes to settle, short
/// against any frame time.
const QUIESCE_S: f64 = 0.25;
/// Virtual time a migration waits after injecting the VRT handoff so the
/// control datagrams actually cross the WAN before the new loop is
/// declared live — the handoff is paid for, not teleported.  Must exceed
/// the one-way control latency of any supported topology.
const HANDOFF_SETTLE_S: f64 = 0.05;
/// Polling granularity of the frame-completion wait, virtual seconds.
const STEP_S: f64 = 0.25;
/// Begin re-injections tolerated per frame before a session is declared
/// stalled.
const MAX_RETRIES: u32 = 16;

/// What the driver records per session beyond [`SessionRun`]: the
/// executed migrations, the adaptive controller's decision trace, and
/// the wall-clock cost of the controller's re-solves.
#[derive(Default)]
pub(crate) struct SessionLog {
    /// Executed migrations, in order.
    pub migrations: Vec<MigrationRecord>,
    /// The monitor's decisions (adaptive controller only).
    pub decisions: Vec<DecisionRecord>,
    /// Wall-clock microseconds spent in the controller's re-solves (warm
    /// for adaptive, cold for oracle).
    pub solve_us: f64,
    /// Number of re-solves behind `solve_us`.
    pub solves: u64,
}

/// Live state of one session inside the driving loop.
struct LiveSession {
    spec: SessionLoopSpec,
    /// The deployed mapping, priced on the calibration graph.
    current: OptimizedMapping,
    /// The frame currently being pulled through the loop.
    frame: u64,
    retries: u32,
    spawned: bool,
    spawned_at: f64,
    done: bool,
    retired_at: Option<f64>,
    telemetry: LinkTelemetrySink,
    /// Passive estimator of the links the session uses; it decides
    /// re-maps only under the adaptive controller.
    monitor: AdaptMonitor,
    pending_remap: Option<Box<OptimizedMapping>>,
    log: SessionLog,
}

/// Solve the initial mappings under the spec's policy.  Returns one
/// `(mapping, predicted total delay)` per session; the second element of
/// the tuple is the solver's predicted aggregate.
fn solve_mappings(
    spec: &MultiSessionSpec,
    graph: &NetGraph,
) -> Result<(Vec<(Mapping, f64)>, f64), String> {
    let joint_sessions: Vec<JointSession> = spec
        .sessions
        .iter()
        .map(|s| JointSession {
            pipeline: s.pipeline.clone(),
            source: s.source.0,
            destination: s.client.0,
        })
        .collect();
    let mappings: Vec<Mapping> = match spec.policy {
        MappingPolicy::Independent => {
            let mut out = Vec::with_capacity(spec.sessions.len());
            for s in &spec.sessions {
                let (opt, _) = optimize_with(
                    &s.pipeline,
                    graph,
                    s.source.0,
                    s.client.0,
                    &spec.adapt.options,
                );
                let opt = opt.ok_or_else(|| format!("session {}: no feasible mapping", s.id))?;
                out.push(opt.mapping);
            }
            out
        }
        MappingPolicy::Joint => {
            let options = JointOptions {
                max_rounds: spec.joint_rounds,
                dp: spec.adapt.options,
            };
            let solution = solve_joint(&joint_sessions, graph, &options)
                .ok_or_else(|| "joint solve: some session has no feasible mapping".to_string())?;
            solution.mappings
        }
        MappingPolicy::ClientServer => {
            let mut out = Vec::with_capacity(spec.sessions.len());
            for s in &spec.sessions {
                let (mapping, _) =
                    client_server_on_route(&s.pipeline, graph, s.source.0, s.client.0)
                        .ok_or_else(|| format!("session {}: no route at all", s.id))?;
                out.push(mapping);
            }
            out
        }
    };
    // Predict every policy's outcome under the same contended model (each
    // link's bandwidth divided by its total assigned load), so aggregates
    // are comparable across policies — and the joint policy's guarantee
    // (never worse than independent under this objective) is visible in
    // the run records.
    let contended = contended_delays(&joint_sessions, graph, &mappings);
    let aggregate = contended.iter().map(|d| d.total).sum();
    Ok((
        mappings
            .into_iter()
            .zip(contended)
            .map(|(m, d)| (m, d.total))
            .collect(),
        aggregate,
    ))
}

/// The driver's shared state: one simulator, the per-node muxes, and the
/// oracle's ground truth.
struct Driver<'a> {
    spec: &'a MultiSessionSpec,
    schedule: &'a DynamicScenario,
    control: AdaptPolicy,
    sim: Simulator,
    muxes: BTreeMap<usize, SessionMux>,
    /// The schedule replayed onto a topology copy, up to `truth_applied`
    /// events: the true link state the oracle re-solves on.
    truth: Topology,
    truth_applied: usize,
}

impl Driver<'_> {
    /// Install one session's stages (its current mapping) into the
    /// per-node muxes, installing a mux shell on nodes that host no
    /// session yet.
    fn install(&mut self, session: &LiveSession, first_iteration: u64) -> Result<(), String> {
        let mapping = &session.current;
        let path = &mapping.mapping.path;
        for (i, node) in path.iter().enumerate() {
            if path[i + 1..].contains(node) {
                return Err(format!(
                    "session {}: data path revisits node {node}: {path:?}",
                    session.spec.id
                ));
            }
        }
        let graph = NetGraph::from_topology(self.sim.topology());
        let vrt = VisualizationRoutingTable::from_mapping(
            &session.spec.pipeline,
            &graph,
            &mapping.mapping,
            mapping.delay.total,
        );
        let configs = stage_configs(
            session.spec.id,
            &session.spec.pipeline,
            &graph,
            &mapping.mapping,
            &vrt,
            self.spec.target_goodput,
        );
        for (config, &node) in configs.into_iter().zip(path) {
            let config = StageConfig {
                first_iteration,
                telemetry: Some(session.telemetry.clone()),
                ..config
            };
            let mux = self.muxes.entry(node).or_default();
            let fresh = mux.sessions().is_empty();
            mux.insert(session.spec.id, StageApp::new(config));
            if fresh {
                self.sim.install(NodeId(node), mux.shell());
            }
        }
        Ok(())
    }

    /// Remove one session's stages from the muxes along `path`.  A mux
    /// left empty is taken out of the simulator, so stale traffic for that
    /// node finds no application, as on a node that never hosted a stage.
    fn remove(&mut self, session: u64, path: &[usize]) {
        for node in path {
            if let Some(mux) = self.muxes.get(node) {
                mux.remove(session);
                if mux.sessions().is_empty() {
                    self.sim.take_app(NodeId(*node));
                }
            }
        }
    }

    /// Inject a redundant `BeginIteration` for the session's current frame
    /// from the CM to its source.
    fn inject_begin(&mut self, session: &LiveSession) {
        let begin = ControlMessage::BeginIteration {
            session: session.spec.id,
            iteration: session.frame,
        };
        for _ in 0..CONTROL_REDUNDANCY {
            self.sim
                .inject(self.spec.cm, session.spec.source, begin.to_payload());
        }
    }

    /// Request the session's current frame: first let the controller pick
    /// the mapping it runs on (migrating if that changed), then inject the
    /// request.
    fn begin_frame(&mut self, session: &mut LiveSession) -> Result<(), String> {
        let next = match self.control {
            AdaptPolicy::Oracle => self.oracle_solve(session),
            AdaptPolicy::Static | AdaptPolicy::Adaptive => session.pending_remap.take().map(|b| *b),
        };
        if let Some(next) = next {
            self.migrate(session, next)?;
        }
        self.inject_begin(session);
        Ok(())
    }

    /// Re-solve the session from scratch on the true current link state;
    /// `Some` when the optimum differs from the deployed mapping.
    fn oracle_solve(&mut self, session: &mut LiveSession) -> Option<OptimizedMapping> {
        let now = self.sim.now().as_secs();
        let events = &self.schedule.events;
        while self.truth_applied < events.len() && events[self.truth_applied].at.as_secs() <= now {
            apply_event_to_topology(
                &mut self.truth,
                &self.spec.topology,
                &events[self.truth_applied],
            );
            self.truth_applied += 1;
        }
        let graph = NetGraph::from_topology(&self.truth);
        let s = &session.spec;
        let started = std::time::Instant::now();
        let (opt, _) = optimize_with(
            &s.pipeline,
            &graph,
            s.source.0,
            s.client.0,
            &self.spec.adapt.options,
        );
        session.log.solve_us += started.elapsed().as_secs_f64() * 1e6;
        session.log.solves += 1;
        // Any mapping change counts — a shifted module grouping on the
        // same path is still a different (better) deployment.
        opt.filter(|o| o.mapping != session.current.mapping)
    }

    /// Migrate one session at its frame boundary (DESIGN.md §8.5):
    /// quiesce, tear its stages out of the muxes, pay for the VRT handoff
    /// on the control channel, and resume on the new path from the frame
    /// about to be requested, so stale datagrams from the pre-migration
    /// flows can never open a receiver.  Other sessions keep running
    /// throughout — the quiesce and settle windows advance the whole
    /// simulation.
    fn migrate(&mut self, session: &mut LiveSession, next: OptimizedMapping) -> Result<(), String> {
        let drain_until = SimTime::from_secs(self.sim.now().as_secs() + QUIESCE_S);
        self.sim.run_until(drain_until);
        self.remove(session.spec.id, &session.current.mapping.path);
        let graph = NetGraph::from_topology(self.sim.topology());
        let delivery = ControlMessage::VrtDelivery {
            session: session.spec.id,
            table: VisualizationRoutingTable::from_mapping(
                &session.spec.pipeline,
                &graph,
                &next.mapping,
                next.delay.total,
            ),
        };
        let mut handoff_messages = 0u64;
        for &node in &next.mapping.path {
            if NodeId(node) == self.spec.cm {
                continue; // the CM already holds the table
            }
            for _ in 0..CONTROL_REDUNDANCY {
                self.sim
                    .inject(self.spec.cm, NodeId(node), delivery.to_payload());
                handoff_messages += 1;
            }
        }
        let old = std::mem::replace(&mut session.current, next);
        self.install(session, session.frame)?;
        let settle_until = SimTime::from_secs(self.sim.now().as_secs() + HANDOFF_SETTLE_S);
        self.sim.run_until(settle_until);
        session.log.migrations.push(MigrationRecord {
            at: self.sim.now().as_secs(),
            first_iteration: session.frame,
            old_path: old.mapping.path,
            new_path: session.current.mapping.path.clone(),
            predicted_old: old.delay.total,
            predicted_new: session.current.delay.total,
            handoff_messages,
        });
        Ok(())
    }
}

/// Run N frame-paced user loops concurrently on one simulated WAN.
/// Errors only on structurally impossible input: duplicate session
/// ids/sources/clients, the CM on a data source, an id overflowing the
/// flow-id session bits, or a session with no feasible mapping.
pub fn run_multi_session(spec: &MultiSessionSpec) -> Result<MultiSessionRun, String> {
    let control = if spec.adaptive {
        AdaptPolicy::Adaptive
    } else {
        AdaptPolicy::Static
    };
    let no_events = DynamicScenario {
        label: String::new(),
        seed: spec.seed,
        events: Vec::new(),
    };
    drive(spec, &no_events, control).map(|(run, _)| run)
}

/// The frame-paced loop driver behind [`run_multi_session`] and
/// [`crate::adapt::run_adaptive_loop`]: maps the sessions, applies the
/// link-event `schedule`, and pulls every session's frames through its
/// loop, requesting frame `k` only after frame `k-1` reached the client.
/// At each frame boundary `control` may move a session to a new mapping
/// through [`Driver::migrate`].
pub(crate) fn drive(
    spec: &MultiSessionSpec,
    schedule: &DynamicScenario,
    control: AdaptPolicy,
) -> Result<(MultiSessionRun, Vec<SessionLog>), String> {
    // Structural validation: the audit attributes frames by node.
    let mut ids = HashSet::new();
    let mut sources = HashSet::new();
    let mut clients = HashSet::new();
    for s in &spec.sessions {
        if s.id >= 1 << 24 {
            return Err(format!("session id {} overflows the flow-id bits", s.id));
        }
        if !ids.insert(s.id) {
            return Err(format!("duplicate session id {}", s.id));
        }
        if !sources.insert(s.source) {
            return Err(format!("session {}: duplicate source node", s.id));
        }
        if !clients.insert(s.client) {
            return Err(format!("session {}: duplicate client node", s.id));
        }
        if s.source == spec.cm {
            return Err(format!(
                "session {}: the CM must not be a data source",
                s.id
            ));
        }
        if s.frames == 0 {
            return Err(format!("session {}: zero frames requested", s.id));
        }
    }

    let base_graph = NetGraph::from_topology(&spec.topology);
    let (solved, predicted_aggregate) = solve_mappings(spec, &base_graph)?;

    let mut sim = Simulator::new(spec.topology.clone(), spec.seed);
    sim.apply_scenario(schedule);
    // The simulator clock only advances while events are queued; if every
    // live loop retires while a later `start_at` is still pending, the WAN
    // goes idle and time would stand still.  A no-op link event
    // (bandwidth × 1.0) at each future spawn keeps the queue alive up to
    // that moment.
    let wakeups: Vec<LinkEvent> = spec
        .sessions
        .iter()
        .filter(|s| s.start_at > 0.0)
        .map(|s| LinkEvent {
            at: SimTime::from_secs(s.start_at),
            link: LinkId(0),
            change: LinkChange::ScaleBandwidth { factor: 1.0 },
        })
        .collect();
    if !wakeups.is_empty() {
        sim.apply_scenario(&DynamicScenario {
            label: "spawn-wakeups".to_string(),
            seed: spec.seed,
            events: wakeups,
        });
    }
    let mut driver = Driver {
        spec,
        schedule,
        control,
        sim,
        muxes: BTreeMap::new(),
        truth: spec.topology.clone(),
        truth_applied: 0,
    };
    let mut audit = FrameAudit::default();

    let mut live: Vec<LiveSession> = spec
        .sessions
        .iter()
        .zip(solved)
        .map(|(s, (mapping, predicted))| {
            let current = OptimizedMapping {
                delay: evaluate_mapping(&s.pipeline, &base_graph, &mapping),
                mapping,
                objective: predicted,
            };
            let monitor = AdaptMonitor::with_initial(
                s.pipeline.clone(),
                base_graph.clone(),
                s.source.0,
                s.client.0,
                spec.adapt.clone(),
                current.clone(),
            );
            LiveSession {
                spec: s.clone(),
                current,
                frame: 0,
                retries: 0,
                spawned: false,
                spawned_at: 0.0,
                done: false,
                retired_at: None,
                telemetry: LinkTelemetrySink::default(),
                monitor,
                pending_remap: None,
                log: SessionLog::default(),
            }
        })
        .collect();

    // Spawn the loops due at t = 0 before the first step.
    for session in live.iter_mut() {
        if session.spec.start_at <= 0.0 {
            driver.install(session, 0)?;
            driver.begin_frame(session)?;
            session.spawned = true;
        }
    }

    while live.iter().any(|s| !s.done) {
        if driver.sim.now() >= spec.max_virtual_time {
            break;
        }
        let target =
            SimTime::from_secs(driver.sim.now().as_secs() + STEP_S).min(spec.max_virtual_time);
        let reached = driver.sim.run_until(target);
        audit.update(&driver.sim);
        let drained = reached.as_secs() + 1e-9 < target.as_secs();
        let now = driver.sim.now().as_secs();

        for session in live.iter_mut() {
            // Late spawns join the contention when their time comes.
            if !session.spawned && now >= session.spec.start_at {
                session.spawned = true;
                session.spawned_at = now;
                driver.install(session, 0)?;
                driver.begin_frame(session)?;
                continue;
            }
            if session.done || !session.spawned {
                continue;
            }
            if audit
                .completions
                .contains_key(&(session.spec.client.0, session.frame))
            {
                // Frame boundary: feed the monitor this frame's telemetry
                // (sorted link order keeps the decision trace
                // deterministic) and collect any migration decision.
                session.retries = 0;
                let snapshot: BTreeMap<(usize, usize), _> = session
                    .telemetry
                    .borrow()
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect();
                for ((from, to), t) in snapshot {
                    session.monitor.ingest(from, to, &t);
                }
                if let Decision::Remap(opt) = session.monitor.evaluate(now) {
                    if control == AdaptPolicy::Adaptive {
                        session.pending_remap = Some(opt);
                    }
                }
                if session.frame + 1 >= session.spec.frames {
                    // Retire: the loop is complete; free its links.
                    session.done = true;
                    session.retired_at = Some(now);
                    driver.remove(session.spec.id, &session.current.mapping.path);
                    continue;
                }
                session.frame += 1;
                driver.begin_frame(session)?;
            } else if drained {
                // The whole event queue drained with this frame missing:
                // every redundant Begin copy was lost.  Re-inject, bounded.
                session.retries += 1;
                if session.retries > MAX_RETRIES {
                    session.done = true;
                } else {
                    driver.inject_begin(session);
                }
            }
        }
    }

    // Final audit pass, then per-session accounting.
    audit.update(&driver.sim);
    let end = driver.sim.now().as_secs();
    let mut runs = Vec::with_capacity(live.len());
    let mut logs = Vec::with_capacity(live.len());
    let mut total_completed = 0u64;
    let mut last_completion: f64 = 0.0;
    let mut rates = Vec::with_capacity(live.len());
    for mut session in live {
        let requested = if session.spawned {
            (session.frame + 1).min(session.spec.frames)
        } else {
            0
        };
        let client = session.spec.client.0;
        let source = session.spec.source.0;
        let mut delays = Vec::new();
        let mut starts = Vec::new();
        let mut completed = 0u64;
        let mut duplicated = 0u64;
        let mut session_last = session.spawned_at;
        for k in 0..requested {
            if let Some((count, finished)) = audit.completions.get(&(client, k)) {
                completed += 1;
                duplicated += (*count as u64).saturating_sub(1);
                session_last = session_last.max(*finished);
                if let Some(start) = audit.starts.get(&(source, k)) {
                    delays.push(*finished - *start);
                    starts.push(*start);
                }
            }
        }
        let lost = requested - completed;
        let window = (session_last - session.spawned_at).max(f64::EPSILON);
        let fps = completed as f64 / window;
        total_completed += completed;
        last_completion = last_completion.max(session_last);
        rates.push(fps);
        let monitor = &session.monitor;
        if control == AdaptPolicy::Adaptive {
            let (us, solves) = monitor.solve_timing();
            session.log.decisions = monitor.decisions().to_vec();
            session.log.solve_us += us;
            session.log.solves += solves;
        }
        let initial_path = session
            .log
            .migrations
            .first()
            .map_or(&session.current.mapping.path, |m| &m.old_path);
        let paths = std::iter::once(initial_path.clone())
            .chain(session.log.migrations.iter().map(|m| m.new_path.clone()))
            .collect();
        runs.push(SessionRun {
            id: session.spec.id,
            paths,
            requested,
            completed,
            lost,
            duplicated,
            delays,
            starts,
            migrations: session.log.migrations.len() as u64,
            spawned_at: session.spawned_at,
            retired_at: session.retired_at,
            fps,
            link_scales: monitor
                .estimates()
                .iter()
                .map(|(&(from, to), e)| (from, to, e.scale))
                .collect(),
        });
        logs.push(session.log);
    }
    let aggregate_fps = total_completed as f64 / last_completion.max(f64::EPSILON);
    let run = MultiSessionRun {
        policy: spec.policy.name().to_string(),
        sessions: runs,
        duration: end,
        aggregate_fps,
        fairness: jain_fairness(&rates),
        predicted_aggregate,
    };
    Ok((run, logs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_scaled(
        wan: &ContentionWan,
        frames: &[u64],
        policy: MappingPolicy,
        scale: f64,
    ) -> MultiSessionSpec {
        let sessions = frames
            .iter()
            .enumerate()
            .map(|(i, &frames)| SessionLoopSpec {
                id: (i + 1) as u64,
                pipeline: demo_session_pipeline(scale * (1.0 + 0.1 * i as f64)),
                source: wan.sources[i],
                client: wan.clients[i],
                frames,
                start_at: 0.0,
            })
            .collect();
        MultiSessionSpec {
            topology: wan.topology.clone(),
            cm: wan.cm,
            sessions,
            policy,
            seed: 17,
            target_goodput: 200e6,
            adaptive: false,
            adapt: AdaptConfig::default(),
            joint_rounds: 6,
            max_virtual_time: SimTime::from_secs(600.0),
        }
    }

    fn spec_for(wan: &ContentionWan, frames: &[u64], policy: MappingPolicy) -> MultiSessionSpec {
        spec_scaled(wan, frames, policy, 1.0)
    }

    fn healthy(run: &MultiSessionRun) {
        for s in &run.sessions {
            assert_eq!(s.lost, 0, "session {}: lost frames", s.id);
            assert_eq!(s.duplicated, 0, "session {}: duplicated frames", s.id);
            assert_eq!(s.completed, s.requested, "session {}", s.id);
            assert!(s.delays.iter().all(|d| *d > 0.0), "session {}", s.id);
        }
    }

    #[test]
    fn single_session_smoke() {
        let wan = contention_wan(1);
        let run = run_multi_session(&spec_for(&wan, &[2], MappingPolicy::Independent)).unwrap();
        healthy(&run);
        assert_eq!(run.sessions[0].paths.len(), 1, "no migrations expected");
        assert!(run.duration > 0.0);
    }

    #[test]
    fn concurrent_sessions_share_trunk_nodes_and_lose_nothing() {
        let wan = contention_wan(2);
        let spec = spec_for(&wan, &[5, 5], MappingPolicy::Independent);
        let run = run_multi_session(&spec).unwrap();
        healthy(&run);
        // Independent solves both ride the shared trunk, so hub1 carries
        // two sessions' stages at once — the mux under test.
        for s in &run.sessions {
            assert!(
                s.paths[0].contains(&wan.hub1.0),
                "session {} should ride the trunk: {:?}",
                s.id,
                s.paths
            );
        }
        assert!(run.aggregate_fps > 0.0);
        assert!(run.fairness > 0.5, "fairness {}", run.fairness);
    }

    #[test]
    fn joint_policy_spreads_sessions_and_beats_independent_delays() {
        let wan = contention_wan(3);
        let independent =
            run_multi_session(&spec_for(&wan, &[4, 4, 4], MappingPolicy::Independent)).unwrap();
        let joint = run_multi_session(&spec_for(&wan, &[4, 4, 4], MappingPolicy::Joint)).unwrap();
        healthy(&independent);
        healthy(&joint);
        // The joint solve moved someone onto a private relay route.
        assert!(
            joint
                .sessions
                .iter()
                .any(|s| wan.mids.iter().any(|m| s.paths[0].contains(&m.0))),
            "joint should use a private route: {:?}",
            joint.sessions.iter().map(|s| &s.paths).collect::<Vec<_>>()
        );
        // The *measured* per-frame delays under the contended simulation
        // are better in aggregate for the joint mapping.
        let mean = |run: &MultiSessionRun| {
            let all: Vec<f64> = run.sessions.iter().flat_map(|s| s.delays.clone()).collect();
            all.iter().sum::<f64>() / all.len() as f64
        };
        assert!(
            mean(&joint) < mean(&independent),
            "joint {} not better than independent {}",
            mean(&joint),
            mean(&independent)
        );
        // And the solver's own prediction agrees.
        assert!(joint.predicted_aggregate <= independent.predicted_aggregate + 1e-9);
    }

    #[test]
    fn retiring_session_frees_the_trunk_and_the_survivor_sees_recovery() {
        let wan = contention_wan(2);
        // Session 1 retires after 3 frames; session 2 keeps pulling.
        // Heavy frames (scale 4 ≈ 6.4 MB) make transfer dominate latency,
        // so sharing the trunk visibly hurts and freeing it visibly helps.
        let spec = spec_scaled(&wan, &[3, 10], MappingPolicy::Independent, 4.0);
        let run = run_multi_session(&spec).unwrap();
        healthy(&run);
        let early_rider = &run.sessions[0];
        let survivor = &run.sessions[1];
        assert!(
            early_rider.retired_at.is_some(),
            "session 1 should have retired"
        );
        // The survivor's frames after the retirement are faster than its
        // frames while both sessions contended for the trunk.
        let retired_at = early_rider.retired_at.unwrap();
        let contended: Vec<f64> = survivor
            .delays
            .iter()
            .zip(&survivor.starts)
            .filter(|(_, s)| **s < retired_at)
            .map(|(d, _)| *d)
            .collect();
        let free: Vec<f64> = survivor
            .delays
            .iter()
            .zip(&survivor.starts)
            .filter(|(_, s)| **s > retired_at)
            .map(|(d, _)| *d)
            .collect();
        assert!(!contended.is_empty() && !free.is_empty());
        let contended_mean = contended.iter().sum::<f64>() / contended.len() as f64;
        let free_mean = free.iter().sum::<f64>() / free.len() as f64;
        assert!(
            free_mean < contended_mean,
            "survivor should speed up after the retirement: contended {contended_mean}, free {free_mean}"
        );
        // ...and its monitor's estimate of the shared trunk recovered: the
        // retiring session's traffic was the survivor's cross-traffic.
        let trunk_scale = survivor
            .link_scales
            .iter()
            .find(|(from, to, _)| *from == wan.hub1.0 && *to == wan.hub2.0)
            .map(|(_, _, scale)| *scale);
        if let Some(scale) = trunk_scale {
            assert!(
                scale > 1.0,
                "survivor's trunk estimate should recover above its contended baseline, got {scale}"
            );
        }
    }

    #[test]
    fn late_spawn_joins_the_contention_and_completes() {
        let wan = contention_wan(2);
        let mut spec = spec_for(&wan, &[8, 4], MappingPolicy::Independent);
        spec.sessions[1].start_at = 2.0;
        let run = run_multi_session(&spec).unwrap();
        healthy(&run);
        assert!(run.sessions[1].spawned_at >= 2.0);
        assert_eq!(run.sessions[1].completed, 4);
    }

    #[test]
    fn session_mux_routes_datagrams_and_timers_by_session() {
        // Two source stages (sessions 7 and 9) on one node, exercised
        // through a raw Context: a BeginIteration for session 9 must only
        // start session 9's processing, and the processing timer must be
        // routed back to the stage that armed it.
        let mk_source = |session: u64| {
            StageApp::new(StageConfig {
                session,
                hop_index: 0,
                hop_count: 2,
                previous: None,
                next: Some(NodeId(1)),
                incoming_bytes: 0,
                outgoing_bytes: 10_000,
                processing_seconds: 0.5,
                target_goodput: 1e6,
                stage_label: format!("src-{session}"),
                drive: None,
                first_iteration: 0,
                telemetry: None,
            })
        };
        let mut mux = SessionMux::new();
        mux.insert(7, mk_source(7));
        mux.insert(9, mk_source(9));
        assert_eq!(mux.sessions(), vec![7, 9]);
        let begin = ControlMessage::BeginIteration {
            session: 9,
            iteration: 0,
        };
        let mut ctx = Context::new(NodeId(0), SimTime::from_secs(1.0), 0, vec![0.5; 4]);
        mux.on_datagram(
            &mut ctx,
            Datagram {
                src: NodeId(2),
                dst: NodeId(0),
                sent_at: SimTime::from_secs(1.0),
                payload: begin.to_payload(),
            },
        );
        // Only session 9 started processing: exactly one timer armed.
        assert_eq!(ctx.scheduled_timers().len(), 1);
        let timer = ctx.scheduled_timers()[0].timer_id;
        // The timer fires: session 9 finishes processing and starts
        // sending — every outgoing data datagram carries session 9's
        // flow-id bits, none session 7's.
        let mut ctx2 = Context::new(NodeId(0), SimTime::from_secs(1.5), 100, vec![0.5; 4]);
        mux.on_timer(&mut ctx2, timer);
        let data: Vec<u64> = ctx2
            .outgoing()
            .iter()
            .filter(|s| s.payload.kind == KIND_DATA)
            .map(|s| s.payload.flow >> 40)
            .collect();
        assert!(!data.is_empty(), "session 9 should be sending");
        assert!(data.iter().all(|&s| s == 9), "flows: {data:?}");
        // A stale timer nobody owns is dropped silently.
        let mut ctx3 = Context::new(NodeId(0), SimTime::from_secs(2.0), 200, vec![0.5; 4]);
        mux.on_timer(&mut ctx3, 12345);
        assert!(ctx3.outgoing().is_empty());
        // Removing a session drops its datagrams from then on.
        assert!(mux.remove(9));
        assert!(!mux.remove(9));
        let mut ctx4 = Context::new(NodeId(0), SimTime::from_secs(2.5), 300, vec![0.5; 4]);
        mux.on_datagram(
            &mut ctx4,
            Datagram {
                src: NodeId(2),
                dst: NodeId(0),
                sent_at: SimTime::from_secs(2.5),
                payload: ControlMessage::BeginIteration {
                    session: 9,
                    iteration: 1,
                }
                .to_payload(),
            },
        );
        assert!(ctx4.scheduled_timers().is_empty());
    }

    #[test]
    fn misconfigured_specs_error() {
        let wan = contention_wan(2);
        let mut spec = spec_for(&wan, &[2, 2], MappingPolicy::Independent);
        spec.sessions[1].id = spec.sessions[0].id;
        assert!(run_multi_session(&spec).is_err());
        let mut spec = spec_for(&wan, &[2, 2], MappingPolicy::Independent);
        spec.sessions[1].source = spec.sessions[0].source;
        assert!(run_multi_session(&spec).is_err());
        let mut spec = spec_for(&wan, &[2, 2], MappingPolicy::Independent);
        spec.sessions[0].frames = 0;
        assert!(run_multi_session(&spec).is_err());
        let mut spec = spec_for(&wan, &[2, 2], MappingPolicy::Independent);
        spec.sessions[0].id = 1 << 24;
        assert!(run_multi_session(&spec).is_err());
    }

    #[test]
    fn jain_fairness_index_behaves() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert!((jain_fairness(&[]) - 1.0).abs() < 1e-12);
    }
}
