//! The front-end server: HTTP routes wired to the session hub.
//!
//! Routes (all consumed by the embedded page, `curl`, or any browser):
//!
//! * `GET /` — the Ajax page,
//! * `GET /api/state` — current frame sequence, cycle and monitors as JSON,
//! * `GET /api/client` — register a polling client, returning its id (the
//!   hub then tracks the client's cursor server-side),
//! * `GET /api/poll?since=N&timeout_ms=T&mode=full|delta&client=ID` —
//!   long-poll for the next frame newer than `N` (the `XMLHttpRequest`
//!   object-exchange of the paper).  `mode=delta` ships only the changed
//!   image tiles when the client is exactly one frame behind; `client=ID`
//!   lets the hub supply `since` from the stored cursor.  Cursors are
//!   delivery-acknowledged: a computed response is only *staged*, and
//!   commits when the client's next poll arrives on the same connection
//!   (or carries an explicit `since`), so a response that dies with its
//!   socket is re-delivered rather than skipped.  The long poll never
//!   blocks a server worker: the route returns a deferred
//!   [`Outcome::Pending`] the server parks until the hub publishes,
//! * `GET /api/frame` — the latest frame immediately (or 404),
//! * `GET /api/stats` — server-side backpressure metrics (run-queue depth,
//!   run-queue wait after a wake, per-visit service time, parked
//!   connections),
//!   so overload is observable *before* the 503 connection limit trips,
//! * `POST /api/steer` — submit steering parameters as JSON.
//!
//! Poll responses come straight from the hub's encode-once cache as shared
//! `Arc<str>` payloads — the route layer never re-encodes a frame.

use crate::http::{HttpRequest, HttpResponse, HttpServer, HttpServerConfig, Outcome, PoolMetrics};
use crate::hub::{PollMode, SessionHub, SteeringInbox};
use crate::page::INDEX_HTML;
use ricsa_hydro::steering::SteerableParams;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizing knobs for the whole front end: the HTTP pool plus the hub.
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// HTTP pool configuration (workers, connection limit, keep-alive).
    pub http: HttpServerConfig,
    /// Frames retained by the hub for laggard pollers.
    pub hub_capacity: usize,
    /// Registered client-cursor ceiling (stalest evicted beyond it).
    pub max_clients: usize,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            http: HttpServerConfig::default(),
            hub_capacity: 32,
            max_clients: 1024,
        }
    }
}

/// The running Ajax front-end server.
pub struct FrontEndServer {
    http: HttpServer,
    hub: SessionHub,
    inbox: SteeringInbox,
}

impl FrontEndServer {
    /// Start the front end on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) with the default [`FrontEndConfig`].  The returned hub/inbox
    /// handles are shared with the visualization and simulation sides.
    pub fn start(addr: &str) -> std::io::Result<FrontEndServer> {
        FrontEndServer::start_with(addr, FrontEndConfig::default())
    }

    /// Start the front end with explicit pool/hub sizing.
    pub fn start_with(addr: &str, config: FrontEndConfig) -> std::io::Result<FrontEndServer> {
        let hub = SessionHub::with_limits(config.hub_capacity, config.max_clients);
        let inbox = SteeringInbox::new();
        // The metrics object outlives the closure/server split: the route
        // handler reads from it, the pool writes into it.
        let metrics = Arc::new(PoolMetrics::default());
        let route_hub = hub.clone();
        let route_inbox = inbox.clone();
        let route_metrics = metrics.clone();
        let http = HttpServer::start_with_metrics(addr, config.http, metrics, move |req| {
            route(&route_hub, &route_inbox, &route_metrics, req)
        })?;
        // Ring the reactor doorbell on every publish so parked long-polls
        // wake the moment their frame exists.  The hub runs hooks only
        // after the new frame is readable, so a woken worker always finds
        // it.
        let waker = http.waker();
        hub.add_wake_hook(move || waker.ring());
        Ok(FrontEndServer { http, hub, inbox })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The frame hub the visualization side publishes into.
    pub fn hub(&self) -> SessionHub {
        self.hub.clone()
    }

    /// The steering inbox the simulation side drains.
    pub fn inbox(&self) -> SteeringInbox {
        self.inbox.clone()
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        self.http.active_connections()
    }

    /// Total HTTP requests served since start.
    pub fn requests_served(&self) -> u64 {
        self.http.requests_served()
    }

    /// The pool's live backpressure metrics (what `/api/stats` serves).
    pub fn metrics(&self) -> Arc<PoolMetrics> {
        self.http.metrics()
    }

    /// Shut the server down gracefully (see [`HttpServer::shutdown`]).
    pub fn shutdown(self) {
        self.http.shutdown();
    }
}

/// Route a request (exposed for tests).
pub fn route(
    hub: &SessionHub,
    inbox: &SteeringInbox,
    metrics: &PoolMetrics,
    req: HttpRequest,
) -> Outcome {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") | ("GET", "/index.html") => HttpResponse::ok("text/html", INDEX_HTML).into(),
        ("GET", "/api/state") => {
            let latest = hub.latest_frame();
            HttpResponse::json(&serde_json::json!({
                "latest_sequence": hub.latest_sequence(),
                "cycle": latest.as_ref().map(|f| f.cycle),
                "time": latest.as_ref().map(|f| f.time),
                "monitors": latest.as_ref().map(|f| f.monitors.clone()).unwrap_or_default(),
                "pending_steering": inbox.len(),
                "clients": hub.client_count(),
                "epoch": hub.epoch(),
            }))
            .into()
        }
        ("GET", "/api/client") => {
            let client = hub.register_client();
            HttpResponse::json(&serde_json::json!({
                "client": client,
                "latest_sequence": hub.latest_sequence(),
                "epoch": hub.epoch(),
            }))
            .into()
        }
        ("GET", "/api/frame") => match hub.latest_payload() {
            Some(payload) => HttpResponse::json_shared(payload.json).into(),
            None => HttpResponse::not_found().into(),
        },
        ("GET", "/api/stats") => {
            let snapshot = metrics.snapshot();
            let mut value = serde_json::to_value(&snapshot);
            if let serde_json::Value::Object(map) = &mut value {
                // Hub-side load next to the pool-side backpressure, so one
                // request paints the whole serving picture.
                map.insert("clients".into(), serde_json::json!(hub.client_count()));
                map.insert(
                    "latest_sequence".into(),
                    serde_json::json!(hub.latest_sequence()),
                );
                map.insert("encode_count".into(), serde_json::json!(hub.encode_count()));
                map.insert("pending_steering".into(), serde_json::json!(inbox.len()));
            }
            HttpResponse::json(&value).into()
        }
        ("GET", "/api/poll") => {
            let mode = match req.query_param("mode") {
                Some("delta") => PollMode::Delta,
                _ => PollMode::Full,
            };
            let client: Option<u64> = req.query_param("client").and_then(|s| s.parse().ok());
            let explicit_since: Option<u64> = req.query_param("since").and_then(|s| s.parse().ok());
            // Delivery acknowledgement happens here, on poll *arrival*:
            // an explicit `since` is direct evidence the client holds
            // that frame, and any staged delivery from this client's
            // previous poll commits only if this request arrived on the
            // same connection (otherwise the response died with its
            // socket and the frame must be re-delivered).
            let acked_cursor = client.and_then(|c| {
                if let Some(n) = explicit_since {
                    hub.update_cursor(c, n);
                }
                hub.ack_poll(c, req.connection)
            });
            let since: u64 = match explicit_since {
                Some(n) => n,
                // No explicit `since`: fall back to the acknowledged
                // cursor (0 for unknown/evicted clients, delivering the
                // oldest retained frame).
                None => acked_cursor.unwrap_or(0),
            };
            let timeout_ms: u64 = req
                .query_param("timeout_ms")
                .and_then(|s| s.parse().ok())
                .unwrap_or(15_000)
                .min(60_000);
            let deadline = Instant::now() + Duration::from_millis(timeout_ms);
            let hub = hub.clone();
            let connection = req.connection;
            // Deferred response: the server re-polls this closure whenever
            // the connection wakes (a publish rings it) until a frame
            // arrives or the deadline passes.  No worker blocks.
            Outcome::Pending(Box::new(move || {
                if let Some(payload) = hub.try_payload(since, mode) {
                    if let Some(client) = client {
                        // Stage, don't commit: the cursor advances only
                        // when the client's next poll on this connection
                        // proves the response was actually read.
                        hub.stage_cursor(client, connection, payload.sequence);
                    }
                    return Some(HttpResponse::json_shared(payload.json));
                }
                if Instant::now() >= deadline {
                    // The timeout response carries the epoch too: a client
                    // whose stale `since` exceeds this incarnation's
                    // counter would otherwise only see nulls and could
                    // never detect the restart.
                    return Some(HttpResponse::json(&serde_json::json!({
                        "sequence": null,
                        "epoch": hub.epoch(),
                    })));
                }
                None
            }))
        }
        ("POST", "/api/steer") => match serde_json::from_slice::<SteerableParams>(&req.body) {
            Ok(params) => {
                inbox.post(params.sanitized());
                HttpResponse::json(&serde_json::json!({ "accepted": true })).into()
            }
            Err(e) => {
                HttpResponse::bad_request(&format!("invalid steering parameters: {e}")).into()
            }
        },
        _ => HttpResponse::not_found().into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::Frame;
    use std::collections::HashMap;

    fn get(path: &str, query: &[(&str, &str)]) -> HttpRequest {
        get_on(path, query, 0)
    }

    fn get_on(path: &str, query: &[(&str, &str)], connection: u64) -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            version: "HTTP/1.1".into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: HashMap::new(),
            body: vec![],
            connection,
        }
    }

    fn resolve(outcome: Outcome) -> HttpResponse {
        match outcome {
            Outcome::Ready(resp) => resp,
            Outcome::Pending(mut pending) => loop {
                if let Some(resp) = pending() {
                    break resp;
                }
                std::thread::sleep(Duration::from_millis(1));
            },
        }
    }

    fn sample_frame() -> Frame {
        Frame {
            sequence: 0,
            cycle: 4,
            time: 0.25,
            image: {
                let img = ricsa_viz::image::Image::filled(2, 2, [10, 20, 30, 255]);
                img.encode_raw()
            },
            monitors: vec![("max_pressure".into(), 2.5)],
        }
    }

    #[test]
    fn index_and_unknown_routes() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        let index = resolve(route(&hub, &inbox, &metrics, get("/", &[])));
        assert_eq!(index.status, 200);
        assert!(String::from_utf8_lossy(index.body.as_bytes()).contains("XMLHttpRequest"));
        assert_eq!(
            resolve(route(&hub, &inbox, &metrics, get("/nope", &[]))).status,
            404
        );
    }

    #[test]
    fn state_and_frame_routes_reflect_published_frames() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        assert_eq!(
            resolve(route(&hub, &inbox, &metrics, get("/api/frame", &[]))).status,
            404
        );
        hub.publish(sample_frame());
        let state = resolve(route(&hub, &inbox, &metrics, get("/api/state", &[])));
        let value: serde_json::Value = serde_json::from_slice(state.body.as_bytes()).unwrap();
        assert_eq!(value["latest_sequence"], 1);
        assert_eq!(value["cycle"], 4);
        let frame = resolve(route(&hub, &inbox, &metrics, get("/api/frame", &[])));
        let value: serde_json::Value = serde_json::from_slice(frame.body.as_bytes()).unwrap();
        assert_eq!(value["sequence"], 1);
        // Codec-aware decode recovers the raw RICSAIMG container bytes.
        let image = crate::hub::image_from_json(&value).unwrap();
        assert!(image.starts_with(b"RICSAIMG"));
    }

    #[test]
    fn poll_route_returns_new_frames_and_null_on_timeout() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        hub.publish(sample_frame());
        let poll = resolve(route(
            &hub,
            &inbox,
            &metrics,
            get("/api/poll", &[("since", "0"), ("timeout_ms", "10")]),
        ));
        let value: serde_json::Value = serde_json::from_slice(poll.body.as_bytes()).unwrap();
        assert_eq!(value["sequence"], 1);
        assert_eq!(value["mode"], "full");
        let empty = resolve(route(
            &hub,
            &inbox,
            &metrics,
            get("/api/poll", &[("since", "1"), ("timeout_ms", "10")]),
        ));
        let value: serde_json::Value = serde_json::from_slice(empty.body.as_bytes()).unwrap();
        assert!(value["sequence"].is_null());
    }

    #[test]
    fn poll_route_serves_deltas_in_delta_mode() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        let mut img = ricsa_viz::image::Image::filled(64, 64, [10, 20, 30, 255]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..sample_frame()
        });
        img.set(3, 3, [0, 0, 0, 0]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..sample_frame()
        });
        let poll = resolve(route(
            &hub,
            &inbox,
            &metrics,
            get(
                "/api/poll",
                &[("since", "1"), ("timeout_ms", "10"), ("mode", "delta")],
            ),
        ));
        let value: serde_json::Value = serde_json::from_slice(poll.body.as_bytes()).unwrap();
        assert_eq!(value["mode"], "delta");
        assert_eq!(value["base_sequence"], 1);
        assert_eq!(value["sequence"], 2);
    }

    #[test]
    fn client_registration_and_cursor_driven_polls() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        let reg = resolve(route(&hub, &inbox, &metrics, get("/api/client", &[])));
        let value: serde_json::Value = serde_json::from_slice(reg.body.as_bytes()).unwrap();
        let client = value["client"].as_u64().unwrap().to_string();
        hub.publish(sample_frame());
        // No `since`: the stored cursor (0) supplies it, and delivery
        // advances it.
        let poll = resolve(route(
            &hub,
            &inbox,
            &metrics,
            get(
                "/api/poll",
                &[("client", client.as_str()), ("timeout_ms", "10")],
            ),
        ));
        let value: serde_json::Value = serde_json::from_slice(poll.body.as_bytes()).unwrap();
        assert_eq!(value["sequence"], 1);
        // The cursor advanced: the same cursor-driven poll now times out.
        let empty = resolve(route(
            &hub,
            &inbox,
            &metrics,
            get(
                "/api/poll",
                &[("client", client.as_str()), ("timeout_ms", "10")],
            ),
        ));
        let value: serde_json::Value = serde_json::from_slice(empty.body.as_bytes()).unwrap();
        assert!(value["sequence"].is_null());
    }

    /// The delivery-acknowledged-cursor regression (ROADMAP follow-up): a
    /// poll response computed for a connection that dies undelivered must
    /// be re-delivered on the client's next poll, not silently skipped.
    #[test]
    fn cursor_driven_poll_redelivers_after_a_connection_change() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        let reg = resolve(route(&hub, &inbox, &metrics, get("/api/client", &[])));
        let value: serde_json::Value = serde_json::from_slice(reg.body.as_bytes()).unwrap();
        let client = value["client"].as_u64().unwrap().to_string();
        hub.publish(sample_frame());
        let poll = |conn: u64| {
            let resp = resolve(route(
                &hub,
                &inbox,
                &metrics,
                get_on(
                    "/api/poll",
                    &[("client", client.as_str()), ("timeout_ms", "10")],
                    conn,
                ),
            ));
            let value: serde_json::Value = serde_json::from_slice(resp.body.as_bytes()).unwrap();
            value["sequence"].clone()
        };
        // Frame 1 is computed for connection 7 — but the next poll comes
        // from connection 9: the response evidently died with socket 7,
        // so the same frame is served again.
        assert_eq!(poll(7), serde_json::json!(1));
        assert_eq!(poll(9), serde_json::json!(1), "must re-deliver");
        // Polling again on connection 9 acknowledges it; now it times out.
        assert!(poll(9).is_null());
    }

    /// Wire-level version of the same regression: the socket carrying the
    /// poll response is killed before reading; a fresh connection's
    /// cursor-driven poll must receive the frame again.
    #[test]
    fn killed_socket_mid_response_forces_redelivery() {
        use crate::http::read_blocking_response;
        use std::io::{BufReader, Write};
        let server = FrontEndServer::start("127.0.0.1:0").unwrap();
        let hub = server.hub();
        // Register a client over a throwaway connection.
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(b"GET /api/client HTTP/1.1\r\nHost: l\r\n\r\n")
            .unwrap();
        let (_, _, body) = read_blocking_response(&mut reader).unwrap();
        let value: serde_json::Value = serde_json::from_slice(&body).unwrap();
        let client = value["client"].as_u64().unwrap();
        drop(reader);
        drop(writer);
        hub.publish(sample_frame());
        // The doomed connection: send the poll, kill the socket without
        // ever reading the response.
        let doomed = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut w = doomed.try_clone().unwrap();
        w.write_all(
            format!("GET /api/poll?client={client}&timeout_ms=2000 HTTP/1.1\r\nHost: l\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
        // Give the server time to compute (and stage) the response, then
        // kill the socket with the response unread.
        std::thread::sleep(Duration::from_millis(150));
        drop(w);
        drop(doomed);
        // A fresh connection polls with the stored cursor: the staged
        // delivery belonged to the dead connection, so frame 1 comes
        // again instead of being skipped.
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(
                format!(
                    "GET /api/poll?client={client}&timeout_ms=2000 HTTP/1.1\r\nHost: l\r\n\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
        let (status, _, body) = read_blocking_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        let value: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(
            value["sequence"],
            serde_json::json!(1),
            "frame whose response died with the socket must be re-delivered, got {value:?}"
        );
        server.shutdown();
    }

    #[test]
    fn steering_route_sanitizes_and_queues_parameters() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        let body = serde_json::json!({
            "gamma": 1.4, "cfl": 7.0, "drive_strength": 1.0,
            "inflow_velocity": 2.0, "end_cycle": 100
        });
        let req = HttpRequest {
            method: "POST".into(),
            path: "/api/steer".into(),
            version: "HTTP/1.1".into(),
            query: HashMap::new(),
            headers: HashMap::new(),
            body: body.to_string().into_bytes(),
            connection: 0,
        };
        let resp = resolve(route(&hub, &inbox, &metrics, req));
        assert_eq!(resp.status, 200);
        let queued = inbox.drain_latest().unwrap();
        assert!(
            queued.cfl <= 0.9,
            "cfl must be sanitized, got {}",
            queued.cfl
        );
        // Malformed body.
        let bad = HttpRequest {
            method: "POST".into(),
            path: "/api/steer".into(),
            version: "HTTP/1.1".into(),
            query: HashMap::new(),
            headers: HashMap::new(),
            body: b"not json".to_vec(),
            connection: 0,
        };
        assert_eq!(resolve(route(&hub, &inbox, &metrics, bad)).status, 400);
    }

    #[test]
    fn stats_route_reports_pool_and_hub_metrics() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        hub.publish(sample_frame());
        let stats = resolve(route(&hub, &inbox, &metrics, get("/api/stats", &[])));
        assert_eq!(stats.status, 200);
        let value: serde_json::Value = serde_json::from_slice(stats.body.as_bytes()).unwrap();
        // Pool-side gauges exist (zero on a fresh metrics object)...
        assert_eq!(value["queue_depth"], 0);
        assert_eq!(value["pending_responses"], 0);
        assert_eq!(value["requests_served"], 0);
        assert!(value["mean_rotation_us"].as_f64().is_some());
        assert!(value["mean_visit_us"].as_f64().is_some());
        // ...next to the hub-side load picture.
        assert_eq!(value["latest_sequence"], 1);
        assert!(value["encode_count"].as_u64().unwrap() >= 1);
        assert_eq!(value["pending_steering"], 0);
    }

    #[test]
    fn live_server_stats_reflect_real_traffic() {
        use crate::http::read_blocking_response;
        use std::io::{BufReader, Write};
        let server = FrontEndServer::start("127.0.0.1:0").unwrap();
        server.hub().publish(sample_frame());
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(b"GET /api/frame HTTP/1.1\r\nHost: l\r\n\r\n")
            .unwrap();
        let _ = read_blocking_response(&mut reader).unwrap();
        writer
            .write_all(b"GET /api/stats HTTP/1.1\r\nHost: l\r\n\r\n")
            .unwrap();
        let (status, _, body) = read_blocking_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        let value: serde_json::Value = serde_json::from_slice(&body).unwrap();
        // This connection itself is active, visits happened, and both
        // requests (the frame fetch and this one) are counted by the time
        // the handler ran.
        assert!(value["active_connections"].as_u64().unwrap() >= 1);
        assert!(value["visits"].as_u64().unwrap() >= 1);
        assert!(value["requests_served"].as_u64().unwrap() >= 2);
        // The snapshot round-trips through the typed struct too.
        let snap: crate::http::PoolMetricsSnapshot = serde_json::from_slice(&body).unwrap();
        assert!(snap.visits >= 1);
        server.shutdown();
    }

    #[test]
    fn full_server_round_trip_with_keep_alive() {
        use crate::http::read_blocking_response;
        use std::io::{BufReader, Write};
        let server = FrontEndServer::start("127.0.0.1:0").unwrap();
        server.hub().publish(sample_frame());
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // Two requests over one keep-alive connection.
        for _ in 0..2 {
            writer
                .write_all(b"GET /api/state HTTP/1.1\r\nHost: localhost\r\n\r\n")
                .unwrap();
            let (status, _, body) = read_blocking_response(&mut reader).unwrap();
            assert_eq!(status, 200);
            assert!(String::from_utf8_lossy(&body).contains("latest_sequence"));
        }
        assert_eq!(server.requests_served(), 2);
        server.shutdown();
    }
}
