//! Multi-session serving: many session hubs behind one HTTP server.
//!
//! Production scale means many concurrent *sessions* — each user steering
//! their own pipeline — served from one front end.  [`MultiFrontEnd`]
//! owns a single [`HttpServer`] (the same worker pool and reactor as
//! [`crate::server::FrontEndServer`]) and a live registry of session
//! endpoints.  Every session-scoped route of the single-session front end
//! is available under a `/s/<id>/` prefix:
//!
//! * `GET /s/7/api/poll?...` — long-poll session 7's hub,
//! * `GET /s/7/api/client`, `/s/7/api/state`, `/s/7/api/frame`,
//!   `/s/7/api/stats`, `POST /s/7/api/steer` — exactly the routes of
//!   [`crate::server::route`], dispatched to session 7's hub and inbox,
//! * `GET /api/sessions` — the ids currently registered.
//!
//! Sessions are added and retired while the server runs
//! ([`MultiFrontEnd::add_session`] / [`MultiFrontEnd::retire_session`]):
//! the session manager (`ricsa-core`'s `sessions` module) spawns a hub
//! per steering loop and retires it when the loop ends.  Polls for a
//! retired (or never-registered) session answer `404`.
//!
//! Isolation invariant: a client polling `/s/<id>/...` can only ever
//! receive frames published into session `<id>`'s hub — the registry
//! lookup happens before the hub is touched, and hubs share nothing (each
//! has its own ring, cursors, and epoch).  The `multi_session` end-to-end
//! test audits this at the wire level with racing pollers.

use crate::http::{HttpRequest, HttpResponse, HttpServer, Outcome, PoolMetrics};
use crate::hub::{SessionHub, SteeringInbox};
use crate::server::{route, FrontEndConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, RwLock};

/// One session's serving endpoints: the hub frames are published into and
/// the steering inbox the simulation side drains.
#[derive(Clone)]
pub struct SessionEndpoints {
    /// The session's frame hub.
    pub hub: SessionHub,
    /// The session's steering inbox.
    pub inbox: SteeringInbox,
}

/// The live session registry, shared between the route handler and the
/// session manager.
type Registry = Arc<RwLock<BTreeMap<u64, SessionEndpoints>>>;

/// A running multi-session front end.
pub struct MultiFrontEnd {
    http: HttpServer,
    registry: Registry,
    config: FrontEndConfig,
}

impl MultiFrontEnd {
    /// Start on `addr` with the default [`FrontEndConfig`].
    pub fn start(addr: &str) -> std::io::Result<MultiFrontEnd> {
        MultiFrontEnd::start_with(addr, FrontEndConfig::default())
    }

    /// Start with explicit pool/hub sizing.  Hub sizing applies to every
    /// session hub subsequently added.
    pub fn start_with(addr: &str, config: FrontEndConfig) -> std::io::Result<MultiFrontEnd> {
        let registry: Registry = Arc::new(RwLock::new(BTreeMap::new()));
        let metrics = Arc::new(PoolMetrics::default());
        let route_registry = registry.clone();
        let route_metrics = metrics.clone();
        let http =
            HttpServer::start_with_metrics(addr, config.http.clone(), metrics, move |req| {
                route_session(&route_registry, &route_metrics, req)
            })?;
        Ok(MultiFrontEnd {
            http,
            registry,
            config,
        })
    }

    /// Register session `id`, creating its hub and inbox (wired to the
    /// server's waker, so parked `/s/<id>/api/poll` long-polls wake on
    /// publish).  Idempotent: an already-registered id returns its
    /// existing endpoints.
    pub fn add_session(&self, id: u64) -> SessionEndpoints {
        let mut registry = self.registry.write().expect("registry poisoned");
        if let Some(existing) = registry.get(&id) {
            return existing.clone();
        }
        let hub = SessionHub::with_limits(self.config.hub_capacity, self.config.max_clients);
        let waker = self.http.waker();
        hub.add_wake_hook(move || waker.ring());
        let endpoints = SessionEndpoints {
            hub,
            inbox: SteeringInbox::new(),
        };
        registry.insert(id, endpoints.clone());
        endpoints
    }

    /// Retire session `id`: its routes answer `404` from now on.  Returns
    /// whether the id was registered.  In-flight long-polls holding the
    /// hub resolve on their own deadlines; the hub's memory is freed when
    /// the last handle drops.
    pub fn retire_session(&self, id: u64) -> bool {
        self.registry
            .write()
            .expect("registry poisoned")
            .remove(&id)
            .is_some()
    }

    /// The endpoints of a registered session.
    pub fn session(&self, id: u64) -> Option<SessionEndpoints> {
        self.registry
            .read()
            .expect("registry poisoned")
            .get(&id)
            .cloned()
    }

    /// Currently registered session ids, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        self.registry
            .read()
            .expect("registry poisoned")
            .keys()
            .copied()
            .collect()
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Total HTTP requests served since start.
    pub fn requests_served(&self) -> u64 {
        self.http.requests_served()
    }

    /// Shut the server down gracefully.
    pub fn shutdown(self) {
        self.http.shutdown();
    }
}

/// Route a request against the session registry (exposed for tests).
/// `/s/<id>/<rest>` is dispatched to session `<id>`'s endpoints with the
/// path rewritten to `/<rest>`; `/api/sessions` lists registered ids.
pub fn route_session(
    registry: &RwLock<BTreeMap<u64, SessionEndpoints>>,
    metrics: &PoolMetrics,
    mut req: HttpRequest,
) -> Outcome {
    if req.method == "GET" && req.path == "/api/sessions" {
        let ids: Vec<u64> = registry
            .read()
            .expect("registry poisoned")
            .keys()
            .copied()
            .collect();
        return HttpResponse::json(&serde_json::json!({ "sessions": ids })).into();
    }
    let Some(rest) = req.path.strip_prefix("/s/") else {
        return HttpResponse::not_found().into();
    };
    let (id_str, sub_path) = match rest.split_once('/') {
        Some((id, sub)) => (id, format!("/{sub}")),
        None => (rest, "/".to_string()),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return HttpResponse::bad_request("session id must be an integer").into();
    };
    let endpoints = registry
        .read()
        .expect("registry poisoned")
        .get(&id)
        .cloned();
    match endpoints {
        Some(endpoints) => {
            req.path = sub_path;
            route(&endpoints.hub, &endpoints.inbox, metrics, req)
        }
        None => HttpResponse::not_found().into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::Frame;
    use std::collections::HashMap;
    use std::time::Duration;

    fn get(path: &str, query: &[(&str, &str)]) -> HttpRequest {
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
            connection: 0,
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

    fn frame(tag: f64) -> Frame {
        Frame {
            sequence: 0,
            cycle: 1,
            time: 0.5,
            image: ricsa_viz::image::Image::filled(4, 4, [tag as u8, 0, 0, 255]).encode_raw(),
            monitors: vec![("session".into(), tag)],
        }
    }

    #[test]
    fn sessions_route_to_their_own_hubs_and_404_after_retire() {
        let front = MultiFrontEnd::start("127.0.0.1:0").unwrap();
        let a = front.add_session(1);
        let b = front.add_session(2);
        a.hub.publish(frame(1.0));
        b.hub.publish(frame(2.0));
        b.hub.publish(frame(2.0));
        let registry = front.registry.clone();
        let metrics = PoolMetrics::default();
        // Each session's state reflects only its own publishes.
        for (id, expect_seq) in [(1u64, 1u64), (2, 2)] {
            let resp = resolve(route_session(
                &registry,
                &metrics,
                get(&format!("/s/{id}/api/state"), &[]),
            ));
            let value: serde_json::Value = serde_json::from_slice(resp.body.as_bytes()).unwrap();
            assert_eq!(value["latest_sequence"].as_u64(), Some(expect_seq));
            assert_eq!(value["monitors"][0][1].as_f64(), Some(id as f64));
        }
        // The listing shows both, and unknown/retired sessions 404.
        let resp = resolve(route_session(
            &registry,
            &metrics,
            get("/api/sessions", &[]),
        ));
        let value: serde_json::Value = serde_json::from_slice(resp.body.as_bytes()).unwrap();
        assert_eq!(value["sessions"][0].as_u64(), Some(1));
        assert_eq!(value["sessions"][1].as_u64(), Some(2));
        assert_eq!(
            resolve(route_session(
                &registry,
                &metrics,
                get("/s/9/api/state", &[])
            ))
            .status,
            404
        );
        assert!(front.retire_session(2));
        assert!(!front.retire_session(2));
        assert_eq!(
            resolve(route_session(
                &registry,
                &metrics,
                get("/s/2/api/state", &[])
            ))
            .status,
            404
        );
        // Malformed ids are rejected, non-session paths unknown.
        assert_eq!(
            resolve(route_session(
                &registry,
                &metrics,
                get("/s/x/api/state", &[])
            ))
            .status,
            400
        );
        assert_eq!(
            resolve(route_session(&registry, &metrics, get("/api/state", &[]))).status,
            404
        );
        front.shutdown();
    }

    #[test]
    fn add_session_is_idempotent_and_hubs_are_distinct() {
        let front = MultiFrontEnd::start("127.0.0.1:0").unwrap();
        let a = front.add_session(5);
        let again = front.add_session(5);
        a.hub.publish(frame(5.0));
        assert_eq!(again.hub.latest_sequence(), 1, "same hub behind one id");
        let other = front.add_session(6);
        assert_eq!(other.hub.latest_sequence(), 0, "distinct hub per id");
        assert_eq!(front.session_ids(), vec![5, 6]);
        front.shutdown();
    }
}
