//! The session hub: frames out, steering commands in — encoded exactly once.
//!
//! The hub is the piece that makes the front end both "Ajax" and scalable:
//!
//! * **Publish → encode once.**  When the visualization side publishes a
//!   frame, the hub base64/JSON-encodes it *once* into a shared `Arc<str>`
//!   payload ([`FramePayload`]).  Every poller — one browser or a thousand —
//!   receives a clone of the same `Arc`; per-client cost is a lookup plus a
//!   reference-count bump, never a re-encode.  [`SessionHub::encode_count`]
//!   certifies this (it grows with publishes, not with pollers).
//! * **Delta frames.**  Alongside the full payload, publish computes the
//!   changed-tile difference to the *previous* frame ([`diff_images`]) and
//!   caches a delta payload.  A poller that is exactly one frame behind and
//!   asks for [`PollMode::Delta`] receives only the tiles that changed —
//!   the paper's "partial screen updates" carried through to the wire.  The
//!   delta is kept only when it is smaller than the full payload, and any
//!   poller further behind (or a resized frame) silently falls back to the
//!   full frame, so delta mode is never worse and always exact:
//!   [`apply_delta`] reconstructs the full frame bit-for-bit.
//! * **Delta chains.**  A poller `k` frames behind (2 ≤ `k` ≤
//!   [`MAX_DELTA_CHAIN`]) receives the *composition* of the cached per-step
//!   deltas — the union of changed tiles with the newest version of each
//!   tile winning — instead of a full frame.  Because every step's delta is
//!   cut on the same tile grid, composing patches keyed by tile origin is
//!   exactly equivalent to applying the steps one by one.  Compositions are
//!   encoded once per `(since, head)` pair and shared, so encode work stays
//!   bounded by the chain length, never by the poller count.
//! * **Lock-free reads.**  The published frame ring lives behind an
//!   atomic-pointer snapshot (the `arc_swap` shim): pollers read payloads
//!   with zero locks while publishers swap in a new ring.  Per-client
//!   cursors are sharded across [`CURSOR_SHARDS`] small maps so cursor
//!   traffic from thousands of clients does not serialize on one mutex
//!   (eviction still finds the *globally* stalest client).
//! * **Wire compression.**  Full frames and delta tiles are run-length
//!   coded (the `rle` shim, pixel-granular PackBits) before base64 whenever
//!   that shrinks them; the `codec`/`rle` JSON fields tell the client to
//!   decompress.  Rendered frames are dominated by flat background, so this
//!   stacks multiplicatively with the delta saving.
//! * **Per-client cursors.**  Clients may register ([`SessionHub::register_client`])
//!   and let the hub remember their last-delivered sequence, instead of
//!   carrying `since` themselves.  The registry is bounded: at capacity the
//!   stalest client (oldest activity) is evicted and simply re-registers on
//!   its next poll — slow pollers cannot pin hub memory.
//!
//! Steering commands posted by clients are queued in a [`SteeringInbox`]
//! for the simulation side to drain between cycles.
//!
//! See DESIGN.md §7 for the state machine and the delta exactness argument,
//! and §10 for the snapshot/shard invariants.

use arc_swap::ArcSwap;
use parking_lot::Mutex;
use ricsa_hydro::steering::SteerableParams;
use ricsa_viz::image::Image;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tile edge length (pixels) used for delta frames.
pub const DELTA_TILE: usize = 32;

/// Longest delta chain composed for a lagging poller: a client more than
/// this many frames behind receives a full frame instead.  Bounds both the
/// tile-merge work per composition and the number of distinct
/// `(since, head)` compositions the hub can be asked to encode per publish.
pub const MAX_DELTA_CHAIN: u64 = 8;

/// Number of cursor shards; client ids map to shards by `id %` this.
pub const CURSOR_SHARDS: usize = 16;

/// One published frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Monotone frame number.
    pub sequence: u64,
    /// Simulation cycle the frame was produced from.
    pub cycle: u64,
    /// Physical simulation time.
    pub time: f64,
    /// The rendered image encoded with `Image::encode_raw` (RICSAIMG).
    pub image: Vec<u8>,
    /// Monitored scalar statistics shown next to the image
    /// (name → value), e.g. max pressure or total mass.
    pub monitors: Vec<(String, f64)>,
}

/// Which wire encoding a poller asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollMode {
    /// Always the complete frame.
    Full,
    /// The changed-tile delta when the poller is exactly one frame behind
    /// and a delta is cached; the full frame otherwise.
    Delta,
}

/// A ready-to-serve poll response: the shared JSON payload for one frame.
#[derive(Debug, Clone)]
pub struct FramePayload {
    /// Sequence number of the frame this payload carries the client to.
    pub sequence: u64,
    /// The JSON body, shared across every client that receives this frame.
    pub json: Arc<str>,
    /// Whether this is the delta encoding (tiles only) or the full frame.
    pub is_delta: bool,
}

// ---------------------------------------------------------------- base64

/// Base64 encoding (standard alphabet, with padding) for frame payloads.
pub fn base64_encode(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decode standard base64 (the inverse of [`base64_encode`]); `None` on
/// any non-alphabet byte or truncated quantum.
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    fn value(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a' + 26) as u32),
            b'0'..=b'9' => Some((c - b'0' + 52) as u32),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for chunk in bytes.chunks(4) {
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || chunk[..4 - pad].contains(&b'=') {
            return None;
        }
        let mut n: u32 = 0;
        for &c in &chunk[..4 - pad] {
            n = (n << 6) | value(c)?;
        }
        n <<= 6 * pad as u32;
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Some(out)
}

// ------------------------------------------------------------ delta tiles

/// One changed tile: rectangle origin and size in pixels, plus its raw
/// RGBA bytes (row-major within the rectangle).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TilePatch {
    /// Left edge of the rectangle.
    pub x: usize,
    /// Top edge of the rectangle.
    pub y: usize,
    /// Rectangle width (≤ [`DELTA_TILE`]; smaller at the right edge).
    pub w: usize,
    /// Rectangle height (≤ [`DELTA_TILE`]; smaller at the bottom edge).
    pub h: usize,
    /// Raw RGBA bytes of the rectangle.
    pub data: Vec<u8>,
}

/// The changed-tile difference between two equally-sized images.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameDelta {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Tile edge length the grid was cut with.
    pub tile: usize,
    /// Tiles whose bytes differ, in row-major tile order.
    pub tiles: Vec<TilePatch>,
}

/// Cut both images into a `tile`×`tile` grid and collect the tiles whose
/// bytes differ.  `None` when the images are not the same size (a resize
/// must ship a full frame).
pub fn diff_images(prev: &Image, cur: &Image, tile: usize) -> Option<FrameDelta> {
    if prev.width != cur.width || prev.height != cur.height || tile == 0 {
        return None;
    }
    let mut tiles = Vec::new();
    let mut y = 0;
    while y < cur.height {
        let h = tile.min(cur.height - y);
        let mut x = 0;
        while x < cur.width {
            let w = tile.min(cur.width - x);
            let mut changed = false;
            for row in y..y + h {
                let start = (row * cur.width + x) * 4;
                let end = start + w * 4;
                if prev.pixels[start..end] != cur.pixels[start..end] {
                    changed = true;
                    break;
                }
            }
            if changed {
                let mut data = Vec::with_capacity(w * h * 4);
                for row in y..y + h {
                    let start = (row * cur.width + x) * 4;
                    data.extend_from_slice(&cur.pixels[start..start + w * 4]);
                }
                tiles.push(TilePatch { x, y, w, h, data });
            }
            x += tile;
        }
        y += tile;
    }
    Some(FrameDelta {
        width: cur.width,
        height: cur.height,
        tile,
        tiles,
    })
}

/// Apply a delta to the frame it was computed against, reconstructing the
/// successor frame exactly (`apply_delta(prev, diff(prev, cur)) == cur`).
pub fn apply_delta(prev: &Image, delta: &FrameDelta) -> Image {
    let mut out = prev.clone();
    for patch in &delta.tiles {
        let mut offset = 0;
        for row in patch.y..patch.y + patch.h {
            let start = (row * out.width + patch.x) * 4;
            out.pixels[start..start + patch.w * 4]
                .copy_from_slice(&patch.data[offset..offset + patch.w * 4]);
            offset += patch.w * 4;
        }
    }
    out
}

/// Parse a delta poll response (the wire JSON produced by the hub) back
/// into its base sequence and [`FrameDelta`].  Used by tests and clients
/// that reconstruct frames outside a browser.
pub fn delta_from_json(value: &serde_json::Value) -> Option<(u64, FrameDelta)> {
    if value.get("mode")?.as_str()? != "delta" {
        return None;
    }
    let base = value.get("base_sequence")?.as_u64()?;
    let width = value.get("width")?.as_u64()? as usize;
    let height = value.get("height")?.as_u64()? as usize;
    let tile = value.get("tile")?.as_u64()? as usize;
    let mut tiles = Vec::new();
    for t in value.get("tiles")?.as_array()? {
        let raw = base64_decode(t.get("data_base64")?.as_str()?)?;
        let data = if t.get("rle").and_then(|r| r.as_bool()) == Some(true) {
            rle::decompress(&raw)?
        } else {
            raw
        };
        tiles.push(TilePatch {
            x: t.get("x")?.as_u64()? as usize,
            y: t.get("y")?.as_u64()? as usize,
            w: t.get("w")?.as_u64()? as usize,
            h: t.get("h")?.as_u64()? as usize,
            data,
        });
    }
    Some((
        base,
        FrameDelta {
            width,
            height,
            tile,
            tiles,
        },
    ))
}

// -------------------------------------------------------------- encoding

fn frame_header_json(frame: &Frame, epoch: u64) -> serde_json::Value {
    serde_json::json!({
        "sequence": frame.sequence,
        "cycle": frame.cycle,
        "time": frame.time,
        "monitors": frame.monitors,
        "epoch": epoch,
    })
}

/// JSON-encode a complete frame (mode `full`) stamped with the hub's
/// `epoch`.  This is the work the encode cache performs exactly once per
/// publish; the `webfront_bench` criterion bench calls it directly to
/// price the per-client-encode alternative.
///
/// The image bytes are run-length compressed before base64 whenever that
/// shrinks them, signalled by `"codec":"rle"`; incompressible frames ship
/// raw with no `codec` field, so compression is never a regression.
pub fn encode_frame_full(frame: &Frame, epoch: u64) -> String {
    let mut value = frame_header_json(frame, epoch);
    if let serde_json::Value::Object(map) = &mut value {
        map.insert("mode".into(), serde_json::json!("full"));
        let packed = rle::compress(&frame.image);
        if packed.len() < frame.image.len() {
            map.insert("codec".into(), serde_json::json!("rle"));
            map.insert(
                "image_base64".into(),
                serde_json::json!(base64_encode(&packed)),
            );
        } else {
            map.insert(
                "image_base64".into(),
                serde_json::json!(base64_encode(&frame.image)),
            );
        }
    }
    value.to_string()
}

/// Recover the raw image bytes (RICSAIMG framing) carried by a full-frame
/// payload, undoing base64 and the optional `"codec":"rle"` compression.
/// The decoding inverse of [`encode_frame_full`]; `None` on a malformed
/// payload.  Tests and non-browser clients use this instead of assuming
/// the wire representation.
pub fn image_from_json(value: &serde_json::Value) -> Option<Vec<u8>> {
    let bytes = base64_decode(value.get("image_base64")?.as_str()?)?;
    match value.get("codec").and_then(|c| c.as_str()) {
        Some("rle") => rle::decompress(&bytes),
        Some(_) => None, // unknown codec: do not misread the bytes
        None => Some(bytes),
    }
}

/// JSON-encode a delta frame (mode `delta`) against `base_sequence`,
/// stamped with the hub's `epoch`.
///
/// Each tile's bytes are run-length compressed before base64 whenever that
/// shrinks them, marked per-tile with `"rle":true` — a tile of turbulent
/// pixels ships raw while its flat neighbours compress, so the delta is
/// never larger for having the codec available.
pub fn encode_frame_delta(
    frame: &Frame,
    epoch: u64,
    base_sequence: u64,
    delta: &FrameDelta,
) -> String {
    let tiles: Vec<serde_json::Value> = delta
        .tiles
        .iter()
        .map(|t| {
            let packed = rle::compress(&t.data);
            if packed.len() < t.data.len() {
                serde_json::json!({
                    "x": t.x,
                    "y": t.y,
                    "w": t.w,
                    "h": t.h,
                    "rle": true,
                    "data_base64": base64_encode(&packed),
                })
            } else {
                serde_json::json!({
                    "x": t.x,
                    "y": t.y,
                    "w": t.w,
                    "h": t.h,
                    "data_base64": base64_encode(&t.data),
                })
            }
        })
        .collect();
    let mut value = frame_header_json(frame, epoch);
    if let serde_json::Value::Object(map) = &mut value {
        map.insert("mode".into(), serde_json::json!("delta"));
        map.insert("base_sequence".into(), serde_json::json!(base_sequence));
        map.insert("width".into(), serde_json::json!(delta.width));
        map.insert("height".into(), serde_json::json!(delta.height));
        map.insert("tile".into(), serde_json::json!(delta.tile));
        map.insert("tiles".into(), serde_json::Value::Array(tiles));
    }
    value.to_string()
}

// ------------------------------------------------------------------- hub

/// One frame with its cached wire encodings.
struct CachedFrame {
    frame: Frame,
    /// Full-frame payload, encoded once at publish.
    full: Arc<str>,
    /// Delta payload against the immediately preceding sequence number;
    /// `None` for the first frame, after a resize, or when the delta would
    /// not be meaningfully smaller than the full payload.
    delta: Option<Arc<str>>,
    /// The raw (un-encoded) tile difference against the immediately
    /// preceding sequence, kept for chain composition — present even when
    /// the encoded single-step delta was discarded as unprofitable, since
    /// a *composed* chain containing this step may still win.
    delta_raw: Option<FrameDelta>,
}

/// An immutable snapshot of the published frames, swapped atomically on
/// every publish.  Pollers read it via [`ArcSwap::load_full`] — no lock —
/// so payload lookups never contend with publishers or each other.
struct FrameRing {
    /// Retained frames in ascending sequence order (shared with the
    /// publisher's working copy; cloning the ring clones `Arc`s, not
    /// payloads).
    frames: Vec<Arc<CachedFrame>>,
    /// The newest sequence number pollers may see: everything at or below
    /// it is fully inserted.  Frames above it belong to publishers still
    /// encoding — handing them out early would let a poller advance its
    /// cursor past a frame that has not landed yet and lose it forever.
    visible: u64,
}

/// Publisher-side mutable state, touched only on publish (never by
/// pollers): sequence assignment, the in-flight claim set, the diff base,
/// and the working copy of the frame list from which ring snapshots are
/// cut.
struct PubState {
    latest_sequence: u64,
    /// Sequence numbers claimed by publishers still encoding outside the
    /// lock; the ring's `visible` stops just below the smallest claim.
    in_flight: BTreeSet<u64>,
    /// Decoded image of the most recently published frame, kept so the
    /// next publish can diff against it without re-decoding (and without
    /// holding any lock while it does).
    last_image: Option<(u64, Image)>,
    /// Working frame list, ascending by sequence; cloned (shallowly) into
    /// each [`FrameRing`] snapshot.
    frames: Vec<Arc<CachedFrame>>,
    capacity: usize,
}

struct ClientState {
    cursor: u64,
    /// Logical activity stamp (monotone counter, not wall-clock) — the
    /// smallest stamp is the stalest client, evicted first.
    last_touch: u64,
    /// A computed-but-unconfirmed delivery: `(connection, sequence)` of
    /// the latest poll response handed to the HTTP layer.  It commits
    /// into `cursor` only when the client's *next* poll arrives on the
    /// same connection (proof the response was read); a next poll from a
    /// different connection drops it, so a response that died with its
    /// connection is re-delivered instead of silently skipped.
    staged: Option<(u64, u64)>,
}

/// One shard of the client-cursor registry.  Ids map to shards by
/// `id % CURSOR_SHARDS`, so cursor reads/updates from different clients
/// almost never share a mutex.
#[derive(Default)]
struct CursorShard {
    clients: HashMap<u64, ClientState>,
}

/// Composed-delta memo: `(since, head)` → encoded payload, or `None` for
/// a composition tried and found unprofitable.
type ComposeCache = HashMap<(u64, u64), Option<Arc<str>>>;

/// Everything a [`SessionHub`] handle points at.
struct HubInner {
    /// The lock-free read path: the current frame snapshot.
    ring: ArcSwap<FrameRing>,
    /// The publish path (see [`PubState`]); pollers never take this.
    publisher: Mutex<PubState>,
    /// Sharded client cursors, [`CURSOR_SHARDS`] of them.
    cursors: Vec<Mutex<CursorShard>>,
    next_client: AtomicU64,
    /// Registered-client count across all shards (kept by the mutators so
    /// eviction and `client_count` need not sum shard sizes under locks).
    client_total: AtomicUsize,
    /// Global logical clock for activity stamps; comparable across shards
    /// so eviction can find the *globally* stalest client.
    clock: AtomicU64,
    max_clients: usize,
    /// Total encode passes (full + single-step delta + composed delta).
    encodes: AtomicU64,
    /// Instance marker stamped into every payload: a client holding state
    /// from a previous server incarnation sees the epoch change and knows
    /// its pixel buffer and `since` cursor are stale (a delta against
    /// another epoch must never be applied).  Immutable after creation.
    epoch: u64,
    /// Composed-delta cache, keyed `(since, head)`; cleared on publish.
    /// `None` records a composition that was tried and found unprofitable,
    /// so it is not re-attempted for every poller at the same lag.  The
    /// lock is *held through the encode* so racing pollers at the same lag
    /// share one composition instead of encoding it N times.
    compose: Mutex<ComposeCache>,
    /// Callbacks run after every publish, once the new ring snapshot is
    /// visible — the server wires the HTTP [`crate::Waker`] doorbell here.
    wake_hooks: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl FrameRing {
    /// The oldest retained frame newer than `since` that is visible.
    fn first_after(&self, since: u64) -> Option<&Arc<CachedFrame>> {
        self.frames
            .iter()
            .find(|c| c.frame.sequence > since && c.frame.sequence <= self.visible)
    }

    /// The newest visible frame.
    fn newest(&self) -> Option<&Arc<CachedFrame>> {
        self.frames
            .iter()
            .rev()
            .find(|c| c.frame.sequence <= self.visible)
    }
}

/// The frame hub shared between the visualization side and HTTP handlers.
#[derive(Clone)]
pub struct SessionHub {
    inner: Arc<HubInner>,
}

impl Default for SessionHub {
    fn default() -> Self {
        SessionHub::new(32)
    }
}

impl SessionHub {
    /// A hub retaining up to `capacity` recent frames (client registry
    /// bounded at 1024).
    pub fn new(capacity: usize) -> Self {
        SessionHub::with_limits(capacity, 1024)
    }

    /// A hub retaining up to `capacity` frames and at most `max_clients`
    /// registered client cursors (the stalest is evicted beyond that).
    pub fn with_limits(capacity: usize, max_clients: usize) -> Self {
        SessionHub {
            inner: Arc::new(HubInner {
                ring: ArcSwap::from_pointee(FrameRing {
                    frames: Vec::new(),
                    visible: 0,
                }),
                publisher: Mutex::new(PubState {
                    latest_sequence: 0,
                    in_flight: BTreeSet::new(),
                    last_image: None,
                    frames: Vec::new(),
                    capacity: capacity.max(1),
                }),
                cursors: (0..CURSOR_SHARDS).map(|_| Mutex::default()).collect(),
                next_client: AtomicU64::new(1),
                client_total: AtomicUsize::new(0),
                clock: AtomicU64::new(0),
                max_clients: max_clients.max(1),
                encodes: AtomicU64::new(0),
                // Keep the epoch within f64's exact-integer range (2^53):
                // JSON numbers — and the serde shim's Value — are doubles,
                // and a corrupted epoch would defeat the restart detection
                // it exists for.
                epoch: (std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(1)
                    & ((1 << 53) - 1))
                    .max(1),
                compose: Mutex::new(HashMap::new()),
                wake_hooks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Register a callback run after every publish, once the new frame is
    /// readable through the hub.  The readiness serving core registers the
    /// HTTP server's [`crate::Waker`] here, so parked long-polls are woken
    /// the moment a frame lands.  Hooks must be cheap and must not call
    /// back into the hub.
    pub fn add_wake_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.inner.wake_hooks.lock().push(Box::new(hook));
    }

    /// Publish a frame; it is assigned the next sequence number, which is
    /// returned.  The full payload — and, when profitable, the delta
    /// against the previous frame — is encoded here, exactly once, no
    /// matter how many clients will poll it.  Wake hooks run once it is
    /// readable.
    ///
    /// The encode/diff work happens *outside* the publisher lock (pollers
    /// read the previous ring snapshot, lock-free, while a frame is
    /// encoded); only sequence assignment and the snapshot swap hold it.
    pub fn publish(&self, mut frame: Frame) -> u64 {
        let inner = &*self.inner;

        // Lock 1: claim a sequence number (marked in-flight so pollers are
        // not handed a later frame first) and take the predecessor's
        // decoded image for the diff.
        let (seq, prev_image) = {
            let mut publisher = inner.publisher.lock();
            publisher.latest_sequence += 1;
            let seq = publisher.latest_sequence;
            publisher.in_flight.insert(seq);
            (seq, publisher.last_image.take())
        };
        frame.sequence = seq;

        // Encode without any lock held.
        let full: Arc<str> = Arc::from(encode_frame_full(&frame, inner.epoch).as_str());
        let cur_image = Image::decode_raw(&frame.image);
        let mut delta_encodes = 0u64;
        let delta_raw = prev_image
            .filter(|(prev_seq, _)| *prev_seq == seq - 1)
            .zip(cur_image.as_ref())
            .and_then(|((_, prev_img), cur_img)| diff_images(&prev_img, cur_img, DELTA_TILE));
        let delta = delta_raw
            .as_ref()
            .map(|delta| {
                delta_encodes = 1; // real work even if discarded below
                encode_frame_delta(&frame, inner.epoch, seq - 1, delta)
            })
            // A delta that is not meaningfully smaller than the full frame
            // (most of the screen changed) is not worth caching or
            // shipping: require at least a 10% saving.
            .filter(|json| json.len() * 10 <= full.len() * 9)
            .map(|json| Arc::from(json.as_str()));
        inner
            .encodes
            .fetch_add(1 + delta_encodes, Ordering::Relaxed);
        let cached = Arc::new(CachedFrame {
            frame,
            full,
            delta,
            delta_raw,
        });

        // Lock 2: insert in sequence order (a racing publisher may have
        // inserted a later frame while we encoded) and swap in the new
        // ring snapshot.
        {
            let mut publisher = inner.publisher.lock();
            publisher.in_flight.remove(&seq);
            let at = publisher.frames.partition_point(|c| c.frame.sequence < seq);
            publisher.frames.insert(at, cached);
            if publisher.frames.len() > publisher.capacity {
                let excess = publisher.frames.len() - publisher.capacity;
                publisher.frames.drain(..excess);
            }
            if let Some(cur) = cur_image {
                // Keep the newest decoded image as the next diff base
                // (racing publishers: only the latest sequence wins).
                if publisher.last_image.as_ref().is_none_or(|(s, _)| *s < seq) {
                    publisher.last_image = Some((seq, cur));
                }
            }
            let visible = match publisher.in_flight.iter().next() {
                Some(&oldest_claim) => oldest_claim - 1,
                None => publisher.latest_sequence,
            };
            inner.ring.store(Arc::new(FrameRing {
                frames: publisher.frames.clone(),
                visible,
            }));
            // Compositions target the previous head; drop them (bounded
            // memory, and stale entries would only be asked for once more
            // anyway).
            inner.compose.lock().clear();
        }

        // Wake waiting pollers, now that the new ring is readable.
        for hook in inner.wake_hooks.lock().iter() {
            hook();
        }
        seq
    }

    /// The sequence number of the most recent fully published frame
    /// (0 if none yet).  Sequence numbers claimed by publishers still
    /// encoding are not reported — they are not yet observable.
    pub fn latest_sequence(&self) -> u64 {
        self.inner.ring.load_full().visible
    }

    /// The most recent (fully published) frame, if any.
    pub fn latest_frame(&self) -> Option<Frame> {
        self.inner
            .ring
            .load_full()
            .newest()
            .map(|c| c.frame.clone())
    }

    /// The hub's instance marker, stamped into every payload (`epoch`
    /// field).  Clients must discard retained frame state when it changes:
    /// a delta from one epoch is meaningless against pixels of another.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Total encode passes performed (full + per-step delta + composed
    /// delta).  Grows with publishes — plus at most [`MAX_DELTA_CHAIN`]
    /// compositions per publish — never with pollers: the invariant the
    /// encode cache exists to provide.
    pub fn encode_count(&self) -> u64 {
        self.inner.encodes.load(Ordering::Relaxed)
    }

    /// The full payload of the newest visible frame, if any.
    pub fn latest_payload(&self) -> Option<FramePayload> {
        self.inner
            .ring
            .load_full()
            .newest()
            .map(|cached| FramePayload {
                sequence: cached.frame.sequence,
                json: cached.full.clone(),
                is_delta: false,
            })
    }

    /// The shared payload for a frame newer than `since`, without waiting.
    /// Reads the current ring snapshot lock-free.
    ///
    /// [`PollMode::Full`] (and a client exactly at the head) always gets
    /// the oldest visible frame newer than `since`, as a full payload.
    /// [`PollMode::Delta`] serves, in order of preference: the cached
    /// single-step delta when the client is exactly one frame behind; the
    /// *composed* delta chain carrying it straight to the newest frame
    /// when it is 2..=[`MAX_DELTA_CHAIN`] behind and every step's tile
    /// difference is available; the full frame otherwise.  Compositions
    /// are encoded once per `(since, head)` pair and shared.
    pub fn try_payload(&self, since: u64, mode: PollMode) -> Option<FramePayload> {
        let ring = self.inner.ring.load_full();
        let cached = ring.first_after(since)?;
        let sequence = cached.frame.sequence;
        if mode == PollMode::Delta {
            // first_after succeeded, so visible > since and lag >= 1.
            let lag = ring.visible - since;
            if (2..=MAX_DELTA_CHAIN).contains(&lag) {
                if let Some(payload) = self.composed_delta(&ring, since) {
                    return Some(payload);
                }
            }
            if lag > MAX_DELTA_CHAIN {
                // Too far behind to compose: resync with the newest full
                // frame in one hop instead of replaying stale frames.
                return ring.newest().map(|newest| FramePayload {
                    sequence: newest.frame.sequence,
                    json: newest.full.clone(),
                    is_delta: false,
                });
            }
            // One behind (or an unprofitable/incomplete chain): step with
            // the cached per-publish delta when there is one.
            if sequence == since + 1 {
                if let Some(delta) = &cached.delta {
                    return Some(FramePayload {
                        sequence,
                        json: delta.clone(),
                        is_delta: true,
                    });
                }
            }
        }
        Some(FramePayload {
            sequence,
            json: cached.full.clone(),
            is_delta: false,
        })
    }

    /// Compose the per-step deltas `since+1..=head` into one merged delta
    /// payload (newest version of each tile wins), encoded at most once
    /// per `(since, head)` pair.  `None` when the chain is too long or too
    /// short, any step is missing its raw delta (first frame, resize,
    /// evicted), geometries differ, or the composition is not meaningfully
    /// smaller than the head's full payload.
    fn composed_delta(&self, ring: &FrameRing, since: u64) -> Option<FramePayload> {
        let inner = &*self.inner;
        let head = ring.visible;
        let lag = head.checked_sub(since)?;
        if !(2..=MAX_DELTA_CHAIN).contains(&lag) {
            return None;
        }
        // Collect the contiguous steps since+1..=head; every one must be
        // retained and carry a raw delta on the same geometry.
        let start = ring.frames.partition_point(|c| c.frame.sequence <= since);
        let steps = &ring.frames[start..];
        let mut chain = Vec::with_capacity(lag as usize);
        for (offset, want) in (since + 1..=head).enumerate() {
            let step = steps.get(offset)?;
            if step.frame.sequence != want {
                return None;
            }
            chain.push((step, step.delta_raw.as_ref()?));
        }
        let (_, first) = chain[0];
        if chain.iter().any(|(_, d)| {
            d.width != first.width || d.height != first.height || d.tile != first.tile
        }) {
            return None;
        }

        let mut cache = inner.compose.lock();
        if let Some(entry) = cache.get(&(since, head)) {
            return entry.as_ref().map(|json| FramePayload {
                sequence: head,
                json: json.clone(),
                is_delta: true,
            });
        }
        // Merge: tiles are keyed by their grid origin (every step is cut
        // on the same grid), so replacing older versions of a tile with
        // newer ones is exactly equivalent to applying the steps in order.
        let mut merged: HashMap<(usize, usize), &TilePatch> = HashMap::new();
        for (_, delta) in &chain {
            for tile in &delta.tiles {
                merged.insert((tile.x, tile.y), tile);
            }
        }
        let mut tiles: Vec<TilePatch> = merged.into_values().cloned().collect();
        tiles.sort_by_key(|t| (t.y, t.x));
        let composed = FrameDelta {
            width: first.width,
            height: first.height,
            tile: first.tile,
            tiles,
        };
        let (head_frame, _) = chain[lag as usize - 1];
        let json = encode_frame_delta(&head_frame.frame, inner.epoch, since, &composed);
        inner.encodes.fetch_add(1, Ordering::Relaxed);
        // Same profitability rule as single-step deltas: a composition
        // within 10% of the full payload is not worth shipping, and the
        // verdict is cached so other pollers at this lag skip the attempt.
        let entry: Option<Arc<str>> = if json.len() * 10 <= head_frame.full.len() * 9 {
            Some(Arc::from(json.as_str()))
        } else {
            None
        };
        cache.insert((since, head), entry.clone());
        entry.map(|json| FramePayload {
            sequence: head,
            json,
            is_delta: true,
        })
    }

    // ------------------------------------------------------ client cursors

    /// The cursor shard a client id lives in.
    fn shard(&self, client: u64) -> &Mutex<CursorShard> {
        &self.inner.cursors[(client % CURSOR_SHARDS as u64) as usize]
    }

    /// Register a polling client; returns its id.  The cursor starts at 0
    /// (the next poll delivers the oldest retained frame).  At
    /// `max_clients` the stalest registered client is evicted to make room.
    pub fn register_client(&self) -> u64 {
        let inner = &*self.inner;
        let id = inner.next_client.fetch_add(1, Ordering::Relaxed);
        let stamp = inner.clock.fetch_add(1, Ordering::Relaxed);
        self.shard(id).lock().clients.insert(
            id,
            ClientState {
                cursor: 0,
                last_touch: stamp,
                staged: None,
            },
        );
        inner.client_total.fetch_add(1, Ordering::Relaxed);
        self.evict_to_capacity();
        id
    }

    /// Evict globally-stalest clients until the registry fits.  Scans all
    /// shards for the minimum activity stamp without holding more than one
    /// shard lock at a time; a client touched between the scan and the
    /// removal is spared and the scan repeats.
    fn evict_to_capacity(&self) {
        let inner = &*self.inner;
        while inner.client_total.load(Ordering::Relaxed) > inner.max_clients {
            let mut stalest: Option<(u64, u64, usize)> = None; // (stamp, id, shard)
            for (index, shard) in inner.cursors.iter().enumerate() {
                let shard = shard.lock();
                for (&id, client) in shard.clients.iter() {
                    if stalest.is_none_or(|(stamp, _, _)| client.last_touch < stamp) {
                        stalest = Some((client.last_touch, id, index));
                    }
                }
            }
            let Some((stamp, id, index)) = stalest else {
                return; // registry empty; nothing to evict
            };
            let mut shard = inner.cursors[index].lock();
            if shard
                .clients
                .get(&id)
                .is_some_and(|c| c.last_touch == stamp)
            {
                shard.clients.remove(&id);
                drop(shard);
                inner.client_total.fetch_sub(1, Ordering::Relaxed);
            }
            // else: raced with a touch or another evictor — rescan.
        }
    }

    /// The stored cursor for `client`, refreshing its activity stamp.
    /// `None` when the client is unknown (never registered, or evicted as
    /// stale — it should re-register).
    pub fn client_cursor(&self, client: u64) -> Option<u64> {
        let stamp = self.inner.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(client).lock();
        let entry = shard.clients.get_mut(&client)?;
        entry.last_touch = stamp;
        Some(entry.cursor)
    }

    /// Record that `client` provably holds frame `sequence` (cursors only
    /// move forward).  Unknown ids are ignored — an evicted client keeps
    /// polling statelessly until it re-registers.
    ///
    /// Cursors are *delivery-acknowledged*: this is called when the
    /// client presents evidence of possession (an explicit `since` on a
    /// later poll), while a freshly computed response is only *staged*
    /// ([`SessionHub::stage_cursor`]) until the next poll confirms it
    /// ([`SessionHub::ack_poll`]).  A frame whose response dies with the
    /// connection is therefore re-delivered, never silently skipped.
    pub fn update_cursor(&self, client: u64, sequence: u64) {
        let stamp = self.inner.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(client).lock();
        if let Some(entry) = shard.clients.get_mut(&client) {
            entry.cursor = entry.cursor.max(sequence);
            entry.last_touch = stamp;
        }
    }

    /// Stage a computed-but-unconfirmed delivery of frame `sequence` to
    /// `client` over `connection`.  The cursor itself does not move; the
    /// stage commits on the client's next poll from the same connection
    /// (advance-on-next-poll) and is dropped — forcing re-delivery — if
    /// the next poll arrives on a different connection, which is exactly
    /// what happens when a response dies with its socket.
    pub fn stage_cursor(&self, client: u64, connection: u64, sequence: u64) {
        let stamp = self.inner.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(client).lock();
        if let Some(entry) = shard.clients.get_mut(&client) {
            entry.staged = match entry.staged {
                // Same connection: responses are serialized on it, so a
                // later stage supersedes (and implies receipt of) an
                // earlier one — keep the maximum to stay monotone.
                Some((conn, seq)) if conn == connection => Some((connection, seq.max(sequence))),
                _ => Some((connection, sequence)),
            };
            entry.last_touch = stamp;
        }
    }

    /// A poll from `client` arrived on `connection`: resolve any staged
    /// delivery.  Same connection → the previous response was read before
    /// this request was sent, so the stage commits into the cursor.
    /// Different connection → the previous response's fate is unknown
    /// (its socket is gone), so the stage is dropped and the frame will
    /// be re-delivered.  Returns the committed cursor, `None` for
    /// unknown/evicted clients.
    pub fn ack_poll(&self, client: u64, connection: u64) -> Option<u64> {
        let stamp = self.inner.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(client).lock();
        let entry = shard.clients.get_mut(&client)?;
        if let Some((conn, sequence)) = entry.staged.take() {
            if conn == connection {
                entry.cursor = entry.cursor.max(sequence);
            }
        }
        entry.last_touch = stamp;
        Some(entry.cursor)
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.inner.client_total.load(Ordering::Relaxed)
    }
}

/// The queue of steering commands posted by clients.
#[derive(Clone, Default)]
pub struct SteeringInbox {
    queue: Arc<Mutex<VecDeque<SteerableParams>>>,
}

impl SteeringInbox {
    /// An empty inbox.
    pub fn new() -> Self {
        SteeringInbox::default()
    }

    /// Post a steering request (from an HTTP handler).
    pub fn post(&self, params: SteerableParams) {
        self.queue.lock().push_back(params);
    }

    /// Drain all pending requests (from the simulation loop); the last one
    /// wins when several arrived between cycles.
    pub fn drain_latest(&self) -> Option<SteerableParams> {
        let mut queue = self.queue.lock();
        let last = queue.iter().last().copied();
        queue.clear();
        last
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether the inbox is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Condvar;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::time::{Duration, Instant};

    /// A poller that waits the way the HTTP reactor does: look with
    /// `try_payload`, otherwise sleep until a wake hook rings.  The ring
    /// count is read *before* looking, so a publish landing between the
    /// look and the sleep is never missed — the reactor's
    /// publish-generation check in miniature.
    #[derive(Clone)]
    struct Waiter {
        hub: SessionHub,
        rings: Arc<(Mutex<u64>, Condvar)>,
    }

    impl Waiter {
        fn new(hub: &SessionHub) -> Waiter {
            let rings = Arc::new((Mutex::new(0u64), Condvar::new()));
            let bell = rings.clone();
            hub.add_wake_hook(move || {
                *bell.0.lock() += 1;
                bell.1.notify_all();
            });
            Waiter {
                hub: hub.clone(),
                rings,
            }
        }

        /// The oldest retained frame newer than `since` (full payload),
        /// waiting up to `timeout` for one to be published.
        fn poll(&self, since: u64, timeout: Duration) -> Option<FramePayload> {
            let deadline = Instant::now() + timeout;
            loop {
                let rung = *self.rings.0.lock();
                if let Some(payload) = self.hub.try_payload(since, PollMode::Full) {
                    return Some(payload);
                }
                let mut count = self.rings.0.lock();
                while *count == rung {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.rings.1.wait_for(&mut count, deadline - now);
                }
            }
        }
    }

    fn cycle_of(payload: &FramePayload) -> u64 {
        let value: serde_json::Value = serde_json::from_str(&payload.json).unwrap();
        value["cycle"].as_u64().unwrap()
    }

    fn frame(cycle: u64) -> Frame {
        Frame {
            sequence: 0,
            cycle,
            time: cycle as f64 * 0.1,
            image: Image::filled(8, 8, [cycle as u8, 2, 3, 255]).encode_raw(),
            monitors: vec![("max_pressure".into(), 1.5)],
        }
    }

    /// An image of seeded random pixels — incompressible, so wire-size
    /// assertions measure the delta machinery rather than the RLE codec.
    fn noisy_image(rng: &mut StdRng, w: usize, h: usize) -> Image {
        let mut img = Image::new(w, h);
        for p in img.pixels.iter_mut() {
            *p = rng.gen_range(0..256) as u8;
        }
        img
    }

    #[test]
    fn publish_assigns_increasing_sequence_numbers() {
        let hub = SessionHub::new(4);
        assert_eq!(hub.latest_sequence(), 0);
        assert!(hub.latest_frame().is_none());
        assert_eq!(hub.publish(frame(1)), 1);
        assert_eq!(hub.publish(frame(2)), 2);
        assert_eq!(hub.latest_sequence(), 2);
        assert_eq!(hub.latest_frame().unwrap().cycle, 2);
    }

    #[test]
    fn poll_returns_only_newer_frames_and_respects_capacity() {
        let hub = SessionHub::new(2);
        let waiter = Waiter::new(&hub);
        for c in 1..=5 {
            hub.publish(frame(c));
        }
        // Capacity 2: only frames 4 and 5 are retained.
        let f = waiter.poll(0, Duration::from_millis(10)).unwrap();
        assert_eq!(cycle_of(&f), 4);
        let f = waiter.poll(f.sequence, Duration::from_millis(10)).unwrap();
        assert_eq!(cycle_of(&f), 5);
        // Nothing newer than 5: timeout.
        assert!(waiter.poll(f.sequence, Duration::from_millis(20)).is_none());
    }

    #[test]
    fn long_poll_wakes_when_a_frame_is_published() {
        let hub = SessionHub::new(4);
        let waiter = Waiter::new(&hub);
        let started = Instant::now();
        let poller = std::thread::spawn(move || waiter.poll(0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        hub.publish(frame(9));
        let got = poller
            .join()
            .unwrap()
            .expect("poller should wake with the frame");
        assert_eq!(cycle_of(&got), 9);
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "the wake hook, not the timeout, must end the wait"
        );
    }

    #[test]
    fn payloads_are_encoded_once_and_shared_across_pollers() {
        let hub = SessionHub::new(8);
        hub.publish(frame(1));
        let encodes_after_publish = hub.encode_count();
        let first = hub.try_payload(0, PollMode::Full).unwrap();
        for _ in 0..100 {
            let p = hub.try_payload(0, PollMode::Full).unwrap();
            assert!(Arc::ptr_eq(&p.json, &first.json), "same shared allocation");
        }
        assert_eq!(
            hub.encode_count(),
            encodes_after_publish,
            "polling must not encode"
        );
        let value: serde_json::Value = serde_json::from_str(&first.json).unwrap();
        assert_eq!(value["sequence"], 1);
        assert_eq!(value["mode"], "full");
    }

    #[test]
    fn delta_mode_serves_tiles_to_caught_up_pollers_and_full_to_laggards() {
        let hub = SessionHub::new(8);
        let mut img = Image::filled(64, 64, [10, 20, 30, 255]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(1)
        });
        // Change one pixel: exactly one tile differs.
        img.set(5, 5, [200, 0, 0, 255]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(2)
        });

        let caught_up = hub.try_payload(1, PollMode::Delta).unwrap();
        assert!(caught_up.is_delta);
        let value: serde_json::Value = serde_json::from_str(&caught_up.json).unwrap();
        assert_eq!(value["mode"], "delta");
        assert_eq!(value["base_sequence"], 1);
        assert_eq!(value["tiles"].as_array().unwrap().len(), 1);

        // A poller two frames behind gets the full frame even in delta mode.
        let laggard = hub.try_payload(0, PollMode::Delta).unwrap();
        assert!(!laggard.is_delta);
        // Full mode never serves deltas.
        assert!(!hub.try_payload(1, PollMode::Full).unwrap().is_delta);
    }

    #[test]
    fn delta_is_smaller_on_wire_and_skipped_when_not() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let hub = SessionHub::new(8);
        let base = noisy_image(&mut rng, 64, 64);
        hub.publish(Frame {
            image: base.encode_raw(),
            ..frame(1)
        });
        let mut small_change = base.clone();
        small_change.set(0, 0, [9, 9, 9, 255]);
        hub.publish(Frame {
            image: small_change.encode_raw(),
            ..frame(2)
        });
        let delta = hub.try_payload(1, PollMode::Delta).unwrap();
        let full = hub.try_payload(1, PollMode::Full).unwrap();
        assert!(delta.is_delta);
        assert!(
            delta.json.len() < full.json.len() / 3,
            "one-tile delta should be far smaller than the full frame"
        );
        // Now replace every pixel with fresh noise: the delta covers the
        // whole screen plus per-tile overhead, so the hub falls back to
        // full.
        hub.publish(Frame {
            image: noisy_image(&mut rng, 64, 64).encode_raw(),
            ..frame(3)
        });
        assert!(!hub.try_payload(2, PollMode::Delta).unwrap().is_delta);
    }

    #[test]
    fn full_payload_rle_codec_shrinks_flat_frames_and_round_trips() {
        // A flat frame is dominated by one pixel run: the payload must be
        // marked codec=rle, be far smaller than the raw bytes, and decode
        // back bit-for-bit via image_from_json.
        let flat = Frame {
            sequence: 1,
            cycle: 1,
            time: 0.1,
            image: Image::filled(64, 64, [10, 20, 30, 255]).encode_raw(),
            monitors: vec![],
        };
        let json = encode_frame_full(&flat, 7);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["codec"], "rle");
        assert_eq!(image_from_json(&value).unwrap(), flat.image);
        assert!(
            json.len() < flat.image.len() / 4,
            "flat frame must compress well: {} -> {}",
            flat.image.len(),
            json.len()
        );

        // Incompressible frames ship raw — no codec field, never larger.
        let mut rng = StdRng::seed_from_u64(11);
        let noisy = Frame {
            image: noisy_image(&mut rng, 32, 32).encode_raw(),
            ..flat
        };
        let json = encode_frame_full(&noisy, 7);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(value.get("codec").is_none());
        assert_eq!(image_from_json(&value).unwrap(), noisy.image);
    }

    #[test]
    fn delta_tiles_rle_compress_flat_tiles_and_decode_exactly() {
        // A one-pixel change in a flat region: the changed tile is mostly
        // one run, so it ships rle-marked, and delta_from_json must undo
        // the compression transparently.
        let prev = Image::filled(64, 64, [5, 6, 7, 255]);
        let mut cur = prev.clone();
        cur.set(40, 9, [1, 2, 3, 4]);
        let delta = diff_images(&prev, &cur, DELTA_TILE).unwrap();
        let f = Frame {
            sequence: 2,
            cycle: 2,
            time: 0.2,
            image: cur.encode_raw(),
            monitors: vec![],
        };
        let json = encode_frame_delta(&f, 7, 1, &delta);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let tiles = value["tiles"].as_array().unwrap();
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0]["rle"], true);
        let (base, wire) = delta_from_json(&value).unwrap();
        assert_eq!(base, 1);
        assert_eq!(apply_delta(&prev, &wire), cur);
    }

    #[test]
    fn delta_reconstruction_is_exact_on_random_frames() {
        // Property test: for seeded random frame pairs, shipping the delta
        // and applying it client-side reproduces the full frame exactly —
        // including the JSON/base64 wire round trip.
        let mut rng = StdRng::seed_from_u64(0xD31A);
        for case in 0..40 {
            let (w, h) = (1 + rng.gen_range(0..70), 1 + rng.gen_range(0..50));
            let mut prev = Image::new(w, h);
            for p in prev.pixels.iter_mut() {
                *p = rng.gen_range(0..256) as u8;
            }
            let mut cur = prev.clone();
            // Sparse random edits (possibly none).
            let edits = rng.gen_range(0..40);
            for _ in 0..edits {
                let x = rng.gen_range(0..w);
                let y = rng.gen_range(0..h);
                cur.set(x, y, [rng.gen_range(0..256) as u8, 0, 255, 1]);
            }
            let delta = diff_images(&prev, &cur, DELTA_TILE).unwrap();
            assert_eq!(apply_delta(&prev, &delta), cur, "case {case}: direct");

            // Through the wire: encode, parse, decode, apply.
            let f = Frame {
                sequence: 2,
                cycle: 2,
                time: 0.2,
                image: cur.encode_raw(),
                monitors: vec![],
            };
            let json = encode_frame_delta(&f, 7, 1, &delta);
            let value: serde_json::Value = serde_json::from_str(&json).unwrap();
            let (base, wire_delta) = delta_from_json(&value).unwrap();
            assert_eq!(base, 1);
            assert_eq!(
                apply_delta(&prev, &wire_delta),
                cur,
                "case {case}: via JSON wire"
            );
        }
    }

    /// Publish a run of frames with sparse edits confined to the first two
    /// tiles, returning the image history indexed by `sequence - 1`.
    fn publish_chain(hub: &SessionHub, rng: &mut StdRng, steps: u64) -> Vec<Image> {
        let (w, h) = (96, 64);
        let mut img = noisy_image(rng, w, h);
        let mut history = Vec::new();
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(0)
        });
        history.push(img.clone());
        for c in 1..=steps {
            // Sparse edits inside the first two tiles of the grid: each
            // per-step delta stays small relative to the (noisy,
            // incompressible) full frame, so deltas and compositions pass
            // the profitability filter.
            for _ in 0..6 {
                let x = rng.gen_range(0..2 * DELTA_TILE);
                let y = rng.gen_range(0..DELTA_TILE);
                img.set(x, y, [rng.gen_range(0..256) as u8, 1, 2, 255]);
            }
            hub.publish(Frame {
                image: img.encode_raw(),
                ..frame(c)
            });
            history.push(img.clone());
        }
        history
    }

    #[test]
    fn composed_delta_chains_reconstruct_the_head_frame_exactly() {
        // Property test: a client `lag` frames behind receives one merged
        // delta jumping it straight to the head; applying that delta to
        // its retained pixels must reproduce the head frame bit-for-bit,
        // for every lag in 2..=MAX_DELTA_CHAIN — i.e. composing k per-step
        // deltas is exactly equivalent to applying them one by one.
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let hub = SessionHub::new(32);
        let history = publish_chain(&hub, &mut rng, MAX_DELTA_CHAIN + 2);
        let head = hub.latest_sequence();
        for lag in 2..=MAX_DELTA_CHAIN {
            let since = head - lag;
            let payload = hub.try_payload(since, PollMode::Delta).unwrap();
            assert!(payload.is_delta, "lag {lag} should compose a delta");
            assert_eq!(payload.sequence, head, "a composition jumps to head");
            let value: serde_json::Value = serde_json::from_str(&payload.json).unwrap();
            let (base, wire) = delta_from_json(&value).unwrap();
            assert_eq!(base, since, "delta is based on the client's pixels");
            assert_eq!(
                apply_delta(&history[since as usize - 1], &wire),
                history[head as usize - 1],
                "lag {lag}: composed chain must equal the head frame"
            );
        }
        // Beyond MAX_DELTA_CHAIN the hub ships a full frame instead.
        let far = hub
            .try_payload(head - MAX_DELTA_CHAIN - 1, PollMode::Delta)
            .unwrap();
        assert!(!far.is_delta, "over-long chains fall back to full");
    }

    #[test]
    fn composed_deltas_are_encoded_once_and_shared_across_pollers() {
        let mut rng = StdRng::seed_from_u64(0xFACE);
        let hub = SessionHub::new(32);
        publish_chain(&hub, &mut rng, 5);
        let head = hub.latest_sequence();
        let since = head - 3;
        let first = hub.try_payload(since, PollMode::Delta).unwrap();
        assert!(first.is_delta);
        let encodes = hub.encode_count();
        for _ in 0..50 {
            let p = hub.try_payload(since, PollMode::Delta).unwrap();
            assert!(Arc::ptr_eq(&p.json, &first.json), "same shared composition");
        }
        assert_eq!(
            hub.encode_count(),
            encodes,
            "repeat compositions must hit the cache, not re-encode"
        );
    }

    #[test]
    fn wake_hooks_run_after_every_publish() {
        let hub = SessionHub::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        let hub2 = hub.clone();
        let hits2 = hits.clone();
        hub.add_wake_hook(move || {
            // The new frame must already be readable when the hook runs —
            // the readiness Waker contract (ring the bell only after the
            // frame is observable).
            assert!(hub2.latest_sequence() >= 1);
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        hub.publish(frame(1));
        hub.publish(frame(2));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn sharded_cursors_stay_exact_under_racing_clients_and_publishers() {
        // Clients spread across every shard race cursor reads/updates
        // against two concurrent publishers: every cursor must advance
        // monotonically to the final sequence and the registry count must
        // stay exact (nothing lost or double-evicted).
        const CLIENTS: usize = 2 * CURSOR_SHARDS;
        const FRAMES: u64 = 60;
        let hub = SessionHub::with_limits(256, 1024);
        let ids: Vec<u64> = (0..CLIENTS).map(|_| hub.register_client()).collect();
        assert_eq!(hub.client_count(), CLIENTS);
        let workers: Vec<_> = ids
            .iter()
            .map(|&id| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    let mut last = hub.client_cursor(id).unwrap();
                    while last < FRAMES {
                        if let Some(p) = hub.try_payload(last, PollMode::Full) {
                            assert!(p.sequence > last, "payload must move the cursor");
                            hub.update_cursor(id, p.sequence);
                            let cur = hub.client_cursor(id).unwrap();
                            assert!(cur >= p.sequence, "cursor went backwards");
                            last = cur;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    for c in 0..FRAMES / 2 {
                        hub.publish(frame(c));
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(hub.client_count(), CLIENTS, "no client lost to races");
        for id in ids {
            assert_eq!(hub.client_cursor(id), Some(FRAMES));
        }
    }

    #[test]
    fn diff_rejects_resizes_and_identical_frames_have_empty_deltas() {
        let a = Image::filled(8, 8, [1, 1, 1, 1]);
        let b = Image::filled(16, 8, [1, 1, 1, 1]);
        assert!(diff_images(&a, &b, DELTA_TILE).is_none());
        let d = diff_images(&a, &a, DELTA_TILE).unwrap();
        assert!(d.tiles.is_empty());
        assert_eq!(apply_delta(&a, &d), a);
    }

    #[test]
    fn base64_round_trips_and_matches_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(base64_decode("Zg==").unwrap(), b"f");
        assert!(base64_decode("Zg=").is_none());
        assert!(base64_decode("Z!==").is_none());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let n = rng.gen_range(0..100);
            let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..256) as u8).collect();
            assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
        }
    }

    #[test]
    fn racing_pollers_see_every_sequence_exactly_once() {
        // Many pollers race one publisher; capacity exceeds the frame
        // count, so every poller must observe 1..=N with no loss and no
        // duplication.
        const FRAMES: u64 = 200;
        const POLLERS: usize = 8;
        let hub = SessionHub::new(FRAMES as usize + 1);
        let waiter = Waiter::new(&hub);
        let pollers: Vec<_> = (0..POLLERS)
            .map(|_| {
                let waiter = waiter.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    let mut since = 0;
                    while since < FRAMES {
                        if let Some(f) = waiter.poll(since, Duration::from_secs(10)) {
                            seen.push(f.sequence);
                            since = f.sequence;
                        }
                    }
                    seen
                })
            })
            .collect();
        let publisher = {
            let hub = hub.clone();
            std::thread::spawn(move || {
                for c in 1..=FRAMES {
                    hub.publish(frame(c));
                    if c.is_multiple_of(50) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        };
        publisher.join().unwrap();
        for poller in pollers {
            let seen = poller.join().unwrap();
            let expected: Vec<u64> = (1..=FRAMES).collect();
            assert_eq!(seen, expected, "no lost or duplicated sequence numbers");
        }
        // At most one full + one delta encode per publish, independent of
        // the number of pollers.
        assert!(hub.encode_count() <= 2 * FRAMES);
    }

    #[test]
    fn payloads_are_stamped_with_the_hub_epoch() {
        // The epoch marks the server incarnation: a client must be able to
        // detect a restart and discard retained pixels before applying a
        // delta from the wrong epoch.
        let hub = SessionHub::new(4);
        let epoch = hub.epoch();
        assert!(epoch > 0);
        let mut img = Image::filled(64, 64, [9, 9, 9, 255]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(1)
        });
        img.set(0, 0, [1, 2, 3, 4]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(2)
        });
        for (since, mode) in [(0, PollMode::Full), (1, PollMode::Delta)] {
            let payload = hub.try_payload(since, mode).unwrap();
            let value: serde_json::Value = serde_json::from_str(&payload.json).unwrap();
            assert_eq!(value["epoch"].as_u64(), Some(epoch));
        }
    }

    #[test]
    fn racing_publishers_keep_the_frame_cache_ordered() {
        // publish() drops the hub lock while encoding, so two publishers
        // can interleave; insertion must still keep the cache in sequence
        // order so pollers walk it monotonically.
        const PER_PUBLISHER: u64 = 100;
        let hub = SessionHub::new(2 * PER_PUBLISHER as usize + 1);
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    for c in 0..PER_PUBLISHER {
                        hub.publish(frame(c));
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        assert_eq!(hub.latest_sequence(), 2 * PER_PUBLISHER);
        let waiter = Waiter::new(&hub);
        let mut since = 0;
        while let Some(f) = waiter.poll(since, Duration::from_millis(5)) {
            assert_eq!(f.sequence, since + 1, "cache must be gap-free and ordered");
            since = f.sequence;
        }
        assert_eq!(since, 2 * PER_PUBLISHER);
    }

    #[test]
    fn pollers_never_skip_frames_while_publishers_race() {
        // Two publishers encode outside the hub lock, so frame N+1 can be
        // inserted while N is still encoding; the in-flight visibility
        // gate must withhold N+1 until N lands, or a live poller would
        // advance past N and lose it.  Pollers run *during* the race and
        // assert strict gap-free delivery.
        const PER_PUBLISHER: u64 = 150;
        let hub = SessionHub::new(2 * PER_PUBLISHER as usize + 1);
        let waiter = Waiter::new(&hub);
        let pollers: Vec<_> = (0..4)
            .map(|_| {
                let waiter = waiter.clone();
                std::thread::spawn(move || {
                    let mut since = 0;
                    while since < 2 * PER_PUBLISHER {
                        if let Some(f) = waiter.poll(since, Duration::from_secs(10)) {
                            assert_eq!(
                                f.sequence,
                                since + 1,
                                "a frame was skipped while publishers raced"
                            );
                            since = f.sequence;
                        }
                    }
                })
            })
            .collect();
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    for c in 0..PER_PUBLISHER {
                        hub.publish(frame(c));
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        for p in pollers {
            p.join().unwrap();
        }
    }

    #[test]
    fn client_cursors_advance_and_stalest_client_is_evicted_at_capacity() {
        let hub = SessionHub::with_limits(8, 2);
        let a = hub.register_client();
        let b = hub.register_client();
        assert_eq!(hub.client_cursor(a), Some(0));
        hub.publish(frame(1));
        hub.update_cursor(a, 1);
        assert_eq!(hub.client_cursor(a), Some(1));
        // Cursors never move backwards.
        hub.update_cursor(a, 0);
        assert_eq!(hub.client_cursor(a), Some(1));
        // `b` is now the stalest (a was touched since); registering a third
        // client evicts b.
        let c = hub.register_client();
        assert_eq!(hub.client_count(), 2);
        assert_eq!(hub.client_cursor(b), None, "stalest client evicted");
        assert_eq!(hub.client_cursor(a), Some(1), "active client survives");
        assert_eq!(hub.client_cursor(c), Some(0));
        // Updates for evicted ids are ignored, not resurrected.
        hub.update_cursor(b, 5);
        assert_eq!(hub.client_cursor(b), None);
    }

    #[test]
    fn staged_cursors_commit_on_same_connection_only() {
        let hub = SessionHub::with_limits(8, 4);
        let c = hub.register_client();
        hub.stage_cursor(c, 7, 3);
        assert_eq!(
            hub.client_cursor(c),
            Some(0),
            "a staged delivery must not move the committed cursor"
        );
        // The next poll arrives on a *different* connection: the staged
        // response died with its socket, so it is dropped, not committed.
        assert_eq!(hub.ack_poll(c, 9), Some(0));
        // Same connection: a later stage supersedes monotonically and the
        // next poll commits it.
        hub.stage_cursor(c, 9, 3);
        hub.stage_cursor(c, 9, 4);
        assert_eq!(hub.ack_poll(c, 9), Some(4));
        assert_eq!(hub.client_cursor(c), Some(4));
        // Unknown clients: staging is ignored, acking reports None.
        hub.stage_cursor(999, 1, 1);
        assert_eq!(hub.ack_poll(999, 1), None);
    }

    #[test]
    fn steering_inbox_keeps_the_latest_request() {
        let inbox = SteeringInbox::new();
        assert!(inbox.is_empty());
        assert!(inbox.drain_latest().is_none());
        inbox.post(SteerableParams {
            cfl: 0.1,
            ..SteerableParams::default()
        });
        inbox.post(SteerableParams {
            cfl: 0.3,
            ..SteerableParams::default()
        });
        assert_eq!(inbox.len(), 2);
        let latest = inbox.drain_latest().unwrap();
        assert!((latest.cfl - 0.3).abs() < 1e-12);
        assert!(inbox.is_empty());
    }
}
