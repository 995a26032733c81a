//! Client-side checks on every frame a viewer receives.
//!
//! * The wire audit: a delivery must advance the viewer's sequence (no
//!   repeat, no regression), and a delta must be based on exactly the
//!   frame the viewer holds.
//! * The pixel check: the viewer rebuilds the image (RLE decode, delta
//!   apply) and compares it byte for byte with the frame published under
//!   that sequence.
//!
//! The published frames are kept in a bounded [`FrameLog`] the publisher
//! fills *before* each publish, so a viewer never sees a sequence the log
//! does not hold yet.

use crate::trace::SpanId;
use ricsa_viz::image::Image;
use ricsa_webfront::hub::{apply_delta, delta_from_json, image_from_json};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Frames retained by the log; far more than any viewer's lag.
pub const LOG_CAPACITY: usize = 96;

/// How a delivery moved the viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// A delta exactly one frame ahead.
    Delta,
    /// A composed delta chain more than one frame ahead.
    Chain,
    /// A full frame exactly one ahead (or the viewer's first frame).
    Full,
    /// A full frame that skipped ahead: the resync of a lagging viewer.
    Resync,
}

/// A failed check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The delivered sequence equals the one held.
    Duplicate(u64),
    /// The delivered sequence is older than the one held.
    Regression { held: u64, got: u64 },
    /// A delta's base is not the frame the viewer holds.
    BaseMismatch { held: u64, base: u64 },
    /// The payload could not be decoded.
    Malformed(String),
    /// The rebuilt image differs from the published one.
    Pixels { sequence: u64, first_diff: usize },
    /// The published frame is not in the log.
    Unlogged(u64),
}

/// Wire-audit one delivery of `got` (with delta base `base`, if a delta)
/// to a viewer holding `held` (0 = nothing yet).
pub fn audit_sequence(held: u64, got: u64, base: Option<u64>) -> Result<Delivery, AuditError> {
    if got == held {
        return Err(AuditError::Duplicate(got));
    }
    if got < held {
        return Err(AuditError::Regression { held, got });
    }
    match base {
        Some(base) if base != held => Err(AuditError::BaseMismatch { held, base }),
        Some(_) if got == held + 1 => Ok(Delivery::Delta),
        Some(_) => Ok(Delivery::Chain),
        None if held == 0 || got == held + 1 => Ok(Delivery::Full),
        None => Ok(Delivery::Resync),
    }
}

/// Compare rebuilt image bytes with the published ones.
pub fn pixel_check(sequence: u64, rebuilt: &[u8], published: &[u8]) -> Result<(), AuditError> {
    if rebuilt == published {
        return Ok(());
    }
    let first_diff = rebuilt
        .iter()
        .zip(published)
        .position(|(a, b)| a != b)
        .unwrap_or(rebuilt.len().min(published.len()));
    Err(AuditError::Pixels {
        sequence,
        first_diff,
    })
}

/// One published frame as the log keeps it.
#[derive(Clone)]
pub struct Logged {
    /// Raw image bytes (`Image::encode_raw`) handed to the hub.
    pub raw: Arc<Vec<u8>>,
    /// The same image decoded, so a viewer resumes from it and checks a
    /// rebuilt image against it without decoding per request.
    pub image: Arc<Image>,
    /// When the publish call started.
    pub published_at: Instant,
    /// When the cycle that produced the frame ended (the publish time for
    /// synthetic frames).
    pub produced_at: Instant,
    /// The traced span of the frame's journey, ended on receipt.
    pub span: SpanId,
}

/// The publisher's record of recent frames, by sequence.
#[derive(Clone, Default)]
pub struct FrameLog {
    frames: Arc<Mutex<BTreeMap<u64, Logged>>>,
}

impl FrameLog {
    /// Record the frame about to be published as `sequence`.
    pub fn insert(&self, sequence: u64, frame: Logged) {
        let mut frames = self.frames.lock().expect("frame log poisoned");
        frames.insert(sequence, frame);
        while frames.len() > LOG_CAPACITY {
            frames.pop_first();
        }
    }

    /// The logged frame `sequence`.
    pub fn get(&self, sequence: u64) -> Option<Logged> {
        self.frames
            .lock()
            .expect("frame log poisoned")
            .get(&sequence)
            .cloned()
    }
}

/// A decoded poll response carrying a frame.
pub struct Received {
    /// Frame sequence.
    pub sequence: u64,
    /// How the delivery moved the viewer.
    pub kind: Delivery,
    /// The frame's monitors, by name.
    pub monitors: Vec<(String, f64)>,
}

/// What a viewer holds: the sequence and image of its newest frame.
#[derive(Default)]
pub struct Viewer {
    /// Held sequence (0 = none).
    pub held: u64,
    /// Held image.
    pub image: Option<Arc<Image>>,
}

impl Viewer {
    /// A viewer that already holds logged frame `sequence` (a catch-up
    /// client resuming from it).
    pub fn holding(sequence: u64, log: &FrameLog) -> Result<Viewer, AuditError> {
        let logged = log.get(sequence).ok_or(AuditError::Unlogged(sequence))?;
        Ok(Viewer {
            held: sequence,
            image: Some(logged.image),
        })
    }

    /// Audit, rebuild and pixel-check one frame-carrying response, then
    /// hold it.  `Ok(None)` for an empty long-poll timeout.
    pub fn receive(&mut self, body: &[u8], log: &FrameLog) -> Result<Option<Received>, AuditError> {
        let value =
            crate::json::parse(body).map_err(|e| AuditError::Malformed(format!("json: {e}")))?;
        let Some(sequence) = value.get("sequence").and_then(Value::as_u64) else {
            return Ok(None);
        };
        let delta = delta_from_json(&value);
        let kind = audit_sequence(self.held, sequence, delta.as_ref().map(|(b, _)| *b))?;
        let published = log.get(sequence).ok_or(AuditError::Unlogged(sequence))?;
        match delta {
            Some((_, delta)) => {
                let held = self
                    .image
                    .as_ref()
                    .ok_or_else(|| AuditError::Malformed("delta without a held image".into()))?;
                let rebuilt = apply_delta(held, &delta);
                if (rebuilt.width, rebuilt.height)
                    != (published.image.width, published.image.height)
                {
                    return Err(AuditError::Pixels {
                        sequence,
                        first_diff: 0,
                    });
                }
                pixel_check(sequence, &rebuilt.pixels, &published.image.pixels)?;
            }
            None => {
                let raw = image_from_json(&value)
                    .ok_or_else(|| AuditError::Malformed("full image".into()))?;
                pixel_check(sequence, &raw, &published.raw)?;
            }
        }
        let monitors = value
            .get("monitors")
            .and_then(Value::as_array)
            .map(|pairs| {
                pairs
                    .iter()
                    .filter_map(|p| {
                        let p = p.as_array()?;
                        Some((p.first()?.as_str()?.to_string(), p.get(1)?.as_f64()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        // The rebuilt image equals the published one byte for byte, so the
        // viewer holds the logged copy.
        self.held = sequence;
        self.image = Some(published.image);
        Ok(Some(Received {
            sequence,
            kind,
            monitors,
        }))
    }
}

/// Delivery counts by kind, for the hub's share metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindCounts {
    /// Single-step deltas.
    pub delta: u64,
    /// Composed chains.
    pub chain: u64,
    /// Full frames one ahead.
    pub full: u64,
    /// Skip-ahead resyncs.
    pub resync: u64,
}

impl KindCounts {
    /// Count one delivery.
    pub fn add(&mut self, kind: Delivery) {
        match kind {
            Delivery::Delta => self.delta += 1,
            Delivery::Chain => self.chain += 1,
            Delivery::Full => self.full += 1,
            Delivery::Resync => self.resync += 1,
        }
    }

    /// Fold in another count.
    pub fn merge(&mut self, other: KindCounts) {
        self.delta += other.delta;
        self.chain += other.chain;
        self.full += other.full;
        self.resync += other.resync;
    }

    /// All deliveries.
    pub fn total(&self) -> u64 {
        self.delta + self.chain + self.full + self.resync
    }

    /// `part` as a share of all deliveries.
    pub fn share(&self, part: u64) -> f64 {
        part as f64 / self.total().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_webfront::hub::{Frame, PollMode, SessionHub};

    /// A busy background (so full frames stay large after RLE) with a
    /// small mark that moves each step (so deltas are a tile or two).
    fn image(step: usize) -> Image {
        let mut img = Image::new(128, 128);
        for y in 0..128 {
            for x in 0..128 {
                img.set(x, y, [(x ^ y) as u8, x as u8, y as u8, 255]);
            }
        }
        for i in 0..4 {
            img.set((step * 7 + i) % 128, (step * 3) % 128, [255, 0, 0, 255]);
        }
        img
    }

    /// A hub with frames 1..=n published and logged.
    fn published(n: usize) -> (SessionHub, FrameLog) {
        let hub = SessionHub::default();
        let log = FrameLog::default();
        for step in 0..n {
            let raw = image(step).encode_raw();
            let now = Instant::now();
            log.insert(
                step as u64 + 1,
                Logged {
                    raw: Arc::new(raw.clone()),
                    image: Arc::new(image(step)),
                    published_at: now,
                    produced_at: now,
                    span: SpanId::NONE,
                },
            );
            hub.publish(Frame {
                sequence: 0,
                cycle: step as u64,
                time: 0.0,
                image: raw,
                monitors: vec![("step".into(), step as f64)],
            });
        }
        (hub, log)
    }

    fn payload(hub: &SessionHub, since: u64, mode: PollMode) -> Vec<u8> {
        hub.try_payload(since, mode)
            .expect("a frame newer than since")
            .json
            .as_bytes()
            .to_vec()
    }

    #[test]
    fn sequence_rules() {
        assert_eq!(audit_sequence(0, 1, None), Ok(Delivery::Full));
        assert_eq!(audit_sequence(4, 5, Some(4)), Ok(Delivery::Delta));
        assert_eq!(audit_sequence(4, 7, Some(4)), Ok(Delivery::Chain));
        assert_eq!(audit_sequence(4, 20, None), Ok(Delivery::Resync));
        assert_eq!(audit_sequence(5, 5, None), Err(AuditError::Duplicate(5)));
        assert_eq!(
            audit_sequence(5, 3, None),
            Err(AuditError::Regression { held: 5, got: 3 })
        );
        assert_eq!(
            audit_sequence(5, 6, Some(4)),
            Err(AuditError::BaseMismatch { held: 5, base: 4 })
        );
    }

    #[test]
    fn a_clean_stream_of_deltas_chains_and_resyncs_passes() {
        let (hub, log) = published(24);
        let mut fresh = Viewer::default();
        let first = fresh
            .receive(&payload(&hub, 0, PollMode::Delta), &log)
            .unwrap()
            .unwrap();
        assert_eq!((first.sequence, first.kind), (24, Delivery::Full));
        for (since, kind) in [
            (20, Delivery::Chain),
            (23, Delivery::Delta),
            (3, Delivery::Resync),
        ] {
            let mut v = Viewer::holding(since, &log).unwrap();
            let got = v
                .receive(&payload(&hub, since, PollMode::Delta), &log)
                .unwrap()
                .unwrap();
            assert_eq!(got.kind, kind, "since {since}");
            assert_eq!(got.sequence, 24);
            assert_eq!(got.monitors, vec![("step".to_string(), 23.0)]);
        }
        let mut stepping = Viewer::holding(5, &log).unwrap();
        let six = stepping
            .receive(&payload(&hub, 5, PollMode::Full), &log)
            .unwrap()
            .unwrap();
        assert_eq!((six.sequence, six.kind), (6, Delivery::Full));
    }

    #[test]
    fn the_audit_catches_an_injected_duplicate_regression_and_base_mismatch() {
        let (hub, log) = published(12);
        let twelve = payload(&hub, 11, PollMode::Delta);
        let mut v = Viewer::holding(11, &log).unwrap();
        v.receive(&twelve, &log).unwrap();
        // The same response again: a duplicate.
        assert_eq!(
            v.receive(&twelve, &log).err(),
            Some(AuditError::Duplicate(12))
        );
        // An older frame: a regression.
        let mut ahead = Viewer::holding(9, &log).unwrap();
        assert_eq!(
            ahead.receive(&payload(&hub, 5, PollMode::Full), &log).err(),
            Some(AuditError::Regression { held: 9, got: 6 })
        );
        // A delta cut against a frame the viewer does not hold.
        let mut other = Viewer::holding(10, &log).unwrap();
        assert_eq!(
            other.receive(&twelve, &log).err(),
            Some(AuditError::BaseMismatch { held: 10, base: 11 })
        );
    }

    #[test]
    fn the_pixel_check_catches_a_flipped_byte() {
        let (hub, log) = published(3);
        let logged = log.get(3).unwrap();
        let mut corrupt = (*logged.raw).clone();
        corrupt[100] ^= 0x01;
        let corrupt_image = Image::decode_raw(&corrupt).unwrap();
        assert_eq!(
            pixel_check(3, &corrupt, &logged.raw),
            Err(AuditError::Pixels {
                sequence: 3,
                first_diff: 100
            })
        );
        // The same flip in the log: the viewer's rebuild no longer matches
        // (byte 100 of the raw container is pixel byte 84).
        log.insert(
            3,
            Logged {
                raw: Arc::new(corrupt),
                image: Arc::new(corrupt_image),
                ..logged
            },
        );
        let mut v = Viewer::holding(2, &log).unwrap();
        assert!(matches!(
            v.receive(&payload(&hub, 2, PollMode::Delta), &log),
            Err(AuditError::Pixels { sequence: 3, .. })
        ));
    }
}
