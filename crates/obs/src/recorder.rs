//! The recorder handle, the session that owns the event buffer, and the
//! finished recording.
//!
//! Instrumented code holds a [`Recorder`] — a clone-cheap handle that is
//! either attached to a [`Session`] buffer or disabled. Disabled is the
//! default everywhere, so uninstrumented runs (benches, Table 3) pay one
//! branch per probe and allocate nothing.

use std::sync::{Arc, Mutex};

use crate::chrome;
use crate::event::{Attr, Phase, TraceRecord, Track};

/// Cheap cloneable handle for publishing events onto a session's bus.
///
/// `Recorder::default()` / [`Recorder::disabled`] produce the no-op
/// recorder: every probe method returns after a single `Option` check.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    buf: Option<Arc<Mutex<Vec<TraceRecord>>>>,
}

impl Recorder {
    /// The no-op recorder. Probes through it record nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// Whether events published through this handle are kept. Hot loops
    /// should check this before assembling per-cycle attributes.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Publishes a raw record.
    pub fn record(&self, record: TraceRecord) {
        if let Some(buf) = &self.buf {
            buf.lock().expect("obs buffer poisoned").push(record);
        }
    }

    fn push(&self, ts_ns: u64, track: Track, name: &'static str, phase: Phase, args: &[Attr]) {
        if let Some(buf) = &self.buf {
            buf.lock().expect("obs buffer poisoned").push(TraceRecord {
                ts_ns,
                track,
                name,
                phase,
                args: args.to_vec(),
            });
        }
    }

    /// Publishes a self-contained span `[start_ns, end_ns]`.
    /// Spans with `end_ns < start_ns` are clamped to zero duration.
    pub fn span(
        &self,
        track: Track,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: &[Attr],
    ) {
        self.push(
            start_ns,
            track,
            name,
            Phase::Complete {
                dur_ns: end_ns.saturating_sub(start_ns),
            },
            args,
        );
    }

    /// Opens a span; match with [`Recorder::end`] on the same track.
    pub fn begin(&self, track: Track, name: &'static str, ts_ns: u64, args: &[Attr]) {
        self.push(ts_ns, track, name, Phase::Begin, args);
    }

    /// Closes the innermost open span on `track`.
    pub fn end(&self, track: Track, name: &'static str, ts_ns: u64) {
        self.push(ts_ns, track, name, Phase::End, &[]);
    }

    /// Publishes a zero-duration marker.
    pub fn instant(&self, track: Track, name: &'static str, ts_ns: u64, args: &[Attr]) {
        self.push(ts_ns, track, name, Phase::Instant, args);
    }

    /// Publishes a sampled counter value, drawn as a graph in Perfetto.
    pub fn counter(&self, track: Track, name: &'static str, ts_ns: u64, value: f64) {
        self.push(ts_ns, track, name, Phase::Counter { value }, &[]);
    }
}

/// Owns the event buffer; hands out [`Recorder`]s and yields the final
/// [`Recording`].
#[derive(Debug, Default)]
pub struct Session {
    buf: Arc<Mutex<Vec<TraceRecord>>>,
}

impl Session {
    /// Starts an empty session.
    #[must_use]
    pub fn new() -> Self {
        Session::default()
    }

    /// A recorder handle attached to this session's buffer.
    #[must_use]
    pub fn recorder(&self) -> Recorder {
        Recorder {
            buf: Some(Arc::clone(&self.buf)),
        }
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.lock().expect("obs buffer poisoned").len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the session and returns the recording, sorted by
    /// timestamp (stable, so same-timestamp emission order is kept).
    #[must_use]
    pub fn finish(self) -> Recording {
        let mut events = match Arc::try_unwrap(self.buf) {
            Ok(m) => m.into_inner().expect("obs buffer poisoned"),
            // Recorder handles still alive: copy out instead.
            Err(shared) => shared.lock().expect("obs buffer poisoned").clone(),
        };
        events.sort_by_key(|e| e.ts_ns);
        Recording { events }
    }
}

/// A finished, timestamp-sorted recording.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// The recorded events, sorted by `ts_ns`.
    pub events: Vec<TraceRecord>,
}

impl Recording {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the recording holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events belonging to `track`.
    #[must_use]
    pub fn on_track(&self, track: Track) -> Vec<&TraceRecord> {
        self.events.iter().filter(|e| e.track == track).collect()
    }

    /// The distinct tracks present, in tid order.
    #[must_use]
    pub fn tracks(&self) -> Vec<Track> {
        let mut tracks: Vec<Track> = Vec::new();
        for e in &self.events {
            if !tracks.contains(&e.track) {
                tracks.push(e.track);
            }
        }
        tracks.sort_by_key(|t| t.tid());
        tracks
    }

    /// Serialises to Chrome trace-event JSON (see [`chrome`]).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.span(Track::Dma, "strip", 0, 100, &[("strip", 1u64.into())]);
        rec.begin(Track::Pu, "stall", 5, &[]);
        rec.end(Track::Pu, "stall", 9);
        rec.instant(Track::Engine, "irq", 0, &[]);
        rec.counter(Track::Oim, "occupancy", 3, 4.0);
        rec.record(TraceRecord {
            ts_ns: 0,
            track: Track::Gme,
            name: "x",
            phase: Phase::Instant,
            args: Vec::new(),
        });
        // Nothing to observe on the recorder itself — the guarantee is that
        // an enabled session started afterwards sees only its own events.
        let session = Session::new();
        assert!(session.is_empty());
    }

    #[test]
    fn session_collects_and_sorts() {
        let session = Session::new();
        let rec = session.recorder();
        assert!(rec.is_enabled());
        rec.instant(Track::Engine, "late", 500, &[]);
        rec.instant(Track::Engine, "early", 100, &[]);
        let rec2 = rec.clone();
        rec2.span(Track::Dma, "strip", 200, 300, &[]);
        assert_eq!(session.len(), 3);
        let recording = session.finish();
        assert_eq!(recording.len(), 3);
        let ts: Vec<u64> = recording.events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![100, 200, 500]);
        assert_eq!(recording.on_track(Track::Dma).len(), 1);
        assert_eq!(recording.tracks(), vec![Track::Engine, Track::Dma]);
    }

    #[test]
    fn span_clamps_negative_duration() {
        let session = Session::new();
        session.recorder().span(Track::Pci, "odd", 100, 50, &[]);
        let recording = session.finish();
        assert_eq!(recording.events[0].phase, Phase::Complete { dur_ns: 0 });
    }
}
