//! Cycle attribution: turns a raw [`Recording`] into per-subsystem
//! busy/idle breakdowns — the "where did the cycles go" layer behind
//! `vipctl report`.
//!
//! Each track's *busy* time is the union of its span intervals
//! (overlapping spans are not double-counted), measured against the
//! recording's observation window. Everything is integer virtual-clock
//! nanoseconds, so attribution is deterministic and mode-independent.

use core::fmt::Write as _;

use crate::event::{Phase, Track};
use crate::json::JsonWriter;
use crate::recorder::Recording;

/// Busy/idle accounting for one track.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackUtilization {
    /// The subsystem track.
    pub track: Track,
    /// Nanoseconds covered by at least one span on this track.
    pub busy_ns: u64,
    /// Closed spans seen (complete spans plus matched begin/end pairs).
    pub spans: usize,
    /// All events on the track, including instants and counter samples.
    pub events: usize,
}

impl TrackUtilization {
    /// Busy fraction of a window of `window_ns` nanoseconds (0 for an
    /// empty window).
    #[must_use]
    pub fn utilization(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / window_ns as f64
    }
}

/// Per-track busy/idle attribution over one recording's window.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Earliest event timestamp.
    pub start_ns: u64,
    /// Latest span end (or event timestamp).
    pub end_ns: u64,
    /// One entry per track present, in tid order.
    pub tracks: Vec<TrackUtilization>,
}

impl Attribution {
    /// Computes the attribution of a recording.
    #[must_use]
    pub fn of(recording: &Recording) -> Attribution {
        let start_ns = recording.events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
        let end_ns = recording
            .events
            .iter()
            .map(crate::event::TraceRecord::end_ns)
            .max()
            .unwrap_or(0);
        let tracks = recording
            .tracks()
            .into_iter()
            .map(|track| {
                let events = recording.on_track(track);
                let mut intervals: Vec<(u64, u64)> = Vec::new();
                // Begin/End pairing: an End closes the most recent open
                // Begin with the same name on its track.
                let mut open: Vec<(&'static str, u64)> = Vec::new();
                for e in &events {
                    match e.phase {
                        Phase::Complete { .. } => intervals.push((e.ts_ns, e.end_ns())),
                        Phase::Begin => open.push((e.name, e.ts_ns)),
                        Phase::End => {
                            if let Some(i) = open.iter().rposition(|(name, _)| *name == e.name) {
                                let (_, begin) = open.remove(i);
                                intervals.push((begin, e.ts_ns));
                            }
                        }
                        Phase::Instant | Phase::Counter { .. } => {}
                    }
                }
                TrackUtilization {
                    track,
                    busy_ns: union_ns(&mut intervals),
                    spans: intervals.len(),
                    events: events.len(),
                }
            })
            .collect();
        Attribution {
            start_ns,
            end_ns,
            tracks,
        }
    }

    /// Length of the observation window in nanoseconds.
    #[must_use]
    pub fn window_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The entry for `track`, if it appeared in the recording.
    #[must_use]
    pub fn track(&self, track: Track) -> Option<&TrackUtilization> {
        self.tracks.iter().find(|t| t.track == track)
    }

    /// Renders the per-subsystem busy/idle utilization table.
    #[must_use]
    pub fn text_table(&self) -> String {
        let window = self.window_ns();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>14} {:>14} {:>8} {:>8} {:>8}",
            "track", "busy_ns", "idle_ns", "util%", "spans", "events"
        );
        for t in &self.tracks {
            let _ = writeln!(
                out,
                "{:<12} {:>14} {:>14} {:>7.2}% {:>8} {:>8}",
                t.track.name(),
                t.busy_ns,
                window.saturating_sub(t.busy_ns),
                100.0 * t.utilization(window),
                t.spans,
                t.events
            );
        }
        let _ = writeln!(out, "window: {window} ns");
        out
    }

    /// Serialises the attribution as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the attribution into an open [`JsonWriter`] (one value).
    pub fn write_json(&self, w: &mut JsonWriter) {
        let window = self.window_ns();
        w.begin_object();
        w.key("start_ns");
        w.u64(self.start_ns);
        w.key("end_ns");
        w.u64(self.end_ns);
        w.key("window_ns");
        w.u64(window);
        w.key("tracks");
        w.begin_array();
        for t in &self.tracks {
            w.begin_object();
            w.key("track");
            w.string(t.track.name());
            w.key("busy_ns");
            w.u64(t.busy_ns);
            w.key("idle_ns");
            w.u64(window.saturating_sub(t.busy_ns));
            w.key("utilization");
            w.f64(t.utilization(window));
            w.key("spans");
            w.u64(t.spans as u64);
            w.key("events");
            w.u64(t.events as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// Total nanoseconds covered by the union of `intervals` (sorted in
/// place; overlapping and nested intervals count once).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut covered_to = 0u64;
    for &(start, end) in intervals.iter() {
        let from = start.max(covered_to);
        if end > from {
            total += end - from;
            covered_to = end;
        }
        covered_to = covered_to.max(end);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Session, Track};

    #[test]
    fn union_merges_overlaps_and_nests() {
        let mut iv = vec![(0, 10), (5, 15), (20, 30), (22, 25)];
        assert_eq!(union_ns(&mut iv), 25);
        assert_eq!(union_ns(&mut []), 0);
        let mut single = vec![(7, 7)];
        assert_eq!(union_ns(&mut single), 0, "zero-length spans add nothing");
    }

    #[test]
    fn attribution_counts_busy_per_track() {
        let session = Session::new();
        let rec = session.recorder();
        rec.span(Track::Dma, "strip", 0, 100, &[]);
        rec.span(Track::Dma, "strip", 50, 150, &[]); // overlaps: union 150
        rec.begin(Track::Pu, "processing", 10, &[]);
        rec.end(Track::Pu, "processing", 210);
        rec.counter(Track::Oim, "occupancy", 90, 3.0);
        rec.instant(Track::Engine, "call_issued", 0, &[]);
        let attrib = Attribution::of(&session.finish());

        assert_eq!(attrib.start_ns, 0);
        assert_eq!(attrib.end_ns, 210);
        assert_eq!(attrib.window_ns(), 210);
        let dma = attrib.track(Track::Dma).unwrap();
        assert_eq!(dma.busy_ns, 150);
        assert_eq!(dma.spans, 2);
        let pu = attrib.track(Track::Pu).unwrap();
        assert_eq!(pu.busy_ns, 200);
        assert!((pu.utilization(attrib.window_ns()) - 200.0 / 210.0).abs() < 1e-12);
        // Instants and counters contribute events but no busy time.
        assert_eq!(attrib.track(Track::Oim).unwrap().busy_ns, 0);
        assert_eq!(attrib.track(Track::Engine).unwrap().events, 1);
        assert_eq!(attrib.track(Track::Iim), None);
    }

    #[test]
    fn empty_recording_attribution() {
        let attrib = Attribution::of(&Session::new().finish());
        assert_eq!(attrib.window_ns(), 0);
        assert!(attrib.tracks.is_empty());
        assert!(attrib.text_table().contains("window: 0 ns"));
    }

    #[test]
    fn table_and_json_render() {
        let session = Session::new();
        session.recorder().span(Track::Pci, "payload", 0, 40, &[]);
        let attrib = Attribution::of(&session.finish());
        let table = attrib.text_table();
        assert!(table.contains("pci"), "{table}");
        assert!(table.contains("100.00%"), "{table}");
        let json = attrib.to_json();
        crate::json::validate(&json).unwrap();
        let v = crate::json::JsonValue::parse(&json).unwrap();
        assert_eq!(v.get("window_ns").unwrap().as_f64(), Some(40.0));
        let tracks = v.get("tracks").unwrap().as_array().unwrap();
        assert_eq!(tracks[0].get("track").unwrap().as_str(), Some("pci"));
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let session = Session::new();
        let rec = session.recorder();
        rec.end(Track::Pu, "stall", 50);
        rec.begin(Track::Pu, "stall", 60, &[]);
        let attrib = Attribution::of(&session.finish());
        let pu = attrib.track(Track::Pu).unwrap();
        assert_eq!(pu.busy_ns, 0, "dangling begin/end contribute nothing");
        assert_eq!(pu.spans, 0);
        assert_eq!(pu.events, 2);
    }
}
