//! Trace diffing: aligns two Chrome trace-event documents track by
//! track and reports busy-time and event-count deltas — the
//! `vipctl trace-diff` backend.
//!
//! Tracks are aligned by their `thread_name` metadata (falling back to
//! `tid<N>`), so two runs whose tids differ still compare correctly.
//! Busy time per track is the sum of complete-span durations plus
//! matched begin/end pairs, in nanoseconds; diffing the same trace
//! against itself is exactly zero everywhere.

use core::fmt::Write as _;
use std::collections::BTreeMap;

use crate::json::JsonValue;

/// Per-track accumulation from one trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct TrackSide {
    busy_ns: u64,
    events: u64,
}

/// One aligned track with both sides' totals.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackDelta {
    /// Track name (`thread_name` metadata, or `tid<N>`).
    pub name: String,
    /// Busy nanoseconds in trace A.
    pub a_busy_ns: u64,
    /// Busy nanoseconds in trace B.
    pub b_busy_ns: u64,
    /// Non-metadata events in trace A.
    pub a_events: u64,
    /// Non-metadata events in trace B.
    pub b_events: u64,
}

impl TrackDelta {
    /// Busy-time change B − A in nanoseconds.
    #[must_use]
    pub fn busy_delta_ns(&self) -> i64 {
        self.b_busy_ns as i64 - self.a_busy_ns as i64
    }

    /// Relative busy-time change (B − A) / A; 0 when both sides are
    /// zero, 1 when a track appears only in B.
    #[must_use]
    pub fn relative_change(&self) -> f64 {
        if self.a_busy_ns == 0 {
            return if self.b_busy_ns == 0 { 0.0 } else { 1.0 };
        }
        self.busy_delta_ns() as f64 / self.a_busy_ns as f64
    }

    /// Whether both sides agree exactly.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.a_busy_ns == self.b_busy_ns && self.a_events == self.b_events
    }
}

/// The aligned diff of two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// One entry per track present in either trace, in name order.
    pub tracks: Vec<TrackDelta>,
}

impl TraceDiff {
    /// Whether every track agrees exactly (self-diff is always zero).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.tracks.iter().all(TrackDelta::is_zero)
    }

    /// Tracks whose relative busy-time change exceeds `threshold`
    /// (e.g. `0.1` for ±10%).
    #[must_use]
    pub fn exceeding(&self, threshold: f64) -> Vec<&TrackDelta> {
        self.tracks
            .iter()
            .filter(|t| t.relative_change().abs() > threshold)
            .collect()
    }

    /// Renders the per-track delta table; rows whose relative busy-time
    /// change exceeds `threshold` are flagged with `!`.
    #[must_use]
    pub fn text_table(&self, threshold: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>14} {:>14} {:>14} {:>9} {:>9} {:>3}",
            "track", "a_busy_ns", "b_busy_ns", "delta_ns", "a_events", "b_events", ""
        );
        for t in &self.tracks {
            let flag = if t.relative_change().abs() > threshold {
                "!"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<12} {:>14} {:>14} {:>+14} {:>9} {:>9} {:>3}",
                t.name,
                t.a_busy_ns,
                t.b_busy_ns,
                t.busy_delta_ns(),
                t.a_events,
                t.b_events,
                flag
            );
        }
        let over = self.exceeding(threshold).len();
        let _ = writeln!(
            out,
            "{} track(s) beyond ±{:.0}%{}",
            over,
            threshold * 100.0,
            if self.is_zero() {
                " (traces identical)"
            } else {
                ""
            }
        );
        out
    }
}

/// Diffs two Chrome trace-event JSON documents (the format
/// [`crate::Recording::to_chrome_json`] writes).
///
/// # Errors
///
/// Returns a message when either document is not valid JSON or lacks
/// the `traceEvents` array.
pub fn diff_chrome_traces(a: &str, b: &str) -> Result<TraceDiff, String> {
    let a = accumulate(a).map_err(|e| format!("trace A: {e}"))?;
    let b = accumulate(b).map_err(|e| format!("trace B: {e}"))?;
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort();
    names.dedup();
    let tracks = names
        .into_iter()
        .map(|name| {
            let sa = a.get(name).copied().unwrap_or_default();
            let sb = b.get(name).copied().unwrap_or_default();
            TrackDelta {
                name: name.clone(),
                a_busy_ns: sa.busy_ns,
                b_busy_ns: sb.busy_ns,
                a_events: sa.events,
                b_events: sb.events,
            }
        })
        .collect();
    Ok(TraceDiff { tracks })
}

/// Chrome `ts`/`dur` microseconds (possibly fractional) to nanoseconds.
fn us_to_ns(us: f64) -> u64 {
    (us * 1_000.0).round().max(0.0) as u64
}

/// Sums busy time and event counts per track name for one document.
fn accumulate(text: &str) -> Result<BTreeMap<String, TrackSide>, String> {
    let doc = JsonValue::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;

    // Pass 1: thread_name metadata maps tid → name.
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(JsonValue::as_str) == Some("M")
            && e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
        {
            let (Some(tid), Some(name)) = (
                e.get("tid").and_then(JsonValue::as_f64),
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(JsonValue::as_str),
            ) else {
                continue;
            };
            names.insert(tid as u64, name.to_string());
        }
    }

    let mut sides: BTreeMap<String, TrackSide> = BTreeMap::new();
    // Open begin-events per (tid, name), for B/E pairing.
    let mut open: BTreeMap<(u64, String), Vec<u64>> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        if ph == "M" {
            continue;
        }
        let tid = e.get("tid").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        let track = names
            .get(&tid)
            .cloned()
            .unwrap_or_else(|| format!("tid{tid}"));
        let ts_ns = us_to_ns(e.get("ts").and_then(JsonValue::as_f64).unwrap_or(0.0));
        let side = sides.entry(track).or_default();
        side.events += 1;
        match ph {
            "X" => {
                side.busy_ns += us_to_ns(e.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0));
            }
            "B" => {
                let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
                open.entry((tid, name.to_string())).or_default().push(ts_ns);
            }
            "E" => {
                let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
                if let Some(begin) = open.get_mut(&(tid, name.to_string())).and_then(Vec::pop) {
                    side.busy_ns += ts_ns.saturating_sub(begin);
                }
            }
            _ => {}
        }
    }
    Ok(sides)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Session, Track};

    fn sample_trace(scale: u64) -> String {
        let session = Session::new();
        let rec = session.recorder();
        rec.span(Track::Dma, "strip", 0, 1_000 * scale, &[]);
        rec.span(Track::Dma, "strip", 2_000, 2_000 + 500 * scale, &[]);
        rec.begin(Track::Pu, "processing", 100, &[]);
        rec.end(Track::Pu, "processing", 100 + 3_000 * scale);
        rec.instant(Track::Engine, "call_issued", 0, &[]);
        rec.counter(Track::Oim, "occupancy", 50, 2.0);
        session.finish().to_chrome_json()
    }

    #[test]
    fn self_diff_is_zero() {
        let trace = sample_trace(1);
        let diff = diff_chrome_traces(&trace, &trace).unwrap();
        assert!(diff.is_zero());
        assert!(diff.exceeding(0.0).is_empty());
        for t in &diff.tracks {
            assert_eq!(t.busy_delta_ns(), 0);
            assert_eq!(t.a_events, t.b_events);
            assert_eq!(t.relative_change(), 0.0);
        }
        assert!(diff.text_table(0.1).contains("traces identical"));
    }

    #[test]
    fn diff_reports_per_track_deltas() {
        let diff = diff_chrome_traces(&sample_trace(1), &sample_trace(2)).unwrap();
        assert!(!diff.is_zero());
        let dma = diff.tracks.iter().find(|t| t.name == "dma").unwrap();
        assert_eq!(dma.a_busy_ns, 1_500);
        assert_eq!(dma.b_busy_ns, 3_000);
        assert_eq!(dma.busy_delta_ns(), 1_500);
        assert!((dma.relative_change() - 1.0).abs() < 1e-12);
        let pu = diff.tracks.iter().find(|t| t.name == "pu").unwrap();
        assert_eq!(pu.a_busy_ns, 3_000);
        assert_eq!(pu.b_busy_ns, 6_000);
        // Engine instants and OIM counters: events equal, busy zero.
        let engine = diff.tracks.iter().find(|t| t.name == "engine").unwrap();
        assert!(engine.is_zero());
        // Threshold flags only the moved tracks.
        let over = diff.exceeding(0.1);
        assert_eq!(over.len(), 2, "{over:?}");
        let table = diff.text_table(0.1);
        assert!(table.contains('!'), "{table}");
    }

    #[test]
    fn tracks_align_by_name_not_tid() {
        // Hand-built traces where the same track name sits on different
        // tids: the diff must still align them.
        let a = r#"{"traceEvents":[
            {"ph":"M","name":"thread_name","pid":1,"tid":7,"args":{"name":"pu"}},
            {"name":"s","ph":"X","ts":0,"dur":10,"pid":1,"tid":7}]}"#;
        let b = r#"{"traceEvents":[
            {"ph":"M","name":"thread_name","pid":1,"tid":9,"args":{"name":"pu"}},
            {"name":"s","ph":"X","ts":5,"dur":10,"pid":1,"tid":9}]}"#;
        let diff = diff_chrome_traces(a, b).unwrap();
        assert_eq!(diff.tracks.len(), 1);
        assert_eq!(diff.tracks[0].name, "pu");
        assert!(diff.tracks[0].is_zero(), "same dur, same count");
    }

    #[test]
    fn missing_tracks_count_as_zero() {
        let a = r#"{"traceEvents":[
            {"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"dma"}},
            {"name":"s","ph":"X","ts":0,"dur":4,"pid":1,"tid":1}]}"#;
        let b = r#"{"traceEvents":[]}"#;
        let diff = diff_chrome_traces(a, b).unwrap();
        assert_eq!(diff.tracks.len(), 1);
        assert_eq!(diff.tracks[0].b_busy_ns, 0);
        assert_eq!(diff.tracks[0].relative_change(), -1.0);
        // And the appear-only-in-B direction:
        let diff = diff_chrome_traces(b, a).unwrap();
        assert_eq!(diff.tracks[0].relative_change(), 1.0);
    }

    #[test]
    fn invalid_documents_are_rejected() {
        assert!(diff_chrome_traces("{", "{}").is_err());
        let err = diff_chrome_traces("{}", "{}").unwrap_err();
        assert!(err.contains("traceEvents"), "{err}");
    }

    #[test]
    fn fractional_microseconds_convert_exactly() {
        let a = r#"{"traceEvents":[{"name":"w","ph":"X","ts":1.500,"dur":0.250,"pid":1,"tid":2}]}"#;
        let diff = diff_chrome_traces(a, a).unwrap();
        assert_eq!(diff.tracks[0].name, "tid2");
        assert_eq!(diff.tracks[0].a_busy_ns, 250);
    }
}
