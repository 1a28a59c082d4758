//! Chrome trace-event JSON export.
//!
//! Produces the object-with-`traceEvents` form of the [trace-event
//! format], loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. Each [`Track`] becomes one named
//! thread of a single process; timestamps convert from virtual-clock
//! nanoseconds to the format's microseconds with three decimals, so no
//! precision is lost.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{AttrValue, Phase, TraceRecord, Track};
use crate::json::JsonWriter;

/// The process id used for all tracks.
const PID: u64 = 1;

/// Serialises events to Chrome trace-event JSON.
///
/// Events are emitted in timestamp order (stable for ties) after one
/// `thread_name` metadata record per distinct track, so Perfetto labels
/// each subsystem row.
#[must_use]
pub fn to_chrome_json(events: &[TraceRecord]) -> String {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| events[i].ts_ns);

    let mut tracks: Vec<Track> = Vec::new();
    for e in events {
        if !tracks.contains(&e.track) {
            tracks.push(e.track);
        }
    }
    tracks.sort_by_key(|t| t.tid());

    // ~160 bytes per event is a comfortable overestimate.
    let mut w = JsonWriter::with_capacity(events.len() * 160 + 1024);
    w.begin_object();
    w.key("displayTimeUnit");
    w.string("ns");
    w.key("traceEvents");
    w.begin_array();

    for track in &tracks {
        w.begin_object();
        w.key("ph");
        w.string("M");
        w.key("name");
        w.string("thread_name");
        w.key("pid");
        w.u64(PID);
        w.key("tid");
        w.u64(u64::from(track.tid()));
        w.key("args");
        w.begin_object();
        w.key("name");
        w.string(track.name());
        w.end_object();
        w.end_object();
    }

    for &i in &order {
        write_event(&mut w, &events[i]);
    }

    w.end_array();
    w.end_object();
    w.finish()
}

/// Writes `ts` (or `dur`) in microseconds with nanosecond precision, as
/// the trace-event format expects.
fn write_us(w: &mut JsonWriter, ns: u64) {
    if ns.is_multiple_of(1_000) {
        w.u64(ns / 1_000);
    } else {
        // Emit as a raw decimal rather than f64 to avoid rounding.
        let text = format!("{}.{:03}", ns / 1_000, ns % 1_000);
        // The text is always a valid JSON number; route it through f64
        // writing would lose precision for large timestamps.
        w.raw_number(&text);
    }
}

fn write_event(w: &mut JsonWriter, e: &TraceRecord) {
    w.begin_object();
    w.key("name");
    w.string(e.name);
    w.key("ph");
    w.string(match e.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Complete { .. } => "X",
        Phase::Instant => "i",
        Phase::Counter { .. } => "C",
    });
    w.key("ts");
    write_us(w, e.ts_ns);
    if let Phase::Complete { dur_ns } = e.phase {
        w.key("dur");
        write_us(w, dur_ns);
    }
    if let Phase::Instant = e.phase {
        w.key("s");
        w.string("t"); // thread-scoped marker
    }
    w.key("pid");
    w.u64(PID);
    w.key("tid");
    w.u64(u64::from(e.track.tid()));
    match e.phase {
        Phase::Counter { value } => {
            w.key("args");
            w.begin_object();
            w.key(e.name);
            w.f64(value);
            w.end_object();
        }
        _ if !e.args.is_empty() => {
            w.key("args");
            w.begin_object();
            for (key, value) in &e.args {
                w.key(key);
                match value {
                    AttrValue::U64(v) => w.u64(*v),
                    AttrValue::I64(v) => w.i64(*v),
                    AttrValue::F64(v) => w.f64(*v),
                    AttrValue::Str(v) => w.string(v),
                    AttrValue::Owned(v) => w.string(v),
                }
            }
            w.end_object();
        }
        _ => {}
    }
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::{Recorder, Session};

    fn sample_session() -> Session {
        let session = Session::new();
        let rec = session.recorder();
        rec.instant(Track::Engine, "call_issued", 0, &[("mode", "intra".into())]);
        rec.begin(Track::Pu, "stall", 2_500, &[("kind", "iim".into())]);
        rec.end(Track::Pu, "stall", 3_750);
        rec.span(Track::Dma, "strip", 1_000, 2_000, &[("strip", 0u64.into())]);
        rec.span(Track::Dma, "strip", 2_000, 3_000, &[("strip", 1u64.into())]);
        rec.counter(Track::Oim, "occupancy", 2_200, 5.0);
        rec.span(
            Track::ZbtBank(4),
            "bank_active",
            0,
            4_000,
            &[("writes", 64u64.into())],
        );
        session
    }

    #[test]
    fn export_is_valid_json() {
        let json = sample_session().finish().to_chrome_json();
        validate(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.starts_with('{') && json.contains("\"traceEvents\":["));
    }

    #[test]
    fn export_declares_thread_names() {
        let json = sample_session().finish().to_chrome_json();
        for name in ["engine", "pu", "dma", "oim", "zbt.bank4"] {
            assert!(
                json.contains(&format!("\"args\":{{\"name\":\"{name}\"}}")),
                "missing thread_name for {name}: {json}"
            );
        }
    }

    #[test]
    fn timestamps_non_decreasing_per_thread() {
        let json = sample_session().finish().to_chrome_json();
        // Walk the emitted events and track the last ts per tid.
        let mut last: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        let mut seen = 0;
        for chunk in event_chunks(&json) {
            let ts = field_number(chunk, "\"ts\":");
            let tid = field_number(chunk, "\"tid\":") as u64;
            let prev = last.entry(tid).or_insert(f64::NEG_INFINITY);
            assert!(ts >= *prev, "ts went backwards on tid {tid}");
            *prev = ts;
            seen += 1;
        }
        assert!(seen >= 7, "expected all sample events, saw {seen}");
    }

    #[test]
    fn begin_end_pairs_match_per_thread() {
        let json = sample_session().finish().to_chrome_json();
        let mut depth: std::collections::BTreeMap<u64, i64> = std::collections::BTreeMap::new();
        for chunk in event_chunks(&json) {
            let tid = field_number(chunk, "\"tid\":") as u64;
            if chunk.contains("\"ph\":\"B\"") {
                *depth.entry(tid).or_insert(0) += 1;
            } else if chunk.contains("\"ph\":\"E\"") {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "E without B on tid {tid}");
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unmatched B: {depth:?}");
    }

    #[test]
    fn sub_microsecond_timestamps_keep_precision() {
        let session = Session::new();
        session
            .recorder()
            .span(Track::Pci, "word", 1_500, 1_750, &[]);
        let json = session.finish().to_chrome_json();
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":0.250"), "{json}");
        validate(&json).unwrap();
    }

    #[test]
    fn disabled_recorder_yields_empty_trace() {
        let rec = Recorder::disabled();
        rec.span(Track::Dma, "strip", 0, 10, &[]);
        let json = to_chrome_json(&[]);
        validate(&json).unwrap();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    /// Splits the document into per-event chunks. Splitting on the
    /// leading `{"name":` also cuts at metadata `args` objects, which
    /// carry no `ts`; those fragments are filtered out.
    fn event_chunks(json: &str) -> impl Iterator<Item = &str> {
        json.split("{\"name\":")
            .skip(1)
            .filter(|c| c.contains("\"ts\":") && c.contains("\"tid\":"))
    }

    /// Extracts the number following `key` in `chunk` (test helper; the
    /// JSON here is machine-written with a fixed field order).
    fn field_number(chunk: &str, key: &str) -> f64 {
        let rest = &chunk[chunk.find(key).expect(key) + key.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        rest[..end].parse().expect("number")
    }
}
