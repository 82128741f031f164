//! Lightweight structured event tracing.
//!
//! A [`Tracer`] streams structured entries — `(time, category, message,
//! key=value fields)` — to a JSONL writer, one JSON object per line, as
//! they are emitted. It is on exactly when it has a writer. When off,
//! [`Tracer::emit`] and [`Tracer::emit_event`] are a branch and nothing
//! more — safe to leave on hot paths; the field/message closures never run.

use crate::time::SimTime;
use std::fmt;
use std::io::Write;

/// A typed field value attached to a trace entry.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> Self {
        TraceValue::U64(v)
    }
}
impl From<usize> for TraceValue {
    fn from(v: usize) -> Self {
        TraceValue::U64(v as u64)
    }
}
impl From<u32> for TraceValue {
    fn from(v: u32) -> Self {
        TraceValue::U64(u64::from(v))
    }
}
impl From<i64> for TraceValue {
    fn from(v: i64) -> Self {
        TraceValue::I64(v)
    }
}
impl From<f64> for TraceValue {
    fn from(v: f64) -> Self {
        TraceValue::F64(v)
    }
}
impl From<bool> for TraceValue {
    fn from(v: bool) -> Self {
        TraceValue::Bool(v)
    }
}
impl From<&str> for TraceValue {
    fn from(v: &str) -> Self {
        TraceValue::Str(v.to_string())
    }
}
impl From<String> for TraceValue {
    fn from(v: String) -> Self {
        TraceValue::Str(v)
    }
}

impl fmt::Display for TraceValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceValue::U64(v) => write!(f, "{v}"),
            TraceValue::I64(v) => write!(f, "{v}"),
            TraceValue::F64(v) => write!(f, "{v}"),
            TraceValue::Bool(v) => write!(f, "{v}"),
            TraceValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl TraceValue {
    /// Write the value as a JSON scalar.
    fn write_json(&self, out: &mut String) {
        match self {
            TraceValue::U64(v) => out.push_str(&v.to_string()),
            TraceValue::I64(v) => out.push_str(&v.to_string()),
            TraceValue::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            TraceValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            TraceValue::Str(v) => write_json_string(out, v),
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Short static category, e.g. `"sched"`, `"xfer"`.
    pub category: &'static str,
    /// Human-readable detail (may be empty for purely structured entries).
    pub message: String,
    /// Structured `key=value` payload (empty for plain-message entries).
    pub fields: Vec<(&'static str, TraceValue)>,
}

impl TraceEntry {
    /// Render the entry as one JSON object (no trailing newline):
    /// `{"t":<secs>,"cat":"...","msg":"...","fields":{...}}`. `msg` is
    /// omitted when empty, `fields` when there are none.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"t\":");
        let secs = self.at.as_secs_f64();
        out.push_str(&format!("{secs:?}"));
        out.push_str(",\"cat\":");
        write_json_string(&mut out, self.category);
        if !self.message.is_empty() {
            out.push_str(",\"msg\":");
            write_json_string(&mut out, &self.message);
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, k);
                out.push(':');
                v.write_json(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.category, self.message)?;
        for (k, v) in &self.fields {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// End-of-run health of a tracer: whether the sink saw everything it
/// should have and made it to stable storage. Returned by
/// [`Tracer::close`]; callers that archive traces should surface a
/// non-clean health to the user instead of silently shipping a lossy file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct TraceHealth {
    /// JSONL sink writes that failed; the trace file is missing lines.
    pub sink_errors: u64,
    /// Whether the final sink flush succeeded (false means the tail of the
    /// file may be missing even with zero write errors).
    pub flush_ok: bool,
}

impl TraceHealth {
    /// True when the sink saw every entry and flushed cleanly.
    pub fn sink_clean(&self) -> bool {
        self.sink_errors == 0 && self.flush_ok
    }
}

/// A JSONL trace sink; off (records nothing) when it has no writer.
#[derive(Default)]
pub struct Tracer {
    sink: Option<Box<dyn Write + Send>>,
    sink_errors: u64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("sink", &self.sink.as_ref().map(|_| "<writer>"))
            .field("sink_errors", &self.sink_errors)
            .finish()
    }
}

impl Tracer {
    /// A tracer that streams every entry to `sink` as JSON lines. Write
    /// failures are counted (see [`Tracer::close`]) but do not panic or
    /// stop the simulation.
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        Tracer {
            sink: Some(sink),
            sink_errors: 0,
        }
    }

    /// Is tracing on (a writer attached and not yet closed)?
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Flush and drop the writer, turning the tracer off, and report what
    /// the writer saw. An off tracer reports clean health.
    pub fn close(&mut self) -> TraceHealth {
        let flush_ok = match self.sink.take() {
            Some(mut s) => s.flush().is_ok(),
            None => true,
        };
        TraceHealth {
            sink_errors: self.sink_errors,
            flush_ok,
        }
    }

    /// Record a plain-message entry if on. The message closure is only
    /// evaluated when tracing is on, so formatting cost is zero when off.
    pub fn emit(&mut self, at: SimTime, category: &'static str, message: impl FnOnce() -> String) {
        if self.sink.is_none() {
            return;
        }
        let entry = TraceEntry {
            at,
            category,
            message: message(),
            fields: Vec::new(),
        };
        self.record(&entry);
    }

    /// Record a structured entry if on. The field closure is only evaluated
    /// when tracing is on.
    pub fn emit_event(
        &mut self,
        at: SimTime,
        category: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, TraceValue)>,
    ) {
        if self.sink.is_none() {
            return;
        }
        let entry = TraceEntry {
            at,
            category,
            message: String::new(),
            fields: fields(),
        };
        self.record(&entry);
    }

    fn record(&mut self, entry: &TraceEntry) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let mut line = entry.to_json_line();
        line.push('\n');
        if sink.write_all(line.as_bytes()).is_err() {
            self.sink_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A shared Vec<u8> writer for inspecting sink output in tests.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn lines(&self) -> Vec<String> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
            text.lines().map(str::to_string).collect()
        }
    }

    #[test]
    fn off_tracer_records_nothing_and_skips_formatting() {
        let mut t = Tracer::default();
        assert!(!t.is_enabled());
        let mut evaluated = false;
        t.emit(SimTime::ZERO, "x", || {
            evaluated = true;
            "boom".into()
        });
        assert!(!evaluated, "message closure must not run when off");
        let mut built = false;
        t.emit_event(SimTime::ZERO, "x", || {
            built = true;
            vec![]
        });
        assert!(!built, "field closure must not run when off");
        assert!(t.close().sink_clean());
    }

    #[test]
    fn plain_entries_render_message() {
        let e = TraceEntry {
            at: SimTime::from_secs(1),
            category: "sched",
            message: "job 1 started".into(),
            fields: vec![],
        };
        assert_eq!(format!("{e}"), "[t+1s] sched: job 1 started");
    }

    #[test]
    fn structured_entries_render_fields() {
        let e = TraceEntry {
            at: SimTime::from_secs(2),
            category: "xfer",
            message: String::new(),
            fields: vec![
                ("mb", 500.0.into()),
                ("src", "alpha".into()),
                ("ok", true.into()),
            ],
        };
        let text = format!("{e}");
        assert!(text.contains("mb=500"));
        assert!(text.contains("src=alpha"));
        assert!(text.contains("ok=true"));
    }

    #[test]
    fn json_line_shape_and_escaping() {
        let e = TraceEntry {
            at: SimTime::from_secs(90),
            category: "sched",
            message: "say \"hi\"\n".into(),
            fields: vec![("job", 7u64.into()), ("site", "a\\b".into())],
        };
        let line = e.to_json_line();
        assert!(line.starts_with("{\"t\":90.0,\"cat\":\"sched\""));
        assert!(line.contains("\"msg\":\"say \\\"hi\\\"\\n\""));
        assert!(line.contains("\"fields\":{\"job\":7,\"site\":\"a\\\\b\"}"));
        // Pure-structured entries omit msg.
        let e2 = TraceEntry {
            at: SimTime::ZERO,
            category: "c",
            message: String::new(),
            fields: vec![],
        };
        assert_eq!(e2.to_json_line(), "{\"t\":0.0,\"cat\":\"c\"}");
    }

    #[test]
    fn sink_receives_one_json_line_per_entry() {
        let buf = SharedBuf::default();
        let mut t = Tracer::new(Box::new(buf.clone()));
        assert!(t.is_enabled());
        for i in 0..4u64 {
            t.emit_event(SimTime::from_secs(i), "c", || vec![("i", i.into())]);
        }
        t.emit(SimTime::from_secs(4), "c", || "done".into());
        let health = t.close();
        assert!(health.sink_clean());
        assert!(!t.is_enabled(), "closing turns the tracer off");
        let lines = buf.lines();
        assert_eq!(lines.len(), 5);
        assert!(lines[3].contains("\"i\":3"));
        assert!(lines[4].contains("\"msg\":\"done\""));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn health_reports_errors_and_flush() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk gone"))
            }
        }

        let mut t = Tracer::new(Box::new(FailingWriter));
        t.emit(SimTime::ZERO, "c", || "a".into());
        t.emit(SimTime::ZERO, "c", || "b".into());
        let h = t.close();
        assert_eq!(h.sink_errors, 2);
        assert!(!h.flush_ok);
        assert!(!h.sink_clean());
    }
}
