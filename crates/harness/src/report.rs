//! Output containers for reproduced tables and figures, with markdown and
//! CSV rendering — plus the discovery-trace collector and exporters
//! (ring buffer, JSON Lines, summaries) for the `asi_sim::trace` layer.

use crate::json::{self, Json};
use asi_core::{Algorithm, DiscoveryTrigger};
use asi_sim::{FieldType, SimDuration, SimTime, TraceEvent, TraceRecord, TraceSink, TraceValue};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;

/// One plotted series (a line in a paper figure).
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label ("Serial Packet", …).
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A reproduced figure: axes plus one or more series.
#[derive(Clone, Debug)]
pub struct Chart {
    /// Identifier ("fig6a").
    pub id: String,
    /// Title as the paper captions it.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Chart {
    /// Creates an empty chart.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Chart {
        Chart {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Renders a compact markdown table: one row per x, one column per
    /// series (x values unioned across series).
    pub fn to_markdown(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s.name);
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "| {} |", trim_float(x));
            for s in &self.series {
                // Average all points of this series at this x (scatter
                // figures may repeat x values).
                let vals: Vec<f64> = s
                    .points
                    .iter()
                    .filter(|&&(px, _)| px == x)
                    .map(|&(_, y)| y)
                    .collect();
                if vals.is_empty() {
                    let _ = write!(out, " |");
                } else {
                    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                    let _ = write!(out, " {} |", trim_float(mean));
                }
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "\n_y: {}_\n", self.y_label);
        out
    }

    /// Renders long-format CSV: `series,x,y`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for &(x, y) in &s.points {
                let _ = writeln!(out, "{},{},{}", s.name, x, y);
            }
        }
        out
    }

    /// Writes `<dir>/<id>.csv` and `<dir>/<id>.md`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())?;
        std::fs::write(dir.join(format!("{}.md", self.id)), self.to_markdown())?;
        Ok(())
    }
}

/// A reproduced table.
#[derive(Clone, Debug)]
pub struct TableOut {
    /// Identifier ("table1").
    pub id: String,
    /// Caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells.
    pub rows: Vec<Vec<String>>,
}

impl TableOut {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> TableOut {
        TableOut {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes `<dir>/<id>.csv` and `<dir>/<id>.md`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())?;
        std::fs::write(dir.join(format!("{}.md", self.id)), self.to_markdown())?;
        Ok(())
    }
}

impl Chart {
    /// Renders a rough ASCII plot (log-friendly): one glyph per series,
    /// x binned across the terminal width. Intended for eyeballing the
    /// *shape* of a reproduced figure in CI logs.
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        let width = width.clamp(16, 200);
        let height = height.clamp(4, 60);
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        if pts.is_empty() {
            return format!(
                "{} — (no data)
",
                self.id
            );
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if x1 <= x0 {
            x1 = x0 + 1.0;
        }
        if y1 <= y0 {
            y1 = y0 + 1.0;
        }
        let glyphs = ['o', '+', 'x', '*', '#', '@'];
        let mut grid = vec![vec![' '; width]; height];
        for (si, s) in self.series.iter().enumerate() {
            let g = glyphs[si % glyphs.len()];
            for &(x, y) in &s.points {
                let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
                let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
                let row = height - 1 - cy.min(height - 1);
                grid[row][cx.min(width - 1)] = g;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "  {} {}", glyphs[si % glyphs.len()], s.name);
        }
        let _ = writeln!(out, "y: {} in [{:.3e}, {:.3e}]", self.y_label, y0, y1);
        for row in grid {
            let _ = writeln!(out, "|{}", row.into_iter().collect::<String>());
        }
        let _ = writeln!(
            out,
            "+{}\n x: {} in [{}, {}]",
            "-".repeat(width),
            self.x_label,
            trim_float(x0),
            trim_float(x1)
        );
        out
    }
}

// ---------------------------------------------------------------------
// Discovery-trace collection and export
// ---------------------------------------------------------------------

/// A bounded, in-memory [`TraceSink`]: keeps the most recent `capacity`
/// records and counts (rather than stores) anything older it had to
/// evict, so a runaway trace can never exhaust memory.
pub struct RingCollector {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl RingCollector {
    /// An empty collector keeping at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> RingCollector {
        let capacity = capacity.max(1);
        RingCollector {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// A shared collector ready for `asi_sim::TraceHandle::to`; keep a
    /// clone of the `Rc` to read the records back after the run.
    pub fn shared(capacity: usize) -> Rc<RefCell<RingCollector>> {
        Rc::new(RefCell::new(RingCollector::new(capacity)))
    }

    /// The held records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains and returns the held records, oldest first.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        self.records.drain(..).collect()
    }
}

impl TraceSink for RingCollector {
    fn record(&mut self, record: TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

/// Renders one trace record as a JSON object: `t_ps` (picosecond
/// timestamp), `event` (the kind tag), then the payload fields in
/// declaration order, each keyed by its name — a `SimDuration` field `x`
/// as `x_ps`, in picoseconds. The schema is `TraceEvent::KINDS`,
/// documented in `docs/TRACE_FORMAT.md`.
pub fn trace_record_to_json(record: &TraceRecord) -> Json {
    let mut obj = Json::object()
        .with("t_ps", record.time.as_ps())
        .with("event", record.event.kind());
    record.event.for_each_field(|name, value| {
        match value {
            TraceValue::Uint(v) => obj.set(name, v),
            TraceValue::Bool(v) => obj.set(name, v),
            TraceValue::Str(v) => obj.set(name, v),
            TraceValue::Duration(v) => obj.set(format!("{name}_ps"), v.as_ps()),
        };
    });
    obj
}

/// Interns the spelling of a `&'static str` field through the table of
/// the values that field takes.
fn intern(field: &str, spelling: &str) -> Option<&'static str> {
    let known: &[&'static str] = match field {
        "algorithm" => &Algorithm::all().map(|a| a.name()),
        "trigger" => &DiscoveryTrigger::all().map(|t| t.tag()),
        _ => return None,
    };
    known.iter().copied().find(|k| *k == spelling)
}

/// Parses one object produced by [`trace_record_to_json`] back into a
/// record. Returns `None` on unknown kinds, unknown algorithm/trigger
/// spellings, missing or mistyped fields, or integers too large for
/// their field.
pub fn trace_record_from_json(json: &Json) -> Option<TraceRecord> {
    let time = SimTime::from_ps(json.get("t_ps").as_u64()?);
    let event = TraceEvent::from_fields(json.get("event").as_str()?, |name, ty| {
        Some(match ty {
            FieldType::Uint(_) => TraceValue::Uint(json.get(name).as_u64()?),
            FieldType::Bool => TraceValue::Bool(json.get(name).as_bool()?),
            FieldType::Str => TraceValue::Str(intern(name, json.get(name).as_str()?)?),
            FieldType::Duration => {
                let ps = json.get(&format!("{name}_ps")).as_u64()?;
                TraceValue::Duration(SimDuration::from_ps(ps))
            }
        })
    })?;
    Some(TraceRecord { time, event })
}

/// Renders records as JSON Lines: one compact object per line.
pub fn trace_to_jsonl<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&trace_record_to_json(r).to_string_compact());
        out.push('\n');
    }
    out
}

/// Writes a JSONL trace dump to `path`.
pub fn save_trace_jsonl<'a>(
    path: &Path,
    records: impl IntoIterator<Item = &'a TraceRecord>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, trace_to_jsonl(records))
}

/// Parses a JSONL trace dump (the inverse of [`trace_to_jsonl`]). Blank
/// lines are skipped; a malformed line fails with its 1-based number.
pub fn trace_from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let record = trace_record_from_json(&value)
            .ok_or_else(|| format!("line {}: unrecognized trace record", i + 1))?;
        out.push(record);
    }
    Ok(out)
}

/// Aggregate view of a trace: per-kind counts plus the derived totals a
/// quick look needs (peak pending table, FM busy/idle time, time span).
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Record count per kind tag.
    pub counts: BTreeMap<&'static str, u64>,
    /// Timestamp of the first record.
    pub first: Option<SimTime>,
    /// Timestamp of the last record.
    pub last: Option<SimTime>,
    /// Peak pending-table size observed.
    pub max_pending: u32,
    /// Total FM busy time across `fm-busy` spans.
    pub fm_busy: SimDuration,
    /// Total FM idle time across `fm-idle` spans.
    pub fm_idle: SimDuration,
}

impl TraceSummary {
    /// Builds the summary of `records`.
    pub fn of<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> TraceSummary {
        let mut s = TraceSummary::default();
        for r in records {
            *s.counts.entry(r.event.kind()).or_insert(0) += 1;
            if s.first.is_none() {
                s.first = Some(r.time);
            }
            s.last = Some(r.time);
            match &r.event {
                TraceEvent::PendingTableSize { size } => {
                    s.max_pending = s.max_pending.max(*size);
                }
                TraceEvent::FmBusy { busy } => s.fm_busy += *busy,
                TraceEvent::FmIdle { idle } => s.fm_idle += *idle,
                _ => {}
            }
        }
        s
    }

    /// The count recorded for one kind tag (0 if absent).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Renders a markdown table of counts plus the derived totals.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("| event | count |\n|---|---|\n");
        for (kind, n) in &self.counts {
            let _ = writeln!(out, "| {kind} | {n} |");
        }
        if let (Some(first), Some(last)) = (self.first, self.last) {
            let _ = writeln!(
                out,
                "\nspan: {:.3} ms – {:.3} ms, peak pending {}, FM busy {:.3} ms / idle {:.3} ms",
                first.as_millis_f64(),
                last.as_millis_f64(),
                self.max_pending,
                self.fm_busy.as_millis_f64(),
                self.fm_idle.as_millis_f64(),
            );
        }
        out
    }
}

/// Formats a float without trailing noise.
pub fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_markdown_unions_x_values() {
        let mut c = Chart::new("figX", "demo", "n", "t");
        let mut a = Series::new("A");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("B");
        b.push(2.0, 5.0);
        c.series.push(a);
        c.series.push(b);
        let md = c.to_markdown();
        assert!(md.contains("| n | A | B |"));
        assert!(md.contains("| 1 | 10 | |"));
        assert!(md.contains("| 2 | 20 | 5 |"));
    }

    #[test]
    fn chart_markdown_averages_repeated_x() {
        let mut c = Chart::new("f", "t", "x", "y");
        let mut s = Series::new("S");
        s.push(1.0, 10.0);
        s.push(1.0, 20.0);
        c.series.push(s);
        assert!(c.to_markdown().contains("| 1 | 15 |"));
    }

    #[test]
    fn csv_is_long_format() {
        let mut c = Chart::new("f", "t", "x", "y");
        let mut s = Series::new("S");
        s.push(1.5, 2.5);
        c.series.push(s);
        assert_eq!(c.to_csv(), "series,x,y\nS,1.5,2.5\n");
    }

    #[test]
    fn table_renders_markdown_and_csv() {
        let mut t = TableOut::new("t1", "caption", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert!(t.to_markdown().contains("| a | b |"));
        assert!(t.to_csv().contains("a,b\n1,2\n"));
    }

    #[test]
    fn ascii_plot_renders_all_series() {
        let mut c = Chart::new("f", "demo", "n", "t");
        let mut a = Series::new("A");
        let mut b = Series::new("B");
        for i in 0..10 {
            a.push(i as f64, i as f64);
            b.push(i as f64, (10 - i) as f64);
        }
        c.series.push(a);
        c.series.push(b);
        let art = c.to_ascii(40, 10);
        assert!(art.contains('o') && art.contains('+'), "{art}");
        assert!(art.contains("x: n in [0, 9]"));
        assert_eq!(art.lines().filter(|l| l.starts_with('|')).count(), 10);
    }

    #[test]
    fn ascii_plot_empty_chart() {
        let c = Chart::new("f", "demo", "n", "t");
        assert!(c.to_ascii(40, 10).contains("no data"));
    }

    #[test]
    fn ascii_plot_degenerate_ranges() {
        let mut c = Chart::new("f", "demo", "n", "t");
        let mut a = Series::new("A");
        a.push(5.0, 7.0); // single point: zero-width ranges
        c.series.push(a);
        let art = c.to_ascii(30, 6);
        assert!(art.contains('o'));
    }

    #[test]
    fn trim_float_behaviour() {
        assert_eq!(trim_float(3.0), "3");
        assert_eq!(trim_float(1234.56), "1234.6");
        assert_eq!(trim_float(3.21059), "3.211");
        assert_eq!(trim_float(0.00123456), "0.001235");
    }

    // --- trace collection and export ---

    fn rec(ps: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_ps(ps),
            event,
        }
    }

    /// One record of every kind: the fixture written at the commit before
    /// the `trace_events!` table (`tests/trace_table.rs` pins its bytes).
    fn fixture() -> Vec<TraceRecord> {
        trace_from_jsonl(include_str!("../tests/data/trace_one_of_each.jsonl")).unwrap()
    }

    #[test]
    fn ring_collector_caps_and_counts_evictions() {
        let mut ring = RingCollector::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.record(rec(i, TraceEvent::PendingTableSize { size: i as u32 }));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        // Oldest two evicted: times 2, 3, 4 remain in order.
        let times: Vec<u64> = ring.records().map(|r| r.time.as_ps()).collect();
        assert_eq!(times, vec![2, 3, 4]);
        let taken = ring.take();
        assert_eq!(taken.len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_collector_zero_capacity_keeps_one() {
        let mut ring = RingCollector::new(0);
        ring.record(rec(1, TraceEvent::PendingTableSize { size: 1 }));
        ring.record(rec(2, TraceEvent::PendingTableSize { size: 2 }));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let records = fixture();
        let text = trace_to_jsonl(&records);
        assert_eq!(text.lines().count(), records.len());
        let parsed = trace_from_jsonl(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn jsonl_lines_carry_time_and_kind() {
        let records = fixture();
        let text = trace_to_jsonl(&records);
        let first = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(*first.get("t_ps"), 0u64);
        assert_eq!(*first.get("event"), "run-started");
        assert_eq!(*first.get("algorithm"), "Parallel");
        assert_eq!(*first.get("trigger"), "initial");
    }

    #[test]
    fn jsonl_parser_reports_bad_lines() {
        assert!(trace_from_jsonl("").unwrap().is_empty());
        assert!(trace_from_jsonl("\n\n").unwrap().is_empty());
        let err = trace_from_jsonl("{\"event\":\"no-such-kind\",\"t_ps\":1}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let good = "{\"t_ps\":2,\"event\":\"pending-table-size\",\"size\":1}";
        let err = trace_from_jsonl(&format!("{good}\nnot json")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // Unknown algorithm spellings are rejected, not silently leaked.
        let bad = "{\"t_ps\":1,\"event\":\"run-started\",\"algorithm\":\"Quantum\",\"trigger\":\"initial\"}";
        assert!(trace_from_jsonl(bad).is_err());
        // Integers too large for their field are rejected, not wrapped
        // into a different record (device 1 port 4464; priority 44) —
        // nor, past what the JSON number holds exactly, saturated to
        // `u64::MAX` ps or rounded to the even neighbour.
        for bad in [
            "{\"t_ps\":1,\"event\":\"fault-link-down\",\"device\":4294967297,\"port\":70000}",
            "{\"t_ps\":1,\"event\":\"fm-claim\",\"dsn\":7,\"priority\":300}",
            "{\"t_ps\":1e300,\"event\":\"pending-table-size\",\"size\":1}",
            "{\"t_ps\":18446744073709551616,\"event\":\"pending-table-size\",\"size\":1}",
            "{\"t_ps\":9007199254740993,\"event\":\"pending-table-size\",\"size\":1}",
        ] {
            let err = trace_from_jsonl(&format!("{good}\n{bad}")).unwrap_err();
            assert!(err.contains("line 2"), "{err}");
        }
    }

    #[test]
    fn save_trace_jsonl_writes_file() {
        let dir = std::env::temp_dir().join("asi-trace-report-test");
        let path = dir.join("trace.jsonl");
        let records = fixture();
        save_trace_jsonl(&path, &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(trace_from_jsonl(&text).unwrap(), records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_counts_and_derived_totals() {
        let s = TraceSummary::of(&fixture());
        assert_eq!(s.count("request-injected"), 1);
        assert_eq!(s.count("pi5-emitted"), 1);
        assert_eq!(s.count("no-such-kind"), 0);
        assert_eq!(s.counts.values().sum::<u64>(), 39);
        assert_eq!(s.first, Some(SimTime::ZERO));
        assert_eq!(s.last, Some(SimTime::from_ps(39)));
        assert_eq!(s.max_pending, 3);
        assert_eq!(s.fm_busy, SimDuration::from_ps(1500));
        assert_eq!(s.fm_idle, SimDuration::from_ps(2500));
        let md = s.to_markdown();
        assert!(md.contains("| request-injected | 1 |"), "{md}");
        assert!(md.contains("peak pending 3"), "{md}");
    }

    #[test]
    fn ring_collector_works_through_a_trace_handle() {
        let ring = RingCollector::shared(16);
        let handle = asi_sim::TraceHandle::to(ring.clone());
        handle.emit(SimTime::from_ns(5), || TraceEvent::PendingTableSize {
            size: 2,
        });
        assert_eq!(ring.borrow().len(), 1);
        assert_eq!(
            ring.borrow().records().next().unwrap().event.kind(),
            "pending-table-size"
        );
    }
}
