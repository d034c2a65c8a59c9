//! The artifact record: every figure a `ps-bench` command publishes is
//! a [`Value`] in a [`Record`], written once. The `BENCH_*.json` file
//! and the printed report both render from it, so a number cannot say
//! one thing on stdout and another on disk, and a report line names the
//! JSON path of the figure it shows (`recovery.latency_ms`).
//!
//! Stable mode acts here and only here. A figure read off the host's
//! clock is a [`Value::Wall`]: it carries the measurement and the stand-in
//! that [`Mode::Stable`] writes instead (`0`, `null`, or a registry
//! stripped of `_wall_` metrics). Every command runs and measures the
//! same way in either mode; only rendering differs, so two stable runs of
//! one seed write identical bytes and are also the real run's smoke test.

/// How host-measured figures render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The host's measurements, as published in the committed artifacts.
    Measured,
    /// Every [`Value::Wall`] replaced by its stand-in, so same-seed runs
    /// are byte-identical.
    Stable,
}

impl Mode {
    /// [`Mode::Stable`] under `PS_STABLE_ARTIFACTS=1`, else
    /// [`Mode::Measured`]. The only place `ps-bench` reads the variable;
    /// `ps-lint --format json` reads it too, for its stage timings (the
    /// linter has no dependencies, so it keeps its own read).
    pub fn from_env() -> Mode {
        if std::env::var("PS_STABLE_ARTIFACTS").is_ok_and(|v| v == "1") {
            Mode::Stable
        } else {
            Mode::Measured
        }
    }
}

/// One published figure.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`: a figure the run did not observe.
    Null,
    /// A flag.
    Bool(bool),
    /// A count or an id.
    Int(u64),
    /// A real number and the decimals it is written with.
    Num(f64, usize),
    /// A label.
    Str(String),
    /// A sequence.
    List(Vec<Value>),
    /// A nested record.
    Obj(Record),
    /// JSON rendered elsewhere (the metrics registry), written verbatim.
    Raw(String),
    /// A figure read off the host's clock and what stable mode writes
    /// in its place.
    Wall {
        /// The measurement.
        measured: Box<Value>,
        /// The stand-in [`Mode::Stable`] writes.
        stable: Box<Value>,
    },
}

/// `v` written with `decimals` decimals.
pub fn num(v: f64, decimals: usize) -> Value {
    Value::Num(v, decimals)
}

/// A host-clock measurement whose stable stand-in is `stable`.
pub fn wall(measured: impl Into<Value>, stable: impl Into<Value>) -> Value {
    Value::Wall {
        measured: Box::new(measured.into()),
        stable: Box::new(stable.into()),
    }
}

/// A host-clock reading written with `decimals` decimals; stable mode
/// writes zero.
pub fn wall_num(v: f64, decimals: usize) -> Value {
    wall(num(v, decimals), num(0.0, decimals))
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v.into())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Record> for Value {
    fn from(v: Record) -> Self {
        Value::Obj(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Longest line an object or list is written on before it breaks into
/// one field per line.
const INLINE_WIDTH: usize = 100;

impl Value {
    /// What `mode` writes for this value.
    fn resolve(&self, mode: Mode) -> &Value {
        match (self, mode) {
            (Value::Wall { measured, .. }, Mode::Measured) => measured.resolve(mode),
            (Value::Wall { stable, .. }, Mode::Stable) => stable.resolve(mode),
            _ => self,
        }
    }

    /// The value as JSON on one line.
    fn inline_json(&self, mode: Mode) -> String {
        match self {
            Value::Wall { .. } => self.resolve(mode).inline_json(mode),
            Value::Null => "null".to_owned(),
            Value::Bool(v) => v.to_string(),
            Value::Int(v) => v.to_string(),
            Value::Num(v, _) if !v.is_finite() => "null".to_owned(),
            Value::Num(v, decimals) => format!("{v:.decimals$}"),
            Value::Str(s) => quote(s),
            Value::Raw(json) => json.clone(),
            Value::List(items) => {
                let items: Vec<String> = items.iter().map(|v| v.inline_json(mode)).collect();
                format!("[{}]", items.join(", "))
            }
            Value::Obj(record) => {
                let fields: Vec<String> = record
                    .0
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.inline_json(mode)))
                    .collect();
                format!("{{{}}}", fields.join(", "))
            }
        }
    }

    /// Appends the value as JSON at nesting depth `depth`, starting
    /// `column` characters into its line: whole when that line stays
    /// within [`INLINE_WIDTH`], else one element per line.
    fn write_json(&self, out: &mut String, depth: usize, column: usize, mode: Mode) {
        let value = self.resolve(mode);
        let inline = value.inline_json(mode);
        let items: Vec<(Option<&str>, &Value)> = match value {
            Value::List(items) => items.iter().map(|v| (None, v)).collect(),
            Value::Obj(record) => record
                .0
                .iter()
                .map(|(k, v)| (Some(k.as_str()), v))
                .collect(),
            _ => Vec::new(),
        };
        if items.is_empty() || (depth > 0 && column + inline.len() <= INLINE_WIDTH) {
            out.push_str(&inline);
            return;
        }
        // A list or a record: its brackets open and close the inline form.
        let (open, close) = (&inline[..1], &inline[inline.len() - 1..]);
        out.push_str(open);
        for (i, (key, v)) in items.into_iter().enumerate() {
            let mut lead = "  ".repeat(depth + 1);
            if let Some(key) = key {
                lead.push_str(&quote(key));
                lead.push_str(": ");
            }
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&lead);
            v.write_json(out, depth + 1, lead.len(), mode);
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push_str(close);
    }

    /// The value as a report cell: JSON, but labels unquoted.
    fn text(&self, mode: Mode) -> String {
        match self.resolve(mode) {
            Value::Str(s) => s.clone(),
            v => v.inline_json(mode),
        }
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named figures in the order they are written.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record(Vec<(String, Value)>);

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// The record with `key` appended.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.push(key, value);
        self
    }

    /// Appends `key`.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.0.push((key.into(), value.into()));
    }

    /// The record as a JSON document, newline-terminated.
    pub fn to_json(&self, mode: Mode) -> String {
        let mut out = String::new();
        Value::Obj(self.clone()).write_json(&mut out, 0, 0, mode);
        out.push('\n');
        out
    }

    /// Every leaf as `(dotted path, key, value)`, in record order:
    /// nested records are walked, everything else is a leaf.
    fn leaves(&self) -> Vec<(String, &str, &Value)> {
        let mut leaves = Vec::new();
        for (key, value) in &self.0 {
            match value {
                Value::Obj(nested) => leaves.extend(
                    nested
                        .leaves()
                        .into_iter()
                        .map(|(path, k, v)| (format!("{key}.{path}"), k, v)),
                ),
                v => leaves.push((key.clone(), key.as_str(), v)),
            }
        }
        leaves
    }
}

/// What a report shows, in order.
#[derive(Debug, Clone)]
enum Block {
    Section(String),
    Line(String),
    Show(Record),
    Table(Vec<Record>),
}

/// What one command publishes: the report it prints and, for the
/// artifact-writing commands, the `BENCH_*.json` record and the trace
/// event stream. [`Artifact::write`] is the one writer.
#[derive(Debug, Clone)]
pub struct Artifact {
    title: String,
    blocks: Vec<Block>,
    file: Option<(&'static str, Record)>,
    stream: Option<(String, String)>,
}

impl Artifact {
    /// A report titled `title`, writing no file.
    pub fn new(title: impl Into<String>) -> Self {
        Artifact {
            title: title.into(),
            blocks: Vec::new(),
            file: None,
            stream: None,
        }
    }

    /// Output that is `text` alone: no title, no file.
    pub fn raw(text: String) -> Self {
        let mut artifact = Artifact::new("");
        artifact.line(text);
        artifact
    }

    /// Opens a report section.
    pub fn section(&mut self, name: impl Into<String>) -> &mut Self {
        self.blocks.push(Block::Section(name.into()));
        self
    }

    /// A free-form report line.
    pub fn line(&mut self, text: impl Into<String>) -> &mut Self {
        self.blocks.push(Block::Line(text.into()));
        self
    }

    /// `record` as text: each figure on an aligned `path  value` line
    /// named by its dotted JSON path, each list of records as a table
    /// under its path. Pre-rendered JSON is left to the file.
    pub fn show(&mut self, record: Record) -> &mut Self {
        self.blocks.push(Block::Show(record));
        self
    }

    /// `rows` as a table, one column per leaf, headed by the leaf's key.
    pub fn table(&mut self, rows: Vec<Record>) -> &mut Self {
        self.blocks.push(Block::Table(rows));
        self
    }

    /// Writes `record` to `name` in the current directory, and shows it
    /// (see [`Artifact::show`]) at this point of the report.
    pub fn file(&mut self, name: &'static str, record: Record) -> &mut Self {
        self.blocks.push(Block::Show(record.clone()));
        self.file = Some((name, record));
        self
    }

    /// Writes `jsonl` to `path`.
    pub fn stream(&mut self, path: impl Into<String>, jsonl: String) -> &mut Self {
        self.stream = Some((path.into(), jsonl));
        self
    }

    /// The printed report: the title, then each block in order — a
    /// section as `--- name ---` after a blank line, figures as runs of
    /// aligned `path  value` lines, tables as aligned columns.
    pub fn report(&self, mode: Mode) -> String {
        if let ([Block::Line(text)], "") = (self.blocks.as_slice(), self.title.as_str()) {
            return text.clone();
        }
        let mut lines = vec![format!("=== {} ===", self.title)];
        for block in &self.blocks {
            match block {
                Block::Section(name) => lines.push(format!("\n--- {name} ---")),
                Block::Line(text) => lines.push(text.clone()),
                Block::Show(record) => show(&mut lines, record, mode),
                Block::Table(rows) => lines.extend(table(&rows.iter().collect::<Vec<_>>(), mode)),
            }
        }
        lines.join("\n") + "\n"
    }

    /// Prints the report and writes the file and the stream.
    pub fn write(&self, mode: Mode) -> std::io::Result<()> {
        print!("{}", self.report(mode));
        if let Some((name, record)) = &self.file {
            std::fs::write(name, record.to_json(mode))?;
            println!("wrote {name}");
        }
        if let Some((path, jsonl)) = &self.stream {
            std::fs::write(path, jsonl)?;
            println!("wrote {path}");
        }
        Ok(())
    }
}

/// Appends `record`'s leaves to `lines`: runs of scalar figures as
/// aligned `path  value` lines, each list of records as a table under
/// its path.
fn show(lines: &mut Vec<String>, record: &Record, mode: Mode) {
    let mut run: Vec<(String, String)> = Vec::new();
    for (path, _, value) in record.leaves() {
        let value = value.resolve(mode);
        let rows: Vec<&Record> = match value {
            Value::List(items) => items
                .iter()
                .map_while(|v| match v {
                    Value::Obj(row) => Some(row),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        match value {
            Value::Raw(_) => {}
            Value::List(items) if !rows.is_empty() && rows.len() == items.len() => {
                flush(lines, &mut run);
                lines.push(format!("\n--- {path} ---"));
                lines.extend(table(&rows, mode));
            }
            v => run.push((path, v.text(mode))),
        }
    }
    flush(lines, &mut run);
}

/// Appends `run` as `  path  value` lines, paths padded to the longest.
fn flush(lines: &mut Vec<String>, run: &mut Vec<(String, String)>) {
    let width = run.iter().map(|(path, _)| path.len()).max().unwrap_or(0);
    lines.extend(
        run.drain(..)
            .map(|(path, value)| format!("  {path:<width$}  {value}")),
    );
}

/// Renders `rows` as aligned text, one column per leaf path any row
/// has (first-seen order), headed by the leaf's key: labels left,
/// figures right.
fn table(rows: &[&Record], mode: Mode) -> Vec<String> {
    let leaves: Vec<Vec<(String, &str, &Value)>> = rows.iter().map(|r| r.leaves()).collect();
    let mut columns: Vec<(&str, &str)> = Vec::new();
    for (path, key, _) in leaves.iter().flatten() {
        if !columns.iter().any(|(p, _)| p == path) {
            columns.push((path, key));
        }
    }
    let cells: Vec<Vec<(String, bool)>> = leaves
        .iter()
        .map(|row| {
            columns
                .iter()
                .map(|(path, _)| {
                    let value = row
                        .iter()
                        .find(|(p, _, _)| p == path)
                        .map_or(&Value::Null, |(_, _, v)| v);
                    let label = matches!(value.resolve(mode), Value::Str(_));
                    (value.text(mode), label)
                })
                .collect()
        })
        .collect();
    let widths: Vec<(usize, bool)> = columns
        .iter()
        .enumerate()
        .map(|(i, (_, key))| {
            let width = cells.iter().map(|row| row[i].0.len()).max().unwrap_or(0);
            (width.max(key.len()), cells.iter().any(|row| row[i].1))
        })
        .collect();
    let line = |row: Vec<String>| {
        let cols: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(text, &(w, left))| {
                if left {
                    format!("{text:<w$}")
                } else {
                    format!("{text:>w$}")
                }
            })
            .collect();
        cols.join("  ").trim_end().to_owned()
    };
    std::iter::once(columns.iter().map(|(_, key)| key.to_string()).collect())
        .chain(
            cells
                .into_iter()
                .map(|row| row.into_iter().map(|(text, _)| text).collect()),
        )
        .map(line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record::new()
            .with("bench", "demo")
            .with("time_ms", wall_num(12.345_6, 3))
            .with("plan_wall_us", wall(num(7.0, 1), Value::Null))
            .with("hits", vec![1u64, 2])
            .with(
                "leg",
                Record::new()
                    .with("done", true)
                    .with("at_ms", Option::<Value>::None),
            )
    }

    #[test]
    fn stable_mode_writes_the_stand_ins_and_nothing_else_changes() {
        let measured = sample().to_json(Mode::Measured);
        let stable = sample().to_json(Mode::Stable);
        assert_eq!(
            measured,
            "{\n  \"bench\": \"demo\",\n  \"time_ms\": 12.346,\n  \"plan_wall_us\": 7.0,\n  \
             \"hits\": [1, 2],\n  \"leg\": {\"done\": true, \"at_ms\": null}\n}\n"
        );
        assert_eq!(
            stable,
            measured
                .replace("12.346", "0.000")
                .replace("\"plan_wall_us\": 7.0", "\"plan_wall_us\": null")
        );
    }

    #[test]
    fn wide_values_break_one_element_per_line_and_strings_are_escaped() {
        let wide: Vec<Value> = (0..40u64).map(Value::Int).collect();
        let json = Record::new()
            .with("xs", wide)
            .with("label", "a \"b\"\n")
            .to_json(Mode::Measured);
        assert!(
            json.starts_with("{\n  \"xs\": [\n    0,\n    1,\n"),
            "{json}"
        );
        assert!(json.contains("\"label\": \"a \\\"b\\\"\\n\""), "{json}");
    }

    #[test]
    fn the_report_shows_each_leaf_under_its_json_path() {
        let mut artifact = Artifact::new("demo");
        artifact.show(sample()).table(vec![
            Record::new()
                .with("site", "NewYork")
                .with("ms", num(1.5, 2)),
            Record::new().with("site", "SD").with("ms", num(801.0, 2)),
        ]);
        let text = artifact.report(Mode::Stable);
        assert!(text.contains("  leg.done      true\n"), "{text}");
        assert!(text.contains("  time_ms       0.000\n"), "{text}");
        assert!(
            text.contains("site         ms\nNewYork    1.50\nSD       801.00\n"),
            "{text}"
        );
    }
}
