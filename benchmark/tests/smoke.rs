//! A tiny-input run of every workload the benchmark implements, untraced
//! and traced. Each must print every metric the file names, by name and with
//! its unit, report no failed operation, and, when traced, write spans
//! that nest inside their parents.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value: just enough JSON for `BENCHMARK.json` and the
/// benchmark's own output.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(members) => {
                &members
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(members);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    members.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(members);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s[self.i] {
                        b'"' => break,
                        b'\\' => {
                            self.i += 1;
                            match self.s[self.i] {
                                b'u' => {
                                    let hex =
                                        std::str::from_utf8(&self.s[self.i + 1..self.i + 5])
                                            .unwrap();
                                    out.push(
                                        char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                            .unwrap(),
                                    );
                                    self.i += 4;
                                }
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                c => out.push(c as char),
                            }
                            self.i += 1;
                        }
                        _ => {
                            let start = self.i;
                            while self.s[self.i] != b'"' && self.s[self.i] != b'\\' {
                                self.i += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                        }
                    }
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }
}

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// `name -> unit` for one metric list of `BENCHMARK.json`.
fn named(list: &Json) -> BTreeMap<String, String> {
    list.arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

/// Runs one tiny workload in its own directory; returns the result line,
/// the run record and the directory.
fn run(workload: &str, trace: bool) -> (Json, Json, PathBuf) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{}", u8::from(trace)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gass-ledger"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "expected a run record and a result: {stdout}");
    let record = Parser::parse(lines[lines.len() - 2]);
    (Parser::parse(lines[lines.len() - 1]), record, dir)
}

/// Every span with a parent lies inside the parent's interval and shares
/// its request id.
fn check_spans(path: &Path) {
    let text = std::fs::read_to_string(path).expect("read the spans");
    let rows: Vec<Vec<&str>> = text.lines().skip(1).map(|l| l.split('\t').collect()).collect();
    assert!(!rows.is_empty(), "no spans in {}", path.display());
    let field = |r: &[&str], i: usize| -> i64 { r[i].parse().unwrap() };
    let mut children = 0;
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(field(r, 0), i as i64, "span ids are line numbers");
        assert!(field(r, 4) <= field(r, 5), "span ends before it starts");
        let parent = field(r, 1);
        if parent >= 0 {
            children += 1;
            let p = &rows[parent as usize];
            assert!((parent as usize) < i, "parent recorded after its child");
            assert_eq!(r[2], p[2], "child and parent serve different requests");
            assert!(
                field(r, 4) >= field(p, 4) && field(r, 5) <= field(p, 5),
                "{} escapes {}",
                r[3],
                p[3]
            );
        }
    }
    assert!(children > 0, "no span has a parent");
}

/// The workloads the benchmark implements. `deep-exact` runs by name but is
/// not in `BENCHMARK.json`: its timings spread too far on a small shared
/// host.
const IMPLEMENTED: [&str; 3] = ["deep-exact", "gist-sq8-batch", "sharded-serve"];

fn smoke(workload: &str) {
    let bench = manifest();
    for trace in [false, true] {
        let (result, record, dir) = run(workload, trace);
        let keys: Vec<&str> = match &result {
            Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("result is not an object: {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}: {record:?}");
        assert_eq!(result.get("failed").num(), 0.0);
        assert!(result.get("attempted").num() >= 1.0);
        assert_eq!(record.get("run_record").get("workload").str(), workload);

        let want = named(bench.get(if trace { "per_layer" } else { "end_to_end" }));
        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        let got: BTreeMap<String, String> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").num().is_finite());
                (name.clone(), m.get("unit").str().to_string())
            })
            .collect();
        assert_eq!(
            got, want,
            "{workload} trace={trace}: metrics or units differ from BENCHMARK.json"
        );
        if trace {
            check_spans(&dir.join(".ledger").join(format!("{workload}.spans.tsv")));
        }
    }
}

#[test]
fn listed_workloads_are_implemented() {
    let bench = manifest();
    let listed = bench.get("workloads").arr();
    assert!(listed.len() >= 2);
    for w in listed {
        assert!(IMPLEMENTED.contains(&w.get("name").str()), "{w:?} is not implemented");
    }
}

#[test]
fn deep_exact() {
    smoke("deep-exact");
}

#[test]
fn gist_sq8_batch() {
    smoke("gist-sq8-batch");
}

#[test]
fn sharded_serve() {
    smoke("sharded-serve");
}

#[test]
fn bad_arguments_exit_non_zero() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "deep-exact", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gass-ledger")).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
