//! Shared plumbing of the perf bins (`mcperf`, `netperf`): repeated
//! timing with a determinism check, and the committed `BENCH_*.json`
//! trajectory each run appends one entry to.
//!
//! A trajectory file is `{"entries": [...]}`, oldest first. A bin reads
//! it before timing (the last entry at the run's own scale is the
//! `--gate` baseline, see [`baseline_entry`]), then appends its own entry
//! with [`append_entry`]. `--gate` runs its
//! [`Gate`]s through [`run_gates`].

use std::time::Instant;

use serde::{Serialize, Value};

/// Timing repeats per engine; the median is reported, min/max recorded.
pub const RUNS: usize = 5;

/// Times `f` [`RUNS`] times, asserts every repeat returns identical
/// results, and returns the ascending times with the result.
pub fn bench<R: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut times = Vec::with_capacity(RUNS);
    let mut result: Option<R> = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        match &result {
            None => result = Some(r),
            Some(prev) => assert_eq!(*prev, r, "engine is not deterministic across repeats"),
        }
    }
    // total_cmp: a NaN timing (impossible, but cheap to be total about)
    // sorts instead of panicking mid-benchmark
    times.sort_by(f64::total_cmp);
    (times, result.unwrap())
}

/// Median of the ascending times [`bench()`] returns.
pub fn median(times: &[f64]) -> f64 {
    times[times.len() / 2]
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch (0 if the clock is before it).
pub fn unix_time() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Reads the existing trajectory, tolerating a missing file and any
/// other schema (which is dropped — the history restarts from this run).
pub fn read_entries(path: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    match doc.field("entries") {
        Ok(Value::Seq(list)) => list.clone(),
        _ => Vec::new(),
    }
}

/// The `--gate` baseline: the last entry whose `scale_field` (e.g.
/// `n_nodes`) equals this run's `scale`. Smaller runs appended earlier in
/// the same job are never the yardstick for a larger one.
pub fn baseline_entry<'a>(
    entries: &'a [Value],
    scale_field: &str,
    scale: f64,
) -> Option<&'a Value> {
    entries
        .iter()
        .rev()
        .find(|e| number_field(e, scale_field) == Some(scale))
}

/// Extracts a number field from a trajectory entry.
pub fn number_field(entry: &Value, name: &str) -> Option<f64> {
    match entry.field(name) {
        Ok(&Value::F64(x)) => Some(x),
        Ok(&Value::I64(x)) => Some(x as f64),
        Ok(&Value::U64(x)) => Some(x as f64),
        _ => None,
    }
}

/// Pretty JSON of `value`; on failure prints `could not serialise
/// {what}` and exits 1.
pub fn to_json_or_exit<T: Serialize + ?Sized>(value: &T, what: &str) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| {
        eprintln!("error: could not serialise {what}: {e}");
        std::process::exit(1);
    })
}

/// Appends `entry` to `entries` and writes the trajectory to `path`;
/// exits 1 if it cannot.
///
/// The write is atomic (temp file + rename): a crash mid-write can
/// truncate only the temp file, never the committed baseline `--gate`
/// depends on.
pub fn append_entry(path: &str, mut entries: Vec<Value>, entry: Value) {
    entries.push(entry);
    let doc = Value::Map(vec![("entries".to_string(), Value::Seq(entries))]);
    let doc_json = to_json_or_exit(&doc, path);
    let tmp = format!("{path}.tmp");
    if let Err(e) = std::fs::write(&tmp, doc_json).and_then(|()| std::fs::rename(&tmp, path)) {
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(1);
    }
}

/// The floor a `--gate` check holds a measurement to.
#[derive(Debug, Clone, Copy)]
pub enum Floor {
    /// `fraction` of the last committed baseline; a missing baseline
    /// fails the gate.
    Relative {
        /// Share of the baseline the measurement must keep.
        fraction: f64,
        /// The committed value, `None` if the trajectory lacks it.
        baseline: Option<f64>,
    },
    /// A fixed floor that holds on any hardware.
    Absolute(f64),
}

/// One `--gate` check: `measured` must not fall below `floor`.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// What is measured, e.g. `grid/scalar speedup`.
    pub name: &'static str,
    /// This run's value.
    pub measured: f64,
    /// The floor it is held to.
    pub floor: Floor,
}

impl Gate {
    /// `Ok` with the pass line, or `Err` with the failure line.
    pub fn check(&self) -> Result<String, String> {
        let (name, measured) = (self.name, self.measured);
        let (floor, why) = match self.floor {
            Floor::Relative {
                fraction,
                baseline: Some(base),
            } => (
                fraction * base,
                format!("{:.0}% of committed baseline {base:.2}", fraction * 100.0),
            ),
            Floor::Relative { baseline: None, .. } => {
                return Err(format!("PERF GATE FAILED: no committed {name} baseline"))
            }
            Floor::Absolute(floor) => (floor, "absolute floor".to_string()),
        };
        if measured < floor {
            Err(format!(
                "PERF GATE FAILED: {name} {measured:.2} fell below {floor:.2} ({why})"
            ))
        } else {
            Ok(format!(
                "perf gate OK: {name} {measured:.2} >= {floor:.2} ({why})"
            ))
        }
    }
}

/// Checks every gate, printing passes to stdout and failures to stderr;
/// returns whether all of them passed.
pub fn run_gates(gates: &[Gate]) -> bool {
    let mut passed = true;
    for gate in gates {
        match gate.check() {
            Ok(line) => println!("{line}"),
            Err(line) => {
                eprintln!("{line}");
                passed = false;
            }
        }
    }
    passed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_ascending_times_and_the_result() {
        let (times, r) = bench(|| 7u32);
        assert_eq!(r, 7);
        assert_eq!(times.len(), RUNS);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(median(&times), times[RUNS / 2]);
    }

    #[test]
    #[should_panic(expected = "not deterministic")]
    fn bench_rejects_results_that_differ_across_repeats() {
        let mut n = 0;
        bench(|| {
            n += 1;
            n
        });
    }

    #[test]
    fn trajectory_appends_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("comimo-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let path = path.to_str().unwrap();
        assert!(
            read_entries(path).is_empty(),
            "a missing file is an empty history"
        );
        let entry = |x: f64| Value::Map(vec![("speedup".to_string(), Value::F64(x))]);
        append_entry(path, read_entries(path), entry(1.5));
        append_entry(path, read_entries(path), entry(2.5));
        let entries = read_entries(path);
        assert_eq!(entries.len(), 2);
        assert_eq!(number_field(entries.last().unwrap(), "speedup"), Some(2.5));
        assert_eq!(number_field(&entries[0], "missing"), None);
        std::fs::write(path, "{\"old\": 1}").unwrap();
        assert!(
            read_entries(path).is_empty(),
            "another schema restarts the history"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn baseline_is_the_last_entry_at_the_same_scale() {
        let entry = |n: u64, rate: f64| {
            Value::Map(vec![
                ("n_nodes".to_string(), Value::U64(n)),
                ("rate".to_string(), Value::F64(rate)),
            ])
        };
        let entries = [
            entry(200_000, 1.0),
            entry(200_000, 2.0),
            entry(50_000, 7.0),
            entry(50_000, 8.0),
        ];
        let rate =
            |n: f64| baseline_entry(&entries, "n_nodes", n).and_then(|e| number_field(e, "rate"));
        assert_eq!(rate(200_000.0), Some(2.0), "later 50 k rows are skipped");
        assert_eq!(rate(50_000.0), Some(8.0));
        assert_eq!(rate(1_000_000.0), None, "no row at this scale");
    }

    #[test]
    fn gates_pass_fail_and_fail_without_a_baseline() {
        let relative = |measured, baseline| Gate {
            name: "x",
            measured,
            floor: Floor::Relative {
                fraction: 0.5,
                baseline,
            },
        };
        assert!(
            relative(2.0, Some(4.0)).check().is_ok(),
            "exactly at the floor"
        );
        assert!(relative(1.9, Some(4.0)).check().is_err());
        let missing = relative(100.0, None).check().unwrap_err();
        assert!(missing.contains("no committed x baseline"), "{missing}");
        let absolute = |measured| Gate {
            name: "y",
            measured,
            floor: Floor::Absolute(10.0),
        };
        assert!(absolute(10.0).check().is_ok());
        assert!(absolute(9.99).check().is_err());
        assert!(run_gates(&[relative(3.0, Some(4.0)), absolute(12.0)]));
        assert!(!run_gates(&[relative(3.0, Some(4.0)), relative(3.0, None)]));
    }
}
