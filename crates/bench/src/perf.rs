//! Shared plumbing of the perf bins (`mcperf`, `netperf`): repeated
//! timing with a determinism check, and the committed `BENCH_*.json`
//! trajectory each run appends one entry to.
//!
//! A trajectory file is `{"entries": [...]}`, oldest first. A bin reads
//! it before timing (the last entry is the `--gate` baseline), then
//! appends its own entry with [`append_entry`].

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

/// Median of the ascending times [`bench`] returns.
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
}
