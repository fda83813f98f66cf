//! Result records: printing, the result-file format (`BENCH_*.json`),
//! `--repeat` statistics and `compare`.

use crate::catalogue::{self, Better, Metric};
use crate::instruments::median;
use crate::json::Json;

/// A named value with its unit.
pub type Value = (String, f64, String);

/// `"name": {"value": v, "unit": "u"}`, as the driver reads it.
fn value_json((name, value, unit): &Value) -> (String, Json) {
    let fields = vec![("value", Json::Num(*value)), ("unit", Json::str(unit))];
    (name.clone(), Json::obj(fields))
}

/// One workload's results from one run (end-to-end or per-layer).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Catalogue metrics, in catalogue order.
    pub metrics: Vec<Value>,
    /// Printed and stored beside them, never gated.
    pub diagnostics: Vec<Value>,
}

impl Record {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter restricted to `names`.
    pub fn contract_line(&self, names: &[&str]) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| names.contains(&m.0.as_str()))
            .map(value_json)
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Every metric and diagnostic by name, with its unit.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}  ({} attempted, {} failed)\n",
            self.workload, self.attempted, self.failed
        );
        for (name, value, unit) in &self.metrics {
            let gate = match catalogue::end_to_end(name) {
                Some(m) if m.bound > 0.0 => {
                    format!(
                        "  {} is better, bound {:.0} %",
                        m.better.as_str(),
                        m.bound * 100.0
                    )
                }
                Some(m) => format!("  {} is better, any rise fails", m.better.as_str()),
                None => String::new(),
            };
            out.push_str(&format!("  {name:<26} {value:>14.4} {unit}{gate}\n"));
        }
        for (name, value, unit) in &self.diagnostics {
            out.push_str(&format!("  ~ {name:<24} {value:>14.4} {unit}\n"));
        }
        out
    }

    fn to_json(&self) -> Json {
        let values = |vs: &[Value]| Json::Obj(vs.iter().map(value_json).collect());
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", values(&self.metrics)),
            ("diagnostics", values(&self.diagnostics)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Record, String> {
        let values = |key: &str| -> Result<Vec<Value>, String> {
            doc.get(key)
                .and_then(Json::as_obj)
                .ok_or(format!("record without {key}"))?
                .iter()
                .map(|(name, v)| {
                    let value = v.get("value").and_then(Json::as_f64);
                    let unit = v.get("unit").and_then(Json::as_str);
                    match (value, unit) {
                        (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                        _ => Err(format!("{name}: needs value and unit")),
                    }
                })
                .collect()
        };
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or(format!("record without {key}"))
        };
        Ok(Record {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("record without workload")?
                .to_string(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: values("metrics")?,
            diagnostics: values("diagnostics")?,
        })
    }
}

/// A result file: where it was measured and one or more runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// `e2e` or `layers`.
    pub kind: String,
    pub env: Vec<(String, Json)>,
    /// `(seed, records)` per run.
    pub runs: Vec<(u64, Vec<Record>)>,
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ledger", Json::Num(1.0)),
            ("kind", Json::str(&self.kind)),
            ("env", Json::Obj(self.env.clone())),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|(seed, records)| {
                            Json::obj(vec![
                                ("seed", Json::Num(*seed as f64)),
                                (
                                    "workloads",
                                    Json::Arr(records.iter().map(Record::to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            // The ledger measures; it never claims a gain.
            ("claim", Json::Null),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<ResultFile, String> {
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("result file without runs")?
            .iter()
            .map(|run| {
                let seed = run
                    .get("seed")
                    .and_then(Json::as_f64)
                    .ok_or("run without seed")?;
                let records = run
                    .get("workloads")
                    .and_then(Json::as_arr)
                    .ok_or("run without workloads")?
                    .iter()
                    .map(Record::from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((seed as u64, records))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ResultFile {
            kind: doc
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("result file without kind")?
                .to_string(),
            env: doc
                .get("env")
                .and_then(Json::as_obj)
                .ok_or("result file without env")?
                .to_vec(),
            runs,
        })
    }

    pub fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    }

    /// All values of one metric on one workload, over every run.
    fn values(files: &[ResultFile], workload: &str, metric: &str) -> Vec<f64> {
        files
            .iter()
            .flat_map(|f| &f.runs)
            .flat_map(|(_, records)| records)
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metric(metric))
            .collect()
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let len = v.len();
    assert!(len >= 2, "quartiles need two values");
    let m = len + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Distance between the quartiles as a share of the median; 0 when there
/// are too few values to have one.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, _, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid
    }
}

/// The `--repeat` table: per metric and workload, median, quartiles and
/// the max-min spread as a share of the median.
pub fn render_repeat(file: &ResultFile) -> String {
    let mut out = format!(
        "{:<15} {:<26} {:>12} {:>12} {:>12} {:>9} {:>9}\n",
        "workload", "metric", "median", "q1", "q3", "iqr %", "max-min %"
    );
    let Some((_, first)) = file.runs.first() else {
        return out;
    };
    for record in first {
        for (metric, _, _) in &record.metrics {
            let values = ResultFile::values(std::slice::from_ref(file), &record.workload, metric);
            if values.len() < 2 {
                continue;
            }
            let (q1, _, q3) = quartiles(&values);
            let mid = median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            let share = |x: f64| if mid == 0.0 { 0.0 } else { 100.0 * x / mid };
            out.push_str(&format!(
                "{:<15} {:<26} {:>12.4} {:>12.4} {:>12.4} {:>9.2} {:>9.2}\n",
                record.workload,
                metric,
                mid,
                q1,
                q3,
                share(q3 - q1),
                share(hi - lo)
            ));
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Same,
    Better,
    /// The run-to-run spread is wider than the bound and the medians
    /// differ by less than that spread: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies one metric's bound to the two sides' values.
pub fn judge(metric: &Metric, base: &[f64], new: &[f64]) -> Verdict {
    let (b, n) = (median(base), median(new));
    if metric.bound == 0.0 {
        // Absolute: any rise is a regression (failed_share).
        return match n.partial_cmp(&b).expect("finite") {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::Same,
        };
    }
    // Positive = worse, as a share of the base median.
    let worse_by = match metric.better {
        Better::Lower => (n - b) / b,
        Better::Higher => (b - n) / b,
    };
    let spread = iqr_share(base).max(iqr_share(new));
    if spread > metric.bound && worse_by.abs() <= spread {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One row per metric and workload, no combined score. Returns the table
/// and whether any row is `worse`.
pub fn compare(base: &[ResultFile], new: &[ResultFile]) -> (String, bool) {
    let mut out = format!(
        "{:<15} {:<18} {:>12} {:>12} {:>9} {:>8} {:>8}  {}\n",
        "workload", "metric", "base", "new", "change %", "spread %", "bound %", "verdict"
    );
    let mut any_worse = false;
    let mut workloads: Vec<&str> = Vec::new();
    for record in base.iter().flat_map(|f| &f.runs).flat_map(|(_, r)| r) {
        if !workloads.contains(&record.workload.as_str()) {
            workloads.push(&record.workload);
        }
    }
    for workload in workloads {
        for metric in catalogue::END_TO_END
            .iter()
            .chain(std::iter::once(&catalogue::FAILED_SHARE))
        {
            let b = ResultFile::values(base, workload, metric.name);
            let n = ResultFile::values(new, workload, metric.name);
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let verdict = judge(metric, &b, &n);
            any_worse |= verdict == Verdict::Worse;
            let (bm, nm) = (median(&b), median(&n));
            let change = if bm == 0.0 {
                0.0
            } else {
                100.0 * (nm - bm) / bm
            };
            out.push_str(&format!(
                "{:<15} {:<18} {:>12.4} {:>12.4} {:>+9.2} {:>8.2} {:>8.1}  {}\n",
                workload,
                metric.name,
                bm,
                nm,
                change,
                100.0 * iqr_share(&b).max(iqr_share(&n)),
                100.0 * metric.bound,
                verdict.as_str()
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{END_TO_END, FAILED_SHARE};

    fn record(workload: &str, calls_per_s: f64, failed_share: f64) -> Record {
        Record {
            workload: workload.into(),
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("calls_per_s".into(), calls_per_s, "calls/s".into()),
                ("failed_share".into(), failed_share, "ratio".into()),
            ],
            diagnostics: vec![("rtt_p99_us".into(), 456.257, "us".into())],
        }
    }

    fn file(values: &[f64]) -> ResultFile {
        ResultFile {
            kind: "e2e".into(),
            env: vec![("nproc".into(), Json::Num(2.0))],
            runs: values
                .iter()
                .enumerate()
                .map(|(i, v)| (i as u64, vec![record("soap.small", *v, 0.0)]))
                .collect(),
        }
    }

    #[test]
    fn result_file_round_trips_through_json() {
        let f = file(&[12137.444663356873, 12001.5]);
        let text = f.to_json().render_pretty();
        assert_eq!(
            ResultFile::from_json(&Json::parse(&text).unwrap()).unwrap(),
            f
        );
        assert!(text.contains("\"claim\": null"));
        assert!(text.contains("12137.444663356873"));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) -> [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn bounds_judge_by_direction() {
        let calls = &END_TO_END[0];
        assert_eq!((calls.name, calls.better), ("calls_per_s", Better::Higher));
        let worse = 100.0 * (1.0 - calls.bound - 0.01);
        let better = 100.0 * (1.0 + calls.bound + 0.01);
        assert_eq!(judge(calls, &[100.0], &[worse]), Verdict::Worse);
        assert_eq!(judge(calls, &[100.0], &[better]), Verdict::Better);
        assert_eq!(judge(calls, &[100.0], &[99.0]), Verdict::Same);
        let cpu = &END_TO_END[1];
        assert_eq!((cpu.name, cpu.better), ("cpu_us_per_call", Better::Lower));
        assert_eq!(
            judge(cpu, &[100.0], &[100.0 * (1.0 + cpu.bound + 0.01)]),
            Verdict::Worse
        );
        assert_eq!(
            judge(cpu, &[100.0], &[100.0 * (1.0 - cpu.bound - 0.01)]),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_gap_is_wider() {
        let calls = &END_TO_END[0];
        // IQR/median ~ 0.5: far wider than the bound.
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert!(iqr_share(&noisy) > calls.bound);
        assert_eq!(
            judge(calls, &noisy, &[95.0, 96.0, 97.0]),
            Verdict::Unresolved
        );
        // Medians 100 -> 20: outside even that spread.
        assert_eq!(judge(calls, &noisy, &[19.0, 20.0, 21.0]), Verdict::Worse);
    }

    #[test]
    fn any_rise_in_failed_share_is_worse() {
        assert_eq!(judge(&FAILED_SHARE, &[0.0], &[0.0]), Verdict::Same);
        assert_eq!(judge(&FAILED_SHARE, &[0.0], &[0.0001]), Verdict::Worse);
        let (table, worse) = compare(&[file(&[100.0])], &[file(&[100.5])]);
        assert!(!worse, "{table}");
        let mut bad = file(&[100.0]);
        bad.runs[0].1[0].metrics[1].1 = 0.01;
        let (table, worse) = compare(&[file(&[100.0])], &[bad]);
        assert!(worse && table.contains("failed_share"), "{table}");
    }

    #[test]
    fn compare_uses_medians_over_several_files() {
        let base = [file(&[100.0, 102.0]), file(&[98.0])];
        let new = [file(&[50.0]), file(&[101.0, 99.0])];
        let (table, worse) = compare(&base, &new);
        assert!(!worse, "{table}");
        assert!(table.contains("soap.small"));
    }

    #[test]
    fn contract_line_has_exactly_the_asked_metrics() {
        let line = record("soap.small", 1.5, 0.0).contract_line(&["calls_per_s"]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\"calls_per_s\":{\"value\":1.5,\"unit\":\"calls/s\"}}}"
        );
    }
}
