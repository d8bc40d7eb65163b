//! What a run reports: per workload, every metric's per-round values and
//! their median — as a table, as a results file, and as the one-line JSON
//! object a driver reads.

use crate::metrics::{
    Better, MetricDef, Values, END_TO_END, INFORMATIONAL, PER_LAYER, SETUP_FLOOR_S,
};
use crate::stats::{median, quartile_spread};
use crate::workload::Workload;
use serde::{Content, DeError, Deserialize};
use std::fmt::Write;

/// One metric on one workload: a value per round. A `None` round is "not
/// applicable", and so is then the median.
pub struct Series {
    pub def: MetricDef,
    pub rounds: Vec<Option<f64>>,
}

impl Series {
    /// The rounds' values, when the metric applied in every round.
    fn values(&self) -> Option<Vec<f64>> {
        self.rounds.iter().copied().collect()
    }

    pub fn median(&self) -> Option<f64> {
        median(&self.values()?)
    }

    fn spread(&self) -> Option<f64> {
        quartile_spread(&self.values()?)
    }
}

pub struct WorkloadReport {
    pub workload: Workload,
    /// Operations of all measured rounds, and those `Client::run` gave up on.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not pass, over all rounds.
    pub errors: Vec<String>,
    /// Empty when the pass that measures them did not run.
    pub end_to_end: Vec<Series>,
    /// Measured with the end-to-end metrics; shown, not part of the result
    /// line.
    pub informational: Vec<Series>,
    pub per_layer: Vec<Series>,
}

impl WorkloadReport {
    pub fn new(workload: Workload) -> Self {
        WorkloadReport {
            workload,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            end_to_end: Vec::new(),
            informational: Vec::new(),
            per_layer: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Appends one round's values to the end-to-end series.
    pub fn push_end_to_end(&mut self, values: &Values) {
        push(
            &mut self.end_to_end,
            END_TO_END.iter().map(|(def, _)| def),
            values,
        );
        push(&mut self.informational, INFORMATIONAL.iter(), values);
    }

    /// Appends one traced round's values (probes and overhead merged in) to
    /// the per-layer series.
    pub fn push_per_layer(&mut self, values: &Values) {
        push(&mut self.per_layer, PER_LAYER.iter(), values);
    }

    /// The series of the result line: those `BENCHMARK.json` names.
    fn named_series(&self) -> impl Iterator<Item = &Series> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// measured, each as its median over rounds. A metric that does not
    /// apply to the workload reads 0.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .named_series()
            .map(|series| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    series.def.name,
                    json_number(series.median().or(Some(0.0))),
                    series.def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn push<'a>(series: &mut Vec<Series>, defs: impl Iterator<Item = &'a MetricDef>, values: &Values) {
    if series.is_empty() {
        series.extend(defs.map(|def| Series {
            def: *def,
            rounds: Vec::new(),
        }));
    }
    for entry in series {
        let value = values
            .get(entry.def.name)
            .unwrap_or_else(|| panic!("no value computed for {}", entry.def.name));
        entry.rounds.push(*value);
    }
}

fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

fn show(value: Option<f64>) -> String {
    match value {
        None => "n/a".to_string(),
        Some(v) if v.abs() >= 100.0 => format!("{v:.1}"),
        Some(v) => format!("{v:.3}"),
    }
}

/// The table of one workload.
pub fn render(report: &WorkloadReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", report.workload.name());
    let _ = writeln!(
        out,
        "  ops_attempted {}  ops_failed {}  checks {}",
        report.attempted,
        report.failed,
        if report.correct() { "passed" } else { "FAILED" }
    );
    for error in &report.errors {
        let _ = writeln!(out, "  ! {error}");
    }
    let _ = writeln!(
        out,
        "  {:<34} {:>6} {:>12} {:>8}  rounds",
        "metric", "unit", "median", "spread"
    );
    let shown = report.end_to_end.iter().chain(&report.informational);
    for series in shown.chain(&report.per_layer) {
        let rounds: Vec<String> = series.rounds.iter().map(|r| show(*r)).collect();
        let spread = series
            .spread()
            .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        let _ = writeln!(
            out,
            "  {:<34} {:>6} {:>12} {:>8}  {}",
            series.def.name,
            series.def.unit,
            show(series.median()),
            spread,
            rounds.join(" ")
        );
    }
    out
}

/// The results file: everything `render` shows, machine-readable.
pub fn results_json(header: &[(&str, String)], reports: &[WorkloadReport]) -> String {
    let series_json = |series: &[Series]| -> String {
        let entries: Vec<String> = series
            .iter()
            .map(|s| {
                let rounds: Vec<String> = s.rounds.iter().map(|r| json_number(*r)).collect();
                format!(
                    "        \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"rounds\": [{}]}}",
                    s.def.name,
                    s.def.unit,
                    json_number(s.median()),
                    rounds.join(", ")
                )
            })
            .collect();
        format!("{{\n{}\n      }}", entries.join(",\n"))
    };
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\n      \"correct\": {},\n      \"ops_attempted\": {},\n      \"ops_failed\": {},\n      \"end_to_end\": {},\n      \"informational\": {},\n      \"per_layer\": {}\n    }}",
                r.workload.name(),
                r.correct(),
                r.attempted,
                r.failed,
                series_json(&r.end_to_end),
                series_json(&r.informational),
                series_json(&r.per_layer)
            )
        })
        .collect();
    let header: Vec<String> = header
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value},\n"))
        .collect();
    format!(
        "{{\n{}  \"workloads\": {{\n{}\n  }}\n}}\n",
        header.concat(),
        workloads.join(",\n")
    )
}

/// Any JSON document, kept as the parser's own tree.
pub struct Json(pub Content);

impl Deserialize for Json {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(Json(content.clone()))
    }
}

pub fn field<'a>(content: &'a Content, name: &str) -> Option<&'a Content> {
    content
        .as_map()?
        .iter()
        .find_map(|(key, value)| (key == name).then_some(value))
}

pub fn number(content: &Content) -> Option<f64> {
    match content {
        Content::F64(v) => Some(*v),
        Content::I64(v) => Some(*v as f64),
        Content::U64(v) => Some(*v as f64),
        _ => None,
    }
}

/// The end-to-end series of one workload in a results file.
fn end_to_end_of(results: &Content, workload: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let series = field(
        field(field(field(results, "workloads")?, workload)?, "end_to_end")?,
        metric,
    )?;
    let rounds = field(series, "rounds")?.as_seq()?;
    Some((
        number(field(series, "median")?)?,
        rounds.iter().filter_map(number).collect(),
    ))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    /// The median of one side is known less precisely than the bound: no
    /// verdict.
    Unresolved,
}

/// How far the median of such rounds spreads from run to run, estimated from
/// one run: the rounds' quartile spread × √(π/2) ÷ √n, the large-sample
/// spread of a median of n values relative to that of one value.
fn median_spread(rounds: &[f64]) -> Option<f64> {
    let factor = (std::f64::consts::FRAC_PI_2 / rounds.len() as f64).sqrt();
    quartile_spread(rounds).map(|spread| spread * factor)
}

/// Applies a metric's bound to a baseline and a candidate.
pub fn judge(
    def: &MetricDef,
    bound: f64,
    baseline: (f64, &[f64]),
    candidate: (f64, &[f64]),
) -> (Verdict, f64) {
    let worsening = match def.better {
        Better::Lower => candidate.0 - baseline.0,
        Better::Higher => baseline.0 - candidate.0,
    };
    let share = worsening / baseline.0.abs();
    // A set-up of a few milliseconds moves by more than its bound on any
    // machine: it regresses only when it also worsens by the floor, and its
    // spread is not held against it.
    let is_setup = def.name == "setup_s";
    let spread = [baseline.1, candidate.1]
        .into_iter()
        .filter_map(median_spread)
        .fold(0.0, f64::max);
    let verdict = if !is_setup && spread > bound {
        Verdict::Unresolved
    } else if share > bound && (!is_setup || worsening > SETUP_FLOOR_S) {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (verdict, share)
}

/// `compare A B`: every (workload, end-to-end metric) of results file `b`
/// against baseline `a`, by the benchmark's own bounds. Returns the table
/// and whether anything is worse.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let parse = |text: &str| {
        serde_json::from_str::<Json>(text)
            .map(|json| json.0)
            .map_err(|e| format!("not a results file: {e}"))
    };
    let (a, b) = (parse(a)?, parse(b)?);
    let mut out = format!(
        "{:<16} {:<13} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "baseline", "candidate", "worse by", "bound"
    );
    let mut any_worse = false;
    let mut compared = 0;
    for workload in Workload::ALL {
        for (def, bound) in &END_TO_END {
            let (Some(base), Some(cand)) = (
                end_to_end_of(&a, workload.name(), def.name),
                end_to_end_of(&b, workload.name(), def.name),
            ) else {
                continue;
            };
            compared += 1;
            let (verdict, share) = judge(def, *bound, (base.0, &base.1), (cand.0, &cand.1));
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<16} {:<13} {:>12} {:>12} {:>+7.1}% {:>5.0}%  {}",
                workload.name(),
                def.name,
                show(Some(base.0)),
                show(Some(cand.0)),
                share * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (median less certain than bound)",
                }
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no (workload, end-to-end metric) pair".to_string());
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(rounds: &[f64]) -> WorkloadReport {
        let mut report = WorkloadReport::new(Workload::UpdateDisjoint);
        for value in rounds {
            let values: Values = END_TO_END
                .iter()
                .map(|(def, _)| def)
                .chain(&INFORMATIONAL)
                .map(|def| (def.name, Some(*value)))
                .collect();
            report.push_end_to_end(&values);
        }
        report.attempted = 10;
        report
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let line = report_with(&[3.0, 1.0, 2.0]).result_line();
        let parsed = serde_json::from_str::<Json>(&line).unwrap().0;
        let keys: Vec<&str> = parsed
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = field(field(&parsed, "metrics").unwrap(), "p50_us").unwrap();
        assert_eq!(number(field(p50, "value").unwrap()), Some(2.0));
        assert_eq!(field(p50, "unit").unwrap().as_str(), Some("us"));
    }

    #[test]
    fn a_metric_that_does_not_apply_has_no_median() {
        let series = Series {
            def: PER_LAYER[0],
            rounds: vec![Some(1.0), None],
        };
        assert_eq!(series.median(), None);
        assert_eq!(show(series.median()), "n/a");
    }

    #[test]
    fn compare_judges_by_direction_bound_and_spread() {
        let file = |rounds: &[f64]| results_json(&[], &[report_with(rounds)]);
        let steady = file(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let (table, worse) = compare(&steady, &steady).unwrap();
        assert!(!worse && table.contains("within"), "{table}");

        // 22 % up: worse for the median latency (lower is better, bound
        // 20 %), fine for throughput (higher is better), within p95's 25 %.
        let up = file(&[122.0, 123.0, 121.0, 122.0, 122.5]);
        let (table, worse) = compare(&steady, &up).unwrap();
        assert!(worse);
        let verdict_of = |metric: &str| {
            let line = table.lines().find(|l| l.contains(metric)).unwrap();
            line.rsplit("  ").next().unwrap().to_string()
        };
        assert_eq!(verdict_of("commit_per_s"), "within");
        assert_eq!(verdict_of("p50_us"), "WORSE");
        assert_eq!(verdict_of("p95_us"), "within");
        // 22 s of set-up on top of 100 s is under the 25 % bound.
        assert_eq!(verdict_of("setup_s"), "within");

        let noisy = file(&[60.0, 140.0, 100.0, 180.0, 20.0, 100.0]);
        let (table, worse) = compare(&steady, &noisy).unwrap();
        assert!(!worse && table.contains("unresolved"), "{table}");

        assert!(compare("{}", &steady).is_err());
        assert!(compare("not json", &steady).is_err());
    }

    #[test]
    fn setup_regresses_only_beyond_the_floor() {
        let (setup, bound) = END_TO_END[3];
        assert_eq!(setup.name, "setup_s");
        let rounds = [0.004, 0.004];
        let doubled = judge(&setup, bound, (0.004, &rounds), (0.008, &rounds));
        assert_eq!(doubled.0, Verdict::Within);
        let slow = judge(&setup, bound, (0.004, &rounds), (0.080, &rounds));
        assert_eq!(slow.0, Verdict::Worse);
    }
}
