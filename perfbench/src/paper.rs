//! The paper's values each workload is compared with (`paper_rows.json`).

use serde_json::Value;
use std::collections::BTreeMap;

/// One paper value.
#[derive(Clone, Debug)]
pub struct Row {
    pub key: String,
    pub workload: String,
    pub figure: String,
    /// The configuration cell of the EXPERIMENTS.md row.
    pub config: String,
    /// `lo` or `hi` of a "lo / hi" pair; `None` for a single value.
    pub part: Option<String>,
    pub paper: f64,
}

const ROWS: &str = include_str!("../paper_rows.json");

/// Every paper row.
pub fn rows() -> Vec<Row> {
    let doc = serde_json::from_str(ROWS).expect("paper_rows.json is valid JSON");
    let text = |r: &Value, k: &str| r.get(k).and_then(Value::as_str).map(str::to_string);
    doc.get("rows")
        .and_then(Value::as_array)
        .expect("paper_rows.json has a rows list")
        .iter()
        .map(|r| Row {
            key: text(r, "key").expect("row key"),
            workload: text(r, "workload").expect("row workload"),
            figure: text(r, "figure").expect("row figure"),
            config: text(r, "config").expect("row config"),
            part: text(r, "part"),
            paper: r
                .get("paper")
                .and_then(Value::as_f64)
                .expect("row paper value"),
        })
        .collect()
}

/// Mean of |simulated - paper| / paper over the workload's rows, in
/// percent; `None` while a row has no simulated value.
pub fn err_pct(workload: &str, measured: &BTreeMap<&'static str, f64>) -> Option<f64> {
    let rows: Vec<Row> = rows()
        .into_iter()
        .filter(|r| r.workload == workload)
        .collect();
    let mut sum = 0.0;
    for r in &rows {
        let sim = measured.get(r.key.as_str())?;
        sum += (sim - r.paper).abs() / r.paper;
    }
    Some(100.0 * sum / rows.len() as f64)
}
