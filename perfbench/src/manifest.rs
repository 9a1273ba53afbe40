//! The compiled-in `manifest.json`: op lists, known defects and plan sizes.

use std::collections::BTreeMap;

use mfu_core::artifact::BoundMethod;
use mfu_core::json::{self, Json};

const MANIFEST: &str = include_str!("../manifest.json");

/// One workload's entry of the manifest.
pub struct Entry {
    json: Json,
}

impl Entry {
    /// The named workload, or an error naming the known ones.
    pub fn load(workload: &str) -> Result<Entry, String> {
        let doc = json::parse(MANIFEST).map_err(|e| format!("manifest.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_object)
            .ok_or("manifest.json has no `workloads` object")?;
        match workloads.get(workload) {
            Some(json) => Ok(Entry { json: json.clone() }),
            None => Err(format!(
                "unknown workload `{workload}` (known: {})",
                workloads.keys().cloned().collect::<Vec<_>>().join(", ")
            )),
        }
    }

    pub fn number(&self, key: &str) -> Result<f64, String> {
        self.json
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("manifest entry has no number `{key}`"))
    }

    pub fn count(&self, key: &str) -> Result<usize, String> {
        let value = self.number(key)?;
        if value >= 1.0 && value.fract() == 0.0 {
            Ok(value as usize)
        } else {
            Err(format!("manifest `{key}` must be a whole number >= 1"))
        }
    }

    pub fn names(&self, key: &str) -> Result<Vec<String>, String> {
        self.json
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("manifest entry has no list `{key}`"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("manifest `{key}` holds a non-string"))
            })
            .collect()
    }

    /// Ops whose answer is known to fail its check today, with why.
    pub fn known_defects(&self) -> BTreeMap<String, String> {
        self.json
            .get("known_defects")
            .and_then(Json::as_object)
            .map(|defects| {
                defects
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `(scenario, method)` pairs: the cold op list or the hot warm set.
    pub fn cells(&self, key: &str) -> Result<Vec<(String, BoundMethod)>, String> {
        let bad = || format!("manifest `{key}` must hold [scenario, method] pairs");
        self.json
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(bad)?
            .iter()
            .map(|pair| {
                let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(bad)?;
                let name = pair[0].as_str().ok_or_else(bad)?;
                let method = pair[1]
                    .as_str()
                    .and_then(BoundMethod::from_name)
                    .ok_or_else(bad)?;
                Ok((name.to_string(), method))
            })
            .collect()
    }

    /// Timed passes for a run of `seconds`: a pure function of the
    /// argument, never of the machine's speed.
    pub fn passes(&self, seconds: u64) -> Result<usize, String> {
        let nominal = self.number("nominal_pass_s")?;
        Ok(((seconds as f64 / nominal).ceil() as usize).max(1))
    }
}
