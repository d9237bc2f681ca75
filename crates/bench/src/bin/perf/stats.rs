//! Small numeric and output helpers: percentiles, quartiles, peak memory,
//! and a JSON writer (the build is offline, so no serializer crate).

use std::fmt::Write as _;

/// The `p`-th percentile (0–100) of `sorted`, nearest-rank. Empty input
/// reads 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the driver
/// judges the spread of this benchmark's runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        // As Python does it: the remainder is taken before the index is
        // clamped into the data.
        let pos = q * (n + 1);
        let delta = (pos % 4) as f64 / 4.0;
        let j = (pos / 4).clamp(1, n - 1);
        v[j - 1] * (1.0 - delta) + v[j] * delta
    };
    (at(1), at(3))
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON value, written out only (nothing here reads JSON back).
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (nl, pad, pad_in) = match indent {
            Some(d) => ("\n", "  ".repeat(d), "  ".repeat(d + 1)),
            None => ("", String::new(), String::new()),
        };
        let deeper = indent.map(|d| d + 1);
        match self {
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(i) => write!(out, "{i}").unwrap(),
            // Non-finite numbers have no JSON spelling; they only arise from
            // a broken measurement, which must not pass for a value.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => write!(out, "{x}").unwrap(),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, deeper);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    Json::Str(k.clone()).write(out, None);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, deeper);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// One line, no spaces: the result line the driver reads.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Indented, for files people read.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-9 && (q3 - 8.25).abs() < 1e-9);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((q1 - 1.5).abs() < 1e-9 && (q3 - 4.5).abs() < 1e-9);
    }

    #[test]
    fn json_escapes_and_nests() {
        let j = Json::obj([
            ("a", Json::Arr(vec![Json::Int(1), Json::Num(0.5)])),
            ("s", Json::str("q\"\\\n")),
            ("ok", Json::Bool(true)),
        ]);
        assert_eq!(j.line(), r#"{"a":[1,0.5],"s":"q\"\\\n","ok":true}"#);
        assert!(j.pretty().contains("\n  \"a\": ["));
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
