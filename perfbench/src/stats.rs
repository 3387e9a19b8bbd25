//! Order statistics over measured samples.

/// Sorts a copy of `values` ascending.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` with linear interpolation between order
/// statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || v[lo] == v[hi] {
        return v[lo];
    }
    // Infinite samples (missed requests) keep the quantile infinite rather
    // than turning the interpolation into NaN.
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The largest value; `0` for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The arithmetic mean; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Prints a run's raw samples as one `# samples` comment line, so spreads can
/// be recomputed offline with other estimators.
pub fn print_samples(name: &str, values: &[f64]) {
    let body: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    println!("# samples {name}: {}", body.join(" "));
}
