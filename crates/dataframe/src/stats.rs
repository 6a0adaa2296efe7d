//! Statistical kernels used by the analysis workloads: correlation,
//! z-score anomaly detection, and ratio helpers.

use crate::error::FrameError;
use crate::frame::DataFrame;
use crate::Result;

/// Pearson correlation of two equal-length numeric slices.
/// Returns `None` when fewer than 2 pairs or zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= f64::EPSILON || syy <= f64::EPSILON {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Indices of points whose |z-score| exceeds `threshold` (anomalies) in a
/// series; `None`-valued cells are skipped.
pub fn zscore_anomalies(values: &[f64], threshold: f64) -> Vec<usize> {
    if values.len() < 3 {
        return Vec::new();
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let std = var.sqrt();
    if std <= f64::EPSILON {
        return Vec::new();
    }
    values
        .iter()
        .enumerate()
        .filter_map(|(i, v)| (((v - mean) / std).abs() > threshold).then_some(i))
        .collect()
}

impl DataFrame {
    /// Pearson correlation between two numeric columns over rows where both
    /// are non-null.
    pub fn correlation(&self, a: &str, b: &str) -> Result<f64> {
        let ca = self.column(a)?;
        let cb = self.column(b)?;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (x, y) in ca.f64_iter().zip(cb.f64_iter()) {
            if let (Some(x), Some(y)) = (x, y) {
                xs.push(x);
                ys.push(y);
            }
        }
        pearson(&xs, &ys).ok_or_else(|| {
            FrameError::Invalid(format!(
                "correlation({a}, {b}) undefined: need ≥2 pairs with variance"
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn pearson_perfect() {
        let xs = [1.0, 2.0, 3.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[3.0, 2.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_none()); // zero variance
        assert!(pearson(&[1.0, 2.0], &[2.0]).is_none()); // length mismatch
    }

    #[test]
    fn anomalies_found() {
        let mut series = vec![10.0; 20];
        series[7] = 100.0;
        let idx = zscore_anomalies(&series, 3.0);
        assert_eq!(idx, vec![7]);
        assert!(zscore_anomalies(&[5.0, 5.0, 5.0], 2.0).is_empty());
        assert!(zscore_anomalies(&[1.0, 2.0], 1.0).is_empty());
    }

    #[test]
    fn frame_correlation_skips_nulls() {
        use crate::column::ColumnData;
        let df = DataFrame::new(vec![
            Column::new("a", ColumnData::Float(vec![Some(1.0), None, Some(2.0), Some(3.0)])),
            Column::new("b", ColumnData::Float(vec![Some(2.0), Some(9.0), Some(4.0), Some(6.0)])),
        ])
        .unwrap();
        assert!((df.correlation("a", "b").unwrap() - 1.0).abs() < 1e-12);
        assert!(df.correlation("a", "nope").is_err());
    }
}
