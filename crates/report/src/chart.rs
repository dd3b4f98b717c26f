//! Text bar charts for quick terminal visualization of figure series.

/// Renders a horizontal bar chart: one `(label, value)` bar per line, scaled
/// to `width` characters at the maximum value.
///
/// Negative values render as empty bars. Returns an empty string for empty
/// input.
///
/// ```
/// let chart = cc_report::chart::bars(&[("Coal", 820.0), ("Wind", 11.0)], 40);
/// assert!(chart.lines().count() == 2);
/// ```
#[must_use]
pub fn bars(data: &[(&str, f64)], width: usize) -> String {
    let max = data.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    if data.is_empty() || max <= 0.0 || width == 0 {
        return data
            .iter()
            .map(|&(label, v)| format!("{label:>20} | {v:.3}\n"))
            .collect();
    }
    let label_w = data.iter().map(|&(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for &(label, value) in data {
        let n = if value > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:>label_w$} | {} {value:.3}\n",
            "#".repeat(n)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let chart = bars(&[("a", 100.0), ("b", 50.0)], 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].matches('#').count() == 10);
        assert!(lines[1].matches('#').count() == 5);
    }

    #[test]
    fn bars_handle_degenerate_input() {
        assert_eq!(bars(&[], 10), "");
        let zero = bars(&[("a", 0.0)], 10);
        assert!(zero.contains('a'));
        let neg = bars(&[("a", -5.0), ("b", 10.0)], 10);
        assert!(neg.lines().next().unwrap().matches('#').count() == 0);
    }
}
