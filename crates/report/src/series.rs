//! Typed series artifacts.
//!
//! Tables render for humans; a [`Series`] is the machine-readable shape of a
//! figure: named axes, explicit units, numeric points with optional category
//! labels. Experiments attach series next to their tables so downstream
//! tooling (plotters, regression checks, the `--json` artifact writer) never
//! has to re-parse formatted strings.

use crate::json::JsonValue;

/// One sample of a series: a numeric x (year, sweep factor, index …), an
/// optional category label (device name, compute unit …) and the y value.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Numeric x coordinate.
    pub x: f64,
    /// Optional category label for the point.
    pub label: Option<String>,
    /// The measured/modeled value.
    pub y: f64,
}

/// A typed (x, y) series with named, unit-bearing axes.
///
/// ```
/// use cc_report::Series;
///
/// let mut s = Series::new("breakeven", "frequency scale", "days");
/// s.push(0.4, 812.0).push(1.0, 350.0);
/// assert_eq!(s.points.len(), 2);
/// assert_eq!(s.points[1].y, 350.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series name (unique within one experiment output).
    pub name: String,
    /// X-axis label, units included (e.g. `"year"`, `"renewable factor"`).
    pub x_label: String,
    /// Y-axis label, units included (e.g. `"kg CO2e"`, `"days"`).
    pub y_label: String,
    /// The points, in insertion order.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            points: Vec::new(),
        }
    }

    /// Appends an unlabeled point.
    pub fn push(&mut self, x: f64, y: f64) -> &mut Self {
        self.points.push(SeriesPoint { x, label: None, y });
        self
    }

    /// Appends a labeled point.
    pub fn push_labeled(&mut self, x: f64, label: impl Into<String>, y: f64) -> &mut Self {
        self.points.push(SeriesPoint {
            x,
            label: Some(label.into()),
            y,
        });
        self
    }

    /// Builds a series from `(x, y)` pairs.
    #[must_use]
    pub fn from_pairs<I: IntoIterator<Item = (f64, f64)>>(
        name: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        pairs: I,
    ) -> Self {
        let mut s = Self::new(name, x_label, y_label);
        for (x, y) in pairs {
            s.push(x, y);
        }
        s
    }

    /// The series as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", JsonValue::from(self.name.as_str())),
            ("x_label", JsonValue::from(self.x_label.as_str())),
            ("y_label", JsonValue::from(self.y_label.as_str())),
            (
                "points",
                JsonValue::array(self.points.iter().map(|p| {
                    JsonValue::object([
                        ("x", JsonValue::from(p.x)),
                        (
                            "label",
                            p.label.as_deref().map_or(JsonValue::Null, JsonValue::from),
                        ),
                        ("y", JsonValue::from(p.y)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let mut s = Series::new("s", "x", "y");
        s.push(1.0, 10.0).push_labeled(2.0, "dsp", 20.0);
        assert_eq!(s.points.len(), 2);
        assert_eq!((s.points[0].x, s.points[0].y), (1.0, 10.0));
        assert_eq!(s.points[0].label, None);
        assert_eq!(s.points[1].label.as_deref(), Some("dsp"));
        assert_eq!(s.points[1].y, 20.0);
    }

    #[test]
    fn from_pairs_preserves_order() {
        let s = Series::from_pairs("s", "year", "twh", [(2010.0, 1.0), (2020.0, 2.0)]);
        assert_eq!(s.points[0].x, 2010.0);
        assert_eq!(s.points[1].y, 2.0);
    }

    #[test]
    fn json_shape() {
        let mut s = Series::new("be", "scale", "days");
        s.push_labeled(1.0, "cpu", 350.0);
        let json = s.to_json().render();
        assert!(json.contains(r#""name":"be""#));
        assert!(json.contains(r#""label":"cpu""#));
        assert!(json.contains(r#""y":350.0"#));
    }
}
