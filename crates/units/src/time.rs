//! The [`TimeSpan`] quantity.

/// Seconds in a (mean Julian) year. Device lifetimes in the paper are quoted
/// in years ("three to four years"), so the year must be a first-class unit.
pub(crate) const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3_600.0;

quantity! {
    /// A duration, stored canonically in seconds.
    ///
    /// ```
    /// use cc_units::TimeSpan;
    ///
    /// let lifetime = TimeSpan::from_years(3.0); // typical smartphone lifetime
    /// assert!((lifetime.as_days() - 1_095.75).abs() < 1e-9);
    /// ```
    TimeSpan, seconds, "TimeSpan"
}

impl TimeSpan {
    /// Creates a span from seconds.
    #[must_use]
    pub fn from_seconds(seconds: f64) -> Self {
        Self { seconds }
    }

    /// Creates a span from hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        Self {
            seconds: hours * 3_600.0,
        }
    }

    /// Creates a span from months (1/12 of a year; energy-payback times in
    /// Table II are quoted in months).
    #[must_use]
    pub fn from_months(months: f64) -> Self {
        Self {
            seconds: months * SECONDS_PER_YEAR / 12.0,
        }
    }

    /// Creates a span from years.
    #[must_use]
    pub fn from_years(years: f64) -> Self {
        Self {
            seconds: years * SECONDS_PER_YEAR,
        }
    }

    /// The span in seconds.
    #[must_use]
    pub fn as_seconds(self) -> f64 {
        self.seconds
    }

    /// The span in milliseconds.
    #[must_use]
    pub fn as_millis(self) -> f64 {
        self.seconds * 1e3
    }

    /// The span in hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.seconds / 3_600.0
    }

    /// The span in days.
    #[must_use]
    pub fn as_days(self) -> f64 {
        self.seconds / 86_400.0
    }

    /// The span in months.
    #[must_use]
    pub fn as_months(self) -> f64 {
        self.seconds * 12.0 / SECONDS_PER_YEAR
    }

    /// The span in years.
    #[must_use]
    pub fn as_years(self) -> f64 {
        self.seconds / SECONDS_PER_YEAR
    }
}

impl core::fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.seconds.abs();
        if s >= SECONDS_PER_YEAR {
            write!(f, "{:.2} yr", self.as_years())
        } else if s >= 86_400.0 {
            write!(f, "{:.1} d", self.as_days())
        } else if s >= 3_600.0 {
            write!(f, "{:.2} h", self.as_hours())
        } else if s >= 1.0 {
            write!(f, "{:.3} s", self.seconds)
        } else {
            write!(f, "{:.3} ms", self.as_millis())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert!((TimeSpan::from_hours(1_100.0 * 24.0).as_years() - 3.011_6).abs() < 1e-3);
        assert_eq!(TimeSpan::from_months(12.0), TimeSpan::from_years(1.0));
    }

    #[test]
    fn display_scales() {
        assert_eq!(TimeSpan::from_years(3.0).to_string(), "3.00 yr");
        assert_eq!(TimeSpan::from_hours(350.0 * 24.0).to_string(), "350.0 d");
        assert_eq!(TimeSpan::from_hours(5.0).to_string(), "5.00 h");
        assert_eq!(TimeSpan::from_seconds(2.0).to_string(), "2.000 s");
        assert_eq!(TimeSpan::from_seconds(0.006).to_string(), "6.000 ms");
    }

    #[test]
    fn ordering() {
        assert!(TimeSpan::from_hours(1_200.0 * 24.0) > TimeSpan::from_years(3.0));
        assert!(TimeSpan::from_hours(1_000.0 * 24.0) < TimeSpan::from_years(3.0));
    }
}
