//! Year-indexed time series.
//!
//! Every longitudinal chart in the paper (Figs 1, 2, 7, 11) is a series of
//! (year, value) samples. [`YearSeries`] keeps them sorted by year.

/// A time series sampled at (not necessarily contiguous) integer years.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct YearSeries {
    samples: Vec<(u16, f64)>,
}

impl YearSeries {
    /// Creates a series from (year, value) pairs; the pairs are sorted by
    /// year and duplicate years keep the last value.
    #[must_use]
    pub fn from_pairs<I: IntoIterator<Item = (u16, f64)>>(pairs: I) -> Self {
        let mut samples: Vec<(u16, f64)> = pairs.into_iter().collect();
        samples.sort_by_key(|&(y, _)| y);
        samples.dedup_by_key(|&mut (y, _)| y);
        Self { samples }
    }

    /// The sampled values, in year order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|&(_, v)| v)
    }

    /// Iterates over (year, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, f64)> + '_ {
        self.samples.iter().copied()
    }
}

impl FromIterator<(u16, f64)> for YearSeries {
    fn from_iter<I: IntoIterator<Item = (u16, f64)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let s = YearSeries::from_pairs([(2019, 5.0), (2013, 1.0), (2013, 1.5), (2015, 3.0)]);
        let years: Vec<_> = s.iter().map(|(y, _)| y).collect();
        assert_eq!(years, vec![2013, 2015, 2019]);
    }

    #[test]
    fn collects_sorted_pairs() {
        let s: YearSeries = [(2011, 2.0), (2010, 1.0)].into_iter().collect();
        assert_eq!(s.values().collect::<Vec<_>>(), [1.0, 2.0]);
    }
}
