//! # cc-units
//!
//! Strongly-typed physical quantities for carbon-footprint modeling.
//!
//! The crate provides a small algebra of newtypes ([`Energy`], [`Power`],
//! [`TimeSpan`], [`CarbonMass`], [`CarbonIntensity`], [`Ratio`]) so that the
//! rest of the `chasing-carbon` workspace can never confuse, say, kilowatt-hours
//! with kilograms of CO₂e — the exact category error the paper warns about
//! ("reducing energy consumption alone fails to reduce carbon emissions").
//!
//! Quantities store a canonical unit internally (joules, watts, seconds, grams
//! CO₂e, grams CO₂e per kilowatt-hour) and expose named constructors and
//! accessors for the domain units that appear in the paper (kWh, TWh, kg,
//! metric tons, million metric tons, days, years).
//!
//! Cross-type arithmetic captures the physics:
//!
//! ```
//! use cc_units::{Power, TimeSpan, CarbonIntensity, Energy};
//!
//! // A 310 W workstation running for one year on the average US grid:
//! let energy: Energy = Power::from_watts(310.0) * TimeSpan::from_years(1.0);
//! let grid = CarbonIntensity::from_g_per_kwh(380.0); // US average, Table III
//! let carbon = energy * grid;
//! assert!((carbon.as_kg() - 1_031.9).abs() < 1.0);
//! ```
//!
//! # Design notes
//!
//! * Every type is `Copy` and implements the common traits
//!   (`Debug`/`Clone`/`PartialEq`/`PartialOrd`/`Default`/`Display`).
//! * Values are plain `f64` and may be negative (end-of-life recycling credits
//!   are negative carbon). Constructors accept any `f64`; see [`Validate`] for
//!   checked construction at data boundaries.
//! * `Div` between two values of the same type yields a dimensionless `f64`,
//!   which is how the paper expresses all of its headline ratios
//!   ("Scope 3 is 23× Scope 2").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Implements the full arithmetic/trait surface shared by every scalar
/// quantity newtype in this crate.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $canonical:ident, $quantity_str:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
        pub struct $name {
            $canonical: f64,
        }

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self { $canonical: 0.0 };

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self { $canonical: self.$canonical.abs() }
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self { $canonical: self.$canonical.min(other.$canonical) }
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self { $canonical: self.$canonical.max(other.$canonical) }
            }

            /// Returns `true` when the quantity is exactly zero.
            #[must_use]
            pub fn is_zero(self) -> bool {
                self.$canonical == 0.0
            }

            /// Linear interpolation between `self` (at `t = 0`) and `other`
            /// (at `t = 1`). `t` is not clamped, so this extrapolates too.
            #[must_use]
            pub fn lerp(self, other: Self, t: f64) -> Self {
                Self { $canonical: self.$canonical + (other.$canonical - self.$canonical) * t }
            }
        }

        impl crate::Validate for $name {
            fn validated(self) -> Result<Self, crate::NonFiniteError> {
                if self.$canonical.is_finite() {
                    Ok(self)
                } else {
                    Err(crate::NonFiniteError { quantity: $quantity_str })
                }
            }
        }

        impl core::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self { $canonical: self.$canonical + rhs.$canonical }
            }
        }

        impl core::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.$canonical += rhs.$canonical;
            }
        }

        impl core::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self { $canonical: self.$canonical - rhs.$canonical }
            }
        }

        impl core::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.$canonical -= rhs.$canonical;
            }
        }

        impl core::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self { $canonical: -self.$canonical }
            }
        }

        impl core::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self { $canonical: self.$canonical * rhs }
            }
        }

        impl core::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                rhs * self
            }
        }

        impl core::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self { $canonical: self.$canonical / rhs }
            }
        }

        /// Dividing two like quantities yields a dimensionless ratio.
        impl core::ops::Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.$canonical / rhs.$canonical
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc + x)
            }
        }

        impl<'a> core::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc + *x)
            }
        }
    };
}

mod energy;
mod intensity;
mod mass;
mod power;
mod ratio;
mod time;
mod trace;

pub use energy::Energy;
pub use intensity::CarbonIntensity;
pub use mass::CarbonMass;
pub use power::Power;
pub use ratio::Ratio;
pub use time::TimeSpan;
pub use trace::IntensityTrace;

/// Checked construction for quantity types.
///
/// All quantity constructors in this crate are infallible for ergonomics, but
/// model code that ingests external data can use [`Validate::validated`] to
/// reject non-finite values at the boundary.
///
/// ```
/// use cc_units::{Energy, Validate};
///
/// assert!(Energy::from_kwh(1.0).validated().is_ok());
/// assert!(Energy::from_kwh(f64::NAN).validated().is_err());
/// ```
pub trait Validate: Sized {
    /// Returns `Ok(self)` when the underlying value is finite.
    ///
    /// # Errors
    ///
    /// Returns [`NonFiniteError`] when the value is `NaN` or infinite.
    fn validated(self) -> Result<Self, NonFiniteError>;
}

/// Error returned by [`Validate::validated`] for `NaN` or infinite quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonFiniteError {
    /// Human-readable name of the offending quantity type.
    pub quantity: &'static str,
}

impl core::fmt::Display for NonFiniteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "non-finite value for quantity `{}`", self.quantity)
    }
}

impl std::error::Error for NonFiniteError {}

/// Commonly used items, for glob import.
///
/// ```
/// use cc_units::prelude::*;
/// let e = Energy::from_kwh(1.0);
/// assert!(e > Energy::ZERO);
/// ```
pub mod prelude {
    pub use crate::{
        CarbonIntensity, CarbonMass, Energy, IntensityTrace, Power, Ratio, TimeSpan, Validate,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Energy>();
        assert_send_sync::<Power>();
        assert_send_sync::<TimeSpan>();
        assert_send_sync::<CarbonMass>();
        assert_send_sync::<CarbonIntensity>();
        assert_send_sync::<Ratio>();
        assert_send_sync::<IntensityTrace>();
        assert_send_sync::<NonFiniteError>();
    }

    #[test]
    fn non_finite_error_display() {
        let err = Energy::from_joules(f64::INFINITY).validated().unwrap_err();
        assert_eq!(err.to_string(), "non-finite value for quantity `Energy`");
    }

    #[test]
    fn validated_passes_finite_negative() {
        assert!(CarbonMass::from_kg(-3.0).validated().is_ok());
    }
}
