//! Property-based tests for the quantity algebra.

use cc_units::prelude::*;
use proptest::prelude::*;

/// Finite, moderately sized floats so that products stay finite.
fn val() -> impl Strategy<Value = f64> {
    -1e12..1e12f64
}

fn pos() -> impl Strategy<Value = f64> {
    1e-6..1e9f64
}

proptest! {
    #[test]
    fn energy_add_commutes(a in val(), b in val()) {
        let (x, y) = (Energy::from_joules(a), Energy::from_joules(b));
        prop_assert_eq!(x + y, y + x);
    }

    #[test]
    fn energy_add_zero_is_identity(a in val()) {
        let x = Energy::from_joules(a);
        prop_assert_eq!(x + Energy::ZERO, x);
        prop_assert_eq!(x - Energy::ZERO, x);
    }

    #[test]
    fn energy_sub_is_add_neg(a in val(), b in val()) {
        let (x, y) = (Energy::from_joules(a), Energy::from_joules(b));
        prop_assert_eq!(x - y, x + (-y));
    }

    #[test]
    fn kwh_round_trips(a in val()) {
        let e = Energy::from_kwh(a);
        prop_assert!((e.as_kwh() - a).abs() <= a.abs() * 1e-12 + 1e-12);
    }

    #[test]
    fn carbon_mass_unit_ladder(a in pos()) {
        let m = CarbonMass::from_mt(a);
        prop_assert!((m.as_kt() - a * 1e3).abs() <= m.as_kt().abs() * 1e-12);
        prop_assert!((m.as_tonnes() - a * 1e6).abs() <= m.as_tonnes().abs() * 1e-12);
    }

    #[test]
    fn power_time_energy_inverse(p in pos(), t in pos()) {
        let power = Power::from_watts(p);
        let time = TimeSpan::from_seconds(t);
        let energy = power * time;
        let back_p = energy / time;
        let back_t = energy / power;
        prop_assert!((back_p.as_watts() - p).abs() <= p * 1e-9);
        prop_assert!((back_t.as_seconds() - t).abs() <= t * 1e-9);
    }

    #[test]
    fn scope2_conversion_inverse(kwh in pos(), g in pos()) {
        let e = Energy::from_kwh(kwh);
        let i = CarbonIntensity::from_g_per_kwh(g);
        let carbon = e * i;
        let back_e = carbon / i;
        let back_i = carbon / e;
        prop_assert!((back_e.as_kwh() - kwh).abs() <= kwh * 1e-9);
        prop_assert!((back_i.as_g_per_kwh() - g).abs() <= g * 1e-9);
    }

    #[test]
    fn like_division_is_scalar_ratio(a in pos(), k in pos()) {
        let x = CarbonMass::from_grams(a);
        let y = x * k;
        prop_assert!((y / x - k).abs() <= k * 1e-9);
    }

    #[test]
    fn min_max_bracket(a in val(), b in val()) {
        let (x, y) = (TimeSpan::from_seconds(a), TimeSpan::from_seconds(b));
        prop_assert!(x.min(y) <= x.max(y));
        let lo = x.min(y);
        prop_assert!(lo == x || lo == y);
    }


    #[test]
    fn blend_is_bounded(lo in 1.0..100.0f64, hi in 100.0..1000.0f64, s in 0.0..1.0f64) {
        let a = CarbonIntensity::from_g_per_kwh(lo);
        let b = CarbonIntensity::from_g_per_kwh(hi);
        let mix = a.blend(b, s);
        prop_assert!(mix >= a && mix <= b);
    }

    #[test]
    fn sum_matches_fold(values in proptest::collection::vec(-1e9..1e9f64, 0..50)) {
        let total: Energy = values.iter().map(|&v| Energy::from_joules(v)).sum();
        let folded = values.iter().fold(Energy::ZERO, |acc, &v| acc + Energy::from_joules(v));
        prop_assert_eq!(total, folded);
    }

    #[test]
    fn validated_accepts_all_finite(a in val()) {
        prop_assert!(Energy::from_joules(a).validated().is_ok());
    }
}
