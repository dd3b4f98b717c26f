//! Product life-cycle assessments for consumer devices.
//!
//! Fifty-five devices from Apple, Google, Huawei and Microsoft, digitized from the
//! product environmental reports the paper aggregates ("more than 30 products
//! from Apple, Google, Huawei, and Microsoft", §III).
//!
//! ## Reconstruction anchors
//!
//! The paper states these values explicitly; the records below reproduce them:
//!
//! * iPhone 3GS capex share 49% (opex 51%) and iPhone 11 capex share 86%
//!   (opex 14%) — Fig 2 pies and Contribution 1.
//! * Manufacturing shares across generations: iPhone 3GS 40% → iPhone XR 75%;
//!   Apple Watch Series 1 60% → Series 5 75%; iPad Gen 2 60% → Gen 7 75%
//!   (Fig 7, Takeaway 4).
//! * Manufacturing footprints on the Fig 8 Pareto plot: iPhone 11 Pro 66 kg,
//!   iPhone X 63 kg, iPhone 11 ≈ 60 kg, Pixel 3a 45 kg.
//! * "the total and manufacturing footprint for an Apple MacBook laptop is
//!   typically 3× that of an iPhone" (Takeaway 3).
//! * Battery-powered devices ≈ 75% manufacturing / ≈ 20% use; personal
//!   assistants ≈ 40% manufacturing; desktops ≈ 50% (Takeaway 2).
//! * Device lifetimes average "three to four years".

use cc_units::CarbonMass;

/// Device vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vendor {
    /// Apple Inc.
    Apple,
    /// Google LLC.
    Google,
    /// Huawei Technologies.
    Huawei,
    /// Microsoft Corporation.
    Microsoft,
}

impl Vendor {
    /// One-letter tag used on the Fig 8 scatter plot.
    #[must_use]
    pub fn tag(self) -> char {
        match self {
            Self::Apple => 'A',
            Self::Google => 'G',
            Self::Huawei => 'H',
            Self::Microsoft => 'M',
        }
    }

    /// Human-readable vendor name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Apple => "Apple",
            Self::Google => "Google",
            Self::Huawei => "Huawei",
            Self::Microsoft => "Microsoft",
        }
    }
}

impl core::fmt::Display for Vendor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Device category, following Fig 6's grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Tablets (iPads, Surfaces).
    Tablet,
    /// Mobile phones.
    Phone,
    /// Wearables (watches).
    Wearable,
    /// Laptops.
    Laptop,
    /// Smart speakers / personal assistants.
    Speaker,
    /// Desktops without an integrated display.
    Desktop,
    /// Desktops with an integrated display (iMac, Surface Studio).
    DesktopWithDisplay,
    /// Game consoles.
    GameConsole,
}

impl Category {
    /// All categories in Fig 6 order (battery-operated first).
    pub const ALL: [Self; 8] = [
        Self::Tablet,
        Self::Phone,
        Self::Wearable,
        Self::Laptop,
        Self::Speaker,
        Self::Desktop,
        Self::DesktopWithDisplay,
        Self::GameConsole,
    ];

    /// Whether Fig 6 classifies the category as battery-operated (vs
    /// always-connected).
    #[must_use]
    pub fn is_battery_operated(self) -> bool {
        matches!(
            self,
            Self::Tablet | Self::Phone | Self::Wearable | Self::Laptop
        )
    }

    /// Human-readable label, matching Fig 6's axis.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Tablet => "Tablets",
            Self::Phone => "Phones",
            Self::Wearable => "Wearables",
            Self::Laptop => "Laptops",
            Self::Speaker => "Speakers",
            Self::Desktop => "Desktops",
            Self::DesktopWithDisplay => "Desktops w/Display",
            Self::GameConsole => "Game consoles",
        }
    }
}

impl core::fmt::Display for Category {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A product life-cycle assessment record, as published in vendor
/// environmental reports: a total footprint and its split across the four
/// life-cycle phases of Fig 4.
///
/// Phase shares are fractions of the total and sum to 1 (validated by tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductLca {
    /// Marketing name, e.g. `"iPhone 11"`.
    pub name: &'static str,
    /// Vendor.
    pub vendor: Vendor,
    /// Release year.
    pub year: u16,
    /// Category (Fig 6 grouping).
    pub category: Category,
    /// Total life-cycle footprint in kg CO₂e over the assumed lifetime.
    pub total_kg: f64,
    /// Production/manufacturing share of the total (raw materials, ICs,
    /// packaging, assembly).
    pub production_share: f64,
    /// Transport share of the total.
    pub transport_share: f64,
    /// Use-phase (operational energy) share of the total.
    pub use_share: f64,
    /// End-of-life processing share of the total.
    pub eol_share: f64,
    /// Assumed lifetime in years (vendor LCAs use 3 for phones/watches,
    /// 4 for computers).
    pub lifetime_years: f64,
}

impl ProductLca {
    /// Total life-cycle footprint.
    #[must_use]
    pub fn total(&self) -> CarbonMass {
        CarbonMass::from_kg(self.total_kg)
    }

    /// Production (manufacturing) footprint.
    #[must_use]
    pub fn production(&self) -> CarbonMass {
        self.total() * self.production_share
    }

    /// Transport footprint.
    #[must_use]
    pub fn transport(&self) -> CarbonMass {
        self.total() * self.transport_share
    }

    /// Use-phase (operational) footprint over the lifetime.
    #[must_use]
    pub fn use_phase(&self) -> CarbonMass {
        self.total() * self.use_share
    }

    /// End-of-life footprint.
    #[must_use]
    pub fn end_of_life(&self) -> CarbonMass {
        self.total() * self.eol_share
    }
}

/// Helper to keep the table below readable.
#[allow(clippy::too_many_arguments)] // one positional row of the published dataset table
const fn lca(
    name: &'static str,
    vendor: Vendor,
    year: u16,
    category: Category,
    total_kg: f64,
    production_share: f64,
    transport_share: f64,
    use_share: f64,
    eol_share: f64,
    lifetime_years: f64,
) -> ProductLca {
    ProductLca {
        name,
        vendor,
        year,
        category,
        total_kg,
        production_share,
        transport_share,
        use_share,
        eol_share,
        lifetime_years,
    }
}

use Category as C;
use Vendor as V;

/// The full device dataset (40 products).
pub const ALL: [ProductLca; 40] = [
    // ---- Phones: Apple iPhone generations (Fig 7 anchors) ----------------
    lca(
        "iPhone 3GS",
        V::Apple,
        2009,
        C::Phone,
        55.0,
        0.40,
        0.08,
        0.51,
        0.01,
        3.0,
    ),
    lca(
        "iPhone 4",
        V::Apple,
        2010,
        C::Phone,
        45.0,
        0.45,
        0.08,
        0.46,
        0.01,
        3.0,
    ),
    lca(
        "iPhone 4S",
        V::Apple,
        2011,
        C::Phone,
        55.0,
        0.47,
        0.08,
        0.44,
        0.01,
        3.0,
    ),
    lca(
        "iPhone 5S",
        V::Apple,
        2013,
        C::Phone,
        65.0,
        0.55,
        0.07,
        0.37,
        0.01,
        3.0,
    ),
    lca(
        "iPhone 6s",
        V::Apple,
        2015,
        C::Phone,
        54.0,
        0.62,
        0.06,
        0.31,
        0.01,
        3.0,
    ),
    lca(
        "iPhone 7",
        V::Apple,
        2016,
        C::Phone,
        56.0,
        0.67,
        0.06,
        0.26,
        0.01,
        3.0,
    ),
    lca(
        "iPhone X",
        V::Apple,
        2017,
        C::Phone,
        79.0,
        0.797,
        0.05,
        0.143,
        0.01,
        3.0,
    ),
    lca(
        "iPhone XR",
        V::Apple,
        2018,
        C::Phone,
        62.0,
        0.74,
        0.05,
        0.20,
        0.01,
        3.0,
    ),
    lca(
        "iPhone 11",
        V::Apple,
        2019,
        C::Phone,
        75.0,
        0.79,
        0.05,
        0.14,
        0.02,
        3.0,
    ),
    lca(
        "iPhone 11 Pro",
        V::Apple,
        2019,
        C::Phone,
        82.0,
        0.805,
        0.045,
        0.13,
        0.02,
        3.0,
    ),
    lca(
        "iPhone SE (2nd gen)",
        V::Apple,
        2020,
        C::Phone,
        57.0,
        0.76,
        0.05,
        0.17,
        0.02,
        3.0,
    ),
    // ---- Phones: Google Pixels -------------------------------------------
    lca(
        "Pixel 2",
        V::Google,
        2017,
        C::Phone,
        60.0,
        0.70,
        0.06,
        0.23,
        0.01,
        3.0,
    ),
    lca(
        "Pixel 2 XL",
        V::Google,
        2017,
        C::Phone,
        70.0,
        0.71,
        0.06,
        0.22,
        0.01,
        3.0,
    ),
    lca(
        "Pixel 3",
        V::Google,
        2018,
        C::Phone,
        70.0,
        0.71,
        0.06,
        0.22,
        0.01,
        3.0,
    ),
    lca(
        "Pixel 3 XL",
        V::Google,
        2018,
        C::Phone,
        76.0,
        0.72,
        0.06,
        0.21,
        0.01,
        3.0,
    ),
    lca(
        "Pixel 3a",
        V::Google,
        2019,
        C::Phone,
        63.0,
        0.715,
        0.06,
        0.21,
        0.015,
        3.0,
    ),
    lca(
        "Pixel 3a XL",
        V::Google,
        2019,
        C::Phone,
        67.0,
        0.72,
        0.06,
        0.21,
        0.01,
        3.0,
    ),
    // ---- Phones: Huawei ---------------------------------------------------
    lca(
        "Honor 5C",
        V::Huawei,
        2016,
        C::Phone,
        43.0,
        0.70,
        0.05,
        0.24,
        0.01,
        3.0,
    ),
    lca(
        "Honor 8 Lite",
        V::Huawei,
        2017,
        C::Phone,
        46.0,
        0.70,
        0.05,
        0.24,
        0.01,
        3.0,
    ),
    // ---- Tablets: Apple iPad generations (Fig 7 anchors) ------------------
    lca(
        "iPad (2nd gen)",
        V::Apple,
        2012,
        C::Tablet,
        180.0,
        0.60,
        0.07,
        0.32,
        0.01,
        3.0,
    ),
    lca(
        "iPad (3rd gen)",
        V::Apple,
        2012,
        C::Tablet,
        165.0,
        0.62,
        0.07,
        0.30,
        0.01,
        3.0,
    ),
    lca(
        "iPad (5th gen)",
        V::Apple,
        2017,
        C::Tablet,
        125.0,
        0.68,
        0.07,
        0.24,
        0.01,
        3.0,
    ),
    lca(
        "iPad (6th gen)",
        V::Apple,
        2018,
        C::Tablet,
        110.0,
        0.70,
        0.07,
        0.22,
        0.01,
        3.0,
    ),
    lca(
        "iPad (7th gen)",
        V::Apple,
        2019,
        C::Tablet,
        100.0,
        0.75,
        0.06,
        0.18,
        0.01,
        3.0,
    ),
    lca(
        "iPad Air",
        V::Apple,
        2019,
        C::Tablet,
        110.0,
        0.74,
        0.06,
        0.19,
        0.01,
        3.0,
    ),
    lca(
        "iPad mini",
        V::Apple,
        2019,
        C::Tablet,
        90.0,
        0.73,
        0.06,
        0.20,
        0.01,
        3.0,
    ),
    lca(
        "iPad Pro 11\"",
        V::Apple,
        2020,
        C::Tablet,
        130.0,
        0.76,
        0.06,
        0.17,
        0.01,
        3.0,
    ),
    lca(
        "Surface Pro 7",
        V::Microsoft,
        2019,
        C::Tablet,
        140.0,
        0.72,
        0.06,
        0.21,
        0.01,
        3.0,
    ),
    // ---- Wearables: Apple Watch generations (Fig 7 anchors) ---------------
    lca(
        "Apple Watch Series 1",
        V::Apple,
        2016,
        C::Wearable,
        33.0,
        0.60,
        0.08,
        0.31,
        0.01,
        3.0,
    ),
    lca(
        "Apple Watch Series 2",
        V::Apple,
        2016,
        C::Wearable,
        35.0,
        0.63,
        0.08,
        0.28,
        0.01,
        3.0,
    ),
    lca(
        "Apple Watch Series 3",
        V::Apple,
        2017,
        C::Wearable,
        34.0,
        0.67,
        0.08,
        0.24,
        0.01,
        3.0,
    ),
    lca(
        "Apple Watch Series 4",
        V::Apple,
        2018,
        C::Wearable,
        36.0,
        0.71,
        0.07,
        0.21,
        0.01,
        3.0,
    ),
    lca(
        "Apple Watch Series 5",
        V::Apple,
        2019,
        C::Wearable,
        36.0,
        0.75,
        0.07,
        0.17,
        0.01,
        3.0,
    ),
    // ---- Laptops -----------------------------------------------------------
    lca(
        "MacBook Air 13\" Retina",
        V::Apple,
        2020,
        C::Laptop,
        210.0,
        0.74,
        0.05,
        0.19,
        0.02,
        4.0,
    ),
    lca(
        "MacBook Pro 16\"",
        V::Apple,
        2019,
        C::Laptop,
        290.0,
        0.70,
        0.05,
        0.23,
        0.02,
        4.0,
    ),
    lca(
        "Pixelbook Go",
        V::Google,
        2019,
        C::Laptop,
        220.0,
        0.72,
        0.06,
        0.20,
        0.02,
        4.0,
    ),
    // ---- Always-connected --------------------------------------------------
    lca(
        "HomePod",
        V::Apple,
        2018,
        C::Speaker,
        110.0,
        0.42,
        0.07,
        0.50,
        0.01,
        4.0,
    ),
    lca(
        "Google Home",
        V::Google,
        2016,
        C::Speaker,
        70.0,
        0.40,
        0.07,
        0.52,
        0.01,
        4.0,
    ),
    lca(
        "iMac 27\"",
        V::Apple,
        2019,
        C::DesktopWithDisplay,
        580.0,
        0.52,
        0.04,
        0.42,
        0.02,
        4.0,
    ),
    lca(
        "Xbox One X",
        V::Microsoft,
        2017,
        C::GameConsole,
        1_200.0,
        0.30,
        0.05,
        0.64,
        0.01,
        5.0,
    ),
];

/// Extra always-connected devices kept separate from [`ALL`] so the main
/// table matches the paper's "more than 30" product count without double
/// weighting desktops. Used by Fig 6's desktop/speaker averages.
pub const ALWAYS_CONNECTED_EXTRA: [ProductLca; 5] = [
    lca(
        "Google Home Mini",
        V::Google,
        2017,
        C::Speaker,
        35.0,
        0.38,
        0.07,
        0.54,
        0.01,
        4.0,
    ),
    lca(
        "Google Home Hub",
        V::Google,
        2018,
        C::Speaker,
        75.0,
        0.41,
        0.07,
        0.51,
        0.01,
        4.0,
    ),
    lca(
        "Mac mini",
        V::Apple,
        2018,
        C::Desktop,
        250.0,
        0.50,
        0.05,
        0.43,
        0.02,
        4.0,
    ),
    lca(
        "Mac Pro",
        V::Apple,
        2019,
        C::Desktop,
        1_400.0,
        0.50,
        0.03,
        0.45,
        0.02,
        4.0,
    ),
    lca(
        "Xbox One S",
        V::Microsoft,
        2017,
        C::GameConsole,
        900.0,
        0.32,
        0.05,
        0.62,
        0.01,
        5.0,
    ),
];

/// Later-generation devices extending the catalog past the paper's core set
/// (same vendors, same LCA methodology). Kept separate so tests pinned to the
/// paper's exact cohort remain stable.
pub const EXTENDED: [ProductLca; 10] = [
    lca(
        "iPhone 11 Pro Max",
        V::Apple,
        2019,
        C::Phone,
        86.0,
        0.80,
        0.045,
        0.135,
        0.02,
        3.0,
    ),
    lca(
        "Pixel 4",
        V::Google,
        2019,
        C::Phone,
        70.0,
        0.73,
        0.06,
        0.20,
        0.01,
        3.0,
    ),
    lca(
        "Pixel 4 XL",
        V::Google,
        2019,
        C::Phone,
        76.0,
        0.74,
        0.06,
        0.19,
        0.01,
        3.0,
    ),
    lca(
        "iPad Pro 12.9\"",
        V::Apple,
        2020,
        C::Tablet,
        150.0,
        0.76,
        0.06,
        0.17,
        0.01,
        3.0,
    ),
    lca(
        "Surface Go 2",
        V::Microsoft,
        2020,
        C::Tablet,
        100.0,
        0.71,
        0.06,
        0.22,
        0.01,
        3.0,
    ),
    lca(
        "Apple Watch SE",
        V::Apple,
        2020,
        C::Wearable,
        33.0,
        0.76,
        0.07,
        0.16,
        0.01,
        3.0,
    ),
    lca(
        "MacBook Pro 13\"",
        V::Apple,
        2020,
        C::Laptop,
        230.0,
        0.72,
        0.05,
        0.21,
        0.02,
        4.0,
    ),
    lca(
        "Surface Laptop 3",
        V::Microsoft,
        2019,
        C::Laptop,
        250.0,
        0.70,
        0.06,
        0.22,
        0.02,
        4.0,
    ),
    lca(
        "Google Nest Mini",
        V::Google,
        2019,
        C::Speaker,
        32.0,
        0.39,
        0.07,
        0.53,
        0.01,
        4.0,
    ),
    lca(
        "Surface Studio 2",
        V::Microsoft,
        2018,
        C::DesktopWithDisplay,
        700.0,
        0.50,
        0.04,
        0.44,
        0.02,
        4.0,
    ),
];

/// Iterates over every record in the dataset ([`ALL`],
/// [`ALWAYS_CONNECTED_EXTRA`] and [`EXTENDED`]).
pub fn iter() -> impl Iterator<Item = &'static ProductLca> {
    ALL.iter()
        .chain(ALWAYS_CONNECTED_EXTRA.iter())
        .chain(EXTENDED.iter())
}

/// Looks a device up by exact name.
///
/// ```
/// let phone = cc_data::devices::find("iPhone 11").unwrap();
/// assert!((phone.use_share * 100.0 - 14.0).abs() < 0.5);
/// ```
#[must_use]
pub fn find(name: &str) -> Option<&'static ProductLca> {
    iter().find(|d| d.name == name)
}

/// All devices in a category.
pub fn in_category(category: Category) -> impl Iterator<Item = &'static ProductLca> {
    iter().filter(move |d| d.category == category)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_shares_sum_to_one() {
        for d in iter() {
            let shares = [
                d.production_share,
                d.transport_share,
                d.use_share,
                d.eol_share,
            ];
            assert!(
                (shares.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "{} shares do not sum to 1",
                d.name
            );
            assert!(
                shares.iter().all(|&s| s >= 0.0),
                "{} has a negative share",
                d.name
            );
        }
    }

    #[test]
    fn dataset_is_larger_than_30_products() {
        assert!(iter().count() > 30, "paper analyzes >30 products");
        assert_eq!(
            iter().count(),
            ALL.len() + ALWAYS_CONNECTED_EXTRA.len() + EXTENDED.len()
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = iter().map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn iphone_pie_anchors() {
        // Fig 2 / Contribution 1: capex share 49% -> 86%. Capex is
        // production + transport + end-of-life (Fig 4).
        let capex = |d: &ProductLca| 100.0 * (d.production_share + d.transport_share + d.eol_share);
        let iphone3gs = find("iPhone 3GS").unwrap();
        assert!((capex(iphone3gs) - 49.0).abs() < 0.5);
        assert!((iphone3gs.use_share * 100.0 - 51.0).abs() < 0.5);
        let iphone11 = find("iPhone 11").unwrap();
        assert!((capex(iphone11) - 86.0).abs() < 0.5);
        assert!((iphone11.use_share * 100.0 - 14.0).abs() < 0.5);
    }

    #[test]
    fn fig7_manufacturing_share_anchors() {
        assert!((find("iPhone 3GS").unwrap().production_share - 0.40).abs() < 0.01);
        assert!((find("iPhone XR").unwrap().production_share - 0.75).abs() < 0.015);
        assert!((find("Apple Watch Series 1").unwrap().production_share - 0.60).abs() < 0.01);
        assert!((find("Apple Watch Series 5").unwrap().production_share - 0.75).abs() < 0.01);
        assert!((find("iPad (2nd gen)").unwrap().production_share - 0.60).abs() < 0.01);
        assert!((find("iPad (7th gen)").unwrap().production_share - 0.75).abs() < 0.01);
    }

    #[test]
    fn fig8_manufacturing_footprint_anchors() {
        let pro = find("iPhone 11 Pro").unwrap();
        assert!((pro.production().as_kg() - 66.0).abs() < 0.5);
        let x = find("iPhone X").unwrap();
        assert!((x.production().as_kg() - 63.0).abs() < 0.5);
        let p3a = find("Pixel 3a").unwrap();
        assert!((p3a.production().as_kg() - 45.0).abs() < 0.5);
        let i11 = find("iPhone 11").unwrap();
        assert!((i11.production().as_kg() - 60.0).abs() < 1.0);
    }

    #[test]
    fn macbook_is_roughly_3x_iphone() {
        // Takeaway 3.
        let mac = find("MacBook Air 13\" Retina").unwrap();
        let iphone = find("iPhone 11").unwrap();
        let total_ratio = mac.total() / iphone.total();
        let mfg_ratio = mac.production() / iphone.production();
        assert!(
            total_ratio > 2.3 && total_ratio < 3.6,
            "total ratio {total_ratio}"
        );
        assert!(mfg_ratio > 2.3 && mfg_ratio < 3.6, "mfg ratio {mfg_ratio}");
    }

    #[test]
    fn battery_operated_classification() {
        assert!(Category::Phone.is_battery_operated());
        assert!(Category::Wearable.is_battery_operated());
        assert!(!Category::Speaker.is_battery_operated());
        assert!(!Category::GameConsole.is_battery_operated());
    }

    #[test]
    fn battery_devices_average_75_percent_manufacturing() {
        // Takeaway 2: "manufacturing (capex) accounts for roughly 75% of the
        // emissions for battery-powered devices" released after 2017.
        let recent: Vec<_> = iter()
            .filter(|d| d.category.is_battery_operated() && d.year >= 2017)
            .collect();
        let avg: f64 = recent.iter().map(|d| d.production_share).sum::<f64>() / recent.len() as f64;
        assert!((avg - 0.73).abs() < 0.04, "battery mfg avg {avg}");
    }

    #[test]
    fn always_connected_use_dominates() {
        for d in iter().filter(|d| !d.category.is_battery_operated()) {
            assert!(
                d.use_share > 0.40,
                "{}: always-connected devices are use-dominated",
                d.name
            );
        }
    }

    #[test]
    fn speaker_and_desktop_manufacturing_anchors() {
        // "hardware manufacturing accounts for 40% of carbon output from
        // personal assistants (e.g., Google Home) and 50% from desktops".
        let home = find("Google Home").unwrap();
        assert!((home.production_share - 0.40).abs() < 0.01);
        let imac = find("iMac 27\"").unwrap();
        assert!((imac.production_share - 0.50).abs() < 0.03);
    }

    #[test]
    fn pixel3_soc_half_production_anchor() {
        // Fig 10 assumes the SoC accounts for half of the Pixel 3's
        // production emissions, i.e. ~25 kg CO2e.
        let p3 = find("Pixel 3").unwrap();
        let soc = p3.production() * 0.5;
        assert!((soc.as_kg() - 24.85).abs() < 0.5);
    }

    #[test]
    fn lookup_and_filters() {
        assert!(find("Nokia 3310").is_none());
        assert!(in_category(Category::Phone).count() >= 10);
    }

    #[test]
    fn vendor_tags() {
        assert_eq!(Vendor::Apple.tag(), 'A');
        assert_eq!(Vendor::Google.tag(), 'G');
        assert_eq!(Vendor::Huawei.tag(), 'H');
        assert_eq!(Vendor::Microsoft.to_string(), "Microsoft");
    }
}
