//! Descriptors of the CNN inference workloads measured in Figs 9 and 10.
//!
//! The compute/parameter figures are the standard published values for each
//! network at 224×224 single-image inference. They seed the layer graphs in
//! `cc-socsim` and document the "algorithmic innovation" axis of the paper
//! (ResNet-50/Inception v3 → MobileNet v3 shrinks multiply-accumulate work by
//! more than an order of magnitude).

/// A convolutional-network workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CnnModel {
    /// ResNet-50 (He et al., 2016).
    ResNet50,
    /// Inception v3 (Szegedy et al., 2015).
    InceptionV3,
    /// MobileNet v1 (Howard et al., 2017) — the Fig 8 benchmark workload.
    MobileNetV1,
    /// MobileNet v2 (Sandler et al., 2018).
    MobileNetV2,
    /// MobileNet v3-Large (Howard et al., 2019).
    MobileNetV3,
}

impl CnnModel {
    /// All models in Fig 9's x-axis order, plus MobileNet v1 (Fig 8's
    /// workload) at the position matching its release year.
    pub const ALL: [Self; 5] = [
        Self::ResNet50,
        Self::InceptionV3,
        Self::MobileNetV1,
        Self::MobileNetV2,
        Self::MobileNetV3,
    ];

    /// The four models shown in Figs 9 and 10.
    pub const FIG9: [Self; 4] = [
        Self::ResNet50,
        Self::InceptionV3,
        Self::MobileNetV2,
        Self::MobileNetV3,
    ];

    /// Multiply-accumulate operations per 224×224 inference, in billions
    /// (GMACs). One MAC is two FLOPs.
    #[must_use]
    pub fn gmacs(self) -> f64 {
        match self {
            Self::ResNet50 => 4.09,
            Self::InceptionV3 => 5.70,
            Self::MobileNetV1 => 0.569,
            Self::MobileNetV2 => 0.300,
            Self::MobileNetV3 => 0.219,
        }
    }

    /// Parameter count, in millions.
    #[must_use]
    pub fn params_millions(self) -> f64 {
        match self {
            Self::ResNet50 => 25.6,
            Self::InceptionV3 => 23.8,
            Self::MobileNetV1 => 4.2,
            Self::MobileNetV2 => 3.4,
            Self::MobileNetV3 => 5.4,
        }
    }

    /// Fraction of MACs in depthwise convolutions (low arithmetic intensity;
    /// runs far below peak on every unit).
    #[must_use]
    pub fn depthwise_mac_fraction(self) -> f64 {
        match self {
            Self::ResNet50 | Self::InceptionV3 => 0.0,
            Self::MobileNetV1 => 0.03,
            Self::MobileNetV2 => 0.06,
            Self::MobileNetV3 => 0.07,
        }
    }

    /// Human-readable label used in Figs 9 and 10.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ResNet50 => "ResNet-50",
            Self::InceptionV3 => "Inception v3",
            Self::MobileNetV1 => "MobileNet v1",
            Self::MobileNetV2 => "MobileNet v2",
            Self::MobileNetV3 => "MobileNet v3",
        }
    }
}

impl core::fmt::Display for CnnModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The ImageNet training-set size the paper uses for scale ("the ImageNet
/// training set consists of 14 million images").
pub const IMAGENET_TRAIN_IMAGES: u64 = 14_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithmic_improvement_exceeds_an_order_of_magnitude() {
        // Inception v3 -> MobileNet v3 is the paper's "algorithmic
        // innovation" axis: 5.7 / 0.219 = 26x fewer MACs.
        let ratio = CnnModel::InceptionV3.gmacs() / CnnModel::MobileNetV3.gmacs();
        assert!(ratio > 20.0 && ratio < 30.0, "ratio {ratio}");
    }

    #[test]
    fn mobilenets_are_small() {
        for m in [
            CnnModel::MobileNetV1,
            CnnModel::MobileNetV2,
            CnnModel::MobileNetV3,
        ] {
            assert!(m.gmacs() < 1.0);
            assert!(m.params_millions() < 6.0);
            assert!(m.depthwise_mac_fraction() > 0.0);
        }
        assert_eq!(CnnModel::ResNet50.depthwise_mac_fraction(), 0.0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(CnnModel::MobileNetV2.to_string(), "MobileNet v2");
    }
}
