//! Descriptors of the CNN inference workloads measured in Figs 9 and 10.
//!
//! Each model's layer graph lives in `cc-socsim`'s `network` module, whose
//! tests pin its totals to the standard published figures at 224×224
//! single-image inference.

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
    /// The four models shown in Figs 9 and 10.
    pub const FIG9: [Self; 4] = [
        Self::ResNet50,
        Self::InceptionV3,
        Self::MobileNetV2,
        Self::MobileNetV3,
    ];

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
    fn display_labels() {
        assert_eq!(CnnModel::MobileNetV2.to_string(), "MobileNet v2");
    }
}
