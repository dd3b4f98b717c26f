//! CNN workloads as layer graphs.
//!
//! Each network is a sequence of stage-level [`Layer`]s whose aggregate MACs
//! and parameter counts match the standard published figures (the tests
//! below pin them). Stage-level granularity is
//! enough for a roofline model: what matters is how much work is dense vs
//! depthwise and how much weight/activation traffic each stage moves.

use cc_data::ai_models::CnnModel;

/// The kernel class of a layer, which determines achievable utilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Dense spatial convolution (3×3, 5×5, 7×7).
    Standard,
    /// Depthwise convolution: one filter per channel; starves wide engines.
    Depthwise,
    /// 1×1 (pointwise) convolution.
    Pointwise,
    /// Fully connected.
    Dense,
    /// Pooling / reshaping; negligible MACs, pure memory traffic.
    Pool,
}

impl LayerKind {
    /// Whether the execution model should use the depthwise utilization.
    #[must_use]
    pub fn is_depthwise(self) -> bool {
        matches!(self, Self::Depthwise)
    }
}

/// One (stage-aggregated) layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Stage name, e.g. `"conv4_x"`.
    pub name: &'static str,
    /// Kernel class.
    pub kind: LayerKind,
    /// Multiply-accumulates, in billions.
    pub gmacs: f64,
    /// Weight elements, in millions.
    pub weight_melems: f64,
    /// Activation elements moved (read + write), in millions.
    pub act_melems: f64,
}

impl Layer {
    const fn new(
        name: &'static str,
        kind: LayerKind,
        gmacs: f64,
        weight_melems: f64,
        act_melems: f64,
    ) -> Self {
        Self {
            name,
            kind,
            gmacs,
            weight_melems,
            act_melems,
        }
    }
}

/// A network: an ordered list of layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// Which published model this graph represents.
    pub model: CnnModel,
    /// The stage-level layers, in execution order.
    pub layers: Vec<Layer>,
}

use LayerKind as K;

impl Network {
    /// Builds the layer graph for a published model.
    #[must_use]
    pub fn build(model: CnnModel) -> Self {
        let layers = match model {
            CnnModel::ResNet50 => vec![
                Layer::new("conv1 7x7", K::Standard, 0.118, 0.0094, 2.40),
                Layer::new("pool1", K::Pool, 0.0, 0.0, 1.60),
                Layer::new("conv2_x (3 blocks)", K::Standard, 0.680, 0.22, 7.80),
                Layer::new("conv3_x (4 blocks)", K::Standard, 0.850, 1.22, 5.20),
                Layer::new("conv4_x (6 blocks)", K::Standard, 1.330, 7.10, 3.70),
                Layer::new("conv5_x (3 blocks)", K::Standard, 1.110, 14.96, 1.50),
                Layer::new("avgpool", K::Pool, 0.0, 0.0, 0.10),
                Layer::new("fc1000", K::Dense, 0.002, 2.05, 0.01),
            ],
            CnnModel::InceptionV3 => vec![
                Layer::new("stem", K::Standard, 0.350, 0.50, 6.20),
                Layer::new("mixed_5 (3 blocks)", K::Standard, 1.200, 1.50, 6.80),
                Layer::new("mixed_6 (5 blocks)", K::Standard, 2.700, 10.00, 6.00),
                Layer::new("mixed_7 (3 blocks)", K::Standard, 1.448, 9.75, 2.70),
                Layer::new("avgpool", K::Pool, 0.0, 0.0, 0.10),
                Layer::new("fc1000", K::Dense, 0.002, 2.05, 0.01),
            ],
            CnnModel::MobileNetV1 => vec![
                Layer::new("conv1 3x3", K::Standard, 0.0109, 0.000864, 1.61),
                Layer::new(
                    "depthwise 3x3 (13 layers)",
                    K::Depthwise,
                    0.0171,
                    0.034,
                    4.20,
                ),
                Layer::new(
                    "pointwise 1x1 (13 layers)",
                    K::Pointwise,
                    0.5400,
                    3.10,
                    5.00,
                ),
                Layer::new("avgpool", K::Pool, 0.0, 0.0, 0.002),
                Layer::new("fc1000", K::Dense, 0.001, 1.025, 0.002),
            ],
            CnnModel::MobileNetV2 => vec![
                Layer::new("conv1 3x3", K::Standard, 0.0120, 0.000864, 1.61),
                Layer::new(
                    "depthwise 3x3 (17 blocks)",
                    K::Depthwise,
                    0.0180,
                    0.060,
                    5.90,
                ),
                Layer::new("expand/project 1x1", K::Pointwise, 0.2687, 2.06, 5.50),
                Layer::new("avgpool", K::Pool, 0.0, 0.0, 0.003),
                Layer::new("fc1000", K::Dense, 0.0013, 1.28, 0.002),
            ],
            CnnModel::MobileNetV3 => vec![
                Layer::new("conv1 3x3", K::Standard, 0.0100, 0.000432, 1.21),
                Layer::new("depthwise (15 blocks)", K::Depthwise, 0.0153, 0.095, 3.90),
                Layer::new("expand/project 1x1 + SE", K::Pointwise, 0.1917, 3.25, 3.80),
                Layer::new("avgpool", K::Pool, 0.0, 0.0, 0.002),
                Layer::new("classifier", K::Dense, 0.0020, 2.05, 0.003),
            ],
        };
        Self { model, layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standard published figures per 224×224 inference: GMACs (one MAC
    /// is two FLOPs), parameters in millions, and the fraction of MACs in
    /// depthwise convolutions. Fig 9's models plus MobileNet v1 (Fig 8's
    /// workload), in release order.
    const PUBLISHED: [(CnnModel, f64, f64, f64); 5] = [
        (CnnModel::ResNet50, 4.09, 25.6, 0.0),
        (CnnModel::InceptionV3, 5.70, 23.8, 0.0),
        (CnnModel::MobileNetV1, 0.569, 4.2, 0.03),
        (CnnModel::MobileNetV2, 0.300, 3.4, 0.06),
        (CnnModel::MobileNetV3, 0.219, 5.4, 0.07),
    ];

    fn published() -> impl Iterator<Item = (Network, f64, f64, f64)> {
        PUBLISHED
            .into_iter()
            .map(|(m, gmacs, params, dw)| (Network::build(m), gmacs, params, dw))
    }

    /// Total multiply-accumulates, billions.
    fn total_gmacs(net: &Network) -> f64 {
        net.layers.iter().map(|l| l.gmacs).sum()
    }

    /// Total weight elements, millions (= parameter count).
    fn total_weight_melems(net: &Network) -> f64 {
        net.layers.iter().map(|l| l.weight_melems).sum()
    }

    fn depthwise_fraction(net: &Network) -> f64 {
        let depthwise = |l: &&Layer| l.kind.is_depthwise();
        let dw: f64 = net.layers.iter().filter(depthwise).map(|l| l.gmacs).sum();
        dw / total_gmacs(net)
    }

    #[test]
    fn gmacs_match_published_figures() {
        for (net, published, _, _) in published() {
            let built = total_gmacs(&net);
            let err = (built - published).abs() / published;
            assert!(
                err < 0.02,
                "{}: built {built} vs published {published}",
                net.model
            );
        }
    }

    #[test]
    fn params_match_published_figures() {
        for (net, _, published, _) in published() {
            let built = total_weight_melems(&net);
            let err = (built - published).abs() / published;
            assert!(
                err < 0.05,
                "{}: built {built} vs published {published}",
                net.model
            );
        }
    }

    #[test]
    fn depthwise_fractions_match_descriptors() {
        for (net, _, _, expected) in published() {
            let built = depthwise_fraction(&net);
            assert!(
                (built - expected).abs() < 0.02,
                "{}: built {built} vs expected {expected}",
                net.model
            );
        }
    }

    #[test]
    fn classic_nets_have_no_depthwise() {
        for model in [CnnModel::ResNet50, CnnModel::InceptionV3] {
            let net = Network::build(model);
            assert!(net.layers.iter().all(|l| !l.kind.is_depthwise()));
        }
    }

    #[test]
    fn algorithmic_improvement_exceeds_an_order_of_magnitude() {
        // Inception v3 -> MobileNet v3 is the paper's "algorithmic
        // innovation" axis: 5.7 / 0.219 = 26x fewer MACs.
        let gmacs = |m| total_gmacs(&Network::build(m));
        let ratio = gmacs(CnnModel::InceptionV3) / gmacs(CnnModel::MobileNetV3);
        assert!(ratio > 20.0 && ratio < 30.0, "ratio {ratio}");
    }

    #[test]
    fn mobilenets_are_small() {
        for m in [
            CnnModel::MobileNetV1,
            CnnModel::MobileNetV2,
            CnnModel::MobileNetV3,
        ] {
            let net = Network::build(m);
            assert!(total_gmacs(&net) < 1.0);
            assert!(total_weight_melems(&net) < 6.0);
            assert!(depthwise_fraction(&net) > 0.0);
        }
        assert_eq!(depthwise_fraction(&Network::build(CnnModel::ResNet50)), 0.0);
    }

    #[test]
    fn every_network_ends_in_a_classifier() {
        for (net, ..) in published() {
            assert_eq!(net.layers.last().unwrap().kind, LayerKind::Dense);
        }
    }
}
