//! Shared, lazily-built model inputs.
//!
//! A sweep runs the same experiment at every grid point, and several
//! experiments start from the same expensive inputs: the Pixel-3 execution
//! model and the built CNN networks. Rebuilding them per (point × experiment)
//! job wastes most of a sweep's wall-clock, so experiments share one
//! process-wide [`SharedInputs`] handle — each input is built once, on first
//! use, and shared (immutably) across every worker thread and grid point.

use cc_data::ai_models::CnnModel;
use cc_socsim::{ExecutionModel, Network};
use std::sync::OnceLock;

/// Lazily-built inputs shared by every experiment instance and worker
/// thread. Obtain the process-wide handle via [`shared`].
#[derive(Debug)]
pub struct SharedInputs {
    pixel3: OnceLock<ExecutionModel>,
    networks: OnceLock<Vec<(CnnModel, Network)>>,
}

impl SharedInputs {
    /// An empty cache; inputs are built on first access.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            pixel3: OnceLock::new(),
            networks: OnceLock::new(),
        }
    }

    /// The Pixel-3 (Snapdragon 845) execution model, built once.
    pub fn pixel3(&self) -> &ExecutionModel {
        self.pixel3.get_or_init(ExecutionModel::pixel3)
    }

    /// The built networks for every Fig 9 CNN, in [`CnnModel::FIG9`] order.
    pub fn networks(&self) -> &[(CnnModel, Network)] {
        self.networks.get_or_init(|| {
            CnnModel::FIG9
                .into_iter()
                .map(|cnn| (cnn, Network::build(cnn)))
                .collect()
        })
    }

    /// The built network for one Fig 9 CNN (`None` for CNNs outside the
    /// Fig 9 set — build those directly).
    pub fn network(&self, cnn: CnnModel) -> Option<&Network> {
        self.networks()
            .iter()
            .find(|(c, _)| *c == cnn)
            .map(|(_, n)| n)
    }
}

impl Default for SharedInputs {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide shared-inputs handle.
#[must_use]
pub fn shared() -> &'static SharedInputs {
    static SHARED: SharedInputs = SharedInputs::new();
    &SHARED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_built_once_and_shared() {
        let a: *const ExecutionModel = shared().pixel3();
        let b: *const ExecutionModel = shared().pixel3();
        assert_eq!(a, b, "second access must reuse the first build");
        assert_eq!(shared().networks().len(), CnnModel::FIG9.len());
        for cnn in CnnModel::FIG9 {
            assert!(shared().network(cnn).is_some());
        }
    }

    #[test]
    fn shared_handle_is_thread_safe() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let model = shared().pixel3();
                    let (_, net) = &shared().networks()[0];
                    assert!(model.run_all_units(net).len() >= 2);
                });
            }
        });
    }
}
