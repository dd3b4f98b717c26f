//! One experiment per paper figure/table, plus extensions.
//!
//! Every module implements [`cc_report::Experiment`]; the [`entries`]
//! registry — metadata-carrying entries with stable keys, topic tags and
//! declared scenario-dependency sets — drives the `repro` binary, the sweep
//! cache and the generated scenario reference. Each experiment's `run`
//! executes the *models* under a [`cc_report::RunContext`] (not hard-coded
//! answers): e.g. Fig 10 runs the SoC simulator and the amortization solver
//! end to end against the context's grid and lifetime. Dependency
//! declarations ([`Entry::deps`]) are verified against the fields each
//! experiment actually reads by the read-tracking test in this module, so a
//! sweep runner may safely reuse output across grid points whose declared
//! fields agree.
//!
//! An entry's output is assembled from one or more [`Part`]s, each with its
//! own dependency list and cache key. Almost every entry is one part keyed
//! by the entry itself; an experiment whose panels read disjoint fields
//! (`ext-mc`) splits into parts so a cache recomputes only the panels whose
//! fields moved.

pub mod ext_die;
pub mod ext_dvfs;
pub mod ext_fab;
pub mod ext_facility;
pub mod ext_hetero;
pub mod ext_mc;
pub mod ext_scheduler;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod inputs;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

pub use ext_die::ExtDieCarbon;
pub use ext_dvfs::ExtDvfs;
pub use ext_fab::ExtFabDecarbonization;
pub use ext_facility::ExtFacility;
pub use ext_hetero::ExtHeterogeneity;
pub use ext_mc::ExtMonteCarlo;
pub use ext_scheduler::ExtScheduler;
pub use fig01::Fig01IctProjections;
pub use fig02::Fig02EnergyVsCarbon;
pub use fig03::Fig03GhgScopes;
pub use fig04::Fig04Lifecycle;
pub use fig05::Fig05AppleBreakdown;
pub use fig06::Fig06DeviceBreakdown;
pub use fig07::Fig07Generations;
pub use fig08::Fig08Pareto;
pub use fig09::Fig09InferencePerf;
pub use fig10::Fig10Breakeven;
pub use fig11::Fig11CorporateFootprints;
pub use fig12::Fig12Scope3Breakdown;
pub use fig13::Fig13EnergySourceSweep;
pub use fig14::Fig14WaferSweep;
pub use fig15::Fig15ResearchDirections;
pub use inputs::SharedInputs;
pub use table1::Table1Scopes;
pub use table2::Table2EnergySources;
pub use table3::Table3Grids;
pub use table4::Table4MacPro;

use cc_report::{Experiment, ExperimentOutput, RunContext, ScenarioPath};

/// Topic tags for registry filtering (`repro --tag mobile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// A paper figure.
    Figure,
    /// A paper table.
    Table,
    /// An extension beyond the paper's evaluation.
    Extension,
    /// Mobile/SoC experiments.
    Mobile,
    /// Warehouse-scale/datacenter experiments.
    Datacenter,
    /// Semiconductor-manufacturing experiments.
    Fab,
    /// Corporate sustainability-report experiments.
    Corporate,
    /// Energy-source and grid experiments.
    Energy,
    /// Consumer-device LCA experiments.
    Device,
}

impl Tag {
    /// Every tag, for enumeration in help text.
    pub const ALL: [Self; 9] = [
        Self::Figure,
        Self::Table,
        Self::Extension,
        Self::Mobile,
        Self::Datacenter,
        Self::Fab,
        Self::Corporate,
        Self::Energy,
        Self::Device,
    ];

    /// The tag's lowercase command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Figure => "figure",
            Self::Table => "table",
            Self::Extension => "extension",
            Self::Mobile => "mobile",
            Self::Datacenter => "datacenter",
            Self::Fab => "fab",
            Self::Corporate => "corporate",
            Self::Energy => "energy",
            Self::Device => "device",
        }
    }

    /// Parses a command-line tag name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.name() == name)
    }
}

impl core::fmt::Display for Tag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One independently cached piece of an entry's output: its cache key, the
/// scenario fields it reads, and the function computing it. Running an
/// entry's parts in order and joining them with [`ExperimentOutput::append`]
/// gives exactly the output of running the whole experiment.
#[derive(Debug)]
pub struct Part {
    /// Cache key, unique across the registry. A one-part entry's part is
    /// keyed by the entry key, so its cache entries are the entry's own.
    pub key: &'static str,
    /// The scenario fields this part reads, verified like [`Entry::deps`].
    pub deps: &'static [ScenarioPath],
    /// Computes the part's output.
    pub run: fn(&RunContext) -> ExperimentOutput,
}

impl Part {
    /// Fingerprint of `source` restricted to this part's declared fields.
    #[must_use]
    pub fn fingerprint<S: cc_report::FieldSource>(&self, source: &S) -> u64 {
        cc_report::dependency_fingerprint(source, self.deps)
    }
}

/// A registry entry: the experiment's stable key, its topic tags, its
/// declared scenario-dependency set, its parts, and a constructor. Entries
/// are `'static`, cheap to scan, and each worker thread of a parallel run
/// builds its own experiment instance from the constructor.
pub struct Entry {
    /// Stable command-line key (`fig10`, `table2`, `ext-mc`).
    pub key: &'static str,
    /// Topic tags for filtering.
    pub tags: &'static [Tag],
    deps: &'static [ScenarioPath],
    parts: &'static [Part],
    ctor: fn() -> Box<dyn Experiment>,
}

impl Entry {
    /// The scenario fields this experiment's output depends on, as declared
    /// dependency paths (`fleet.*`, `fab.node_nm`). An empty set means the
    /// experiment is scenario-independent: its output is identical at every
    /// point of any sweep. Declarations are verified against actual reads by
    /// a read-tracking test, so they can be trusted for caching.
    #[must_use]
    pub fn deps(&self) -> &'static [ScenarioPath] {
        self.deps
    }

    /// Whether the experiment reads nothing from the scenario.
    #[must_use]
    pub fn is_scenario_independent(&self) -> bool {
        self.deps.is_empty()
    }

    /// Fingerprint of a scenario (or copy-on-write overlay) restricted to
    /// this experiment's declared dependency fields: two sources with equal
    /// fingerprints produce identical output from this experiment
    /// ([`cc_report::dependency_fingerprint`]).
    #[must_use]
    pub fn fingerprint<S: cc_report::FieldSource>(&self, source: &S) -> u64 {
        cc_report::dependency_fingerprint(source, self.deps)
    }

    /// The parts the engine caches separately, in assembly order. The union
    /// of their dependency lists is [`Self::deps`].
    #[must_use]
    pub fn parts(&self) -> &'static [Part] {
        self.parts
    }

    /// Instantiates the experiment.
    #[must_use]
    pub fn build(&self) -> Box<dyn Experiment> {
        (self.ctor)()
    }

    /// The presentation title, e.g. `Figure 10`.
    #[must_use]
    pub fn title(&self) -> String {
        self.build().id().to_string()
    }

    /// The one-line description.
    #[must_use]
    pub fn description(&self) -> &'static str {
        self.build().description()
    }

    /// Whether the entry carries `tag`.
    #[must_use]
    pub fn has_tag(&self, tag: Tag) -> bool {
        self.tags.contains(&tag)
    }

    /// The shared cached-inputs handle: lazily-built models and dataset
    /// tables built once and reused across every grid point of a sweep
    /// (and every worker thread of a parallel run).
    #[must_use]
    pub fn inputs(&self) -> &'static SharedInputs {
        inputs::shared()
    }
}

impl core::fmt::Debug for Entry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Entry")
            .field("key", &self.key)
            .field("tags", &self.tags)
            .finish_non_exhaustive()
    }
}

macro_rules! entry {
    ($key:literal, $ty:ty, [$($tag:ident),+ $(,)?], deps: [$($dep:literal),* $(,)?]) => {
        entry!($key, $ty, [$($tag),+], deps: [$($dep),*], parts: [
            ($key, |ctx| <$ty>::default().run(ctx), [$($dep),*]),
        ])
    };
    (
        $key:literal, $ty:ty, [$($tag:ident),+ $(,)?], deps: [$($dep:literal),* $(,)?],
        parts: [$(($part:literal, $run:expr, [$($part_dep:literal),* $(,)?])),+ $(,)?]
    ) => {
        Entry {
            key: $key,
            tags: &[$(Tag::$tag),+],
            deps: &[$(ScenarioPath::of($dep)),*],
            parts: &[$(Part {
                key: $part,
                deps: &[$(ScenarioPath::of($part_dep)),*],
                run: $run,
            }),+],
            ctor: || Box::new(<$ty>::default()),
        }
    };
}

// Dependency declarations are load-bearing: the sweep cache reuses an
// experiment's output across grid points whose declared fields agree, so an
// under-declaration would serve stale results. The
// `declared_deps_match_actual_reads` test runs every experiment and every
// part under a read-tracking context and fails on any disagreement, in
// either direction.
static ENTRIES: [Entry; 26] = [
    entry!("fig01", Fig01IctProjections, [Figure, Energy], deps: []),
    entry!(
        "fig02",
        Fig02EnergyVsCarbon,
        [Figure, Datacenter, Corporate],
        deps: ["fleet.*", "grid.intensity"]
    ),
    entry!("fig03", Fig03GhgScopes, [Figure, Corporate], deps: []),
    entry!("fig04", Fig04Lifecycle, [Figure, Device], deps: []),
    entry!("fig05", Fig05AppleBreakdown, [Figure, Corporate], deps: []),
    entry!("fig06", Fig06DeviceBreakdown, [Figure, Device], deps: []),
    entry!("fig07", Fig07Generations, [Figure, Device], deps: []),
    entry!("fig08", Fig08Pareto, [Figure, Mobile, Device], deps: []),
    entry!("fig09", Fig09InferencePerf, [Figure, Mobile], deps: []),
    entry!(
        "fig10",
        Fig10Breakeven,
        [Figure, Mobile],
        deps: ["device.*", "grid.intensity", "grid.renewable_fraction"]
    ),
    entry!(
        "fig11",
        Fig11CorporateFootprints,
        [Figure, Corporate, Datacenter],
        deps: ["fleet.*", "grid.intensity"]
    ),
    entry!("fig12", Fig12Scope3Breakdown, [Figure, Corporate], deps: []),
    entry!(
        "fig13",
        Fig13EnergySourceSweep,
        [Figure, Energy, Corporate],
        deps: ["grid.intensity", "grid.renewable_fraction"]
    ),
    entry!("fig14", Fig14WaferSweep, [Figure, Fab], deps: []),
    entry!("fig15", Fig15ResearchDirections, [Figure], deps: []),
    entry!("table1", Table1Scopes, [Table, Corporate], deps: []),
    entry!("table2", Table2EnergySources, [Table, Energy], deps: []),
    entry!("table3", Table3Grids, [Table, Energy], deps: []),
    entry!("table4", Table4MacPro, [Table, Device], deps: []),
    entry!(
        "ext-die",
        ExtDieCarbon,
        [Extension, Fab],
        deps: ["fab.node_nm", "fab.yield_factor"]
    ),
    entry!(
        "ext-dvfs",
        ExtDvfs,
        [Extension, Mobile],
        deps: ["device.soc_budget_share", "grid.intensity", "grid.renewable_fraction"]
    ),
    entry!(
        "ext-hetero",
        ExtHeterogeneity,
        [Extension, Datacenter],
        deps: ["fleet.scale", "grid.intensity", "grid.renewable_fraction"]
    ),
    entry!(
        "ext-fab",
        ExtFabDecarbonization,
        [Extension, Fab],
        deps: ["fab.renewable_share"]
    ),
    entry!(
        "ext-mc",
        ExtMonteCarlo,
        [Extension],
        deps: ["device.soc_budget_share", "grid.intensity", "grid.renewable_fraction", "mc.*"],
        parts: [
            (
                "ext-mc.fig10",
                ext_mc::fig10_breakeven,
                ["device.soc_budget_share", "grid.intensity", "grid.renewable_fraction", "mc.*"]
            ),
            ("ext-mc.fig11", ext_mc::fig11_capex_opex, ["mc.*"]),
            ("ext-mc.fig14", ext_mc::fig14_wafer_reduction, ["mc.*"]),
        ]
    ),
    entry!(
        "ext-facility",
        ExtFacility,
        [Extension, Datacenter],
        deps: ["fleet.*", "grid.intensity"]
    ),
    entry!(
        "ext-scheduler",
        ExtScheduler,
        [Extension, Datacenter, Energy],
        deps: ["fleet.*", "grid.regions"]
    ),
];

/// Every registry entry, in presentation order: figures 1–15, tables I–IV,
/// then extensions.
#[must_use]
pub fn entries() -> &'static [Entry] {
    &ENTRIES
}

/// Finds a registry entry by its command-line key.
#[must_use]
pub fn find_entry(key: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.key == key)
}

/// Entries carrying every tag in `tags` (all entries when `tags` is empty).
#[must_use]
pub fn with_tags(tags: &[Tag]) -> Vec<&'static Entry> {
    ENTRIES
        .iter()
        .filter(|e| tags.iter().all(|&t| e.has_tag(t)))
        .collect()
}

/// Every experiment instantiated, in presentation order.
#[must_use]
pub fn all() -> Vec<Box<dyn Experiment>> {
    ENTRIES.iter().map(Entry::build).collect()
}

/// Finds and instantiates an experiment by its command-line key (`fig10`,
/// `table2`, `ext-mc`).
#[must_use]
pub fn find(key: &str) -> Option<Box<dyn Experiment>> {
    find_entry(key).map(Entry::build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_report::{RunContext, Scenario};

    #[test]
    fn registry_is_complete() {
        let experiments = all();
        assert_eq!(experiments.len(), 26);
        // 15 figures, 4 tables, 7 extensions.
        let figs = experiments
            .iter()
            .filter(|e| matches!(e.id(), cc_report::ExperimentId::Figure(_)))
            .count();
        assert_eq!(figs, 15);
    }

    #[test]
    fn keys_are_unique_and_resolvable() {
        let mut keys: Vec<String> = all().iter().map(|e| e.id().key()).collect();
        keys.sort();
        let n = keys.len();
        keys.dedup();
        assert_eq!(n, keys.len());
        for key in keys {
            assert!(find(&key).is_some(), "key {key} not resolvable");
        }
        assert!(find("fig99").is_none());
    }

    #[test]
    fn entry_keys_match_experiment_ids() {
        for entry in entries() {
            let built = entry.build();
            assert_eq!(entry.key, built.id().key(), "stale key for {}", entry.key);
            assert!(!entry.title().is_empty());
            assert!(!entry.description().is_empty());
        }
    }

    #[test]
    fn every_entry_has_a_kind_tag() {
        for entry in entries() {
            let kinds = [Tag::Figure, Tag::Table, Tag::Extension];
            assert_eq!(
                entry.tags.iter().filter(|t| kinds.contains(t)).count(),
                1,
                "{} must have exactly one kind tag",
                entry.key
            );
        }
    }

    #[test]
    fn tag_filtering_selects_subsets() {
        assert_eq!(with_tags(&[Tag::Figure]).len(), 15);
        assert_eq!(with_tags(&[Tag::Table]).len(), 4);
        assert_eq!(with_tags(&[Tag::Extension]).len(), 7);
        assert_eq!(with_tags(&[]).len(), 26);
        let mobile_figures = with_tags(&[Tag::Figure, Tag::Mobile]);
        assert!(mobile_figures.iter().any(|e| e.key == "fig10"));
        assert!(mobile_figures.iter().all(|e| e.has_tag(Tag::Figure)));
        assert!(with_tags(&[Tag::Mobile, Tag::Datacenter]).is_empty());
    }

    #[test]
    fn tag_names_round_trip() {
        for tag in Tag::ALL {
            assert_eq!(Tag::parse(tag.name()), Some(tag));
            assert_eq!(tag.to_string(), tag.name());
        }
        assert_eq!(Tag::parse("nope"), None);
    }

    #[test]
    fn every_experiment_produces_output() {
        let ctx = RunContext::paper();
        for e in all() {
            let out = e.run(&ctx);
            assert!(
                !out.tables.is_empty() || !out.notes.is_empty(),
                "{} produced nothing",
                e.id()
            );
            assert!(!e.description().is_empty());
        }
    }

    /// A scenario with every semantic field moved off its paper default, to
    /// provoke any non-paper code path an experiment keeps.
    fn perturbed_scenario() -> Scenario {
        let mut s = Scenario::paper_defaults();
        for (key, value) in [
            ("name", "perturbed"),
            ("grid.intensity", "52"),
            ("grid.renewable_fraction", "0.25"),
            ("grid.regions", "coastal:300,100"),
            ("device.lifetime", "4.5"),
            ("device.soc_budget_share", "0.6"),
            ("fab.node_nm", "7"),
            ("fab.yield_factor", "1.5"),
            ("fab.renewable_share", "0.5"),
            ("fleet.scale", "2"),
            ("fleet.sku", "storage"),
            ("fleet.mix", "web:0.6,ai-training:0.4"),
            ("fleet.sites", "main@default:0.6,green@solar:0.4"),
            ("fleet.deferrable", "0.35"),
            ("fleet.initial_servers", "30000"),
            ("fleet.growth", "1.1"),
            ("fleet.pue", "1.3"),
            ("fleet.renewable_ramp", "0,0.5,1"),
            ("fleet.construction_kt", "100"),
            ("fleet.building_amortization_years", "15"),
            ("fleet.start_year", "2021"),
            ("fleet.horizon_years", "5"),
            ("mc.seed", "7"),
            ("mc.samples", "500"),
        ] {
            s.set(key, value).unwrap();
        }
        s
    }

    /// The canonical field paths a dependency list covers, sorted.
    fn declared(deps: &[ScenarioPath]) -> Vec<&'static str> {
        let mut paths: Vec<&str> = cc_report::scenario::deps::expand(deps)
            .iter()
            .map(|field| field.path)
            .collect();
        paths.sort_unstable();
        paths
    }

    #[test]
    fn declared_deps_match_actual_reads() {
        // The cache-soundness contract: each entry's declared dependency set
        // must equal the fields its experiment actually reads — a missing
        // declaration would let the sweep cache serve stale output, and an
        // excess one would spuriously re-run the experiment. The same holds
        // for every part, which the engine caches under its own deps, and
        // the parts' deps together must be the entry's. Checked under the
        // paper defaults *and* a fully perturbed scenario so that
        // paper-vs-scenario branches cannot hide a read.
        for scenario in [Scenario::paper_defaults(), perturbed_scenario()] {
            for entry in entries() {
                let (ctx, tracker) = RunContext::tracking(scenario.clone()).unwrap();
                entry.build().run(&ctx);
                assert_eq!(
                    tracker.reads(),
                    declared(entry.deps()),
                    "`{}` (scenario `{}`): declared deps disagree with actual reads",
                    entry.key,
                    scenario.name
                );
                let mut union = Vec::new();
                for part in entry.parts() {
                    let (ctx, tracker) = RunContext::tracking(scenario.clone()).unwrap();
                    (part.run)(&ctx);
                    assert_eq!(
                        tracker.reads(),
                        declared(part.deps),
                        "part `{}` (scenario `{}`): declared deps disagree with actual reads",
                        part.key,
                        scenario.name
                    );
                    union.extend(declared(part.deps));
                }
                union.sort_unstable();
                union.dedup();
                assert_eq!(
                    union,
                    declared(entry.deps()),
                    "`{}`: its parts' deps do not add up to the entry's",
                    entry.key
                );
            }
        }
    }

    #[test]
    fn part_keys_are_unique_and_single_parts_keep_the_entry_key() {
        let mut keys: Vec<&str> = entries()
            .iter()
            .flat_map(|e| e.parts().iter().map(|p| p.key))
            .collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(n, keys.len(), "part keys must not collide in the cache");
        for entry in entries() {
            match entry.parts() {
                [] => panic!("`{}` has no parts", entry.key),
                [part] => {
                    assert_eq!(part.key, entry.key);
                    assert_eq!(part.deps, entry.deps());
                }
                // A multi-part entry's parts must not reuse the entry key:
                // a disk cache written before the split holds the whole
                // output under it.
                parts => assert!(parts.iter().all(|p| p.key != entry.key)),
            }
        }
        assert_eq!(find_entry("ext-mc").unwrap().parts().len(), 3);
    }

    #[test]
    fn every_declared_path_covers_a_semantic_field() {
        for entry in entries() {
            for dep in entry.deps() {
                assert!(
                    !cc_report::scenario::deps::expand(&[*dep]).is_empty(),
                    "`{}` declares `{dep}` which matches no semantic field",
                    entry.key
                );
            }
        }
    }

    #[test]
    fn scenario_sku_names_match_the_dcsim_catalog() {
        // The scenario layer validates fleet compositions against its own
        // KNOWN_SKUS list (cc_report cannot depend on the simulator crate);
        // this is the cross-crate check keeping that list and the
        // cc_dcsim::ServerConfig catalog in lockstep.
        let catalog: Vec<String> = cc_dcsim::ServerConfig::catalog()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(cc_report::scenario::KNOWN_SKUS.to_vec(), catalog);
        for name in cc_report::scenario::KNOWN_SKUS {
            assert!(
                cc_dcsim::ServerConfig::by_name(name).is_some(),
                "scenario SKU `{name}` missing from the catalog"
            );
        }
    }

    #[test]
    fn fingerprints_dedupe_exactly_the_ignored_axes() {
        let base = Scenario::paper_defaults();
        let mut grown = base.clone();
        grown.set("fleet.growth", "1.9").unwrap();
        let facility = find_entry("ext-facility").unwrap();
        let fig05 = find_entry("fig05").unwrap();
        let fig10 = find_entry("fig10").unwrap();
        // The facility depends on fleet.growth: the fingerprint moves.
        assert_ne!(facility.fingerprint(&base), facility.fingerprint(&grown));
        // fig10 (device/grid deps) and fig05 (scenario-independent) ignore
        // the growth axis: their fingerprints are stable across it.
        assert_eq!(fig10.fingerprint(&base), fig10.fingerprint(&grown));
        assert_eq!(fig05.fingerprint(&base), fig05.fingerprint(&grown));
        assert!(fig05.is_scenario_independent());
        assert!(!facility.is_scenario_independent());
    }

    #[test]
    fn entries_share_one_cached_inputs_handle() {
        let a: *const SharedInputs = find_entry("fig10").unwrap().inputs();
        let b: *const SharedInputs = find_entry("fig09").unwrap().inputs();
        assert_eq!(a, b, "all entries must share the same cache");
    }

    #[test]
    fn every_experiment_exposes_a_summary_scalar() {
        // Full-suite sweeps are only diffable when every experiment carries
        // a headline scalar — comparison reports must never render a
        // `(no summary scalar)` row.
        let ctx = RunContext::paper();
        for entry in entries() {
            let out = entry.build().run(&ctx);
            let scalar = out
                .summary_scalar()
                .unwrap_or_else(|| panic!("{} must expose a summary scalar", entry.key));
            assert!(
                scalar.value.is_finite(),
                "{}: summary scalar `{}` is not finite",
                entry.key,
                scalar.name
            );
            assert!(!scalar.name.is_empty() && !scalar.unit.is_empty());
        }
    }
}
