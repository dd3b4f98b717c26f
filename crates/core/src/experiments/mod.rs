//! One experiment per paper figure/table, plus extensions.
//!
//! The [`entries`] registry is the only definition of an experiment: one
//! [`Entry`] row per experiment holds its stable key, its title and caption,
//! its topic tags, its declared scenario-dependency set and the function(s)
//! computing it, and the row itself runs the experiment ([`Entry::run`]).
//! The registry drives the `repro` binary, the sweep cache and the generated
//! scenario reference. Each module holds only model code: a
//! `pub fn run(&RunContext) -> ExperimentOutput` that executes the *models*
//! under the context (not hard-coded answers): e.g. Fig 10 runs the SoC
//! simulator and the amortization solver end to end against the context's
//! grid and lifetime. Dependency declarations ([`Entry::deps`]) are verified
//! against the fields each experiment actually reads by the read-tracking
//! test in this module, so a sweep runner may safely reuse output across
//! grid points whose declared fields agree.
//!
//! An entry's output is assembled from one or more [`Part`]s, each with its
//! own dependency list and cache key. Almost every entry is one part keyed
//! by the entry itself, computed by its module's `run`; an experiment whose
//! panels read disjoint fields (`ext-mc`) splits into parts so a cache
//! recomputes only the panels whose fields moved.

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

use cc_report::{ExperimentId, ExperimentOutput, RunContext, ScenarioPath};

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
/// scenario fields it reads, and the function computing it. An entry's
/// [`Entry::run`] runs its parts in order and joins them with
/// [`ExperimentOutput::append`]; the engine does the same with each part
/// taken from its cache.
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

/// A registry entry, and the experiment itself: its stable key, its title
/// and caption, its topic tags, its declared scenario-dependency set and its
/// parts. Entries are `'static` and `Copy`, cheap to scan and to share
/// across the worker threads of a parallel run.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Stable command-line key (`fig10`, `table2`, `ext-mc`).
    pub key: &'static str,
    /// Topic tags for filtering.
    pub tags: &'static [Tag],
    title: ExperimentId,
    caption: &'static str,
    deps: &'static [ScenarioPath],
    parts: &'static [Part],
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

    /// Which figure/table this reproduces.
    #[must_use]
    pub fn id(&self) -> ExperimentId {
        self.title
    }

    /// One-line description (the figure caption, abbreviated).
    #[must_use]
    pub fn description(&self) -> &'static str {
        self.caption
    }

    /// Runs the parts under `ctx`'s scenario, in order, and joins them with
    /// [`ExperimentOutput::append`]. With [`RunContext::paper`] the output
    /// reproduces the paper's numbers. The output is a deterministic
    /// function of the context (`ext-mc` derives its randomness from the
    /// context's seed).
    pub fn run(&self, ctx: &RunContext) -> ExperimentOutput {
        let (first, rest) = self.parts.split_first().expect("every entry has a part");
        let mut out = (first.run)(ctx);
        for part in rest {
            out.append(&(part.run)(ctx));
        }
        out
    }

    /// The entry, boxed. Nothing in the workspace calls it: it stays only
    /// for the benchmark harness's replay (`perfbench/`), which ROADMAP
    /// direction 5 deletes.
    #[must_use]
    pub fn build(&self) -> Box<Entry> {
        Box::new(*self)
    }

    /// Whether the entry carries `tag`.
    #[must_use]
    pub fn has_tag(&self, tag: Tag) -> bool {
        self.tags.contains(&tag)
    }
}

/// One registry row. An entry computed whole names its module's `run`; an
/// entry split into parts lists each part's key, function and deps instead.
macro_rules! entry {
    (
        key: $key:literal, title: $kind:ident($n:literal), run: $run:path,
        caption: $caption:literal,
        tags: [$($tag:ident),+], deps: [$($dep:literal),*],
    ) => {
        entry! {
            key: $key, title: $kind($n),
            caption: $caption,
            tags: [$($tag),+], deps: [$($dep),*],
            parts: [($key, $run, [$($dep),*])],
        }
    };
    (
        key: $key:literal, title: $kind:ident($n:literal),
        caption: $caption:literal,
        tags: [$($tag:ident),+], deps: [$($dep:literal),*],
        parts: [$(($part:literal, $run:path, [$($part_dep:literal),*])),+ $(,)?],
    ) => {
        Entry {
            key: $key,
            tags: &[$(Tag::$tag),+],
            title: ExperimentId::$kind($n),
            caption: $caption,
            deps: &[$(ScenarioPath::of($dep)),*],
            parts: &[$(Part {
                key: $part,
                deps: &[$(ScenarioPath::of($part_dep)),*],
                run: $run,
            }),+],
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
    entry! {
        key: "fig01", title: Figure(1), run: fig01::run,
        caption: "Projected global ICT energy consumption 2010-2030, optimistic vs expected",
        tags: [Figure, Energy], deps: [],
    },
    entry! {
        key: "fig02", title: Figure(2), run: fig02::run,
        caption: "Prineville energy vs operational carbon; opex/capex pies for iPhones and Facebook",
        tags: [Figure, Datacenter, Corporate], deps: ["fleet.*", "grid.intensity"],
    },
    entry! {
        key: "fig03", title: Figure(3), run: fig03::run,
        caption: "GHG Protocol taxonomy: Scope 1 (direct), Scope 2 (purchased energy), Scope 3 (supply chain)",
        tags: [Figure, Corporate], deps: [],
    },
    entry! {
        key: "fig04", title: Figure(4), run: fig04::run,
        caption: "Hardware life cycle: production, transport, use, end-of-life -> capex/opex",
        tags: [Figure, Device], deps: [],
    },
    entry! {
        key: "fig05", title: Figure(5), run: fig05::run,
        caption: "Apple FY2019 footprint: manufacturing 74%, product use 19%, ICs 33% of total",
        tags: [Figure, Corporate], deps: [],
    },
    entry! {
        key: "fig06", title: Figure(6), run: fig06::run,
        caption: "Capex/opex breakdown (top) and absolute footprint (bottom) by device category",
        tags: [Figure, Device], deps: [],
    },
    entry! {
        key: "fig07", title: Figure(7), run: fig07::run,
        caption: "Generational trends: manufacturing share rises across iPhones, Watches, iPads",
        tags: [Figure, Device], deps: [],
    },
    entry! {
        key: "fig08", title: Figure(8), run: fig08::run,
        caption: "MobileNet v1 throughput vs manufacturing CO2e; Pareto frontiers 2017 vs 2019",
        tags: [Figure, Mobile, Device], deps: [],
    },
    entry! {
        key: "fig09", title: Figure(9), run: fig09::run,
        caption: "Inference latency (top) and energy (bottom) per CNN and compute unit on Pixel 3",
        tags: [Figure, Mobile], deps: [],
    },
    entry! {
        key: "fig10", title: Figure(10), run: fig10::run,
        caption: "Inferences (top) and days (bottom) until operational carbon equals SoC manufacturing",
        tags: [Figure, Mobile], deps: ["device.*", "grid.intensity", "grid.renewable_fraction"],
    },
    entry! {
        key: "fig11", title: Figure(11), run: fig11::run,
        caption: "Facebook (2014-2019) and Google (2013-2018) footprints by scope",
        tags: [Figure, Corporate, Datacenter], deps: ["fleet.*", "grid.intensity"],
    },
    entry! {
        key: "fig12", title: Figure(12), run: fig12::run,
        caption: "Facebook 2019 Scope 3: capital goods 48%, purchased goods 39%, travel 10%, other 3%",
        tags: [Figure, Corporate], deps: [],
    },
    entry! {
        key: "fig13", title: Figure(13), run: fig13::run,
        caption: "Intel/AMD life-cycle breakdown as hardware use shifts to greener energy",
        tags: [Figure, Energy, Corporate], deps: ["grid.intensity", "grid.renewable_fraction"],
    },
    entry! {
        key: "fig14", title: Figure(14), run: fig14::run,
        caption: "TSMC wafer footprint under 1x-64x greener electricity; ~2.7x overall reduction",
        tags: [Figure, Fab], deps: [],
    },
    entry! {
        key: "fig15", title: Figure(15), run: fig15::run,
        caption: "Cross-layer optimization opportunities across the computing stack",
        tags: [Figure], deps: [],
    },
    entry! {
        key: "table1", title: Table(1), run: table1::run,
        caption: "Salient Scope 1/2/3 emissions for chip manufacturers, mobile vendors, DC operators",
        tags: [Table, Corporate], deps: [],
    },
    entry! {
        key: "table2", title: Table(2), run: table2::run,
        caption: "Carbon intensity and energy-payback time per generation source",
        tags: [Table, Energy], deps: [],
    },
    entry! {
        key: "table3", title: Table(3), run: table3::run,
        caption: "Average grid carbon intensity by geography with dominant source",
        tags: [Table, Energy], deps: [],
    },
    entry! {
        key: "table4", title: Table(4), run: table4::run,
        caption: "Mac Pro base vs scaled-up configuration: 2.7x manufacturing CO2",
        tags: [Table, Device], deps: [],
    },
    entry! {
        key: "ext-die", title: Extension("die"), run: ext_die::run,
        caption: "Die-level embodied carbon by process node and die area (yield-aware)",
        tags: [Extension, Fab], deps: ["fab.node_nm", "fab.yield_factor"],
    },
    entry! {
        key: "ext-dvfs", title: Extension("dvfs"), run: ext_dvfs::run,
        caption: "DVFS sweep on the Pixel 3 CPU: latency vs energy vs amortization time",
        tags: [Extension, Mobile],
        deps: ["device.soc_budget_share", "grid.intensity", "grid.renewable_fraction"],
    },
    entry! {
        key: "ext-hetero", title: Extension("hetero"), run: ext_hetero::run,
        caption: "Specialized accelerators vs general-purpose fleets: yearly opex+capex carbon",
        tags: [Extension, Datacenter],
        deps: ["fleet.scale", "grid.intensity", "grid.renewable_fraction"],
    },
    entry! {
        key: "ext-fab", title: Extension("fab"), run: ext_fab::run,
        caption: "A 7.7 TWh/yr 3nm fab under rising renewable coverage: Scope 1 vs Scope 2",
        tags: [Extension, Fab], deps: ["fab.renewable_share"],
    },
    entry! {
        key: "ext-mc", title: Extension("mc"),
        caption: "Monte-Carlo robustness of the headline claims under input uncertainty",
        tags: [Extension],
        deps: ["device.soc_budget_share", "grid.intensity", "grid.renewable_fraction", "mc.*"],
        parts: [
            (
                "ext-mc.fig10",
                ext_mc::fig10_breakeven,
                ["device.soc_budget_share", "grid.intensity", "grid.renewable_fraction", "mc.*"]
            ),
            ("ext-mc.fig11", ext_mc::fig11_capex_opex, ["mc.*"]),
            ("ext-mc.fig14", ext_mc::fig14_wafer_reduction, ["mc.*"]),
        ],
    },
    entry! {
        key: "ext-facility", title: Extension("facility"), run: ext_facility::run,
        caption: "Scenario facility over the planning horizon: operational vs embodied carbon, break-even year",
        tags: [Extension, Datacenter], deps: ["fleet.*", "grid.intensity"],
    },
    entry! {
        key: "ext-scheduler", title: Extension("scheduler"), run: ext_scheduler::run,
        caption: "Multi-site carbon-aware placement: defer and migrate batch load across regions vs static",
        tags: [Extension, Datacenter, Energy], deps: ["fleet.*", "grid.regions"],
    },
];

/// Every registry entry, in presentation order: figures 1–15, tables I–IV,
/// then extensions.
#[must_use]
pub fn entries() -> &'static [Entry] {
    &ENTRIES
}

/// Finds a registry entry by its command-line key (`fig10`, `table2`,
/// `ext-mc`).
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

#[cfg(test)]
mod tests {
    use super::*;
    use cc_report::{RunContext, Scenario};

    /// The key a title implies: `Figure 14` is `fig14`, `Table II` is
    /// `table2`, ``Extension `mc` `` is `ext-mc`.
    fn key_of(title: ExperimentId) -> String {
        match title {
            ExperimentId::Figure(n) => format!("fig{n:02}"),
            ExperimentId::Table(n) => format!("table{n}"),
            ExperimentId::Extension(name) => format!("ext-{name}"),
        }
    }

    #[test]
    fn registry_is_complete() {
        assert_eq!(entries().len(), 26);
        // 15 figures, 4 tables, 7 extensions.
        let figs = entries()
            .iter()
            .filter(|e| matches!(e.id(), ExperimentId::Figure(_)))
            .count();
        assert_eq!(figs, 15);
        for entry in entries() {
            let kind = match entry.id() {
                ExperimentId::Figure(_) => Tag::Figure,
                ExperimentId::Table(_) => Tag::Table,
                ExperimentId::Extension(_) => Tag::Extension,
            };
            assert!(
                entry.has_tag(kind),
                "`{}` lacks its title's kind tag",
                entry.key
            );
        }
    }

    #[test]
    fn keys_are_unique_and_resolvable() {
        let mut keys: Vec<&str> = entries().iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 26, "keys must be unique");
        for entry in entries() {
            assert_eq!(find_entry(entry.key).map(|e| e.key), Some(entry.key));
        }
        assert!(find_entry("fig99").is_none());
    }

    #[test]
    fn entry_keys_match_experiment_ids() {
        for entry in entries() {
            assert_eq!(
                entry.key,
                key_of(entry.id()),
                "`{}`: key and title disagree",
                entry.key
            );
            assert!(
                !entry.description().is_empty(),
                "`{}` has no caption",
                entry.key
            );
        }
        for (key, title) in [
            ("fig14", "Figure 14"),
            ("table2", "Table II"),
            ("ext-mc", "Extension `mc`"),
        ] {
            assert_eq!(find_entry(key).unwrap().id().to_string(), title);
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
        for e in entries() {
            let out = e.run(&ctx);
            assert!(
                !out.tables.is_empty() || !out.notes.is_empty(),
                "{} produced nothing",
                e.id()
            );
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
                entry.run(&ctx);
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
    fn every_experiment_exposes_a_summary_scalar() {
        // Full-suite sweeps are only diffable when every experiment carries
        // a headline scalar — comparison reports must never render a
        // `(no summary scalar)` row.
        let ctx = RunContext::paper();
        for entry in entries() {
            let out = entry.run(&ctx);
            let scalar = out
                .scalars
                .first()
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
