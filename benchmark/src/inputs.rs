//! Seeded inputs: everything a workload reads is generated here from the
//! `--seed` argument — corpus, training split, router scores, arrival
//! traces. The program under test sees only these inputs, never the seed's
//! meaning or the workload's name.
//!
//! Set-up (what `setup_s` times) is: generate the corpus or traces, build
//! the accuracy dataset on the training split, train the engine, and — for
//! the two simulated workloads — score a base sample of real documents
//! with the trained engine and tile those scores up to the simulated size.

use adaparse::{
    AdaParseConfig, AdaParseEngine, CampaignBudget, CascadeConfig, ControllerConfig, DocArrival,
    RoutingGranularity, ServeConfig, SimLoopConfig, TenantSpec, TenantTrace, WorkloadSpec,
};
use docmodel::document::{DocId, Document};
use docmodel::DocCategory;
use hpcsim::{CausalityMode, ExecutorConfig};
use parsersim::ParserKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scicorpus::arrivals::{generate_arrivals, ArrivalConfig, ArrivalPattern};
use scicorpus::categories::{generate_categorized, CategoryMix};
use scicorpus::generator::GeneratorConfig;
use selector::dataset::AccuracyDataset;

use crate::trace::Tracer;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full cascade campaign, whole-document routing.
    CampaignByDoc,
    /// Full cascade campaign, per-page delegation.
    CampaignByPage,
    /// Routing only: extract, CLS I–III, windowed selection.
    RouteOnly,
    /// Causal closed loop over tiled router scores.
    SimClosedLoop,
    /// Resident multi-tenant service over arrival traces.
    ServeSoak,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::CampaignByDoc,
        Workload::CampaignByPage,
        Workload::RouteOnly,
        Workload::SimClosedLoop,
        Workload::ServeSoak,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignByDoc => "campaign_bydoc",
            Workload::CampaignByPage => "campaign_bypage",
            Workload::RouteOnly => "route_only",
            Workload::SimClosedLoop => "sim_closed_loop",
            Workload::ServeSoak => "serve_soak",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::FULL`] is frozen: changing it is a change to the
/// benchmark and needs the baseline measured again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Documents in the training split the accuracy dataset is built on.
    pub train_docs: usize,
    /// Most pages of a training document (scoring cost is quadratic in
    /// text length, so this is what keeps set-up short).
    pub train_max_pages: usize,
    /// Documents of the two campaign workloads.
    pub campaign_docs: usize,
    /// Selection window of the campaign workloads.
    pub campaign_window: usize,
    /// Documents per shard handed to a pipeline worker.
    pub shard: usize,
    /// Documents of `route_only`.
    pub route_docs: usize,
    /// Selection window of `route_only` and `sim_closed_loop`.
    pub wide_window: usize,
    /// Documents whose routing decisions are executed to measure quality
    /// on the workloads that do not parse.
    pub probe_docs: usize,
    /// Real documents scored for the simulated workloads' score pools.
    pub sim_base_docs: usize,
    /// Simulated documents of `sim_closed_loop`.
    pub sim_docs: usize,
    /// `serve_soak` arrivals are 300, 120 and 90 times this, per tenant.
    pub serve_scale: usize,
    /// Real documents scored per `serve_soak` tenant.
    pub serve_pool_docs: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        train_docs: 24,
        train_max_pages: 1,
        campaign_docs: 192,
        campaign_window: 64,
        shard: 8,
        route_docs: 4000,
        wide_window: 256,
        probe_docs: 96,
        sim_base_docs: 2048,
        sim_docs: 400_000,
        serve_scale: 1000,
        serve_pool_docs: 512,
    };

    /// A few documents per workload: every code path, a second or two.
    pub const SMOKE: Sizes = Sizes {
        train_docs: 2,
        train_max_pages: 1,
        campaign_docs: 8,
        campaign_window: 4,
        shard: 1,
        route_docs: 16,
        wide_window: 8,
        probe_docs: 4,
        sim_base_docs: 12,
        sim_docs: 2000,
        serve_scale: 3,
        serve_pool_docs: 6,
    };

    /// The sizes as a JSON object, for the run summary.
    pub fn to_json(&self) -> String {
        let fields = [
            ("train_docs", self.train_docs),
            ("train_max_pages", self.train_max_pages),
            ("campaign_docs", self.campaign_docs),
            ("campaign_window", self.campaign_window),
            ("shard", self.shard),
            ("route_docs", self.route_docs),
            ("wide_window", self.wide_window),
            ("probe_docs", self.probe_docs),
            ("sim_base_docs", self.sim_base_docs),
            ("sim_docs", self.sim_docs),
            ("serve_scale", self.serve_scale),
            ("serve_pool_docs", self.serve_pool_docs),
        ];
        let fields: Vec<String> = fields.iter().map(|(name, value)| format!("\"{name}\": {value}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Most pages of a corpus document (the training split is shorter, see
/// [`Sizes::train_max_pages`]).
const CORPUS_MAX_PAGES: usize = 4;

/// The category skew of every corpus: parser choice only matters where
/// categories differ, so the mix is heavy on scans and tables.
pub const CATEGORY_SKEW: [(DocCategory, f64); 4] = [
    (DocCategory::Scanned, 0.30),
    (DocCategory::TablesHeavy, 0.25),
    (DocCategory::Multilingual, 0.10),
    (DocCategory::CleanBornDigital, 0.35),
];

/// Pipeline workers: every core, up to four.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// The engine configuration of a workload: α = 0.1 everywhere. The
/// pipeline workloads route the binary split at the top of the quality
/// frontier (Marker), as `bench_cascade` does, which fixes the upgrade
/// dollars the cascade may spend; the simulated workloads keep the default
/// upgrade parser (Nougat), as `bench_million` and `serve_steady` do — at
/// Marker's GPU seconds the two-node service would be overloaded.
pub fn engine_config(workload: Workload) -> AdaParseConfig {
    let high_quality_parser = match workload {
        Workload::CampaignByDoc | Workload::CampaignByPage | Workload::RouteOnly => ParserKind::Marker,
        Workload::SimClosedLoop | Workload::ServeSoak => AdaParseConfig::default().high_quality_parser,
    };
    AdaParseConfig { alpha: 0.1, high_quality_parser, ..Default::default() }
}

/// The full-frontier cascade at `window`, its α rescaled so it accrues the
/// same upgrade dollars per document as the binary split at the engine's α.
pub fn cascade_config(config: &AdaParseConfig, window: usize) -> CascadeConfig {
    let mut cascade = CascadeConfig::full(config, window);
    let costliest = cascade.frontier.costliest().map_or(1.0, |entry| entry.cost_per_page);
    cascade.alpha = config.alpha * parsersim::page_dollars(config.high_quality_parser) / costliest;
    cascade
}

/// Documents and pages generated during one set-up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusCounts {
    /// Documents generated.
    pub docs: usize,
    /// Pages generated.
    pub pages: usize,
}

impl CorpusCounts {
    fn add(&mut self, docs: &[Document]) {
        self.docs += docs.len();
        self.pages += docs.iter().map(Document::page_count).sum::<usize>();
    }
}

/// What a workload body reads.
pub enum Inputs {
    /// `campaign_bydoc`, `campaign_bypage` and `route_only`.
    Corpus {
        /// The documents.
        docs: Vec<Document>,
        /// The cascade they are routed over.
        cascade: CascadeConfig,
    },
    /// `sim_closed_loop`.
    Scores {
        /// One router score per simulated document.
        scores: Vec<f64>,
        /// Shape of a simulated document.
        workload: WorkloadSpec,
        /// The closed loop's knobs.
        sim: SimLoopConfig,
    },
    /// `serve_soak`.
    Traces {
        /// Per-tenant arrival traces.
        traces: Vec<TenantTrace>,
        /// The service's knobs.
        config: ServeConfig,
    },
}

/// The product of one set-up.
pub struct Setup {
    /// The trained engine.
    pub engine: AdaParseEngine,
    /// The workload's inputs.
    pub inputs: Inputs,
    /// Documents and pages generated.
    pub counts: CorpusCounts,
}

/// Salts that keep the seeded streams of one run apart.
mod salt {
    pub const TRAIN: u64 = 0x7A11;
    pub const DATASET: u64 = 0xDA7A;
    pub const CORPUS: u64 = 0xC0A5;
    pub const PROBE: u64 = 0x9A0B;
    pub const BASE: u64 = 0xBA5E;
    pub const ROUTE: u64 = 0xBE7C;
    pub const JITTER: u64 = 0x711E;
    pub const SHUFFLE: u64 = 0x5AFF;
    pub const TENANT: u64 = 0x7E4A;
    pub const DRAW: u64 = 0x5EED;
}

/// A corpus of exactly `n` documents whose category shares follow
/// [`CATEGORY_SKEW`] and whose page counts cycle evenly over
/// `1..=max_pages` inside each category, in seeded random order.
///
/// The *shape* (how many documents of each category and length) is the
/// same for every seed; the seed picks the documents. Scoring cost is
/// quadratic in document length, so a corpus drawn freely would make
/// throughput differ between seeds by several percent for no reason a
/// change to the program could affect.
pub fn skewed_corpus(
    n: usize,
    max_pages: usize,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut CorpusCounts,
) -> Vec<Document> {
    let mut documents = Vec::with_capacity(n);
    let mut assigned = 0usize;
    let mut cumulative = 0.0;
    for (cell, &(category, share)) in CATEGORY_SKEW.iter().enumerate() {
        cumulative += share;
        let upto = if cell + 1 == CATEGORY_SKEW.len() { n } else { (cumulative * n as f64).round() as usize };
        let in_category = upto.saturating_sub(assigned);
        assigned += in_category;
        for pages in 1..=max_pages {
            // Documents j of the category with j % max_pages == pages - 1.
            let count = (in_category + max_pages - pages) / max_pages;
            if count == 0 {
                continue;
            }
            let base = GeneratorConfig { min_pages: pages, max_pages: pages, ..Default::default() };
            let mix = CategoryMix { weights: vec![(category, 1.0)] };
            let cell_seed =
                seed ^ ((cell * CORPUS_MAX_PAGES + pages) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let generated = tracer.time("scicorpus.generate_categorized", cell_seed, || {
                generate_categorized(&base, &mix, count, cell_seed)
            });
            documents.extend(generated.documents);
        }
    }
    documents.shuffle(&mut StdRng::seed_from_u64(seed ^ salt::SHUFFLE));
    for (index, doc) in documents.iter_mut().enumerate() {
        doc.id = DocId(index as u64);
    }
    counts.add(&documents);
    documents
}

/// The stratified probe whose routing decisions are executed to measure
/// quality on workloads that parse nothing themselves.
pub fn probe_corpus(documents: usize, seed: u64) -> Vec<Document> {
    skewed_corpus(
        documents,
        CORPUS_MAX_PAGES,
        seed ^ salt::PROBE,
        &mut Tracer::disabled(),
        &mut CorpusCounts::default(),
    )
}

fn train_engine(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut CorpusCounts,
) -> AdaParseEngine {
    let split = skewed_corpus(sizes.train_docs, sizes.train_max_pages, seed ^ salt::TRAIN, tracer, counts);
    let dataset = tracer.time("selector.AccuracyDataset::build", seed, || {
        AccuracyDataset::build(&split, seed ^ salt::DATASET, 1.0)
    });
    let mut engine = AdaParseEngine::new(engine_config(workload));
    tracer.time("selector.AdaParseEngine::train", seed, || engine.train(&dataset, &[]));
    engine
}

/// Router scores of `documents` under the trained engine (CLS I sentinels
/// included), as `bench_million` measures them.
fn router_scores(
    engine: &AdaParseEngine,
    documents: &[Document],
    seed: u64,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let routed = tracer.time("engine.route_documents", documents.len() as u64, || {
        engine.route_documents(documents, seed ^ salt::ROUTE)
    });
    routed.iter().map(|r| r.predicted_improvement).collect()
}

/// Set one workload up from `seed`.
pub fn set_up(workload: Workload, sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> Setup {
    let root = tracer.begin("setup.set_up", seed);
    let mut counts = CorpusCounts::default();
    let engine = train_engine(workload, sizes, seed, tracer, &mut counts);
    let config = engine.config().clone();
    let inputs = match workload {
        Workload::CampaignByDoc | Workload::CampaignByPage => {
            let docs = skewed_corpus(
                sizes.campaign_docs,
                CORPUS_MAX_PAGES,
                seed ^ salt::CORPUS,
                tracer,
                &mut counts,
            );
            let cascade = cascade_config(&config, sizes.campaign_window);
            let cascade = if workload == Workload::CampaignByPage { cascade.by_page() } else { cascade };
            Inputs::Corpus { docs, cascade }
        }
        Workload::RouteOnly => {
            // The first `probe_docs` documents are a stratified block of
            // their own, so that executing *this workload's* decisions on
            // them measures quality on the same shape for every seed.
            let probe = sizes.probe_docs.min(sizes.route_docs);
            let mut docs = probe_corpus(probe, seed);
            counts.add(&docs);
            let rest = sizes.route_docs - probe;
            docs.extend(skewed_corpus(rest, CORPUS_MAX_PAGES, seed ^ salt::CORPUS, tracer, &mut counts));
            for (index, doc) in docs.iter_mut().enumerate() {
                doc.id = DocId(index as u64);
            }
            Inputs::Corpus { docs, cascade: cascade_config(&config, sizes.wide_window) }
        }
        Workload::SimClosedLoop => {
            let base =
                skewed_corpus(sizes.sim_base_docs, CORPUS_MAX_PAGES, seed ^ salt::BASE, tracer, &mut counts);
            let pool = router_scores(&engine, &base, seed, tracer);
            // Tile with ±0.1 % seeded jitter; the CLS I sentinels tile
            // untouched so their routing meaning survives.
            let mut rng = StdRng::seed_from_u64(seed ^ salt::JITTER);
            let scores = (0..sizes.sim_docs)
                .map(|i| {
                    let score = pool[i % pool.len()];
                    if score.is_finite() && score.abs() < 1e9 {
                        score * (1.0 + 1e-3 * rng.gen_range(-1.0..1.0))
                    } else {
                        score
                    }
                })
                .collect();
            Inputs::Scores {
                scores,
                workload: WorkloadSpec { documents: sizes.sim_docs, pages_per_doc: 8, mb_per_doc: 20.0 },
                sim: SimLoopConfig {
                    window: sizes.wide_window,
                    nodes: 4,
                    controller: ControllerConfig { total_workers: 8, patience: 1, ..Default::default() },
                    executor: ExecutorConfig { causality: CausalityMode::Causal, ..Default::default() },
                    ..Default::default()
                },
            }
        }
        Workload::ServeSoak => {
            let traces = serve_traces(&engine, sizes, seed, tracer, &mut counts);
            let config = ServeConfig {
                engine: config,
                epoch_seconds: 10.0,
                nodes: 2,
                retirement: true,
                ..Default::default()
            };
            Inputs::Traces { traces, config }
        }
    };
    tracer.end(root);
    Setup { engine, inputs, counts }
}

/// One `serve_soak` tenant: its contract, its traffic, and the category
/// mix of the documents it sends.
struct TenantPlan {
    spec: TenantSpec,
    arrivals_per_scale: usize,
    rate_per_second: f64,
    pattern: ArrivalPattern,
    mix: CategoryMix,
}

/// Bound on each tenant's admission queue. Bursts arrive
/// [`BURST_SIZE`] documents at a time; the bound is several bursts deep so
/// that no arrival is rejected at the reference size — a rejection in a
/// later run is a failed operation, not part of the workload.
const MAX_PENDING: usize = 4096;

/// Documents per burst of the bursty tenant.
const BURST_SIZE: usize = 256;

fn tenant_plans(scale: usize) -> Vec<TenantPlan> {
    let workload = WorkloadSpec { documents: 0, pages_per_doc: 8, mb_per_doc: 50.0 };
    let spec = |name: &str, alpha: f64, weight: f64| TenantSpec {
        name: name.to_string(),
        alpha,
        weight,
        max_pending: MAX_PENDING,
        workload,
        ..Default::default()
    };
    vec![
        TenantPlan {
            spec: spec("steady-volume", 0.25, 2.0),
            arrivals_per_scale: 300,
            rate_per_second: 0.8,
            pattern: ArrivalPattern::Steady,
            mix: CategoryMix { weights: CATEGORY_SKEW.to_vec() },
        },
        TenantPlan {
            spec: TenantSpec { granularity: RoutingGranularity::ByPage, ..spec("diurnal-bypage", 0.15, 1.0) },
            arrivals_per_scale: 120,
            rate_per_second: 0.35,
            pattern: ArrivalPattern::Diurnal { period_seconds: 600.0 },
            mix: CategoryMix {
                weights: vec![
                    (DocCategory::Scanned, 0.60),
                    (DocCategory::TablesHeavy, 0.20),
                    (DocCategory::Multilingual, 0.10),
                    (DocCategory::CleanBornDigital, 0.10),
                ],
            },
        },
        TenantPlan {
            spec: TenantSpec {
                budget: Some(CampaignBudget::seconds(4_000.0 * scale as f64)),
                ..spec("budgeted-bursty", 0.35, 1.0)
            },
            arrivals_per_scale: 90,
            rate_per_second: 0.25,
            pattern: ArrivalPattern::Bursty { burst_size: BURST_SIZE },
            mix: CategoryMix::paper_default(),
        },
    ]
}

/// The three tenants' traces: seeded arrival times, each arrival's score
/// drawn from the trained engine's scores on real documents of the
/// tenant's own category mix.
fn serve_traces(
    engine: &AdaParseEngine,
    sizes: &Sizes,
    seed: u64,
    tracer: &mut Tracer,
    counts: &mut CorpusCounts,
) -> Vec<TenantTrace> {
    let base = GeneratorConfig { min_pages: 1, max_pages: CORPUS_MAX_PAGES, ..Default::default() };
    tenant_plans(sizes.serve_scale)
        .into_iter()
        .enumerate()
        .map(|(tenant, plan)| {
            let tenant_seed = seed ^ salt::TENANT.wrapping_mul(tenant as u64 + 1);
            let pool_docs = tracer.time("scicorpus.generate_categorized", tenant_seed, || {
                generate_categorized(&base, &plan.mix, sizes.serve_pool_docs, tenant_seed).documents
            });
            counts.add(&pool_docs);
            let pool = router_scores(engine, &pool_docs, tenant_seed, tracer);
            let arrival_config = ArrivalConfig {
                n_documents: plan.arrivals_per_scale * sizes.serve_scale,
                seed: tenant_seed,
                mean_rate_per_second: plan.rate_per_second,
                pattern: plan.pattern,
            };
            let times = tracer
                .time("scicorpus.generate_arrivals", tenant_seed, || generate_arrivals(&arrival_config));
            let mut rng = StdRng::seed_from_u64(tenant_seed ^ salt::DRAW);
            let arrivals = times
                .into_iter()
                .map(|arrival| DocArrival {
                    at_seconds: arrival.at_seconds,
                    score: pool[rng.gen_range(0..pool.len())],
                })
                .collect();
            TenantTrace { spec: plan.spec, arrivals }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n: usize, max_pages: usize, seed: u64) -> Vec<Document> {
        skewed_corpus(n, max_pages, seed, &mut Tracer::disabled(), &mut CorpusCounts::default())
    }

    #[test]
    fn skewed_corpus_has_the_same_shape_for_every_seed() {
        let shape = |docs: &[Document]| {
            let mut pages: Vec<usize> = docs.iter().map(Document::page_count).collect();
            pages.sort_unstable();
            pages
        };
        let (a, b) = (corpus(192, 4, 1), corpus(192, 4, 2));
        assert_eq!(a.len(), 192);
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(a, b, "the seed picks the documents");
        assert_eq!(corpus(192, 4, 1), a, "and the same seed picks the same ones");
        // Page counts cycle inside each of the four categories, so each
        // length holds a quarter of the corpus give or take one per category.
        for pages in 1..=4 {
            let count = a.iter().filter(|d| d.page_count() == pages).count();
            assert!((46..=50).contains(&count), "{count} documents of {pages} pages");
        }
        assert!(a.iter().enumerate().all(|(i, d)| d.id.0 == i as u64));
    }

    #[test]
    fn skewed_corpus_sizes_are_exact_even_when_tiny() {
        for n in [0, 1, 3, 7, 24, 97] {
            assert_eq!(corpus(n, 2, 5).len(), n);
        }
    }

    #[test]
    fn sizes_render_as_a_json_object() {
        let json = Sizes::SMOKE.to_json();
        assert!(json.starts_with("{\"train_docs\": 2, \"train_max_pages\": 1, "), "{json}");
        assert!(json.ends_with(", \"serve_pool_docs\": 6}"), "{json}");
    }

    #[test]
    fn workload_names_round_trip_and_match_the_tables() {
        for (workload, (name, _)) in Workload::ALL.iter().zip(crate::metrics::WORKLOADS) {
            assert_eq!(workload.name(), *name);
            assert_eq!(Workload::from_name(name), Some(*workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
