//! `dram`: per board, `char_fw::dramchar::run_dram_campaign` at 60 °C and
//! the relaxed 2.283 s refresh period, then the four Rodinia kernels
//! through `rodinia_bers` on the same server.
//!
//! One warm-up board runs the same campaign decomposed — thermal
//! settle, DPBench rounds, pattern rounds, each kernel on its own — and
//! is checked equal to the timed path. It also yields the scrubbed-word
//! count a campaign moves, which `run_dram_campaign` does not report.

use crate::report::{repeated_setup, timed_rounds, Ctx, Outcome};
use crate::stats::{fingerprint, median};
use crate::trace::{by_layer, Tracer};
use char_fw::dramchar::{rodinia_bers, run_dram_campaign, DramCampaignConfig, DramCampaignReport};
use dram_sim::patterns::DataPattern;
use fleet::{BoardSpec, FleetSpec};
use power_model::units::Celsius;
use thermal_sim::testbed::{ChannelId, ThermalTestbed};
use workload_sim::dpbench;
use workload_sim::rodinia::{suite, DynKernel, KernelConfig};
use xgene_sim::server::XGene2Server;

const SETUP_REPEATS: usize = 25;
/// Fleet seed of the one board every run characterizes. A board's cost
/// here is set by how many weak-cell rows fall inside the kernels'
/// footprint, a small Poisson count: boards drawn per seed differed up
/// to 3× in round time. This board's round time sits near the median of
/// fleet seeds 1–8, so the workload seed varies the kernel inputs and
/// the thermal testbed instead.
const BOARD_SEED: u64 = 2018;
/// Ambient temperature of the thermal testbed.
const AMBIENT_C: f64 = 25.0;
/// Seed of `run_dram_campaign`'s pattern-BER round.
const PATTERN_SEED: u64 = 0xBEEF;
/// Wait factor of `dpbench::pattern_bers`.
const PATTERN_WAIT: f64 = 1.5;

struct Fixture {
    spec: FleetSpec,
    board: BoardSpec,
    config: DramCampaignConfig,
    kernels: Vec<Box<dyn DynKernel>>,
    kernel_config: KernelConfig,
    seed: u64,
}

fn fixture(ctx: &Ctx) -> Fixture {
    let spec = FleetSpec::new(1, BOARD_SEED);
    let board = spec.board(0);
    std::hint::black_box(board.boot(spec.population));
    Fixture {
        board,
        spec,
        config: DramCampaignConfig::dsn18_60c(),
        kernels: suite(),
        // About 10⁸ word accesses across the four kernels.
        kernel_config: KernelConfig {
            scale: 96,
            iterations: 4,
            seed: ctx.seed,
            runtime_ms: 6000.0,
        },
        seed: ctx.seed,
    }
}

impl Fixture {
    fn boot(&self, tracer: &mut Tracer) -> (XGene2Server, ThermalTestbed) {
        let server = tracer.span("xgene_sim.boot", |_| self.board.boot(self.spec.population));
        (
            server,
            ThermalTestbed::new(Celsius::new(AMBIENT_C), self.seed),
        )
    }
}

type KernelRows = Vec<(String, f64, bool)>;

struct Round {
    campaign: DramCampaignReport,
    kernels: KernelRows,
    accesses: u64,
    ue_after_kernels: u64,
}

fn round(fx: &Fixture, tracer: &mut Tracer) -> Round {
    let (mut server, mut testbed) = fx.boot(tracer);
    let campaign = tracer.span("char_fw.run_dram_campaign", |_| {
        run_dram_campaign(&mut server, &mut testbed, &fx.config)
    });
    let before = server.dram().counters();
    let kernels = tracer.span("char_fw.rodinia_bers", |_| {
        rodinia_bers(&mut server, &fx.kernels, &fx.kernel_config)
    });
    let after = server.dram().counters();
    Round {
        campaign,
        kernels,
        accesses: after.reads + after.writes - before.reads - before.writes,
        ue_after_kernels: server.dram().error_log().ue_count(),
    }
}

fn round_fingerprint(r: &Round) -> u64 {
    fingerprint(format!("{:?}|{:?}", r.campaign, r.kernels).as_bytes())
}

/// The span name of one kernel's decomposed run.
fn kernel_span(name: &str) -> &'static str {
    match name {
        "backprop" => "dram_sim.kernel.backprop",
        "kmeans" => "dram_sim.kernel.kmeans",
        "nw" => "dram_sim.kernel.nw",
        "srad" => "dram_sim.kernel.srad",
        _ => "dram_sim.kernel.other",
    }
}

/// What the decomposed board measured.
struct Decomposed {
    campaign: DramCampaignReport,
    kernels: KernelRows,
    scrubbed_words: u64,
    kernel_words: Vec<(&'static str, u64)>,
    reads: u64,
    writes: u64,
    ce: u64,
    ue: u64,
}

/// `run_dram_campaign` and `rodinia_bers`, step by step.
fn decomposed(fx: &Fixture, tracer: &mut Tracer) -> Decomposed {
    let (mut server, mut testbed) = fx.boot(tracer);
    let config = fx.config;
    assert!(
        server.fault_plan().is_none(),
        "DRAM boards boot without a fault plan"
    );
    let (regulation_deviation, settled) = tracer.span("thermal_sim.settle", |_| {
        testbed.set_all_targets(config.temperature);
        testbed.run(3600.0);
        let deviation = testbed.max_deviation_over(600.0);
        (deviation, testbed.temperature(ChannelId::new(0, 0)))
    });
    server.set_dram_temperature(settled);
    server
        .set_trefp(config.trefp)
        .expect("campaign refresh periods are positive");
    let campaign = tracer.span("workload_sim.dpbench", |_| {
        dpbench::run_campaign(server.dram_mut(), config.random_rounds, config.wait_factor)
    });
    let patterns: Vec<dpbench::DpBenchRound> = tracer.span("workload_sim.dpbench", |_| {
        DataPattern::dpbench_suite(PATTERN_SEED)
            .into_iter()
            .map(|p| dpbench::run_round(server.dram_mut(), p, PATTERN_WAIT))
            .collect()
    });
    let scrubbed_words = campaign
        .rounds
        .iter()
        .chain(&patterns)
        .map(|r| r.report.words_read)
        .sum();
    let report = DramCampaignReport {
        settled_temperature: settled,
        regulation_deviation,
        unique_per_bank: campaign.unique_per_bank,
        ce_total: campaign.ce_total,
        ue_total: campaign.ue_total,
        pattern_bers: patterns
            .iter()
            .map(|r| (r.pattern.to_string(), r.ber))
            .collect(),
    };
    let mut kernels = Vec::new();
    let mut kernel_words = Vec::new();
    let (mut ce, mut ue) = (campaign.ce_total, campaign.ue_total);
    for kernel in &fx.kernels {
        let before = server.dram().counters();
        let name = kernel_span(kernel.name());
        let k = tracer.span(name, |_| {
            kernel.characterize_dyn(server.dram_mut(), &fx.kernel_config)
        });
        let after = server.dram().counters();
        kernel_words.push((
            name,
            after.reads + after.writes - before.reads - before.writes,
        ));
        ce += k.stats.corrected_errors;
        ue += k.stats.uncorrectable_errors;
        kernels.push((k.name.clone(), k.ber(), k.is_correct()));
    }
    let counters = server.dram().counters();
    Decomposed {
        campaign: report,
        kernels,
        scrubbed_words,
        kernel_words,
        reads: counters.reads,
        writes: counters.writes,
        ce,
        ue,
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        op_name: "board (boot + run_dram_campaign + rodinia_bers)",
        warmups: 1,
        ..Outcome::default()
    };
    let fx = repeated_setup(SETUP_REPEATS, &mut out.setup_s, || fixture(ctx));
    let first_span = tracer.spans().len();
    let parts = decomposed(&fx, tracer);

    let timed = timed_rounds(ctx, &mut out, || round(&fx, tracer));
    let words = |r: &Round| (r.accesses + parts.scrubbed_words) as f64;
    out.work_rates = timed.iter().map(|(r, wall)| words(r) / wall).collect();
    let rounds: Vec<Round> = timed.into_iter().map(|(r, _)| r).collect();
    let first = &rounds[0];
    let reference = round_fingerprint(first);
    let ops_per_round = 1 + fx.kernels.len() as u64;
    for (i, r) in rounds.iter().enumerate() {
        out.attempted += ops_per_round;
        let mut failed = u64::from(r.campaign.ue_total > 0);
        failed += r.kernels.iter().filter(|(_, _, correct)| !correct).count() as u64;
        if round_fingerprint(r) != reference || r.ue_after_kernels > 0 {
            failed = ops_per_round;
        }
        if failed > 0 {
            out.failed += failed;
            out.check(
                "dram.round",
                false,
                format!(
                    "round {i}: {} UEs in campaign, {} after kernels, kernels {:?}, fingerprint {:016x} vs {reference:016x}",
                    r.campaign.ue_total, r.ue_after_kernels, r.kernels, round_fingerprint(r)
                ),
            );
        }
    }
    out.check(
        "dram.repeats_identical",
        out.failed == 0,
        format!(
            "{} boards; {} UEs; unique per bank {:?}; {} CEs; fingerprint {reference:016x}",
            rounds.len(),
            first.campaign.ue_total,
            first.campaign.unique_per_bank,
            first.campaign.ce_total
        ),
    );
    let same = parts.campaign == first.campaign && parts.kernels == first.kernels;
    out.check(
        "dram.decomposed_equals_run_dram_campaign",
        same,
        "settle → DPBench → pattern rounds → kernels reproduce run_dram_campaign + rodinia_bers",
    );
    out.repeats = rounds.len() as u32;
    out.named(
        "dram_words_per_s",
        median(&out.work_rates).unwrap_or(f64::NAN),
        "1/s",
    );
    out.count("dram.scrubbed_words", parts.scrubbed_words);
    out.count("dram.kernel_accesses", first.accesses);
    out.count("dram.ce_total", first.campaign.ce_total);
    out.count("dram.ue_total", first.campaign.ue_total);
    for (bank, unique) in first.campaign.unique_per_bank.iter().enumerate() {
        out.count(&format!("dram.unique_bank{bank}"), *unique);
    }
    out.count("dram.fingerprint", reference);

    if ctx.trace {
        let layer = by_layer(tracer.spans(), first_span);
        let total = |name: &str| layer.get(name).map_or(0.0, |l| l.total_ns as f64);
        out.layer(
            "thermal_sim.settle_ms",
            total("thermal_sim.settle") / 1e6,
            "ms",
        );
        out.layer(
            "workload_sim.dpbench_ms",
            total("workload_sim.dpbench") / 1e6,
            "ms",
        );
        out.layer(
            "dram_sim.scrub_ns_per_word",
            total("workload_sim.dpbench") / parts.scrubbed_words as f64,
            "ns",
        );
        for (name, words) in &parts.kernel_words {
            let short = name.trim_start_matches("dram_sim.kernel.");
            out.layer(
                &format!("dram_sim.kernel_ns_per_word.{short}"),
                total(name) / *words as f64,
                "ns",
            );
        }
        out.layer("dram_sim.reads", parts.reads as f64, "count");
        out.layer("dram_sim.writes", parts.writes as f64, "count");
        out.layer("dram_sim.ce", parts.ce as f64, "count");
        out.layer("dram_sim.ue", parts.ue as f64, "count");
    }
    out
}
