//! `redteam`: `redteam::run_campaign(CampaignConfig::dsn18(..))` at
//! `nproc` workers, then `replay_fleet` of the champion against the
//! hardened net (and against the seed net, to check the campaign's own
//! score).
//!
//! The traced run also replays the champion episode on every board
//! twice: once through `run_episode`, once decomposed into board boot
//! and the safety-net epoch loop, and checks both reports are equal.

use crate::report::{ms, repeated_setup, timed_rounds, Ctx, Outcome};
use crate::stats::{fingerprint, median};
use crate::trace::{by_layer, Tracer};
use dram_sim::retention::PopulationSpec;
use fleet::BoardSpec;
use guardband_core::governor::OnlineGovernor;
use guardband_core::safety::SafetyNet;
use redteam::{
    replay_fleet, run_campaign, run_episode, AttackScenario, CampaignConfig, EpisodeReport,
};
use std::time::Instant;
use stress_gen::ga::genome_profile;
use workload_sim::tenant::ColocationSchedule;
use xgene_sim::fault::FaultPlan;
use xgene_sim::pdn::PdnModel;
use xgene_sim::workload::WorkloadProfile;

/// Boards the campaign attacks.
const BOARDS: u32 = 6;
const SETUP_REPEATS: usize = 15;
/// Fault-plan stream domain of `run_episode` (`redteam::episode`).
const FAULT_DOMAIN: u64 = 0x5DC;
/// `genome_profile` calls per timing sample.
const PROFILE_CALLS: u32 = 50;
/// Passes of the traced run over the boards' champion episodes.
const EPISODE_PASSES: usize = 4;

struct Fixture {
    config: CampaignConfig,
    hardened: AttackScenario,
    boards: Vec<BoardSpec>,
}

fn fixture(ctx: &Ctx) -> Fixture {
    let mut config = CampaignConfig::dsn18(BOARDS, ctx.seed);
    config.workers = ctx.nproc;
    let hardened = AttackScenario::hardened(config.scenario.epochs);
    let boards: Vec<BoardSpec> = config.fleet.all_boards().collect();
    // Warm-up: every board boots once.
    for board in &boards {
        std::hint::black_box(board.boot(PopulationSpec::dsn18()));
    }
    Fixture {
        config,
        hardened,
        boards,
    }
}

struct Round {
    chronicle: u64,
    episodes: u64,
    champion_escapes: u64,
    seed_net_escapes: u64,
    hardened_escapes: u64,
    hardened_detected: usize,
    replay_s: f64,
    champion: WorkloadProfile,
    report: redteam::CampaignReport,
}

fn round(fx: &Fixture, nproc: usize, tracer: &mut Tracer) -> Round {
    let report = tracer.span("redteam.run_campaign", |_| run_campaign(&fx.config));
    let champion = report.champion_profile();
    let hardened = tracer.span("redteam.replay_fleet", |_| {
        replay_fleet(&fx.config.fleet, Some(&champion), &fx.hardened, nproc)
    });
    let start = Instant::now();
    let seed_net = tracer.span("redteam.replay_fleet", |_| {
        replay_fleet(
            &fx.config.fleet,
            Some(&champion),
            &fx.config.scenario,
            nproc,
        )
    });
    let replay_s = start.elapsed().as_secs_f64();
    let ga = &fx.config.ga;
    let campaign_episodes = (ga.population * ga.generations) as u64 * u64::from(BOARDS);
    Round {
        chronicle: fingerprint(report.chronicle_json().as_bytes()),
        episodes: campaign_episodes + (hardened.len() + seed_net.len()) as u64,
        // Fitness is escapes plus a shaping term below 1.
        champion_escapes: report.champion_fitness.floor() as u64,
        seed_net_escapes: seed_net.iter().map(|r| r.escaped_sdcs).sum(),
        hardened_escapes: hardened.iter().map(|r| r.escaped_sdcs).sum(),
        hardened_detected: hardened
            .iter()
            .filter(|r| r.detection_epoch.is_some())
            .count(),
        replay_s,
        champion,
        report,
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        op_name: "round (run_campaign + 2 replays)",
        ..Outcome::default()
    };
    let fx = repeated_setup(SETUP_REPEATS, &mut out.setup_s, || fixture(ctx));

    let timed = timed_rounds(ctx, &mut out, || round(&fx, ctx.nproc, tracer));
    out.work_rates = timed
        .iter()
        .map(|(r, wall)| r.episodes as f64 / wall)
        .collect();
    let rounds: Vec<Round> = timed.into_iter().map(|(r, _)| r).collect();
    let first = &rounds[0];
    for (i, r) in rounds.iter().enumerate() {
        out.attempted += r.episodes;
        // The seed net leaks or holds depending on the fleet; the replay
        // of the champion against it must reproduce the campaign's own
        // score either way, and the hardened net must hold.
        let ok = r.chronicle == first.chronicle
            && r.seed_net_escapes == r.champion_escapes
            && r.hardened_escapes == 0;
        if !ok {
            out.failed += r.episodes;
            out.check(
                "redteam.round",
                false,
                format!(
                    "round {i}: chronicle {:016x} vs {:016x}; champion scored {} escapes, seed-net replay {}; hardened escapes {}",
                    r.chronicle, first.chronicle, r.champion_escapes, r.seed_net_escapes,
                    r.hardened_escapes
                ),
            );
        }
    }
    out.check(
        "redteam.repeats_identical",
        out.failed == 0,
        format!(
            "{} rounds; chronicle {:016x}; seed net {} escapes (champion scored {}); hardened net {} escapes",
            rounds.len(),
            first.chronicle,
            first.seed_net_escapes,
            first.champion_escapes,
            first.hardened_escapes
        ),
    );
    out.repeats = rounds.len() as u32;
    out.named(
        "redteam_episodes_per_s",
        median(&out.work_rates).unwrap_or(f64::NAN),
        "1/s",
    );
    out.count("redteam.episodes", first.episodes);
    out.count("redteam.campaign_escapes", first.report.total_escapes());
    out.count("redteam.seed_net_escapes", first.seed_net_escapes);
    out.count("redteam.hardened_escapes", first.hardened_escapes);
    out.count(
        "redteam.hardened_detections",
        first.hardened_detected as u64,
    );
    out.count("redteam.chronicle_fingerprint", first.chronicle);

    if ctx.trace {
        let replay_wall: Vec<f64> = rounds.iter().map(|r| r.replay_s).collect();
        let replay_s = median(&replay_wall).unwrap_or(f64::NAN);
        layers(&fx, first, ctx, replay_s, tracer, &mut out);
    }
    out
}

/// `run_episode`, step by step.
fn decomposed(
    board: &BoardSpec,
    attacker: &WorkloadProfile,
    scenario: &AttackScenario,
    tracer: &mut Tracer,
) -> EpisodeReport {
    tracer.span("redteam.episode_decomposed", |t| {
        let mut server = t.span("xgene_sim.boot", |_| board.boot(PopulationSpec::dsn18()));
        let fault_seed = board.boot_seed ^ FAULT_DOMAIN.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        server.install_fault_plan(FaultPlan::quiet(fault_seed).with_sub_vmin_sdc());
        let report = t.span("redteam.epoch_loop", |_| {
            let victim_core = server.chip().weakest_core();
            let mut schedule =
                ColocationSchedule::shared(victim_core, scenario.victim.clone(), attacker.clone());
            let mut governor = OnlineGovernor::new(None, None, scenario.governor);
            let mut net = SafetyNet::new(scenario.safety);
            let mut commanded_sum = 0u64;
            for epoch in 0..scenario.epochs {
                let victim = schedule.victim.profile.clone();
                let assignments = if epoch >= scenario.onset_epoch {
                    schedule.co_tenant_assignments()
                } else {
                    Vec::new()
                };
                let report = net.run_epoch_colocated(
                    &mut server,
                    &mut governor,
                    victim_core,
                    &victim,
                    &assignments,
                );
                commanded_sum += u64::from(report.commanded.as_u32());
                if net.attacker_quarantined() && schedule.neighbor.is_some() {
                    schedule.evict_neighbor();
                }
            }
            let stats = net.stats();
            let audit = net.audit();
            EpisodeReport {
                board: board.id,
                epochs: scenario.epochs,
                victim_true_sdcs: audit.workload_true_sdcs,
                escaped_sdcs: audit.escaped_sdcs,
                detection_epoch: stats.first_detection_epoch,
                attacker_quarantined: net.attacker_quarantined(),
                breaker_trips: net.breaker_trips(),
                cadence_tightenings: stats.cadence_tightenings,
                sentinel_checks: net.sentinel_stats().checks,
                mean_commanded_mv: if scenario.epochs == 0 {
                    0.0
                } else {
                    commanded_sum as f64 / f64::from(scenario.epochs)
                },
            }
        });
        t.span("xgene_sim.drop", |_| drop(server));
        report
    })
}

fn layers(
    fx: &Fixture,
    first: &Round,
    ctx: &Ctx,
    replay_s: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let first_span = tracer.spans().len();
    let scenario = &fx.config.scenario;
    let mut mismatched = Vec::new();
    let (mut checks, mut trips, mut escapes) = (0u64, 0u64, 0u64);
    let episodes = (0..EPISODE_PASSES).flat_map(|_| fx.boards.iter());
    for (i, board) in episodes.enumerate() {
        tracer.set_op(i as u64 + 1);
        let exec = |t: &mut Tracer| {
            t.span("redteam.episode", |_| {
                run_episode(board, Some(&first.champion), scenario)
            })
        };
        let (whole, parts) = if i % 2 == 0 {
            let whole = exec(tracer);
            (whole, decomposed(board, &first.champion, scenario, tracer))
        } else {
            let parts = decomposed(board, &first.champion, scenario, tracer);
            (exec(tracer), parts)
        };
        if whole != parts && !mismatched.contains(&board.id) {
            mismatched.push(board.id);
        }
        if i < fx.boards.len() {
            checks += whole.sentinel_checks;
            trips += whole.breaker_trips;
            escapes += whole.escaped_sdcs;
        }
    }
    let genome = &first.report.champion;
    let pdn = PdnModel::xgene2();
    for _ in 0..PROFILE_CALLS {
        tracer.span("stress_gen.genome_profile", |_| {
            std::hint::black_box(genome_profile("redteam-virus", genome, &pdn))
        });
    }
    tracer.set_op(0);
    let boards = fx.boards.len() as f64;
    let episodes = boards * EPISODE_PASSES as f64;
    out.attempted += episodes as u64;
    out.failed += mismatched.len() as u64;
    out.check(
        "redteam.decomposed_equals_run_episode",
        mismatched.is_empty(),
        format!("{episodes} episodes decomposed; mismatched boards: {mismatched:?}"),
    );

    let layer = by_layer(tracer.spans(), first_span);
    let total = |name: &str| layer.get(name).map_or(0.0, |l| l.total_ns as f64);
    let episode_ms = ms(total("redteam.episode")) / episodes;
    let boot_ms = ms(total("xgene_sim.boot")) / episodes;
    out.layer("redteam.episode_ms", episode_ms, "ms");
    out.layer("redteam.boot_ms", boot_ms, "ms");
    out.layer(
        "redteam.epoch_us",
        total("redteam.epoch_loop") / 1e3 / (episodes * f64::from(scenario.epochs)),
        "us",
    );
    out.layer(
        "redteam.layer_sum_ratio",
        (total("xgene_sim.boot") + total("redteam.epoch_loop") + total("xgene_sim.drop"))
            / total("redteam.episode"),
        "ratio",
    );
    out.layer(
        "stress_gen.genome_profile_us",
        total("stress_gen.genome_profile") / 1e3 / f64::from(PROFILE_CALLS),
        "us",
    );
    // The champion's seed-net replay runs exactly these episodes on the
    // hand-rolled parallel map the campaign uses: Σ of their serial
    // times (one pass) over the replay's wall time on `nproc` workers.
    out.layer(
        "redteam.parallel_efficiency",
        total("redteam.episode") / EPISODE_PASSES as f64 / 1e9 / (replay_s * ctx.nproc as f64),
        "ratio",
    );
    out.layer("redteam.sentinel_checks", checks as f64 / boards, "count");
    out.layer("redteam.breaker_trips", trips as f64 / boards, "count");
    out.layer("redteam.escaped_sdcs", escapes as f64, "count");
}
