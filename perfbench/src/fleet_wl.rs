//! `fleet`: characterize a seeded fleet with `fleet::run_fleet`, then
//! dispatch a long diurnal + flash-crowd trace over the resulting store
//! with `dispatch::run_dispatch_with_store`.
//!
//! The traced run also drives every board through the layer functions
//! directly — boot (weak-cell generation inside it), fault plan, Vmin
//! walk, retention floor, safe point — reproducing the steps of
//! `fleet::job::execute`, and checks that this decomposed path yields
//! the same safe-point record as `execute` on that board.

use crate::report::{ms, repeated_setup, timed_rounds, Ctx, Outcome};
use crate::stats::{fingerprint, median, Tail};
use crate::trace::{by_layer, Tracer};
use char_fw::runner::ResilientRunner;
use char_fw::warmstart::distinct_setups;
use dispatch::{run_dispatch_with_store, DispatchSpec};
use dram_sim::retention::{CouplingContext, RetentionModel, WeakCellPopulation};
use fleet::{
    eviction_floor, execute, run_fleet, BoardOutcome, BoardSafePoint, FleetCampaign, FleetConfig,
    FleetJob, FleetSpec,
};
use power_model::server::{ServerLoad, ServerPowerModel};
use power_model::units::{Milliseconds, Millivolts};
use std::rc::Rc;
use std::time::Instant;
use telemetry::metrics::Registry;
use telemetry::{CaptureSink, FlightRecorder, Level, Sink, Telemetry};
use xgene_sim::server::XGene2Server;

/// Boards characterized per round (and dispatched over).
const BOARDS: u32 = 48;
/// Simulated seconds of dispatched traffic per round.
const TRACE_SECONDS: f64 = 1800.0;
/// Aging epochs across the dispatched trace.
const EPOCHS: u32 = 40;
const SETUP_REPEATS: usize = 15;

struct Fixture {
    spec: FleetSpec,
    campaign: FleetCampaign,
    config: FleetConfig,
    dispatch: DispatchSpec,
}

fn fixture(ctx: &Ctx) -> Fixture {
    let spec = FleetSpec::new(BOARDS, ctx.seed);
    let mut dispatch = DispatchSpec::quick(BOARDS, ctx.seed);
    dispatch.profile.duration_s = TRACE_SECONDS;
    dispatch.profile.diurnal_period_s = dispatch.profile.duration_s / 2.0;
    dispatch.profile.flash_crowds = 4;
    dispatch.profile.flash_width_s = 20.0;
    dispatch.epochs = EPOCHS;
    // Any margin erosion schedules a re-characterization window, so the
    // drain/resume path runs every round.
    dispatch.maintenance.margin_threshold_mv = 100;
    // Warm the board population: every board boots once.
    for board in spec.all_boards() {
        std::hint::black_box(board.boot(spec.population));
    }
    Fixture {
        spec,
        campaign: FleetCampaign::quick(),
        config: FleetConfig::with_workers(ctx.nproc),
        dispatch,
    }
}

struct Round {
    characterization: u64,
    chronicle: u64,
    jobs: u64,
    requeues: u64,
    steals: u64,
    requests: u64,
    served: u64,
    rejected: u64,
    reroutes: u64,
    records: usize,
    fleet_s: f64,
    dispatch_s: f64,
    modeled_makespan_s: f64,
    modeled_speedup: f64,
    sim_serial_s: f64,
}

fn round(fx: &Fixture, nproc: usize, tracer: &mut Tracer) -> Round {
    let start = Instant::now();
    let report = tracer.span("fleet.run_fleet", |_| {
        run_fleet(&fx.spec, &fx.campaign, &fx.config)
    });
    let fleet_s = start.elapsed().as_secs_f64();
    let store = &report.characterization.store;
    let start = Instant::now();
    let dispatched = tracer.span("dispatch.run_dispatch_with_store", |_| {
        run_dispatch_with_store(&fx.dispatch, nproc, store)
    });
    let dispatch_s = start.elapsed().as_secs_f64();
    let chronicle = &dispatched.chronicle;
    Round {
        characterization: fingerprint(report.characterization_json().as_bytes()),
        chronicle: fingerprint(dispatched.chronicle_json().as_bytes()),
        jobs: report.execution.jobs,
        requeues: report.execution.requeues,
        steals: report.execution.queue_steals,
        requests: chronicle.requests,
        served: chronicle.served,
        rejected: chronicle.rejected,
        reroutes: chronicle.reroutes,
        records: store.records().count(),
        fleet_s,
        dispatch_s,
        modeled_makespan_s: report.execution.sim_makespan_seconds,
        modeled_speedup: report.execution.speedup,
        sim_serial_s: report.characterization.sim_serial_seconds,
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        op_name: "round (run_fleet + dispatch)",
        ..Outcome::default()
    };
    let fx = repeated_setup(SETUP_REPEATS, &mut out.setup_s, || fixture(ctx));

    let rounds: Vec<Round> = timed_rounds(ctx, &mut out, || round(&fx, ctx.nproc, tracer))
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    let first = &rounds[0];
    let boards = u64::from(fx.spec.boards);
    for (i, r) in rounds.iter().enumerate() {
        let same = r.characterization == first.characterization && r.chronicle == first.chronicle;
        let whole = r.records as u64 == boards && r.served + r.rejected == r.requests;
        out.attempted += boards;
        if !(same && whole) {
            out.failed += boards;
            out.check(
                "fleet.round",
                false,
                format!(
                    "round {i}: fingerprints {:016x}/{:016x} vs {:016x}/{:016x}, {} records, {} served + {} rejected of {}",
                    r.characterization, r.chronicle, first.characterization, first.chronicle,
                    r.records, r.served, r.rejected, r.requests
                ),
            );
        }
    }
    out.check(
        "fleet.repeats_identical",
        out.failed == 0,
        format!(
            "{} rounds; characterization {:016x}, dispatch chronicle {:016x}",
            rounds.len(),
            first.characterization,
            first.chronicle
        ),
    );
    out.repeats = rounds.len() as u32;
    out.work_rates = rounds.iter().map(|r| r.jobs as f64 / r.fleet_s).collect();
    let dispatch_rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.requests as f64 / r.dispatch_s)
        .collect();
    out.named(
        "fleet_boards_per_s",
        median(&out.work_rates).unwrap_or(f64::NAN),
        "1/s",
    );
    out.named(
        "dispatch_requests_per_s",
        median(&dispatch_rates).unwrap_or(f64::NAN),
        "1/s",
    );
    out.count("fleet.boards", boards);
    out.count("fleet.jobs", first.jobs);
    out.count("fleet.requeues", first.requeues);
    out.count("dispatch.requests", first.requests);
    out.count("dispatch.rejected", first.rejected);
    out.count("dispatch.reroutes", first.reroutes);
    out.count("fleet.characterization_fingerprint", first.characterization);
    out.count("dispatch.chronicle_fingerprint", first.chronicle);
    out.modeled
        .push(("fleet.schedule_makespan_s".into(), first.modeled_makespan_s));
    out.modeled
        .push(("fleet.schedule_speedup".into(), first.modeled_speedup));
    out.modeled
        .push(("fleet.sim_cost_seconds".into(), first.sim_serial_s));

    if ctx.trace {
        let steals: Vec<f64> = rounds.iter().map(|r| r.steals as f64).collect();
        let fleet_wall: Vec<f64> = rounds.iter().map(|r| r.fleet_s).collect();
        let dispatch_wall: Vec<f64> = rounds.iter().map(|r| r.dispatch_s).collect();
        // Σ job time of the serial `execute` calls over the same jobs.
        let job_total_s = layers(&fx, tracer, &mut out);
        let fleet_wall_s = median(&fleet_wall).unwrap_or(0.0);
        out.layer(
            "fleet.orchestration_ratio",
            fleet_wall_s * ctx.nproc as f64 / job_total_s,
            "ratio",
        );
        out.layer(
            "fleet.queue_steals",
            median(&steals).unwrap_or(0.0),
            "count",
        );
        out.layer("fleet.jobs", first.jobs as f64, "count");
        out.layer("fleet.requeues", first.requeues as f64, "count");
        let epoch_ms = median(&dispatch_wall).unwrap_or(0.0) * 1e3 / f64::from(fx.dispatch.epochs);
        out.layer("dispatch.epoch_ms", epoch_ms, "ms");
        out.layer("dispatch.requests", first.requests as f64, "count");
        out.layer("dispatch.rejected", first.rejected as f64, "count");
        out.layer("dispatch.reroutes", first.reroutes as f64, "count");
    }
    out
}

/// The board job, step by step, as `fleet::job::execute` runs it.
struct Decomposed {
    record: BoardSafePoint,
    tripped: bool,
    highest_failure_mv: Option<u32>,
    walked_setups: u64,
    runs: u64,
    watchdog_resets: u64,
}

fn decomposed(job: &FleetJob, fx: &Fixture, tracer: &mut Tracer) -> Decomposed {
    let campaign = &fx.campaign;
    let population = fx.spec.population;
    let board = &job.board;
    tracer.span("fleet.job_decomposed", |t| {
        // The same per-job telemetry context `execute` installs: the walk
        // emits into it, so its cost belongs to the measured path.
        let registry = Rc::new(Registry::new());
        let capture = Rc::new(CaptureSink::new().with_min_level(Level::Warn));
        let recorder = Rc::new(
            FlightRecorder::with_capacity(48)
                .with_min_level(Level::Debug)
                .with_max_dumps(2),
        );
        let guard = Telemetry::new()
            .with_registry(Rc::clone(&registry))
            .with_shared_sink(Rc::clone(&capture) as Rc<dyn Sink>)
            .with_shared_sink(Rc::clone(&recorder) as Rc<dyn Sink>)
            .install();

        let mut server = t.span("xgene_sim.boot", |t| {
            let cells = t.span("dram_sim.generate", |_| {
                WeakCellPopulation::generate(
                    &RetentionModel::xgene2_micron(),
                    population,
                    board.boot_seed,
                )
            });
            XGene2Server::with_chip_and_population(board.chip.clone(), board.boot_seed, cells)
        });
        if let Some(plan) = campaign.fault_plan(board) {
            server.install_fault_plan(plan);
        }
        let walk = campaign.vmin_campaign(job.floor_override_mv);
        let result = t.span("char_fw.vmin_walk", |_| {
            ResilientRunner::new(&mut server, walk, campaign.resilience).run_to_completion()
        });
        let core_vmin_mv: Vec<Option<u32>> = campaign
            .cores
            .iter()
            .map(|core| {
                campaign
                    .benchmarks
                    .iter()
                    .map(|bench| result.vmin(bench.name(), *core).map(Millivolts::as_u32))
                    .try_fold(0u32, |worst, vmin| vmin.map(|v| worst.max(v)))
            })
            .collect();
        let rail_vmin_mv = core_vmin_mv
            .iter()
            .copied()
            .try_fold(0u32, |worst, vmin| vmin.map(|v| worst.max(v)))
            .map(|worst| {
                let penalty =
                    board.chip.multicore_penalty_mv() * (campaign.cores.len() as f64 - 1.0);
                worst + penalty.round() as u32
            });
        let floors = t.span("dram_sim.retention_floor", |_| {
            server
                .dram()
                .population()
                .min_retention_per_bank(campaign.retention_temperature, CouplingContext::WorstCase)
        });
        let max_trefp = population.max_trefp.as_f64();
        let bank_safe_trefp_ms: Vec<f64> = floors
            .iter()
            .map(|floor| match floor {
                Some(ms) => (ms / campaign.retention_margin)
                    .clamp(Milliseconds::DDR3_NOMINAL_TREFP.as_f64(), max_trefp),
                None => max_trefp,
            })
            .collect();
        let chip_safe_trefp = bank_safe_trefp_ms.iter().copied().fold(max_trefp, f64::min);
        let (operating_point, savings_fraction, savings_watts) =
            t.span("guardband_core.safe_point", |_| {
                let point = rail_vmin_mv.map(|rail| {
                    campaign.policy.derive_from_measured(
                        Millivolts::new(rail),
                        Milliseconds::new(chip_safe_trefp),
                    )
                });
                let model = ServerPowerModel::xgene2();
                let load = ServerLoad::jammer_detector();
                let (fraction, watts) = point.as_ref().map_or((0.0, 0.0), |p| {
                    (
                        model.total_savings(p, &load),
                        model.savings_watts(p, &load).as_f64(),
                    )
                });
                (point, fraction, watts)
            });
        // Freeing the board (its weak-cell population and row index) is
        // part of every job too.
        t.span("xgene_sim.drop", |_| drop(server));
        drop(guard);
        Decomposed {
            record: BoardSafePoint {
                board: board.id,
                attempt: job.attempt,
                bin: board.bin(),
                core_vmin_mv,
                rail_vmin_mv,
                operating_point,
                bank_safe_trefp_ms,
                savings_fraction,
                savings_watts,
            },
            tripped: result.safety.breaker_trips > 0,
            highest_failure_mv: result
                .vmins
                .iter()
                .filter_map(|v| v.first_failure.map(Millivolts::as_u32))
                .max(),
            walked_setups: distinct_setups(&result),
            runs: result.records.len() as u64,
            watchdog_resets: result.watchdog_resets,
        }
    })
}

fn same_job(a: &Decomposed, b: &BoardOutcome) -> bool {
    a.record == b.record
        && a.tripped == b.tripped
        && a.highest_failure_mv == b.highest_failure_mv
        && a.walked_setups == b.walked_steps
        && a.runs == b.runs
        && a.watchdog_resets == b.watchdog_resets
}

/// Per-layer figures: every job of the fleet (requeues included) run
/// once through `execute` and once decomposed, alternating which goes
/// first so neither always runs on warm caches. Returns the summed
/// `execute` time, seconds.
fn layers(fx: &Fixture, tracer: &mut Tracer, out: &mut Outcome) -> f64 {
    let first_span = tracer.spans().len();
    let mut mismatched = Vec::new();
    let (mut walked, mut runs, mut resets, mut weak_cells, mut jobs) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut op = 0u64;
    for board in fx.spec.all_boards() {
        let mut job = Some(FleetJob {
            board,
            attempt: 0,
            floor_override_mv: None,
        });
        while let Some(current) = job.take() {
            op += 1;
            tracer.set_op(op);
            let exec = |t: &mut Tracer| {
                t.span("fleet.job", |_| {
                    execute(&current, &fx.campaign, fx.spec.population)
                })
            };
            let (outcome, parts) = if op.is_multiple_of(2) {
                let outcome = exec(tracer);
                (outcome, decomposed(&current, fx, tracer))
            } else {
                let parts = decomposed(&current, fx, tracer);
                (exec(tracer), parts)
            };
            if !same_job(&parts, &outcome) {
                mismatched.push((current.board.id, current.attempt));
            }
            // The row index alone, rebuilt from the generated cells.
            let cells = WeakCellPopulation::generate(
                &RetentionModel::xgene2_micron(),
                fx.spec.population,
                current.board.boot_seed,
            );
            weak_cells += cells.len() as u64;
            let model = cells.model().clone();
            let list = cells.cells().to_vec();
            tracer.span("dram_sim.index_build", |_| {
                std::hint::black_box(WeakCellPopulation::from_cells(model, list))
            });
            walked += parts.walked_setups;
            runs += parts.runs;
            resets += parts.watchdog_resets;
            jobs += 1;
            job = eviction_floor(&outcome, &fx.config).map(|floor| FleetJob {
                board: current.board.clone(),
                attempt: current.attempt + 1,
                floor_override_mv: Some(floor),
            });
        }
    }
    tracer.set_op(0);
    out.attempted += jobs;
    out.failed += mismatched.len() as u64;
    out.check(
        "fleet.decomposed_equals_execute",
        mismatched.is_empty(),
        format!("{jobs} jobs decomposed; mismatched (board, attempt): {mismatched:?}"),
    );

    let layer = by_layer(tracer.spans(), first_span);
    let total = |name: &str| layer.get(name).map_or(0.0, |l| l.total_ns as f64);
    let per_job = |name: &str| ms(total(name)) / jobs as f64;
    let job = layer
        .get("fleet.job")
        .map(|l| l.durations_ns.clone())
        .unwrap_or_default();
    let job_ms: Vec<f64> = job.iter().map(|ns| ns / 1e6).collect();
    out.layer("fleet.job_ms.p50", median(&job_ms).unwrap_or(0.0), "ms");
    if let Some(tail) = Tail::of(&job_ms) {
        out.layer("fleet.job_ms.tail", tail.value, "ms");
    }
    out.layer("xgene_sim.boot_ms", per_job("xgene_sim.boot"), "ms");
    out.layer("dram_sim.generate_ms", per_job("dram_sim.generate"), "ms");
    out.layer(
        "dram_sim.index_build_ms",
        per_job("dram_sim.index_build"),
        "ms",
    );
    out.layer(
        "dram_sim.sample_ms",
        per_job("dram_sim.generate") - per_job("dram_sim.index_build"),
        "ms",
    );
    out.layer(
        "dram_sim.weak_cells",
        weak_cells as f64 / jobs as f64,
        "count",
    );
    out.layer("char_fw.vmin_walk_ms", per_job("char_fw.vmin_walk"), "ms");
    out.layer(
        "char_fw.walked_setups",
        walked as f64 / jobs as f64,
        "count",
    );
    out.layer("char_fw.runs", runs as f64 / jobs as f64, "count");
    out.layer(
        "char_fw.watchdog_resets",
        resets as f64 / jobs as f64,
        "count",
    );
    out.layer(
        "dram_sim.retention_floor_ms",
        per_job("dram_sim.retention_floor"),
        "ms",
    );
    out.layer(
        "guardband_core.safe_point_us",
        per_job("guardband_core.safe_point") * 1e3,
        "us",
    );
    out.layer("xgene_sim.drop_ms", per_job("xgene_sim.drop"), "ms");
    let parts = total("xgene_sim.boot")
        + total("char_fw.vmin_walk")
        + total("dram_sim.retention_floor")
        + total("guardband_core.safe_point")
        + total("xgene_sim.drop");
    out.layer("fleet.layer_sum_ratio", parts / total("fleet.job"), "ratio");
    total("fleet.job") / 1e9
}
