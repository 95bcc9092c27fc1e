//! Co-evolution campaign: the virus GA versus a fleet of guarded boards.
//!
//! Each generation's genomes are scored against every board of a seeded
//! fleet; the fitness of a genome is the total number of SDCs its virus
//! slips past the safety net before detection, plus a small
//! resonant-energy shaping term that keeps selection pressure alive even
//! while the net holds (and deterministically tie-breaks genomes with
//! equal escape counts toward stronger dI/dt coupling).
//!
//! The `(genome × board)` episode grid of a generation is embarrassingly
//! parallel. It runs on [`fleet::par_map_ordered`], which returns results
//! in grid order, so arrival order never escapes: the campaign chronicle
//! is byte-identical for any worker count.

use crate::episode::{run_episode, AttackScenario, EpisodeReport};
use fleet::par_map_ordered;
use fleet::population::{BoardSpec, FleetSpec};
use observatory::{
    BoardStream, DetectorConfig, Direction, Observatory, ObservatoryReport, SloSpec,
};
use serde::{Deserialize, Serialize};
use stress_gen::ga::{evolve_batched, genome_profile, GaConfig};
use stress_gen::isa::VirusGenome;
use telemetry::Level;
use xgene_sim::pdn::PdnModel;
use xgene_sim::workload::WorkloadProfile;

/// Weight of the resonant-energy shaping term in the fitness. Small
/// enough that a single real escape always dominates any amount of
/// shaping (resonant energy is at most 1).
const RESONANCE_SHAPING: f64 = 0.01;

/// A co-evolution campaign specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// The fleet of boards every genome is scored against.
    pub fleet: FleetSpec,
    /// GA hyper-parameters (the attacker's evolution budget).
    pub ga: GaConfig,
    /// The net arm under attack and the episode shape.
    pub scenario: AttackScenario,
    /// Worker threads for the episode grid. Never affects results.
    pub workers: usize,
}

impl CampaignConfig {
    /// A paper-scaled campaign against the pre-hardening seed net.
    pub fn dsn18(boards: u32, seed: u64) -> Self {
        CampaignConfig {
            fleet: FleetSpec::new(boards, seed),
            ga: GaConfig {
                population: 12,
                generations: 8,
                genome_slots: 48,
                mutation_rate: 0.08,
                tournament: 3,
                elites: 2,
                seed,
            },
            scenario: AttackScenario::seed_net(40),
            workers: 1,
        }
    }
}

/// One generation of the co-evolution, as chronicled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// Generation index.
    pub generation: u32,
    /// Best fitness (escapes + shaping) this generation.
    pub best_fitness: f64,
    /// Fleet-wide escapes of the generation's best genome.
    pub best_escapes: u64,
    /// Escapes summed over the whole `(genome × board)` grid.
    pub total_escapes: u64,
}

/// The full campaign result. Serializing this is the chronicle used for
/// worker-count byte-identity checks — it deliberately carries no
/// execution detail (worker count, wall time), only what the
/// co-evolution computed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Fleet size attacked.
    pub boards: u32,
    /// Campaign master seed.
    pub seed: u64,
    /// Per-generation trajectory.
    pub generations: Vec<GenerationRecord>,
    /// The fittest virus genome found.
    pub champion: VirusGenome,
    /// The champion's fitness (escapes + shaping).
    pub champion_fitness: f64,
}

impl CampaignReport {
    /// The chronicle as canonical JSON.
    pub fn chronicle_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// The champion genome's observable workload profile on the X-Gene2
    /// PDN — what the attacker tenant actually schedules.
    pub fn champion_profile(&self) -> WorkloadProfile {
        genome_profile("redteam-champion", &self.champion, &PdnModel::xgene2())
    }

    /// Total escapes across the whole campaign grid.
    pub fn total_escapes(&self) -> u64 {
        self.generations.iter().map(|g| g.total_escapes).sum()
    }
}

/// Runs the co-evolution campaign.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let pdn = PdnModel::xgene2();
    let boards: Vec<BoardSpec> = config.fleet.all_boards().collect();
    let mut generations: Vec<GenerationRecord> = Vec::new();
    let mut generation = 0u32;

    let result = evolve_batched(&config.ga, |genomes| {
        let profiles: Vec<WorkloadProfile> = genomes
            .iter()
            .map(|g| genome_profile("redteam-virus", g, &pdn))
            .collect();
        let escapes = fleet_escapes(&boards, &profiles, &config.scenario, config.workers);
        let scores: Vec<f64> = escapes
            .iter()
            .zip(&profiles)
            .map(|(e, p)| *e as f64 + RESONANCE_SHAPING * p.resonant_energy())
            .collect();

        // Same argmax the GA's stable descending sort produces.
        let mut best = 0;
        for i in 1..scores.len() {
            if scores[i] > scores[best] {
                best = i;
            }
        }
        let record = GenerationRecord {
            generation,
            best_fitness: scores[best],
            best_escapes: escapes[best],
            total_escapes: escapes.iter().sum(),
        };
        telemetry::event!(
            Level::Info,
            "redteam_generation",
            generation = record.generation,
            best_fitness = record.best_fitness,
            total_escapes = record.total_escapes,
        );
        generations.push(record);
        generation += 1;
        scores
    });

    CampaignReport {
        boards: config.fleet.boards,
        seed: config.fleet.seed,
        generations,
        champion: result.champion,
        champion_fitness: result.champion_fitness,
    }
}

/// Replays an attacker profile (or the dedicated-PMD control with
/// `None`) against every board of `fleet` under `scenario`, in board-id
/// order. Used to benchmark a co-evolved champion against the hardened
/// arm. Worker count never affects the result.
pub fn replay_fleet(
    fleet: &FleetSpec,
    attacker: Option<&WorkloadProfile>,
    scenario: &AttackScenario,
    workers: usize,
) -> Vec<EpisodeReport> {
    let boards: Vec<BoardSpec> = fleet.all_boards().collect();
    par_map_ordered(workers, &boards, |board| {
        run_episode(board, attacker, scenario)
    })
}

/// Name of the zero-escape SLO declared by [`replay_observatory`].
pub const REDTEAM_ESCAPE_SLO: &str = "zero-sdc-escapes";

/// Detector metric fed with each epoch's breaker-side droop estimate;
/// the spike detector warns on the attack's edge, typically epochs
/// before the attribution logic quarantines the attacker.
pub const REDTEAM_DROOP_METRIC: &str = "droop_mv";

/// Like [`replay_fleet`], but each episode runs under a fresh capture
/// context: the returned [`BoardStream`] (keyed `(epoch 0, board)`)
/// carries the episode's full Debug-level trace — per-epoch
/// `attack_epoch` breadcrumbs, breaker trips, the `attacker_quarantined`
/// event. Worker count never affects the result.
pub fn replay_fleet_observed(
    fleet: &FleetSpec,
    attacker: Option<&WorkloadProfile>,
    scenario: &AttackScenario,
    workers: usize,
) -> Vec<(EpisodeReport, BoardStream)> {
    let boards: Vec<BoardSpec> = fleet.all_boards().collect();
    par_map_ordered(workers, &boards, |board| {
        observatory::observe(0, board.id, Level::Debug, || {
            run_episode(board, attacker, scenario)
        })
    })
}

/// Replays `attacker` against the whole fleet under full observation
/// and distills the result: the merged timeline, one reconstructed
/// incident per quarantine or breaker trip, a zero-escape SLO
/// evaluated per board, and a droop spike detector fed with every
/// epoch's breaker-side droop estimate.
pub fn replay_observatory(
    fleet: &FleetSpec,
    attacker: Option<&WorkloadProfile>,
    scenario: &AttackScenario,
    workers: usize,
) -> (Vec<EpisodeReport>, ObservatoryReport) {
    let observed = replay_fleet_observed(fleet, attacker, scenario, workers);
    let mut obs = Observatory::new();
    obs.add_detector(REDTEAM_DROOP_METRIC, DetectorConfig::spike(Direction::High));
    obs.add_slo(SloSpec::zero_escapes(REDTEAM_ESCAPE_SLO));
    let mut reports = Vec::with_capacity(observed.len());
    for (report, stream) in observed {
        for event in &stream.events {
            if event.name != "attack_epoch" {
                continue;
            }
            let mut epoch = None;
            let mut droop = None;
            for (name, value) in &event.fields {
                match (name.as_str(), value) {
                    ("epoch", telemetry::FieldValue::U64(e)) => epoch = Some(*e),
                    ("droop_mv", telemetry::FieldValue::F64(d)) => droop = Some(*d),
                    _ => {}
                }
            }
            if let (Some(epoch), Some(droop)) = (epoch, droop) {
                obs.detect(report.board, REDTEAM_DROOP_METRIC, epoch, droop);
            }
        }
        obs.slo_observe(
            REDTEAM_ESCAPE_SLO,
            u64::from(report.board),
            Some(report.board),
            report.escaped_sdcs as f64,
        );
        obs.ingest_stream(stream);
        reports.push(report);
    }
    (reports, obs.finish())
}

/// Scores every genome against every board and returns per-genome
/// fleet-wide escape totals, in genome order. The `(genome, board)` job
/// grid runs on [`par_map_ordered`], so worker scheduling never leaks
/// into the totals.
fn fleet_escapes(
    boards: &[BoardSpec],
    profiles: &[WorkloadProfile],
    scenario: &AttackScenario,
    workers: usize,
) -> Vec<u64> {
    let jobs: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|g| (0..boards.len()).map(move |b| (g, b)))
        .collect();
    let escapes = par_map_ordered(workers, &jobs, |&(g, b)| {
        run_episode(&boards[b], Some(&profiles[g]), scenario).escaped_sdcs
    });
    let mut per_genome = vec![0u64; profiles.len()];
    for (&(g, _), e) in jobs.iter().zip(escapes) {
        per_genome[g] += e;
    }
    per_genome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CampaignConfig {
        let mut config = CampaignConfig::dsn18(3, 2018);
        config.ga.population = 6;
        config.ga.generations = 3;
        config.scenario.epochs = 25;
        config
    }

    #[test]
    fn chronicle_is_byte_identical_across_worker_counts() {
        let mut serial = small_config();
        serial.workers = 1;
        let mut pooled = small_config();
        pooled.workers = 3;
        assert_eq!(
            run_campaign(&serial).chronicle_json(),
            run_campaign(&pooled).chronicle_json()
        );
    }

    #[test]
    fn the_observed_replay_reconstructs_quarantines_deterministically() {
        let fleet = FleetSpec::new(3, 2018);
        let scenario = AttackScenario::hardened(30).with_onset(8);
        let virus = WorkloadProfile::builder("v")
            .activity(1.0)
            .swing(1.0)
            .resonance_alignment(0.9)
            .build();
        let (reports, serial) = replay_observatory(&fleet, Some(&virus), &scenario, 1);
        let (_, pooled) = replay_observatory(&fleet, Some(&virus), &scenario, 3);
        assert_eq!(serial.chronicle_json(), pooled.chronicle_json());
        // Every quarantine the episodes report appears as an incident on
        // the right board, and the droop spike detector warned no later
        // than the net detected.
        for report in reports.iter().filter(|r| r.attacker_quarantined) {
            assert!(
                serial
                    .incidents_of(observatory::IncidentKind::AttackerQuarantine)
                    .any(|i| i.board == report.board),
                "board {} quarantine missing from incidents",
                report.board
            );
            let warning = serial
                .first_warning(report.board, REDTEAM_DROOP_METRIC)
                .expect("the attack edge raises a droop warning");
            assert!(
                warning.epoch <= report.detection_epoch.unwrap(),
                "warning at {} vs detection at {:?}",
                warning.epoch,
                report.detection_epoch
            );
        }
        assert!(
            reports.iter().any(|r| r.attacker_quarantined),
            "the hardened arm quarantines the crafted virus somewhere"
        );
    }

    #[test]
    fn replay_is_ordered_and_deterministic() {
        let config = small_config();
        let virus = WorkloadProfile::builder("v")
            .activity(1.0)
            .swing(1.0)
            .resonance_alignment(0.9)
            .build();
        let a = replay_fleet(&config.fleet, Some(&virus), &config.scenario, 1);
        let b = replay_fleet(&config.fleet, Some(&virus), &config.scenario, 4);
        assert_eq!(a, b);
        let ids: Vec<u32> = a.iter().map(|r| r.board).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
