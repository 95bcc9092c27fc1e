//! DRAM wear-out: weak-cell population growth, retention drift and
//! variable-retention-time (VRT) flicker over deployment months.
//!
//! The safe refresh periods the characterization campaign derives are a
//! snapshot: the retention literature (Liu ISCA'13, Qureshi DSN'15)
//! shows the weak-cell tail is not static. Three mechanisms move it:
//!
//! * **population growth** — cells degrade into the weak tail over
//!   time (latent defects, charge-trap drift), so a bank slowly gains
//!   marginal cells the original DPBench campaign never saw;
//! * **retention decay** — cells already in the tail leak slightly
//!   faster as the array ages, eroding the per-bank retention floor;
//! * **VRT flicker** — a fraction of the grown cells toggle between a
//!   good and a leaky state on week-to-month timescales, so they are
//!   only intermittently visible to scrub and re-characterization.
//!
//! Everything here is a pure function of `(model, base population,
//! months, seed)`: the grown-cell sequence per bank is *prefix-stable*
//! (the first `k` grown cells at month `m₂ ≥ m₁` are exactly the grown
//! cells of month `m₁`), so a fleet-lifetime simulation can evaluate
//! any month in any order — or on any worker — and get byte-identical
//! results.
//!
//! Grown cells respect the one-weak-cell-per-code-word invariant of
//! [`WeakCellPopulation::generate`]: a word that already hosts a weak
//! cell (original or grown, dormant VRT included) is never chosen
//! again, so SECDED keeps correcting every manifested flip and DRAM
//! aging produces a rising *correctable*-error rate — a drift signal,
//! never silent corruption.

use crate::geometry::{BankId, BANKS_PER_CHIP};
use crate::math;
use crate::retention::{random_cell, CouplingContext, WeakCell, WeakCellPopulation};
use power_model::units::{Celsius, Milliseconds};
use rand::rngs::StdRng;
use rand::{mix64, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Location parameter of the grown-cell retention lognormal: median
/// 0.35 s at 60 °C, well inside the weak tail.
const GROWTH_MU_LN_S: f64 = -1.0498221244986778; // ln(0.35)
/// Shape of the grown-cell retention lognormal — wide enough that a
/// meaningful fraction lands below a deployed (margined) refresh
/// period and becomes scrub-visible.
const GROWTH_SIGMA: f64 = 1.0;

/// The DRAM aging law: deterministic knobs, no state.
///
/// # Examples
///
/// ```
/// use dram_sim::aging::DramAging;
/// use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
///
/// let base = WeakCellPopulation::generate(
///     &RetentionModel::xgene2_micron(), PopulationSpec::dsn18(), 7);
/// let aging = DramAging::dsn18();
/// let aged = aging.aged(&base, 24, 7);
/// assert!(aged.len() > base.len()); // the weak tail only ever grows
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramAging {
    /// New weak cells entering each bank's tail per deployment month.
    pub growth_cells_per_bank_month: f64,
    /// Fraction of grown cells that are VRT (intermittently leaky).
    pub vrt_fraction: f64,
    /// Probability a VRT cell is in its leaky state in a given month.
    pub vrt_duty: f64,
    /// Multiplicative retention loss of existing cells per month.
    pub retention_decay_per_month: f64,
}

impl DramAging {
    /// Rates sized for the lifetime study: fast enough that a deployed
    /// board accumulates a scrub-visible correctable-error signature
    /// within the simulated multi-year horizon, slow enough that the
    /// 25 % retention guardband of the deployed refresh period is not
    /// erased in the first months.
    pub fn dsn18() -> Self {
        DramAging {
            growth_cells_per_bank_month: 0.6,
            vrt_fraction: 0.3,
            vrt_duty: 0.5,
            retention_decay_per_month: 0.0015,
        }
    }

    /// Retention multiplier of the original cells after `months`.
    pub fn decay_factor(&self, months: u32) -> f64 {
        (1.0 - self.retention_decay_per_month).powi(months as i32)
    }

    /// Number of grown cells per bank after `months` (monotone in
    /// `months`, independent of everything else).
    pub fn grown_per_bank(&self, months: u32) -> u64 {
        (self.growth_cells_per_bank_month * f64::from(months)).floor() as u64
    }

    /// Whether grown cell `k` of `bank` flickers (is VRT) at all.
    fn is_vrt(&self, seed: u64, bank: BankId, k: u64) -> bool {
        let h = mix64(seed ^ 0x56D7_F11C ^ (bank.index() as u64) << 32 ^ k.wrapping_mul(0x9E3B));
        (h % 1_000_000) as f64 / 1e6 < self.vrt_fraction
    }

    /// Whether a VRT cell is in its leaky state in month `month`.
    fn vrt_leaky(&self, seed: u64, bank: BankId, k: u64, month: u32) -> bool {
        let h = mix64(
            seed ^ 0xF11C_C3B5
                ^ ((bank.index() as u64) << 40)
                ^ k.wrapping_mul(0x9E37_79B9)
                ^ (u64::from(month) << 20),
        );
        (h % 1_000_000) as f64 / 1e6 < self.vrt_duty
    }

    /// Retention (ms at 60 °C) and relief factors of grown cell `k` of
    /// `bank` — drawn from a dedicated per-cell stream so they can be
    /// evaluated without placing the cell (the cheap monitoring path).
    fn grown_retention(&self, seed: u64, bank: BankId, k: u64) -> (f64, f64, f64) {
        let mut rng = StdRng::seed_from_u64(mix64(
            seed ^ 0xA6ED_0C11 ^ ((bank.index() as u64) << 48) ^ k,
        ));
        let cap_s = Milliseconds::DSN18_RELAXED_TREFP.as_secs();
        let r_s = math::sample_lognormal_below(&mut rng, GROWTH_MU_LN_S, GROWTH_SIGMA, cap_s);
        use rand::Rng;
        let relief_alt = rng.gen_range(1.05..1.30);
        let relief_uni = rng.gen_range(1.20..1.70);
        (r_s * 1000.0, relief_alt, relief_uni)
    }

    /// Effective retention in ms of grown cell `(bank, k)` at `temp`
    /// under `context`.
    fn grown_retention_ms(
        &self,
        base: &WeakCellPopulation,
        seed: u64,
        bank: BankId,
        k: u64,
        temp: Celsius,
        context: CouplingContext,
    ) -> f64 {
        let (r60_ms, relief_alt, relief_uni) = self.grown_retention(seed, bank, k);
        let relief = match context {
            CouplingContext::WorstCase => 1.0,
            CouplingContext::Alternating => relief_alt,
            CouplingContext::Uniform => relief_uni,
        };
        r60_ms * base.model().temperature_factor(temp) * relief
    }

    /// The population as it exists after `months` of deployment: the
    /// original cells with decayed retention, plus every grown cell
    /// that is currently leaky (non-VRT, or VRT in its leaky phase).
    ///
    /// Deterministic in `(base, months, seed)` and prefix-stable:
    /// increasing `months` never relocates or re-rolls an existing
    /// grown cell. Dormant VRT cells are omitted from the returned
    /// population but their words stay reserved, so a VRT cell
    /// re-entering its leaky phase later never shares a code word with
    /// another weak cell.
    pub fn aged(&self, base: &WeakCellPopulation, months: u32, seed: u64) -> WeakCellPopulation {
        let decay = self.decay_factor(months);
        let mut cells: Vec<WeakCell> = base
            .cells()
            .iter()
            .map(|c| {
                let mut aged = c.clone();
                aged.retention_at_60c_ms *= decay;
                aged
            })
            .collect();
        let mut occupied: HashSet<u64> =
            base.cells().iter().map(|c| c.addr.word.flatten()).collect();
        for bank in BankId::all() {
            // One address stream per bank: draws for bank b never move
            // when another bank's cell count changes.
            let mut addr_rng =
                StdRng::seed_from_u64(mix64(seed ^ 0xD8A7_11FE ^ ((bank.index() as u64) << 56)));
            for k in 0..self.grown_per_bank(months) {
                let (r60_ms, _, _) = self.grown_retention(seed, bank, k);
                let cell = random_cell(&mut addr_rng, bank, r60_ms, &mut occupied);
                let dormant = self.is_vrt(seed, bank, k) && !self.vrt_leaky(seed, bank, k, months);
                if !dormant {
                    cells.push(cell);
                }
            }
        }
        WeakCellPopulation::from_cells(base.model().clone(), cells)
    }

    /// Count of cells per bank failing at `trefp`/`temp`/`context`
    /// after `months` — the monthly drift-monitoring query. Agrees
    /// with [`Self::aged`]`.failing_per_bank(..)` but never touches
    /// cell placement or the row index, so a fleet simulation can
    /// evaluate it every simulated month for every board cheaply.
    pub fn failing_per_bank_at(
        &self,
        base: &WeakCellPopulation,
        months: u32,
        seed: u64,
        temp: Celsius,
        trefp: Milliseconds,
        context: CouplingContext,
    ) -> [u64; BANKS_PER_CHIP] {
        let decay = self.decay_factor(months);
        let mut counts = [0u64; BANKS_PER_CHIP];
        for cell in base.cells() {
            if cell.retention_ms(temp, context, base.model()) * decay < trefp.as_f64() {
                counts[cell.addr.word.bank.index()] += 1;
            }
        }
        for bank in BankId::all() {
            for k in 0..self.grown_per_bank(months) {
                let dormant = self.is_vrt(seed, bank, k) && !self.vrt_leaky(seed, bank, k, months);
                if dormant {
                    continue;
                }
                if self.grown_retention_ms(base, seed, bank, k, temp, context) < trefp.as_f64() {
                    counts[bank.index()] += 1;
                }
            }
        }
        counts
    }

    /// Total failing cells across banks — see
    /// [`Self::failing_per_bank_at`].
    pub fn failing_at(
        &self,
        base: &WeakCellPopulation,
        months: u32,
        seed: u64,
        temp: Celsius,
        trefp: Milliseconds,
        context: CouplingContext,
    ) -> u64 {
        self.failing_per_bank_at(base, months, seed, temp, trefp, context)
            .iter()
            .sum()
    }
}

impl Default for DramAging {
    fn default() -> Self {
        DramAging::dsn18()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::{PopulationSpec, RetentionModel};
    use std::collections::HashMap;

    fn base() -> WeakCellPopulation {
        WeakCellPopulation::generate(&RetentionModel::xgene2_micron(), PopulationSpec::dsn18(), 3)
    }

    #[test]
    fn aging_is_deterministic_and_seed_sensitive() {
        let base = base();
        let aging = DramAging::dsn18();
        assert_eq!(
            aging.aged(&base, 18, 11).cells(),
            aging.aged(&base, 18, 11).cells()
        );
        assert_ne!(
            aging.aged(&base, 18, 11).cells(),
            aging.aged(&base, 18, 12).cells()
        );
    }

    #[test]
    fn grown_cells_are_prefix_stable() {
        // A grown cell, once placed, never moves or re-rolls when the
        // horizon extends — the property that makes any-month,
        // any-worker evaluation byte-stable.
        let base = base();
        let aging = DramAging {
            vrt_fraction: 0.0, // isolate growth from flicker
            ..DramAging::dsn18()
        };
        let early = aging.aged(&base, 6, 5);
        let late = aging.aged(&base, 30, 5);
        let late_by_word: HashMap<u64, &WeakCell> = late
            .cells()
            .iter()
            .map(|c| (c.addr.word.flatten(), c))
            .collect();
        let decay_ratio = aging.decay_factor(30) / aging.decay_factor(6);
        for cell in early.cells() {
            let found = late_by_word
                .get(&cell.addr.word.flatten())
                .expect("every early cell persists");
            assert_eq!(found.addr, cell.addr);
            // Retention may have decayed further, never recovered.
            let ratio = found.retention_at_60c_ms / cell.retention_at_60c_ms;
            assert!((ratio - decay_ratio).abs() < 1e-9 || (ratio - 1.0).abs() < 1e-9);
        }
        assert!(late.len() > early.len());
    }

    #[test]
    fn no_code_word_ever_hosts_two_weak_cells() {
        // The invariant behind "aging produces CEs, never UEs": grown
        // cells respect the sparing map of the original population.
        let base = base();
        let aged = DramAging::dsn18().aged(&base, 48, 9);
        let mut words = HashSet::new();
        for cell in aged.cells() {
            assert!(
                words.insert(cell.addr.word.flatten()),
                "word {:?} hosts two weak cells",
                cell.addr.word
            );
        }
    }

    #[test]
    fn retention_decays_and_population_grows_monotonically() {
        let base = base();
        let aging = DramAging {
            vrt_fraction: 0.0,
            ..DramAging::dsn18()
        };
        let mut prev_len = base.len();
        for months in [6, 12, 24, 48] {
            let aged = aging.aged(&base, months, 1);
            assert!(aged.len() >= prev_len, "month {months}");
            prev_len = aged.len();
        }
        let decayed = aging.aged(&base, 36, 1);
        // Same first cell, lower retention.
        assert!(decayed.cells()[0].retention_at_60c_ms < base.cells()[0].retention_at_60c_ms);
    }

    #[test]
    fn vrt_cells_flicker_in_and_out() {
        let base = base();
        let aging = DramAging {
            growth_cells_per_bank_month: 4.0,
            vrt_fraction: 1.0, // every grown cell flickers
            vrt_duty: 0.5,
            ..DramAging::dsn18()
        };
        let lens: Vec<usize> = (1..=12).map(|m| aging.aged(&base, m, 2).len()).collect();
        // With 100% VRT at 50% duty the visible count must go *down*
        // at least once across months — a monotone count would mean
        // flicker is not being applied.
        assert!(
            lens.windows(2).any(|w| w[1] < w[0]),
            "visible population never shrank: {lens:?}"
        );
    }

    #[test]
    fn monitoring_query_matches_full_population_build() {
        let base = base();
        let aging = DramAging::dsn18();
        let temp = Celsius::new(60.0);
        let trefp = Milliseconds::new(400.0);
        for months in [0, 7, 25] {
            let cheap = aging.failing_per_bank_at(
                &base,
                months,
                6,
                temp,
                trefp,
                CouplingContext::WorstCase,
            );
            let full = aging.aged(&base, months, 6).failing_per_bank(
                temp,
                trefp,
                CouplingContext::WorstCase,
            );
            assert_eq!(cheap, full, "month {months}");
        }
    }

    #[test]
    fn failing_count_at_deployed_trefp_rises_with_age() {
        // The drift signal the maintenance scheduler watches: at a
        // margined deployed refresh period, the failing count starts
        // at zero (that is what the margin buys) and grows as cells
        // enter the tail.
        let base = base();
        let aging = DramAging {
            vrt_fraction: 0.0,
            ..DramAging::dsn18()
        };
        let temp = Celsius::new(60.0);
        let floors = base.min_retention_per_bank(temp, CouplingContext::WorstCase);
        let floor = floors
            .iter()
            .map(|f| f.expect("every bank populated"))
            .fold(f64::INFINITY, f64::min);
        let deployed = Milliseconds::new(floor / 1.25);
        assert_eq!(
            aging.failing_at(&base, 0, 4, temp, deployed, CouplingContext::WorstCase),
            0
        );
        let counts: Vec<u64> = (0..=60)
            .step_by(12)
            .map(|m| aging.failing_at(&base, m, 4, temp, deployed, CouplingContext::WorstCase))
            .collect();
        assert!(
            counts.windows(2).all(|w| w[1] >= w[0]),
            "failing count must be monotone: {counts:?}"
        );
        assert!(
            *counts.last().unwrap() > 0,
            "five deployed years must surface at least one grown failing cell: {counts:?}"
        );
    }
}
