//! Data-pattern benchmarks (DPBenches).
//!
//! The paper stresses DRAM with all-0s, all-1s, checkerboard and random
//! patterns "which stress the whole DRAM memory by writing the specific
//! patterns and accessing them" — the methodology of Liu et al. (ISCA'13).
//! A pattern defines the payload of every word as a pure function of its
//! address, so whole-array fills need no storage.

use crate::geometry::WordAddr;
use crate::retention::CouplingContext;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A whole-array data pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataPattern {
    /// Every bit zero.
    AllZeros,
    /// Every bit one.
    AllOnes,
    /// Alternating bits, with word-level phase alternating by row+column
    /// parity. `inverted` selects the complementary phase.
    Checkerboard {
        /// Complemented phase.
        inverted: bool,
    },
    /// Pseudo-random data, deterministic in the seed and the address.
    Random {
        /// Seed for the per-round pseudo-random data.
        seed: u64,
    },
}

impl DataPattern {
    /// The four patterns of a standard DPBench campaign (one random round).
    pub fn dpbench_suite(seed: u64) -> [DataPattern; 4] {
        [
            DataPattern::AllZeros,
            DataPattern::AllOnes,
            DataPattern::Checkerboard { inverted: false },
            DataPattern::Random { seed },
        ]
    }

    /// The 64-bit payload this pattern stores at `addr`.
    pub fn word(&self, addr: WordAddr) -> u64 {
        match self {
            DataPattern::AllZeros => 0,
            DataPattern::AllOnes => u64::MAX,
            DataPattern::Checkerboard { inverted } => {
                let base = if (addr.row as u64 + u64::from(addr.col)).is_multiple_of(2) {
                    0xAAAA_AAAA_AAAA_AAAA
                } else {
                    0x5555_5555_5555_5555
                };
                if *inverted {
                    !base
                } else {
                    base
                }
            }
            DataPattern::Random { seed } => rand::splitmix64(addr.flatten() ^ seed.rotate_left(17)),
        }
    }

    /// The coupling stress context this pattern creates.
    pub fn coupling_context(&self) -> CouplingContext {
        match self {
            DataPattern::AllZeros | DataPattern::AllOnes => CouplingContext::Uniform,
            DataPattern::Checkerboard { .. } => CouplingContext::Alternating,
            DataPattern::Random { .. } => CouplingContext::WorstCase,
        }
    }
}

impl fmt::Display for DataPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataPattern::AllZeros => f.write_str("all-0s"),
            DataPattern::AllOnes => f.write_str("all-1s"),
            DataPattern::Checkerboard { inverted: false } => f.write_str("checkerboard"),
            DataPattern::Checkerboard { inverted: true } => f.write_str("checkerboard-inv"),
            DataPattern::Random { seed } => write!(f, "random(seed={seed})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BankId, RankId};

    fn addr(row: u32, col: u16) -> WordAddr {
        WordAddr::new(RankId::new(0), BankId::new(0), row, col)
    }

    #[test]
    fn solids_are_solid() {
        assert_eq!(DataPattern::AllZeros.word(addr(5, 5)), 0);
        assert_eq!(DataPattern::AllOnes.word(addr(5, 5)), u64::MAX);
    }

    #[test]
    fn checkerboard_alternates_by_parity() {
        let p = DataPattern::Checkerboard { inverted: false };
        assert_ne!(p.word(addr(0, 0)), p.word(addr(0, 1)));
        assert_eq!(p.word(addr(0, 0)), p.word(addr(1, 1)));
        let inv = DataPattern::Checkerboard { inverted: true };
        assert_eq!(inv.word(addr(0, 0)), !p.word(addr(0, 0)));
    }

    #[test]
    fn random_is_deterministic_and_seed_sensitive() {
        let a = DataPattern::Random { seed: 1 };
        let b = DataPattern::Random { seed: 2 };
        assert_eq!(a.word(addr(3, 3)), a.word(addr(3, 3)));
        assert_ne!(a.word(addr(3, 3)), b.word(addr(3, 3)));
        assert_ne!(a.word(addr(3, 3)), a.word(addr(3, 4)));
    }

    #[test]
    fn random_bits_are_balanced() {
        let p = DataPattern::Random { seed: 99 };
        let ones: u32 = (0..1000).map(|i| p.word(addr(i, 0)).count_ones()).sum();
        let frac = f64::from(ones) / 64_000.0;
        assert!((frac - 0.5).abs() < 0.02, "ones fraction {frac}");
    }

    #[test]
    fn contexts_match_patterns() {
        assert_eq!(
            DataPattern::AllZeros.coupling_context(),
            CouplingContext::Uniform
        );
        assert_eq!(
            DataPattern::Checkerboard { inverted: false }.coupling_context(),
            CouplingContext::Alternating
        );
        assert_eq!(
            DataPattern::Random { seed: 0 }.coupling_context(),
            CouplingContext::WorstCase
        );
    }

    #[test]
    fn suite_has_four_distinct_patterns() {
        let suite = DataPattern::dpbench_suite(1);
        assert_eq!(suite.len(), 4);
        assert_eq!(
            suite.iter().collect::<std::collections::HashSet<_>>().len(),
            4
        );
    }
}
