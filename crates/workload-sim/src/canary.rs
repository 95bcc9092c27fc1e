//! Canary kernels for redundant-execution SDC sentinels.
//!
//! A silent data corruption is, by definition, invisible to the hardware
//! error reporting: the run completes, no CE/UE is logged, and the output
//! is simply wrong. The only way a production system operating below the
//! guardband can *observe* one is to run a workload whose correct output
//! is known in advance and compare. These canaries are that workload: tiny
//! deterministic integer/float kernels whose full execution folds into a
//! single 64-bit checksum, with the golden value precomputed at
//! construction so a sentinel check is one equality test.
//!
//! Two properties matter:
//!
//! * **Determinism** — the same kernel always produces the same checksum,
//!   on any host, so golden values can be computed once and reused across
//!   epochs, cores and (in DMR mode) compared between the two cores of a
//!   PMD;
//! * **Fault sensitivity** — any single-bit upset in the kernel's working
//!   set changes the checksum. The fold is FNV-1a over every intermediate
//!   word, so a flip anywhere in the stream avalanches into the digest.
//!
//! [`CanaryKernel::run_corrupted`] models what an SDC does to the kernel:
//! it flips one deterministic pseudo-random bit mid-stream and returns the
//! resulting (wrong) checksum, which the sentinel layer uses to emulate
//! corrupted executions without needing oracle access to outcomes.

use serde::{Deserialize, Serialize};
use xgene_sim::workload::{StressTarget, WorkloadProfile};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic checksum kernel with a precomputed golden value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanaryKernel {
    name: String,
    /// Working-set length in 64-bit words.
    words: usize,
    /// Seed of the input stream.
    seed: u64,
    /// Checksum of a fault-free execution.
    golden: u64,
}

impl CanaryKernel {
    /// Builds a kernel and precomputes its golden checksum.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn new(name: impl Into<String>, words: usize, seed: u64) -> Self {
        assert!(words > 0, "a canary needs a non-empty working set");
        let mut kernel = CanaryKernel {
            name: name.into(),
            words,
            seed,
            golden: 0,
        };
        kernel.golden = kernel.checksum(None);
        kernel
    }

    /// The integer-pipeline canary: multiply/rotate chains the ALUs see.
    pub fn int_alu() -> Self {
        CanaryKernel::new("canary-int", 2048, 0x1A5C_0FFE)
    }

    /// The streaming canary: a longer working set, representative of the
    /// cache-resident data an SDC would corrupt in flight.
    pub fn stream() -> Self {
        CanaryKernel::new("canary-stream", 8192, 0x5EED_CAFE)
    }

    /// The default sentinel pair: one short ALU-bound and one streaming
    /// canary, alternated by the sentinel scheduler.
    pub fn sentinel_suite() -> Vec<CanaryKernel> {
        vec![CanaryKernel::int_alu(), CanaryKernel::stream()]
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The precomputed golden checksum.
    pub fn golden(&self) -> u64 {
        self.golden
    }

    /// Electrical activity profile of the canary for the fault model: a
    /// moderate, mixed-stress load (sentinels must not themselves be
    /// viruses — they probe the operating point the *production* workload
    /// runs at, without dragging Vmin up).
    pub fn profile(&self) -> WorkloadProfile {
        WorkloadProfile::builder(self.name.clone())
            .activity(0.55)
            .swing(0.35)
            .resonance_alignment(0.05)
            .memory_intensity(if self.words >= 4096 { 0.5 } else { 0.1 })
            .target(StressTarget::IntAlu)
            .build()
    }

    /// Executes the kernel fault-free and returns the checksum (always
    /// equal to [`Self::golden`]).
    pub fn run_clean(&self) -> u64 {
        self.checksum(None)
    }

    /// Executes the kernel with one single-bit upset injected at a
    /// position derived deterministically from `fault_seed`, returning the
    /// corrupted checksum. Guaranteed (and tested) to differ from golden
    /// for every seed: the flipped word enters the FNV fold directly.
    pub fn run_corrupted(&self, fault_seed: u64) -> u64 {
        let word = (rand::splitmix64(fault_seed) % self.words as u64) as usize;
        let bit = (rand::splitmix64(fault_seed ^ 0x9E37_79B9) % 64) as u32;
        self.checksum(Some((word, bit)))
    }

    /// The kernel body: an xorshift input stream pushed through a short
    /// integer pipeline, every intermediate folded into FNV-1a.
    fn checksum(&self, fault: Option<(usize, u32)>) -> u64 {
        let mut x = self.seed | 1;
        let mut acc: u64 = 0x2545_F491_4F6C_DD1D;
        let mut digest = FNV_OFFSET;
        for i in 0..self.words {
            // xorshift64 input stream.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A dependent multiply-rotate-add chain: the kind of dataflow
            // whose corruption an SDC cannot hide from the fold.
            let mut v = x
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left((i % 63) as u32)
                .wrapping_add(acc);
            if let Some((word, bit)) = fault {
                if i == word {
                    v ^= 1u64 << bit;
                }
            }
            acc = acc.wrapping_add(v).rotate_left(7);
            for byte in v.to_le_bytes() {
                digest ^= u64::from(byte);
                digest = digest.wrapping_mul(FNV_PRIME);
            }
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_is_reproducible() {
        let a = CanaryKernel::int_alu();
        let b = CanaryKernel::int_alu();
        assert_eq!(a.golden(), b.golden());
        assert_eq!(a.run_clean(), a.golden());
        for _ in 0..5 {
            assert_eq!(a.run_clean(), a.golden(), "checksum is pure");
        }
    }

    #[test]
    fn suite_kernels_have_distinct_goldens() {
        let suite = CanaryKernel::sentinel_suite();
        assert_eq!(suite.len(), 2);
        assert_ne!(suite[0].golden(), suite[1].golden());
        assert_ne!(suite[0].name(), suite[1].name());
    }

    #[test]
    fn every_injected_fault_changes_the_checksum() {
        // The acceptance-critical property: a single-bit upset anywhere in
        // the stream is never absorbed by the fold.
        for kernel in CanaryKernel::sentinel_suite() {
            for fault_seed in 0..512u64 {
                let corrupted = kernel.run_corrupted(fault_seed);
                assert_ne!(
                    corrupted,
                    kernel.golden(),
                    "fault seed {fault_seed} collided with golden on {}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn distinct_faults_usually_produce_distinct_checksums() {
        let kernel = CanaryKernel::int_alu();
        let mut seen = std::collections::HashSet::new();
        for fault_seed in 0..256u64 {
            seen.insert(kernel.run_corrupted(fault_seed));
        }
        // (word, bit) positions collide across seeds, but far fewer than
        // half of them may alias.
        assert!(seen.len() > 128, "only {} distinct checksums", seen.len());
    }

    #[test]
    fn profile_is_moderate() {
        let p = CanaryKernel::stream().profile();
        assert!(p.droop_score() < 0.7, "sentinels must not be viruses");
        assert_eq!(p.target(), StressTarget::IntAlu);
    }

    #[test]
    fn serde_roundtrip_preserves_golden() {
        let kernel = CanaryKernel::stream();
        let text = serde::json::to_string(&kernel);
        let back: CanaryKernel = serde::json::from_str(&text).unwrap();
        assert_eq!(kernel, back);
        assert_eq!(back.run_clean(), back.golden());
    }
}
