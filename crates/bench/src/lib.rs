//! Benchmark harness regenerating every table and figure of the DSN'18
//! guardband paper.
//!
//! One module per experiment, each exposing `run(..)` (returning the
//! dataset) and `render(..)` (the paper-vs-measured text table):
//!
//! | Module     | Paper artefact |
//! |------------|----------------|
//! | [`fig4`]   | Fig. 4 — SPEC2006 Vmin on TTT/TFF/TSS |
//! | [`fig5`]   | Fig. 5 — power/performance trade-off |
//! | [`fig6_7`] | Fig. 6/7 — EM virus vs NAS, inter-chip margins |
//! | [`table1`] | Table I — unique error locations per bank |
//! | [`fig8`]   | Fig. 8a/8b — BER and refresh power savings |
//! | [`fig9`]   | Fig. 9 — jammer-detector exploitation |
//! | [`extras`] | §IV.C stencil scheduling, §IV.D predictor |
//! | [`ablation`] | ECC / virus-search / retention-model / governor ablations |
//! | [`sweep`]  | extension: safe refresh envelope vs temperature |
//! | [`fleet_scale`] | extension: 256-board fleet orchestration speedup |
//! | [`chaos_scale`] | extension: 64 seeded crash schedules, byte-identical recovery |
//! | [`lifetime_scale`] | extension: 16-board fleet aged 60 months with maintenance |
//! | [`redteam_scale`] | extension: adversarial co-evolution vs the safety net |
//! | [`obs_scale`] | extension: fleet observatory incidents, early warning, merge throughput |
//! | [`serving`] | extension: control-plane serving under seeded diurnal load |
//! | [`dispatch_scale`] | extension: economic dispatch vs nominal-only ablation |
//!
//! The `experiments` binary drives all of them; the `benches/` directory
//! holds criterion timings of the same entry points.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod chaos_scale;
pub mod dispatch_scale;
pub mod extras;
pub mod fig4;
pub mod fig5;
pub mod fig6_7;
pub mod fig8;
pub mod fig9;
pub mod fleet_scale;
pub mod lifetime_scale;
pub mod obs_scale;
pub mod redteam_scale;
pub mod serving;
pub mod sweep;
pub mod table1;

/// Folds `bytes` into an FNV-1a hash (start from the offset basis
/// `0xcbf2_9ce4_8422_2325`) — the fingerprint behind the `BENCH_*.json`
/// reproducibility fields.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}
