//! Regenerates the paper's tables and figures.
//!
//! Usage: `experiments [fig4|fig5|fig6|fig7|table1|fig8a|fig8b|fig9|stencil|predictor|ablations|sweep|fleet|chaos|lifetime|redteam|obs|serving|dispatch|all] [seed]`
//!
//! An unknown experiment or an unparsable seed exits 2; a record that
//! cannot be written exits 1.
//!
//! `fleet` additionally writes the speedup record to `BENCH_fleet.json`,
//! `chaos` the crash-recovery record to `BENCH_chaos.json`, `lifetime`
//! the aging record to `BENCH_lifetime.json`, `redteam` the adversarial
//! record to `BENCH_redteam.json`, `obs` the observatory record to
//! `BENCH_obs.json`, `serving` the control-plane record to
//! `BENCH_serving.json`, and `dispatch` the economic-dispatch record to
//! `BENCH_dispatch.json`, all in the current directory.

use guardband_bench as bench;
use serde::Serialize;

const EXPERIMENTS: &str = "fig4|fig5|fig6|fig7|table1|fig8a|fig8b|fig9|stencil|predictor|ablations|sweep|fleet|chaos|lifetime|redteam|obs|serving|dispatch|all";

/// The seed argument: absent means the paper's year, 2018.
fn parse_seed(arg: Option<&str>) -> Result<u64, std::num::ParseIntError> {
    arg.map_or(Ok(2018), str::parse)
}

/// Writes `data` as JSON to `path` in the current directory; a failed
/// write exits 1, so no stale record can pass a later gate.
fn write_record(path: &str, data: &impl Serialize) {
    match std::fs::write(path, serde::json::to_string(data)) {
        Ok(()) => println!("(record written to {path})"),
        Err(err) => {
            eprintln!("could not write {path}: {err}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let seed = match parse_seed(args.get(1).map(String::as_str)) {
        Ok(seed) => seed,
        Err(err) => {
            eprintln!("invalid seed '{}': {err}", args[1]);
            eprintln!("usage: experiments [{EXPERIMENTS}] [seed]");
            std::process::exit(2);
        }
    };
    println!("DSN'18 guardband reproduction — experiment '{which}', seed {seed}\n");

    let run_fig4 = || println!("{}", bench::fig4::render(&bench::fig4::run(seed)));
    let run_fig5 = || println!("{}", bench::fig5::render(&bench::fig5::run()));
    let run_fig67 = || println!("{}", bench::fig6_7::render(&bench::fig6_7::run(seed)));
    let run_table1 = || println!("{}", bench::table1::render(&bench::table1::run(seed)));
    let run_fig8 = || println!("{}", bench::fig8::render(&bench::fig8::run(seed)));
    let run_fig9 = || println!("{}", bench::fig9::render(&bench::fig9::run(seed)));
    let run_stencil = || {
        println!(
            "{}",
            bench::extras::render_stencil(&bench::extras::run_stencil(seed))
        )
    };
    let run_predictor = || {
        println!(
            "{}",
            bench::extras::render_predictor(&bench::extras::run_predictor())
        )
    };
    let run_ablations = || println!("{}", bench::ablation::render(seed));
    let run_sweep = || println!("{}", bench::sweep::render(&bench::sweep::run()));
    let run_fleet = || {
        let data = bench::fleet_scale::run(seed);
        println!("{}", bench::fleet_scale::render(&data));
        write_record("BENCH_fleet.json", &data);
    };
    let run_chaos = || {
        let data = bench::chaos_scale::run(seed);
        println!("{}", bench::chaos_scale::render(&data));
        write_record("BENCH_chaos.json", &data);
    };
    let run_lifetime = || {
        let data = bench::lifetime_scale::run(seed);
        println!("{}", bench::lifetime_scale::render(&data));
        write_record("BENCH_lifetime.json", &data);
    };
    let run_redteam = || {
        let data = bench::redteam_scale::run(seed);
        println!("{}", bench::redteam_scale::render(&data));
        write_record("BENCH_redteam.json", &data);
    };
    let run_obs = || {
        let data = bench::obs_scale::run(seed);
        println!("{}", bench::obs_scale::render(&data));
        write_record("BENCH_obs.json", &data);
    };
    let run_serving = || {
        let data = bench::serving::run(seed);
        println!("{}", bench::serving::render(&data));
        write_record("BENCH_serving.json", &data);
    };
    let run_dispatch = || {
        let data = bench::dispatch_scale::run(seed);
        println!("{}", bench::dispatch_scale::render(&data));
        write_record("BENCH_dispatch.json", &data);
    };

    match which {
        "fig4" => run_fig4(),
        "fig5" => run_fig5(),
        "fig6" | "fig7" | "fig6_7" => run_fig67(),
        "table1" => run_table1(),
        "fig8" | "fig8a" | "fig8b" => run_fig8(),
        "fig9" => run_fig9(),
        "stencil" => run_stencil(),
        "predictor" => run_predictor(),
        "ablations" => run_ablations(),
        "sweep" => run_sweep(),
        "fleet" => run_fleet(),
        "chaos" => run_chaos(),
        "lifetime" => run_lifetime(),
        "redteam" => run_redteam(),
        "obs" => run_obs(),
        "serving" => run_serving(),
        "dispatch" => run_dispatch(),
        "all" => {
            run_fig4();
            run_fig5();
            run_fig67();
            run_table1();
            run_fig8();
            run_fig9();
            run_stencil();
            run_predictor();
            run_ablations();
            run_sweep();
            run_fleet();
            run_chaos();
            run_lifetime();
            run_redteam();
            run_obs();
            run_serving();
            run_dispatch();
        }
        other => {
            eprintln!("unknown experiment '{other}'; expected one of {EXPERIMENTS}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_seed_defaults_to_2018() {
        assert_eq!(parse_seed(None), Ok(2018));
    }

    #[test]
    fn a_numeric_seed_parses() {
        assert_eq!(parse_seed(Some("7")), Ok(7));
        assert_eq!(parse_seed(Some("18446744073709551615")), Ok(u64::MAX));
    }

    #[test]
    fn an_unparsable_seed_is_an_error() {
        for bad in ["abc", "", "-1", "2018x", "1e3", "18446744073709551616"] {
            assert!(parse_seed(Some(bad)).is_err(), "{bad:?} parsed");
        }
    }
}
