//! `/metrics` exposition parity: a fixed request sequence must render
//! exactly the lines recorded in `fixtures/metrics_parity.prom`, which
//! was captured from the atomics-based implementation this registry-
//! backed one replaced. `_sum` lines are compared numerically, because
//! that implementation accumulated integer nanoseconds where the
//! registry accumulates `f64` seconds.

use control_plane::{Route, ServerMetrics};
use telemetry::metrics::Registry;

const EXPECTED: &str = include_str!("fixtures/metrics_parity.prom");

fn exposition() -> String {
    let m = ServerMetrics::new();
    // Several routes, 2xx/3xx/4xx/5xx, latencies from below the first
    // bucket (1 µs) to past the last (~2.1 s) into `+Inf`. `Dispatch`
    // serves nothing, so its histogram must not appear.
    let requests = [
        (Route::SafePoint, 200, 5e-7),
        (Route::SafePoint, 200, 1e-6),
        (Route::SafePoint, 200, 3e-6),
        (Route::SafePoint, 304, 2.5e-5),
        (Route::SafePoint, 404, 1.2e-4),
        (Route::Status, 200, 7e-4),
        (Route::Status, 503, 0.03),
        (Route::CampaignSubmit, 202, 0.5),
        (Route::CampaignStatus, 404, 2.0),
        (Route::Metrics, 200, 9.0),
        (Route::Other, 400, 1e-5),
        (Route::Other, 405, 4.2),
        (Route::Other, 500, 17.0),
    ];
    for (route, status, seconds) in requests {
        m.observe(route, status, seconds);
    }
    for _ in 0..3 {
        m.connection_opened();
    }
    m.parse_error();
    let _held = m.begin_request();
    let base = Registry::new();
    base.counter_add("fleet_jobs_total", 42);
    base.gauge_set("fleet_total_savings_watts", 12.5);
    base.register_histogram("fleet_margin_mv", &[10.0, 20.0]);
    base.observe("fleet_margin_mv", 15.0);
    m.exposition(&base.snapshot())
}

#[test]
fn exposition_matches_the_recorded_lines() {
    let actual = exposition();
    let got: Vec<&str> = actual.lines().collect();
    let want: Vec<&str> = EXPECTED.lines().collect();
    assert_eq!(got.len(), want.len(), "line count differs:\n{actual}");
    for (got, want) in got.iter().zip(&want) {
        let sum_line = want
            .split_once(' ')
            .filter(|(series, _)| series.contains("_sum"));
        match sum_line {
            Some((series, value)) => {
                let (got_series, got_value) = got.split_once(' ').unwrap();
                assert_eq!(got_series, series);
                let (got_value, value): (f64, f64) =
                    (got_value.parse().unwrap(), value.parse().unwrap());
                assert!(
                    (got_value - value).abs() <= 1e-9 * value.abs().max(1.0),
                    "{series}: {got_value} vs {value}"
                );
            }
            None => assert_eq!(got, want),
        }
    }
    assert!(!actual.contains("route=\"dispatch\""));
}
