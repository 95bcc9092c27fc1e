//! The `control_plane_*` metrics family: request counters by route and
//! status class, an in-flight gauge and per-route latency histograms.
//!
//! Every series lives in one [`telemetry::Registry`] shared by all
//! worker threads (the registry is `Send + Sync`). Series names are
//! formatted once, in [`ServerMetrics::new`], so recording a request is
//! two registry updates that never allocate. A scrape merges this
//! registry's snapshot into the campaign-derived base, so the exposition
//! format stays byte-compatible with everything else the workspace
//! exports.

use telemetry::metrics::{
    exponential_bounds, series_name, HistogramSnapshot, MetricsSnapshot, Registry,
};

const REQUESTS: &str = "control_plane_requests_total";
const LATENCY: &str = "control_plane_request_seconds";
const IN_FLIGHT: &str = "control_plane_in_flight";
const CONNECTIONS: &str = "control_plane_connections_total";
const PARSE_ERRORS: &str = "control_plane_parse_errors_total";

/// The routes the server distinguishes in metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/safe-point/{board}`
    SafePoint,
    /// `POST /v1/campaigns`
    CampaignSubmit,
    /// `GET /v1/campaigns/{id}`
    CampaignStatus,
    /// `GET /v1/status`
    Status,
    /// `GET /v1/dispatch`
    Dispatch,
    /// `GET /metrics`
    Metrics,
    /// Anything else (404s, parse failures, bad methods).
    Other,
}

/// Every route, in exposition order.
pub const ROUTES: [Route; 7] = [
    Route::SafePoint,
    Route::CampaignSubmit,
    Route::CampaignStatus,
    Route::Status,
    Route::Dispatch,
    Route::Metrics,
    Route::Other,
];

impl Route {
    /// The `route` label value.
    pub fn label(self) -> &'static str {
        match self {
            Route::SafePoint => "safe_point",
            Route::CampaignSubmit => "campaign_submit",
            Route::CampaignStatus => "campaign_status",
            Route::Status => "status",
            Route::Dispatch => "dispatch",
            Route::Metrics => "metrics",
            Route::Other => "other",
        }
    }
}

/// Index of a status code's class in [`RouteSeries::requests`]: 2xx,
/// 4xx, and everything else counted as 5xx.
fn class_index(status: u16) -> usize {
    match status {
        200..=299 => 0,
        400..=499 => 1,
        _ => 2,
    }
}

/// Latency bucket bounds, seconds: 1 µs … ~2.1 s, doubling. Chosen with
/// [`exponential_bounds`] so an in-process dispatch (microseconds) and a
/// slow drained connection (seconds) land in the same histogram with
/// constant relative resolution.
pub fn latency_bounds() -> Vec<f64> {
    exponential_bounds(1e-6, 2.0, 22)
}

/// One route's series names, formatted once.
#[derive(Debug)]
struct RouteSeries {
    /// `control_plane_requests_total{route,status}` for 2xx, 4xx, 5xx.
    requests: [String; 3],
    /// `control_plane_request_seconds{route}`.
    latency: String,
}

/// The server's own metrics. One instance per server, shared by every
/// worker thread; all methods are `&self`.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    /// Indexed by `Route as usize`, the declaration order [`ROUTES`]
    /// lists.
    routes: Vec<RouteSeries>,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Fresh metrics with the standard latency buckets.
    pub fn new() -> Self {
        let registry = Registry::new();
        let bounds = latency_bounds();
        let routes = ROUTES
            .iter()
            .map(|route| {
                let label = ("route", route.label());
                let latency = series_name(LATENCY, &[label]);
                registry.register_histogram(&latency, &bounds);
                RouteSeries {
                    requests: ["2xx", "4xx", "5xx"]
                        .map(|class| series_name(REQUESTS, &[label, ("status", class)])),
                    latency,
                }
            })
            .collect();
        // The scalar series are exported from the first scrape on.
        registry.counter_add(CONNECTIONS, 0);
        registry.counter_add(PARSE_ERRORS, 0);
        registry.gauge_set(IN_FLIGHT, 0.0);
        ServerMetrics { registry, routes }
    }

    fn series(&self, route: Route) -> &RouteSeries {
        &self.routes[route as usize]
    }

    /// Marks a request in flight; the guard decrements on drop so every
    /// exit path (including handler panics unwinding) restores the
    /// gauge.
    pub fn begin_request(&self) -> InFlightGuard<'_> {
        self.registry.gauge_add(IN_FLIGHT, 1.0);
        InFlightGuard { metrics: self }
    }

    /// Records one completed request.
    pub fn observe(&self, route: Route, status: u16, seconds: f64) {
        let series = self.series(route);
        self.registry
            .counter_add(&series.requests[class_index(status)], 1);
        self.registry.observe(&series.latency, seconds);
    }

    /// Counts one accepted connection.
    pub fn connection_opened(&self) {
        self.registry.counter_add(CONNECTIONS, 1);
    }

    /// Counts one request that failed HTTP parsing.
    pub fn parse_error(&self) {
        self.registry.counter_add(PARSE_ERRORS, 1);
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.registry.gauge(IN_FLIGHT).unwrap_or(0.0) as u64
    }

    /// One route's latency distribution as an inert snapshot (the
    /// quantile substrate for `BENCH_serving.json`).
    pub fn latency_snapshot(&self, route: Route) -> HistogramSnapshot {
        self.registry
            .histogram(&self.series(route).latency)
            .expect("every route's histogram is registered in new")
    }

    /// The `control_plane_*` family as an inert, name-sorted snapshot.
    /// Routes that have served nothing export no histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.histograms.retain(|(_, h)| h.count > 0);
        snap
    }

    /// The full `/metrics` exposition: the campaign-derived base
    /// snapshot plus the `control_plane_*` family, in the workspace's
    /// deterministic Prometheus text format. Histograms are restored
    /// from their snapshots, so scrape cost is independent of how many
    /// requests have been served.
    pub fn exposition(&self, base: &MetricsSnapshot) -> String {
        let mut merged = base.clone();
        merged.merge(&self.snapshot());
        Registry::from_snapshot(&merged).prometheus()
    }
}

/// Decrements the in-flight gauge on drop.
#[derive(Debug)]
pub struct InFlightGuard<'a> {
    metrics: &'a ServerMetrics,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.metrics.registry.gauge_add(IN_FLIGHT, -1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_split_by_route_and_status_class() {
        let m = ServerMetrics::new();
        m.observe(Route::SafePoint, 200, 1e-5);
        m.observe(Route::SafePoint, 200, 2e-5);
        m.observe(Route::SafePoint, 404, 1e-5);
        m.observe(Route::Status, 500, 1e-4);
        let text = m.exposition(&MetricsSnapshot::default());
        assert!(
            text.contains("control_plane_requests_total{route=\"safe_point\",status=\"2xx\"} 2")
        );
        assert!(
            text.contains("control_plane_requests_total{route=\"safe_point\",status=\"4xx\"} 1")
        );
        assert!(text.contains("control_plane_requests_total{route=\"status\",status=\"5xx\"} 1"));
        assert!(text.contains("control_plane_in_flight 0"));
    }

    #[test]
    fn routes_index_their_series_in_declaration_order() {
        let m = ServerMetrics::new();
        for (index, route) in ROUTES.into_iter().enumerate() {
            assert_eq!(route as usize, index);
            assert!(m.series(route).latency.contains(route.label()));
        }
    }

    #[test]
    fn in_flight_guard_restores_the_gauge() {
        let m = ServerMetrics::new();
        {
            let _a = m.begin_request();
            let _b = m.begin_request();
            assert_eq!(m.in_flight(), 2);
        }
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn latency_snapshot_supports_quantiles() {
        let m = ServerMetrics::new();
        for _ in 0..100 {
            m.observe(Route::SafePoint, 200, 3e-6); // (2µs, 4µs]
        }
        let snap = m.latency_snapshot(Route::SafePoint);
        assert_eq!(snap.count, 100);
        let p99 = snap.p99().unwrap();
        assert!(p99 > 2e-6 && p99 <= 4e-6, "p99 {p99} outside its bucket");
        // Rendering replays the same distribution into the registry.
        let text = m.exposition(&MetricsSnapshot::default());
        assert!(text.contains("control_plane_request_seconds_count{route=\"safe_point\"} 100"));
        assert!(text.contains(
            "control_plane_request_seconds_bucket{route=\"safe_point\",le=\"0.000004\"} 100"
        ));
    }

    #[test]
    fn exposition_merges_the_campaign_base() {
        let m = ServerMetrics::new();
        let base_registry = Registry::new();
        base_registry.counter_add("fleet_jobs_total", 42);
        let text = m.exposition(&base_registry.snapshot());
        assert!(text.contains("fleet_jobs_total 42"));
        assert!(text.contains("control_plane_in_flight 0"));
    }
}
