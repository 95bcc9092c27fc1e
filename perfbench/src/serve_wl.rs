//! `serve`: `control_plane::serve` on loopback with `nproc` workers,
//! after a warm-up campaign, driven by one generator thread over `nproc`
//! keep-alive connections.
//!
//! * Open loop: requests go out at their `loadgen` due times (diurnal
//!   swing, two ×3 flash crowds), pipelined when replies are
//!   outstanding. The mix is loadgen's GET mix plus conditional lookups
//!   carrying the current ETag and a low-rate stream of small campaign
//!   submissions whose completions roll the epoch mid-run.
//! * Closed loop: each connection sends its next request when the
//!   previous reply arrives; the completion rate is the saturated
//!   throughput.
//!
//! Every reply is checked: its status against the request, each lookup
//! body against the body the router builds for the same snapshot
//! version, and no lookup may return a snapshot older than the one
//! published when it was sent.

use crate::client::{closed_loop, open_loop, Client, Reply};
use crate::report::{repeated_setup, Ctx, Outcome};
use crate::stats::{fingerprint, median, percentile, Tail};
use crate::trace::{by_layer, Tracer};
use control_plane::http::{Limits, Method, Parsed, Request};
use control_plane::{
    parse_request, serve, CampaignRunner, CampaignSpec, CampaignState, ControlState, LoadProfile,
    Router, SafePointSnapshot, ServerConfig, ServerHandle, ServerMetrics,
};
use guardband_core::safepoint::SafePointStore;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Boards the warm-up campaign characterizes; lookups draw from a wider
/// id space, so about a quarter of them ask for unknown boards.
const SERVED_BOARDS: u32 = 48;
const BOARD_SPACE: u32 = 64;
/// Mean open-loop arrival rate, requests/s. The diurnal swing peaks at
/// 1.4× and flash crowds multiply by 3, so the busiest instants offer
/// 4.2× this rate: 40k requests/s, about 0.8× the closed-loop
/// saturation of this workload on a 2-vCPU Xeon (median 50k over ten
/// 20 s runs reading 37–61k). Each run prints its own
/// peak-to-saturation ratio (`serve_peak_to_saturated`).
const BASE_QPS: f64 = 9500.0;
/// Share of the timed phase spent open-loop; the rest is closed-loop.
const OPEN_SHARE: f64 = 0.7;
/// Share of lookups sent with `If-None-Match` and the current ETag.
const CONDITIONAL_PERCENT: u64 = 20;
/// One campaign submission per this many seconds of open loop.
const SUBMIT_EVERY_S: f64 = 1.0;
const SUBMIT_BOARDS: u32 = 2;
const DRAIN_NS: u64 = 2_000_000_000;
/// Closed-loop completions are counted per window of this length; the
/// saturated rate is the median window.
const WINDOW_NS: u64 = 250_000_000;

const SETUP_REPEATS: usize = 3;
/// In-process samples per layer in the traced run.
const INPROC_SAMPLES: usize = 2000;
const PUBLISH_SAMPLES: usize = 20;

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Lookup { board: u32, conditional: bool },
    Status,
    Campaign { id: u64 },
    Metrics,
    Submit { seed: u64 },
}

#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    target: String,
}

impl Req {
    fn from_target(target: &str, conditional: bool) -> Req {
        let kind = if let Some(board) = target.strip_prefix("/v1/safe-point/") {
            Kind::Lookup {
                board: board.parse().expect("loadgen boards are numeric"),
                conditional,
            }
        } else if let Some(id) = target.strip_prefix("/v1/campaigns/") {
            Kind::Campaign {
                id: id.parse().expect("loadgen campaign ids are numeric"),
            }
        } else if target == "/metrics" {
            Kind::Metrics
        } else {
            Kind::Status
        };
        Req {
            kind,
            target: target.to_owned(),
        }
    }

    fn submit(seed: u64) -> Req {
        Req {
            kind: Kind::Submit { seed },
            target: "/v1/campaigns".to_owned(),
        }
    }

    /// Wire bytes; a conditional lookup carries the ETag of `version`.
    fn bytes(&self, version: u64) -> Vec<u8> {
        match &self.kind {
            Kind::Submit { seed } => {
                let body = format!("{{\"boards\":{SUBMIT_BOARDS},\"seed\":{seed},\"workers\":1}}");
                format!(
                    "POST /v1/campaigns HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            }
            Kind::Lookup {
                conditional: true, ..
            } => format!(
                "GET {} HTTP/1.1\r\nif-none-match: \"sp-{version}\"\r\n\r\n",
                self.target
            )
            .into_bytes(),
            _ => format!("GET {} HTTP/1.1\r\n\r\n", self.target).into_bytes(),
        }
    }
}

struct Fixture {
    // Declared first so it drops first: open keep-alive connections
    // would hold the server's workers through shutdown.
    client: Option<Client>,
    handle: Option<ServerHandle>,
    router: Arc<Router>,
    open: Vec<Req>,
    due_ns: Vec<u64>,
    conn_of: Vec<usize>,
    closed: Vec<Req>,
    open_s: f64,
    closed_s: f64,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

fn fixture(ctx: &Ctx) -> Result<Fixture, String> {
    let state = Arc::new(ControlState::new());
    let runner = CampaignRunner::in_memory(state.clone());
    let router = Arc::new(Router::new(state, runner, Arc::new(ServerMetrics::new())));
    let handle = serve(
        router.clone(),
        ServerConfig {
            workers: ctx.nproc,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("serve: {e}"))?;

    // Warm-up campaign: the safe points every later lookup is served from.
    let id = router
        .runner()
        .submit(CampaignSpec {
            boards: SERVED_BOARDS,
            seed: ctx.seed,
            workers: ctx.nproc,
            interrupt_after: None,
        })
        .ok_or("warm-up campaign refused")?;
    let deadline = Instant::now() + Duration::from_secs(120);
    while router.runner().record(id).map(|r| r.state) != Some(CampaignState::Completed) {
        if Instant::now() > deadline {
            return Err("warm-up campaign did not complete".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let open_s = ctx.seconds * OPEN_SHARE;
    let trace = LoadProfile {
        seed: ctx.seed,
        duration_s: open_s,
        base_qps: BASE_QPS,
        diurnal_amplitude: 0.4,
        diurnal_period_s: open_s,
        flash_crowds: 2,
        flash_boost: 3.0,
        flash_width_s: open_s / 10.0,
        clients: 8,
        board_space: BOARD_SPACE,
    }
    .generate();
    let mut planned: Vec<(u64, usize, Req)> = trace
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let conditional =
                fingerprint(&(ctx.seed ^ i as u64).to_le_bytes()) % 100 < CONDITIONAL_PERCENT;
            (
                e.at_us * 1000,
                e.client as usize % ctx.nproc,
                Req::from_target(&e.target, conditional),
            )
        })
        .collect();
    let mut k = 0;
    while (k as f64 + 0.5) * SUBMIT_EVERY_S < open_s {
        let at_ns = ((k as f64 + 0.5) * SUBMIT_EVERY_S * 1e9) as u64;
        let seed = ctx.seed.wrapping_add(k + 1);
        planned.push((at_ns, k as usize % ctx.nproc, Req::submit(seed)));
        k += 1;
    }
    planned.sort_by_key(|(at, _, _)| *at);
    let closed: Vec<Req> = planned
        .iter()
        .filter(|(_, _, r)| !matches!(r.kind, Kind::Submit { .. }))
        .map(|(_, _, r)| r.clone())
        .collect();
    let client = Client::connect(handle.addr(), ctx.nproc).map_err(|e| format!("connect: {e}"))?;
    Ok(Fixture {
        client: Some(client),
        handle: Some(handle),
        router,
        due_ns: planned.iter().map(|(at, _, _)| *at).collect(),
        conn_of: planned.iter().map(|(_, c, _)| *c).collect(),
        open: planned.into_iter().map(|(_, _, r)| r).collect(),
        closed,
        open_s,
        closed_s: ctx.seconds - open_s,
    })
}

/// The body `Router::handle` builds for a known board.
fn expected_body(snapshot: &SafePointSnapshot, board: u32) -> Option<Vec<u8>> {
    snapshot
        .lookup(board)
        .map(|view| serde::json::to_string(&view).into_bytes())
}

fn body_version(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"snapshot_version\":")? + "\"snapshot_version\":".len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[derive(Debug, Default, Clone)]
struct Tally {
    by_status: BTreeMap<u16, u64>,
    replies: u64,
    failed: u64,
    stale: u64,
    timed_out: u64,
    first_failure: Option<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    fn class(&self, lo: u16, hi: u16) -> u64 {
        self.by_status.range(lo..=hi).map(|(_, n)| n).sum()
    }
}

/// Checks replies as they arrive, against every snapshot the server
/// published while the phases ran.
struct Verifier {
    state: Arc<ControlState>,
    seen: BTreeMap<u64, Arc<SafePointSnapshot>>,
    expected: HashMap<(u64, u32), Option<Vec<u8>>>,
    tally: Tally,
}

impl Verifier {
    /// Records the snapshot being served now; returns its version.
    fn capture(&mut self) -> u64 {
        let snapshot = self.state.snapshot();
        let version = snapshot.version;
        self.seen.entry(version).or_insert(snapshot);
        version
    }

    fn expected(&mut self, version: u64, board: u32) -> Option<&[u8]> {
        let seen = &self.seen;
        self.expected
            .entry((version, board))
            .or_insert_with(|| seen.get(&version).and_then(|s| expected_body(s, board)))
            .as_deref()
    }

    /// Checks one reply to `req`, sent while `sent_version` was served.
    fn verify(&mut self, req: &Req, sent_version: u64, reply: &Reply) {
        self.capture();
        let response = &reply.response;
        let status = response.status;
        self.tally.replies += 1;
        *self.tally.by_status.entry(status).or_default() += 1;
        let ok = match &req.kind {
            Kind::Lookup { board, conditional } if *board < SERVED_BOARDS => match status {
                200 => match body_version(&response.body) {
                    Some(version) if version < sent_version => {
                        self.tally.stale += 1;
                        false
                    }
                    Some(version) => {
                        self.expected(version, *board) == Some(response.body.as_slice())
                    }
                    None => false,
                },
                304 => {
                    *conditional
                        && response.etag.as_deref() == Some(&format!("\"sp-{sent_version}\""))
                }
                _ => false,
            },
            Kind::Lookup { .. } => status == 404,
            Kind::Status | Kind::Metrics => status == 200,
            Kind::Campaign { id } => match status {
                200 => std::str::from_utf8(&response.body)
                    .is_ok_and(|b| b.contains(&format!("\"id\":{id}"))),
                404 => true,
                _ => false,
            },
            Kind::Submit { .. } => status == 202,
        };
        if !ok {
            self.tally.fail(format!(
                "{} (sent at snapshot {sent_version}) answered {status}: {}",
                req.target,
                String::from_utf8_lossy(&response.body)
            ));
        }
    }
}

struct Phases {
    open_latency_us: Vec<f64>,
    lookup_latency_us: Vec<f64>,
    late_us: Vec<f64>,
    backlog_max: usize,
    closed_rates: Vec<f64>,
    open_requests: usize,
    closed_requests: usize,
    tally: Tally,
}

fn phases(fx: &mut Fixture, tracer: &mut Tracer) -> Result<Phases, String> {
    let verifier = RefCell::new(Verifier {
        state: fx.router.state().clone(),
        seen: BTreeMap::new(),
        expected: HashMap::new(),
        tally: Tally::default(),
    });
    let sent_version = RefCell::new(vec![0u64; fx.open.len()]);
    let client = fx.client.as_mut().ok_or("client closed")?;

    let phase_origin = tracer.now_ns();
    let open = open_loop(
        client,
        &fx.due_ns,
        &fx.conn_of,
        DRAIN_NS,
        |i| {
            let version = verifier.borrow_mut().capture();
            sent_version.borrow_mut()[i] = version;
            fx.open[i].bytes(version)
        },
        |reply| {
            let sent = sent_version.borrow()[reply.index];
            verifier
                .borrow_mut()
                .verify(&fx.open[reply.index], sent, reply);
        },
        || {
            verifier.borrow_mut().capture();
        },
    )
    .map_err(|e| format!("open loop: {e}"))?;

    // One request outstanding per connection: its sent version and index.
    let in_flight = RefCell::new(vec![(0u64, 0usize); client.conns()]);
    let closed_ns = (fx.closed_s * 1e9) as u64;
    let windows = (closed_ns / WINDOW_NS).max(1) as usize;
    let completed = RefCell::new(vec![0u64; windows]);
    let closed = closed_loop(
        client,
        closed_ns,
        DRAIN_NS,
        |i, conn| {
            let version = verifier.borrow_mut().capture();
            in_flight.borrow_mut()[conn] = (version, i);
            fx.closed[i % fx.closed.len()].bytes(version)
        },
        |reply| {
            let (version, index) = in_flight.borrow()[reply.conn];
            let req = &fx.closed[index % fx.closed.len()];
            verifier.borrow_mut().verify(req, version, reply);
            if let Some(n) = completed
                .borrow_mut()
                .get_mut((reply.done_ns / WINDOW_NS) as usize)
            {
                *n += 1;
            }
        },
        || {
            verifier.borrow_mut().capture();
        },
    )
    .map_err(|e| format!("closed loop: {e}"))?;

    let mut tally = verifier.into_inner().tally;
    tally.timed_out = (open.timed_out + closed.timed_out) as u64;
    for _ in 0..tally.timed_out {
        tally.fail("request timed out".into());
    }
    let latency = open.latency_from_due_ns(&fx.due_ns);
    let mut open_latency_us = Vec::with_capacity(latency.len());
    let mut lookup_latency_us = Vec::new();

    for (i, ns) in latency.iter().enumerate() {
        let Some(ns) = ns else { continue };
        let us = *ns as f64 / 1e3;
        open_latency_us.push(us);

        if matches!(fx.open[i].kind, Kind::Lookup { .. }) {
            lookup_latency_us.push(us);
        }
        tracer.record(
            "serve.request",
            phase_origin + fx.due_ns[i],
            phase_origin + fx.due_ns[i] + ns,
            i as u64,
        );
    }

    // Tie the expected bodies to the router itself: for the snapshot
    // being served now, `Router::handle` must build the same bytes.
    let current = fx.router.state().snapshot();
    for board in 0..SERVED_BOARDS {
        let request = Request {
            method: Method::Get,
            target: format!("/v1/safe-point/{board}"),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let handled = fx.router.handle(&request);
        let expected = expected_body(&current, board);
        if handled.status != 200 || expected.as_deref() != Some(handled.body.as_slice()) {
            tally.fail(format!("Router::handle body for board {board} differs"));
        }
    }
    Ok(Phases {
        late_us: open
            .sent_ns
            .iter()
            .zip(&fx.due_ns)
            .map(|(sent, due)| sent.saturating_sub(*due) as f64 / 1e3)
            .collect(),
        open_latency_us,

        lookup_latency_us,
        backlog_max: open.backlog_max,
        closed_rates: completed
            .into_inner()
            .iter()
            .map(|n| *n as f64 * 1e9 / WINDOW_NS as f64)
            .collect(),
        open_requests: fx.open.len(),
        closed_requests: closed.sent,
        tally,
    })
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        op_name: "open-loop request",
        ..Outcome::default()
    };
    let repeats = if ctx.probe { 1 } else { SETUP_REPEATS };
    let fixture = repeated_setup(repeats, &mut out.setup_s, || fixture(ctx));
    let mut fx = match fixture {
        Ok(fx) => fx,
        Err(why) => {
            out.attempted = 1;
            out.failed = 1;
            out.check("serve.setup", false, why);
            return out;
        }
    };
    let p = match phases(&mut fx, tracer) {
        Ok(p) => p,
        Err(why) => {
            out.attempted = 1;
            out.failed = 1;
            out.check("serve.phases", false, why);
            return out;
        }
    };
    out.repeats = 1;
    out.attempted = (p.open_requests + p.closed_requests) as u64;
    out.failed = p.tally.failed;
    let t = &p.tally;
    out.check(
        "serve.replies",
        t.failed == 0,
        format!(
            "{} requests, {} replies; {} failed ({} stale, {} timed out); statuses {:?}{}",
            out.attempted,
            t.replies,
            t.failed,
            t.stale,
            t.timed_out,
            t.by_status,
            t.first_failure
                .as_ref()
                .map_or(String::new(), |f| format!("; first failure: {f}"))
        ),
    );
    out.op_ms = p.open_latency_us.iter().map(|us| us / 1e3).collect();

    out.work_rates = p.closed_rates.clone();
    let samples = p.open_latency_us.len();
    out.named(
        "serve_p50_us",
        median(&p.open_latency_us).unwrap_or(f64::NAN),
        "us",
    );
    out.named(
        "serve_p99_us",
        percentile(&p.open_latency_us, 99.0).unwrap_or(f64::NAN),
        "us",
    );
    out.named("serve_latency_samples", samples as f64, "count");
    out.named(
        "serve_saturated_rps",
        median(&p.closed_rates).unwrap_or(f64::NAN),
        "1/s",
    );
    out.named("serve_offered_rps", fx.open.len() as f64 / fx.open_s, "1/s");
    // The busiest window of the schedule, against the saturated rate.
    let mut offered = vec![0u64; (fx.open_s * 1e9 / WINDOW_NS as f64).ceil() as usize + 1];
    for due in &fx.due_ns {
        offered[(due / WINDOW_NS) as usize] += 1;
    }
    let peak_rps = offered
        .iter()
        .max()
        .map_or(0.0, |n| *n as f64 * 1e9 / WINDOW_NS as f64);
    out.named("serve_peak_offered_rps", peak_rps, "1/s");
    out.named(
        "serve_peak_to_saturated",
        peak_rps / median(&p.closed_rates).unwrap_or(f64::NAN),
        "ratio",
    );
    out.count("serve.open_requests", p.open_requests as u64);
    out.count("serve.closed_requests", p.closed_requests as u64);
    for (status, n) in &t.by_status {
        out.count(&format!("serve.status_{status}"), *n);
    }
    out.count("serve.stale_reads", t.stale);

    if ctx.trace {
        layers(&fx, &p, tracer, &mut out);
    }
    out
}

/// In-process timings of each layer a request crosses, on the bytes the
/// generator sent, plus publication and scrape costs.
fn layers(fx: &Fixture, p: &Phases, tracer: &mut Tracer, out: &mut Outcome) {
    let first_span = tracer.spans().len();
    let state = fx.router.state();
    let scratch = ServerMetrics::new();
    let limits = Limits::default();
    let version = state.snapshot().version;
    for (i, req) in fx.open.iter().cycle().take(INPROC_SAMPLES).enumerate() {
        if matches!(req.kind, Kind::Submit { .. }) {
            continue;
        }
        tracer.set_op(i as u64 + 1);
        let bytes = req.bytes(version);
        let parsed = tracer.span("control_plane.parse", |_| parse_request(&bytes, &limits));
        let Ok(Parsed::Complete { request, .. }) = parsed else {
            out.check(
                "serve.parse",
                false,
                format!("{} did not parse", req.target),
            );
            return;
        };
        let route = Router::route_of(&request);
        let name = match req.kind {
            Kind::Lookup { .. } => "control_plane.handle.safe_point",
            Kind::Status => "control_plane.handle.status",
            Kind::Campaign { .. } => "control_plane.handle.campaign_status",
            _ => "control_plane.handle.metrics",
        };
        let started = Instant::now();
        let response = tracer.span(name, |_| fx.router.handle(&request));
        let wire = tracer.span("control_plane.encode", |_| response.encode());
        std::hint::black_box(wire);
        let seconds = started.elapsed().as_secs_f64();
        tracer.span("telemetry.observe", |_| {
            scratch.observe(route, response.status, seconds)
        });
        if let Kind::Lookup { board, .. } = req.kind {
            tracer.span("control_plane.snapshot_lookup", |_| {
                std::hint::black_box(state.snapshot().lookup(board))
            });
        }
    }
    // Publication: roll epochs of the served store into a fresh state.
    let snapshot = state.snapshot();
    let mut store = SafePointStore::new();
    for board in snapshot.index.boards() {
        if let Some(entry) = snapshot.index.entry(board) {
            store.insert(entry.point.clone());
        }
    }
    let fresh = ControlState::new();
    for epoch in 0..PUBLISH_SAMPLES as u32 {
        tracer.span("control_plane.roll_epoch", |_| {
            fresh.roll_epoch(epoch, &store)
        });
    }
    let base = state.base_metrics();
    for _ in 0..PUBLISH_SAMPLES {
        tracer.span("telemetry.exposition", |_| {
            std::hint::black_box(fx.router.metrics().exposition(&base))
        });
    }
    tracer.set_op(0);

    let layer = by_layer(tracer.spans(), first_span);
    let p50 = |name: &str| {
        layer
            .get(name)
            .and_then(|l| median(&l.durations_ns))
            .unwrap_or(f64::NAN)
    };
    out.layer("control_plane.parse_ns", p50("control_plane.parse"), "ns");
    for route in ["safe_point", "status", "campaign_status", "metrics"] {
        let name = format!("control_plane.handle.{route}");
        out.layer(
            &format!("control_plane.handle_ns.{route}"),
            p50(&name),
            "ns",
        );
    }
    out.layer("control_plane.encode_ns", p50("control_plane.encode"), "ns");
    out.layer(
        "control_plane.snapshot_lookup_ns",
        p50("control_plane.snapshot_lookup"),
        "ns",
    );
    out.layer("telemetry.observe_ns", p50("telemetry.observe"), "ns");
    out.layer(
        "control_plane.roll_epoch_us",
        p50("control_plane.roll_epoch") / 1e3,
        "us",
    );
    out.layer(
        "telemetry.exposition_us",
        p50("telemetry.exposition") / 1e3,
        "us",
    );
    let in_process_us = (p50("control_plane.parse")
        + p50("control_plane.handle.safe_point")
        + p50("control_plane.encode")
        + p50("telemetry.observe"))
        / 1e3;
    let client_us = median(&p.lookup_latency_us).unwrap_or(f64::NAN);
    out.layer("control_plane.socket_us", client_us - in_process_us, "us");
    let late = Tail::of(&p.late_us).map_or(f64::NAN, |t| t.value);
    out.layer("serve.generator_late_us", late, "us");
    out.layer("serve.backlog_max", p.backlog_max as f64, "count");
    let t = &p.tally;
    out.layer(
        "control_plane.responses.200",
        t.class(200, 200) as f64,
        "count",
    );
    out.layer(
        "control_plane.responses.304",
        t.class(304, 304) as f64,
        "count",
    );
    out.layer(
        "control_plane.responses.404",
        t.class(404, 404) as f64,
        "count",
    );
    out.layer(
        "control_plane.responses.5xx",
        t.class(500, 599) as f64,
        "count",
    );
    out.layer(
        "control_plane.responses.503",
        t.class(503, 503) as f64,
        "count",
    );
    out.layer("control_plane.stale_reads", t.stale as f64, "count");
}
