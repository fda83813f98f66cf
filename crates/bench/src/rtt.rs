//! Table 1: round-trip times of RMI calls for the four server/client
//! configurations, and the §7 overhead claim derived from them.
//!
//! The paper measured the average RTT of 100 calls between two machines
//! on a T1 LAN (an SDE SOAP server in JPie vs. an Axis server in Tomcat,
//! and an SDE CORBA server vs. a static OpenORB server, each driven by a
//! static client with a persistent connection). Absolute 2004 numbers are
//! not reproducible; the *shape* — SDE adds overhead, and that overhead
//! stays within ~25 % of the static server — is what this harness
//! regenerates, by default over TCP loopback.

use std::sync::Arc;
use std::time::{Duration, Instant};

use baseline::{StaticCorbaClient, StaticCorbaServer, StaticSoapClient, StaticSoapServer};
use jpie::expr::Expr;
use jpie::{ClassHandle, MethodBuilder, TypeDesc, Value};
use sde::{PublicationStrategy, SdeConfig, SdeManager, SdeServerGateway, TransportKind};
/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct RttRow {
    /// Configuration label, matching the paper's "Server/Client" column.
    pub configuration: String,
    /// Mean round-trip time.
    pub mean_rtt_us: f64,
    /// Median round-trip time.
    pub median_rtt_us: f64,
    /// 95th-percentile round-trip time.
    pub p95_rtt_us: f64,
    /// Number of measured calls.
    pub calls: usize,
    /// Mean heap allocations per measured call, when the binary installs
    /// [`crate::alloc::CountingAllocator`] (`None` under `cargo test`,
    /// which uses the default allocator).
    pub allocs_per_call: Option<f64>,
}

/// The full Table 1 reproduction plus derived overhead ratios.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// The four measured rows.
    pub rows: Vec<RttRow>,
    /// SDE-SOAP RTT / static-SOAP RTT (paper: 0.58/0.53 ≈ 1.09).
    pub soap_overhead_ratio: f64,
    /// SDE-CORBA RTT / static-CORBA RTT (paper: 0.51/0.42 ≈ 1.21).
    pub corba_overhead_ratio: f64,
}

/// Parameters for the Table 1 run.
#[derive(Debug, Clone, Copy)]
pub struct RttConfig {
    /// Calls measured per configuration (paper: 100).
    pub calls: usize,
    /// Warm-up calls excluded from the measurement.
    pub warmup: usize,
    /// Transport for all endpoints.
    pub transport: TransportKind,
}

impl Default for RttConfig {
    fn default() -> Self {
        RttConfig {
            calls: 100,
            warmup: 20,
            transport: TransportKind::Tcp,
        }
    }
}

fn echo_class() -> ClassHandle {
    let class = ClassHandle::new("EchoService");
    class
        .add_method(
            MethodBuilder::new("echo", TypeDesc::Str)
                .param("payload", TypeDesc::Str)
                .distributed(true)
                .body_expr(Expr::param("payload")),
        )
        .expect("echo method");
    class
}

const PAYLOAD: &str = "The quick brown fox jumps over the lazy dog, repeatedly and remotely.";

fn stats(mut samples: Vec<f64>) -> (f64, f64, f64) {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = samples[samples.len() / 2];
    let p95 = samples[((samples.len() - 1) as f64 * 0.95).round() as usize];
    (mean, median, p95)
}

/// Statistics for one measured window: latency plus (when the counting
/// allocator is installed) mean heap allocations per call.
struct Measured {
    mean_us: f64,
    median_us: f64,
    p95_us: f64,
    allocs_per_call: Option<f64>,
}

fn measure(calls: usize, warmup: usize, mut call: impl FnMut()) -> Measured {
    for _ in 0..warmup {
        call();
    }
    let mut samples = Vec::with_capacity(calls);
    let allocs_before = crate::alloc::allocations();
    for _ in 0..calls {
        let t0 = Instant::now();
        call();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    // The alloc delta includes the `samples.push` bookkeeping above, but
    // the Vec was pre-sized so steady-state pushes do not allocate.
    let allocs_per_call = if crate::alloc::active() {
        Some((crate::alloc::allocations() - allocs_before) as f64 / calls as f64)
    } else {
        None
    };
    let (mean_us, median_us, p95_us) = stats(samples);
    Measured {
        mean_us,
        median_us,
        p95_us,
        allocs_per_call,
    }
}

/// Measures the SDE SOAP server driven by a static (Axis-style) client.
pub fn measure_sde_soap(cfg: &RttConfig) -> RttRow {
    let manager = SdeManager::new(SdeConfig {
        transport: cfg.transport,
        // Quiescent publisher: development-time machinery present (the
        // publisher, dynamic dispatch) but no edits during the measurement.
        strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        wal_dir: None,
    })
    .expect("manager");
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.create_instance().expect("instance");

    // Static Axis-style client compiled from the published WSDL.
    let wsdl_xml = manager
        .interface_document("EchoService")
        .expect("published wsdl");
    let mut client = StaticSoapClient::from_wsdl_xml(&wsdl_xml).expect("client");
    let arg = [Value::Str(PAYLOAD.into())];
    let m = measure(cfg.calls, cfg.warmup, || {
        let v = client.call("echo", &arg).expect("call");
        assert!(matches!(v, Value::Str(_)));
    });
    manager.shutdown();
    RttRow {
        configuration: "SDE SOAP/Axis".into(),
        mean_rtt_us: m.mean_us,
        median_rtt_us: m.median_us,
        p95_rtt_us: m.p95_us,
        calls: cfg.calls,
        allocs_per_call: m.allocs_per_call,
    }
}

/// Measures the static SOAP server ("Axis-Tomcat") with the same client.
pub fn measure_static_soap(cfg: &RttConfig) -> RttRow {
    let addr = match cfg.transport {
        TransportKind::Tcp => "tcp://127.0.0.1:0".to_string(),
        TransportKind::Mem => format!("mem://bench-static-soap-{:p}", &cfg),
    };
    let mut b = StaticSoapServer::builder("EchoService");
    b.operation(
        "echo",
        vec![("payload".into(), TypeDesc::Str)],
        TypeDesc::Str,
        |args| Ok(args[0].clone()),
    );
    let server = b.bind(&addr).expect("bind");
    let mut client = StaticSoapClient::from_wsdl_xml(&server.wsdl_xml()).expect("client");
    let arg = [Value::Str(PAYLOAD.into())];
    let m = measure(cfg.calls, cfg.warmup, || {
        let v = client.call("echo", &arg).expect("call");
        assert!(matches!(v, Value::Str(_)));
    });
    server.shutdown();
    RttRow {
        configuration: "Axis-Tomcat/Axis".into(),
        mean_rtt_us: m.mean_us,
        median_rtt_us: m.median_us,
        p95_rtt_us: m.p95_us,
        calls: cfg.calls,
        allocs_per_call: m.allocs_per_call,
    }
}

/// Measures the SDE CORBA server driven by a static OpenORB-style client.
pub fn measure_sde_corba(cfg: &RttConfig) -> RttRow {
    let manager = SdeManager::new(SdeConfig {
        transport: cfg.transport,
        strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        wal_dir: None,
    })
    .expect("manager");
    let server = manager.deploy_corba(echo_class()).expect("deploy");
    server.create_instance().expect("instance");

    let idl = corba::IdlModule::from_signatures(
        "EchoService",
        &server.class().distributed_signatures(),
        server.class().interface_version(),
    );
    let mut client = StaticCorbaClient::connect(idl, &server.ior()).expect("client");
    let arg = [Value::Str(PAYLOAD.into())];
    let m = measure(cfg.calls, cfg.warmup, || {
        let v = client.call("echo", &arg).expect("call");
        assert!(matches!(v, Value::Str(_)));
    });
    manager.shutdown();
    RttRow {
        configuration: "SDE CORBA/OpenORB".into(),
        mean_rtt_us: m.mean_us,
        median_rtt_us: m.median_us,
        p95_rtt_us: m.p95_us,
        calls: cfg.calls,
        allocs_per_call: m.allocs_per_call,
    }
}

/// Measures the static CORBA server ("OpenORB") with the same client.
pub fn measure_static_corba(cfg: &RttConfig) -> RttRow {
    let addr = match cfg.transport {
        TransportKind::Tcp => "tcp://127.0.0.1:0".to_string(),
        TransportKind::Mem => format!("mem://bench-static-corba-{:p}", &cfg),
    };
    let mut b = StaticCorbaServer::builder("EchoService");
    b.operation(
        "echo",
        vec![("payload".into(), TypeDesc::Str)],
        TypeDesc::Str,
        |args| Ok(args[0].clone()),
    );
    let server = b.bind(&addr).expect("bind");
    let mut client = StaticCorbaClient::connect(server.idl(), &server.ior()).expect("client");
    let arg = [Value::Str(PAYLOAD.into())];
    let m = measure(cfg.calls, cfg.warmup, || {
        let v = client.call("echo", &arg).expect("call");
        assert!(matches!(v, Value::Str(_)));
    });
    server.shutdown();
    RttRow {
        configuration: "OpenORB/OpenORB".into(),
        mean_rtt_us: m.mean_us,
        median_rtt_us: m.median_us,
        p95_rtt_us: m.p95_us,
        calls: cfg.calls,
        allocs_per_call: m.allocs_per_call,
    }
}

/// Runs all four configurations and derives the overhead ratios.
pub fn run_table1(cfg: &RttConfig) -> Table1 {
    let sde_soap = measure_sde_soap(cfg);
    let static_soap = measure_static_soap(cfg);
    let sde_corba = measure_sde_corba(cfg);
    let static_corba = measure_static_corba(cfg);
    let soap_overhead_ratio = sde_soap.mean_rtt_us / static_soap.mean_rtt_us;
    let corba_overhead_ratio = sde_corba.mean_rtt_us / static_corba.mean_rtt_us;
    Table1 {
        rows: vec![sde_soap, static_soap, sde_corba, static_corba],
        soap_overhead_ratio,
        corba_overhead_ratio,
    }
}

/// Renders the table in the paper's layout (plus derived ratios).
pub fn render(table: &Table1) -> String {
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.configuration.clone(),
                format!("{:.1}", r.mean_rtt_us),
                format!("{:.1}", r.median_rtt_us),
                format!("{:.1}", r.p95_rtt_us),
                r.calls.to_string(),
                r.allocs_per_call
                    .map_or_else(|| "-".into(), |a| format!("{a:.1}")),
            ]
        })
        .collect();
    let mut out = String::from("Table 1: RTT times for client-server communication\n");
    out.push_str(&crate::render_table(
        &[
            "Server/Client",
            "mean RTT (us)",
            "median (us)",
            "p95 (us)",
            "calls",
            "allocs/call",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\nSOAP  overhead: SDE/static = {:.3} ({:+.1}%)   [paper: 0.58s/0.53s = 1.094]\n",
        table.soap_overhead_ratio,
        (table.soap_overhead_ratio - 1.0) * 100.0
    ));
    out.push_str(&format!(
        "CORBA overhead: SDE/static = {:.3} ({:+.1}%)   [paper: 0.51s/0.42s = 1.214]\n",
        table.corba_overhead_ratio,
        (table.corba_overhead_ratio - 1.0) * 100.0
    ));
    out.push_str(&format!(
        "Section 7 claim (overhead within 25%): SOAP {} / CORBA {}\n",
        if table.soap_overhead_ratio <= 1.25 {
            "HOLDS"
        } else {
            "EXCEEDED"
        },
        if table.corba_overhead_ratio <= 1.25 {
            "HOLDS"
        } else {
            "EXCEEDED"
        },
    ));
    out
}

/// One point of the payload-size sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// Mean RTT per configuration, in the Table 1 row order.
    pub mean_rtt_us: Vec<f64>,
}

/// Measures RTT as a function of payload size for all four
/// configurations — the supporting experiment for Table 1's SOAP-vs-CORBA
/// ordering: XML encoding cost grows much faster with payload size than
/// binary CDR, so the gap widens with the payload.
pub fn run_payload_sweep(cfg: &RttConfig, sizes: &[usize]) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &size in sizes {
        let payload = "x".repeat(size);

        // SDE SOAP.
        let manager = SdeManager::new(SdeConfig {
            transport: cfg.transport,
            strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
            wal_dir: None,
        })
        .expect("manager");
        let server = manager.deploy_soap(echo_class()).expect("deploy");
        server.create_instance().expect("instance");
        let wsdl = manager.interface_document("EchoService").expect("wsdl");
        let mut soap_sde_client = StaticSoapClient::from_wsdl_xml(&wsdl).expect("client");
        let arg = [Value::Str(payload.clone())];
        let sde_soap = measure(cfg.calls, cfg.warmup, || {
            soap_sde_client.call("echo", &arg).expect("call");
        })
        .mean_us;
        manager.shutdown();

        // Static SOAP.
        let mut b = StaticSoapServer::builder("EchoService");
        b.operation(
            "echo",
            vec![("payload".into(), TypeDesc::Str)],
            TypeDesc::Str,
            |args| Ok(args[0].clone()),
        );
        let addr = match cfg.transport {
            TransportKind::Tcp => "tcp://127.0.0.1:0".to_string(),
            TransportKind::Mem => format!("mem://sweep-soap-{size}"),
        };
        let static_soap_server = b.bind(&addr).expect("bind");
        let mut static_soap_client =
            StaticSoapClient::from_wsdl_xml(&static_soap_server.wsdl_xml()).expect("client");
        let static_soap = measure(cfg.calls, cfg.warmup, || {
            static_soap_client.call("echo", &arg).expect("call");
        })
        .mean_us;
        static_soap_server.shutdown();

        // SDE CORBA.
        let manager = SdeManager::new(SdeConfig {
            transport: cfg.transport,
            strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
            wal_dir: None,
        })
        .expect("manager");
        let server = manager.deploy_corba(echo_class()).expect("deploy");
        server.create_instance().expect("instance");
        let idl = corba::IdlModule::from_signatures(
            "EchoService",
            &server.class().distributed_signatures(),
            server.class().interface_version(),
        );
        let mut corba_sde_client = StaticCorbaClient::connect(idl, &server.ior()).expect("client");
        let sde_corba = measure(cfg.calls, cfg.warmup, || {
            corba_sde_client.call("echo", &arg).expect("call");
        })
        .mean_us;
        manager.shutdown();

        // Static CORBA.
        let mut b = StaticCorbaServer::builder("EchoService");
        b.operation(
            "echo",
            vec![("payload".into(), TypeDesc::Str)],
            TypeDesc::Str,
            |args| Ok(args[0].clone()),
        );
        let addr = match cfg.transport {
            TransportKind::Tcp => "tcp://127.0.0.1:0".to_string(),
            TransportKind::Mem => format!("mem://sweep-corba-{size}"),
        };
        let static_corba_server = b.bind(&addr).expect("bind");
        let mut static_corba_client =
            StaticCorbaClient::connect(static_corba_server.idl(), &static_corba_server.ior())
                .expect("client");
        let static_corba = measure(cfg.calls, cfg.warmup, || {
            static_corba_client.call("echo", &arg).expect("call");
        })
        .mean_us;
        static_corba_server.shutdown();

        points.push(SweepPoint {
            payload_bytes: size,
            mean_rtt_us: vec![sde_soap, static_soap, sde_corba, static_corba],
        });
    }
    points
}

/// Renders the payload sweep.
pub fn render_sweep(points: &[SweepPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![p.payload_bytes.to_string()];
            row.extend(p.mean_rtt_us.iter().map(|v| format!("{v:.1}")));
            row
        })
        .collect();
    let mut out = String::from("RTT vs payload size (mean us per call)\n");
    out.push_str(&crate::render_table(
        &[
            "payload(B)",
            "SDE SOAP",
            "static SOAP",
            "SDE CORBA",
            "static CORBA",
        ],
        &rows,
    ));
    out
}

/// One stage of the per-stage latency breakdown.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// The obs histogram key (e.g. `sde_dispatch_ns{class="EchoService"}`).
    pub stage: String,
    /// Samples recorded during the measured window.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// 50th / 95th / 99th percentile latencies in microseconds.
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
}

/// Per-stage latency breakdown of the SDE call path, derived from the
/// obs registry: every latency histogram that advanced during the
/// measured workload contributes one row (`http_request_ns`,
/// `sde_dispatch_ns{class}`, `jpie_invoke_ns`, ...), decomposing the
/// end-to-end Table 1 RTT into transport, gateway, and interpreter time.
#[derive(Debug, Clone)]
pub struct StageBreakdown {
    /// Stages in registry (alphabetical) order.
    pub rows: Vec<StageRow>,
}

fn breakdown_between(before: &obs::Snapshot, after: &obs::Snapshot) -> StageBreakdown {
    let delta = after.delta(before);
    let rows = delta
        .histograms
        .iter()
        .filter(|(key, h)| h.count > 0 && key.contains("_ns"))
        .map(|(key, h)| StageRow {
            stage: key.clone(),
            count: h.count,
            mean_us: h.mean() / 1e3,
            p50_us: h.percentile(0.50) as f64 / 1e3,
            p95_us: h.percentile(0.95) as f64 / 1e3,
            p99_us: h.percentile(0.99) as f64 / 1e3,
        })
        .collect();
    StageBreakdown { rows }
}

/// Runs the SDE SOAP configuration and returns its Table 1 row together
/// with the obs-derived per-stage latency breakdown for the same window.
pub fn measure_sde_soap_with_breakdown(cfg: &RttConfig) -> (RttRow, StageBreakdown) {
    let before = obs::registry().snapshot();
    let row = measure_sde_soap(cfg);
    let after = obs::registry().snapshot();
    (row, breakdown_between(&before, &after))
}

/// Renders the per-stage breakdown next to Table 1.
pub fn render_breakdown(b: &StageBreakdown) -> String {
    if b.rows.is_empty() {
        return "Per-stage breakdown: no obs histograms advanced \
                (recording disabled?)\n"
            .into();
    }
    let rows: Vec<Vec<String>> = b
        .rows
        .iter()
        .map(|r| {
            vec![
                r.stage.clone(),
                r.count.to_string(),
                format!("{:.1}", r.mean_us),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p95_us),
                format!("{:.1}", r.p99_us),
            ]
        })
        .collect();
    let mut out = String::from("Per-stage latency breakdown (SDE SOAP window, obs registry)\n");
    out.push_str(&crate::render_table(
        &["stage", "count", "mean us", "p50 us", "p95 us", "p99 us"],
        &rows,
    ));
    out
}

/// The instrumentation-overhead check: the same SDE SOAP measurement
/// with obs recording off (baseline) and on, and the resulting ratio.
/// The acceptance bar is < 5% regression with recording on.
#[derive(Debug, Clone, Copy)]
pub struct ObsOverhead {
    /// Mean RTT with `obs::set_recording(false)`.
    pub rtt_off_us: f64,
    /// Mean RTT with recording on (the default).
    pub rtt_on_us: f64,
    /// on/off ratio (1.00 = no measurable overhead).
    pub ratio: f64,
}

/// Measures the obs instrumentation overhead on the SDE SOAP path.
/// Leaves recording enabled on return.
pub fn measure_obs_overhead(cfg: &RttConfig) -> ObsOverhead {
    obs::set_recording(false);
    let off = measure_sde_soap(cfg);
    obs::set_recording(true);
    let on = measure_sde_soap(cfg);
    ObsOverhead {
        rtt_off_us: off.mean_rtt_us,
        rtt_on_us: on.mean_rtt_us,
        ratio: on.mean_rtt_us / off.mean_rtt_us,
    }
}

/// Renders the overhead comparison.
pub fn render_obs_overhead(o: &ObsOverhead) -> String {
    format!(
        "Instrumentation overhead: {:.1}us (off) -> {:.1}us (on), \
         ratio {:.3} ({:+.1}%)\n",
        o.rtt_off_us,
        o.rtt_on_us,
        o.ratio,
        (o.ratio - 1.0) * 100.0
    )
}

/// The distributed-tracing overhead check: the traced client path (a
/// [`cde::ClientEnvironment`] stub, which opens call/attempt spans and
/// propagates the trace context on the wire) with span recording off
/// (baseline) and on. The acceptance bar is < 3% regression at the
/// default tail-sampling rate.
#[derive(Debug, Clone, Copy)]
pub struct TraceOverhead {
    /// Mean RTT with `obs::tracectx::set_tracing(false)`.
    pub rtt_off_us: f64,
    /// Mean RTT with tracing on (the default).
    pub rtt_on_us: f64,
    /// on/off ratio (1.00 = no measurable overhead).
    pub ratio: f64,
    /// Approximate SpanStore heap footprint after the traced run.
    pub span_store_bytes: usize,
}

/// Measures the tracing overhead on the cde SOAP path. Leaves tracing
/// enabled on return.
///
/// This is deliberately *not* the static-client Table 1 path — the
/// static clients never open spans or emit the trace header, so only
/// the cde dynamic stub can answer "what does tracing cost".
///
/// Loopback RTTs are ~20us with multi-microsecond scheduler jitter and
/// per-server setup variance, so a single off-window vs. on-window mean
/// comparison is noise. One server/stub pair serves alternating off/on
/// windows and each mode reports the minimum of its window medians —
/// the classic noise-robust microbenchmark estimator.
pub fn measure_trace_overhead(cfg: &RttConfig) -> TraceOverhead {
    let manager = SdeManager::new(SdeConfig {
        transport: cfg.transport,
        strategy: PublicationStrategy::StableTimeout(Duration::from_secs(3600)),
        wal_dir: None,
    })
    .expect("manager");
    let server = manager.deploy_soap(echo_class()).expect("deploy");
    server.create_instance().expect("instance");
    server.publisher().ensure_current();

    let env = cde::ClientEnvironment::new();
    let stub = env.connect_soap(server.wsdl_url()).expect("stub");
    let arg = [Value::Str(PAYLOAD.into())];
    let window = |tracing: bool| {
        obs::tracectx::set_tracing(tracing);
        measure(cfg.calls, cfg.warmup, || {
            let v = env.call(&stub, "echo", &arg).expect("call");
            assert!(matches!(v, Value::Str(_)));
        })
        .median_us
    };

    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..4 {
        best_off = best_off.min(window(false));
        best_on = best_on.min(window(true));
    }
    manager.shutdown();
    TraceOverhead {
        rtt_off_us: best_off,
        rtt_on_us: best_on,
        ratio: best_on / best_off,
        span_store_bytes: obs::tracectx::store().approx_bytes(),
    }
}

/// Renders the tracing-overhead comparison.
pub fn render_trace_overhead(o: &TraceOverhead) -> String {
    format!(
        "Tracing overhead (cde path): {:.1}us (off) -> {:.1}us (on), \
         ratio {:.3} ({:+.1}%), span store ~{} KiB\n",
        o.rtt_off_us,
        o.rtt_on_us,
        o.ratio,
        (o.ratio - 1.0) * 100.0,
        o.span_store_bytes / 1024
    )
}

/// Convenience used by tests: a quick, in-memory run.
pub fn quick_table1() -> Table1 {
    run_table1(&RttConfig {
        calls: 30,
        warmup: 5,
        transport: TransportKind::Mem,
    })
}

/// Arc-shareable payload for concurrent benchmark drivers.
pub type SharedTable = Arc<Table1>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sweep_shape() {
        let cfg = RttConfig {
            calls: 10,
            warmup: 2,
            transport: TransportKind::Mem,
        };
        let points = run_payload_sweep(&cfg, &[16, 1024]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.mean_rtt_us.len(), 4);
            assert!(p.mean_rtt_us.iter().all(|v| *v > 0.0));
        }
        let rendered = render_sweep(&points);
        assert!(rendered.contains("payload(B)"));
    }

    #[test]
    fn stage_breakdown_decomposes_the_call_path() {
        let cfg = RttConfig {
            calls: 10,
            warmup: 2,
            transport: TransportKind::Mem,
        };
        let (row, breakdown) = measure_sde_soap_with_breakdown(&cfg);
        assert!(row.mean_rtt_us > 0.0);
        // The SDE SOAP window must expose at least the gateway-dispatch
        // and interpreter stages of the call path.
        let stages: Vec<&str> = breakdown.rows.iter().map(|r| r.stage.as_str()).collect();
        assert!(
            stages.iter().any(|s| s.starts_with("sde_dispatch_ns")),
            "{stages:?}"
        );
        assert!(
            stages.iter().any(|s| s.starts_with("jpie_invoke_ns")),
            "{stages:?}"
        );
        for r in &breakdown.rows {
            assert!(r.count > 0);
            assert!(r.mean_us > 0.0, "{r:?}");
            assert!(r.p50_us <= r.p95_us && r.p95_us <= r.p99_us, "{r:?}");
        }
        let rendered = render_breakdown(&breakdown);
        assert!(rendered.contains("p95 us"), "{rendered}");
    }

    #[test]
    fn obs_overhead_is_measurable_and_restores_recording() {
        let cfg = RttConfig {
            calls: 10,
            warmup: 2,
            transport: TransportKind::Mem,
        };
        let o = measure_obs_overhead(&cfg);
        assert!(o.rtt_off_us > 0.0 && o.rtt_on_us > 0.0);
        assert!(o.ratio > 0.0);
        assert!(obs::recording(), "overhead run must re-enable recording");
        assert!(render_obs_overhead(&o).contains("ratio"));
    }

    #[test]
    fn table1_shape() {
        let table = quick_table1();
        assert_eq!(table.rows.len(), 4);
        for row in &table.rows {
            assert!(row.mean_rtt_us > 0.0, "{row:?}");
            assert!(row.median_rtt_us <= row.p95_rtt_us, "{row:?}");
            assert_eq!(row.calls, 30);
        }
        assert!(table.soap_overhead_ratio > 0.5);
        assert!(table.corba_overhead_ratio > 0.5);
        let rendered = render(&table);
        assert!(rendered.contains("SDE SOAP/Axis"));
        assert!(rendered.contains("OpenORB/OpenORB"));
    }
}
