//! The metric catalogue: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root repeats it for the driver; a
//! unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may get worse before
    /// `compare` calls it a regression. Set by calibration, see
    /// benchmarks/README.md.
    pub bound: f64,
}

/// The gated end-to-end metrics, the same on every workload.
/// `rtt_p50_us` and `rtt_p90_us` are measured and printed too, but as
/// diagnostics: their run-to-run spread (up to 9 % between quartiles,
/// 17 % max-min) is too wide to gate at 10 %, see benchmarks/README.md.
pub const END_TO_END: [Metric; 4] = [
    // Verified-correct calls completed in the window / window seconds,
    // all callers.
    Metric {
        name: "calls_per_s",
        unit: "calls/s",
        better: Better::Higher,
        bound: 0.15,
    },
    // Process CPU time (user+sys, client and servers) over the window /
    // calls.
    Metric {
        name: "cpu_us_per_call",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    // Heap alloc+realloc events over the window / calls, whole process.
    Metric {
        name: "allocs_per_call",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
    },
    // Fleet start, deploy, publish, stubs connected, first verified call
    // per caller; median of the run's set-ups.
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// (errors + wrong replies + calls that exhausted retries) / calls
/// attempted. Gated by `compare` with an absolute bound of zero: any rise
/// fails. It is not in `BENCHMARK.json`'s `end_to_end` list, whose
/// metrics may never be 0; the driver sees it as `failed` / `attempted`.
pub const FAILED_SHARE: Metric = Metric {
    name: "failed_share",
    unit: "ratio",
    better: Better::Lower,
    bound: 0.0,
};

/// Per-layer metrics of the traced run, all printed for every workload
/// (0 where the layer is not on the workload's path).
pub const PER_LAYER: [(&str, &str, Better); 32] = [
    ("staged_calls", "count", Better::Higher),
    ("staged_total_us", "us", Better::Lower),
    ("xmlrt.pull_us", "us", Better::Lower),
    ("xmlrt.write_us", "us", Better::Lower),
    ("soap.encode_req_us", "us", Better::Lower),
    ("soap.decode_req_us", "us", Better::Lower),
    ("soap.encode_reply_us", "us", Better::Lower),
    ("soap.decode_reply_us", "us", Better::Lower),
    ("httpd.frame_us", "us", Better::Lower),
    ("transport.http_rtt_us", "us", Better::Lower),
    ("corba.cdr_us", "us", Better::Lower),
    ("corba.giop_us", "us", Better::Lower),
    ("transport.orb_rtt_us", "us", Better::Lower),
    ("reactor_wakeups_per_call", "count", Better::Lower),
    ("reactor_events_per_call", "count", Better::Lower),
    ("pool_miss_share", "ratio", Better::Lower),
    ("core.replycache_us", "us", Better::Lower),
    ("core.dispatch_us", "us", Better::Lower),
    ("jpie.invoke_us", "us", Better::Lower),
    ("core.publish_us", "us", Better::Lower),
    ("core.wal_append_us", "us", Better::Lower),
    ("rebuild_us", "us", Better::Lower),
    ("rebuilds_per_edit", "count", Better::Lower),
    ("stale_recovery_share", "ratio", Better::Lower),
    ("router.ring_us", "us", Better::Lower),
    ("router.hop_us", "us", Better::Lower),
    ("router.hop_allocs", "count", Better::Lower),
    ("baseline.rtt_us", "us", Better::Lower),
    ("sde_over_static", "ratio", Better::Lower),
    ("unattributed_us", "us", Better::Lower),
    ("unattributed_share", "ratio", Better::Lower),
    ("trace_overhead_share", "ratio", Better::Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(std::iter::once(&FAILED_SHARE))
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is what the driver reads; it must say what the
    /// ledger does.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(w.get("name").and_then(Json::as_str), Some(want.name));
            assert_eq!(w.get("why").and_then(Json::as_str), Some(want.why));
        }

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(want.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(want.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(want.better.as_str())
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(want.bound));
            assert!(want.bound <= 0.25);
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better.as_str())
            );
        }
    }
}
