//! The end-to-end run of one workload: set-up (several times, median
//! reported), warm-up, then a measured closed-loop window in which every
//! caller thread calls, waits for its reply, checks it and calls again.
//!
//! `obs` recording and tracing stay at their production defaults; the
//! ledger's own spans are off in this run.

use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use crate::catalogue;
use crate::instruments::{alloc_events, median, percentile, process_cpu_ns, rss_mib, threads_now};
use crate::report::Record;
use crate::workloads::{
    Caller, Developer, EditLog, Fleet, Inputs, Kind, Workload, BREAKING_EVERY, EDIT_TICK,
};

/// Warm-up before the window: pools filled, the 1024-entry reply cache
/// at its steady state, method tables built.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Set-ups per run; `setup_s` is their median. About half are made before
/// the window (the last of them serves it) and the rest after it: all 25
/// take ~50 ms together, and a transient on the shared box that slowed
/// them all moved the median by up to 60 %.
pub const SETUPS: usize = 25;

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

struct CallerLog {
    samples_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Stale calls and recoveries that fell inside the window.
    stale_calls: u64,
    recoveries_ns: Vec<u64>,
}

fn call_loop(mut caller: Caller, phase: &AtomicU8, capacity: usize) -> CallerLog {
    let mut samples_ns = Vec::with_capacity(capacity);
    let (mut attempted, mut failed) = (0, 0);
    // What the caller had already seen when the window opened.
    let mut at_open: Option<(u64, usize)> = None;
    loop {
        // SeqCst pairs with the coordinator's stores: a call counts only
        // if it started and ended inside the window.
        let before = phase.load(Ordering::SeqCst);
        if before == STOP {
            break;
        }
        if before == MEASURE && at_open.is_none() {
            at_open = Some((caller.stale_calls, caller.recoveries_ns.len()));
        }
        let t0 = Instant::now();
        let ok = caller.call_verified();
        let ns = t0.elapsed().as_nanos() as u64;
        if before == MEASURE && phase.load(Ordering::SeqCst) == MEASURE {
            attempted += 1;
            if ok {
                samples_ns.push(ns);
            } else {
                failed += 1;
            }
        } else if !ok {
            // A failure outside the window still fails the run.
            failed += 1;
            attempted += 1;
        }
    }
    let (stale0, recovered0) = at_open.unwrap_or((caller.stale_calls, caller.recoveries_ns.len()));
    CallerLog {
        samples_ns,
        attempted,
        failed,
        stale_calls: caller.stale_calls - stale0,
        recoveries_ns: caller.recoveries_ns.split_off(recovered0),
    }
}

fn develop(mut dev: Developer, phase: &AtomicU8) -> EditLog {
    let mut log = EditLog::default();
    let start = Instant::now();
    let mut tick = 0u32;
    loop {
        let now = phase.load(Ordering::SeqCst);
        if now == STOP {
            return log;
        }
        let published = dev.edit();
        if now == MEASURE {
            log.edits += 1;
            match published {
                Some(ns) => log.publish_ns.push(ns),
                None => log.breaking += 1,
            }
        }
        // Fixed schedule: an edit that overruns its tick does not cause
        // a burst afterwards, the missed ticks are skipped.
        tick = tick.max((start.elapsed().as_nanos() / EDIT_TICK.as_nanos()) as u32) + 1;
        if let Some(wait) = (EDIT_TICK * tick).checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// Registry deltas that prove the window ran what the workload claims.
fn check_window(kind: Kind, callers: usize, delta: &obs::Snapshot, stale: u64, breaking: u64) {
    let rebuilds = delta.counter_total("jpie_table_rebuilds_total");
    let retries = delta.counter_total("rmi_retries_total");
    let dupes = delta.counter_total("duplicate_calls_suppressed_total");
    let misses = delta.counter_total("wire_pool_misses_total");
    let recoveries = delta.counter_total("cde_stale_recoveries_total");
    assert_eq!(retries, 0, "rmi_retries_total moved: calls were retried");
    assert_eq!(dupes, 0, "duplicate_calls_suppressed_total moved");
    if kind == Kind::SoapLiveedit {
        assert!(recoveries > 0, "live-edit window saw no stale recovery");
        assert!(
            stale <= (breaking + 1) * callers as u64,
            "{stale} stale calls for {breaking} breaking edits"
        );
        // Every recovery refetches the WSDL; that may open a connection.
        assert!(
            misses <= callers as u64 + recoveries,
            "pool misses {misses}"
        );
    } else {
        assert_eq!(
            rebuilds, 0,
            "jpie_table_rebuilds_total moved without an edit"
        );
        assert_eq!(
            recoveries, 0,
            "cde_stale_recoveries_total moved without an edit"
        );
        assert_eq!(
            delta.counter_total("sde_publications_total"),
            0,
            "a publication happened in a steady-state window"
        );
        assert!(
            misses <= callers as u64,
            "wire_pool_misses_total = {misses}: the workload reconnects, it measures connect()"
        );
    }
}

/// Runs one workload end to end. Panics (and so fails the run) when a
/// workload assertion does not hold.
pub fn run(workload: &Workload, seed: u64, window: Duration, work_dir: &Path) -> Record {
    let inputs = Inputs::generate(workload.kind, seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut set_up = |i: usize| {
        let t0 = Instant::now();
        let fleet = Fleet::start(&inputs, &work_dir.join(format!("wal-{i}")));
        setups.push(t0.elapsed().as_secs_f64());
        fleet
    };
    for i in 0..SETUPS / 2 {
        Fleet::shutdown(set_up(i));
    }
    let mut fleet = set_up(SETUPS / 2);

    let phase = AtomicU8::new(WARM);
    let capacity = window.as_secs() as usize * 100_000;
    let callers = std::mem::take(&mut fleet.callers);
    let n_callers = callers.len();
    let developer = (workload.kind == Kind::SoapLiveedit).then(|| Developer::new(&fleet, &inputs));

    let mut threads_peak = threads_now();
    let mut watch = |span: Duration| {
        let until = Instant::now() + span;
        while let Some(left) = until.checked_duration_since(Instant::now()) {
            std::thread::sleep(left.min(Duration::from_millis(250)));
            threads_peak = threads_peak.max(threads_now());
        }
    };

    let (logs, edits, wall_s, cpu_ns, allocs, delta) = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .into_iter()
            .map(|c| {
                let phase = &phase;
                s.spawn(move || call_loop(c, phase, capacity))
            })
            .collect();
        let dev = developer.map(|d| {
            let phase = &phase;
            s.spawn(move || develop(d, phase))
        });
        watch(WARMUP);
        // The registry snapshot allocates: take it outside the counted
        // interval on both sides.
        let before = obs::registry().snapshot();
        let (alloc0, cpu0, t0) = (alloc_events(), process_cpu_ns(), Instant::now());
        phase.store(MEASURE, Ordering::SeqCst);
        watch(window);
        phase.store(STOP, Ordering::SeqCst);
        let (wall_s, cpu1, alloc1) = (t0.elapsed().as_secs_f64(), process_cpu_ns(), alloc_events());
        let delta = obs::registry().snapshot().delta(&before);
        let logs: Vec<CallerLog> = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        let edits = dev.map(|h| h.join().expect("developer thread panicked"));
        (logs, edits, wall_s, cpu1 - cpu0, alloc1 - alloc0, delta)
    });

    // Median of each caller's first and last fifth of samples, pooled: a
    // call path that slows down as the run lengthens shows here.
    let fifth_p50_us = |last: bool| {
        let mut part: Vec<u64> = logs
            .iter()
            .flat_map(|l| {
                let n = l.samples_ns.len();
                let range = if last { n - n / 5..n } else { 0..n / 5 };
                l.samples_ns[range].iter().copied()
            })
            .collect();
        part.sort_unstable();
        percentile(&part, 0.5) as f64 / 1e3
    };
    let (first_fifth_us, last_fifth_us) = (fifth_p50_us(false), fifth_p50_us(true));
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let mut samples: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.samples_ns.iter().copied())
        .collect();
    samples.sort_unstable();
    let calls = samples.len() as f64;
    assert!(calls > 0.0, "no verified call completed in the window");
    let stale: u64 = logs.iter().map(|l| l.stale_calls).sum();
    let edits = edits.unwrap_or_default();
    check_window(workload.kind, n_callers, &delta, stale, edits.breaking);

    Fleet::shutdown(fleet);
    for i in SETUPS / 2 + 1..SETUPS {
        Fleet::shutdown(set_up(i));
    }

    let us = |q: f64| percentile(&samples, q) as f64 / 1e3;
    let beyond = |q: f64| ((1.0 - q) * calls).floor();
    let mut diagnostics = vec![
        ("rtt_p50_us", us(0.5), "us"),
        ("rtt_p90_us", us(0.9), "us"),
        ("rtt_p99_us", us(0.99), "us"),
        ("rtt_p99_samples_beyond", beyond(0.99), "count"),
        ("rtt_p999_us", us(0.999), "us"),
        ("rtt_p999_samples_beyond", beyond(0.999), "count"),
        ("rtt_p50_first_fifth_us", first_fifth_us, "us"),
        ("rtt_p50_last_fifth_us", last_fifth_us, "us"),
        ("samples", calls, "count"),
        ("window_s", wall_s, "s"),
        ("callers", n_callers as f64, "count"),
        ("rss_mib", rss_mib(), "MiB"),
        ("threads_peak", threads_peak as f64, "count"),
        ("cores_busy", cpu_ns as f64 / 1e9 / wall_s, "cores"),
        (
            "setup_min_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        (
            "setup_max_s",
            setups.iter().copied().fold(0.0, f64::max),
            "s",
        ),
    ];
    if workload.kind == Kind::SoapLiveedit {
        let mut publish = edits.publish_ns.clone();
        publish.sort_unstable();
        let mut recover: Vec<u64> = logs
            .iter()
            .flat_map(|l| l.recoveries_ns.iter().copied())
            .collect();
        recover.sort_unstable();
        assert!(
            !publish.is_empty() && !recover.is_empty(),
            "no edits recorded"
        );
        assert!(
            edits.breaking >= edits.edits / BREAKING_EVERY,
            "breaking edits fell behind the cycle"
        );
        diagnostics.extend([
            ("edits_per_s", edits.edits as f64 / wall_s, "1/s"),
            ("breaking_edits", edits.breaking as f64, "count"),
            (
                "publish_p50_us",
                percentile(&publish, 0.5) as f64 / 1e3,
                "us",
            ),
            (
                "recovery_p50_us",
                percentile(&recover, 0.5) as f64 / 1e3,
                "us",
            ),
            ("stale_calls", stale as f64, "count"),
        ]);
    }

    let metric = |name: &str, value: f64| {
        let unit = catalogue::end_to_end(name)
            .expect("a catalogued metric")
            .unit;
        (name.to_string(), value, unit.to_string())
    };
    Record {
        workload: workload.name.to_string(),
        attempted,
        failed,
        metrics: vec![
            metric("calls_per_s", calls / wall_s),
            metric("cpu_us_per_call", cpu_ns as f64 / 1e3 / calls),
            metric("allocs_per_call", allocs as f64 / calls),
            metric("setup_s", median(&setups)),
            metric("failed_share", failed as f64 / attempted.max(1) as f64),
        ],
        diagnostics: diagnostics
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), value, unit.to_string()))
            .collect(),
    }
}
