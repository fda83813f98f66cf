//! # bench — the experiment harness
//!
//! Regenerates every data-bearing table and figure of the paper:
//!
//! * [`rtt`] — **Table 1** (and the §7 ≤ 25 % overhead claim): average
//!   round-trip time of RMI calls for SDE SOAP vs. static SOAP
//!   ("Axis-Tomcat") and SDE CORBA vs. static CORBA ("OpenORB"), averaged
//!   over 100 calls as in the paper. Binary: `table1`.
//! * [`consistency`] — **Figures 7 and 8**: the active-publishing race
//!   matrix (only (1,i), (1,ii), (2,ii) consistent) and the
//!   reactive-publishing matrix (all combinations meet the recency
//!   guarantee). Binary: `consistency_matrix`.
//! * [`ablation`] — the **§5.6 design argument**: change-driven vs.
//!   polling vs. stable-timeout publication over recorded edit-session
//!   traces. Binary: `publication_ablation`.
//! * [`rogue`] — the **§5.7 claim** that a rogue client spamming
//!   stale-method calls cannot force needless IDL generations. Binary:
//!   `rogue_client`.
//! * [`chaos`] — success rate vs. injected fault rate: the resilient
//!   client (deadlines, backoff retries, circuit breaker) driven through
//!   a seeded chaos layer. Binary: `chaos_sweep`.
//! * [`shardchaos`] — live shard failover: a router fleet with
//!   WAL-replicating followers, one shard killed mid-sweep at a seeded
//!   point, asserting 100 % client success, exactly-once accounting and
//!   `version >= pre-crash`, and reporting the failover latency split.
//!   Binary: `chaos_sweep --kill-shard <n>`.
//! * [`rebalance`] — planned class migration under the same fault plan:
//!   one class moved between shards mid-sweep, asserting zero failed
//!   calls, `executions == calls` *exactly* (state carried, no resets),
//!   version monotonicity, and a bounded drain pause. Binary:
//!   `chaos_sweep --rebalance`.
//!
//! Each module returns plain data structures and a
//! pretty text rendering so binaries can print paper-style tables and
//! tests can assert on the shape of the results.

pub mod ablation;
pub mod alloc;
pub mod chaos;
pub mod connsoak;
pub mod consistency;
pub mod harness;
pub mod json;
pub mod procinfo;
pub mod rebalance;
pub mod rogue;
pub mod rtt;
pub mod shardchaos;

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// A SOAP string argument shaped like the ledger's `soap.large` payload:
/// `len` seeded alphanumeric bytes, `specials` of them replaced by equal
/// numbers of `<`, `&` and `>` (16 KiB with 819 specials is that row).
pub fn xml_payload(len: usize, specials: usize, seed: u64) -> String {
    const ALNUM: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    assert!(specials <= len, "more specials than bytes");
    let mut rng = obs::rng::XorShift64::seed_from_u64(seed);
    let mut bytes: Vec<u8> = (0..len).map(|_| *rng.choose(ALNUM)).collect();
    let mut placed = 0;
    while placed < specials {
        let at = rng.gen_usize(len);
        if bytes[at].is_ascii_alphanumeric() {
            bytes[at] = b"<&>"[placed % 3];
            placed += 1;
        }
    }
    String::from_utf8(bytes).expect("ASCII payload")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns() {
        let out = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert!(lines[3].starts_with("longer"));
    }
}
