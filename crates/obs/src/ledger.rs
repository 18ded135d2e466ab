//! Resource attribution: which message class burns the wire and the CPU.
//!
//! The paper's central trade-off — semantic filtering/aggregation buys
//! bandwidth at the cost of coordination work — is only visible when bytes
//! and CPU time are attributed to *message classes* (ClientValue vs
//! Phase1b/2a/2b vs Decision), not just summed per node. [`ResourceLedger`]
//! is that attribution substrate: a deterministic, sans-IO table of
//! `(subsystem, class)` cells, each accumulating message counts, bytes in
//! and out, and scoped CPU nanoseconds.
//!
//! Clock discipline: the ledger never reads a clock. CPU time enters as an
//! explicit nanosecond charge (`charge_cpu`): the simulator feeds its
//! modelled service times, a live host would hand in measured ones. Library
//! code therefore stays `Instant`-free and the identical ledger works on
//! simulated and wall-clock time.
//!
//! Keys are plain strings: `obs` sits below every protocol crate and cannot
//! name `paxos::Kind`, and string keys let the same ledger attribute
//! eager/lazy control or transport-internal classes without a registry.
//! Cardinality is tiny (a handful of subsystems × seven Paxos classes), so
//! cells live in a linear-scanned `Vec` — no hashing on the hot path,
//! deterministic report order via a sort at read time.
//!
//! The post-hoc twin lives with the trace replay (`testbed::ledger`): it
//! rebuilds the same table from a recorded JSONL trace and reports how much
//! of the wire it could attribute.

use crate::json::JsonValue;

/// Subsystem name for the gossip receive/dissemination path.
pub const SUBSYS_GOSSIP: &str = "gossip";
/// Subsystem name for Paxos protocol step functions.
pub const SUBSYS_PAXOS: &str = "paxos";
/// Subsystem name for the semantic filter/aggregator.
pub const SUBSYS_SEMANTICS: &str = "semantics";
/// Subsystem name for the transport write/read path.
pub const SUBSYS_TRANSPORT: &str = "transport";

/// Class name used when a resource cannot be attributed to a concrete
/// message class (e.g. a wire message whose `wire_tagged` declaration was
/// evicted from a bounded trace ring).
pub const CLASS_UNCLASSIFIED: &str = "unclassified";

/// One `(subsystem, class)` attribution cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerCell {
    /// Which layer did the work (see the `SUBSYS_*` constants).
    pub subsystem: String,
    /// Which message class the work served (Paxos kind name, or
    /// [`CLASS_UNCLASSIFIED`]).
    pub class: String,
    /// Messages accounted in this cell (outgoing + incoming).
    pub messages: u64,
    /// Bytes encoded/sent for this class by this subsystem.
    pub bytes_out: u64,
    /// Bytes received for this class by this subsystem.
    pub bytes_in: u64,
    /// Scoped CPU nanoseconds attributed to this cell.
    pub cpu_ns: u64,
}

/// Deterministic, sans-IO per-`(subsystem, class)` resource accounting.
///
/// See the [module docs](self) for the design; in short: string keys,
/// linear-scan storage, no clock, mergeable across nodes and runs.
#[derive(Debug, Clone, Default)]
pub struct ResourceLedger {
    cells: Vec<LedgerCell>,
}

impl ResourceLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        ResourceLedger::default()
    }

    fn cell_mut(&mut self, subsystem: &str, class: &str) -> &mut LedgerCell {
        // Linear scan: cardinality is a few dozen cells at most, and the
        // common case hits the most recently used cell near the end.
        if let Some(i) = self
            .cells
            .iter()
            .position(|c| c.subsystem == subsystem && c.class == class)
        {
            return &mut self.cells[i];
        }
        self.cells.push(LedgerCell {
            subsystem: subsystem.to_string(),
            class: class.to_string(),
            ..LedgerCell::default()
        });
        self.cells.last_mut().unwrap()
    }

    /// Attributes one outgoing message of `bytes` to `(subsystem, class)`.
    pub fn add_out(&mut self, subsystem: &str, class: &str, bytes: u64) {
        self.add_out_shared(subsystem, class, 1, bytes);
    }

    /// Attributes one frame of `bytes`, encoded once and sent to `fanout`
    /// peers, to `(subsystem, class)`: `fanout` messages, `fanout × bytes`.
    pub fn add_out_shared(&mut self, subsystem: &str, class: &str, fanout: u64, bytes: u64) {
        let cell = self.cell_mut(subsystem, class);
        cell.messages += fanout;
        cell.bytes_out += fanout.saturating_mul(bytes);
    }

    /// Attributes one incoming message of `bytes` to `(subsystem, class)`.
    pub fn add_in(&mut self, subsystem: &str, class: &str, bytes: u64) {
        let cell = self.cell_mut(subsystem, class);
        cell.messages += 1;
        cell.bytes_in += bytes;
    }

    /// Adds `n` messages to `(subsystem, class)` without byte or CPU
    /// accounting — for count-only feeds such as per-kind handled/filtered
    /// counters folded in at the end of a run.
    pub fn add_messages(&mut self, subsystem: &str, class: &str, n: u64) {
        self.cell_mut(subsystem, class).messages += n;
    }

    /// Attributes `ns` nanoseconds of CPU to `(subsystem, class)` without
    /// touching the message count (pair with `add_in`/`add_out`, or use for
    /// work not tied to one message).
    pub fn charge_cpu(&mut self, subsystem: &str, class: &str, ns: u64) {
        self.cell_mut(subsystem, class).cpu_ns += ns;
    }

    /// Merges another ledger cell-wise (cluster-wide and cross-run
    /// aggregation). Commutative and associative.
    pub fn merge(&mut self, other: &ResourceLedger) {
        for c in &other.cells {
            let cell = self.cell_mut(&c.subsystem, &c.class);
            cell.messages += c.messages;
            cell.bytes_out += c.bytes_out;
            cell.bytes_in += c.bytes_in;
            cell.cpu_ns += c.cpu_ns;
        }
    }

    /// All cells, sorted by `(subsystem, class)` for deterministic output.
    pub fn cells(&self) -> Vec<LedgerCell> {
        let mut cells = self.cells.clone();
        cells.sort_by(|a, b| (&a.subsystem, &a.class).cmp(&(&b.subsystem, &b.class)));
        cells
    }

    /// Whether any cell has accumulated anything.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total bytes out across all cells.
    pub fn total_bytes_out(&self) -> u64 {
        self.cells.iter().map(|c| c.bytes_out).sum()
    }

    /// Total CPU nanoseconds across all cells.
    pub fn total_cpu_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.cpu_ns).sum()
    }

    /// Bytes out attributed per class (summed over subsystems), sorted by
    /// class name.
    pub fn bytes_out_by_class(&self) -> Vec<(String, u64)> {
        let mut per: Vec<(String, u64)> = Vec::new();
        for c in &self.cells {
            if c.bytes_out == 0 {
                continue;
            }
            match per.iter_mut().find(|(name, _)| *name == c.class) {
                Some((_, b)) => *b += c.bytes_out,
                None => per.push((c.class.clone(), c.bytes_out)),
            }
        }
        per.sort();
        per
    }

    /// Human-readable attribution table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:<12} {:>10} {:>14} {:>14} {:>14}\n",
            "subsystem", "class", "messages", "bytes_out", "bytes_in", "cpu_ms"
        ));
        out.push_str(&format!("{}\n", "-".repeat(80)));
        for c in self.cells() {
            out.push_str(&format!(
                "{:<12} {:<12} {:>10} {:>14} {:>14} {:>14.3}\n",
                c.subsystem,
                c.class,
                c.messages,
                c.bytes_out,
                c.bytes_in,
                c.cpu_ns as f64 / 1e6,
            ));
        }
        out.push_str(&format!(
            "{:<12} {:<12} {:>10} {:>14} {:>14} {:>14.3}\n",
            "total",
            "",
            self.cells.iter().map(|c| c.messages).sum::<u64>(),
            self.total_bytes_out(),
            self.cells.iter().map(|c| c.bytes_in).sum::<u64>(),
            self.total_cpu_ns() as f64 / 1e6,
        ));
        out
    }

    /// The same table as CSV (header + one row per cell).
    pub fn csv(&self) -> String {
        let mut out = String::from("subsystem,class,messages,bytes_out,bytes_in,cpu_ns\n");
        for c in self.cells() {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                c.subsystem, c.class, c.messages, c.bytes_out, c.bytes_in, c.cpu_ns
            ));
        }
        out
    }

    /// The ledger as a JSON array of cell objects.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Arr(
            self.cells()
                .into_iter()
                .map(|c| {
                    let mut map = std::collections::BTreeMap::new();
                    map.insert("subsystem".to_string(), JsonValue::Str(c.subsystem));
                    map.insert("class".to_string(), JsonValue::Str(c.class));
                    map.insert("messages".to_string(), JsonValue::Int(c.messages as i128));
                    map.insert("bytes_out".to_string(), JsonValue::Int(c.bytes_out as i128));
                    map.insert("bytes_in".to_string(), JsonValue::Int(c.bytes_in as i128));
                    map.insert("cpu_ns".to_string(), JsonValue::Int(c.cpu_ns as i128));
                    JsonValue::Obj(map)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_accumulate_and_sort() {
        let mut l = ResourceLedger::new();
        l.add_out(SUBSYS_TRANSPORT, "phase2b", 100);
        l.add_out(SUBSYS_TRANSPORT, "phase2b", 50);
        l.add_in(SUBSYS_GOSSIP, "decision", 30);
        l.charge_cpu(SUBSYS_PAXOS, "phase2b", 1_000);
        let cells = l.cells();
        assert_eq!(cells.len(), 3);
        // Sorted by (subsystem, class).
        assert_eq!(cells[0].subsystem, SUBSYS_GOSSIP);
        assert_eq!(cells[1].subsystem, SUBSYS_PAXOS);
        assert_eq!(cells[2].subsystem, SUBSYS_TRANSPORT);
        assert_eq!(cells[2].messages, 2);
        assert_eq!(cells[2].bytes_out, 150);
        assert_eq!(cells[0].bytes_in, 30);
        assert_eq!(cells[1].cpu_ns, 1_000);
        assert_eq!(l.total_bytes_out(), 150);
        assert_eq!(l.total_cpu_ns(), 1_000);
    }

    #[test]
    fn merge_is_cellwise_addition() {
        let mut a = ResourceLedger::new();
        a.add_out(SUBSYS_GOSSIP, "phase2a", 10);
        a.charge_cpu(SUBSYS_GOSSIP, "phase2a", 5);
        let mut b = ResourceLedger::new();
        b.add_out(SUBSYS_GOSSIP, "phase2a", 7);
        b.add_in(SUBSYS_TRANSPORT, "decision", 3);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.cells(), ba.cells(), "merge must be commutative");

        let g = &ab.cells()[0];
        assert_eq!(g.bytes_out, 17);
        assert_eq!(g.messages, 2);
        assert_eq!(g.cpu_ns, 5);
    }

    #[test]
    fn report_and_csv_cover_all_cells() {
        let mut l = ResourceLedger::new();
        l.add_out(SUBSYS_TRANSPORT, "client_value", 1024);
        l.charge_cpu(SUBSYS_PAXOS, "client_value", 2_000_000);
        let report = l.report();
        assert!(report.contains("client_value"));
        assert!(report.contains("transport"));
        assert!(report.contains("total"));
        let csv = l.csv();
        assert_eq!(csv.lines().count(), 3); // header + 2 cells
        assert!(csv.starts_with("subsystem,class,"));
        assert!(csv.contains("transport,client_value,1,1024,0,0"));
        let json = l.to_json().render();
        assert!(json.contains("\"bytes_out\":1024"));
    }
}
