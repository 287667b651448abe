//! AER-style error log.
//!
//! Real PCIe root complexes expose Advanced Error Reporting: a small
//! log of corrected and uncorrectable errors (ECRC failures, poisoned
//! TLPs, completion timeouts) that software reads to understand what
//! the fabric contained on its behalf. This module is the simulated
//! analog: a bounded [`AerLog`] in the [`World`] that the fabric — and
//! consumers that detect corruption themselves, like the HDC Engine's
//! completion-record CRC check — append to. Every entry also bumps a
//! `stats` counter and a `dcs_sim::obs` count under the `pcie`
//! category, so containment totals show up in metrics reports and
//! Chrome traces without touching the log itself.
//!
//! The conservation identity the integrity tests assert lives here:
//! every injected corruption is *detected* exactly once (`aer.detected`
//! == injected at the corruption sites while ECRC is on), and each
//! detection is then either recovered or exhausted by the fault
//! tallies.

use dcs_sim::World;

/// What kind of error the fabric (or a consumer) contained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AerKind {
    /// ECRC mismatch on a TLP, cured by a link-level replay (corrected).
    EcrcReplay,
    /// ECRC mismatch with no replay budget left: the TLP was delivered
    /// poisoned — data forwarded, completion status says don't trust it.
    PoisonedTlp,
    /// A request whose completion never arrived (unrecognizable header,
    /// replay budget zero); the requester timed out.
    CompletionTimeout,
    /// Corruption that landed undetected because ECRC is off. Never
    /// happens with `PcieConfig::ecrc = true`; counted so ECRC-off runs
    /// can still audit what escaped.
    SilentEscape,
    /// A completion entry (NVMe CQE, HDC completion record, NIC receive
    /// writeback) rejected by its consumer's own CRC/validity check.
    BadCompletionEntry,
    /// A device-level recovery action (NVMe controller reset, NIC
    /// reconfiguration) taken after containment.
    DeviceReset,
}

impl AerKind {
    /// Stable counter/obs name for the kind.
    pub fn label(self) -> &'static str {
        match self {
            AerKind::EcrcReplay => "aer.ecrc_replay",
            AerKind::PoisonedTlp => "aer.poisoned",
            AerKind::CompletionTimeout => "aer.cpl_timeout",
            AerKind::SilentEscape => "aer.escape",
            AerKind::BadCompletionEntry => "aer.bad_cpl_entry",
            AerKind::DeviceReset => "aer.device_reset",
        }
    }

    /// Whether the entry counts toward `aer.detected` (a corruption the
    /// machinery caught; resets are recovery actions, escapes are by
    /// definition not detected).
    pub fn detected(self) -> bool {
        matches!(
            self,
            AerKind::EcrcReplay
                | AerKind::PoisonedTlp
                | AerKind::CompletionTimeout
                | AerKind::BadCompletionEntry
        )
    }
}

/// One logged error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AerEntry {
    /// Sim time of the detection, in nanoseconds.
    pub time_ns: u64,
    /// Requester token / identifying id of the affected transfer.
    pub token: u64,
    /// Fault site that produced the error (a `dcs_sim::fault` site name
    /// or a consumer-chosen label).
    pub site: &'static str,
    /// Error classification.
    pub kind: AerKind,
}

/// Bounded error log ([`World`] resource; created on first record).
#[derive(Debug, Default)]
pub struct AerLog {
    /// Most recent entries, oldest first (bounded at [`Self::CAPACITY`]).
    entries: Vec<AerEntry>,
    /// Entries dropped once the log filled.
    pub dropped: u64,
}

impl AerLog {
    /// Log capacity; beyond it new entries bump `dropped` (the counters
    /// keep exact totals regardless).
    pub const CAPACITY: usize = 256;

    /// The retained entries, oldest first.
    pub fn entries(&self) -> &[AerEntry] {
        &self.entries
    }

    /// Retained entries of one kind.
    pub fn of_kind(&self, kind: AerKind) -> impl Iterator<Item = &AerEntry> + '_ {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    fn push(&mut self, entry: AerEntry) {
        if self.entries.len() < Self::CAPACITY {
            self.entries.push(entry);
        } else {
            self.dropped += 1;
        }
    }
}

/// Appends an entry to the world's [`AerLog`] (installing it on first
/// use) and bumps the matching `stats` counters.
pub fn record(world: &mut World, time_ns: u64, token: u64, site: &'static str, kind: AerKind) {
    if world.get::<AerLog>().is_none() {
        world.insert(AerLog::default());
    }
    world.expect_mut::<AerLog>().push(AerEntry {
        time_ns,
        token,
        site,
        kind,
    });
    world.stats.counter(kind.label()).add(1);
    if kind.detected() {
        world.stats.counter("aer.detected").add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_installs_log_and_counts() {
        let mut world = World::new(1);
        record(&mut world, 100, 7, "pcie.dma_corrupt", AerKind::EcrcReplay);
        record(
            &mut world,
            200,
            8,
            "pcie.tlp_header",
            AerKind::CompletionTimeout,
        );
        record(
            &mut world,
            300,
            9,
            "pcie.dma_corrupt",
            AerKind::SilentEscape,
        );
        record(&mut world, 400, 10, "nvme.device", AerKind::DeviceReset);
        let log = world.expect::<AerLog>();
        assert_eq!(log.entries().len(), 4);
        assert_eq!(log.of_kind(AerKind::EcrcReplay).count(), 1);
        assert_eq!(log.entries()[1].token, 8);
        // Escapes and resets are not detections.
        assert_eq!(world.stats.counter_value("aer.detected"), 2);
        assert_eq!(world.stats.counter_value("aer.ecrc_replay"), 1);
        assert_eq!(world.stats.counter_value("aer.escape"), 1);
        assert_eq!(world.stats.counter_value("aer.device_reset"), 1);
    }

    #[test]
    fn log_is_bounded() {
        let mut world = World::new(1);
        for i in 0..(AerLog::CAPACITY as u64 + 10) {
            record(&mut world, i, i, "pcie.dma_corrupt", AerKind::PoisonedTlp);
        }
        let log = world.expect::<AerLog>();
        assert_eq!(log.entries().len(), AerLog::CAPACITY);
        assert_eq!(log.dropped, 10);
        // Exact totals survive in the counters.
        assert_eq!(
            world.stats.counter_value("aer.poisoned"),
            AerLog::CAPACITY as u64 + 10
        );
    }
}
