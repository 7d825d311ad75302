//! The deterministic event trace of a fleet run, and its export into
//! the workspace's shared span recorder (`snappix-trace`).
//!
//! The simulator keeps the trace itself; a tracer only receives a copy.
//! An exported fleet event is a zero-duration span on the *background*
//! trace (`trace_id` 0): its lane is the node id (one Perfetto row per
//! virtual node), its span id is the node's own event sequence, and its
//! timestamps are virtual microseconds — so a fleet trace exported with
//! [`TraceSnapshot::to_chrome_json`](snappix_trace::TraceSnapshot::to_chrome_json)
//! renders the whole fleet's timeline, and the snapshot's
//! `(start_us, lane, span_id)` ordering reproduces the report's merged
//! `(virtual time, node)` order exactly.

use crate::DutyRung;
use snappix_trace::{ArgValue, SpanRecord};
use std::fmt;

/// What happened to one window (or rung transition) on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The window was inferred; the raw predicted label.
    Inferred {
        /// The raw (unsmoothed) predicted label.
        label: usize,
    },
    /// The window was captured but shed before readout (the
    /// [`Shed`](DutyRung::Shed) rung, an unaffordable inference, or the
    /// server declining admission under
    /// [`SkipWindow`](snappix_stream::OverloadPolicy::SkipWindow)).
    Shed,
    /// The node slept through the window (the [`Sleep`](DutyRung::Sleep)
    /// rung, a rate-skip at a reduced rung, or nothing left to spend).
    Slept,
    /// The window's deadline expired in the server queue.
    Expired,
    /// The node stepped the duty-cycle ladder.
    Rung {
        /// The rung before the step.
        from: DutyRung,
        /// The rung after the step.
        to: DutyRung,
    },
}

/// One entry in the fleet's merged event trace.
///
/// Traces are recorded per node in virtual-time order and merged sorted
/// by `(at_us, node)` with per-node order preserved — a pure function of
/// the fleet's seeds and configs, so a replayed run produces an
/// identical trace whatever the driver-pool size, worker count, or
/// `SNAPPIX_THREADS` setting (given replayable node configs; see
/// [`NodeConfig::overload`](crate::NodeConfig::overload)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event in microseconds from run start.
    pub at_us: u64,
    /// The node the event belongs to.
    pub node: usize,
    /// The window index the event concerns (for
    /// [`TraceKind::Rung`], the window whose outcome the new rung first
    /// governs).
    pub window: usize,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Encode the event as a raw span record for
    /// [`Tracer::record_raw`](snappix_trace::Tracer::record_raw): a
    /// zero-duration background span at the event's virtual time, on
    /// the node's lane, with `seq` as the node-local span id (callers
    /// keep it strictly increasing per node so `(lane, span_id)` stays
    /// unique and the snapshot order is deterministic).
    pub(crate) fn to_record(self, seq: u64) -> SpanRecord {
        let (name, mut args): (&'static str, Vec<(&'static str, ArgValue)>) = match self.kind {
            TraceKind::Inferred { label } => {
                ("inferred", vec![("label", ArgValue::U64(label as u64))])
            }
            TraceKind::Shed => ("shed", Vec::new()),
            TraceKind::Slept => ("slept", Vec::new()),
            TraceKind::Expired => ("expired", Vec::new()),
            TraceKind::Rung { from, to } => (
                "rung",
                vec![
                    ("from", ArgValue::U64(from.depth() as u64)),
                    ("to", ArgValue::U64(to.depth() as u64)),
                ],
            ),
        };
        args.insert(0, ("window", ArgValue::U64(self.window as u64)));
        SpanRecord {
            trace_id: 0,
            span_id: seq,
            parent: 0,
            name,
            start_us: self.at_us,
            end_us: self.at_us,
            lane: u32::try_from(self.node).unwrap_or(u32::MAX),
            args,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>9} us] node {:>3} window {:>4}: ",
            self.at_us, self.node, self.window
        )?;
        match self.kind {
            TraceKind::Inferred { label } => write!(f, "inferred -> label {label}"),
            TraceKind::Shed => write!(f, "shed"),
            TraceKind::Slept => write!(f, "slept"),
            TraceKind::Expired => write!(f, "expired"),
            TraceKind::Rung { from, to } => write!(f, "rung {from} -> {to}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_outcome() {
        let base = TraceEvent {
            at_us: 33_333,
            node: 2,
            window: 5,
            kind: TraceKind::Inferred { label: 7 },
        };
        assert!(base.to_string().contains("label 7"));
        let rung = TraceEvent {
            kind: TraceKind::Rung {
                from: DutyRung::Full,
                to: DutyRung::ReducedRate,
            },
            ..base
        };
        assert!(rung.to_string().contains("full -> reduced-rate"));
        for (kind, needle) in [
            (TraceKind::Shed, "shed"),
            (TraceKind::Slept, "slept"),
            (TraceKind::Expired, "expired"),
        ] {
            assert!(TraceEvent { kind, ..base }.to_string().contains(needle));
        }
    }
}
