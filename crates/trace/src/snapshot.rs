//! Merged, deterministically ordered views over the per-thread rings.

use crate::chrome;
use crate::record::SpanRecord;

/// A merged copy of every lane's records, ordered by
/// `(start_us, lane, span_id)`.
///
/// Snapshots are plain data: clone them, diff them with `==` (the
/// fleet replay suite does), filter them, export them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// Every record still resident in the rings, merged and sorted.
    pub records: Vec<SpanRecord>,
    /// Records rotated out of full rings since the tracer was built.
    pub dropped: u64,
    /// The lanes that have recorded at least one span, sorted by id.
    pub lanes: Vec<LaneInfo>,
}

/// One recording lane (usually a thread; a virtual node in fleet
/// traces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneInfo {
    /// The lane id records carry in [`SpanRecord::lane`].
    pub lane: u32,
    /// The recording thread's name at registration (or `lane-N`).
    pub name: String,
}

impl TraceSnapshot {
    /// Number of records in the snapshot.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Every distinct non-background trace id, in first-seen order.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for record in &self.records {
            if record.trace_id != 0 && !ids.contains(&record.trace_id) {
                ids.push(record.trace_id);
            }
        }
        ids
    }

    /// Keep only the records `keep` accepts (lanes and `dropped` are
    /// preserved). `/debug/trace` uses this to bound its response to
    /// the most recent traces.
    pub fn filtered(&self, keep: impl Fn(&SpanRecord) -> bool) -> TraceSnapshot {
        TraceSnapshot {
            records: self.records.iter().filter(|r| keep(r)).cloned().collect(),
            dropped: self.dropped,
            lanes: self.lanes.clone(),
        }
    }

    /// Render the snapshot as Chrome trace-event JSON — one complete
    /// (`"ph":"X"`) event per record plus thread-name metadata — ready
    /// for Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }
}
