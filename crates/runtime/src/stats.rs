//! Per-rank communication and compute accounting.
//!
//! Section IV of the paper analyzes the parallel algorithm in terms of the
//! number of messages and the number of words moved per process. The
//! runtime records exactly those quantities, so the bounds
//! `msgs = O(log N + log p)` and `words = O(sqrt(N/p) + log p)` (Eq. 13)
//! can be measured rather than assumed.

use crate::codec::{ByteReader, ByteWriter, CodecError, Wire};
use crate::netmodel::NetworkModel;
use srsf_trace::metrics::HIST_BUCKETS;
use srsf_trace::{Histogram, Span, TraceReport};

/// Counters for one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// 8-byte words sent (payload volume).
    pub words_sent: u64,
    /// Seconds spent in local computation (explicitly timed sections).
    pub compute_s: f64,
    /// Seconds spent blocked in `recv` / barriers.
    pub wait_s: f64,
}

impl CommStats {
    /// Accumulate another rank-phase into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.msgs_sent += other.msgs_sent;
        self.words_sent += other.words_sent;
        self.compute_s += other.compute_s;
        self.wait_s += other.wait_s;
    }

    /// Modeled network time for this rank's traffic under `model`.
    pub fn modeled_comm_s(&self, model: &NetworkModel) -> f64 {
        model.cost(self.msgs_sent, self.words_sent)
    }
}

impl Wire for CommStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.msgs_sent);
        w.put_u64(self.words_sent);
        w.put_f64(self.compute_s);
        w.put_f64(self.wait_s);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        Ok(Self {
            msgs_sent: r.try_get_u64()?,
            words_sent: r.try_get_u64()?,
            compute_s: r.try_get_f64()?,
            wait_s: r.try_get_f64()?,
        })
    }
}

// The trace types live in zero-dep `srsf-trace`; their wire encodings
// live here because this crate owns the `Wire` trait. Reports cross a
// real process boundary (TCP worker result frames, `TAG_SERVE_TRACE`
// replies), so every decode is total: truncated or corrupted bytes are
// a [`CodecError`], never a panic — fuzzed in `srsf-core`'s
// `wire_fuzz` suite alongside the factorization frames.

impl Wire for Span {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.cat as u64);
        self.name.encode(w);
        w.put_u64(self.tid as u64);
        w.put_u64(self.start_ns);
        w.put_u64(self.dur_ns);
        w.put_u64(self.bytes);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        let cat = u8::try_from(r.try_get_u64()?).map_err(|_| CodecError::Invalid {
            what: "span category",
            at,
        })?;
        let name = String::decode(r)?;
        let at = r.position();
        let tid = u32::try_from(r.try_get_u64()?).map_err(|_| CodecError::Invalid {
            what: "span tid",
            at,
        })?;
        Ok(Span {
            cat,
            name,
            tid,
            start_ns: r.try_get_u64()?,
            dur_ns: r.try_get_u64()?,
            bytes: r.try_get_u64()?,
        })
    }
}

impl Wire for TraceReport {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.rank as u64);
        w.put_u64(self.dropped);
        self.spans.encode(w);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        let rank = u32::try_from(r.try_get_u64()?).map_err(|_| CodecError::Invalid {
            what: "trace report rank",
            at,
        })?;
        Ok(TraceReport {
            rank,
            dropped: r.try_get_u64()?,
            spans: Vec::<Span>::decode(r)?,
        })
    }
}

impl Wire for Histogram {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64_slice(&self.counts);
        w.put_u64(self.count);
        w.put_u64(self.sum);
    }
    fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        let at = r.position();
        let counts: Vec<u64> = r.try_get_u64_slice()?;
        let counts: [u64; HIST_BUCKETS] = counts.try_into().map_err(|_| CodecError::Invalid {
            what: "histogram bucket count",
            at,
        })?;
        Ok(Histogram {
            counts,
            count: r.try_get_u64()?,
            sum: r.try_get_u64()?,
        })
    }
}

/// Counters for a whole world (one entry per rank).
#[derive(Clone, Debug, Default)]
pub struct WorldStats {
    /// Per-rank statistics, indexed by rank.
    pub per_rank: Vec<CommStats>,
}

impl WorldStats {
    /// Largest message count over ranks (the bound in §IV is per process).
    pub fn max_msgs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.msgs_sent).max().unwrap_or(0)
    }

    /// Largest word count over ranks.
    pub fn max_words(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.words_sent)
            .max()
            .unwrap_or(0)
    }

    /// Total messages across ranks.
    pub fn total_msgs(&self) -> u64 {
        self.per_rank.iter().map(|r| r.msgs_sent).sum()
    }

    /// Total words across ranks.
    pub fn total_words(&self) -> u64 {
        self.per_rank.iter().map(|r| r.words_sent).sum()
    }

    /// Critical-path estimate: the slowest rank's compute time plus its
    /// modeled network time. This is the "parallel time" reported by the
    /// scaling harnesses on hosts with fewer cores than simulated ranks
    /// (see [`NetworkModel`]).
    pub fn critical_path_s(&self, model: &NetworkModel) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.compute_s + r.modeled_comm_s(model))
            .fold(0.0, f64::max)
    }

    /// Largest per-rank compute time (the `tcomp` column of the tables).
    pub fn max_compute_s(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.compute_s)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = CommStats {
            msgs_sent: 2,
            words_sent: 100,
            compute_s: 1.0,
            wait_s: 0.5,
        };
        let b = CommStats {
            msgs_sent: 3,
            words_sent: 50,
            compute_s: 0.25,
            wait_s: 0.25,
        };
        a.merge(&b);
        assert_eq!(a.msgs_sent, 5);
        assert_eq!(a.words_sent, 150);
        assert!((a.compute_s - 1.25).abs() < 1e-15);
    }

    #[test]
    fn world_aggregates() {
        let w = WorldStats {
            per_rank: vec![
                CommStats {
                    msgs_sent: 5,
                    words_sent: 10,
                    compute_s: 2.0,
                    wait_s: 0.0,
                },
                CommStats {
                    msgs_sent: 7,
                    words_sent: 4,
                    compute_s: 1.0,
                    wait_s: 0.0,
                },
            ],
        };
        assert_eq!(w.max_msgs(), 7);
        assert_eq!(w.max_words(), 10);
        assert_eq!(w.total_msgs(), 12);
        assert_eq!(w.total_words(), 14);
        assert_eq!(w.max_compute_s(), 2.0);
        let model = NetworkModel::new(1.0, 0.1);
        // rank0: 2.0 + 5 + 1.0 = 8; rank1: 1.0 + 7 + 0.4 = 8.4
        assert!((w.critical_path_s(&model) - 8.4).abs() < 1e-12);
    }

    #[test]
    fn trace_wire_round_trips() {
        let rep = TraceReport {
            rank: 3,
            dropped: 7,
            spans: vec![
                Span {
                    cat: 2,
                    name: "recv level 3, interior, kind PHASE_UPDATE".to_string(),
                    tid: 5,
                    start_ns: 123,
                    dur_ns: 456,
                    bytes: 4096,
                },
                Span {
                    cat: 0,
                    name: String::new(),
                    tid: 0,
                    start_ns: 0,
                    dur_ns: u64::MAX,
                    bytes: 0,
                },
            ],
        };
        let back = TraceReport::from_bytes(rep.to_bytes()).expect("round trip");
        assert_eq!(back, rep);

        let mut h = Histogram::new();
        for v in [0u64, 1, 100, u64::MAX] {
            h.record(v);
        }
        let back = Histogram::from_bytes(h.to_bytes()).expect("round trip");
        assert_eq!(back, h);

        // Truncation is an error, not a panic.
        let mut bytes = rep.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(TraceReport::from_bytes(bytes).is_err());
    }

    #[test]
    fn empty_world() {
        let w = WorldStats::default();
        assert_eq!(w.max_msgs(), 0);
        assert_eq!(w.critical_path_s(&NetworkModel::intra_node()), 0.0);
    }
}
