//! The shared message-tag scheme of the distributed factorization.
//!
//! Both transport backends carry `(src, tag, payload)` frames; the tag is
//! how a receiver matches a frame to the protocol step that expects it.
//! The distributed driver packs three coordinates into one `u32`:
//!
//! ```text
//! tag = level * 64 + phase * 8 + kind        (phase < 8, kind < 8)
//! ```
//!
//! * `level` — quad-tree level the step belongs to;
//! * `phase` — `0` = interior elimination, `1..=4` = the four boundary
//!   color rounds, `5` = fold shipments, `6`/`7` = level-transition,
//!   top-gather and solve bookkeeping steps (at the top level also the
//!   top factor's scatter, `7`/`KIND_TOP`, and the forward and backward
//!   hops of the top solve's panel, `6` and `7`/`KIND_SOLVE_UP`);
//! * `kind` — which message of the step (see the `KIND_*` constants).
//!
//! Keeping the scheme here — in the runtime, next to the transports —
//! lets a receive timeout decode the tag it was waiting for back into
//! algorithm terms (see [`describe`]), instead of reporting a bare
//! integer: when a 4-process run hangs, "level 3, boundary color round 2,
//! PHASE_UPDATE" locates the bug; "tag 218" does not.
//!
//! The top of the `u32` range ([`CTRL_BASE`]`..`) is reserved for the TCP
//! backend's control frames (handshake, barrier, worker results); data
//! tags must stay below it, which [`crate::world::RankCtx::send`]
//! enforces.

/// Per-box elimination side effects shipped to tracking neighbors.
pub const KIND_PHASE_UPDATE: u32 = 0;
/// Block + active-set shipment from a retiring rank to its fold corner.
pub const KIND_FOLD: u32 = 1;
/// Authoritative parent active sets after a level transition.
pub const KIND_ACT_REFRESH: u32 = 2;
/// Remaining active blocks gathered on rank 0 for the top factorization.
pub const KIND_TOP: u32 = 3;
/// Upward-pass solve deltas on remotely-owned entries.
pub const KIND_SOLVE_UP: u32 = 5;
/// Downward-pass request for remotely-owned solution values.
pub const KIND_SOLVE_REQ: u32 = 6;
/// Solution values (downward-pass replies, fold/top value exchanges).
pub const KIND_SOLVE_VAL: u32 = 7;

/// First tag reserved for transport-internal control frames; algorithm
/// data tags must be smaller.
pub const CTRL_BASE: u32 = u32::MAX - 15;

/// Base of the resident serve-session tag range: the request/response
/// command loop a [`crate::world::WorldHandle`] session runs between rank
/// 0 and the resident worker ranks. Far above any `(level, phase, kind)`
/// data tag, below the transport control range.
pub const SERVE_BASE: u32 = 1 << 20;
/// Worker → rank 0: factorization outcome, sent once when the rank
/// enters its serve loop.
pub const TAG_SERVE_READY: u32 = SERVE_BASE;
/// Rank 0 → worker: next command (solve / probe / shutdown).
pub const TAG_SERVE_CMD: u32 = SERVE_BASE + 1;
/// Rank 0 → worker: the right-hand-side row slab this rank owns.
pub const TAG_SERVE_RHS: u32 = SERVE_BASE + 2;
/// Worker → rank 0: the solved row slab this rank owns.
pub const TAG_SERVE_SOL: u32 = SERVE_BASE + 3;
/// Worker → rank 0: communication-counter snapshot (probe reply).
pub const TAG_SERVE_STATS: u32 = SERVE_BASE + 4;
/// Rank 0 → worker: liveness probe carrying a nonce
/// ([`crate::world::WorldHandle::health`]); uncounted, answered from the
/// idle wait so a busy rank reads as unresponsive rather than dead.
pub const TAG_SERVE_PING: u32 = SERVE_BASE + 5;
/// Worker → rank 0: liveness reply echoing the probe's nonce.
pub const TAG_SERVE_PONG: u32 = SERVE_BASE + 6;
/// Worker → rank 0: snapshot-restore outcome, sent once when a rank
/// rebuilt from an on-disk checkpoint enters its serve loop (the
/// restore-path analogue of [`TAG_SERVE_READY`]).
pub const TAG_SERVE_CKPT: u32 = SERVE_BASE + 7;
/// Worker → rank 0: a `Wire`-encoded span/metrics trace report — the
/// reply to the serve loop's trace-request command (the `KIND_TRACE`
/// frame of the tracing layer; see `srsf-trace`). Uncounted like every
/// serve frame, which is what keeps traced runs bit-identical to
/// untraced ones in the §IV counters.
pub const TAG_SERVE_TRACE: u32 = SERVE_BASE + 8;
/// Worker → rank 0: the rank's snapshot (records, routing, its share of
/// the top) — the reply to the serve loop's gather command, from which
/// rank 0 assembles a local factorization on demand. Uncounted like every
/// serve frame.
pub const TAG_SERVE_GATHER: u32 = SERVE_BASE + 9;

/// `true` for tags in the resident serve-session range. Serve frames are
/// the service *envelope* (command dispatch, RHS/solution slabs, stats
/// probes) rather than Algorithm 2 traffic, and are exempt from the §IV
/// data counters — see [`crate::world::RankCtx::send_service`].
pub fn is_serve(tag: u32) -> bool {
    (SERVE_BASE..SERVE_BASE + 10).contains(&tag)
}

/// Compose a data tag from its `(level, phase, kind)` coordinates.
pub fn tag(level: u8, phase: u8, kind: u32) -> u32 {
    debug_assert!(phase < 8 && kind < 8);
    (level as u32) * 64 + (phase as u32) * 8 + kind
}

/// Split a data tag back into `(level, phase, kind)`.
pub fn decode(tag: u32) -> (u8, u8, u32) {
    ((tag / 64) as u8, ((tag / 8) % 8) as u8, tag % 8)
}

/// `true` for tags in the transport-internal control range.
pub fn is_control(tag: u32) -> bool {
    tag >= CTRL_BASE
}

/// Human name of a message kind.
pub fn kind_name(kind: u32) -> &'static str {
    match kind {
        KIND_PHASE_UPDATE => "PHASE_UPDATE",
        KIND_FOLD => "FOLD",
        KIND_ACT_REFRESH => "ACT_REFRESH",
        KIND_TOP => "TOP",
        KIND_SOLVE_UP => "SOLVE_UP",
        KIND_SOLVE_REQ => "SOLVE_REQ",
        KIND_SOLVE_VAL => "SOLVE_VAL",
        _ => "UNKNOWN",
    }
}

/// Human name of a phase slot.
fn phase_name(phase: u8) -> String {
    match phase {
        0 => "interior".to_string(),
        1..=4 => format!("boundary color round {}", phase - 1),
        5 => "fold".to_string(),
        _ => "transition/gather".to_string(),
    }
}

/// Decode a tag into algorithm terms for diagnostics: level, phase and
/// kind for data tags, the serve-loop step for resident-session tags,
/// the control-frame name for transport tags.
pub fn describe(t: u32) -> String {
    if is_control(t) {
        let name = match t - CTRL_BASE {
            0 => "HELLO",
            1 => "PEERS",
            2 => "DIAL",
            3 => "BARRIER",
            4 => "BARRIER_ACK",
            5 => "RESULT",
            6 => "PANIC",
            _ => "RESERVED",
        };
        return format!("control {name}");
    }
    if is_serve(t) {
        let name = match t - SERVE_BASE {
            0 => "READY (factorization outcome)",
            1 => "CMD (solve/probe/shutdown dispatch)",
            2 => "RHS (right-hand-side row slab)",
            3 => "SOL (solution row slab)",
            4 => "STATS (counter probe reply)",
            5 => "PING (health probe)",
            6 => "PONG (health reply)",
            7 => "CKPT (snapshot restore outcome)",
            8 => "TRACE (span/metrics report)",
            9 => "GATHER (rank snapshot reply)",
            _ => "RESERVED",
        };
        return format!("resident serve {name}");
    }
    let (level, phase, kind) = decode(t);
    format!(
        "level {level}, {}, kind {}",
        phase_name(phase),
        kind_name(kind)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_orders() {
        for level in [0u8, 1, 3, 7] {
            for phase in 0..8u8 {
                for kind in 0..8u32 {
                    let t = tag(level, phase, kind);
                    assert!(!is_control(t));
                    assert_eq!(decode(t), (level, phase, kind));
                }
            }
        }
    }

    #[test]
    fn describe_names_algorithm_terms() {
        let t = tag(3, 2, KIND_SOLVE_UP);
        let d = describe(t);
        assert!(d.contains("level 3"), "{d}");
        assert!(d.contains("color round 1"), "{d}");
        assert!(d.contains("SOLVE_UP"), "{d}");
        assert!(describe(CTRL_BASE + 3).contains("BARRIER"));
    }

    #[test]
    fn describe_names_serve_steps() {
        assert!(describe(TAG_SERVE_CMD).contains("resident serve CMD"));
        assert!(describe(TAG_SERVE_RHS).contains("RHS"));
        assert!(describe(TAG_SERVE_SOL).contains("SOL"));
        assert!(describe(TAG_SERVE_READY).contains("READY"));
        assert!(describe(TAG_SERVE_STATS).contains("STATS"));
        assert!(describe(TAG_SERVE_PING).contains("PING"));
        assert!(describe(TAG_SERVE_PONG).contains("PONG"));
        assert!(describe(TAG_SERVE_CKPT).contains("CKPT"));
        assert!(describe(TAG_SERVE_TRACE).contains("TRACE"));
        assert!(describe(TAG_SERVE_GATHER).contains("GATHER"));
        for t in [
            TAG_SERVE_READY,
            TAG_SERVE_CMD,
            TAG_SERVE_RHS,
            TAG_SERVE_SOL,
            TAG_SERVE_STATS,
            TAG_SERVE_PING,
            TAG_SERVE_PONG,
            TAG_SERVE_CKPT,
            TAG_SERVE_TRACE,
            TAG_SERVE_GATHER,
        ] {
            assert!(is_serve(t) && !is_control(t));
        }
        assert!(!is_serve(tag(7, 7, 7)));
        assert!(!is_serve(CTRL_BASE));
    }
}
