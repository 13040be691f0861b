//! The TCP backend against real OS processes: results, counters and
//! failure diagnostics must match the in-process backend.
//!
//! Every test sets [`set_tcp_child_args`] to `[<test_name>, "--exact"]`
//! so a spawned worker re-runs exactly the one test that launched it
//! (the re-exec discipline documented on `srsf_runtime::transport`), and
//! every test runs its TCP session *before* any in-process comparison
//! run, so workers exit inside the TCP session instead of re-simulating
//! the comparisons.

use srsf_runtime::codec::{ByteReader, ByteWriter, Bytes};
use srsf_runtime::world::RankCtx;
use srsf_runtime::{set_tcp_child_args, tags, Transport, World};
use std::time::Duration;

fn worker_args(test_name: &str) -> Option<Vec<String>> {
    Some(vec![test_name.to_string(), "--exact".to_string()])
}

/// [`RankCtx::try_recv`], panicking with the error's message.
fn recv(ctx: &mut RankCtx, src: usize, tag: u32) -> Bytes {
    ctx.try_recv(src, tag).unwrap_or_else(|e| panic!("{e}"))
}

/// [`RankCtx::try_barrier`], panicking with the error's message.
fn barrier(ctx: &mut RankCtx) {
    if let Err(e) = ctx.try_barrier() {
        panic!("barrier failed: {e}");
    }
}

fn ring(ctx: &mut RankCtx) -> u64 {
    let me = ctx.rank();
    let next = (me + 1) % ctx.size();
    let prev = (me + ctx.size() - 1) % ctx.size();
    let mut w = ByteWriter::new();
    w.put_u64(me as u64);
    ctx.send(next, 0, w.finish());
    let got = ByteReader::new(recv(ctx, prev, 0)).get_u64();
    barrier(ctx);
    got
}

#[test]
fn tcp_ring_pass_over_processes() {
    set_tcp_child_args(worker_args("tcp_ring_pass_over_processes"));
    let (tcp, tcp_stats) = World::new(4).transport(Transport::Tcp).run(ring);
    assert!(
        !srsf_runtime::is_spawned_worker(),
        "workers exit inside run()"
    );
    let (inproc, inproc_stats) = World::new(4).run(ring);
    assert_eq!(tcp, vec![3, 0, 1, 2]);
    assert_eq!(tcp, inproc);
    for rank in 0..4 {
        assert_eq!(
            (
                tcp_stats.per_rank[rank].msgs_sent,
                tcp_stats.per_rank[rank].words_sent
            ),
            (
                inproc_stats.per_rank[rank].msgs_sent,
                inproc_stats.per_rank[rank].words_sent
            ),
            "rank {rank} counters differ across backends"
        );
    }
}

/// A chattier pattern: interleaved tags (exercising out-of-order
/// buffering across the sockets), mid-protocol barriers, and payloads
/// big enough to span many TCP segments.
fn traffic(ctx: &mut RankCtx) -> u64 {
    let me = ctx.rank();
    let p = ctx.size();
    let t_a = tags::tag(2, 1, tags::KIND_PHASE_UPDATE);
    let t_b = tags::tag(2, 1, tags::KIND_SOLVE_VAL);
    // Everyone sends everyone two tagged messages, higher tag first.
    for dst in 0..p {
        if dst == me {
            continue;
        }
        let mut w = ByteWriter::new();
        for i in 0..4096u64 {
            w.put_u64(i.wrapping_mul(me as u64 + 1));
        }
        ctx.send(dst, t_b, w.finish());
        let mut w = ByteWriter::new();
        w.put_u64(me as u64);
        ctx.send(dst, t_a, w.finish());
    }
    barrier(ctx);
    let mut acc = 0u64;
    // Receive in the opposite tag order.
    for src in 0..p {
        if src == me {
            continue;
        }
        acc += ByteReader::new(recv(ctx, src, t_a)).get_u64();
        let mut r = ByteReader::new(recv(ctx, src, t_b));
        acc = acc.wrapping_add(r.get_u64());
        assert_eq!(r.remaining(), 4095 * 8);
    }
    barrier(ctx);
    acc
}

#[test]
fn tcp_counters_match_inproc_bit_for_bit() {
    set_tcp_child_args(worker_args("tcp_counters_match_inproc_bit_for_bit"));
    let (tcp, tcp_stats) = World::new(4).transport(Transport::Tcp).run(traffic);
    let (inproc, inproc_stats) = World::new(4).run(traffic);
    assert_eq!(tcp, inproc);
    assert_eq!(tcp_stats.total_msgs(), inproc_stats.total_msgs());
    assert_eq!(tcp_stats.total_words(), inproc_stats.total_words());
    for rank in 0..4 {
        let t = &tcp_stats.per_rank[rank];
        let i = &inproc_stats.per_rank[rank];
        assert_eq!(t.msgs_sent, i.msgs_sent, "rank {rank} msgs");
        assert_eq!(t.words_sent, i.words_sent, "rank {rank} words");
    }
    // 2 messages to each of 3 peers, per rank.
    assert_eq!(tcp_stats.per_rank[0].msgs_sent, 6);
}

#[test]
fn tcp_recv_timeout_names_the_waiting_step() {
    set_tcp_child_args(worker_args("tcp_recv_timeout_names_the_waiting_step"));
    let waited_tag = tags::tag(2, 1, tags::KIND_FOLD);
    let err = std::panic::catch_unwind(|| {
        World::new(2)
            .transport(Transport::Tcp)
            .with_recv_timeout(Duration::from_millis(400))
            .run(move |ctx| {
                if ctx.rank() == 0 {
                    // Never sent: rank 0 (the launching process) must run
                    // into the honored timeout...
                    let _ = recv(ctx, 1, waited_tag);
                } else {
                    // ...while rank 1 deterministically outlives it (it
                    // is reaped by the launcher's unwind), so the failure
                    // is a timeout, not a lost link.
                    std::thread::sleep(Duration::from_secs(20));
                }
                0u64
            });
    })
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".into());
    assert!(msg.contains("rank 0 timed out"), "{msg}");
    assert!(msg.contains("from rank 1"), "{msg}");
    assert!(msg.contains("level 2"), "{msg}");
    assert!(msg.contains("FOLD"), "{msg}");
}

#[test]
fn tcp_dead_peer_fails_fast_with_diagnostics() {
    set_tcp_child_args(worker_args("tcp_dead_peer_fails_fast_with_diagnostics"));
    let waited_tag = tags::tag(2, 1, tags::KIND_FOLD);
    let err = std::panic::catch_unwind(|| {
        World::new(2)
            .transport(Transport::Tcp)
            .with_recv_timeout(Duration::from_secs(60))
            .run(move |ctx| {
                if ctx.rank() == 0 {
                    // Rank 1 finishes and exits; the closed link must
                    // fail this receive immediately (not after 60 s),
                    // still naming the waiting step.
                    let _ = recv(ctx, 1, waited_tag);
                }
                0u64
            });
    })
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".into());
    assert!(msg.contains("rank 0 lost rank 1"), "{msg}");
    assert!(msg.contains("FOLD"), "{msg}");
}

#[test]
fn tcp_worker_panic_is_relayed_with_its_message() {
    set_tcp_child_args(worker_args("tcp_worker_panic_is_relayed_with_its_message"));
    let err = std::panic::catch_unwind(|| {
        World::new(2).transport(Transport::Tcp).run(|ctx| {
            if ctx.rank() == 1 {
                panic!("deliberate failure in the worker rank");
            }
            0u64
        });
    })
    .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".into());
    assert!(msg.contains("rank 1 panicked"), "{msg}");
    assert!(
        msg.contains("deliberate failure in the worker rank"),
        "{msg}"
    );
}

#[test]
fn tcp_single_rank_world_is_degenerate() {
    set_tcp_child_args(worker_args("tcp_single_rank_world_is_degenerate"));
    // p = 1 exchanges no messages: nothing to spawn, nothing to count.
    let (results, stats) = World::new(1).transport(Transport::Tcp).run(|ctx| {
        let v = ctx.rank() + ctx.size();
        ctx.compute(move || v)
    });
    assert_eq!(results, vec![1]);
    assert_eq!(stats.total_msgs(), 0);
}

#[test]
fn tcp_sessions_in_sequence_reach_their_own_workers() {
    set_tcp_child_args(worker_args(
        "tcp_sessions_in_sequence_reach_their_own_workers",
    ));
    // Two TCP sessions from one thread: workers of the second session
    // must recompute the first in-process and join only the second.
    let (a, _) = World::new(2).transport(Transport::Tcp).run(ring);
    let (b, _) = World::new(4).transport(Transport::Tcp).run(ring);
    assert_eq!(a, vec![1, 0]);
    assert_eq!(b, vec![3, 0, 1, 2]);
}

#[test]
fn tcp_resident_session_serves_rounds_and_shuts_down_cleanly() {
    set_tcp_child_args(worker_args(
        "tcp_resident_session_serves_rounds_and_shuts_down_cleanly",
    ));
    // A resident session over real OS processes: the workers stay alive
    // between rounds (same processes, same sockets), echo commands back,
    // and exit on the tag-based shutdown — collected liveness-aware by
    // finish(). A worker must never be respawned between rounds: it
    // proves identity by echoing a counter it keeps in process memory.
    let p = 4;
    let (s0, mut handle) = World::new(p).transport(Transport::Tcp).run_resident(
        |ctx| ctx.rank() * 10,
        |ctx, seed| {
            let mut served = 0u64;
            while let Some(cmd) = ctx.recv_service_idle(0, tags::TAG_SERVE_CMD) {
                if cmd.is_empty() {
                    break;
                }
                served += 1;
                let mut w = ByteWriter::new();
                w.put_u64(seed as u64 + served);
                ctx.send_service(0, tags::TAG_SERVE_SOL, w.finish());
            }
        },
    );
    assert_eq!(s0, 0, "rank 0 keeps its factor output");
    assert!(!srsf_runtime::is_spawned_worker(), "workers exit in serve");
    for round in 1..=3u64 {
        for dst in 1..p {
            let mut w = ByteWriter::new();
            w.put_u64(round);
            handle
                .ctx()
                .send_service(dst, tags::TAG_SERVE_CMD, w.finish());
        }
        for src in 1..p {
            let reply = recv(handle.ctx(), src, tags::TAG_SERVE_SOL);
            let v = ByteReader::new(reply).get_u64();
            // seed (10 * rank) + per-process served counter: only a
            // process that survived every earlier round reports this.
            assert_eq!(v, src as u64 * 10 + round, "round {round} from {src}");
        }
    }
    // Service frames are envelope traffic: no data messages were counted.
    assert_eq!(handle.ctx().stats().msgs_sent, 0);
    for dst in 1..p {
        assert!(handle.worker_live(dst), "rank {dst} died early");
        handle
            .ctx()
            .send_service(dst, tags::TAG_SERVE_CMD, Vec::new());
    }
    let stats = handle.finish();
    assert_eq!(stats.per_rank.len(), p);
}
