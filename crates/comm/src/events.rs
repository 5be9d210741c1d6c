//! Ordered communication event streams.
//!
//! Every mailbox operation appends a [`CommEvent`] carrying a globally
//! monotone sequence number, so post/send/completion *order* — not just the
//! aggregate byte counts the [`vibe_prof::Recorder`] keeps — survives into
//! downstream consumers. The timeline simulator (`vibe-sim`) replays these
//! streams to schedule individual messages onto NIC channels and the MPI
//! progress engine; [`validate_event_order`] is the invariant checker that
//! any interleaving of sends and probes must satisfy.

use vibe_prof::{CollectiveOp, StepFunction};

use crate::cache::BoundaryKey;

/// What happened on the communicator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommEventKind {
    /// An asynchronous receive was posted for the key
    /// (`StartReceiveBoundBufs`).
    PostReceive,
    /// A buffer was packed and shipped (`SendBoundBufs`).
    Send {
        /// Sending virtual rank.
        src: usize,
        /// Receiving virtual rank.
        dst: usize,
        /// Payload size.
        bytes: u64,
        /// Ghost/flux cells carried, for workload accounting.
        cells: u64,
        /// Same-rank copy (`true`) vs. remote message.
        local: bool,
    },
    /// A probe found the message and consumed it (`ReceiveBoundBufs`
    /// completing an `MPI_Test`).
    Complete {
        /// Payload size delivered.
        bytes: u64,
        /// Whether the delivery was a same-rank copy.
        local: bool,
    },
    /// A collective operation executed over all ranks.
    Collective {
        /// Which collective.
        op: CollectiveOp,
        /// Total payload moved.
        bytes: u64,
    },
}

/// One entry in a communicator's ordered event log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEvent {
    /// Globally monotone sequence number (unique per communicator, strictly
    /// increasing in program order). With the cross-thread channel
    /// transport the counter is shared by all ranks, so merging every
    /// rank's log and sorting by `seq` yields a causally ordered global
    /// stream (a completion's seq is always greater than its send's).
    pub seq: u64,
    /// Rank whose communicator stamped the event. The same-address-space
    /// transport stamps everything rank 0 (one driver executes every
    /// virtual rank); rank engines stamp their own rank.
    pub rank: usize,
    /// Simulation cycle the event belongs to.
    pub cycle: u64,
    /// Boundary key for p2p events; `BoundaryKey::new(0, 0, 0)` convention
    /// for collectives (which have no boundary).
    pub key: BoundaryKey,
    /// Timestep-loop function that issued the operation.
    pub func: StepFunction,
    /// Name of the driver task that issued the operation, when the task
    /// executor attributed one (see `Communicator::set_task`). Initialization
    /// traffic and direct mailbox use carry `None`.
    pub task: Option<&'static str>,
    /// The operation itself.
    pub kind: CommEventKind,
}

/// Checks the ordering invariants of an event log:
///
/// 1. sequence numbers are strictly increasing (monotone program order);
/// 2. cycles never decrease (events stamped with the initialization
///    sentinel `u64::MAX` are exempt — they precede cycle 0 by design);
/// 3. every `Complete` for a key is preceded by a `Send` for that key that
///    has not already been consumed — regardless of how deliveries were
///    interleaved across keys (shuffled probe order is legal, completing a
///    message that was never sent is not);
/// 4. a `Send` overwriting an unconsumed `Send` on the same key is allowed
///    (re-sends after a stale reset) but a double `Complete` is not.
///
/// Returns the number of satisfied (send → complete) dependency edges.
pub fn validate_event_order(events: &[CommEvent]) -> Result<usize, String> {
    let mut last_seq: Option<u64> = None;
    let mut last_cycle = 0u64;
    let mut pending: std::collections::HashMap<BoundaryKey, u64> = std::collections::HashMap::new();
    let mut edges = 0usize;
    for ev in events {
        if let Some(prev) = last_seq {
            if ev.seq <= prev {
                return Err(format!(
                    "sequence numbers not strictly increasing: {} after {prev}",
                    ev.seq
                ));
            }
        }
        last_seq = Some(ev.seq);
        if ev.cycle != u64::MAX {
            if ev.cycle < last_cycle {
                return Err(format!(
                    "cycle went backwards: {} after {last_cycle} at seq {}",
                    ev.cycle, ev.seq
                ));
            }
            last_cycle = ev.cycle;
        }
        match ev.kind {
            CommEventKind::PostReceive | CommEventKind::Collective { .. } => {}
            CommEventKind::Send { .. } => {
                pending.insert(ev.key, ev.seq);
            }
            CommEventKind::Complete { .. } => match pending.remove(&ev.key) {
                Some(send_seq) if send_seq < ev.seq => edges += 1,
                Some(send_seq) => {
                    return Err(format!(
                        "completion at seq {} not after its send at seq {send_seq}",
                        ev.seq
                    ));
                }
                None => {
                    return Err(format!(
                        "completion at seq {} for {:?} with no pending send",
                        ev.seq, ev.key
                    ));
                }
            },
        }
    }
    Ok(edges)
}

/// Checks the ordering invariants of a *merged multi-rank* event log — the
/// concatenation of every rank engine's stream sorted by the shared `seq`
/// counter:
///
/// 1. sequence numbers are strictly increasing globally (the channel
///    transport's shared counter makes them unique and causal);
/// 2. every rank index is `< nranks`;
/// 3. per rank, cycles never decrease (the initialization sentinel
///    `u64::MAX` is exempt) — ranks may be in *different* cycles at the
///    same instant, so no global cycle monotonicity is required;
/// 4. every `Complete` matches the oldest unconsumed `Send` for its key
///    (FIFO message matching, exactly MPI's same-(source,tag) ordering) —
///    a `Complete` with no pending `Send` is an error;
/// 5. every collective occurrence is observed by *all* ranks: for each
///    `(cycle, func, op, bytes)` group, all ranks log the same number of
///    collective events — a collective seen by only a subset of ranks is
///    a rendezvous mismatch.
///
/// Returns the number of satisfied (send → complete) dependency edges.
pub fn validate_multirank_event_order(
    events: &[CommEvent],
    nranks: usize,
) -> Result<usize, String> {
    use std::collections::{BTreeMap, HashMap, VecDeque};
    let mut last_seq: Option<u64> = None;
    let mut last_cycle = vec![0u64; nranks];
    let mut pending: HashMap<BoundaryKey, VecDeque<u64>> = HashMap::new();
    // (cycle, func, op, bytes) -> per-rank occurrence counts.
    let mut collectives: BTreeMap<(u64, StepFunction, CollectiveOp, u64), Vec<u64>> =
        BTreeMap::new();
    let mut edges = 0usize;
    for ev in events {
        if let Some(prev) = last_seq {
            if ev.seq <= prev {
                return Err(format!(
                    "sequence numbers not strictly increasing: {} after {prev}",
                    ev.seq
                ));
            }
        }
        last_seq = Some(ev.seq);
        if ev.rank >= nranks {
            return Err(format!(
                "event at seq {} stamped rank {} >= nranks {nranks}",
                ev.seq, ev.rank
            ));
        }
        if ev.cycle != u64::MAX {
            if ev.cycle < last_cycle[ev.rank] {
                return Err(format!(
                    "rank {} cycle went backwards: {} after {} at seq {}",
                    ev.rank, ev.cycle, last_cycle[ev.rank], ev.seq
                ));
            }
            last_cycle[ev.rank] = ev.cycle;
        }
        match ev.kind {
            CommEventKind::PostReceive => {}
            CommEventKind::Collective { op, bytes } => {
                collectives
                    .entry((ev.cycle, ev.func, op, bytes))
                    .or_insert_with(|| vec![0u64; nranks])[ev.rank] += 1;
            }
            CommEventKind::Send { .. } => {
                pending.entry(ev.key).or_default().push_back(ev.seq);
            }
            CommEventKind::Complete { .. } => {
                match pending.get_mut(&ev.key).and_then(VecDeque::pop_front) {
                    Some(send_seq) if send_seq < ev.seq => edges += 1,
                    Some(send_seq) => {
                        return Err(format!(
                            "completion at seq {} not after its send at seq {send_seq}",
                            ev.seq
                        ));
                    }
                    None => {
                        return Err(format!(
                            "completion at seq {} for {:?} with no pending send",
                            ev.seq, ev.key
                        ));
                    }
                }
            }
        }
    }
    for ((cycle, func, op, bytes), counts) in &collectives {
        let max = counts.iter().copied().max().unwrap_or(0);
        if counts.iter().any(|&c| c != max) {
            let observers = counts.iter().filter(|&&c| c == max).count();
            return Err(format!(
                "collective {op:?} ({func:?}, {bytes} B, cycle {cycle}) observed by only \
                 {observers} of {nranks} ranks"
            ));
        }
    }
    Ok(edges)
}

/// Recovers the cross-rank causal edges of a *merged, seq-sorted*
/// multi-rank event log: every remote `Send` is paired with the `Complete`
/// that consumed it, FIFO per boundary key — the same matching discipline
/// [`validate_multirank_event_order`] checks, so a log that validates
/// matches completely. Each pair whose two sides both carry a task label
/// becomes a [`vibe_prof::CrossEdge`] (the span-graph edge between the
/// sending task's span and the receiving task's span); same-rank copies
/// and unlabeled initialization traffic are skipped.
pub fn match_cross_edges(events: &[CommEvent]) -> Vec<vibe_prof::CrossEdge> {
    use std::collections::{HashMap, VecDeque};
    // Per-key FIFO of *all* sends (local ones included, to keep positions
    // aligned with the validator's matching), remembering enough of the
    // send to build the edge.
    struct PendingSend {
        seq: u64,
        rank: usize,
        cycle: u64,
        task: Option<&'static str>,
        bytes: u64,
        local: bool,
    }
    let mut pending: HashMap<BoundaryKey, VecDeque<PendingSend>> = HashMap::new();
    let mut edges = Vec::new();
    for ev in events {
        match ev.kind {
            CommEventKind::PostReceive | CommEventKind::Collective { .. } => {}
            CommEventKind::Send { bytes, local, .. } => {
                pending.entry(ev.key).or_default().push_back(PendingSend {
                    seq: ev.seq,
                    rank: ev.rank,
                    cycle: ev.cycle,
                    task: ev.task,
                    bytes,
                    local,
                });
            }
            CommEventKind::Complete { .. } => {
                let Some(send) = pending.get_mut(&ev.key).and_then(VecDeque::pop_front) else {
                    continue;
                };
                if send.local || send.rank == ev.rank {
                    continue;
                }
                let (Some(src_task), Some(dst_task)) = (send.task, ev.task) else {
                    continue;
                };
                edges.push(vibe_prof::CrossEdge {
                    seq: send.seq,
                    bytes: send.bytes,
                    src_rank: send.rank,
                    src_cycle: send.cycle,
                    src_task,
                    dst_rank: ev.rank,
                    dst_cycle: ev.cycle,
                    dst_task,
                });
            }
        }
    }
    edges.sort_by_key(|e| e.seq);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, rank: usize, cycle: u64, key: BoundaryKey, kind: CommEventKind) -> CommEvent {
        CommEvent {
            seq,
            rank,
            cycle,
            key,
            func: StepFunction::SendBoundBufs,
            task: None,
            kind,
        }
    }

    fn send(src: usize, dst: usize) -> CommEventKind {
        CommEventKind::Send {
            src,
            dst,
            bytes: 64,
            cells: 8,
            local: src == dst,
        }
    }

    const DONE: CommEventKind = CommEventKind::Complete {
        bytes: 64,
        local: false,
    };

    /// Cross-rank deliveries interleaved out of key order — but causal in
    /// the shared sequence counter — are a legal merged log.
    #[test]
    fn shuffled_cross_rank_interleaving_passes() {
        let a = BoundaryKey::new(0, 4, 1);
        let b = BoundaryKey::new(5, 1, 2);
        let events = [
            ev(1, 0, 0, a, send(0, 1)),
            ev(2, 1, 0, b, send(1, 0)),
            // Rank 0 consumes b before rank 1 consumes a: key order is
            // shuffled relative to send order, seq order stays causal.
            ev(3, 0, 0, b, DONE),
            ev(4, 1, 0, a, DONE),
            // Ranks may sit in different cycles at the same instant.
            ev(5, 0, 1, a, send(0, 1)),
            ev(6, 1, 0, b, send(1, 0)),
            ev(7, 1, 1, a, DONE),
            ev(8, 0, 1, b, DONE),
        ];
        assert_eq!(validate_multirank_event_order(&events, 2), Ok(4));
    }

    /// A completion with no matching send is a corrupt log, not a legal
    /// interleaving.
    #[test]
    fn completion_without_send_fails() {
        let a = BoundaryKey::new(0, 4, 1);
        let orphan = BoundaryKey::new(9, 9, 1);
        let events = [ev(1, 0, 0, a, send(0, 1)), ev(2, 1, 0, orphan, DONE)];
        let err = validate_multirank_event_order(&events, 2).unwrap_err();
        assert!(err.contains("no pending send"), "{err}");
    }

    /// A collective observed by only a subset of ranks is a rendezvous
    /// mismatch — every rank must log each collective occurrence.
    #[test]
    fn subset_collective_fails() {
        let none = BoundaryKey::new(0, 0, 0);
        let coll = CommEventKind::Collective {
            op: CollectiveOp::AllReduce,
            bytes: 8,
        };
        let full = [
            ev(1, 0, 0, none, coll),
            ev(2, 1, 0, none, coll),
            ev(3, 2, 0, none, coll),
        ];
        assert_eq!(validate_multirank_event_order(&full, 3), Ok(0));
        let subset = &full[..2];
        let err = validate_multirank_event_order(subset, 3).unwrap_err();
        assert!(err.contains("observed by only 2 of 3 ranks"), "{err}");
    }

    /// Per-rank FIFO matching: two same-key sends consume in order, and a
    /// third completion on that key is rejected.
    #[test]
    fn fifo_matching_per_key() {
        let a = BoundaryKey::new(0, 4, 1);
        let ok = [
            ev(1, 0, 0, a, send(0, 1)),
            ev(2, 0, 0, a, send(0, 1)),
            ev(3, 1, 0, a, DONE),
            ev(4, 1, 0, a, DONE),
        ];
        assert_eq!(validate_multirank_event_order(&ok, 2), Ok(2));
        let over = [
            ev(1, 0, 0, a, send(0, 1)),
            ev(2, 1, 0, a, DONE),
            ev(3, 1, 0, a, DONE),
        ];
        assert!(validate_multirank_event_order(&over, 2).is_err());
    }

    /// Cross-edge recovery: remote labeled pairs become edges, local
    /// copies and unlabeled traffic do not, and FIFO positions stay
    /// aligned even when local and remote sends share a key.
    #[test]
    fn cross_edges_match_remote_labeled_pairs_fifo() {
        let a = BoundaryKey::new(0, 4, 1);
        let b = BoundaryKey::new(5, 1, 2);
        let mut events = vec![
            ev(1, 0, 0, a, send(0, 1)),
            ev(2, 1, 0, b, send(1, 0)),
            ev(3, 0, 0, b, DONE),
            ev(4, 1, 0, a, DONE),
            // Same-rank copy: matched but not an edge.
            ev(5, 0, 1, a, send(0, 0)),
            ev(6, 0, 1, a, DONE),
        ];
        for e in &mut events {
            e.task = Some("Stage0::PackSend");
        }
        events[2].task = Some("Stage0::WaitUnpack");
        events[3].task = Some("Stage0::WaitUnpack");
        let edges = match_cross_edges(&events);
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].seq, 1);
        assert_eq!(edges[0].src_rank, 0);
        assert_eq!(edges[0].dst_rank, 1);
        assert_eq!(edges[0].src_task, "Stage0::PackSend");
        assert_eq!(edges[0].dst_task, "Stage0::WaitUnpack");
        assert_eq!(edges[1].seq, 2);
        assert_eq!(edges[1].dst_rank, 0);

        // Unlabeled (init) traffic is skipped entirely.
        let unlabeled = [ev(1, 0, 0, a, send(0, 1)), ev(2, 1, 0, a, DONE)];
        assert!(match_cross_edges(&unlabeled).is_empty());
    }

    /// Structural stamps are checked: rank ids beyond nranks and non-unique
    /// sequence numbers are corrupt.
    #[test]
    fn rank_bounds_and_seq_uniqueness() {
        let none = BoundaryKey::new(0, 0, 0);
        let bad_rank = [ev(1, 2, 0, none, CommEventKind::PostReceive)];
        assert!(validate_multirank_event_order(&bad_rank, 2).is_err());
        let dup_seq = [
            ev(1, 0, 0, none, CommEventKind::PostReceive),
            ev(1, 1, 0, none, CommEventKind::PostReceive),
        ];
        assert!(validate_multirank_event_order(&dup_seq, 2).is_err());
    }
}
