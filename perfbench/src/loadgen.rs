//! Open-loop TCP client for the wire workload.
//!
//! Batch `i` is due at `schedule.due(i)` whatever came back before it.  Each
//! batch is timed from its due time, not from when the writer got around to
//! it, so a writer that falls behind charges the wait to the batches that
//! waited; how late the writer ran is reported on its own.  A batch that is
//! never answered counts as failed.

use crate::probes::wait_until;
use crate::stats::{lateness, micros, since_due, Outcomes, Samples, Schedule};
use crate::trace::Tracer;
use pdmm::net::Response;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the client waits for a missing answer before giving up on it.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

pub struct WireLoad {
    /// Per answered batch, microseconds from due to answer.
    pub ack_us: Samples,
    /// Per sent batch, microseconds the writer sent it late.
    pub late_us: Samples,
    pub outcomes: Outcomes,
    /// From the `OK` lines.
    pub admitted: u64,
    pub routed_updates: u64,
    pub sub_batches: u64,
    pub cross_shard: u64,
    pub tracer: Tracer,
}

/// Sends every pre-framed batch on its schedule over one connection and
/// matches the FIFO answers to them.  Span ids count from `first_id`.
pub fn drive(
    addr: SocketAddr,
    framed: &[String],
    schedule: Schedule,
    first_id: u64,
    tracer: Tracer,
) -> std::io::Result<WireLoad> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    read_half.set_read_timeout(Some(ANSWER_TIMEOUT))?;
    let (sent_tx, sent_rx) = mpsc::channel::<(usize, Instant, Instant)>();

    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> std::io::Result<WireLoad> {
            let mut load = WireLoad {
                ack_us: Samples::default(),
                late_us: Samples::default(),
                outcomes: Outcomes::default(),
                admitted: 0,
                routed_updates: 0,
                sub_batches: 0,
                cross_shard: 0,
                tracer,
            };
            let mut lines = BufReader::new(read_half);
            let mut line = String::new();
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        break
                    }
                    Err(e) => return Err(e),
                }
                let done = Instant::now();
                let Ok((i, due, issued)) = sent_rx.recv() else {
                    // An answer to nothing we sent.
                    load.outcomes.errored += 1;
                    continue;
                };
                load.outcomes.answered += 1;
                load.ack_us.push(micros(since_due(due, done)));
                let id = first_id + i as u64;
                let root = load.tracer.record("wire.batch", id, None, due, done);
                load.tracer.record("loadgen.late", id, root, due, issued);
                load.tracer.record("net.roundtrip", id, root, issued, done);
                match Response::parse(&line) {
                    Some(Response::Ok {
                        updates,
                        sub_batches,
                        cross_shard,
                    }) => {
                        load.admitted += 1;
                        load.routed_updates += updates as u64;
                        load.sub_batches += sub_batches as u64;
                        load.cross_shard += cross_shard as u64;
                    }
                    Some(Response::Retry { .. } | Response::Shed) => load.outcomes.refused += 1,
                    Some(Response::Error { .. }) | None => load.outcomes.errored += 1,
                }
            }
            Ok(load)
        });

        let mut writer = stream;
        let mut late_us = Samples::default();
        let mut write_error = None;
        for (i, frame) in framed.iter().enumerate() {
            let due = schedule.due(i);
            wait_until(due);
            let issued = Instant::now();
            if let Err(e) = writer.write_all(frame.as_bytes()) {
                write_error = Some(e);
                break;
            }
            late_us.push(micros(lateness(due, issued)));
            if sent_tx.send((i, due, issued)).is_err() {
                break;
            }
        }
        drop(sent_tx);
        let _ = writer.shutdown(Shutdown::Write);
        let mut load = reader.join().expect("the answer reader never panics")?;
        if let Some(e) = write_error {
            eprintln!("perfbench: write stopped early: {e}");
        }
        load.late_us = late_us;
        load.outcomes.attempted = framed.len() as u64;
        Ok(load)
    })
}
