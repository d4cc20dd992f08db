//! The harness's own load generator for `serve-smallbank`: one TCP
//! connection, the calling thread sends, one reader thread receives.
//!
//! Open-loop phases draw Poisson due times up front and send each
//! request at its due time whatever is outstanding; latency is taken
//! from the due time (so a stall charges every request queued behind
//! it) and, separately, from the actual send time, and the generator's
//! own lateness is reported. The saturation phase sends back to back
//! and is closed only by the server's per-connection window. All
//! quantiles are exact, over sorted samples.

use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use drtm::base::SplitMix64;
use drtm::net::proto::{self, Msg, Status, WireError};
use drtm::workloads::smallbank::{self, SbCfg, SbTxn};

use crate::stats::quantile_sorted;

/// The sender sleeps until this close to a due time, then spins.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// Generates `n` SmallBank requests with ids `first_id..`, from `rng`
/// alone. `zero_sum` keeps the subset that conserves the total balance
/// (send-payment 75%, balance 25%), which the server can audit.
pub fn gen_requests(
    sb: &SbCfg,
    rng: &mut SplitMix64,
    first_id: u64,
    n: usize,
    zero_sum: bool,
) -> Vec<Msg> {
    (0..n as u64)
        .map(|i| {
            let home = rng.below(sb.nodes as u64) as usize;
            let mut inp = smallbank::gen(sb, rng, home);
            if zero_sum {
                inp.txn = if rng.chance(0.25) {
                    SbTxn::Balance
                } else {
                    SbTxn::SendPayment
                };
            }
            let txn = SbTxn::ALL
                .iter()
                .position(|t| *t == inp.txn)
                .expect("every type is in SbTxn::ALL") as u8;
            Msg::SmallBank {
                id: first_id + i,
                txn,
                a_shard: inp.a.0 as u32,
                a_key: inp.a.1,
                b_shard: inp.b.0 as u32,
                b_key: inp.b.1,
                amount: inp.amount,
                sched_ns: 0,
            }
        })
        .collect()
}

/// Poisson due times at `rate` requests per second: ns offsets from the
/// phase start, non-decreasing, a pure function of `rng`.
pub fn poisson_due_ns(rng: &mut SplitMix64, rate: f64, n: usize) -> Vec<u64> {
    assert!(rate > 0.0, "an open-loop phase needs a rate");
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            // Uniform in (0, 1], so the logarithm is finite.
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += -u.ln() / rate * 1e9;
            at as u64
        })
        .collect()
}

/// What one phase saw.
#[derive(Debug, Clone, Default)]
pub struct PhaseOut {
    pub sent: u64,
    pub replies: u64,
    pub committed: u64,
    pub aborted: u64,
    pub rejected: u64,
    /// First send to last reply.
    pub elapsed_s: f64,
    /// Reply time − due time of admitted requests, ascending, ns.
    pub from_due_ns: Vec<u64>,
    /// Reply time − actual send time of admitted requests, ascending.
    pub from_send_ns: Vec<u64>,
    /// Actual send time − due time of every request, ascending.
    pub lateness_ns: Vec<u64>,
}

impl PhaseOut {
    pub fn due_us(&self, q: f64) -> f64 {
        quantile_sorted(&self.from_due_ns, q) as f64 / 1e3
    }
    pub fn send_us(&self, q: f64) -> f64 {
        quantile_sorted(&self.from_send_ns, q) as f64 / 1e3
    }
    pub fn lateness_us(&self, q: f64) -> f64 {
        quantile_sorted(&self.lateness_ns, q) as f64 / 1e3
    }
    pub fn goodput(&self) -> f64 {
        self.committed as f64 / self.elapsed_s
    }
}

/// One connection to a `drtm::net::Server`, greeted.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects and swallows the greeting; returns the topology the
    /// server announced (nodes, accounts per node).
    pub fn connect(addr: std::net::SocketAddr) -> Result<(Self, usize, usize), WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        match proto::read_msg(&mut reader)? {
            Some(Msg::Hello {
                version,
                nodes,
                accounts,
            }) if version == proto::PROTO_VERSION => {
                Ok((Self { stream, reader }, nodes as usize, accounts as usize))
            }
            _ => Err(WireError::BadValue("greeting")),
        }
    }

    /// Sends `msgs` (ids consecutive from the first one's) and collects
    /// every reply. With `due_ns`, request `i` goes out at its due time;
    /// without, back to back.
    pub fn run_phase(
        &mut self,
        msgs: &[Msg],
        due_ns: Option<&[u64]>,
    ) -> Result<PhaseOut, WireError> {
        let n = msgs.len();
        let first_id = match msgs.first() {
            Some(Msg::SmallBank { id, .. }) => *id,
            _ => return Ok(PhaseOut::default()),
        };
        // ns since `start`, written by the sender before the frame hits
        // the socket and read by the reader after the reply arrives; the
        // Release/Acquire pair orders the two for requests that overtake
        // the store on another core.
        let send_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let start = Instant::now();
        let reader = &mut self.reader;
        let stream = &self.stream;

        let (sent, replies) = std::thread::scope(|scope| {
            let send_at = &send_at;
            let rx = scope.spawn(move || -> Result<Vec<(u64, Status, u64, u64)>, WireError> {
                let mut got = Vec::with_capacity(n);
                while got.len() < n {
                    match proto::read_msg(reader)? {
                        Some(Msg::Response { id, status, .. }) => {
                            let at = start.elapsed().as_nanos() as u64;
                            let i = id
                                .checked_sub(first_id)
                                .filter(|i| (*i as usize) < n)
                                .ok_or(WireError::BadValue("reply id"))?;
                            let sent = send_at[i as usize].load(Ordering::Acquire);
                            got.push((i, status, sent, at));
                        }
                        Some(_) => return Err(WireError::BadValue("reply type")),
                        None => return Err(WireError::Truncated),
                    }
                }
                Ok(got)
            });

            let mut sent = 0u64;
            let mut tx = || -> Result<(), WireError> {
                for (i, msg) in msgs.iter().enumerate() {
                    if let Some(due) = due_ns {
                        let due = start + Duration::from_nanos(due[i]);
                        let now = Instant::now();
                        if due > now + SPIN_WINDOW {
                            std::thread::sleep(due - now - SPIN_WINDOW);
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                    }
                    send_at[i].store(start.elapsed().as_nanos() as u64, Ordering::Release);
                    proto::write_msg(&mut &*stream, msg)?;
                    sent += 1;
                }
                (&mut &*stream).flush()?;
                Ok(())
            };
            let tx_result = tx();
            if tx_result.is_err() {
                // Unblock the reader, which would otherwise wait for
                // replies to requests that never left.
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            let rx_result = rx.join().expect("reader thread panicked");
            tx_result.and(rx_result).map(|got| (sent, got))
        })?;

        let mut out = PhaseOut {
            sent,
            replies: replies.len() as u64,
            elapsed_s: replies.iter().map(|r| r.3).max().unwrap_or(0) as f64 / 1e9,
            ..Default::default()
        };
        for &(i, status, sent_ns, at) in &replies {
            match status {
                Status::Committed => out.committed += 1,
                Status::Aborted => out.aborted += 1,
                Status::Rejected => out.rejected += 1,
            }
            if status != Status::Rejected {
                let due = due_ns.map_or(sent_ns, |d| d[i as usize]);
                out.from_due_ns.push(at.saturating_sub(due));
                out.from_send_ns.push(at.saturating_sub(sent_ns));
            }
        }
        if let Some(due) = due_ns {
            out.lateness_ns = send_at
                .iter()
                .zip(due)
                .map(|(s, d)| s.load(Ordering::Relaxed).saturating_sub(*d))
                .collect();
        }
        out.from_due_ns.sort_unstable();
        out.from_send_ns.sort_unstable();
        out.lateness_ns.sort_unstable();
        Ok(out)
    }

    /// Half-closes the connection so the server's reader sees EOF.
    pub fn close(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}
