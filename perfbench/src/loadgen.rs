//! HTTP load for the serve workload.
//!
//! [`open_loop`] sends request `j` at its due time `t0 + j / rate`,
//! whatever happened to earlier requests, and times it from that due time:
//! a server stall shows in the latency of every request that fell due
//! during it (no coordinated omission). A small pool of senders claims due
//! requests in order; when all of them are busy, the next request waits,
//! and that wait is part of its latency. How late each request left is
//! reported as the generator's own lateness.
//!
//! [`closed_loop`] keeps `workers` connections busy back to back and
//! reports how long a fixed number of requests took.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request's outcome, times in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the schedule.
    pub index: usize,
    /// Due time to response end.
    pub latency_us: f64,
    /// Due time to send start (0 when sent on time).
    pub late_us: f64,
    /// 200 with the expected body.
    pub ok: bool,
}

/// One blocking `GET` over a fresh connection (`Connection: close`, as the
/// server answers). Returns the status, the body and the connect time.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String, Duration)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect = start.elapsed();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let raw = String::from_utf8_lossy(&raw);
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string(), connect))
}

/// Sends `n` requests at `rate` per second from `workers` senders.
/// `path_of(j)` names request `j`; `check(j, body)` judges a 200 body.
pub fn open_loop<P, C>(
    addr: SocketAddr,
    n: usize,
    rate: f64,
    workers: usize,
    path_of: P,
    check: C,
) -> Vec<Sample>
where
    P: Fn(usize) -> String + Sync,
    C: Fn(usize, &str) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    // A short lead so every sender is up before the first request is due.
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // sync(next): a plain ticket counter, no data is published through it.
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= n {
                            break;
                        }
                        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ok = match http_get(addr, &path_of(j)) {
                            Ok((200, body, _)) => check(j, &body),
                            _ => false,
                        };
                        let done = Instant::now();
                        mine.push(Sample {
                            index: j,
                            latency_us: done.saturating_duration_since(due).as_secs_f64() * 1e6,
                            late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                            ok,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop sender panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

/// Runs requests `first..first + n` back to back on `workers` connections.
/// Returns the wall time and how many requests were not a 200 with the
/// expected body.
pub fn closed_loop<P, C>(
    addr: SocketAddr,
    first: usize,
    n: usize,
    workers: usize,
    path_of: P,
    check: C,
) -> (f64, usize)
where
    P: Fn(usize) -> String + Sync,
    C: Fn(usize, &str) -> bool + Sync,
{
    let next = AtomicUsize::new(first);
    let failed = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                // sync(next, failed): plain counters, no data is published through them.
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= first + n {
                    break;
                }
                let ok =
                    matches!(http_get(addr, &path_of(j)), Ok((200, body, _)) if check(j, &body));
                if !ok {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    (start.elapsed().as_secs_f64(), failed.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A one-thread server that answers `total` requests with `ok`, but
    /// stalls for `stall` before answering request number `stall_at`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
        total: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            for (i, conn) in listener.incoming().take(total).enumerate() {
                let Ok(stream) = conn else { continue };
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) && line != "\r\n"
                {
                    line.clear();
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let mut stream = reader.into_inner();
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_shows_in_every_request_due_during_it() {
        // 1000 requests/s for 0.6 s; the server stalls 300 ms at request
        // 100. About 300 requests fall due during the stall. Timed from
        // their due time, the first ~200 of them waited at least 100 ms;
        // a generator that timed from the send would show one slow request.
        let n = 600;
        let (addr, server) = stalling_server(100, Duration::from_millis(300), n);
        let samples = open_loop(
            addr,
            n,
            1000.0,
            1,
            |_| "/".to_string(),
            |_, body| body == "ok",
        );
        server.join().expect("test server panicked");
        assert_eq!(samples.len(), n);
        assert!(samples.iter().all(|s| s.ok));
        let slow = samples.iter().filter(|s| s.latency_us >= 100_000.0).count();
        assert!(slow >= 100, "only {slow} requests show the stall");
        let late = samples.iter().filter(|s| s.late_us >= 100_000.0).count();
        assert!(late >= 100, "the generator reports only {late} late sends");
    }
}
