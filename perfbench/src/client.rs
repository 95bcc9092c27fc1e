//! A single-threaded HTTP/1.1 load generator over keep-alive
//! connections.
//!
//! One thread writes every request and reads every reply. It sleeps in
//! `ppoll(2)` until either a connection is readable or the next request
//! is due, so no second thread competes with the server for the host's
//! cores. Requests pipeline: a connection takes the next request even
//! while earlier replies are outstanding, and replies are matched to
//! requests in order.
//!
//! Open-loop latency is timed from each request's *due* time, not from
//! when it was written, so a stall — in the server or in this generator
//! — shows on every request queued behind it.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x1;
const PR_SET_TIMERSLACK: i32 = 29;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

/// Parses one response off the front of `buf`; `Ok(None)` while
/// incomplete.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|e| e.to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    let mut etag = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header {line:?}"))?;
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => length = Some(value.parse::<usize>().map_err(|e| e.to_string())?),
            "etag" => etag = Some(value.to_owned()),
            _ => {}
        }
    }
    let length = length.ok_or("response without content-length")?;
    let end = head_end + 4 + length;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((
        Response {
            status,
            etag,
            body: buf[head_end + 4..end].to_vec(),
        },
        end,
    )))
}

/// A reply matched to the request it answers.
#[derive(Debug, Clone)]
pub struct Reply {
    pub index: usize,
    pub conn: usize,
    pub done_ns: u64,
    pub response: Response,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pending: VecDeque<usize>,
}

/// Keep-alive connections driven from one thread.
pub struct Client {
    conns: Vec<Conn>,
    origin: Instant,
}

impl Client {
    /// Opens `n` connections to `addr`. Also sets this thread's timer
    /// slack to 1 ns, so `ppoll` wakes when a request is due rather
    /// than up to the default 50 µs later.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Client> {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and
        // changes only the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
        let conns = (0..n)
            .map(|_| {
                let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    buf: Vec::with_capacity(64 * 1024),
                    pending: VecDeque::new(),
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Client {
            conns,
            origin: Instant::now(),
        })
    }

    pub fn conns(&self) -> usize {
        self.conns.len()
    }

    /// Nanoseconds since [`Client::reset_clock`] (or connect).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Restarts the clock due times are measured against.
    pub fn reset_clock(&mut self) {
        self.origin = Instant::now();
    }

    /// Requests written and not yet answered, over all connections.
    pub fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Writes request `index` on connection `conn`.
    pub fn send(&mut self, conn: usize, index: usize, bytes: &[u8]) -> io::Result<()> {
        let c = &mut self.conns[conn];
        let mut written = 0;
        while written < bytes.len() {
            match c.stream.write(&bytes[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        }
        c.pending.push_back(index);
        Ok(())
    }

    /// Waits up to `timeout_ns` for replies and hands every complete one
    /// to `on_reply`, stamped with the time `ppoll` returned.
    pub fn wait(&mut self, timeout_ns: u64, mut on_reply: impl FnMut(Reply)) -> io::Result<()> {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let timeout = Timespec {
            tv_sec: (timeout_ns / 1_000_000_000) as i64,
            tv_nsec: (timeout_ns % 1_000_000_000) as i64,
        };
        // SAFETY: `fds` is a live array of `fds.len()` pollfd structs and
        // `timeout` outlives the call; a null sigmask keeps the mask.
        let ready = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as u64,
                &timeout,
                std::ptr::null(),
            )
        };
        let done_ns = self.now_ns();
        if ready < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(err)
            };
        }
        let mut chunk = [0u8; 16 * 1024];
        for (conn, (c, fd)) in self.conns.iter_mut().zip(&fds).enumerate() {
            if fd.revents == 0 {
                continue;
            }
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                    Ok(n) => c.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            let mut consumed = 0;
            while let Some((response, used)) = parse_response(&c.buf[consumed..])
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?
            {
                consumed += used;
                let index = c.pending.pop_front().ok_or_else(|| {
                    io::Error::new(ErrorKind::InvalidData, "reply without a request")
                })?;
                on_reply(Reply {
                    index,
                    conn,
                    done_ns,
                    response,
                });
            }
            c.buf.drain(..consumed);
        }
        Ok(())
    }
}

/// What an open-loop phase observed.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// When each request was written, ns since the phase started.
    pub sent_ns: Vec<u64>,
    /// When each reply arrived; `None` if it never did.
    pub done_ns: Vec<Option<u64>>,
    /// Most requests outstanding at once.
    pub backlog_max: usize,
    /// Requests still unanswered at the drain deadline.
    pub timed_out: usize,
}

impl OpenLoop {
    /// Latency of each answered request from its due time, ns.
    pub fn latency_from_due_ns(&self, due_ns: &[u64]) -> Vec<Option<u64>> {
        self.done_ns
            .iter()
            .zip(due_ns)
            .map(|(done, due)| done.map(|d| d.saturating_sub(*due)))
            .collect()
    }
}

/// Sends request `i` on connection `conn_of[i]` at `due_ns[i]` (sorted,
/// ns since the phase starts), whatever is outstanding, then waits up to
/// `drain_ns` for the last replies. `make(i)` builds the bytes at send
/// time; `on_reply` sees every reply; `tick` runs after every wake-up.
pub fn open_loop(
    client: &mut Client,
    due_ns: &[u64],
    conn_of: &[usize],
    drain_ns: u64,
    mut make: impl FnMut(usize) -> Vec<u8>,
    mut on_reply: impl FnMut(&Reply),
    mut tick: impl FnMut(),
) -> io::Result<OpenLoop> {
    let mut run = OpenLoop {
        sent_ns: vec![0; due_ns.len()],
        done_ns: vec![None; due_ns.len()],
        ..OpenLoop::default()
    };
    client.reset_clock();
    let mut next = 0;
    let mut drain_deadline = None;
    loop {
        let now = client.now_ns();
        while next < due_ns.len() && due_ns[next] <= now {
            let bytes = make(next);
            client.send(conn_of[next], next, &bytes)?;
            run.sent_ns[next] = client.now_ns();
            next += 1;
            run.backlog_max = run.backlog_max.max(client.outstanding());
        }
        let timeout = if next < due_ns.len() {
            due_ns[next] - now.min(due_ns[next])
        } else {
            if client.outstanding() == 0 {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(now + drain_ns);
            if now >= deadline {
                run.timed_out = client.outstanding();
                break;
            }
            deadline - now
        };
        let done = &mut run.done_ns;
        client.wait(timeout, |reply| {
            done[reply.index] = Some(reply.done_ns);
            on_reply(&reply);
        })?;
        tick();
    }
    Ok(run)
}

/// What a closed-loop phase observed.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Requests written.
    pub sent: usize,
    /// Requests still unanswered at the drain deadline.
    pub timed_out: usize,
}

/// Keeps one request outstanding per connection for `duration_ns`: each
/// reply releases the next request on its connection. Then waits up to
/// `drain_ns` for the last replies. `make(i, conn)` builds request `i`
/// for connection `conn` at send time.
pub fn closed_loop(
    client: &mut Client,
    duration_ns: u64,
    drain_ns: u64,
    mut make: impl FnMut(usize, usize) -> Vec<u8>,
    mut on_reply: impl FnMut(&Reply),
    mut tick: impl FnMut(),
) -> io::Result<ClosedLoop> {
    let mut run = ClosedLoop::default();
    client.reset_clock();
    for conn in 0..client.conns() {
        client.send(conn, run.sent, &make(run.sent, conn))?;
        run.sent += 1;
    }
    let mut released: Vec<usize> = Vec::new();
    loop {
        let now = client.now_ns();
        let deadline = if now < duration_ns {
            duration_ns
        } else {
            if client.outstanding() == 0 {
                break;
            }
            if now >= duration_ns + drain_ns {
                run.timed_out = client.outstanding();
                break;
            }
            duration_ns + drain_ns
        };
        client.wait(deadline - now, |reply| {
            if reply.done_ns < duration_ns {
                released.push(reply.conn);
            }
            on_reply(&reply);
        })?;
        tick();
        for conn in released.drain(..) {
            client.send(conn, run.sent, &make(run.sent, conn))?;
            run.sent += 1;
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn parses_pipelined_responses_and_waits_for_whole_bodies() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\netag: \"sp-3\"\r\n\r\nokHTTP/1.1 404 Not Found\r\ncontent-length: 4\r\n\r\nmi";
        let (first, used) = parse_response(wire).unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.etag.as_deref(), Some("\"sp-3\""));
        assert_eq!(first.body, b"ok");
        assert_eq!(
            parse_response(&wire[used..]).unwrap(),
            None,
            "body incomplete"
        );
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    /// A keep-alive server on `conns` connections, answering the `i`-th
    /// request it reads (over all connections) after `delay(i)`. The
    /// thread ends once every connection has closed.
    fn stalling_server(
        conns: usize,
        delay: fn(usize) -> Duration,
    ) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = std::sync::atomic::AtomicUsize::new(0);
        let handle = thread::spawn(move || {
            thread::scope(|scope| {
                for _ in 0..conns {
                    let (mut stream, _) = listener.accept().unwrap();
                    stream.set_nodelay(true).unwrap();
                    let served = &served;
                    scope.spawn(move || {
                        let mut buf = Vec::new();
                        let mut chunk = [0u8; 4096];
                        loop {
                            while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                                buf.drain(..end + 4);
                                let i = served.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                                thread::sleep(delay(i));
                                let reply = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
                                if stream.write_all(reply).is_err() {
                                    return;
                                }
                            }
                            match stream.read(&mut chunk) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                            }
                        }
                    });
                }
            });
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_shows_on_the_requests_queued_behind_it() {
        const STALLED: usize = 10;
        const STALL: Duration = Duration::from_millis(40);
        let (addr, server) =
            stalling_server(1, |i| if i == STALLED { STALL } else { Duration::ZERO });
        let mut client = Client::connect(addr, 1).unwrap();
        // One request every 2 ms; the server stalls 40 ms on request 10.
        let due: Vec<u64> = (0..40u64).map(|i| i * 2_000_000).collect();
        let conn_of = vec![0; due.len()];
        let run = open_loop(
            &mut client,
            &due,
            &conn_of,
            1_000_000_000,
            |_| b"GET / HTTP/1.1\r\n\r\n".to_vec(),
            |_| {},
            || {},
        )
        .unwrap();
        assert!(run.done_ns.iter().all(Option::is_some));
        assert_eq!(run.timed_out, 0);
        let latency = run.latency_from_due_ns(&due);
        let ms = |i: usize| latency[i].unwrap() as f64 / 1e6;
        // The open-loop generator kept sending through the stall, so the
        // requests due during it were queued behind request 10…
        assert!(run.backlog_max >= 15, "backlog {}", run.backlog_max);
        // …and each waited for the stall's remainder: from its due time,
        // request 10 + k waited about 40 − 2k ms.
        for k in 0..15 {
            let expected = 40.0 - 2.0 * k as f64;
            assert!(
                ms(STALLED + k) >= expected - 1.0,
                "request {} waited {:.1} ms, expected ≥ {expected}",
                STALLED + k,
                ms(STALLED + k)
            );
        }
        // Requests before the stall and well after it are fast.
        assert!(ms(STALLED - 1) < 5.0, "{}", ms(STALLED - 1));
        assert!(ms(39) < 5.0, "{}", ms(39));
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn a_generator_stall_counts_against_the_requests_it_delayed() {
        let (addr, server) = stalling_server(2, |_| Duration::ZERO);
        let mut client = Client::connect(addr, 2).unwrap();
        let due: Vec<u64> = (0..30u64).map(|i| i * 2_000_000).collect();
        let conn_of: Vec<usize> = (0..due.len()).map(|i| i % 2).collect();
        let mut wakeups = 0;
        let run = open_loop(
            &mut client,
            &due,
            &conn_of,
            1_000_000_000,
            |_| b"GET / HTTP/1.1\r\n\r\n".to_vec(),
            |_| {},
            || {
                wakeups += 1;
                // The generator itself stalls once, early in the phase.
                if wakeups == 3 {
                    thread::sleep(Duration::from_millis(30));
                }
            },
        )
        .unwrap();
        assert!(run.done_ns.iter().all(Option::is_some));
        let latency = run.latency_from_due_ns(&due);
        let stalled: Vec<usize> = (0..due.len())
            .filter(|&i| run.sent_ns[i] - due[i] > 10_000_000)
            .collect();
        assert!(stalled.len() >= 5, "requests sent late: {stalled:?}");
        for &i in &stalled {
            let from_due = latency[i].unwrap();
            let from_send = from_due - (run.sent_ns[i] - due[i]);
            // From the due time the stall shows; from the write it hides.
            assert!(from_due > 10_000_000, "request {i}: {from_due} ns");
            assert!(from_send < from_due / 2, "request {i}: {from_send} ns");
        }
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn a_closed_loop_keeps_one_request_in_flight_per_connection() {
        let (addr, server) = stalling_server(2, |_| Duration::from_micros(200));
        let mut client = Client::connect(addr, 2).unwrap();
        let in_flight = std::cell::RefCell::new([0usize; 2]);
        let mut replies = 0;
        let run = closed_loop(
            &mut client,
            50_000_000,
            1_000_000_000,
            |_, conn| {
                let mut in_flight = in_flight.borrow_mut();
                in_flight[conn] += 1;
                assert_eq!(in_flight[conn], 1, "connection {conn} pipelined");
                b"GET / HTTP/1.1\r\n\r\n".to_vec()
            },
            |reply| {
                in_flight.borrow_mut()[reply.conn] -= 1;
                replies += 1;
            },
            || {},
        )
        .unwrap();
        assert_eq!(run.timed_out, 0);
        assert_eq!(replies, run.sent);
        assert!(run.sent > 20, "only {} requests in 50 ms", run.sent);
        drop(client);
        server.join().unwrap();
    }
}
