//! Load generators: closed loop, open loop (timed from each request's due
//! time), a windowed `/v1/annotate_stream` upload, and small HTTP helpers.
//! Each generator runs at most one thread per connection.

use doduo_served::http::{Client, Response};
use doduo_served::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client read timeout: a request that takes longer counts as failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One request as the generator saw it.
#[derive(Clone, Debug)]
pub struct Timed<R> {
    /// Position in the request sequence (index into the schedule or the
    /// closed loop's draw order).
    pub i: usize,
    /// When the request was due: its scheduled time in an open loop, the
    /// moment its connection became free in a closed loop.
    pub due: Instant,
    /// When its connection became free to take it.
    pub free: Instant,
    /// When its first byte was written.
    pub sent: Instant,
    /// When its response was complete.
    pub done: Instant,
    /// What the request returned.
    pub result: R,
}

impl<R> Timed<R> {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// Send time minus due time, in ms: the generator's lateness plus any
    /// wait for a free connection.
    pub fn send_delay_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// The generator's own lateness, in ms: send time minus the later of
    /// the due time and the moment a connection was free. Waiting for a
    /// busy connection is the system's delay and is not counted here.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due.max(self.free)).as_secs_f64() * 1e3
    }
}

/// Open loop: request `i` is due at `start + schedule[i]`, whatever the
/// system did with earlier requests. `conns` threads each own a connection
/// made by `connect` and take the next due request when free, so a
/// stalled response delays the requests queued behind it and that delay
/// counts in their latency.
pub fn open_loop<C, R: Send>(
    schedule: &[Duration],
    conns: usize,
    connect: impl Fn() -> C + Sync,
    send: impl Fn(&mut C, usize) -> R + Sync,
) -> Vec<Timed<R>> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut conn = connect();
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(offset) = schedule.get(i) else { break };
                    let due = start + *offset;
                    let free = Instant::now();
                    if let Some(wait) = due.checked_duration_since(free) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let result = send(&mut conn, i);
                    mine.push(Timed { i, due, free, sent, done: Instant::now(), result });
                }
                out.lock().expect("sample lock").extend(mine);
            });
        }
    });
    let mut v = out.into_inner().expect("sample lock");
    v.sort_by_key(|t| t.i);
    v
}

/// Closed loop: `conns` threads send back to back until `dur` has passed.
/// Returns every request and the seconds from start to the last response.
pub fn closed_loop<C, R: Send>(
    conns: usize,
    dur: Duration,
    connect: impl Fn() -> C + Sync,
    send: impl Fn(&mut C, usize) -> R + Sync,
) -> (Vec<Timed<R>>, f64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let stop = start + dur;
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut conn = connect();
                let mut mine = Vec::new();
                while Instant::now() < stop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let sent = Instant::now();
                    let result = send(&mut conn, i);
                    let t = Timed { i, due: sent, free: sent, sent, done: Instant::now(), result };
                    mine.push(t);
                }
                out.lock().expect("sample lock").extend(mine);
            });
        }
    });
    let mut v = out.into_inner().expect("sample lock");
    v.sort_by_key(|t| t.i);
    let end = v.iter().map(|t| t.done).max().unwrap_or(start);
    (v, (end - start).as_secs_f64())
}

/// What one request returned, as the benchmark checks it.
#[derive(Clone, Debug)]
pub struct Reply {
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// The `x-model-version` header.
    pub version: Option<String>,
    /// Whether the body matched the offline reference for that version.
    pub correct: bool,
}

impl Reply {
    /// 200 with a body equal to the reference.
    pub fn ok(&self) -> bool {
        self.status == 200 && self.correct
    }
}

/// A keep-alive connection that re-dials after a transport error.
pub struct Conn {
    addr: String,
    client: Option<Client>,
}

impl Conn {
    /// A connection to `addr`, dialed lazily.
    pub fn new(addr: &str) -> Conn {
        Conn { addr: addr.to_string(), client: None }
    }

    /// Sends one request; a transport error drops the connection (the next
    /// request re-dials) and is returned as the error.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        if self.client.is_none() {
            self.client = Some(Client::connect(&self.addr, Some(CLIENT_TIMEOUT))?);
        }
        let r = self.client.as_mut().expect("dialed above").request(method, path, body);
        if r.is_err() {
            self.client = None;
        }
        r
    }

    /// POSTs `body` to `/v1/annotate` and checks the reply with
    /// `check(version, body)`.
    pub fn annotate(&mut self, body: &str, check: impl Fn(Option<&str>, &[u8]) -> bool) -> Reply {
        match self.request("POST", "/v1/annotate", body.as_bytes()) {
            Ok(r) => Reply {
                status: r.status,
                correct: r.status == 200 && check(r.model_version.as_deref(), &r.body),
                version: r.model_version,
            },
            Err(_) => Reply { status: 0, version: None, correct: false },
        }
    }
}

/// One windowed `/v1/annotate_stream` upload.
pub struct StreamRun {
    /// Result lines, in table order.
    pub lines: Vec<String>,
    /// Per table: when its document was written.
    pub sent: Vec<Instant>,
    /// Per table: when its result line arrived.
    pub recv: Vec<Instant>,
    /// Seconds from the first send to the last result.
    pub secs: f64,
}

/// Streams `docs` in order down one connection with at most `window`
/// tables in flight, stopping new sends once `dur` has passed, then
/// drains every outstanding result.
pub fn stream(addr: &str, docs: &[String], window: usize, dur: Duration) -> StreamRun {
    let mut run = StreamRun { lines: Vec::new(), sent: Vec::new(), recv: Vec::new(), secs: 0.0 };
    let start = Instant::now();
    // A broken stream ends early; its unanswered tables are the failures.
    let _ = stream_into(addr, docs, window, start + dur, &mut run);
    run.secs = run.recv.last().map_or(0.0, |t| (*t - start).as_secs_f64());
    run
}

fn stream_into(
    addr: &str,
    docs: &[String],
    window: usize,
    stop: Instant,
    run: &mut StreamRun,
) -> std::io::Result<()> {
    let mut c = Client::connect(addr, Some(CLIENT_TIMEOUT))?;
    c.stream_open("/v1/annotate_stream")?;
    let mut finished = false;
    let mut doc = String::new();
    loop {
        while !finished && run.sent.len() - run.lines.len() < window {
            let i = run.sent.len();
            if i == docs.len() || Instant::now() >= stop {
                c.stream_finish()?;
                finished = true;
                break;
            }
            doc.clear();
            doc.push_str(&docs[i]);
            doc.push('\n');
            run.sent.push(Instant::now());
            c.stream_send(doc.as_bytes())?;
            if run.sent.len() == 1 && c.stream_status()? != 200 {
                return Ok(());
            }
        }
        if finished && run.lines.len() == run.sent.len() {
            return Ok(());
        }
        match c.stream_next_line()? {
            Some(line) => {
                run.recv.push(Instant::now());
                run.lines.push(line);
            }
            None => return Ok(()),
        }
    }
}

/// `GET path` on a fresh connection, parsed as JSON.
pub fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    let mut c = Client::connect(addr, Some(CLIENT_TIMEOUT)).map_err(|e| e.to_string())?;
    let r = c.request("GET", path, b"").map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("GET {path}: HTTP {}", r.status));
    }
    Json::parse(std::str::from_utf8(&r.body).map_err(|e| e.to_string())?.trim())
}

/// A number at `path` (dot-separated keys) inside a JSON document.
pub fn num(v: &Json, path: &str) -> f64 {
    path.split('.').try_fold(v, |v, k| v.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Polls `GET /v1/readyz` on `addr` until it answers 200.
pub fn wait_ready(addr: &str, within: Duration) -> Result<(), String> {
    let deadline = Instant::now() + within;
    loop {
        let ok = Client::connect(addr, Some(CLIENT_TIMEOUT))
            .and_then(|mut c| c.request("GET", "/v1/readyz", b""))
            .is_ok_and(|r| r.status == 200);
        if ok {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_time() {
        // One connection, a request due every 10 ms, and the first response
        // stalls for 60 ms: the requests behind it are sent late, and their
        // latency counts the wait from when they were due.
        let schedule: Vec<Duration> = (0..4).map(|i| Duration::from_millis(10 * i)).collect();
        let out = open_loop(
            &schedule,
            1,
            || (),
            |_, i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(60));
                }
            },
        );
        assert_eq!(out.len(), 4);
        assert!(out[0].latency_ms() >= 60.0);
        // Request 1 was due at 10 ms and could only go out at ~60 ms.
        assert!(out[1].latency_ms() >= 45.0, "{}", out[1].latency_ms());
        assert!(out[1].sent >= out[0].done);
        // That wait was the system's, not the generator's.
        assert!(out[1].lag_ms() < 5.0, "lag {}", out[1].lag_ms());
        assert!((out[1].sent - out[1].due).as_secs_f64() * 1e3 >= 45.0);
    }

    #[test]
    fn open_loop_keeps_the_schedule_when_the_system_keeps_up() {
        let schedule: Vec<Duration> = (0..5).map(|i| Duration::from_millis(20 * i)).collect();
        let out = open_loop(&schedule, 2, || (), |_, _| ());
        for (t, offset) in out.iter().zip(&schedule) {
            assert!(t.sent >= t.due, "never sent early");
            assert!(t.latency_ms() < 10.0);
            let _ = offset;
        }
        let gap = (out[4].due - out[0].due).as_secs_f64() * 1e3;
        assert!((gap - 80.0).abs() < 1e-6);
    }

    #[test]
    fn closed_loop_sends_back_to_back() {
        let (out, secs) = closed_loop(
            2,
            Duration::from_millis(30),
            || (),
            |_, _| {
                std::thread::sleep(Duration::from_millis(5));
            },
        );
        assert!(out.len() >= 6, "{} requests", out.len());
        assert!(secs >= 0.03);
        assert!(out.iter().enumerate().all(|(k, t)| t.i == k));
    }
}
