//! Live exposition server: a dependency-free std-TCP HTTP
//! endpoint so a long-running sweep can be scraped mid-run.
//!
//! Three routes, all read-only:
//!
//! - `GET /metrics` — the [`MetricsSnapshot`](crate::MetricsSnapshot)
//!   in Prometheus text format v0.0.4,
//! - `GET /healthz` — liveness (`ok`),
//! - `GET /sweep`   — caller-defined JSON status of the running sweep.
//!
//! The server owns one background thread; each request is answered from
//! a caller-supplied closure evaluated at scrape time, so the process
//! under observation pays nothing between scrapes. The global
//! [`monitoring`] gate is the same one-relaxed-load discipline as
//! [`crate::enabled`] and [`crate::tracing`]: instrumentation that only
//! matters to a live monitor guards on it and the unmonitored hot path
//! costs a single relaxed load.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one connection may take to send its request head, in all.
/// The server has one thread, so this bounds how long any client can
/// keep `/metrics` unanswered and [`Monitor::shutdown`] waiting.
const HEAD_DEADLINE: Duration = Duration::from_millis(500);

/// Producer of one response body, evaluated per request.
pub type BodyFn = Arc<dyn Fn() -> String + Send + Sync>;

/// An extra read-only GET route: absolute path, content type, body
/// producer. Registered via [`Monitor::start_with`].
pub type Route = (String, &'static str, BodyFn);

/// Is a monitor endpoint live in this process? One relaxed load.
static MONITOR_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Is a [`Monitor`] serving? One relaxed load — the only cost
/// monitor-only instrumentation pays when unmonitored.
#[inline]
pub fn monitoring() -> bool {
    MONITOR_ACTIVE.load(Ordering::Relaxed)
}

/// A live exposition endpoint; dropping (or [`Monitor::shutdown`])
/// stops the server thread.
pub struct Monitor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor").field("addr", &self.addr).finish()
    }
}

impl Monitor {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve until shutdown. `metrics` feeds `/metrics`, `sweep` feeds
    /// `/sweep`.
    pub fn start(addr: &str, metrics: BodyFn, sweep: BodyFn) -> io::Result<Monitor> {
        Monitor::start_with(addr, metrics, sweep, Vec::new())
    }

    /// Like [`Monitor::start`] but with extra caller-defined GET routes
    /// (e.g. `/influence`) served alongside the built-in three.
    pub fn start_with(
        addr: &str,
        metrics: BodyFn,
        sweep: BodyFn,
        extra: Vec<Route>,
    ) -> io::Result<Monitor> {
        let listener = TcpListener::bind(addr)?;
        Monitor::serve(listener, metrics, sweep, extra)
    }

    /// Like [`Monitor::start_with`], but if `addr` is already in use,
    /// fall back to an ephemeral port on the same host instead of
    /// failing — a monitor is auxiliary and must never abort the sweep
    /// it observes. Callers read the real address via [`local_addr`].
    ///
    /// [`local_addr`]: Monitor::local_addr
    pub fn start_with_fallback(
        addr: &str,
        metrics: BodyFn,
        sweep: BodyFn,
        extra: Vec<Route>,
    ) -> io::Result<Monitor> {
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                let host = addr.rsplit_once(':').map(|(h, _)| h).unwrap_or("127.0.0.1");
                TcpListener::bind(format!("{host}:0"))?
            }
            Err(e) => return Err(e),
        };
        Monitor::serve(listener, metrics, sweep, extra)
    }

    fn serve(
        listener: TcpListener,
        metrics: BodyFn,
        sweep: BodyFn,
        extra: Vec<Route>,
    ) -> io::Result<Monitor> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        MONITOR_ACTIVE.store(true, Ordering::SeqCst);
        let handle = std::thread::Builder::new()
            .name("omptel-monitor".into())
            .spawn(move || {
                loop {
                    // Read the flag before accepting: a connection that
                    // was queued before shutdown is still answered, so
                    // a scraper never loses a race against a short run.
                    let stopping = stop_flag.load(Ordering::Relaxed);
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Per-request errors (client hangup, bad
                            // request) must never kill the server.
                            let _ = serve_one(stream, &metrics, &sweep, &extra);
                        }
                        Err(_) if stopping => break,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(Monitor {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the server thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        MONITOR_ACTIVE.store(false, Ordering::SeqCst);
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Answer one connection: parse the request line, route, respond, close.
/// The request head is read until a blank line, 2 KiB, end of stream or
/// [`HEAD_DEADLINE`] after accept — one deadline for the whole head, so a
/// client dribbling a byte at a time cannot renew it.
fn serve_one(
    mut stream: TcpStream,
    metrics: &BodyFn,
    sweep: &BodyFn,
    extra: &[Route],
) -> io::Result<()> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    // Read until the end of the request head (we ignore bodies).
    while len < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "GET only\n".into())
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                metrics(),
            ),
            "/healthz" => ("200 OK", "text/plain", "ok\n".into()),
            "/sweep" => ("200 OK", "application/json", sweep()),
            _ => match extra.iter().find(|(p, _, _)| p == path) {
                Some((_, content_type, body)) => ("200 OK", *content_type, body()),
                None => ("404 Not Found", "application/json", error_body(path, extra)),
            },
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// JSON error body for an unknown path: names every route this server
/// *does* serve, so a scraper pointed at a dead route — a typo, or
/// `/influence` on a sweep started with `--no-influence` — reads where
/// to go instead of a bare 404.
fn error_body(path: &str, extra: &[Route]) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut routes: Vec<String> = ["/metrics", "/healthz", "/sweep"]
        .iter()
        .map(|r| format!("\"{r}\""))
        .collect();
    routes.extend(extra.iter().map(|(p, _, _)| format!("\"{}\"", escape(p))));
    format!(
        "{{\"error\": \"no route {}\", \"routes\": [{}]}}\n",
        escape(path),
        routes.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to monitor");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("full response");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_and_404() {
        let monitor = Monitor::start(
            "127.0.0.1:0",
            Arc::new(|| "omptel_up 1\n".to_string()),
            Arc::new(|| "{\"state\":\"running\"}".to_string()),
        )
        .expect("bind localhost");
        assert!(monitoring());
        let addr = monitor.local_addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.contains("version=0.0.4"), "{head}");
        assert_eq!(body, "omptel_up 1\n");

        let (_, body) = get(addr, "/sweep");
        assert_eq!(body, "{\"state\":\"running\"}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");

        monitor.shutdown();
        assert!(!monitoring());
        assert!(TcpStream::connect(addr).is_err(), "server still listening");
    }

    #[test]
    fn extra_routes_are_served() {
        let monitor = Monitor::start_with(
            "127.0.0.1:0",
            Arc::new(String::new),
            Arc::new(String::new),
            vec![(
                "/influence".to_string(),
                "application/json",
                Arc::new(|| "{\"samples\":0}".to_string()) as BodyFn,
            )],
        )
        .expect("bind localhost");
        let addr = monitor.local_addr();
        let (head, body) = get(addr, "/influence");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert_eq!(body, "{\"samples\":0}");
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
    }

    #[test]
    fn unknown_routes_get_a_json_body_listing_live_routes() {
        let monitor = Monitor::start_with(
            "127.0.0.1:0",
            Arc::new(String::new),
            Arc::new(String::new),
            vec![(
                "/energy".to_string(),
                "application/json",
                Arc::new(|| "{}".to_string()) as BodyFn,
            )],
        )
        .expect("bind localhost");
        let addr = monitor.local_addr();
        // `/influence` was not registered (the `--no-influence` shape):
        // the 404 body must say what IS served, as JSON.
        let (head, body) = get(addr, "/influence");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"error\""), "{body}");
        assert!(body.contains("no route /influence"), "{body}");
        for route in ["/metrics", "/healthz", "/sweep", "/energy"] {
            assert!(body.contains(&format!("\"{route}\"")), "{body}");
        }
        // A path with a quote cannot break the JSON framing.
        let (_, body) = get(addr, "/x%22y\"z");
        assert!(body.contains("\\\""), "{body}");
    }

    #[test]
    fn busy_address_falls_back_to_ephemeral_port() {
        // Occupy a port, then ask the monitor for exactly that address.
        let squatter = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let busy = squatter.local_addr().unwrap();
        let monitor = Monitor::start_with_fallback(
            &busy.to_string(),
            Arc::new(String::new),
            Arc::new(String::new),
            Vec::new(),
        )
        .expect("fallback bind");
        let addr = monitor.local_addr();
        assert_ne!(addr.port(), busy.port(), "fallback reused the busy port");
        assert_eq!(addr.ip(), busy.ip());
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert_eq!(body, "ok\n");
    }

    #[test]
    fn connections_queued_before_shutdown_are_answered() {
        let monitor = Monitor::start(
            "127.0.0.1:0",
            Arc::new(String::new),
            Arc::new(|| "{\"state\":\"done\"}".to_string()),
        )
        .expect("bind localhost");
        let addr = monitor.local_addr();
        // Connected and asked, but the server may not have polled yet.
        let mut queued: Vec<TcpStream> = (0..3)
            .map(|_| {
                let mut s = TcpStream::connect(addr).expect("connect to monitor");
                s.write_all(b"GET /sweep HTTP/1.0\r\n\r\n").unwrap();
                s
            })
            .collect();
        monitor.shutdown();
        for s in &mut queued {
            let mut text = String::new();
            s.read_to_string(&mut text).unwrap();
            assert!(text.ends_with("{\"state\":\"done\"}"), "{text}");
        }
        assert!(TcpStream::connect(addr).is_err(), "server still listening");
    }

    /// Longest a misbehaving client may keep the server from others:
    /// the head deadline plus scheduling slack.
    const HELD_AT_MOST: Duration = Duration::from_secs(2);

    fn healthy() -> Monitor {
        Monitor::start("127.0.0.1:0", Arc::new(String::new), Arc::new(String::new))
            .expect("bind localhost")
    }

    /// Connect, let `client` misbehave, then read until the server is
    /// done with the connection. Returns how long that took from connect
    /// and what the server sent. A reset after a full response is the
    /// kernel's answer to request bytes the server never read, so it
    /// counts as the response it follows.
    fn misbehave(addr: SocketAddr, client: impl FnOnce(&mut TcpStream)) -> (Duration, Vec<u8>) {
        let start = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect to monitor");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client(&mut stream);
        let mut got = Vec::new();
        match stream.read_to_end(&mut got) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset && got.ends_with(b"\n") => {}
            Err(e) => panic!("no response and no clean close: {e} after {got:?}"),
        }
        (start.elapsed(), got)
    }

    /// Bounded, then a response or a clean close, then a live server.
    fn assert_let_go(addr: SocketAddr, case: &str, (held, got): (Duration, Vec<u8>)) {
        assert!(held < HELD_AT_MOST, "{case}: connection held {held:?}");
        assert!(
            got.is_empty() || got.starts_with(b"HTTP/1.0 "),
            "{case}: neither a response nor a clean close: {:?}",
            String::from_utf8_lossy(&got)
        );
        let (head, body) = get(addr, "/healthz");
        assert!(
            head.starts_with("HTTP/1.0 200") && body == "ok\n",
            "{case}: {head}"
        );
    }

    #[test]
    fn a_dribbling_client_cannot_hold_the_server() {
        let monitor = healthy();
        let addr = monitor.local_addr();
        // One byte every 100 ms for up to 4 s, never a blank line.
        let dribbler = std::thread::spawn(move || {
            misbehave(addr, |s| {
                for &b in b"GET /healthz HTTP/1.0\r\nX-Slow: 1234567890"
                    .iter()
                    .cycle()
                    .take(40)
                {
                    if s.write_all(&[b]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        });
        // Meanwhile a scrape is answered within the bound.
        std::thread::sleep(Duration::from_millis(150));
        let asked = Instant::now();
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(
            asked.elapsed() < HELD_AT_MOST,
            "scrape waited {:?}",
            asked.elapsed()
        );
        assert_let_go(addr, "dribble", dribbler.join().unwrap());
        let stopping = Instant::now();
        monitor.shutdown();
        assert!(stopping.elapsed() < HELD_AT_MOST);
    }

    #[test]
    fn oversized_unterminated_and_idle_heads_are_let_go() {
        let monitor = healthy();
        let addr = monitor.local_addr();
        // More than the 2 KiB head buffer, with no blank line in it.
        let oversized = misbehave(addr, |s| {
            let mut head = b"GET /healthz HTTP/1.0\r\nX-Pad: ".to_vec();
            head.resize(8192, b'a');
            s.write_all(&head).unwrap();
        });
        assert_let_go(addr, "oversized head", oversized);
        // A request line with no `\r\n\r\n`, then a half-close.
        let half_closed = misbehave(addr, |s| {
            s.write_all(b"GET /healthz HTTP/1.0\r\n").unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
        });
        assert!(
            half_closed.1.starts_with(b"HTTP/1.0 200"),
            "{half_closed:?}"
        );
        assert_let_go(addr, "half-closed head", half_closed);
        // Connected, silent, still open.
        let idle = misbehave(addr, |_| {});
        assert_let_go(addr, "idle connection", idle);
    }

    #[test]
    fn closures_are_evaluated_per_request() {
        use std::sync::atomic::AtomicU64;
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let monitor = Monitor::start(
            "127.0.0.1:0",
            Arc::new(move || format!("scrape {}\n", h.fetch_add(1, Ordering::SeqCst))),
            Arc::new(String::new),
        )
        .expect("bind localhost");
        let addr = monitor.local_addr();
        assert_eq!(get(addr, "/metrics").1, "scrape 0\n");
        assert_eq!(get(addr, "/metrics").1, "scrape 1\n");
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }
}
