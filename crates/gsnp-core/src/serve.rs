//! Minimal embedded HTTP stats endpoint (`gsnp call --stats-addr`).
//!
//! A single `std::net::TcpListener` accept loop on its own thread serves
//! three read-only routes from a shared [`ProgressTracker`]:
//!
//! * `/health` — JSON liveness probe (`{"status":"ok","done":...}`),
//! * `/progress` — the heartbeat snapshot as JSON,
//! * `/metrics` — Prometheus text exposition (progress gauges, per-lane
//!   series, latency histograms, build info).
//!
//! No dependencies beyond `std::net`: requests are parsed to the first
//! line of a `GET`, responses are complete `HTTP/1.1` messages with
//! `Connection: close`. This is deliberately the seed of the future
//! `gsnp serve` daemon (ROADMAP item 1) — the routing and exposition
//! grow there, the transport stays this simple.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::progress::ProgressTracker;

/// A running stats endpoint. Shuts down (and joins its thread) on
/// [`StatsServer::shutdown`] or drop.
pub struct StatsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port) and
    /// start serving `tracker` on a background thread.
    pub fn start(addr: &str, tracker: Arc<ProgressTracker>) -> std::io::Result<StatsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("gsnp-stats".to_string())
            .spawn(move || serve_loop(listener, tracker, stop2))
            .expect("spawn stats thread");
        Ok(StatsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock the accept loop, and join the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

fn serve_loop(listener: TcpListener, tracker: Arc<ProgressTracker>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if let Ok(stream) = stream {
            handle_conn(stream, &tracker);
        }
    }
}

fn handle_conn(mut stream: TcpStream, tracker: &Arc<ProgressTracker>) {
    // A slow or stuck client must not wedge the single-threaded loop.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let mut used = 0usize;
    // Read until the end of the request head (or the buffer fills; the
    // request line always fits in 1 KiB).
    while used < buf.len() {
        match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => {
                used += n;
                if buf[..used].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let mut first = head.lines().next().unwrap_or("").split(' ');
    let method = first.next().unwrap_or("");
    let path = first.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "application/json",
            "{\"error\":\"method not allowed\"}\n".to_string(),
        )
    } else {
        match path {
            "/health" => (
                "200 OK",
                "application/json",
                format!(
                    "{{\"status\":\"ok\",\"done\":{},\"elapsed_seconds\":{:.3}}}\n",
                    tracker.is_done(),
                    tracker.elapsed_seconds()
                ),
            ),
            "/progress" => (
                "200 OK",
                "application/json",
                tracker.progress().to_json() + "\n",
            ),
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                tracker.metrics().render_text(),
            ),
            _ => (
                "404 Not Found",
                "application/json",
                "{\"error\":\"not found\",\"routes\":[\"/health\",\"/progress\",\"/metrics\"]}\n"
                    .to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_health_progress_metrics_and_404() {
        let tracker = Arc::new(ProgressTracker::new());
        tracker.set_total_windows(4);
        tracker.on(&crate::stream::RunEvent::batch(0, 2, 2000, 0.01, false));
        let server = StatsServer::start("127.0.0.1:0", Arc::clone(&tracker)).unwrap();
        let addr = server.addr();

        let health = get(addr, "/health");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("\"done\":false"), "{health}");

        let progress = get(addr, "/progress");
        assert!(progress.contains("\"windows_done\":2"), "{progress}");
        let body = progress.split("\r\n\r\n").nth(1).unwrap().trim();
        gpu_sim::parse_json(body).expect("progress body is valid JSON");

        let metrics = get(addr, "/metrics");
        assert!(
            metrics.contains("# TYPE gsnp_window_seconds histogram"),
            "{metrics}"
        );
        assert!(metrics.contains("gsnp_build_info{"), "{metrics}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        tracker.finish();
        let health = get(addr, "/health");
        assert!(health.contains("\"done\":true"), "{health}");

        // shutdown joins the accept thread; reaching the next line
        // proves the loop exited cleanly.
        server.shutdown();
    }

    #[test]
    fn rejects_non_get() {
        let tracker = Arc::new(ProgressTracker::new());
        let server = StatsServer::start("127.0.0.1:0", tracker).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        server.shutdown();
    }
}
