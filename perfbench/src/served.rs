//! The served path: an in-process `mfu_serve::Server` on a loopback port
//! and one persistent client connection to it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;

use mfu_core::artifact::{BoundArtifact, BoundMethod};
use mfu_core::json::{self, Json};
use mfu_serve::server::Server;
use mfu_serve::service::{QueryService, ServiceOptions};

/// A running server with one client connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    server: JoinHandle<std::io::Result<()>>,
    service: Arc<QueryService>,
}

impl Connection {
    /// Starts a server over a fresh `QueryService` and connects to it.
    pub fn open(options: ServiceOptions) -> Result<Connection, String> {
        let server = Server::bind("127.0.0.1:0", QueryService::new(options))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let service = Arc::clone(server.service());
        let handle = std::thread::spawn(move || server.run());
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Connection {
            reader: BufReader::new(stream),
            writer,
            server: handle,
            service,
        })
    }

    /// The service behind the server, for in-process calls.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Sends one request line (ending in `\n`) and reads the response
    /// line into `response` (newline stripped).
    pub fn round_trip(&mut self, line: &str, response: &mut String) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        response.clear();
        let read = self
            .reader
            .read_line(response)
            .map_err(|e| format!("receive: {e}"))?;
        if read == 0 {
            return Err("server closed the connection".to_string());
        }
        response.truncate(response.trim_end().len());
        Ok(())
    }

    /// Asks the server to shut down and waits for its thread to end.
    pub fn close(mut self) -> Result<(), String> {
        let mut response = String::new();
        self.round_trip("{\"op\":\"shutdown\"}\n", &mut response)?;
        drop(self.writer);
        drop(self.reader);
        match self.server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// A bound request line for a registry scenario, newline-terminated.
pub fn request_line(scenario: &str, method: BoundMethod) -> String {
    format!(
        "{{\"op\":\"bound\",\"model\":\"{scenario}\",\"method\":\"{}\"}}\n",
        method.name()
    )
}

/// The answer of a bound query, floats by bit pattern so equality is
/// bit-identity. The cost's wall clock is left out; its work counts stay.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub lower: Vec<u64>,
    pub upper: Vec<u64>,
    pub truncated: bool,
    /// `[rk4_steps, jacobian_evals, sweeps, hull_vertex_evals]`.
    pub work: [u64; 4],
}

impl Answer {
    pub fn of(artifact: &BoundArtifact) -> Answer {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        let cost = &artifact.cost;
        Answer {
            lower: bits(&artifact.lower),
            upper: bits(&artifact.upper),
            truncated: artifact.truncated,
            work: [
                cost.rk4_steps,
                cost.jacobian_evals,
                cost.sweeps,
                cost.hull_vertex_evals,
            ],
        }
    }

    /// Every answer: finite, lower <= upper, not truncated, and inside
    /// `domain` when one applies.
    pub fn check(&self, domain: Option<(f64, f64)>) -> Result<(), String> {
        if self.truncated {
            return Err("answer is truncated".to_string());
        }
        for (&lo, &hi) in self.lower.iter().zip(&self.upper) {
            let (lo, hi) = (f64::from_bits(lo), f64::from_bits(hi));
            if !lo.is_finite() || !hi.is_finite() {
                return Err(format!("non-finite bound [{lo}, {hi}]"));
            }
            if lo > hi {
                return Err(format!("lower {lo} above upper {hi}"));
            }
            if let Some((min, max)) = domain {
                if lo < min || hi > max {
                    return Err(format!("[{lo}, {hi}] leaves the domain [{min}, {max}]"));
                }
            }
        }
        Ok(())
    }
}

/// A parsed bound response: the answer, or the service's error message.
pub type Outcome = Result<Answer, String>;

/// Decodes a bound response line.
pub fn parse_response(response: &str) -> Outcome {
    let doc = json::parse(response).map_err(|e| format!("bad response: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let message = doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no message");
        return Err(message.to_string());
    }
    let artifact = doc.get("artifact").ok_or("response has no artifact")?;
    Ok(Answer::of(&BoundArtifact::from_json(artifact)?))
}

/// The `"elapsed_ns"` field of a bound response: time spent inside
/// `QueryService::bound`.
pub fn elapsed_ns(response: &str) -> Option<f64> {
    let key = "\"elapsed_ns\":";
    let start = response.find(key)? + key.len();
    let end = start + response[start..].find([',', '}'])?;
    response[start..end].parse().ok()
}
