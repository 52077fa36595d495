//! The benchmark's own HTTP/1.1 client: one keep-alive `TcpStream` that
//! reconnects when the server announces `Connection: close`.
//!
//! It depends on nothing in `rap-serve`, so a change to the server's own
//! client cannot move the serve numbers.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Largest response body the client accepts.
const MAX_BODY: usize = 1 << 20;

pub struct RawClient {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    request: Vec<u8>,
    line: String,
    /// Connections opened, including the first.
    pub connects: u64,
}

/// Status and body of one response.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl RawClient {
    pub fn new(addr: SocketAddr) -> RawClient {
        RawClient {
            addr,
            conn: None,
            request: Vec::with_capacity(512),
            line: String::new(),
            connects: 0,
        }
    }

    /// Sends one request and reads its response. A transport error drops
    /// the connection; the next request opens a new one.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
            self.connects += 1;
        }
        let conn = self.conn.as_mut().expect("connected above");
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        conn.get_mut().write_all(&self.request)?;

        self.line.clear();
        conn.read_line(&mut self.line)?;
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {:?}", self.line)))?;
        let mut length = None;
        let mut close = false;
        loop {
            self.line.clear();
            if conn.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the headers".into()));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header
                .split_once(':')
                .ok_or_else(|| bad(format!("bad header {header:?}")))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length
            .filter(|&n| n <= MAX_BODY)
            .ok_or_else(|| bad("missing or oversized content-length".into()))?;
        let mut body = vec![0; length];
        conn.read_exact(&mut body)?;
        if close {
            self.conn = None;
        }
        Ok(Response { status, body })
    }
}

fn bad(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}
