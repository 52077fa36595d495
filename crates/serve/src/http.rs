//! Minimal HTTP/1.1 framing: request parsing with hard limits, response
//! writing with explicit `Content-Length`.
//!
//! The grammar accepted is the subset the serving layer needs:
//!
//! ```text
//! request  = method SP path SP "HTTP/1." ("0" | "1") CRLF *header CRLF [body]
//! method   = "GET" | "POST"
//! header   = name ":" OWS value CRLF          ; name is case-insensitive
//! body     = exactly Content-Length octets    ; chunked is rejected (501)
//! ```
//!
//! Every malformed, oversized, or truncated input maps to a typed
//! [`HttpError`] carrying a 4xx/5xx status — parsing never panics, and the
//! caller decides whether the connection survives. Limits are deliberately
//! small: this serves JSON control traffic, not uploads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request line plus all headers, in bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Hard cap on a request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Request methods the server understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Parsed method.
    pub method: Method,
    /// Request target, exactly as sent (no query parsing — none is needed).
    pub path: String,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be parsed. Each variant maps to a response
/// status via [`HttpError::status`]; `Closed` and `Idle` are connection
/// lifecycle conditions, not protocol errors.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The read timed out before any byte of a new request arrived (an
    /// idle keep-alive connection — poll shutdown and try again).
    Idle,
    /// The read timed out or hit EOF mid-request (slow or truncated peer).
    Truncated(&'static str),
    /// A non-timeout I/O failure.
    Io(std::io::Error),
    /// Malformed request line, header, or body framing.
    BadRequest(String),
    /// Request line + headers exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// Declared body length exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge(u64),
    /// A method other than GET/POST.
    UnsupportedMethod(String),
    /// An HTTP version other than 1.0/1.1.
    UnsupportedVersion(String),
    /// `Transfer-Encoding` framing this server does not implement.
    NotImplemented(&'static str),
}

impl HttpError {
    /// The response status this error maps to (`Closed`/`Idle` have none).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Closed | HttpError::Idle => None,
            HttpError::Truncated(_) => Some((408, "Request Timeout")),
            HttpError::Io(_) => None,
            HttpError::BadRequest(_) => Some((400, "Bad Request")),
            HttpError::HeadersTooLarge => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge(_) => Some((413, "Payload Too Large")),
            HttpError::UnsupportedMethod(_) => Some((405, "Method Not Allowed")),
            HttpError::UnsupportedVersion(_) => Some((505, "HTTP Version Not Supported")),
            HttpError::NotImplemented(_) => Some((501, "Not Implemented")),
        }
    }

    /// Human-readable detail for the JSON error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::Closed => "connection closed".into(),
            HttpError::Idle => "idle".into(),
            HttpError::Truncated(what) => format!("truncated {what}"),
            HttpError::Io(e) => format!("i/o: {e}"),
            HttpError::BadRequest(m) => m.clone(),
            HttpError::HeadersTooLarge => format!("headers exceed {MAX_HEADER_BYTES} bytes"),
            HttpError::BodyTooLarge(n) => format!("body of {n} bytes exceeds {MAX_BODY_BYTES}"),
            HttpError::UnsupportedMethod(m) => format!("method `{m}` not allowed"),
            HttpError::UnsupportedVersion(v) => format!("version `{v}` not supported"),
            HttpError::NotImplemented(what) => format!("{what} not implemented"),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one CRLF/LF-terminated line into `out` (terminator and trailing
/// `\r` stripped), charging its bytes against `budget`.
fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    budget: &mut usize,
    out: &mut Vec<u8>,
    started: &mut bool,
) -> Result<(), HttpError> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                return Err(if *started {
                    HttpError::Truncated("header")
                } else {
                    HttpError::Idle
                });
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if buf.is_empty() {
            return Err(if *started {
                HttpError::Truncated("header")
            } else {
                HttpError::Closed
            });
        }
        *started = true;
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let take = i + 1;
                if take > *budget {
                    return Err(HttpError::HeadersTooLarge);
                }
                *budget -= take;
                out.extend_from_slice(&buf[..i]);
                reader.consume(take);
                if out.last() == Some(&b'\r') {
                    out.pop();
                }
                return Ok(());
            }
            None => {
                let take = buf.len();
                if take > *budget {
                    return Err(HttpError::HeadersTooLarge);
                }
                *budget -= take;
                out.extend_from_slice(buf);
                reader.consume(take);
            }
        }
    }
}

fn parse_request_line(line: &[u8]) -> Result<(Method, String, bool), HttpError> {
    let text = std::str::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("request line is not UTF-8".into()))?;
    let mut parts = text.split_whitespace();
    let (Some(method), Some(path), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line `{}`",
            text.escape_default()
        )));
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other if other.chars().all(|c| c.is_ascii_uppercase()) => {
            return Err(HttpError::UnsupportedMethod(other.to_string()));
        }
        other => {
            return Err(HttpError::BadRequest(format!(
                "bad method `{}`",
                other.escape_default()
            )));
        }
    };
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::UnsupportedVersion(other.to_string())),
    };
    Ok((method, path.to_string(), keep_alive_default))
}

/// Reads and validates one request from a keep-alive connection.
///
/// The stream's read timeout doubles as the idle-poll tick: when no byte
/// of a new request has arrived yet, the timeout surfaces as
/// [`HttpError::Idle`] so the caller can check its shutdown flag and call
/// again; a timeout mid-request is a protocol error instead.
///
/// # Errors
///
/// See [`HttpError`]; parsing itself never panics.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, HttpError> {
    let mut budget = MAX_HEADER_BYTES;
    let mut started = false;
    let mut line = Vec::new();
    read_line_limited(reader, &mut budget, &mut line, &mut started)?;
    let (method, path, keep_alive_default) = parse_request_line(&line)?;

    let mut content_length: Option<u64> = None;
    let mut keep_alive = keep_alive_default;
    let mut expect_continue = false;
    loop {
        line.clear();
        read_line_limited(reader, &mut budget, &mut line, &mut started)?;
        if line.is_empty() {
            break;
        }
        let text = std::str::from_utf8(&line)
            .map_err(|_| HttpError::BadRequest("header is not UTF-8".into()))?;
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "header without `:`: `{}`",
                text.escape_default()
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad content-length `{value}`")))?;
                if let Some(prev) = content_length {
                    if prev != n {
                        return Err(HttpError::BadRequest(
                            "conflicting content-length headers".into(),
                        ));
                    }
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                return Err(HttpError::NotImplemented("transfer-encoding"));
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "expect" if value.eq_ignore_ascii_case("100-continue") => {
                expect_continue = true;
            }
            _ => {}
        }
    }

    let len = content_length.unwrap_or(0);
    if len > MAX_BODY_BYTES as u64 {
        return Err(HttpError::BodyTooLarge(len));
    }
    if expect_continue && len > 0 {
        // Unblock clients (e.g. curl) that wait for the interim response
        // before sending the body.
        let _ = reader.get_ref().write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
    }
    let mut body = vec![0u8; len as usize];
    if len > 0 {
        match reader.read_exact(&mut body) {
            Ok(()) => {}
            Err(e) if is_timeout(&e) => return Err(HttpError::Truncated("body")),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(HttpError::Truncated("body"));
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

/// Writes one JSON response with explicit framing headers.
///
/// The status line, headers and body are formatted into `buf` first and
/// handed to `out` in a single `write_all`, so an unbuffered socket sees
/// one write per response rather than one per format piece (each its own
/// segment under `TCP_NODELAY`). `buf` is cleared on entry; a caller that
/// keeps it across the requests on a connection pays for its allocation
/// once.
///
/// # Errors
///
/// Propagates the underlying write failure (the caller drops the
/// connection).
pub fn write_response(
    out: &mut impl Write,
    buf: &mut Vec<u8>,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    buf.clear();
    write!(
        buf,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )?;
    buf.extend_from_slice(body.as_bytes());
    out.write_all(buf)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts every byte and counts the `write` calls it took.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn written(status: u16, reason: &str, body: &str, keep_alive: bool) -> CountingWriter {
        let mut out = CountingWriter::default();
        let mut buf = Vec::new();
        write_response(&mut out, &mut buf, status, reason, body, keep_alive).unwrap();
        out
    }

    #[test]
    fn one_write_per_response_through_a_reused_buffer() {
        let mut out = CountingWriter::default();
        let mut buf = Vec::new();
        let body =
            r#"{"epoch":1,"raps":[14,21],"objective":1234.5,"covered_flows":3,"total_flows":4}"#;
        write_response(&mut out, &mut buf, 200, "OK", body, true).unwrap();
        assert_eq!(out.writes, 1);
        let first = out.bytes.len();
        write_response(&mut out, &mut buf, 404, "Not Found", "{}", false).unwrap();
        assert_eq!(out.writes, 2);
        assert_eq!(
            &out.bytes[first..],
            b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
              Content-Length: 2\r\nConnection: close\r\n\r\n{}"
        );
    }

    #[test]
    fn keep_alive_200_framing_is_unchanged() {
        let out = written(200, "OK", r#"{"status":"ok","epoch":1}"#, true);
        assert_eq!(
            out.bytes,
            b"HTTP/1.1 200 OK\r\n\
              Content-Type: application/json\r\n\
              Content-Length: 25\r\n\
              Connection: keep-alive\r\n\
              \r\n\
              {\"status\":\"ok\",\"epoch\":1}"
        );
    }

    #[test]
    fn closing_4xx_framing_is_unchanged() {
        let out = written(
            431,
            "Request Header Fields Too Large",
            r#"{"error":"headers exceed 8192 bytes"}"#,
            false,
        );
        assert_eq!(
            out.bytes,
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n\
              Content-Type: application/json\r\n\
              Content-Length: 37\r\n\
              Connection: close\r\n\
              \r\n\
              {\"error\":\"headers exceed 8192 bytes\"}"
        );
    }
}
