//! A minimal HTTP/1.1 client for driving `carta-server` over loopback:
//! one `write_all` per request (so the client adds no small-write
//! stalls of its own), `TCP_NODELAY`, `Content-Length` framing, and
//! keep-alive or `connection: close` per request.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Bound on any single socket read or write: a stuck server fails the
/// operation instead of hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body, as text.
    pub body: String,
    /// Whether the server closes the connection after this response.
    pub close: bool,
}

/// A complete request, ready for one `write_all`.
pub fn request_bytes(
    method: &str,
    path: &str,
    tenant: Option<&str>,
    close: bool,
    body: &str,
) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: carta\r\n");
    if let Some(tenant) = tenant {
        head.push_str(&format!("x-carta-tenant: {tenant}\r\n"));
    }
    if close {
        head.push_str("connection: close\r\n");
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option failures.
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    /// Sends one request and reads its response up to the last body byte.
    ///
    /// # Errors
    ///
    /// Transport failures and unparsable responses.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.reader.get_mut().write_all(request)?;
        read_reply(&mut self.reader)
    }
}

/// One request on a fresh connection that is closed afterwards.
///
/// # Errors
///
/// Transport failures and unparsable responses.
pub fn one_shot(addr: &str, request: &[u8]) -> io::Result<Reply> {
    Conn::open(addr)?.exchange(request)
}

fn bad(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<Reply> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut length = None;
    let mut close = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("headers truncated".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length".into()))?;
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body".into()))?;
    Ok(Reply {
        status,
        body,
        close,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn parses_a_framed_response_and_leaves_the_rest() {
        let raw = "HTTP/1.1 201 Created\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}HTTP";
        let mut reader = BufReader::new(raw.as_bytes());
        let reply = read_reply(&mut reader).expect("parses");
        assert_eq!(reply.status, 201);
        assert_eq!(reply.body, "{}");
        assert!(reply.close);
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("rest");
        assert_eq!(rest, "HTTP");
    }

    #[test]
    fn request_is_one_buffer_with_length() {
        let bytes = request_bytes("POST", "/v1/requests", Some("t"), true, "abc");
        let text = String::from_utf8(bytes).expect("utf-8");
        assert!(text.starts_with("POST /v1/requests HTTP/1.1\r\n"));
        assert!(text.contains("x-carta-tenant: t\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("content-length: 3\r\n\r\nabc"));
    }
}
