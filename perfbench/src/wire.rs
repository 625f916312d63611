//! A minimal blocking HTTP/1.1 client: one keep-alive connection, one
//! request at a time, Content-Length framing (all this server emits).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response as the client saw it.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Conn {
    /// Connect to `addr` with `TCP_NODELAY` and a generous read timeout.
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send one complete request and read its response.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 16 * 1024];
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill(&mut chunk)?;
        };
        let head = std::str::from_utf8(&self.buf[..header_end]).map_err(bad)?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < header_end + length {
            self.fill(&mut chunk)?;
        }
        let body =
            String::from_utf8(self.buf[header_end..header_end + length].to_vec()).map_err(bad)?;
        self.buf.drain(..header_end + length);
        Ok(Reply { status, body })
    }

    fn fill(&mut self, chunk: &mut [u8]) -> std::io::Result<()> {
        let n = self.stream.read(chunk)?;
        if n == 0 {
            return Err(bad("server closed the connection mid-response"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn bad(e: impl ToString) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// `POST path` with a JSON body, as request bytes.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `GET path` as request bytes.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").into_bytes()
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `epoch` and `served_from` fields of a `/relax` envelope
/// (`{"epoch":E,"served_from":"...","result":{...}}`).
pub fn envelope(body: &str) -> Option<(u64, &str)> {
    let rest = body.strip_prefix("{\"epoch\":")?;
    let (epoch, rest) = rest.split_once(',')?;
    let rest = rest.strip_prefix("\"served_from\":\"")?;
    let (served_from, _) = rest.split_once('"')?;
    Some((epoch.parse().ok()?, served_from))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_reads_epoch_and_provenance() {
        let body = r#"{"epoch":3,"served_from":"cache","result":{"query_concept":1}}"#;
        assert_eq!(envelope(body), Some((3, "cache")));
        assert_eq!(envelope(r#"{"error":"x"}"#), None);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_string("tab\t"), r#""tab\u0009""#);
    }

    #[test]
    fn post_frames_the_body() {
        let req = String::from_utf8(post("/relax", "{}")).unwrap();
        assert!(req.starts_with("POST /relax HTTP/1.1\r\n"));
        assert!(req.contains("content-length: 2\r\n"));
        assert!(req.ends_with("\r\n\r\n{}"));
    }
}
