//! A keep-alive HTTP/1.1 client, just enough for the server's JSON
//! endpoints, plus field extraction from its one-line responses.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with Nagle off and a generous read timeout.
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One POST round trip: (status, body).
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// One GET round trip: (status, body).
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.writer
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The numeric token after `"field":` in a one-line JSON object,
/// starting the search at `from`. Returns (value, end offset).
pub fn number_after(body: &str, field: &str, from: usize) -> Option<(f64, usize)> {
    let pat = format!("\"{field}\":");
    let start = from + body.get(from..)?.find(&pat)? + pat.len();
    let rest = &body[start..];
    let skipped = rest.len() - rest.trim_start().len();
    let token: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    let end = start + skipped + token.len();
    token.parse().ok().map(|v| (v, end))
}

/// One prediction as the server reported it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Answer {
    /// `predicted_occupancy`, narrowed back to the f32 the server
    /// computed (the JSON carries it exactly).
    pub occupancy: f32,
    /// Served from a prediction cache.
    pub cached: bool,
}

/// Every prediction in a `/predict` or `/predict_batch` body, in
/// order. Item objects render their keys alphabetically, so `cached`
/// precedes `predicted_occupancy` within each item.
pub fn answers(body: &str) -> Vec<Answer> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(rel) = body[at..].find("\"cached\":") {
        let cached = body[at + rel..].starts_with("\"cached\":true");
        let Some((occ, end)) = number_after(body, "predicted_occupancy", at + rel) else {
            break;
        };
        out.push(Answer {
            occupancy: occ as f32,
            cached,
        });
        at = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_and_batch_bodies() {
        let one = r#"{"cached":true,"device":"a100","fingerprint":"ab","model":"LeNet","model_version":3,"predicted_occupancy":0.125,"tenant":"default"}"#;
        assert_eq!(
            answers(one),
            vec![Answer {
                occupancy: 0.125,
                cached: true
            }]
        );
        let many = r#"{"results":[{"cached":false,"model_version":1,"predicted_occupancy":0.5},{"cached":true,"model_version":2,"predicted_occupancy":1e-3}]}"#;
        let got = answers(many);
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[1],
            Answer {
                occupancy: 1e-3,
                cached: true
            }
        );
        assert!(answers("error: nope").is_empty());
    }
}
