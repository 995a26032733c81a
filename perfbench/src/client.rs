//! A minimal blocking HTTP/1.1 client on one keep-alive connection, the
//! way a browser tab's `XMLHttpRequest` reuses its socket.

use ricsa_webfront::http::read_blocking_response;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection to the front end.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A completed exchange.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response bytes on the wire (status line, headers, body).
    pub wire_bytes: u64,
    /// Response body.
    pub body: Vec<u8>,
}

impl Conn {
    /// Connect to `addr`.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        let (status, wire_bytes, body) = read_blocking_response(&mut self.reader)?;
        Ok(Reply {
            status,
            wire_bytes,
            body,
        })
    }

    /// `GET path` (path includes the query string).
    pub fn get(&mut self, path: &str) -> std::io::Result<Reply> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.exchange(request.as_bytes())
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Reply> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.exchange(request.as_bytes())
    }
}
