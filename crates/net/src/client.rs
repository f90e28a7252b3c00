//! A blocking shard client: one request frame out, one response frame
//! back, over a plain `TcpStream`.
//!
//! Strictly request→response: nothing pipelines, so the server's
//! connection threads run the same blocking frame loop from the other
//! end ([`crate::frame`]'s `read_frame`). Routers, tests, and the soak
//! harness call it like a function.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::frame::{read_frame, Request, Response};

/// A connected shard client.
pub struct ShardClient {
    stream: TcpStream,
    /// Reassembly buffer for responses that arrive across several reads.
    buf: Vec<u8>,
}

impl ShardClient {
    /// Connect to a shard server.
    pub fn connect(addr: SocketAddr) -> io::Result<ShardClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ShardClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// [`ShardClient::connect`] with retry — shard processes need a moment
    /// between `exec` and `bind`, so fabric startup polls.
    pub fn connect_retry(addr: SocketAddr, timeout: Duration) -> io::Result<ShardClient> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match ShardClient::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Send one request and block for its response. Wire-level decode
    /// failures surface as `InvalidData` errors carrying the typed
    /// [`crate::DecodeError`] message.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.call_raw(&request.encode())
    }

    /// Send raw bytes (not necessarily a valid frame) and read one
    /// response — the malformed-input tests use this to poke the server
    /// with garbage without the typed encoder getting in the way.
    pub fn call_raw(&mut self, bytes: &[u8]) -> io::Result<Response> {
        self.stream.write_all(bytes)?;
        read_frame(&mut self.stream, &mut self.buf, Response::decode)
    }
}
