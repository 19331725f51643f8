//! The serve tier as `omq-serve --listen` starts it, in process, and a
//! blocking loopback client for it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use omq_serve::{serve_reactor, EngineConfig, ReactorConfig, ShardedEngine};

pub struct Server {
    pub engine: Arc<ShardedEngine>,
    pub addr: SocketAddr,
}

/// Starts `ShardedEngine` (1 shard, no shedding) behind `serve_reactor`
/// on an ephemeral loopback port. The reactor never returns, so its
/// thread is left to run until the process exits.
pub fn start() -> io::Result<Server> {
    let engine = Arc::new(ShardedEngine::new(EngineConfig::default(), 1, 0));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let runtime = engine.runtime();
    let served = Arc::clone(&engine);
    std::thread::spawn(move || serve_reactor(served, listener, ReactorConfig::default(), runtime));
    Ok(Server { engine, addr })
}

/// One connection, one request in flight (closed loop).
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Sends `request` as a batch of one and returns its response line.
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        let mut frame = Vec::with_capacity(request.len() + 2);
        frame.extend_from_slice(request.as_bytes());
        frame.extend_from_slice(b"\n\n");
        self.writer.write_all(&frame)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// Sends `requests` as one batch and returns their response lines, in
    /// order (the engine answers a batch in request order).
    pub fn batch(&mut self, requests: &[&str]) -> io::Result<Vec<String>> {
        let mut frame = requests.join("\n").into_bytes();
        frame.extend_from_slice(b"\n\n");
        self.writer.write_all(&frame)?;
        let mut out = Vec::with_capacity(requests.len());
        for _ in requests {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            out.push(self.line.trim_end_matches('\n').to_owned());
        }
        Ok(out)
    }
}
