//! The load driver: one generator thread, at most two TCP connections,
//! framed with the public codec and polled by the generator itself.
//!
//! `LiveClient` is not used on purpose. Its TCP `recv(timeout)` blocks
//! until the socket's fixed read timeout, past the timeout it was given,
//! so an open-loop schedule would run late; and its pipelined search is
//! blocking, so one thread could not keep two connections busy.

use bytes::BytesMut;
use gis_core::reactor::{Event, Poller};
use gis_proto::frame::{encode_frame, FrameDecoder};
use gis_proto::{GripReply, GripRequest, GrrpMessage, ProtocolMessage, TraceContext};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Bytes after which an idle decoder is replaced (see [`Driver::poll`]).
const DECODER_RECYCLE: usize = 4 << 20;

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Encoded frames not yet accepted by the socket.
    out: Vec<u8>,
    /// Bytes fed to `dec` since it was last replaced.
    fed: usize,
    /// Write interest is registered (the socket pushed back).
    want_write: bool,
    next_id: u64,
}

/// A decoded reply and the connection it came in on.
pub struct Inbound {
    pub conn: usize,
    pub reply: GripReply,
}

pub struct Driver {
    poller: Poller,
    conns: Vec<Conn>,
    events: Vec<Event>,
    scratch: Vec<u8>,
    ebuf: BytesMut,
}

impl Driver {
    /// Open `conns` connections to `addr`.
    pub fn connect(addr: SocketAddr, conns: usize) -> io::Result<Driver> {
        let poller = Poller::new()?;
        let mut out = Vec::with_capacity(conns);
        for token in 0..conns {
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.add(stream.as_raw_fd(), token as u64, true, false)?;
            out.push(Conn {
                stream,
                dec: FrameDecoder::new(),
                fed: 0,
                out: Vec::new(),
                want_write: false,
                next_id: 1,
            });
        }
        Ok(Driver {
            poller,
            conns: out,
            events: Vec::new(),
            scratch: vec![0; 256 * 1024],
            ebuf: BytesMut::new(),
        })
    }

    pub fn conns(&self) -> usize {
        self.conns.len()
    }

    /// Queue a search on `conn`; returns its request id. Bytes leave on
    /// the next [`flush`](Self::flush), so a burst of requests is one
    /// write.
    pub fn search(
        &mut self,
        conn: usize,
        spec: gis_proto::SearchSpec,
        trace: Option<TraceContext>,
    ) -> u64 {
        let c = &mut self.conns[conn];
        let id = c.next_id;
        c.next_id += 1;
        let msg = ProtocolMessage::Request(GripRequest::Search { id, spec });
        let msg = match trace {
            Some(ctx) => msg.traced(ctx),
            None => msg,
        };
        self.queue(conn, &msg);
        id
    }

    /// Queue a request that only the service's owner thread handles (an
    /// anonymous bind); returns its id.
    pub fn bind(&mut self, conn: usize) -> u64 {
        let c = &mut self.conns[conn];
        let id = c.next_id;
        c.next_id += 1;
        let msg = ProtocolMessage::Request(GripRequest::Bind {
            id,
            subject: String::new(),
            token: Vec::new(),
        });
        self.queue(conn, &msg);
        id
    }

    /// Queue a GRRP notification on `conn`.
    pub fn grrp(&mut self, conn: usize, msg: GrrpMessage) {
        self.queue(conn, &ProtocolMessage::Grrp(msg));
    }

    fn queue(&mut self, conn: usize, msg: &ProtocolMessage) {
        self.ebuf.clear();
        encode_frame(msg, &mut self.ebuf).expect("benchmark requests fit in one frame");
        self.conns[conn].out.extend_from_slice(&self.ebuf);
    }

    /// Write whatever the sockets accept now; register write interest
    /// for the rest.
    pub fn flush(&mut self) -> io::Result<()> {
        for (token, c) in self.conns.iter_mut().enumerate() {
            let mut written = 0;
            while written < c.out.len() {
                match c.stream.write(&c.out[written..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            c.out.drain(..written);
            let want = !c.out.is_empty();
            if want != c.want_write {
                self.poller
                    .modify(c.stream.as_raw_fd(), token as u64, true, want)?;
                c.want_write = want;
            }
        }
        Ok(())
    }

    /// Wait up to `timeout` for replies and append every complete one to
    /// `out`. A zero timeout only collects what is already there.
    pub fn poll(&mut self, timeout: Duration, out: &mut Vec<Inbound>) -> io::Result<()> {
        self.flush()?;
        self.events.clear();
        // The poller counts whole milliseconds; round a short wait up
        // rather than spinning.
        let wait = if timeout.is_zero() {
            Duration::ZERO
        } else {
            timeout.max(Duration::from_millis(1))
        };
        self.poller.wait(&mut self.events, Some(wait))?;
        let mut writable = false;
        for ev in std::mem::take(&mut self.events) {
            let conn = ev.token as usize;
            writable |= ev.writable;
            if !ev.readable {
                continue;
            }
            let c = &mut self.conns[conn];
            loop {
                match c.stream.read(&mut self.scratch) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => {
                        c.dec.feed(&self.scratch[..n]);
                        c.fed += n;
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            while let Some(frame) = c
                .dec
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                let (_, msg) = frame.msg.untraced();
                match msg {
                    ProtocolMessage::Reply(reply) => out.push(Inbound { conn, reply }),
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected frame from server: {other:?}"),
                        ))
                    }
                }
            }
            // The decoder's buffer keeps every byte it was ever fed
            // while frames are split off its front; start a fresh one
            // between frames so the generator's memory stays flat.
            if c.fed > DECODER_RECYCLE && !c.dec.mid_frame() {
                c.dec = FrameDecoder::new();
                c.fed = 0;
            }
        }
        if writable {
            self.flush()?;
        }
        Ok(())
    }

    /// Send one search and wait for its answer (set-up and probes only).
    pub fn search_blocking(
        &mut self,
        conn: usize,
        spec: gis_proto::SearchSpec,
        deadline: Instant,
    ) -> io::Result<Option<GripReply>> {
        let id = self.search(conn, spec, None);
        let mut got = Vec::new();
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            self.poll((deadline - now).min(Duration::from_millis(50)), &mut got)?;
            if let Some(i) = got
                .iter()
                .position(|r| r.conn == conn && r.reply.id() == id)
            {
                return Ok(Some(got.swap_remove(i).reply));
            }
            got.clear();
        }
    }
}
