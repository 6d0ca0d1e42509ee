//! Real TCP socket transport for the sharded coordinator.
//!
//! The wire format is deliberately thin: each direction carries
//! length-prefixed *sealed* frames —
//!
//! ```text
//! [len: u32 LE] [tag: u64 LE ‖ CCF1 frame]
//!               └──────── sealed (auth.rs) ───────┘
//! ```
//!
//! — where the payload past the length prefix is exactly what
//! [`AuthKey::seal`] produces over an ordinary CCF1 frame. The codec layer
//! is untouched: every byte that crosses the socket decodes with the same
//! [`Message`] machinery the in-process transports use, which is what lets
//! the conformance suite run one contract over loopback, sim and TCP.
//!
//! Records leave in batches, one `write` per batch: under `TCP_NODELAY`
//! every `write` is a segment and can wake the peer. The coordinator seals
//! each frame [`send`](Transport::send) hands it straight into its shard's
//! buffer, behind its length prefix, and writes every non-empty buffer
//! before [`deliver_next`](Transport::deliver_next) blocks, so a barrier's
//! frames to one shard cross in one segment. A worker connection appends
//! its responses and writes them once its `BufReader` holds no further
//! request. Both ends read through a `BufReader`, so a batch usually costs
//! one `read` syscall. Only the segmentation changes, never a byte on the
//! wire.
//!
//! Topology: [`TcpWorkerServer`] hosts `K` [`ShardWorker`]s behind one
//! listener; [`TcpTransport::connect`] opens one stream per shard (the
//! addresses may all point at one server — frames route by the shard id
//! every message carries) and performs a sealed `Hello`/`HelloAck`
//! handshake per stream, which validates the campaign key eagerly and
//! tells the coordinator the cluster size `n`. The server's accept loop
//! blocks in `accept`; [`TcpWorkerServer::shutdown`] wakes it with one
//! connection to the server's own address.
//!
//! Death semantics mirror [`Transport::shard_dead`]: a failed write or a
//! reader hitting EOF marks the shard *observably* dead; a silent socket
//! is only declared dead by the coordinator once the dispatch budget runs
//! out, because TCP cannot distinguish slow from gone. There are no read
//! timeouts on data-path sockets — a timeout mid-`read_exact` would
//! corrupt the length-prefixed framing — so reader threads block until
//! EOF and shutdown happens by closing the socket.
//!
//! One campaign per server incarnation: worker response caches are keyed
//! by campaign-local seqs (which restart at 1), so a server must be
//! respawned between campaigns.

use crate::auth::{AuthKey, TAG_LEN};
use crate::transport::{ShardId, Transport, WireStats};
use crate::wire::{Body, Message};
use crate::worker::ShardWorker;
use crate::CoordError;
use cloudconst_netmodel::FallibleNetworkProbe;
use std::io::{self, BufReader, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Largest sealed frame a peer may announce. A hostile (or corrupted)
/// length prefix must not make us allocate unbounded memory; 64 MiB is
/// orders of magnitude above any real `PartialTpMatrix`.
const MAX_FRAME: usize = 64 << 20;

fn txerr(what: &str, e: io::Error) -> CoordError {
    CoordError::Transport(format!("{what}: {e}"))
}

/// Append one `[len][tag ‖ frame]` record to `buf`, with `frame` sealed
/// under `key` straight behind the length prefix. A frame too large for the
/// prefix appends nothing.
fn append_record(key: &AuthKey, frame: &[u8], buf: &mut Vec<u8>) -> io::Result<()> {
    let len = u32::try_from(TAG_LEN + frame.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32 len"))?;
    buf.extend_from_slice(&len.to_le_bytes());
    key.seal_into(frame, buf);
    Ok(())
}

/// Read one `[len][sealed]` record, enforcing the [`MAX_FRAME`] cap.
fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length prefix exceeds the 64 MiB cap",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Socket-side knobs of a campaign.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// The campaign's shared secret; every frame either way is sealed
    /// under it.
    pub key: AuthKey,
    /// How long [`Transport::deliver_next`] waits for a frame before
    /// reporting the wire stalled (`None`), prompting a re-dispatch pass.
    pub recv_timeout: Duration,
    /// Budget for `connect` plus the `Hello`/`HelloAck` handshake.
    pub connect_timeout: Duration,
}

impl TcpConfig {
    /// Defaults: 250 ms receive stall, 2 s connect/handshake budget.
    pub fn new(key: AuthKey) -> Self {
        TcpConfig {
            key,
            recv_timeout: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(2),
        }
    }

    /// Replace the receive-stall budget (kill/failover tests shrink it).
    pub fn with_recv_timeout(mut self, d: Duration) -> Self {
        self.recv_timeout = d;
        self
    }
}

struct Conn {
    stream: TcpStream,
    dead: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    /// Records sealed by `send`, written by the next `deliver_next`.
    out: Vec<u8>,
    /// Frames in `out`.
    queued: u64,
}

/// Coordinator-side TCP transport: one sealed stream per shard.
pub struct TcpTransport {
    cfg: TcpConfig,
    conns: Vec<Conn>,
    rx: Receiver<Vec<u8>>,
    /// Kept so `rx` never reports `Disconnected` while the transport
    /// lives, even after every reader thread has exited.
    _tx: Sender<Vec<u8>>,
    n: usize,
    stats: WireStats,
}

impl TcpTransport {
    /// Connect one stream per shard (`addrs[s]` is shard `s`; addresses
    /// may repeat to put several shards on one server) and handshake each
    /// under `cfg.key`. Fails typed: [`CoordError::AuthFailure`] when a
    /// worker rejects our tag (or its ack fails ours),
    /// [`CoordError::Transport`] for socket-level trouble.
    pub fn connect(addrs: &[SocketAddr], cfg: TcpConfig) -> Result<Self, CoordError> {
        if addrs.is_empty() {
            return Err(CoordError::Config("at least one shard address required"));
        }
        let (tx, rx) = mpsc::channel();
        let mut conns = Vec::with_capacity(addrs.len());
        let mut n = 0usize;
        for (shard, addr) in addrs.iter().enumerate() {
            let mut stream = TcpStream::connect_timeout(addr, cfg.connect_timeout)
                .map_err(|e| txerr("connect", e))?;
            stream.set_nodelay(true).map_err(|e| txerr("nodelay", e))?;
            let shard_n = Self::handshake(&mut stream, shard, &cfg)?;
            if shard == 0 {
                n = shard_n;
            } else if shard_n != n {
                return Err(CoordError::Config("shards disagree on cluster size"));
            }
            let dead = Arc::new(AtomicBool::new(false));
            let reader = {
                let mut reader = BufReader::new(stream.try_clone().map_err(|e| txerr("clone", e))?);
                let tx = tx.clone();
                let dead = Arc::clone(&dead);
                thread::spawn(move || loop {
                    match read_frame(&mut reader) {
                        Ok(sealed) => {
                            if tx.send(sealed).is_err() {
                                break;
                            }
                        }
                        Err(_) => {
                            // EOF or a broken socket: the shard's host is
                            // observably gone (or we are shutting down).
                            dead.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                })
            };
            conns.push(Conn {
                stream,
                dead,
                reader: Some(reader),
                out: Vec::new(),
                queued: 0,
            });
        }
        Ok(TcpTransport {
            cfg,
            conns,
            rx,
            _tx: tx,
            n,
            stats: WireStats::default(),
        })
    }

    /// Sealed `Hello` → sealed `HelloAck`, returning the cluster size the
    /// worker reports. Runs under a temporary read timeout so a mute or
    /// wrong-protocol peer cannot hang `connect` forever. The ack is read
    /// unbuffered: nothing past it may be consumed before the shard's
    /// reader thread takes over the stream.
    fn handshake(
        stream: &mut TcpStream,
        shard: usize,
        cfg: &TcpConfig,
    ) -> Result<usize, CoordError> {
        let hello = Message {
            seq: 0,
            shard: shard as u32,
            body: Body::Hello,
        }
        .encode();
        let mut record = Vec::new();
        append_record(&cfg.key, &hello, &mut record)
            .and_then(|()| stream.write_all(&record))
            .map_err(|e| txerr("hello", e))?;
        stream
            .set_read_timeout(Some(cfg.connect_timeout))
            .map_err(|e| txerr("handshake timeout", e))?;
        let sealed = read_frame(stream).map_err(|e| txerr("hello ack", e))?;
        stream
            .set_read_timeout(None)
            .map_err(|e| txerr("handshake timeout", e))?;
        let frame = cfg.key.open(&sealed)?;
        let ack = Message::decode(frame)?;
        match ack.body {
            Body::HelloAck { n } if ack.shard == shard as u32 => Ok(n as usize),
            Body::HelloAck { .. } => Err(CoordError::Protocol("hello ack for the wrong shard")),
            Body::AuthReject => Err(CoordError::AuthFailure("worker rejected the campaign key")),
            _ => Err(CoordError::Protocol("unexpected frame during handshake")),
        }
    }

    /// Write every connection's queued records, one `write_all` each. A
    /// failed write marks the shard dead, and its queued frames are lost.
    fn flush(&mut self) {
        for conn in self.conns.iter_mut().filter(|c| c.queued > 0) {
            if conn.dead.load(Ordering::SeqCst) || conn.stream.write_all(&conn.out).is_err() {
                conn.dead.store(true, Ordering::SeqCst);
                self.stats.frames_lost += conn.queued;
            }
            conn.out.clear();
            conn.queued = 0;
        }
    }
}

impl Transport for TcpTransport {
    fn n(&self) -> usize {
        self.n
    }

    fn shards(&self) -> usize {
        self.conns.len()
    }

    fn send(&mut self, shard: ShardId, frame: Vec<u8>) -> Result<(), CoordError> {
        let Some(conn) = self.conns.get_mut(shard) else {
            return Err(CoordError::Protocol("send to unknown shard"));
        };
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        if conn.dead.load(Ordering::SeqCst) {
            // The host is gone; the frame goes the way of a sim-killed
            // shard's — swallowed, surfaced through the deadness probe.
            self.stats.frames_lost += 1;
            return Ok(());
        }
        if append_record(&self.cfg.key, &frame, &mut conn.out).is_err() {
            conn.dead.store(true, Ordering::SeqCst);
            self.stats.frames_lost += 1;
            return Ok(());
        }
        conn.queued += 1;
        Ok(())
    }

    fn deliver_next(&mut self) -> Result<Option<Vec<u8>>, CoordError> {
        self.flush();
        match self.rx.recv_timeout(self.cfg.recv_timeout) {
            Ok(mut sealed) => {
                let len = self.cfg.key.open(&sealed)?.len();
                sealed.drain(..TAG_LEN);
                self.stats.frames_delivered += 1;
                self.stats.bytes_delivered += len as u64;
                Ok(Some(sealed))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            // Unreachable while `_tx` lives, but harmless: a stall.
            Err(RecvTimeoutError::Disconnected) => Ok(None),
        }
    }

    fn stats(&self) -> WireStats {
        self.stats
    }

    fn shard_dead(&self, shard: ShardId) -> bool {
        self.conns
            .get(shard)
            .is_some_and(|c| c.dead.load(Ordering::SeqCst))
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        for conn in &mut self.conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for conn in &mut self.conns {
            if let Some(h) = conn.reader.take() {
                let _ = h.join();
            }
        }
    }
}

/// A listener hosting `K` [`ShardWorker`]s for exactly one campaign.
///
/// Frames route by the shard id they carry, so any number of shards can
/// live behind one server. The kill hooks ([`kill_shard_after`],
/// [`disconnect_shard`]) exist for fault tests: the first models a host
/// that goes silent (frames swallowed, socket open), the second one that
/// dies abruptly (socket closed, reader EOF).
///
/// [`kill_shard_after`]: TcpWorkerServer::kill_shard_after
/// [`disconnect_shard`]: TcpWorkerServer::disconnect_shard
pub struct TcpWorkerServer {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Conns>>,
    /// Per-shard silent-kill threshold: swallow every frame past this
    /// many received (`u64::MAX` = never).
    kill_after: Arc<Vec<AtomicU64>>,
    /// Per-shard frames received (kill accounting).
    received: Arc<Vec<AtomicU64>>,
}

/// A server's connections, under one lock.
struct Conns {
    /// Set by `shutdown`. The accept loop reads it under this lock, so no
    /// stream is accepted into service after `shutdown` closed the rest.
    closed: bool,
    /// Each shard's stream, registered by its `Hello`, for
    /// `disconnect_shard`.
    by_shard: Vec<Option<TcpStream>>,
    /// Every accepted stream and the thread serving it, for `shutdown` to
    /// close and join — silent peers included.
    accepted: Vec<(TcpStream, JoinHandle<()>)>,
}

/// Every update to [`Conns`] is a single assignment or push, so a guard
/// poisoned by a panicking holder still guards valid data.
fn lock(conns: &Mutex<Conns>) -> MutexGuard<'_, Conns> {
    conns.lock().unwrap_or_else(PoisonError::into_inner)
}

struct ServerShared<P> {
    key: AuthKey,
    workers: Vec<Mutex<ShardWorker<P>>>,
    conns: Arc<Mutex<Conns>>,
    kill_after: Arc<Vec<AtomicU64>>,
    received: Arc<Vec<AtomicU64>>,
    n: usize,
}

impl TcpWorkerServer {
    /// Host `shards` workers (each owning a clone of `probe`) on an
    /// ephemeral loopback port.
    pub fn spawn<P>(probe: P, shards: usize, key: AuthKey) -> io::Result<Self>
    where
        P: FallibleNetworkProbe + Clone + Send + 'static,
    {
        Self::spawn_on("127.0.0.1:0", probe, shards, key)
    }

    /// Host `shards` workers on an explicit bind address.
    pub fn spawn_on<A, P>(addr: A, probe: P, shards: usize, key: AuthKey) -> io::Result<Self>
    where
        A: ToSocketAddrs,
        P: FallibleNetworkProbe + Clone + Send + 'static,
    {
        assert!(shards >= 1, "at least one shard required");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let workers: Vec<Mutex<ShardWorker<P>>> = (0..shards)
            .map(|s| Mutex::new(ShardWorker::new(probe.clone(), s)))
            .collect();
        let n = workers[0].lock().unwrap().n();
        let conns = Arc::new(Mutex::new(Conns {
            closed: false,
            by_shard: (0..shards).map(|_| None).collect(),
            accepted: Vec::new(),
        }));
        let kill_after: Arc<Vec<AtomicU64>> =
            Arc::new((0..shards).map(|_| AtomicU64::new(u64::MAX)).collect());
        let received: Arc<Vec<AtomicU64>> =
            Arc::new((0..shards).map(|_| AtomicU64::new(0)).collect());
        let shared = Arc::new(ServerShared {
            key,
            workers,
            conns: Arc::clone(&conns),
            kill_after: Arc::clone(&kill_after),
            received: Arc::clone(&received),
            n,
        });

        let accept = thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut conns = lock(&shared.conns);
                if conns.closed {
                    break; // `shutdown`'s wake, or a peer racing it
                }
                // Without a handle to close it by, a stream is not served.
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let shared = Arc::clone(&shared);
                let serve = thread::spawn(move || serve_conn(stream, &shared));
                conns.accepted.push((handle, serve));
            }
        });

        Ok(TcpWorkerServer {
            addr,
            accept: Some(accept),
            conns,
            kill_after,
            received,
        })
    }

    /// The bound address workers answer on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Convenience: the same address repeated once per shard, the shape
    /// [`TcpTransport::connect`] wants for a single-server cluster.
    pub fn shard_addrs(&self, shards: usize) -> Vec<SocketAddr> {
        vec![self.addr; shards]
    }

    /// After `frames` more frames to `shard`, swallow everything silently:
    /// the socket stays open but nothing is ever answered — the shape of a
    /// wedged host, detectable only by the coordinator's dispatch budget.
    pub fn kill_shard_after(&self, shard: ShardId, frames: u64) {
        assert!(shard < self.kill_after.len(), "unknown shard");
        let seen = self.received[shard].load(Ordering::SeqCst);
        self.kill_after[shard].store(seen + frames, Ordering::SeqCst);
    }

    /// Abruptly close `shard`'s registered connection: the coordinator's
    /// reader sees EOF and the shard turns observably dead.
    pub fn disconnect_shard(&self, shard: ShardId) {
        let stream = lock(&self.conns)
            .by_shard
            .get_mut(shard)
            .and_then(Option::take);
        if let Some(stream) = stream {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Stop accepting, close every accepted connection (whether or not it
    /// sent a `Hello`), and join the accept loop and every connection's
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        let accepted = {
            let mut conns = lock(&self.conns);
            conns.closed = true;
            std::mem::take(&mut conns.accepted)
        };
        for (stream, _) in &accepted {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // The accept loop blocks in `accept`: one connection to our own
        // address wakes it to find `closed` set.
        let _ = TcpStream::connect(wake_addr(self.addr));
        let _ = accept.join();
        for (_, serve) in accepted {
            let _ = serve.join();
        }
    }
}

impl Drop for TcpWorkerServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where `shutdown` connects to wake its own accept loop: the bound
/// address, with an unspecified IP (`0.0.0.0` / `::`) mapped to loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Serve one connection until its peer leaves or `shutdown` closes it.
/// Responses queue in one buffer, written whenever no further request is
/// buffered — before the next `read` could block.
fn serve_conn<P: FallibleNetworkProbe>(mut stream: TcpStream, shared: &ServerShared<P>) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = Vec::new();
    while let Ok(sealed) = read_frame(&mut reader) {
        let reply = match shared.key.open(&sealed) {
            Err(_) => {
                // Unauthentic frame: never executed, answered with a typed
                // rejection the coordinator surfaces as `AuthFailure`.
                Some(
                    Message {
                        seq: 0,
                        shard: u32::MAX,
                        body: Body::AuthReject,
                    }
                    .encode(),
                )
            }
            Ok(frame) => match Message::decode(frame) {
                // An authentic-but-malformed frame is a protocol bug, not
                // wire noise (the tag already vouched for the bytes);
                // dropping the connection is the loudest safe answer.
                Err(_) => break,
                Ok(msg) if msg.shard as usize >= shared.workers.len() => break,
                Ok(Message {
                    seq,
                    shard,
                    body: Body::Hello,
                }) => {
                    if let Ok(clone) = stream.try_clone() {
                        lock(&shared.conns).by_shard[shard as usize] = Some(clone);
                    }
                    Some(
                        Message {
                            seq,
                            shard,
                            body: Body::HelloAck { n: shared.n as u32 },
                        }
                        .encode(),
                    )
                }
                Ok(msg) => {
                    let shard = msg.shard as usize;
                    let seen = shared.received[shard].fetch_add(1, Ordering::SeqCst) + 1;
                    if seen > shared.kill_after[shard].load(Ordering::SeqCst) {
                        None // the wedged-host hook: swallow silently
                    } else {
                        match shared.workers[shard].lock().unwrap().handle_message(msg) {
                            Ok(response) => Some(response),
                            Err(_) => break,
                        }
                    }
                }
            },
        };
        if let Some(response) = reply {
            if append_record(&shared.key, &response, &mut out).is_err() {
                break;
            }
        }
        if reader.buffer().is_empty() && !out.is_empty() {
            if stream.write_all(&out).is_err() {
                return;
            }
            out.clear();
        }
    }
    // Answer what was handled before the connection failed.
    let _ = stream.write_all(&out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudconst_netmodel::ProbeAttempt;
    use std::time::Instant;

    #[derive(Clone)]
    struct Fixed;
    impl FallibleNetworkProbe for Fixed {
        fn n(&self) -> usize {
            4
        }
        fn try_probe(&self, i: usize, j: usize, _b: u64, _t: f64, _d: f64) -> ProbeAttempt {
            ProbeAttempt::Ok(if i == j { 0.0 } else { 0.25 })
        }
    }

    /// A source that hands out one byte per `read`.
    struct OneByteReader<'a>(&'a [u8]);
    impl Read for OneByteReader<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), out.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// The record the wire has always carried: `[len u32 LE]` then
    /// `AuthKey::seal(frame)`.
    fn record(key: &AuthKey, frame: &[u8]) -> Vec<u8> {
        let sealed = key.seal(frame);
        let mut out = (sealed.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&sealed);
        out
    }

    #[test]
    fn a_batch_carries_the_unchanged_records_back_to_back() {
        let key = AuthKey::from_seed(3);
        let mut batch = Vec::new();
        append_record(&key, b"first frame", &mut batch).unwrap();
        append_record(&key, b"second", &mut batch).unwrap();
        let mut expect = record(&key, b"first frame");
        expect.extend_from_slice(&record(&key, b"second"));
        assert_eq!(batch, expect, "the bytes on the wire are unchanged");
    }

    #[test]
    fn sends_wait_for_deliver_next_and_are_answered_in_order() {
        let key = AuthKey::from_seed(9);
        let server = TcpWorkerServer::spawn(Fixed, 1, key).unwrap();
        let mut t = TcpTransport::connect(&server.shard_addrs(1), key_cfg(key)).unwrap();
        let flush = |seq| {
            Message {
                seq,
                shard: 0,
                body: Body::Flush {
                    snapshot: seq as u32,
                },
            }
            .encode()
        };
        t.send(0, flush(1)).unwrap();
        t.send(0, flush(2)).unwrap();
        thread::sleep(Duration::from_millis(20));
        let received = || server.received[0].load(Ordering::SeqCst);
        assert_eq!(received(), 0, "sends are queued");
        for seq in [1, 2] {
            let frame = t.deliver_next().unwrap().expect("a response");
            assert_eq!(Message::decode(&frame).unwrap().seq, seq);
        }
        assert_eq!(received(), 2);
        assert_eq!(t.stats().frames_sent, 2);
        assert_eq!(t.stats().frames_delivered, 2);
    }

    #[test]
    fn read_frame_decodes_a_record_arriving_one_byte_at_a_time() {
        let key = AuthKey::from_seed(4);
        let bytes = record(&key, b"trickled frame");
        let sealed = read_frame(&mut OneByteReader(&bytes)).unwrap();
        assert_eq!(sealed, key.seal(b"trickled frame"));
    }

    #[test]
    fn back_to_back_frames_decode_in_order_through_one_buffered_reader() {
        let key = AuthKey::from_seed(5);
        let mut bytes = Vec::new();
        append_record(&key, b"one", &mut bytes).unwrap();
        append_record(&key, b"two", &mut bytes).unwrap();
        let mut r = BufReader::new(&bytes[..]);
        assert_eq!(read_frame(&mut r).unwrap(), key.seal(b"one"));
        assert_eq!(read_frame(&mut r).unwrap(), key.seal(b"two"));
        let eof = read_frame(&mut r).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn handshake_learns_cluster_size() {
        let key = AuthKey::from_seed(11);
        let server = TcpWorkerServer::spawn(Fixed, 2, key).unwrap();
        let t = TcpTransport::connect(&server.shard_addrs(2), TcpConfig::new(key)).unwrap();
        assert_eq!(t.n(), 4);
        assert_eq!(t.shards(), 2);
        assert!(!t.shard_dead(0) && !t.shard_dead(1));
    }

    #[test]
    fn wrong_key_is_a_typed_auth_failure() {
        let server = TcpWorkerServer::spawn(Fixed, 1, AuthKey::from_seed(1)).unwrap();
        let cfg = TcpConfig::new(AuthKey::from_seed(2));
        match TcpTransport::connect(&server.shard_addrs(1), cfg) {
            Err(CoordError::AuthFailure(_)) => {}
            Err(other) => panic!("expected AuthFailure, got {other:?}"),
            Ok(_) => panic!("expected AuthFailure, got a connected transport"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (served, _) = listener.accept().unwrap();
        let bogus = ((MAX_FRAME + 1) as u32).to_le_bytes();
        client.write_all(&bogus).unwrap();
        client.flush().unwrap();
        let err = read_frame(&mut BufReader::new(served)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn disconnect_turns_the_shard_observably_dead() {
        let key = AuthKey::from_seed(5);
        let server = TcpWorkerServer::spawn(Fixed, 2, key).unwrap();
        let t = TcpTransport::connect(&server.shard_addrs(2), key_cfg(key)).unwrap();
        server.disconnect_shard(1);
        // The reader thread needs a moment to observe the EOF.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !t.shard_dead(1) {
            assert!(std::time::Instant::now() < deadline, "EOF never observed");
            thread::sleep(Duration::from_millis(5));
        }
        assert!(!t.shard_dead(0), "the other shard is untouched");
    }

    #[test]
    fn shutdown_closes_a_silent_connection() {
        let key = AuthKey::from_seed(6);
        let mut server = TcpWorkerServer::spawn(Fixed, 1, key).unwrap();
        let mut peer = TcpStream::connect(server.addr()).unwrap();
        // Accepts run in arrival order: once a later handshake is acked,
        // the silent peer is being served.
        drop(TcpTransport::connect(&server.shard_addrs(1), TcpConfig::new(key)).unwrap());
        server.shutdown();
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut byte = [0u8; 1];
        let got = peer.read(&mut byte).expect("EOF, not a timeout");
        assert_eq!(got, 0, "expected EOF");
    }

    #[test]
    fn shutdown_of_an_unspecified_bind_wakes_accept_promptly() {
        assert_eq!(
            wake_addr("0.0.0.0:7431".parse().unwrap()),
            "127.0.0.1:7431".parse().unwrap()
        );
        assert_eq!(
            wake_addr("[::]:7431".parse().unwrap()),
            "[::1]:7431".parse().unwrap()
        );
        let bound: SocketAddr = "10.1.2.3:7431".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);

        let mut server =
            TcpWorkerServer::spawn_on("0.0.0.0:0", Fixed, 1, AuthKey::from_seed(7)).unwrap();
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "accept was never woken"
        );
    }

    #[test]
    fn second_shutdown_is_a_no_op_and_no_later_connect_is_acked() {
        let key = AuthKey::from_seed(8);
        let mut server = TcpWorkerServer::spawn(Fixed, 1, key).unwrap();
        let addrs = server.shard_addrs(1);
        server.shutdown();
        server.shutdown();
        assert!(TcpTransport::connect(&addrs, TcpConfig::new(key)).is_err());
    }

    fn key_cfg(key: AuthKey) -> TcpConfig {
        TcpConfig::new(key).with_recv_timeout(Duration::from_millis(50))
    }
}
