//! Localhost TCP mesh: `std::net::TcpListener`/`TcpStream` links between
//! nodes, with each node's receive side running on its own threads.
//!
//! Topology: one listener per node, one connection per **ordered** pair
//! `(src, dst)` — `src` holds the write half, `dst` the read half. After
//! the mesh is up, every node's inbound connections are serviced by
//! dedicated reader threads that pull length-prefixed frames off the
//! socket through a read buffer and push `(src, frame)` into the node's
//! inbox channel, so receiving genuinely happens concurrently with the
//! sender's work. A
//! reader thread exits on a clean close and forwards any mid-stream error
//! (truncated frame, reset connection) into the inbox, where the next
//! receive surfaces it as a [`ClusterError::Transport`].
//!
//! The handshake is minimal: the connecting side's first frame body is
//! its 4-byte node id, so the accepting side can label the link.

use super::frame::{queue_frame, read_frame, read_frame_opt, METHOD_STORED};
use crate::{ClusterError, SiteId};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The write half of one `(src, dst)` link, buffered: a frame's header
/// and body leave in one `write`, and a caller that
/// [`queue`](TcpLink::queue)s a burst of frames pays one `write` per
/// [`flush`](TcpLink::flush) rather than one per frame.
#[derive(Debug)]
pub(crate) struct TcpLink {
    stream: BufWriter<TcpStream>,
}

impl TcpLink {
    /// Wrap a connected stream (Nagle disabled — protocol rounds are
    /// latency-bound request/reply exchanges).
    pub(crate) fn new(stream: TcpStream) -> Result<Self, ClusterError> {
        stream
            .set_nodelay(true)
            .map_err(|e| ClusterError::Transport(format!("set_nodelay: {e}")))?;
        Ok(TcpLink {
            stream: BufWriter::new(stream),
        })
    }

    /// Buffer one frame without pushing it to the socket. The frame is
    /// not on the wire until [`flush`](TcpLink::flush) (or the buffer
    /// fills): whoever queues must flush before waiting on the peer.
    pub(crate) fn queue(&mut self, method: u8, body: &[u8]) -> Result<(), ClusterError> {
        queue_frame(&mut self.stream, method, body)
    }

    /// Push every queued frame to the socket.
    pub(crate) fn flush(&mut self) -> Result<(), ClusterError> {
        self.stream.flush().map_err(|e| terr("flushing link", e))
    }
}

/// What a reader thread delivers into a node's inbox: the sending node
/// and the frame (or the transport error that ended the link).
pub(crate) type Inbound = (SiteId, Result<(u8, Vec<u8>), ClusterError>);

/// Shutdown handle for a set of reader threads: a try-cloned handle per
/// read half plus the join handles. Dropping the guard shuts the
/// sockets down (unblocking any reader parked in `read`) and **joins**
/// every thread — readers are never leaked, and a reader that was
/// mid-frame when the socket went away forwards one final
/// `Transport` error into its inbox (or exits silently if the inbox
/// is already gone) instead of panicking.
#[derive(Debug, Default)]
pub(crate) struct ReaderGuard {
    streams: Vec<TcpStream>,
    handles: Vec<JoinHandle<()>>,
}

impl ReaderGuard {
    fn push(&mut self, stream: TcpStream, handle: JoinHandle<()>) {
        self.streams.push(stream);
        self.handles.push(handle);
    }

    /// Shut down every read half and join the reader threads. Idempotent;
    /// also runs on drop.
    pub(crate) fn shutdown(&mut self) {
        for s in &self.streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.streams.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ReaderGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One node's view of a TCP mesh: its write halves, its inbox, and the
/// guard over its own reader threads. This is what a per-site thread (or
/// a whole `site` process) owns — see `cluster::run`.
#[derive(Debug)]
pub(crate) struct NodeEndpoint {
    /// Write halves to every other node (`None` at `me`).
    pub(crate) tx: Vec<Option<TcpLink>>,
    /// Inbox fed by this node's reader threads.
    pub(crate) rx: Receiver<Inbound>,
    /// Reader threads for the inbound links (joined on drop).
    pub(crate) guard: ReaderGuard,
}

fn terr(what: &str, e: std::io::Error) -> ClusterError {
    ClusterError::Transport(format!("{what}: {e}"))
}

/// Spawn the reader thread for one inbound `(src → dst)` connection. It
/// reads through a buffer: a header is read a byte at a time, and a burst
/// of frames costs about one `read` on the socket, not a few per frame.
fn spawn_reader(stream: TcpStream, src: SiteId, inbox: Sender<Inbound>) -> JoinHandle<()> {
    let mut stream = BufReader::new(stream);
    std::thread::spawn(move || loop {
        match read_frame_opt(&mut stream) {
            Ok(Some(frame)) => {
                if inbox.send((src, Ok(frame))).is_err() {
                    break; // mesh dropped
                }
            }
            Ok(None) => break, // clean close
            Err(e) => {
                let _ = inbox.send((src, Err(e)));
                break;
            }
        }
    })
}

/// Node `me`'s write halves: `connect(dst)` opens the stream to every
/// other node, and the first frame on each is `me`'s id.
fn connect_out(
    n: usize,
    me: SiteId,
    mut connect: impl FnMut(SiteId) -> std::io::Result<TcpStream>,
) -> Result<Vec<Option<TcpLink>>, ClusterError> {
    let mut tx: Vec<Option<TcpLink>> = (0..n).map(|_| None).collect();
    for (dst, slot) in tx.iter_mut().enumerate().filter(|&(dst, _)| dst != me) {
        let stream = connect(dst).map_err(|e| terr(&format!("connect {me}→{dst}"), e))?;
        let mut link = TcpLink::new(stream)?;
        link.queue(METHOD_STORED, &(me as u32).to_le_bytes())?;
        link.flush()?;
        *slot = Some(link);
    }
    Ok(tx)
}

/// Accept node `me`'s `n − 1` inbound links on `listener`, label each by
/// its handshake and give it a reader thread: the node's inbox and the
/// guard over its readers.
fn accept_in(
    listener: &TcpListener,
    n: usize,
    me: SiteId,
) -> Result<(Receiver<Inbound>, ReaderGuard), ClusterError> {
    let (inbox_tx, inbox_rx) = channel();
    let mut guard = ReaderGuard::default();
    let mut seen = vec![false; n];
    for _ in 0..n.saturating_sub(1) {
        let (mut stream, _) = listener.accept().map_err(|e| terr("accept", e))?;
        let src = read_handshake(&mut stream, n, me)?;
        if std::mem::replace(&mut seen[src], true) {
            return Err(ClusterError::Transport(format!(
                "unexpected handshake: node {src} connecting to {me} twice"
            )));
        }
        stream
            .set_nodelay(true)
            .map_err(|e| terr("set_nodelay", e))?;
        let half = stream.try_clone().map_err(|e| terr("try_clone", e))?;
        guard.push(half, spawn_reader(stream, src, inbox_tx.clone()));
    }
    Ok((inbox_rx, guard))
}

/// Validate one inbound handshake frame, returning the connecting node.
fn read_handshake(stream: &mut TcpStream, n: usize, dst: SiteId) -> Result<SiteId, ClusterError> {
    let (_, hello) = read_frame(stream)?;
    let Ok(id) = <[u8; 4]>::try_from(hello) else {
        return Err(ClusterError::Transport(
            "malformed site-id handshake frame".into(),
        ));
    };
    let src = u32::from_le_bytes(id) as usize;
    if src >= n || src == dst {
        return Err(ClusterError::Transport(format!(
            "unexpected handshake: site {src} connecting to {dst}"
        )));
    }
    Ok(src)
}

/// Stand up an `n`-node mesh on `127.0.0.1` ephemeral ports, in one
/// process: bind one listener per node, connect every ordered pair (the
/// OS accept backlog holds the connections until each node's accept
/// loop picks them up), and spawn each node's reader threads.
pub(crate) fn localhost(n: usize) -> Result<Vec<NodeEndpoint>, ClusterError> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| terr("bind listener", e)))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<_> = listeners
        .iter()
        .map(|l| l.local_addr().map_err(|e| terr("local_addr", e)))
        .collect::<Result<_, _>>()?;
    let txs: Vec<_> = (0..n)
        .map(|me| connect_out(n, me, |dst| TcpStream::connect(addrs[dst])))
        .collect::<Result<_, _>>()?;
    txs.into_iter()
        .zip(&listeners)
        .enumerate()
        .map(|(me, (tx, listener))| {
            let (rx, guard) = accept_in(listener, n, me)?;
            Ok(NodeEndpoint { tx, rx, guard })
        })
        .collect()
}

/// Join an `n`-node mesh on fixed localhost ports as node `me` — the
/// **multi-process** mesh former. Every participating process (`site`
/// binaries plus the parent coordinator) calls this with the same `n`
/// and `base_port`: node `i` listens on `base_port + i`, connects to
/// every other node's port (retrying while peers are still starting
/// up), handshakes its id, then accepts its own `n − 1` inbound links.
pub(crate) fn join_mesh(
    n: usize,
    me: SiteId,
    base_port: u16,
) -> Result<NodeEndpoint, ClusterError> {
    if me >= n {
        return Err(ClusterError::UnknownSite(me));
    }
    let listener = TcpListener::bind(("127.0.0.1", base_port + me as u16))
        .map_err(|e| terr(&format!("bind port {}", base_port + me as u16), e))?;
    // Connect out (the OS accept backlog holds our inbound connections
    // while we do). Peers may not have bound yet — retry briefly.
    let tx = connect_out(n, me, |dst| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match TcpStream::connect(("127.0.0.1", base_port + dst as u16)) {
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                connected => break connected,
            }
        }
    })?;
    let (rx, guard) = accept_in(&listener, n, me)?;
    Ok(NodeEndpoint { tx, rx, guard })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write one stored frame and put it on the wire.
    fn send_frame(link: &mut Option<TcpLink>, body: &[u8]) {
        let link = link.as_mut().unwrap();
        link.queue(METHOD_STORED, body).unwrap();
        link.flush().unwrap();
    }

    fn recv_frame(ep: &NodeEndpoint) -> (SiteId, Vec<u8>) {
        let (src, frame) = ep.rx.recv_timeout(Duration::from_secs(10)).unwrap();
        (src, frame.unwrap().1)
    }

    #[test]
    fn mesh_ships_frames_between_sites() {
        let mut mesh = localhost(3).unwrap();
        send_frame(&mut mesh[0].tx[2], b"zero to two");
        send_frame(&mut mesh[1].tx[2], b"one to two");
        let mut got: Vec<_> = (0..2).map(|_| recv_frame(&mesh[2])).collect();
        got.sort();
        assert_eq!(
            got,
            vec![(0, b"zero to two".to_vec()), (1, b"one to two".to_vec())]
        );
    }

    #[test]
    fn drop_with_frames_in_flight_joins_readers_and_reconnects() {
        // Frames left unread when the mesh is dropped must not panic any
        // reader thread, and the guard must join them all (observable:
        // drop returns, nothing deadlocks, and the ports are reusable).
        for _ in 0..3 {
            let mut mesh = localhost(4).unwrap();
            for dst in 1..4 {
                send_frame(&mut mesh[0].tx[dst], b"never read");
            }
            drop(mesh); // readers shut down and joined here
        }
        // A fresh mesh after the drops still round-trips.
        let mut mesh = localhost(2).unwrap();
        send_frame(&mut mesh[1].tx[0], b"alive");
        assert_eq!(recv_frame(&mesh[0]), (1, b"alive".to_vec()));
    }

    #[test]
    fn peer_disconnect_mid_round_surfaces_as_inbox_error_not_panic() {
        // Node 1 vanishes (drop of its write half) while node 0 still
        // expects traffic: the reader exits cleanly; a *mid-frame* cut
        // forwards one Transport error into the inbox.
        let mut mesh = localhost(2).unwrap();
        // Half a frame from 1 → 0 — a header promising 8 stored bytes,
        // then 3 — and hang up.
        let link = mesh[1].tx[0].as_mut().unwrap();
        link.stream.write_all(&[8 << 1 | METHOD_STORED]).unwrap();
        link.stream.write_all(b"abc").unwrap();
        mesh[1].tx[0] = None; // disconnect mid-frame (the drop flushes the half frame)
        let (src, res) = mesh[0]
            .rx
            .recv_timeout(Duration::from_secs(5))
            .expect("error is delivered, not swallowed");
        assert_eq!(src, 1);
        let e = res.unwrap_err();
        assert!(matches!(e, ClusterError::Transport(_)), "{e:?}");
        drop(mesh); // joins the now-dead reader without hanging
    }

    #[test]
    fn join_mesh_forms_a_cross_endpoint_mesh() {
        // Three "processes" joining on fixed ports, here as threads.
        let base = pick_base_port();
        let mut handles = Vec::new();
        for me in 1..3 {
            handles.push(std::thread::spawn(move || {
                let mut ep = join_mesh(3, me, base).unwrap();
                // Everyone greets node 0; node 1 also gets a reply.
                send_frame(&mut ep.tx[0], format!("hi from {me}").as_bytes());
                if me == 1 {
                    assert_eq!(recv_frame(&ep), (0, b"ack".to_vec()));
                }
            }));
        }
        let mut ep = join_mesh(3, 0, base).unwrap();
        let mut got: Vec<_> = (0..2).map(|_| recv_frame(&ep)).collect();
        got.sort();
        assert_eq!(
            got,
            vec![(1, b"hi from 1".to_vec()), (2, b"hi from 2".to_vec())]
        );
        send_frame(&mut ep.tx[1], b"ack");
        for h in handles {
            h.join().unwrap();
        }
    }

    /// What a socket carries is what the meters price: the raw bytes of
    /// frames at each header width's edges add up to `frame_wire_len`.
    #[test]
    fn socket_bytes_are_the_priced_frame_lengths() {
        use super::super::frame::frame_wire_len;
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lens = [0, 63, 64, 8_191, 8_192];
        let writer = std::thread::spawn(move || {
            let mut link = TcpLink::new(TcpStream::connect(addr).unwrap()).unwrap();
            for len in lens {
                link.queue(METHOD_STORED, &vec![0x5A; len]).unwrap();
            }
            link.flush().unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        writer.join().unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let priced: usize = lens.iter().map(|&len| frame_wire_len(len)).sum();
        assert_eq!(raw.len(), priced);
        assert_eq!(priced, lens.iter().sum::<usize>() + 1 + 1 + 2 + 2 + 3);
        let mut r = raw.as_slice();
        for len in lens {
            assert_eq!(
                read_frame(&mut r).unwrap(),
                (METHOD_STORED, vec![0x5A; len])
            );
        }
        assert_eq!(read_frame_opt(&mut r).unwrap(), None);
    }

    /// A base port unlikely to collide across concurrently running
    /// tests: derived from the process id.
    fn pick_base_port() -> u16 {
        20000 + (std::process::id() % 20000) as u16
    }

    #[test]
    fn mid_stream_disconnect_surfaces_as_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // A header promising 64 stored bytes, then only 3 — and hang up.
            s.write_all(&[0x80, 0x01]).unwrap();
            s.write_all(b"abc").unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        handle.join().unwrap();
        let e = read_frame(&mut stream).unwrap_err();
        assert!(
            matches!(e, ClusterError::Transport(_)),
            "disconnect must be an error, got {e:?}"
        );
        assert!(e.to_string().contains("truncated"), "{e}");
    }
}
