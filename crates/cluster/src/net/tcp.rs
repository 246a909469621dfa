//! Localhost TCP mesh: `std::net::TcpListener`/`TcpStream` links between
//! sites, with each site's receive side running on its own threads.
//!
//! Topology: one listener per site, one connection per **ordered** pair
//! `(src, dst)` — `src` holds the write half, `dst` the read half. After
//! the mesh is up, every site's inbound connections are serviced by
//! dedicated reader threads that pull length-prefixed frames off the
//! socket and push `(src, frame)` into the site's inbox channel, so
//! receiving genuinely happens concurrently with the sender's work. A
//! reader thread exits on a clean close and forwards any mid-stream error
//! (truncated frame, reset connection) into the inbox, where the next
//! drain surfaces it as a [`ClusterError::Transport`].
//!
//! The handshake is minimal: the connecting side's first frame body is
//! its 4-byte site id, so the accepting side can label the link.

use super::frame::{queue_frame, read_frame, read_frame_opt, write_frame, METHOD_STORED};
use super::ByteTransport;
use crate::{ClusterError, SiteId};
use std::io::{BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The write half of one `(src, dst)` link, buffered: a frame's header,
/// method byte and body leave in one `write`, and a caller that
/// [`queue`](TcpLink::queue)s a burst of frames pays one `write` per
/// [`flush`](TcpLink::flush) rather than one per frame.
#[derive(Debug)]
pub struct TcpLink {
    stream: BufWriter<TcpStream>,
}

impl TcpLink {
    /// Wrap a connected stream (Nagle disabled — protocol rounds are
    /// latency-bound request/reply exchanges).
    pub fn new(stream: TcpStream) -> Result<Self, ClusterError> {
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
    pub fn queue(&mut self, method: u8, body: &[u8]) -> Result<(), ClusterError> {
        queue_frame(&mut self.stream, method, body)
    }

    /// Push every queued frame to the socket.
    pub fn flush(&mut self) -> Result<(), ClusterError> {
        self.stream.flush().map_err(|e| terr("flushing link", e))
    }
}

impl ByteTransport for TcpLink {
    fn send_frame(&mut self, method: u8, body: &[u8]) -> Result<(), ClusterError> {
        write_frame(&mut self.stream, method, body)
    }

    fn recv_frame(&mut self) -> Result<(u8, Vec<u8>), ClusterError> {
        read_frame(self.stream.get_mut())
    }
}

/// What a reader thread delivers into a site's inbox: the sending site
/// and the frame (or the transport error that ended the link).
pub type Inbound = (SiteId, Result<(u8, Vec<u8>), ClusterError>);

/// Shutdown handle for a set of reader threads: a try-cloned handle per
/// read half plus the join handles. Dropping the guard shuts the
/// sockets down (unblocking any reader parked in `read`) and **joins**
/// every thread — readers are never leaked, and a reader that was
/// mid-frame when the socket went away forwards one final
/// `Transport` error into its inbox (or exits silently if the inbox
/// is already gone) instead of panicking.
#[derive(Debug, Default)]
pub struct ReaderGuard {
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
    pub fn shutdown(&mut self) {
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

/// A fully connected localhost mesh.
#[derive(Debug)]
pub(crate) struct TcpMesh {
    /// Write halves, `[src][dst]` (`None` on the diagonal).
    pub tx: Vec<Vec<Option<TcpLink>>>,
    /// Per-site inbox fed by that site's reader threads.
    pub rx: Vec<Receiver<Inbound>>,
    /// Per-site reader-thread guards (joined on drop).
    pub guards: Vec<ReaderGuard>,
}

fn terr(what: &str, e: std::io::Error) -> ClusterError {
    ClusterError::Transport(format!("{what}: {e}"))
}

/// Spawn the reader thread for one inbound `(src → dst)` connection.
fn spawn_reader(mut stream: TcpStream, src: SiteId, inbox: Sender<Inbound>) -> JoinHandle<()> {
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

impl TcpMesh {
    /// Stand up an `n`-site mesh on `127.0.0.1` ephemeral ports: bind one
    /// listener per site, connect every ordered pair, handshake site ids,
    /// and spawn each site's reader threads.
    pub(crate) fn localhost(n: usize) -> Result<TcpMesh, ClusterError> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| terr("bind listener", e)))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<_> = listeners
            .iter()
            .map(|l| l.local_addr().map_err(|e| terr("local_addr", e)))
            .collect::<Result<_, _>>()?;

        // Connect every ordered pair; the OS accept backlog holds the
        // connections until each site's accept loop below picks them up.
        let mut tx: Vec<Vec<Option<TcpLink>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (src, row) in tx.iter_mut().enumerate() {
            for (dst, addr) in addrs.iter().enumerate() {
                if dst == src {
                    continue;
                }
                let stream = TcpStream::connect(addr)
                    .map_err(|e| terr(&format!("connect {src}→{dst}"), e))?;
                let mut link = TcpLink::new(stream)?;
                link.send_frame(METHOD_STORED, &(src as u32).to_le_bytes())?;
                row[dst] = Some(link);
            }
        }

        // Accept side: n−1 inbound links per site, identified by the
        // handshake frame, each serviced by its own reader thread.
        let mut rx = Vec::with_capacity(n);
        let mut guards = Vec::with_capacity(n);
        for (dst, listener) in listeners.into_iter().enumerate() {
            let (inbox_tx, inbox_rx) = channel();
            let mut guard = ReaderGuard::default();
            let mut seen = vec![false; n];
            for _ in 0..n.saturating_sub(1) {
                let (mut stream, _) = listener.accept().map_err(|e| terr("accept", e))?;
                let src = read_handshake(&mut stream, n, dst)?;
                if seen[src] {
                    return Err(ClusterError::Transport(format!(
                        "unexpected handshake: site {src} connecting to {dst}"
                    )));
                }
                seen[src] = true;
                stream
                    .set_nodelay(true)
                    .map_err(|e| terr("set_nodelay", e))?;
                let half = stream.try_clone().map_err(|e| terr("try_clone", e))?;
                guard.push(half, spawn_reader(stream, src, inbox_tx.clone()));
            }
            rx.push(inbox_rx);
            guards.push(guard);
        }
        Ok(TcpMesh { tx, rx, guards })
    }
}

/// Validate one inbound handshake frame, returning the connecting site.
fn read_handshake(stream: &mut TcpStream, n: usize, dst: SiteId) -> Result<SiteId, ClusterError> {
    let (_, hello) = read_frame(stream)?;
    if hello.len() != 4 {
        return Err(ClusterError::Transport(
            "malformed site-id handshake frame".into(),
        ));
    }
    let src = u32::from_le_bytes(hello.try_into().expect("4")) as usize;
    if src >= n || src == dst {
        return Err(ClusterError::Transport(format!(
            "unexpected handshake: site {src} connecting to {dst}"
        )));
    }
    Ok(src)
}

/// One node's view of a TCP mesh: its write halves, its inbox, and the
/// guard over its own reader threads. This is what a per-site thread (or
/// a whole `site` process) owns — see `cluster::run`.
#[derive(Debug)]
pub struct NodeEndpoint {
    /// Write halves to every other node (`None` at `me`).
    pub tx: Vec<Option<TcpLink>>,
    /// Inbox fed by this node's reader threads.
    pub rx: Receiver<Inbound>,
    /// Reader threads for the inbound links (joined on drop).
    pub guard: ReaderGuard,
}

impl TcpMesh {
    /// Split the mesh into one [`NodeEndpoint`] per site, so each site's
    /// thread owns exactly its own links, inbox and readers.
    pub(crate) fn into_node_endpoints(self) -> Vec<NodeEndpoint> {
        let TcpMesh { tx, rx, guards } = self;
        tx.into_iter()
            .zip(rx)
            .zip(guards)
            .map(|((tx, rx), guard)| NodeEndpoint { tx, rx, guard })
            .collect()
    }
}

/// Join an `n`-node mesh on fixed localhost ports as node `me` — the
/// **multi-process** mesh former. Every participating process (`site`
/// binaries plus the parent coordinator) calls this with the same `n`
/// and `base_port`: node `i` listens on `base_port + i`, connects to
/// every other node's port (retrying while peers are still starting
/// up), handshakes its id, then accepts its own `n − 1` inbound links.
pub fn join_mesh(n: usize, me: SiteId, base_port: u16) -> Result<NodeEndpoint, ClusterError> {
    if me >= n {
        return Err(ClusterError::UnknownSite(me));
    }
    let listener = TcpListener::bind(("127.0.0.1", base_port + me as u16))
        .map_err(|e| terr(&format!("bind port {}", base_port + me as u16), e))?;

    // Connect out (the OS accept backlog holds our inbound connections
    // while we do). Peers may not have bound yet — retry briefly.
    let mut tx: Vec<Option<TcpLink>> = (0..n).map(|_| None).collect();
    for (dst, slot) in tx.iter_mut().enumerate() {
        if dst == me {
            continue;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match TcpStream::connect(("127.0.0.1", base_port + dst as u16)) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(terr(&format!("connect {me}→{dst}"), e)),
            }
        };
        let mut link = TcpLink::new(stream)?;
        link.send_frame(METHOD_STORED, &(me as u32).to_le_bytes())?;
        *slot = Some(link);
    }

    // Accept the inbound half of every link.
    let (inbox_tx, inbox_rx) = channel();
    let mut guard = ReaderGuard::default();
    let mut seen = vec![false; n];
    for _ in 0..n.saturating_sub(1) {
        let (mut stream, _) = listener.accept().map_err(|e| terr("accept", e))?;
        let src = read_handshake(&mut stream, n, me)?;
        if seen[src] {
            return Err(ClusterError::Transport(format!(
                "unexpected handshake: node {src} connecting to {me} twice"
            )));
        }
        seen[src] = true;
        stream
            .set_nodelay(true)
            .map_err(|e| terr("set_nodelay", e))?;
        let half = stream.try_clone().map_err(|e| terr("try_clone", e))?;
        guard.push(half, spawn_reader(stream, src, inbox_tx.clone()));
    }
    Ok(NodeEndpoint {
        tx,
        rx: inbox_rx,
        guard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_ships_frames_between_sites() {
        let mut mesh = TcpMesh::localhost(3).unwrap();
        mesh.tx[0][2]
            .as_mut()
            .unwrap()
            .send_frame(METHOD_STORED, b"zero to two")
            .unwrap();
        mesh.tx[1][2]
            .as_mut()
            .unwrap()
            .send_frame(METHOD_STORED, b"one to two")
            .unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let (src, frame) = mesh.rx[2]
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("frame arrives");
            got.push((src, frame.unwrap().1));
        }
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
            let mut mesh = TcpMesh::localhost(4).unwrap();
            for dst in 1..4 {
                mesh.tx[0][dst]
                    .as_mut()
                    .unwrap()
                    .send_frame(METHOD_STORED, b"never read")
                    .unwrap();
            }
            drop(mesh); // readers shut down and joined here
        }
        // A fresh mesh after the drops still round-trips.
        let mut mesh = TcpMesh::localhost(2).unwrap();
        mesh.tx[1][0]
            .as_mut()
            .unwrap()
            .send_frame(METHOD_STORED, b"alive")
            .unwrap();
        let (src, frame) = mesh.rx[0]
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        assert_eq!((src, frame.unwrap().1), (1, b"alive".to_vec()));
    }

    #[test]
    fn peer_disconnect_mid_round_surfaces_as_inbox_error_not_panic() {
        // Site 1 vanishes (drop of its write half) while site 0 still
        // expects traffic: the reader exits cleanly; a *mid-frame* cut
        // forwards one Transport error into the inbox.
        let mut mesh = TcpMesh::localhost(2).unwrap();
        // Half a frame from 1 → 0, then hang up.
        let link = mesh.tx[1][0].as_mut().unwrap();
        link.stream.write_all(&9u32.to_le_bytes()).unwrap();
        link.stream.write_all(&[METHOD_STORED]).unwrap();
        link.stream.write_all(b"abc").unwrap();
        mesh.tx[1][0] = None; // disconnect mid-frame (the drop flushes the half frame)
        let (src, res) = mesh.rx[0]
            .recv_timeout(std::time::Duration::from_secs(5))
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
                ep.tx[0]
                    .as_mut()
                    .unwrap()
                    .send_frame(METHOD_STORED, format!("hi from {me}").as_bytes())
                    .unwrap();
                if me == 1 {
                    let (src, frame) = ep
                        .rx
                        .recv_timeout(std::time::Duration::from_secs(10))
                        .unwrap();
                    assert_eq!(src, 0);
                    assert_eq!(frame.unwrap().1, b"ack".to_vec());
                }
            }));
        }
        let mut ep = join_mesh(3, 0, base).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            let (src, frame) = ep
                .rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap();
            got.push((src, frame.unwrap().1));
        }
        got.sort();
        assert_eq!(
            got,
            vec![(1, b"hi from 1".to_vec()), (2, b"hi from 2".to_vec())]
        );
        ep.tx[1]
            .as_mut()
            .unwrap()
            .send_frame(METHOD_STORED, b"ack")
            .unwrap();
        for h in handles {
            h.join().unwrap();
        }
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
            // A header promising 64 bytes, then only 3 — and hang up.
            s.write_all(&65u32.to_le_bytes()).unwrap();
            s.write_all(&[METHOD_STORED]).unwrap();
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
