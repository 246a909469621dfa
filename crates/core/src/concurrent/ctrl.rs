//! Wire format of the concurrent runtime's control plane.
//!
//! Control frames carry no modeled `|M|` — every byte of them is harness
//! overhead — and are written, like the protocol frames, with the compact
//! primitives of [`cluster::net::bytes`] (canonical LEB128 varints,
//! zig-zag deltas, one-header cells). Every frame is **stateless**: it
//! decodes from its own bytes alone and nothing stays resident per link.
//!
//! # Layouts
//!
//! `v(x)` is a varint, `z(x)` a zig-zag varint, `cell` a
//! [`put_cell`] value.
//!
//! ```text
//! Ack          80
//! AckN(k)      87 v(k)
//! WaveDone(w)  82 v(w)                               from a site holding an
//!                                                    update of wave w only
//! WaveAdvance  83 v(w)                               wave w is closed: to
//!                                                    the sites holding an
//!                                                    update of wave w + 1,
//!                                                    after the last wave
//!                                                    to every site
//! Shutdown     86
//! Piggy(k, m)  89 v(k) <HorMsg frame of m>
//! Deferred     8a v(n) n × v(position << 1 | writes)
//!              v(m) m × (v(k) k × key)              a deferred delete's
//!                                                    footprint, in slice
//!                                                    order; a key is 4
//!                                                    bytes little-endian
//! Waves        8b v(n_waves) v(n) n × v(wave)
//! Failed       8c v(len) len × UTF-8 byte
//! Built        8d v(rows) v(marks) 16 × digest byte
//! Take         8e
//! Gather       8f                                    answered by an Ops
//!                                                    frame of inserts
//! Meters       84                                    answered by Metered
//!
//! Ops          81 v(n_ops)
//!              ⌈n_ops / 8⌉ × kind bits               op i is bit i mod 8 of
//!                                                    byte i / 8, set for a
//!                                                    delete; spare bits 0
//!              n_ops × z(tid − previous tid)         tid column
//!              v(arity)                              0 without inserts
//!              arity × column over the inserted rows, in slice order:
//!                00 rows × cell                      plain
//!                01 rows × (00 cell | v(i + 1))      dictionary: a literal
//!                                                    joins the column's
//!                                                    dictionary, i names
//!                                                    its i-th literal
//!
//! BatchResult  85 marks(added) marks(removed)        removed leaves out a
//!                                                    pure delete's marks
//!   marks      v(runs) runs × run                    a run: one CFD's marks,
//!                                                    tids ascending
//!   run        z(cfd − previous run's cfd) v(len)
//!              z(first tid − previous run's first tid)
//!              (len − 1) × v(tid − previous tid)
//!
//! Metered      88 cells(stats) cells(wire)
//!              v(frames) v(wire) v(modeled) v(structural) v(saved)
//!              v(received)
//!   cells      v(n) n × (v(dst) v(messages) v(bytes) v(eqids))
//! ```
//!
//! A `BatchResult` ships what only its site knows. Its `removed` leaves
//! out every mark `(c, t)` of a tid `t` the site's slice deletes and does
//! not insert — a *pure* delete: the coordinator derives those removals
//! from `V`, which holds `t`'s marks as the batch found them (a tid's
//! marks live only at its home, the deleting site). A modification that
//! re-inserts its tid at the same home ships its removals as any update
//! does: its row's marks may change rather than go.
//!
//! A column takes whichever of its two forms is shorter *in that frame*:
//! a repeated value costs one or two index bytes in dictionary form, an
//! all-distinct column stays plain and pays nothing for the option.
//! Frames of [`cluster::run::CTRL_LZ_MIN_BYTES`] or more are then
//! offered to `cluster::lz` by the node and kept packed when smaller.
//!
//! # Hostile input
//!
//! Every count is checked against the bytes left in the frame before it
//! sizes an allocation (an item is at least one byte), varints are
//! canonical, and the strings a dictionary column may *re*-materialize
//! are budgeted by [`MAX_FRAME_BYTES`] — one long literal referenced a
//! million times does not decode. Malformed frames are
//! [`ClusterError::Transport`], never a panic.

use crate::horizontal::order::DeferredList;
use crate::horizontal::HorMsg;
use cfd::{CfdId, Violations};
use cluster::md5::{md5, Digest};
use cluster::net::bytes::{cell_len, get_cell, put_cell, put_varint, unzigzag, zigzag, Reader};
use cluster::net::frame::MAX_FRAME_BYTES;
use cluster::net::FrameCodec;
use cluster::netstats::Counters;
use cluster::{ClusterError, SiteId, TransportMeter, Wire};
use relation::{Relation, Tid, Tuple, Update, Value};
use std::collections::hash_map::{Entry, HashMap};

const CT_ACK: u8 = 0x80;
const CT_OPS: u8 = 0x81;
const CT_DONE: u8 = 0x82;
const CT_ADVANCE: u8 = 0x83;
const CT_METERS: u8 = 0x84;
const CT_RESULT: u8 = 0x85;
const CT_SHUTDOWN: u8 = 0x86;
const CT_ACK_N: u8 = 0x87;
const CT_METERED: u8 = 0x88;
const CT_PIGGY: u8 = 0x89;
const CT_DEFERRED: u8 = 0x8a;
const CT_WAVES: u8 = 0x8b;
const CT_FAILED: u8 = 0x8c;
const CT_BUILT: u8 = 0x8d;
const CT_TAKE: u8 = 0x8e;
const CT_GATHER: u8 = 0x8f;

const COL_PLAIN: u8 = 0;
const COL_DICT: u8 = 1;

fn bad(what: &str) -> ClusterError {
    ClusterError::Transport(format!("malformed control frame: {what}"))
}

/// A site's settled `ΔV` slice for one batch, reported to the coordinator
/// at collection. Its meters stay at the site until asked for
/// ([`MeterImage`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct BatchImage {
    /// Marks this site added, net of its own removals, sorted.
    pub(crate) added: Vec<(CfdId, Tid)>,
    /// Marks this site removed, net of its own additions, sorted — but
    /// for the marks of the tids its slice deletes and does not insert,
    /// which the coordinator derives.
    pub(crate) removed: Vec<(CfdId, Tid)>,
}

/// A site's meters since it last answered a [`CtrlMsg::Meters`] request:
/// the site fills only its own row of each matrix, so its non-zero cells
/// are all there is to ship.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MeterImage {
    /// Non-zero cells of the site's row of the modeled-`|M|` matrix.
    pub(crate) stats: Vec<(SiteId, Counters)>,
    /// Non-zero cells of the site's row of the measured on-wire matrix.
    pub(crate) wire: Vec<(SiteId, Counters)>,
    /// The site's transport counters.
    pub(crate) meter: TransportMeter,
    /// Wire bytes of the frames the site took off its inbox.
    pub(crate) received: u64,
}

/// What a site's build left it, in a form two processes can compare: the
/// sizes of its fragment and of `V`'s marks on it, and one MD5 over both —
/// each row in tid order as its tid and its cells, then the marks sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct BuildPrint {
    /// Rows of the fragment.
    pub(crate) rows: u64,
    /// Marks of `V` on the fragment's rows.
    pub(crate) marks: u64,
    /// MD5 of the rows and the marks.
    pub(crate) digest: Digest,
}

impl BuildPrint {
    /// The fingerprint of a site holding `rows`, and the marks of `V`
    /// (`v`, whole) on them.
    pub(crate) fn of(rows: &Relation, v: &Violations) -> Self {
        let mut bytes = Vec::new();
        let store = rows.store();
        for (tid, row) in store.rows() {
            put_varint(&mut bytes, tid);
            store
                .row_syms(row)
                .for_each(|s| put_cell(&mut bytes, store.pool().resolve(s)));
        }
        let mut marks = v.marks_sorted();
        marks.retain(|&(_, tid)| rows.contains(tid));
        put_marks(&mut bytes, &marks);
        BuildPrint {
            rows: rows.len() as u64,
            marks: marks.len() as u64,
            digest: md5(&bytes),
        }
    }
}

impl std::fmt::Display for BuildPrint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (rows, marks, digest) = (self.rows, self.marks, self.digest.to_hex());
        write!(f, "{rows} rows and {marks} marks (MD5 {digest})")
    }
}

/// Runtime control traffic: a process's build fingerprint, batch hand-over,
/// the settle handshake, wave barriers, acks, result collection, the
/// gathers of `D` and of the meters, failure, shutdown. All structure —
/// `wire_size() == 0`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CtrlMsg {
    /// Generic round-closer where the protocol has no payload to reply.
    Ack,
    /// Cumulative ack: closes the `k` *oldest* outstanding rounds the
    /// receiver opened towards us (all served silently on our side).
    /// Never sent with `k == 0`, and never with `k == 1` either — a
    /// single owed round flushes as the smaller [`CtrlMsg::Ack`].
    AckN(u32),
    /// The coordinator ships a site process its slice of the batch, in
    /// batch order. (The coordinator itself never builds this variant: it
    /// writes the frame from the borrowed batch with [`encode_ops`].)
    Ops(Vec<Update>),
    /// A site thread's slice of the batch is in its in-process inlet:
    /// take it. The rows never cross the link; a site process, which has
    /// no inlet, gets [`CtrlMsg::Ops`] instead.
    Take,
    /// A site's settle pass is through: the slice positions, ascending, of
    /// the updates it left for the wave schedule, each with whether the
    /// update *writes* (creates or empties a local RHS class) or is
    /// class-preserving and only held behind one that shares a group key
    /// or its tid; and the footprint of each deferred delete, whose row
    /// only the site holds.
    Deferred(DeferredList),
    /// The coordinator's answer: the wave of each update the site
    /// deferred, in the order the site listed them. With `n_waves == 0`
    /// nobody deferred anything and the frame is the cue to cut the batch
    /// image.
    Waves {
        /// Waves of the batch, the same number at every site.
        n_waves: u32,
        /// One wave per deferred update, each below `n_waves`.
        waves: Vec<u32>,
    },
    /// A site finished its slice of the given wave — sent only for a wave
    /// the site holds an update of.
    WaveDone(u32),
    /// The coordinator releases the barrier of the given wave: to the
    /// sites holding an update of the next, or, after the last wave, to
    /// every site, as the cue to cut the batch image.
    WaveAdvance(u32),
    /// A site's batch image, less its pure deletes' removals.
    BatchResult(Box<BatchImage>),
    /// The coordinator asks a site for its meters, between batches. The
    /// site answers with [`CtrlMsg::Metered`] and zeroes them. Both ends
    /// take the exchange off their meters: it reports traffic, it is none.
    Meters,
    /// A site's answer to [`CtrlMsg::Meters`].
    Metered(Box<MeterImage>),
    /// A site's last words to the coordinator: its `serve` is returning
    /// this error.
    Failed(String),
    /// A site process's first words to the coordinator: what its build
    /// left it.
    Built(BuildPrint),
    /// The coordinator asks a site for its fragment, between batches. The
    /// site answers with an [`CtrlMsg::Ops`] frame of inserts, one per row
    /// it is home to, in tid order. Both ends take the exchange off their
    /// meters: it reads `D`, it is not `ΔD`'s.
    Gather,
    /// Tear the site down (end of session).
    Shutdown,
}

impl Wire for CtrlMsg {
    fn wire_size(&self) -> usize {
        0
    }
}

/// Write an `Ops` frame straight from borrowed updates: cells are read
/// where they lie, column by column, and no row is copied. Every
/// inserted row must have the arity of the first (the coordinator checks
/// rows against the schema before it schedules them).
pub(crate) fn encode_ops(out: &mut Vec<u8>, ops: &[&Update]) {
    out.push(CT_OPS);
    put_varint(out, ops.len() as u64);
    for byte in ops.chunks(8) {
        let bit = |(i, op): (usize, &&Update)| u8::from(matches!(op, Update::Delete(_))) << i;
        out.push(byte.iter().enumerate().map(bit).sum());
    }
    let mut prev: Tid = 0;
    for op in ops {
        put_varint(out, zigzag(op.tid().wrapping_sub(prev) as i64));
        prev = op.tid();
    }
    let rows: Vec<&Tuple> = ops
        .iter()
        .filter_map(|op| match op {
            Update::Insert(t) => Some(t),
            Update::Delete(_) => None,
        })
        .collect();
    let arity = rows.first().map_or(0, |t| t.values.len());
    assert!(
        rows.iter().all(|t| t.values.len() == arity),
        "rows of one slice share one schema"
    );
    put_varint(out, arity as u64);
    // Keyed by caller-supplied values: keep the collision-resistant
    // default hasher.
    let mut seen: HashMap<&Value, u64> = HashMap::new();
    let mut dict_form = Vec::new();
    for a in 0..arity {
        seen.clear();
        dict_form.clear();
        let mut plain_len = 0;
        for t in &rows {
            let v = &t.values[a];
            plain_len += cell_len(v);
            let next = seen.len() as u64 + 1;
            match seen.entry(v) {
                Entry::Occupied(e) => put_varint(&mut dict_form, *e.get()),
                Entry::Vacant(e) => {
                    e.insert(next);
                    dict_form.push(0);
                    put_cell(&mut dict_form, v);
                }
            }
        }
        if dict_form.len() < plain_len {
            out.push(COL_DICT);
            out.extend_from_slice(&dict_form);
        } else {
            out.push(COL_PLAIN);
            for t in &rows {
                put_cell(out, &t.values[a]);
            }
        }
    }
}

fn get_u32(r: &mut Reader<'_>) -> Result<u32, ClusterError> {
    u32::try_from(r.varint()?).map_err(|_| bad("32-bit field out of range"))
}

/// Decode the body of an `Ops` frame; `budget` bounds the string bytes
/// dictionary references may re-materialize.
fn decode_ops(r: &mut Reader<'_>, mut budget: usize) -> Result<CtrlMsg, ClusterError> {
    // Every op has a tid byte ahead, so the count cannot outgrow the frame.
    let n = r.count()?;
    let bits = r.take(n.div_ceil(8))?;
    let is_delete = |i: usize| bits[i / 8] >> (i % 8) & 1 == 1;
    if n % 8 != 0 && bits[n / 8] >> (n % 8) != 0 {
        return Err(bad("spare kind bits set"));
    }
    let mut tids = Vec::with_capacity(n);
    let mut prev: Tid = 0;
    for _ in 0..n {
        prev = prev.wrapping_add(unzigzag(r.varint()?) as u64);
        tids.push(prev);
    }
    let arity = r.count()?;
    let n_rows = (0..n).filter(|&i| !is_delete(i)).count();
    if n_rows == 0 && arity != 0 {
        return Err(bad("columns without rows"));
    }
    // A cell is at least one byte: the rows cannot outgrow the frame.
    match n_rows.checked_mul(arity) {
        Some(cells) if cells <= r.remaining() => {}
        _ => return Err(bad("row count exceeds the frame")),
    }
    let mut rows: Vec<Vec<Value>> = (0..n_rows).map(|_| Vec::with_capacity(arity)).collect();
    let mut literals: Vec<usize> = Vec::new();
    for a in 0..arity {
        match r.u8()? {
            COL_PLAIN => {
                for row in &mut rows {
                    row.push(get_cell(r)?);
                }
            }
            COL_DICT => {
                // `literals[i]`: the row holding the column's i-th literal.
                literals.clear();
                for i in 0..n_rows {
                    let v = match usize::try_from(r.varint()?) {
                        Ok(0) => {
                            literals.push(i);
                            get_cell(r)?
                        }
                        Ok(k) => {
                            let v = literals
                                .get(k - 1)
                                .map(|&row| &rows[row][a])
                                .ok_or_else(|| bad("dictionary index out of range"))?;
                            if let Value::Str(s) = v {
                                budget = budget.checked_sub(s.len()).ok_or_else(|| {
                                    bad("dictionary column expands past the frame limit")
                                })?;
                            }
                            v.clone()
                        }
                        Err(_) => return Err(bad("dictionary index out of range")),
                    };
                    rows[i].push(v);
                }
            }
            _ => return Err(bad("unknown column form")),
        }
    }
    let mut rows = rows.into_iter();
    let op = |(i, tid)| match is_delete(i) {
        true => Ok(Update::Delete(tid)),
        false => {
            let row = rows.next().ok_or_else(|| bad("an insert with no row"))?;
            Ok(Update::Insert(Tuple::new(tid, row)))
        }
    };
    let ops = tids.into_iter().enumerate().map(op);
    Ok(CtrlMsg::Ops(ops.collect::<Result<_, _>>()?))
}

fn get_deferred(r: &mut Reader<'_>) -> Result<DeferredList, ClusterError> {
    let n = r.count()?;
    let mut updates = Vec::with_capacity(n);
    for _ in 0..n {
        let x = r.varint()?;
        let pos = u32::try_from(x >> 1).map_err(|_| bad("position out of range"))?;
        updates.push((pos, x & 1 == 1));
    }
    let n = r.count()?;
    let mut footprints = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.count()?;
        footprints.push((0..k).map(|_| r.u32()).collect::<Result<_, _>>()?);
    }
    Ok(DeferredList {
        updates,
        footprints,
    })
}

/// Marks as runs: a run is a stretch of one CFD's marks with ascending
/// tids (a sorted list has one per CFD), its CFD and first tid written as
/// deltas from the run before, the rest of its tids as gaps.
fn put_marks(out: &mut Vec<u8>, marks: &[(CfdId, Tid)]) {
    let runs = || marks.chunk_by(|a, b| a.0 == b.0 && a.1 < b.1);
    put_varint(out, runs().count() as u64);
    let (mut prev_c, mut prev_t) = (0i64, 0 as Tid);
    for run in runs() {
        let (c, first) = run[0];
        put_varint(out, zigzag(i64::from(c) - prev_c));
        put_varint(out, run.len() as u64);
        put_varint(out, zigzag(first.wrapping_sub(prev_t) as i64));
        for pair in run.windows(2) {
            put_varint(out, pair[1].1 - pair[0].1);
        }
        (prev_c, prev_t) = (i64::from(c), first);
    }
}

fn get_marks(r: &mut Reader<'_>) -> Result<Vec<(CfdId, Tid)>, ClusterError> {
    let runs = r.count()?;
    let mut marks = Vec::new();
    let (mut prev_c, mut prev_t) = (0i64, 0 as Tid);
    for _ in 0..runs {
        prev_c = prev_c
            .checked_add(unzigzag(r.varint()?))
            .filter(|c| CfdId::try_from(*c).is_ok())
            .ok_or_else(|| bad("CFD id out of range"))?;
        // Every tid of the run is at least one byte.
        let len = r.count()?;
        if len == 0 {
            return Err(bad("an empty run of marks"));
        }
        marks.reserve(len);
        prev_t = prev_t.wrapping_add(unzigzag(r.varint()?) as u64);
        let c = prev_c as CfdId;
        let mut t = prev_t;
        marks.push((c, t));
        for _ in 1..len {
            let gap = r.varint()?;
            t = t
                .checked_add(gap)
                .filter(|_| gap > 0)
                .ok_or_else(|| bad("a tid gap of zero or past the last tid"))?;
            marks.push((c, t));
        }
    }
    Ok(marks)
}

fn put_cells(out: &mut Vec<u8>, cells: &[(SiteId, Counters)]) {
    put_varint(out, cells.len() as u64);
    for (dst, c) in cells {
        for x in [*dst as u64, c.messages, c.bytes, c.eqids] {
            put_varint(out, x);
        }
    }
}

fn get_cells(r: &mut Reader<'_>) -> Result<Vec<(SiteId, Counters)>, ClusterError> {
    let n = r.count()?;
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let dst = SiteId::try_from(r.varint()?).map_err(|_| bad("site id out of range"))?;
        let c = Counters {
            messages: r.varint()?,
            bytes: r.varint()?,
            eqids: r.varint()?,
        };
        cells.push((dst, c));
    }
    Ok(cells)
}

impl FrameCodec for CtrlMsg {
    fn encode_frame(&self, out: &mut Vec<u8>) {
        match self {
            CtrlMsg::Ack => out.push(CT_ACK),
            CtrlMsg::AckN(k) => {
                out.push(CT_ACK_N);
                put_varint(out, u64::from(*k));
            }
            CtrlMsg::Ops(ops) => encode_ops(out, &ops.iter().collect::<Vec<_>>()),
            CtrlMsg::Take => out.push(CT_TAKE),
            CtrlMsg::Deferred(deferred) => {
                out.push(CT_DEFERRED);
                put_varint(out, deferred.updates.len() as u64);
                for &(pos, writes) in &deferred.updates {
                    put_varint(out, (u64::from(pos) << 1) | u64::from(writes));
                }
                put_varint(out, deferred.footprints.len() as u64);
                for keys in &deferred.footprints {
                    put_varint(out, keys.len() as u64);
                    keys.iter()
                        .for_each(|k| out.extend_from_slice(&k.to_le_bytes()));
                }
            }
            CtrlMsg::Waves { n_waves, waves } => {
                out.push(CT_WAVES);
                put_varint(out, u64::from(*n_waves));
                put_varint(out, waves.len() as u64);
                for &w in waves {
                    put_varint(out, u64::from(w));
                }
            }
            CtrlMsg::WaveDone(w) => {
                out.push(CT_DONE);
                put_varint(out, u64::from(*w));
            }
            CtrlMsg::WaveAdvance(w) => {
                out.push(CT_ADVANCE);
                put_varint(out, u64::from(*w));
            }
            CtrlMsg::BatchResult(img) => {
                out.push(CT_RESULT);
                put_marks(out, &img.added);
                put_marks(out, &img.removed);
            }
            CtrlMsg::Meters => out.push(CT_METERS),
            CtrlMsg::Metered(img) => {
                out.push(CT_METERED);
                put_cells(out, &img.stats);
                put_cells(out, &img.wire);
                let m = &img.meter;
                for x in [
                    m.frames,
                    m.wire_bytes,
                    m.modeled_bytes,
                    m.structural_bytes,
                    m.saved_bytes,
                    img.received,
                ] {
                    put_varint(out, x);
                }
            }
            CtrlMsg::Failed(cause) => {
                out.push(CT_FAILED);
                put_varint(out, cause.len() as u64);
                out.extend_from_slice(cause.as_bytes());
            }
            CtrlMsg::Built(print) => {
                out.push(CT_BUILT);
                put_varint(out, print.rows);
                put_varint(out, print.marks);
                out.extend_from_slice(&print.digest.0);
            }
            CtrlMsg::Gather => out.push(CT_GATHER),
            CtrlMsg::Shutdown => out.push(CT_SHUTDOWN),
        }
    }

    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
        let mut r = Reader::new(body);
        let msg = match r.u8()? {
            CT_ACK => CtrlMsg::Ack,
            CT_ACK_N => CtrlMsg::AckN(get_u32(&mut r)?),
            CT_OPS => decode_ops(&mut r, MAX_FRAME_BYTES)?,
            CT_TAKE => CtrlMsg::Take,
            CT_DONE => CtrlMsg::WaveDone(get_u32(&mut r)?),
            CT_ADVANCE => CtrlMsg::WaveAdvance(get_u32(&mut r)?),
            CT_DEFERRED => CtrlMsg::Deferred(get_deferred(&mut r)?),
            CT_WAVES => {
                let n_waves = get_u32(&mut r)?;
                let n = r.count()?;
                let waves = (0..n).map(|_| get_u32(&mut r)).collect::<Result<_, _>>()?;
                CtrlMsg::Waves { n_waves, waves }
            }
            CT_FAILED => {
                let len = r.count()?;
                let cause = String::from_utf8(r.take(len)?.to_vec());
                CtrlMsg::Failed(cause.map_err(|_| bad("cause is not UTF-8"))?)
            }
            CT_RESULT => CtrlMsg::BatchResult(Box::new(BatchImage {
                added: get_marks(&mut r)?,
                removed: get_marks(&mut r)?,
            })),
            CT_METERS => CtrlMsg::Meters,
            CT_METERED => CtrlMsg::Metered(Box::new(MeterImage {
                stats: get_cells(&mut r)?,
                wire: get_cells(&mut r)?,
                meter: TransportMeter {
                    frames: r.varint()?,
                    wire_bytes: r.varint()?,
                    modeled_bytes: r.varint()?,
                    structural_bytes: r.varint()?,
                    saved_bytes: r.varint()?,
                },
                received: r.varint()?,
            })),
            CT_BUILT => {
                let (rows, marks) = (r.varint()?, r.varint()?);
                let mut digest = Digest::default();
                digest.0.copy_from_slice(r.take(Digest::WIRE_SIZE)?);
                CtrlMsg::Built(BuildPrint {
                    rows,
                    marks,
                    digest,
                })
            }
            CT_GATHER => CtrlMsg::Gather,
            CT_SHUTDOWN => CtrlMsg::Shutdown,
            t => return Err(bad(&format!("unknown tag {t:#x}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Frame dispatcher for a running site: protocol frames ([`HorMsg`],
/// first byte `< 0x80`) and control frames ([`CtrlMsg`], `>= 0x80`)
/// share each inbound link.
#[derive(Debug)]
pub(crate) enum RtFrame {
    /// A §6 protocol message.
    Hor(HorMsg),
    /// A runtime control message.
    Ctrl(CtrlMsg),
    /// A §6 protocol message carrying a piggybacked cumulative ack:
    /// close the `k` oldest outstanding rounds towards the sender, then
    /// process the payload. The envelope is pure structure — modeled
    /// `|M|` is the carried message's.
    Piggy(u32, HorMsg),
}

impl Wire for RtFrame {
    fn wire_size(&self) -> usize {
        match self {
            RtFrame::Hor(m) | RtFrame::Piggy(_, m) => m.wire_size(),
            RtFrame::Ctrl(m) => m.wire_size(),
        }
    }
}

impl FrameCodec for RtFrame {
    fn encode_frame(&self, out: &mut Vec<u8>) {
        match self {
            RtFrame::Hor(m) => m.encode_frame(out),
            RtFrame::Ctrl(m) => m.encode_frame(out),
            RtFrame::Piggy(k, m) => {
                out.push(CT_PIGGY);
                put_varint(out, u64::from(*k));
                m.encode_frame(out);
            }
        }
    }

    fn decode_frame(body: &[u8]) -> Result<Self, ClusterError> {
        match body.first() {
            None => Err(bad("empty frame body")),
            Some(&CT_PIGGY) => {
                let mut r = Reader::new(&body[1..]);
                let k = get_u32(&mut r)?;
                let rest = r.take(r.remaining())?;
                Ok(RtFrame::Piggy(k, HorMsg::decode_frame(rest)?))
            }
            Some(&t) if t >= 0x80 => Ok(RtFrame::Ctrl(CtrlMsg::decode_frame(body)?)),
            Some(_) => Ok(RtFrame::Hor(HorMsg::decode_frame(body)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded generator for the property tests (no `rand` offline).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize].clone()
        }
    }

    /// Column 0 is all-distinct, column 1 holds a single value, the rest
    /// draw from a small pool of awkward values.
    fn cell(rng: &mut Lcg, col: usize, row: usize) -> Value {
        match col {
            0 => Value::int([i64::MIN, i64::MAX, -1, 0][row % 4].wrapping_add(row as i64 / 4)),
            1 => Value::str("the one value"),
            _ => rng.pick(&[
                Value::Null,
                Value::int(-987_654_321),
                Value::int(i64::MIN),
                Value::int(i64::MAX),
                Value::int(7),
                Value::str(""),
                Value::str("EH4 8LE"),
                Value::str("ünïcodé — 东京"),
            ]),
        }
    }

    fn ops_frame(rng: &mut Lcg, shape: u64) -> CtrlMsg {
        let n_ops = rng.below(40) as usize;
        let arity = rng.pick(&[0, 1, 2, 3, 7]);
        let mut n_rows = 0;
        let ops = (0..n_ops)
            .map(|_| {
                // Tids out of order, the extremes included.
                let (wild, near) = (rng.next(), rng.below(100));
                let tid = rng.pick(&[0, 1, u64::MAX, wild, near]);
                let is_delete = match shape % 3 {
                    0 => true,
                    1 => false,
                    _ => rng.below(3) == 0,
                };
                if is_delete {
                    Update::Delete(tid)
                } else {
                    n_rows += 1;
                    let values = (0..arity).map(|a| cell(rng, a, n_rows - 1)).collect();
                    Update::Insert(Tuple::new(tid, values))
                }
            })
            .collect();
        CtrlMsg::Ops(ops)
    }

    /// A settle handshake: ascending positions with gaps of every varint
    /// width, footprints of no key to many, and the schedule that answers
    /// it.
    fn handshake_frames(rng: &mut Lcg) -> [CtrlMsg; 2] {
        let mut pos = 0u32;
        let updates: Vec<(u32, bool)> = (0..rng.below(30))
            .map(|_| {
                pos = pos.saturating_add(rng.pick(&[1, 1, 2, 63, 64, 9_000, 1 << 21, 1 << 29]));
                (pos - 1, rng.below(2) == 1)
            })
            .collect();
        let footprints = (0..rng.below(updates.len() as u64 + 1))
            .map(|_| {
                let n_keys = rng.pick(&[0, 1, 3, 17]);
                (0..n_keys)
                    .map(|_| {
                        let wild = rng.next() as u32;
                        rng.pick(&[0, 1, u32::MAX, wild])
                    })
                    .collect()
            })
            .collect();
        let n_waves = rng.pick(&[0, 1, 2, 127, 128, u32::MAX]);
        let below = u64::from(n_waves).max(1);
        let waves = updates.iter().map(|_| rng.below(below) as u32).collect();
        let deferred = DeferredList {
            updates,
            footprints,
        };
        [
            CtrlMsg::Deferred(deferred),
            CtrlMsg::Waves { n_waves, waves },
        ]
    }

    fn result_frame(rng: &mut Lcg) -> CtrlMsg {
        let marks = |rng: &mut Lcg| -> Vec<(CfdId, Tid)> {
            (0..rng.below(20))
                .map(|_| {
                    let wild = rng.next();
                    (
                        rng.pick(&[0, 1, 2, 1023, u32::MAX]),
                        rng.pick(&[0, 5, 6, u64::MAX, wild]),
                    )
                })
                .collect()
        };
        let (added, removed) = (marks(rng), marks(rng));
        CtrlMsg::BatchResult(Box::new(BatchImage { added, removed }))
    }

    fn meters_frame(rng: &mut Lcg) -> CtrlMsg {
        let cells = |rng: &mut Lcg| -> Vec<(SiteId, Counters)> {
            (0..rng.below(4))
                .map(|dst| {
                    let c = Counters {
                        messages: rng.below(1 << 20),
                        bytes: rng.pick(&[0, 300, u64::MAX]),
                        eqids: rng.below(3),
                    };
                    (dst as SiteId, c)
                })
                .collect()
        };
        let (stats, wire) = (cells(rng), cells(rng));
        CtrlMsg::Metered(Box::new(MeterImage {
            stats,
            wire,
            meter: TransportMeter {
                frames: rng.below(1000),
                wire_bytes: rng.next(),
                modeled_bytes: rng.below(1 << 40),
                structural_bytes: u64::MAX,
                saved_bytes: 0,
            },
            received: rng.next(),
        }))
    }

    fn encoded(m: &CtrlMsg) -> Vec<u8> {
        let mut buf = Vec::new();
        m.encode_frame(&mut buf);
        assert_eq!(m.wire_size(), 0, "control frames model nothing");
        buf
    }

    #[test]
    fn ctrl_frames_round_trip() {
        let row = |tid: Tid, street: &str| {
            Update::Insert(Tuple::new(
                tid,
                vec![Value::int(tid as i64), Value::str(street), Value::Null],
            ))
        };
        let msgs = vec![
            CtrlMsg::Ack,
            CtrlMsg::AckN(2),
            CtrlMsg::AckN(129),
            CtrlMsg::AckN(u32::MAX),
            CtrlMsg::Ops(vec![
                row(7, "Mayfield"),
                Update::Delete(9),
                row(3, "Mayfield"),
            ]),
            CtrlMsg::Ops(Vec::new()),
            // Nine ops: the kind bits spill into a second byte.
            CtrlMsg::Ops((0..9).map(|i| Update::Delete(i * i)).collect()),
            CtrlMsg::Take,
            CtrlMsg::Gather,
            CtrlMsg::Deferred(DeferredList::default()),
            CtrlMsg::Deferred(DeferredList {
                updates: vec![(0, true), (1, false), (4_095, true), (u32::MAX, false)],
                footprints: vec![vec![], vec![7, u32::MAX, 0]],
            }),
            CtrlMsg::Waves {
                n_waves: 0,
                waves: Vec::new(),
            },
            CtrlMsg::Waves {
                n_waves: 300,
                waves: vec![0, 0, 299, 7],
            },
            CtrlMsg::WaveDone(4),
            CtrlMsg::WaveAdvance(300),
            CtrlMsg::Failed(String::new()),
            CtrlMsg::Failed("link 0 → 1: Waves names wave 9 of 2 — ünïcodé".into()),
            CtrlMsg::Built(BuildPrint::default()),
            CtrlMsg::Built(BuildPrint {
                rows: 40_000,
                marks: u64::MAX,
                digest: md5(b"a fragment"),
            }),
            CtrlMsg::BatchResult(Box::default()),
            CtrlMsg::BatchResult(Box::new(BatchImage {
                added: vec![(0, 1), (1, 2)],
                removed: vec![(0, 9)],
            })),
            CtrlMsg::Meters,
            CtrlMsg::Metered(Box::default()),
            CtrlMsg::Metered(Box::new(MeterImage {
                stats: vec![(
                    2,
                    Counters {
                        messages: 3,
                        bytes: 120,
                        eqids: 1,
                    },
                )],
                wire: Vec::new(),
                meter: TransportMeter {
                    frames: 1,
                    wire_bytes: 2,
                    modeled_bytes: 3,
                    structural_bytes: 4,
                    saved_bytes: 5,
                },
                received: 6,
            })),
            CtrlMsg::Shutdown,
        ];
        for m in msgs {
            let buf = encoded(&m);
            assert_eq!(CtrlMsg::decode_frame(&buf).unwrap(), m);
            // The runtime dispatcher routes it to the ctrl arm.
            match RtFrame::decode_frame(&buf).unwrap() {
                RtFrame::Ctrl(c) => assert_eq!(c, m),
                RtFrame::Hor(_) | RtFrame::Piggy(..) => {
                    panic!("ctrl frame dispatched as protocol")
                }
            }
        }
        // Barriers and acks are two bytes where they were five; a slice
        // handed over in memory is a tag, and so is a request for a
        // fragment or for meters; a deferred update costs a byte each way in a steady
        // batch's slice, a deferred delete its footprint besides (a count
        // and four bytes a key), and eight ops share a kind byte.
        assert_eq!(encoded(&CtrlMsg::WaveDone(4)).len(), 2);
        assert_eq!(encoded(&CtrlMsg::Take).len(), 1);
        assert_eq!(encoded(&CtrlMsg::Gather).len(), 1);
        assert_eq!(encoded(&CtrlMsg::Meters).len(), 1);
        assert_eq!(encoded(&CtrlMsg::AckN(2)).len(), 2);
        let deferred = |footprints| {
            let updates = vec![(3, true), (63, false)];
            encoded(&CtrlMsg::Deferred(DeferredList {
                updates,
                footprints,
            }))
        };
        assert_eq!(deferred(vec![]).len(), 5);
        assert_eq!(deferred(vec![vec![1, 2, 3]]).len(), 5 + 1 + 3 * 4);
        let waves = vec![0, 1];
        assert_eq!(encoded(&CtrlMsg::Waves { n_waves: 2, waves }).len(), 5);
        let deletes = |n| CtrlMsg::Ops((0..n).map(Update::Delete).collect());
        assert_eq!(encoded(&deletes(8)).len(), 2 + 1 + 8 + 1);
        assert_eq!(encoded(&deletes(9)).len(), 2 + 2 + 9 + 1);
    }

    #[test]
    fn seeded_frames_round_trip() {
        for seed in 0..300 {
            let mut rng = Lcg(seed);
            let ops = ops_frame(&mut rng, seed);
            let [deferred, waves] = handshake_frames(&mut rng);
            let (result, meters) = (result_frame(&mut rng), meters_frame(&mut rng));
            for m in [ops, result, meters, deferred, waves] {
                let buf = encoded(&m);
                assert_eq!(CtrlMsg::decode_frame(&buf).unwrap(), m, "seed {seed}");
                // The borrowed encoder writes the very same frame.
                if let CtrlMsg::Ops(ops) = &m {
                    let mut direct = Vec::new();
                    encode_ops(&mut direct, &ops.iter().collect::<Vec<_>>());
                    assert_eq!(direct, buf, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn columns_take_the_shorter_form() {
        let ops: Vec<Update> = (0..64)
            .map(|i| {
                let values = vec![
                    Value::int(1_000_000 + i),
                    Value::str("SHIP MODE"),
                    Value::str(if i % 8 == 0 { "RAIL" } else { "TRUCK" }),
                ];
                Update::Insert(Tuple::new(i as Tid, values))
            })
            .collect();
        let buf = encoded(&CtrlMsg::Ops(ops));
        // Header 2, kinds 8, tids 64, arity 1; the distinct ints stay
        // plain (1 + 64 × 4), the constant costs one literal and 63
        // one-byte indices, the two-valued column two literals and 62.
        let plain = 1 + 64 * 4;
        let constant = 1 + (1 + 10) + 63;
        let two_valued = 1 + (1 + 5) + (1 + 6) + 62;
        assert_eq!(buf.len(), 2 + 8 + 64 + 1 + plain + constant + two_valued);
        assert_eq!(buf[75], COL_PLAIN);
        assert_eq!(buf[75 + plain], COL_DICT);
    }

    /// A handful of valid frames exercising every decoder branch.
    fn specimens() -> Vec<Vec<u8>> {
        let mut rng = Lcg(0xC0FFEE);
        let mut frames: Vec<Vec<u8>> = (0..6u64)
            .flat_map(|shape| {
                let ops = encoded(&ops_frame(&mut rng, shape));
                let result = encoded(&result_frame(&mut rng));
                let meters = encoded(&meters_frame(&mut rng));
                let [deferred, waves] = handshake_frames(&mut rng);
                [ops, result, meters, encoded(&deferred), encoded(&waves)]
            })
            .collect();
        frames.push(encoded(&CtrlMsg::AckN(1 << 20)));
        frames.push(encoded(&CtrlMsg::Take));
        frames.push(encoded(&CtrlMsg::Gather));
        frames.push(encoded(&CtrlMsg::Meters));
        frames.push(encoded(&CtrlMsg::WaveAdvance(77)));
        frames.push(encoded(&CtrlMsg::Failed("site 3: ünïcodé".into())));
        let print = BuildPrint {
            rows: 300,
            marks: 1 << 40,
            digest: md5(b"site 2"),
        };
        frames.push(encoded(&CtrlMsg::Built(print)));
        let mut piggy = Vec::new();
        RtFrame::Piggy(
            300,
            HorMsg::ProbeReply {
                conflicts: vec![3, 5],
            },
        )
        .encode_frame(&mut piggy);
        frames.push(piggy);
        frames
    }

    #[test]
    fn truncated_and_mutated_frames_error_not_panic() {
        for frame in specimens() {
            assert!(RtFrame::decode_frame(&frame).is_ok());
            // A strict prefix always lacks a byte its counts promised.
            for cut in 0..frame.len() {
                assert!(
                    RtFrame::decode_frame(&frame[..cut]).is_err(),
                    "prefix {cut} of {frame:02x?} decoded"
                );
            }
            // A flipped byte either fails to decode or decodes to some
            // other well-formed message — one that survives its own
            // round trip — but never panics.
            for at in 0..frame.len() {
                for mask in [0x01, 0x40, 0x80, 0xff] {
                    let mut bent = frame.clone();
                    bent[at] ^= mask;
                    if let Ok(RtFrame::Ctrl(m)) = RtFrame::decode_frame(&bent) {
                        assert_eq!(CtrlMsg::decode_frame(&encoded(&m)).unwrap(), m);
                    }
                }
            }
        }
    }

    /// The kind bits of an `Ops` frame say which ops carry a row. Each bit
    /// flipped in turn, the spare ones included, decodes to a typed error
    /// or to a slice whose every insert carries a row of the frame's arity.
    #[test]
    fn flipped_kind_bits_are_a_typed_error_or_a_row_per_insert() {
        let row = |tid, v| Update::Insert(Tuple::new(tid, vec![Value::int(v), Value::str("x")]));
        let ops = vec![row(1, 5), Update::Delete(2), row(3, 7), Update::Delete(4)];
        let frame = encoded(&CtrlMsg::Ops(ops));
        // The tag, the op count, then the kind bits.
        for bit in 0..8 {
            let mut bent = frame.clone();
            bent[2] ^= 1 << bit;
            match CtrlMsg::decode_frame(&bent) {
                Ok(CtrlMsg::Ops(ops)) => {
                    let rows = ops.iter().filter_map(|op| match op {
                        Update::Insert(t) => Some(t.values.len()),
                        Update::Delete(_) => None,
                    });
                    assert!(rows.into_iter().all(|arity| arity == 2), "bit {bit}");
                }
                Ok(other) => panic!("bit {bit}: decoded {other:?}"),
                Err(e) => assert!(matches!(e, ClusterError::Transport(_)), "bit {bit}: {e}"),
            }
        }
    }

    #[test]
    fn lying_counts_cannot_drive_allocation() {
        let huge = |out: &mut Vec<u8>| put_varint(out, 1 << 40);
        // An op count, a row count (via arity), a mark count, a cell
        // count, a deferred count, a wave count and a cause length the
        // frame cannot hold are
        // refused before anything is reserved; a build fingerprint's counts
        // size nothing, and its digest must still be there.
        for head in [
            vec![CT_OPS],
            vec![CT_OPS, 2, 0, 2, 2],
            vec![CT_RESULT],
            vec![CT_METERED],
            vec![CT_METERED, 0],
            vec![CT_DEFERRED],
            vec![CT_WAVES, 1],
            vec![CT_FAILED],
            vec![CT_BUILT],
            vec![CT_BUILT, 3],
        ] {
            let mut frame = head;
            huge(&mut frame);
            frame.extend([COL_PLAIN; 4]);
            assert!(CtrlMsg::decode_frame(&frame).is_err(), "{frame:02x?}");
        }
        // Columns without a row to fill, a spare kind bit set, a
        // dictionary index before its literal, an unknown column form, a
        // position past 32 bits, a cause that is not UTF-8.
        assert!(CtrlMsg::decode_frame(&[CT_OPS, 1, 0, 2, 1, COL_PLAIN, 0]).is_ok());
        assert!(CtrlMsg::decode_frame(&[CT_OPS, 1, 1, 2, 1, COL_PLAIN]).is_err());
        assert!(CtrlMsg::decode_frame(&[CT_OPS, 1, 2, 2, 1, COL_PLAIN, 0]).is_err());
        assert!(CtrlMsg::decode_frame(&[CT_OPS, 1, 0, 2, 1, COL_DICT, 1]).is_err());
        assert!(CtrlMsg::decode_frame(&[CT_OPS, 1, 0, 2, 1, 7, 0]).is_err());
        let mut far = vec![CT_DEFERRED, 1];
        put_varint(&mut far, 1 << 33);
        assert!(CtrlMsg::decode_frame(&far).is_err());
        assert!(CtrlMsg::decode_frame(&[CT_FAILED, 2, 0xc3, 0x28]).is_err());
        // Counts past anything a site holds are only numbers: the frame
        // decodes, and the coordinator's comparison refuses it.
        let mut lying = vec![CT_BUILT];
        huge(&mut lying);
        huge(&mut lying);
        lying.extend([0; 16]);
        let lied = CtrlMsg::Built(BuildPrint {
            rows: 1 << 40,
            marks: 1 << 40,
            digest: Digest::default(),
        });
        assert_eq!(CtrlMsg::decode_frame(&lying).unwrap(), lied);
        lying.push(0);
        assert!(
            CtrlMsg::decode_frame(&lying).is_err(),
            "a byte past the digest"
        );
        // A CFD id that leaves the 32-bit range, in a run of one mark at
        // tid 0 ahead of an empty `removed`: refused, where CFD 0 is not.
        let cfd = |c: i64| {
            let mut frame = vec![CT_RESULT, 1];
            put_varint(&mut frame, zigzag(c));
            frame.extend([1, 0, 0]);
            CtrlMsg::decode_frame(&frame)
        };
        assert!(cfd(0).is_ok());
        assert!(cfd(1 << 32).is_err());
        // A run of marks: one run of CFD 0 from tid 5, then `tail`, then
        // an empty `removed`.
        let image = |len: u8, tail: &[u8]| {
            let mut frame = vec![CT_RESULT, 1, 0, len, zigzag(5) as u8];
            frame.extend_from_slice(tail);
            frame.push(0);
            CtrlMsg::decode_frame(&frame)
        };
        let marks = |m: CtrlMsg| match m {
            CtrlMsg::BatchResult(img) => img.added,
            other => panic!("decoded {other:?}"),
        };
        assert_eq!(marks(image(3, &[1, 4]).unwrap()), [(0, 5), (0, 6), (0, 10)]);
        // A run longer than the bytes left, an empty run, a tid gap of zero
        // (runs ascend), a tid past `u64::MAX`.
        let mut long = vec![CT_RESULT, 1, 0];
        huge(&mut long);
        long.extend([0; 12]);
        assert!(CtrlMsg::decode_frame(&long).is_err());
        assert!(image(0, &[]).is_err());
        assert!(image(2, &[0]).is_err());
        let mut past = Vec::new();
        put_varint(&mut past, u64::MAX - 4);
        assert!(image(2, &past).is_err());
        past.clear();
        put_varint(&mut past, u64::MAX - 6);
        assert_eq!(marks(image(2, &past).unwrap()), [(0, 5), (0, u64::MAX - 1)]);
        // A footprint longer than the bytes left, and one cut short inside
        // its second 4-byte key, at each of its three bytes.
        let mut keys = vec![CT_DEFERRED, 0, 1];
        huge(&mut keys);
        assert!(CtrlMsg::decode_frame(&keys).is_err());
        let whole = [&[CT_DEFERRED, 0, 1, 2][..], &[7; 8]].concat();
        assert!(CtrlMsg::decode_frame(&whole).is_ok());
        for cut in 5..8 {
            let cut = &whole[..whole.len() - 8 + cut];
            assert!(CtrlMsg::decode_frame(cut).is_err(), "{cut:02x?}");
        }

        // One long literal referenced over and over must not expand
        // past the budget: 1 literal + 9 references of 100 bytes.
        let ops: Vec<Update> = (0..10)
            .map(|i| Update::Insert(Tuple::new(i, vec![Value::str("x".repeat(100))])))
            .collect();
        let frame = encoded(&CtrlMsg::Ops(ops));
        let body = |budget| decode_ops(&mut Reader::new(&frame[1..]), budget);
        assert!(body(900).is_ok());
        assert!(body(899).is_err());
    }

    #[test]
    fn piggy_envelope_keeps_the_carried_frames_modeled_size() {
        let inner = HorMsg::ProbeReply {
            conflicts: vec![3, 5, 8],
        };
        let plain_size = inner.wire_size();
        let mut plain = Vec::new();
        inner.encode_frame(&mut plain);
        let wrapped = RtFrame::Piggy(42, inner);
        // Modeled |M| is the carried message's — the envelope adds only
        // frame bytes (tag + varint count = 2 bytes here).
        assert_eq!(wrapped.wire_size(), plain_size);
        let mut buf = Vec::new();
        wrapped.encode_frame(&mut buf);
        assert_eq!(buf.len(), plain.len() + 2);
        assert_eq!(buf[2..], plain[..]);
        match RtFrame::decode_frame(&buf).unwrap() {
            RtFrame::Piggy(k, HorMsg::ProbeReply { conflicts }) => {
                assert_eq!(k, 42);
                assert_eq!(conflicts, vec![3, 5, 8]);
            }
            other => panic!("piggy frame decoded as {other:?}"),
        }
    }
}
