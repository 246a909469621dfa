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
//! Each frame is declared once, by the [`cluster::wire!`] invocations
//! below — [`CtrlMsg`]'s, [`RtFrame`]'s and the records they carry, each
//! variant documented there — and both its encoder and its decoder are
//! derived from that declaration in the forms of [`cluster::net::bytes`].
//! What they write, with `v(x)` a varint, `z(x)` a zig-zag varint, `cell`
//! a value cell:
//!
//! ```text
//! Ack          80
//! AckN(k)      87 v(k)                              k ≥ 2
//! WaveDone(w)  82 v(w)
//! WaveAdvance  83 v(w)
//! Shutdown     86
//! Piggy(k, m)  89 v(k) <HorMsg frame of m>          k ≥ 1
//! Deferred     8a v(n) n × v(position << 1 | writes)
//!              v(m) m × (v(k) k × key)              a key is 4 bytes
//!                                                   little-endian
//! Waves        8b v(n_waves) v(n) n × v(wave)
//! Failed       8c v(len) len × UTF-8 byte
//! Built        8d v(rows) v(marks) 16 × digest byte
//! Take         8e
//! Gather       8f
//! Meters       84
//!
//! Ops          81 v(n_ops)
//!              ⌈n_ops / 8⌉ × kind bits              op i is bit i mod 8 of
//!                                                   byte i / 8, set for a
//!                                                   delete; spare bits 0
//!              n_ops × z(tid − previous tid)        tid column
//!              v(arity)                             0 without inserts
//!              arity × column over the inserted rows, in slice order:
//!                00 rows × cell                     plain
//!                01 rows × (00 cell | v(i + 1))     dictionary: a literal
//!                                                   joins the column's
//!                                                   dictionary, i names
//!                                                   its i-th literal
//!
//! BatchResult  85 marks(added) marks(removed)       each marks a `Runs`
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
//! all-distinct column stays plain and pays nothing for the option. `Ops`
//! is the one frame whose shape rests on its own contents — the kind
//! bits say how many rows the columns hold, and the values decide each
//! column's form — so its [`Field`] is written by hand, `put` beside
//! `get`. Frames of [`cluster::run::CTRL_LZ_MIN_BYTES`] or more are then
//! offered to `cluster::lz` by the node and kept packed when smaller.
//!
//! # Hostile input
//!
//! Every decoder accepts only its encoder's bytes. Every count is checked
//! against the bytes left in the frame before it sizes an allocation (an
//! item is at least one byte), varints are canonical, an ack count is
//! refused below its least value, a run of marks may not continue the one
//! before, an `Ops` column must take the form the encoder picks (the
//! dictionary only when strictly shorter) and its dictionary may not
//! repeat a literal, and the strings a dictionary column may
//! *re*-materialize are budgeted by [`MAX_FRAME_BYTES`] — one long literal
//! referenced a million times does not decode. Malformed frames are
//! [`ClusterError::Transport`], never a panic.

use crate::horizontal::order::DeferredList;
use crate::horizontal::HorMsg;
use cfd::{CfdId, Violations};
use cluster::md5::{md5, Digest};
use cluster::net::bytes::{cell_len, malformed, put_varint, AtLeast, Field, Nested, Reader, Runs};
use cluster::net::frame::MAX_FRAME_BYTES;
use cluster::netstats::Counters;
use cluster::{ClusterError, SiteId, TransportMeter, Wire};
use relation::{Relation, Tid, Tuple, Update, Value};
use std::collections::hash_map::{Entry, HashMap};

const COL_PLAIN: u8 = 0;
const COL_DICT: u8 = 1;

cluster::wire! {
    /// A site's settled `ΔV` slice for one batch, reported to the coordinator
    /// at collection. Its meters stay at the site until asked for
    /// ([`MeterImage`]).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub(crate) struct BatchImage {
        /// Marks this site added, net of its own removals, sorted.
        pub(crate) added: Vec<(CfdId, Tid)> as Runs,
        /// Marks this site removed, net of its own additions, sorted — but
        /// for the marks of the tids its slice deletes and does not insert,
        /// which the coordinator derives.
        pub(crate) removed: Vec<(CfdId, Tid)> as Runs,
    }
}

cluster::wire! {
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
}

cluster::wire! {
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
}

impl BuildPrint {
    /// The fingerprint of a site holding `rows`, and the marks of `V`
    /// (`v`, whole) on them.
    pub(crate) fn of(rows: &Relation, v: &Violations) -> Self {
        let mut bytes = Vec::new();
        let store = rows.store();
        for (tid, row) in store.rows() {
            Tid::put(&mut bytes, &tid);
            store
                .row_syms(row)
                .for_each(|s| Value::put(&mut bytes, store.pool().resolve(s)));
        }
        let mut marks = v.marks_sorted();
        marks.retain(|&(_, tid)| rows.contains(tid));
        Runs::put(&mut bytes, &marks);
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

cluster::wire! {
    /// Runtime control traffic: a process's build fingerprint, batch hand-over,
    /// the settle handshake, wave barriers, acks, result collection, the
    /// gathers of `D` and of the meters, failure, shutdown. All structure —
    /// `wire_size() == 0`. Each frame is declared here once (the layouts
    /// above).
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum CtrlMsg {
        /// Generic round-closer where the protocol has no payload to reply.
        CT_ACK = 0x80 => Ack,
        /// Cumulative ack: closes the `k` *oldest* outstanding rounds the
        /// receiver opened towards us (all served silently on our side).
        /// Never sent with `k == 0`, and never with `k == 1` either — a
        /// single owed round flushes as the smaller [`CtrlMsg::Ack`] — so
        /// both are refused.
        CT_ACK_N = 0x87 => AckN(k: u32 as AtLeast<2>),
        /// The coordinator ships a site process its slice of the batch, in
        /// batch order. (The coordinator itself never builds this variant: it
        /// writes the frame from the borrowed batch with [`encode_ops`].)
        CT_OPS = 0x81 => Ops(ops: Vec<Update> as Slice),
        /// A site thread's slice of the batch is in its in-process inlet:
        /// take it. The rows never cross the link; a site process, which has
        /// no inlet, gets [`CtrlMsg::Ops`] instead.
        CT_TAKE = 0x8e => Take,
        /// A site's settle pass is through: the slice positions, ascending, of
        /// the updates it left for the wave schedule, each with whether the
        /// update *writes* (creates or empties a local RHS class) or is
        /// class-preserving and only held behind one that shares a group key
        /// or its tid; and the footprint of each deferred delete, whose row
        /// only the site holds.
        CT_DEFERRED = 0x8a => Deferred(list: DeferredList),
        /// The coordinator's answer: the wave of each update the site
        /// deferred, in the order the site listed them. With `n_waves == 0`
        /// nobody deferred anything and the frame is the cue to cut the batch
        /// image.
        CT_WAVES = 0x8b => Waves {
            /// Waves of the batch, the same number at every site.
            n_waves: u32,
            /// One wave per deferred update, each below `n_waves`.
            waves: Vec<u32>,
        },
        /// A site finished its slice of the given wave — sent only for a wave
        /// the site holds an update of.
        CT_DONE = 0x82 => WaveDone(w: u32),
        /// The coordinator releases the barrier of the given wave: to the
        /// sites holding an update of the next, or, after the last wave, to
        /// every site, as the cue to cut the batch image.
        CT_ADVANCE = 0x83 => WaveAdvance(w: u32),
        /// A site's batch image, less its pure deletes' removals.
        CT_RESULT = 0x85 => BatchResult(img: Box<BatchImage>),
        /// The coordinator asks a site for its meters, between batches. The
        /// site answers with [`CtrlMsg::Metered`] and zeroes them. Both ends
        /// take the exchange off their meters: it reports traffic, it is none.
        CT_METERS = 0x84 => Meters,
        /// A site's answer to [`CtrlMsg::Meters`].
        CT_METERED = 0x88 => Metered(img: Box<MeterImage>),
        /// A site's last words to the coordinator: its `serve` is returning
        /// this error.
        CT_FAILED = 0x8c => Failed(cause: String),
        /// A site process's first words to the coordinator: what its build
        /// left it.
        CT_BUILT = 0x8d => Built(print: BuildPrint),
        /// The coordinator asks a site for its fragment, between batches. The
        /// site answers with an [`CtrlMsg::Ops`] frame of inserts, one per row
        /// it is home to, in tid order. Both ends take the exchange off their
        /// meters: it reads `D`, it is not `ΔD`'s.
        CT_GATHER = 0x8f => Gather,
        /// Tear the site down (end of session).
        CT_SHUTDOWN = 0x86 => Shutdown,
    }
}

impl Wire for CtrlMsg {
    fn wire_size(&self) -> usize {
        0
    }
}

/// A slice of updates, column by column (the `Ops` layout above).
struct Slice;

impl Field for Slice {
    type Value = Vec<Update>;

    fn put(out: &mut Vec<u8>, ops: &Vec<Update>) {
        put_slice(out, &ops.iter().collect::<Vec<_>>());
    }

    fn get(r: &mut Reader<'_>) -> Result<Vec<Update>, ClusterError> {
        get_slice(r, MAX_FRAME_BYTES)
    }
}

/// Write an `Ops` frame straight from borrowed updates: cells are read
/// where they lie, column by column, and no row is copied.
pub(crate) fn encode_ops(out: &mut Vec<u8>, ops: &[&Update]) {
    out.push(CT_OPS);
    put_slice(out, ops);
}

/// Every inserted row must have the arity of the first (the coordinator
/// checks rows against the schema before it schedules them).
fn put_slice(out: &mut Vec<u8>, ops: &[&Update]) {
    put_varint(out, ops.len() as u64);
    for byte in ops.chunks(8) {
        let bit = |(i, op): (usize, &&Update)| u8::from(matches!(op, Update::Delete(_))) << i;
        out.push(byte.iter().enumerate().map(bit).sum());
    }
    let mut prev: Tid = 0;
    for op in ops {
        i64::put(out, &(op.tid().wrapping_sub(prev) as i64));
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
    for a in 0..arity {
        put_column(out, rows.iter().map(|t| &t.values[a]));
    }
}

/// One column of an `Ops` frame: the dictionary form when it is strictly
/// shorter than the plain one, each value a literal where it first
/// appears and the index of that literal after.
fn put_column<'a>(out: &mut Vec<u8>, col: impl Iterator<Item = &'a Value> + Clone) {
    // Keyed by caller-supplied values: keep the collision-resistant
    // default hasher.
    let mut seen: HashMap<&Value, u64> = HashMap::new();
    let (mut dict, mut plain_len) = (vec![COL_DICT], 1);
    for v in col.clone() {
        plain_len += cell_len(v);
        let next = seen.len() as u64 + 1;
        match seen.entry(v) {
            Entry::Occupied(e) => put_varint(&mut dict, *e.get()),
            Entry::Vacant(e) => {
                e.insert(next);
                dict.push(0);
                Value::put(&mut dict, v);
            }
        }
    }
    if dict.len() < plain_len {
        out.extend_from_slice(&dict);
    } else {
        out.push(COL_PLAIN);
        col.for_each(|v| Value::put(out, v));
    }
}

/// Read an `Ops` slice; `budget` bounds the string bytes dictionary
/// references may re-materialize.
fn get_slice(r: &mut Reader<'_>, mut budget: usize) -> Result<Vec<Update>, ClusterError> {
    // Every op has a tid byte ahead, so the count cannot outgrow the frame.
    let n = r.count()?;
    let bits = r.take(n.div_ceil(8))?;
    let is_delete = |i: usize| bits[i / 8] >> (i % 8) & 1 == 1;
    if n % 8 != 0 && bits[n / 8] >> (n % 8) != 0 {
        return Err(malformed("spare kind bits set"));
    }
    let mut tids = Vec::with_capacity(n);
    let mut prev: Tid = 0;
    for _ in 0..n {
        prev = prev.wrapping_add(i64::get(r)? as u64);
        tids.push(prev);
    }
    let arity = r.count()?;
    let n_rows = (0..n).filter(|&i| !is_delete(i)).count();
    if n_rows == 0 && arity != 0 {
        return Err(malformed("columns without rows"));
    }
    // A cell is at least one byte: the rows cannot outgrow the frame.
    match n_rows.checked_mul(arity) {
        Some(cells) if cells <= r.remaining() => {}
        _ => return Err(malformed("row count exceeds the frame")),
    }
    let mut rows: Vec<Vec<Value>> = (0..n_rows).map(|_| Vec::with_capacity(arity)).collect();
    let mut literals: Vec<usize> = Vec::new();
    for a in 0..arity {
        let mut column = r.clone();
        match r.u8()? {
            COL_PLAIN => {
                for row in &mut rows {
                    row.push(Value::get(r)?);
                }
            }
            COL_DICT => {
                // `literals[i]`: the row holding the column's i-th literal.
                literals.clear();
                for i in 0..n_rows {
                    let v = match usize::try_from(r.varint()?) {
                        Ok(0) => {
                            literals.push(i);
                            Value::get(r)?
                        }
                        Ok(k) => {
                            let v = literals
                                .get(k - 1)
                                .map(|&row| &rows[row][a])
                                .ok_or_else(|| malformed("dictionary index out of range"))?;
                            if let Value::Str(s) = v {
                                budget = budget.checked_sub(s.len()).ok_or_else(|| {
                                    malformed("dictionary column expands past the frame limit")
                                })?;
                            }
                            v.clone()
                        }
                        Err(_) => return Err(malformed("dictionary index out of range")),
                    };
                    rows[i].push(v);
                }
            }
            _ => return Err(malformed("unknown column form")),
        }
        // The column as its encoder writes it, or a refusal: a form the
        // encoder does not pick, or a literal that repeats one before it.
        let got = column.take(column.remaining() - r.remaining())?;
        let mut canonical = Vec::with_capacity(got.len());
        put_column(&mut canonical, rows.iter().map(|row| &row[a]));
        if got != canonical {
            return Err(malformed(if got[0] != canonical[0] {
                "a column in the form its encoder does not pick"
            } else {
                "a dictionary literal repeats an earlier one"
            }));
        }
    }
    let mut rows = rows.into_iter();
    let op = |(i, tid)| match is_delete(i) {
        true => Ok(Update::Delete(tid)),
        false => {
            let row = rows
                .next()
                .ok_or_else(|| malformed("an insert with no row"))?;
            Ok(Update::Insert(Tuple::new(tid, row)))
        }
    };
    let ops = tids.into_iter().enumerate().map(op);
    ops.collect()
}

cluster::wire! {
    /// Frame dispatcher for a running site: protocol frames ([`HorMsg`],
    /// first byte `< 0x80`) and control frames ([`CtrlMsg`], `>= 0x80`)
    /// share each inbound link, and `Piggy` wraps a protocol frame behind
    /// the acks it carries.
    #[derive(Debug, PartialEq)]
    pub(crate) enum RtFrame {
        /// A §6 protocol message carrying a piggybacked cumulative ack:
        /// close the `k` oldest outstanding rounds towards the sender, then
        /// process the payload. The envelope is pure structure — modeled
        /// `|M|` is the carried message's.
        CT_PIGGY = 0x89 => Piggy(k: u32 as AtLeast<1>, m: HorMsg as Nested<HorMsg>),
        ;
        /// A §6 protocol message.
        0x00..=0x7f => Hor(HorMsg),
        /// A runtime control message.
        0x80..=0xff => Ctrl(CtrlMsg),
    }
}

impl Wire for RtFrame {
    fn wire_size(&self) -> usize {
        match self {
            RtFrame::Hor(m) | RtFrame::Piggy(_, m) => m.wire_size(),
            RtFrame::Ctrl(m) => m.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::tests::seeded_cols;
    use crate::baselines::BatMsg;
    use crate::horizontal::tests::{frame_of, seeded_msg};
    use cluster::net::bytes::zigzag;
    use cluster::net::FrameCodec;
    use std::collections::{BTreeMap, BTreeSet};

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
        // Frames one byte from bytes no encoder writes. Two two-character
        // strings that differ in their last byte: a plain column, which a
        // repeat would make longer than its dictionary form. A dictionary
        // column whose two literals differ in their last byte. Two runs of
        // CFD 0 that do not ascend, and would be one if they did; a run
        // whose one gap is 1.
        let insert = |tid, v: &str| Update::Insert(Tuple::new(tid, vec![Value::str(v)]));
        for tid in [1, 300] {
            let plain = vec![insert(tid, "AA"), insert(tid + 1, "AB")];
            let dict = ["AB", "AC", "AB", "AB"].iter().zip(tid..);
            let dict = dict.map(|(v, t)| insert(t, v)).collect();
            let runs = BatchImage {
                added: vec![(0, tid + 1), (0, tid)],
                removed: vec![(0, tid), (0, tid + 1)],
            };
            frames.push(encoded(&CtrlMsg::Ops(plain)));
            frames.push(encoded(&CtrlMsg::Ops(dict)));
            frames.push(encoded(&CtrlMsg::BatchResult(Box::new(runs))));
        }
        frames.push(encoded(&CtrlMsg::AckN(2)));
        for k in [1, 300] {
            let mut piggy = Vec::new();
            RtFrame::Piggy(
                k,
                HorMsg::ProbeReply {
                    conflicts: vec![3, 5],
                },
            )
            .encode_frame(&mut piggy);
            frames.push(piggy);
        }
        frames
    }

    /// Feed `M`'s decoder `inputs` seeded byte strings: odd ones short
    /// runs of arbitrary bytes behind a specimen's tag, even ones a
    /// specimen with one byte changed — to a random byte, to another byte
    /// of the same frame, or by one. Each must decode to a message that
    /// re-encodes to exactly the bytes it was read from, or give a typed
    /// [`ClusterError::Transport`]. Returns the messages and the errors
    /// under each first byte.
    fn arbitrary_bytes<M: FrameCodec + PartialEq>(
        specimens: &[Vec<u8>],
        inputs: usize,
    ) -> BTreeMap<u8, [usize; 2]> {
        let mut rng = Lcg(0x5EED);
        let mut tally = BTreeMap::new();
        for k in 0..inputs {
            let specimen = rng.pick(specimens);
            let bytes: Vec<u8> = if k % 2 == 1 {
                // Short varints are the interesting bytes: bias towards them.
                let len = rng.below(16) as usize;
                let tail = (0..len).map(|_| match rng.below(2) {
                    0 => rng.below(8) as u8,
                    _ => rng.next() as u8,
                });
                [specimen[0]].into_iter().chain(tail).collect()
            } else {
                let mut b = specimen;
                let at = rng.below(b.len() as u64) as usize;
                b[at] = match rng.below(3) {
                    0 => rng.next() as u8,
                    1 => b[rng.below(b.len() as u64) as usize],
                    _ => b[at].wrapping_add(if rng.below(2) == 0 { 1 } else { u8::MAX }),
                };
                b
            };
            let counts = tally.entry(bytes[0]).or_insert([0, 0]);
            match M::decode_frame(&bytes) {
                Ok(m) => {
                    let again = frame_of(&m);
                    assert_eq!(again, bytes, "input {k} decoded to {m:?}");
                    counts[0] += 1;
                }
                Err(ClusterError::Transport(_)) => counts[1] += 1,
                Err(e) => panic!("input {k}, {bytes:02x?}: untyped {e:?}"),
            }
        }
        tally
    }

    /// Every family's decoder under [`arbitrary_bytes`]: each tag of its
    /// specimens decodes some input, and errors and messages both abound.
    fn every_family(inputs: usize) {
        fn check<M: FrameCodec + PartialEq>(family: &str, specimens: &[Vec<u8>], inputs: usize) {
            let tally = arbitrary_bytes::<M>(specimens, inputs);
            let tags: BTreeSet<u8> = specimens.iter().map(|f| f[0]).collect();
            for tag in tags {
                let decoded = tally.get(&tag).map_or(0, |c| c[0]);
                assert!(
                    decoded > 0,
                    "{family}: no input under tag {tag:#04x} decoded"
                );
            }
            let [msgs, errors] = tally
                .values()
                .fold([0, 0], |a, c| [a[0] + c[0], a[1] + c[1]]);
            assert!(
                msgs > inputs / 20 && errors > inputs / 20,
                "{family}: {msgs} messages, {errors} errors"
            );
        }
        let hor: Vec<_> = (1..=40).map(|s| frame_of(&seeded_msg(s))).collect();
        let bat: Vec<_> = (1..=20)
            .map(|s| frame_of(&seeded_cols(s, s as usize % 9, s as usize % 3)))
            .collect();
        let (piggy, ctrl): (Vec<_>, Vec<_>) =
            specimens().into_iter().partition(|f| f[0] == CT_PIGGY);
        check::<HorMsg>("HorMsg", &hor, inputs);
        check::<BatMsg>("BatMsg", &bat, inputs);
        check::<CtrlMsg>("CtrlMsg", &ctrl, inputs);
        check::<RtFrame>("RtFrame", &[hor, ctrl, piggy].concat(), inputs);
    }

    /// Arbitrary bytes under every tag of every family — `HorMsg`,
    /// `BatMsg`, `CtrlMsg` and `RtFrame` — give a typed error, or a
    /// message that re-encodes to exactly the bytes it was read from:
    /// every decoder accepts only its encoder's bytes.
    #[test]
    fn every_frame_decodes_only_its_encoders_bytes() {
        every_family(20_000);
    }

    /// The same property at 10⁶ inputs a family (`cargo test --release -p
    /// incdetect every_frame -- --ignored`).
    #[test]
    #[ignore = "10^6 inputs a family; run optimized"]
    fn every_frame_decodes_only_its_encoders_bytes_at_a_million() {
        every_family(1_000_000);
    }

    /// Frames that decoded to a message whose encoder writes other bytes —
    /// a second spelling of one message — are each a typed error.
    #[test]
    fn second_spellings_are_refused() {
        let a8 = [&[0x0a][..], b"AAAAAAAA"].concat();
        let ops = |columns: &[&[u8]]| [&[CT_OPS, 2, 0, 2, 2, 1][..], &columns.concat()].concat();
        let piggy = |k| [&[CT_PIGGY, k, 1][..], &[1, 3]].concat();
        for (frame, why) in [
            // A plain column whose dictionary form is shorter.
            (
                ops(&[&[COL_PLAIN], &a8, &a8]),
                "a column in the form its encoder does not pick",
            ),
            // A dictionary literal that repeats the one before it.
            (
                ops(&[&[COL_DICT, 0], &a8, &[0], &a8]),
                "a dictionary literal repeats an earlier one",
            ),
            // Two runs of CFD 0 where one would do: t5, then t6.
            (
                vec![CT_RESULT, 2, 0, 1, 10, 0, 1, 2, 0],
                "a run of marks continues the one before",
            ),
            // `AckN(1)` is `Ack`, `AckN(0)` no ack, `Piggy(0, m)` is `m`.
            (vec![CT_ACK_N, 0], "0 below its least value 2"),
            (vec![CT_ACK_N, 1], "1 below its least value 2"),
            (piggy(0), "0 below its least value 1"),
        ] {
            match RtFrame::decode_frame(&frame) {
                Err(ClusterError::Transport(e)) => assert!(e.contains(why), "{frame:02x?}: {e}"),
                other => panic!("{frame:02x?} ({why}): {other:?}"),
            }
        }
        // What the encoder writes for the first two, and the third.
        let row = |tid| Update::Insert(Tuple::new(tid, vec![Value::str("AAAAAAAA")]));
        let canonical = ops(&[&[COL_DICT, 0], &a8, &[1]]);
        assert_eq!(encoded(&CtrlMsg::Ops(vec![row(1), row(2)])), canonical);
        assert_eq!(
            CtrlMsg::decode_frame(&canonical).unwrap(),
            CtrlMsg::Ops(vec![row(1), row(2)])
        );
        let image = BatchImage {
            added: vec![(0, 5), (0, 6)],
            removed: vec![],
        };
        let one_run = encoded(&CtrlMsg::BatchResult(Box::new(image)));
        assert_eq!(one_run, [CT_RESULT, 1, 0, 2, 10, 1, 0]);
        assert!(RtFrame::decode_frame(&piggy(1)).is_ok());
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
        let body = |budget| get_slice(&mut Reader::new(&frame[1..]), budget);
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
