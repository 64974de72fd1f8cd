//! Binary wire protocol for the memnode RPC surface.
//!
//! Frames are length-prefixed and CRC-checked: `[len: u32 LE][crc32: u32
//! LE][payload]`, reusing the WAL's IEEE CRC-32 ([`crate::wal::crc32`]).
//! Payloads are tag-byte messages with little-endian fixed-width fields —
//! the same style as the redo-log records, so the two on-disk/on-wire
//! formats stay mutually legible.
//!
//! Decoding is **total**: every malformed input (torn frame, truncated
//! length, bit flip, bad tag) surfaces as a [`WireError`], never a panic,
//! and never an unbounded allocation (frames are capped at [`MAX_FRAME`]).
//! Decoding is also **zero-copy** on the payload plane: a frame is read
//! into one buffer and write/read payloads are [`Bytes`] slices of it, so
//! a received minitransaction flows into the memnode's staging area and
//! redo log without being copied again (the PR 5 data plane, now over a
//! socket).
//!
//! The module is std-only: plain blocking TCP / Unix-domain sockets, no
//! async runtime. [`Endpoint`] names a listening address in either family.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::lock::TxId;
use crate::memnode::{SingleResult, Vote};
use crate::minitx::LockPolicy;
use crate::recovery::NodeMeta;
use crate::wal::crc32;
use minuet_obs::SpanRecord;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::time::Duration;

/// Protocol version carried in `Hello`; bumped on incompatible changes.
/// Version 2 added the `Traced` request envelope (optional trace context,
/// answered by a `TracedReply` carrying server-side spans) and the
/// `ObsSnapshot` / `TraceDump` admin requests. Version 3 appends a
/// one-byte [`NodeFlags`] trailer to **every** reply frame, so clients
/// learn crashed/joining/retiring state as a side effect of any RPC and
/// never need a dedicated `Flags` round trip on the hot path. Version 4
/// adds the epoch/replication family: `EpochMark`, and the WAL-streaming
/// requests `ReplFetch` / `ReplApply` / `ReplStatus` with their `Epoch`,
/// `Frames`, and `ReplStatus` replies. Version 5 removes the `Stats` and
/// `Flags` requests and their replies (a `Hello` probes the flags, and the
/// metrics registry carries every count), and `Meta` on a crashed node
/// answers `Unavailable`.
pub const PROTO_VERSION: u16 = 5;

/// Largest admissible frame payload. Frames claiming more are rejected
/// before any allocation, bounding what a corrupt length prefix can cost.
pub const MAX_FRAME: u32 = 64 << 20;

/// Size of the frame header (length + CRC), in bytes.
pub const FRAME_HDR: usize = 8;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A protocol-level decoding failure. Connection-fatal: the peer that
/// observes one closes the connection (stream framing cannot resynchronize
/// after corruption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced frame or field did.
    Truncated,
    /// The payload CRC did not match the frame header.
    BadCrc {
        /// CRC announced in the frame header.
        want: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// Unknown message tag.
    BadTag(u8),
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// A field held an inadmissible value.
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadCrc { want, got } => {
                write!(
                    f,
                    "frame CRC mismatch: header {want:#10x}, payload {got:#10x}"
                )
            }
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            WireError::BadValue(what) => write!(f, "inadmissible field value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------------
// Endpoints and streams
// ---------------------------------------------------------------------------

/// A listening address for a memnode server, in either socket family.
///
/// Parsed from `tcp:HOST:PORT` or `unix:/path/to.sock`:
///
/// ```
/// use minuet_sinfonia::wire::Endpoint;
/// let e = Endpoint::parse("tcp:127.0.0.1:7000").unwrap();
/// assert_eq!(e.to_string(), "tcp:127.0.0.1:7000");
/// assert!(Endpoint::parse("quic:nope").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`host:port` as accepted by `ToSocketAddrs`).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `tcp:HOST:PORT` / `unix:PATH`.
    pub fn parse(s: &str) -> Result<Endpoint, WireError> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err(WireError::BadValue("empty tcp address"));
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(WireError::BadValue("empty unix path"));
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else {
            Err(WireError::BadValue(
                "endpoint must start with tcp: or unix:",
            ))
        }
    }

    /// Opens a listener on this endpoint. For Unix endpoints a stale
    /// socket file from a previous run is removed first.
    pub fn listen(&self) -> io::Result<Listener> {
        match self {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(std::net::TcpListener::bind(addr)?)),
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(std::os::unix::net::UnixListener::bind(
                    path,
                )?))
            }
        }
    }

    /// Connects to this endpoint with a dial timeout (best-effort for
    /// Unix sockets, which connect or fail immediately).
    pub fn dial(&self, timeout: Duration) -> io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => {
                use std::net::ToSocketAddrs;
                let addr = addr
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no address"))?;
                let s = std::net::TcpStream::connect_timeout(&addr, timeout)?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Endpoint::Unix(path) => {
                Ok(Stream::Unix(std::os::unix::net::UnixStream::connect(path)?))
            }
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A bound listener in either socket family.
pub enum Listener {
    /// TCP listener.
    Tcp(std::net::TcpListener),
    /// Unix-domain listener.
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Accepts one connection (blocking unless the listener is
    /// nonblocking).
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }

    /// Switches the listener between blocking and nonblocking accepts.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }
}

/// A connected stream in either socket family.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(std::net::TcpStream),
    /// Unix-domain connection.
    Unix(std::os::unix::net::UnixStream),
}

impl Stream {
    /// Sets both read and write timeouts (`None` blocks forever).
    pub fn set_timeouts(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }

    /// Clones the stream handle (shares the underlying socket).
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Abruptly shuts down both directions, waking any blocked reader —
    /// the fault-injection hammer the tests use to simulate a died server.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Builds a sealed frame: reserves the 8-byte header, lets `body` append
/// the payload, then stamps length and CRC.
fn seal(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = vec![0u8; FRAME_HDR];
    body(&mut buf);
    let len = (buf.len() - FRAME_HDR) as u32;
    debug_assert!(len <= MAX_FRAME, "oversized frame built locally");
    let crc = crc32(&buf[FRAME_HDR..]);
    buf[0..4].copy_from_slice(&len.to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Reads one frame off a stream, validating length and CRC. The payload
/// is returned as [`Bytes`] so message decoding can alias it zero-copy.
///
/// Protocol-level failures arrive as `io::ErrorKind::InvalidData` wrapping
/// a [`WireError`]; short reads surface as `UnexpectedEof`. Either way the
/// connection is unusable afterwards.
pub fn read_frame(r: &mut impl Read) -> io::Result<Bytes> {
    let mut hdr = [0u8; FRAME_HDR];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
    let want = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len).into());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let got = crc32(&payload);
    if got != want {
        return Err(WireError::BadCrc { want, got }.into());
    }
    Ok(Bytes::from(payload))
}

/// In-memory variant of [`read_frame`] for tests and fuzzing: decodes one
/// frame from the front of `buf`, returning the payload and the total
/// frame size consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(Bytes, usize), WireError> {
    if buf.len() < FRAME_HDR {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    let want = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    let total = FRAME_HDR + len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated);
    }
    let payload = &buf[FRAME_HDR..total];
    let got = crc32(payload);
    if got != want {
        return Err(WireError::BadCrc { want, got });
    }
    Ok((Bytes::copy_from_slice(payload), total))
}

// ---------------------------------------------------------------------------
// Field codec (bounds-checked, zero-copy on byte payloads)
// ---------------------------------------------------------------------------

/// Bounds-checked reader over a frame payload. Variable-length fields come
/// back as [`Bytes`] slices of the frame buffer.
struct Cur<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a Bytes) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn peek(&self) -> Result<u8, WireError> {
        self.buf.get(self.pos).copied().ok_or(WireError::Truncated)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadValue("trailing bytes after message"))
        }
    }
}

/// One message field's little-endian wire form. Sequences are a `u32`
/// count followed by the items; byte payloads a `u32` length followed by
/// the bytes.
trait Field: Sized {
    /// Most items a decoded sequence of this type may hold.
    const MAX_COUNT: u32 = u32::MAX;

    fn put(&self, buf: &mut Vec<u8>);

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError>;
}

macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                let raw = c.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("took the exact width")))
            }
        }
    )*};
}

int_field!(u8, u16, u32, u64);

macro_rules! tuple_field {
    ($($T:ident $i:tt),+) => {
        impl<$($T: Field),+> Field for ($($T,)+) {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$i.put(buf);)+
            }

            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                Ok(($($T::get(c)?,)+))
            }
        }
    };
}

tuple_field!(A 0, B 1);
tuple_field!(A 0, B 1, C 2);

impl Field for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadValue("boolean")),
        }
    }
}

/// Item indices of a minitransaction travel as `u32`.
impl Field for usize {
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u32).put(buf);
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(u32::get(c)? as usize)
    }
}

impl Field for MemNodeId {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(MemNodeId(u16::get(c)?))
    }
}

/// Decodes as a slice of the frame buffer: no copy.
impl Field for Bytes {
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let len = u32::get(c)? as usize;
        let start = c.pos;
        c.take(len)?;
        Ok(c.buf.slice(start, len))
    }
}

impl Field for String {
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(String::from_utf8_lossy(&Bytes::get(c)?).into_owned())
    }
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    (b.len() as u32).put(buf);
    buf.extend_from_slice(b);
}

fn put_seq<T: Field>(buf: &mut Vec<u8>, items: &[T]) {
    (items.len() as u32).put(buf);
    for it in items {
        it.put(buf);
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self);
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let n = u32::get(c)?;
        if n > T::MAX_COUNT {
            return Err(WireError::BadValue("item count"));
        }
        (0..n).map(|_| T::get(c)).collect()
    }
}

impl Field for SpanRecord {
    const MAX_COUNT: u32 = minuet_obs::trace::MAX_TRACE_SPANS as u32;

    fn put(&self, buf: &mut Vec<u8>) {
        self.encode_into(buf);
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        SpanRecord::decode_from(c.take(19)?, &mut 0).ok_or(WireError::BadValue("span record"))
    }
}

impl Field for LockPolicy {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            LockPolicy::AbortOnBusy => buf.push(0),
            LockPolicy::Block(d) => {
                buf.push(1);
                (d.as_nanos().min(u128::from(u64::MAX)) as u64).put(buf);
            }
        }
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            0 => Ok(LockPolicy::AbortOnBusy),
            1 => Ok(LockPolicy::Block(Duration::from_nanos(u64::get(c)?))),
            _ => Err(WireError::BadValue("lock policy")),
        }
    }
}

/// [`SingleResult`] and [`Vote`] share one shape: kind byte 0 carries the
/// read results, 1 the failed compare indices, 2 nothing (busy).
macro_rules! outcome_field {
    ($T:ident :: $Ok:ident, $what:literal) => {
        impl Field for $T {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $T::$Ok(pairs) => {
                        buf.push(0);
                        pairs.put(buf);
                    }
                    $T::BadCompare(idx) => {
                        buf.push(1);
                        idx.put(buf);
                    }
                    $T::Busy => buf.push(2),
                }
            }

            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                match u8::get(c)? {
                    0 => Ok($T::$Ok(Field::get(c)?)),
                    1 => Ok($T::BadCompare(Field::get(c)?)),
                    2 => Ok($T::Busy),
                    _ => Err(WireError::BadValue($what)),
                }
            }
        }
    };
}

outcome_field!(SingleResult::Committed, "single result kind");
outcome_field!(Vote::Ok, "vote kind");

/// A batch member: kind byte 0 carries the result, 1 the id of the
/// crashed memnode.
impl Field for Result<SingleResult, u16> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Ok(r) => {
                buf.push(0);
                r.put(buf);
            }
            Err(id) => {
                buf.push(1);
                id.put(buf);
            }
        }
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        match u8::get(c)? {
            0 => Ok(Ok(SingleResult::get(c)?)),
            1 => Ok(Err(u16::get(c)?)),
            _ => Err(WireError::BadValue("batch member kind")),
        }
    }
}

/// Staged transactions and the decided set, each sorted by txid so the
/// encoding is deterministic (`HashMap` iteration order is not).
impl Field for NodeMeta {
    fn put(&self, buf: &mut Vec<u8>) {
        let mut staged: Vec<_> = self.staged.iter().collect();
        staged.sort_by_key(|(txid, _)| **txid);
        (staged.len() as u32).put(buf);
        for (txid, parts) in staged {
            txid.put(buf);
            parts.put(buf);
        }
        let mut decided: Vec<TxId> = self.decided.iter().copied().collect();
        decided.sort_unstable();
        decided.put(buf);
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        let staged: Vec<(TxId, Vec<MemNodeId>)> = Field::get(c)?;
        let decided: Vec<TxId> = Field::get(c)?;
        Ok(NodeMeta {
            staged: staged.into_iter().collect(),
            decided: decided.into_iter().collect(),
        })
    }
}

// ---------------------------------------------------------------------------
// Shards on the wire
// ---------------------------------------------------------------------------

/// A minitransaction shard as shipped to one memnode: the compare, read,
/// and write items destined there, each carrying its index in the original
/// minitransaction so the coordinator can reassemble results.
///
/// Building one from a borrowed [`crate::minitx::Shard`] is cheap: write
/// payloads are `Bytes` clones (refcount bumps), compare expectations are
/// small copies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireShard {
    /// `(original index, offset, expected bytes)` compare items.
    pub compares: Vec<(u32, u64, Bytes)>,
    /// `(original index, offset, length)` read items.
    pub reads: Vec<(u32, u64, u32)>,
    /// `(original index, offset, payload)` write items.
    pub writes: Vec<(u32, u64, Bytes)>,
}

impl WireShard {
    /// Captures a borrowed coordinator-side shard.
    pub fn from_shard(shard: &crate::minitx::Shard<'_>) -> WireShard {
        WireShard {
            compares: shard
                .compares
                .iter()
                .map(|(i, c)| (*i as u32, c.range.off, Bytes::copy_from_slice(&c.expected)))
                .collect(),
            reads: shard
                .reads
                .iter()
                .map(|(i, r)| (*i as u32, r.range.off, r.range.len))
                .collect(),
            writes: shard
                .writes
                .iter()
                .map(|(i, w)| (*i as u32, w.range.off, w.data.clone()))
                .collect(),
        }
    }

    /// Highest byte offset any item touches (exclusive); used by the
    /// server for bounds validation before dispatch.
    pub fn max_extent(&self) -> u64 {
        let c = self
            .compares
            .iter()
            .map(|(_, off, e)| off.saturating_add(e.len() as u64));
        let r = self
            .reads
            .iter()
            .map(|(_, off, len)| off.saturating_add(*len as u64));
        let w = self
            .writes
            .iter()
            .map(|(_, off, d)| off.saturating_add(d.len() as u64));
        c.chain(r).chain(w).max().unwrap_or(0)
    }
}

impl Field for WireShard {
    fn put(&self, buf: &mut Vec<u8>) {
        self.compares.put(buf);
        self.reads.put(buf);
        self.writes.put(buf);
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(WireShard {
            compares: Field::get(c)?,
            reads: Field::get(c)?,
            writes: Field::get(c)?,
        })
    }
}

/// One batched minitransaction as shipped in [`Request::ExecBatch`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireBatchItem {
    /// Minitransaction id (coordinator-assigned).
    pub txid: TxId,
    /// Lock contention policy.
    pub policy: LockPolicy,
    /// The items destined for this memnode.
    pub shard: WireShard,
}

impl Field for WireBatchItem {
    fn put(&self, buf: &mut Vec<u8>) {
        self.txid.put(buf);
        self.policy.put(buf);
        self.shard.put(buf);
    }

    fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
        Ok(WireBatchItem {
            txid: Field::get(c)?,
            policy: Field::get(c)?,
            shard: Field::get(c)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Message tables
// ---------------------------------------------------------------------------

/// Declares one direction of the protocol from a table. Each row names a
/// variant, its fields, its tag constant and byte, and its kind name; the
/// fields go on the wire in declaration order after the tag byte, each in
/// its [`Field`] form. From the table come the enum, the tag constants, and
/// `kind_name`, `tag_byte`, `encode` and `decode`. The first row is the
/// envelope, which wraps one inner message (field `inner`) that may not
/// itself be an envelope; `kind_name` and `tag_byte` report the inner
/// message.
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident in $tags:ident {
            $(#[$emeta:meta])*
            envelope $Env:ident {
                $($(#[$efmeta:meta])* $ef:ident: $eft:ty,)*
            } = $ETAG:ident($etag:literal, $nested:literal);
            $(
                $(#[$vmeta:meta])*
                $V:ident
                $(($tf:ident: $tt:ty))?
                $({ $($(#[$fmeta:meta])* $f:ident: $ft:ty,)* })?
                = $TAG:ident($tag:literal, $kind:literal);
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $Enum {
            $(
                $(#[$vmeta])*
                $V $(($tt))? $({ $($(#[$fmeta])* $f: $ft,)* })?,
            )*
            $(#[$emeta])*
            $Env { $($(#[$efmeta])* $ef: $eft,)* },
        }

        mod $tags {
            $(
                #[doc = concat!("Tag byte of `", stringify!($Enum), "::", stringify!($V), "`.")]
                pub const $TAG: u8 = $tag;
            )*
            #[doc = concat!("Tag byte of `", stringify!($Enum), "::", stringify!($Env), "`.")]
            pub const $ETAG: u8 = $etag;
        }

        impl $Enum {
            /// Encodes the message as a complete sealed frame.
            pub fn encode(&self) -> Vec<u8> {
                seal(|buf| self.encode_payload(buf))
            }

            /// Decodes a message from a frame payload (as returned by
            /// [`read_frame`]). Byte payloads alias the frame buffer.
            pub fn decode(payload: &Bytes) -> Result<$Enum, WireError> {
                let mut c = Cur::new(payload);
                let msg = Self::get(&mut c)?;
                c.done()?;
                Ok(msg)
            }

            /// Stable kind name; request kinds name the metric series
            /// (`wire.lat.exec_single`). An envelope reports its inner
            /// message's kind.
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $($Enum::$V { .. } => $kind,)*
                    $Enum::$Env { inner, .. } => inner.kind_name(),
                }
            }

            /// The wire tag byte (the inner message's for an envelope);
            /// RTT spans carry it to name the request kind.
            pub fn tag_byte(&self) -> u8 {
                match self {
                    $($Enum::$V { .. } => $tags::$TAG,)*
                    $Enum::$Env { inner, .. } => inner.tag_byte(),
                }
            }

            fn encode_payload(&self, buf: &mut Vec<u8>) {
                match self {
                    $(
                        $Enum::$V $(($tf))? $({ $($f,)* })? => {
                            buf.push($tags::$TAG);
                            $($tf.put(buf);)?
                            $($($f.put(buf);)*)?
                        }
                    )*
                    $Enum::$Env { $($ef,)* } => {
                        buf.push($tags::$ETAG);
                        $($ef.put(buf);)*
                    }
                }
            }
        }

        impl Field for $Enum {
            fn put(&self, buf: &mut Vec<u8>) {
                self.encode_payload(buf);
            }

            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                Ok(match u8::get(c)? {
                    $(
                        $tags::$TAG => $Enum::$V
                            $((<$tt as Field>::get(c)?))?
                            $({ $($f: Field::get(c)?,)* })?,
                    )*
                    $tags::$ETAG => $Enum::$Env { $($ef: Field::get(c)?,)* },
                    t => return Err(WireError::BadTag(t)),
                })
            }
        }

        /// The envelope's inner message: checked before decoding, so a
        /// nested envelope is refused without recursing.
        impl Field for Box<$Enum> {
            fn put(&self, buf: &mut Vec<u8>) {
                debug_assert!(!matches!(**self, $Enum::$Env { .. }), "envelopes do not nest");
                self.encode_payload(buf);
            }

            fn get(c: &mut Cur<'_>) -> Result<Self, WireError> {
                if c.peek()? == $tags::$ETAG {
                    return Err(WireError::BadValue($nested));
                }
                Ok(Box::new($Enum::get(c)?))
            }
        }
    };
}

messages! {
    /// A client→server message. One request per frame; every request gets
    /// exactly one [`Response`] frame back on the same connection.
    pub enum Request in request_tags {
        /// Trace envelope: the inner request executes normally, and the
        /// reply comes back as [`Response::TracedReply`] carrying the
        /// server-side spans recorded while serving it.
        envelope Traced {
            /// Client-assigned trace id (stitches server spans onto the
            /// client's trace).
            trace_id: u64,
            /// The request being traced.
            inner: Box<Request>,
        } = TRACED(0x13, "nested traced envelope");
        /// Handshake: the server answers with its id, capacity, and
        /// version. Its reply's flags trailer makes it the flag probe too.
        Hello {
            /// Client's protocol version.
            version: u16,
        } = HELLO(0x01, "hello");
        /// Collapsed one-phase minitransaction execution.
        ExecSingle {
            /// Minitransaction id.
            txid: TxId,
            /// Lock contention policy.
            policy: LockPolicy,
            /// Items destined for this memnode.
            shard: WireShard,
        } = EXEC_SINGLE(0x02, "exec_single");
        /// A batch of independent single-memnode minitransactions sharing
        /// this round trip (the `exec_many` fast path).
        ExecBatch {
            /// The batch members, executed in order.
            items: Vec<WireBatchItem>,
        } = EXEC_BATCH(0x03, "exec_batch");
        /// Two-phase prepare (vote request).
        Prepare {
            /// Minitransaction id.
            txid: TxId,
            /// Lock contention policy.
            policy: LockPolicy,
            /// Full participant set (logged for in-doubt resolution).
            participants: Vec<u16>,
            /// Items destined for this memnode.
            shard: WireShard,
        } = PREPARE(0x04, "prepare");
        /// Two-phase commit decision.
        Commit {
            /// Minitransaction id.
            txid: TxId,
        } = COMMIT(0x05, "commit");
        /// Two-phase abort decision.
        Abort {
            /// Minitransaction id.
            txid: TxId,
        } = ABORT(0x06, "abort");
        /// Unsynchronized raw read (bootstrap / GC scans).
        RawRead {
            /// Byte offset.
            off: u64,
            /// Length.
            len: u32,
        } = RAW_READ(0x07, "raw_read");
        /// Raw bootstrap write.
        RawWrite {
            /// Byte offset.
            off: u64,
            /// Payload.
            data: Bytes,
        } = RAW_WRITE(0x08, "raw_write");
        /// Sets / clears the elastic-join fence (no replicated reads until
        /// seeded).
        SetJoining(on: bool) = SET_JOINING(0x09, "set_joining");
        /// Sets / clears the drain fence (allocation steers away).
        SetRetiring(on: bool) = SET_RETIRING(0x0A, "set_retiring");
        /// Crash injection: drop volatile state.
        Crash = CRASH(0x0B, "crash");
        /// Recover from mirror / disk.
        Recover = RECOVER(0x0C, "recover");
        /// Take a checkpoint now.
        Checkpoint = CHECKPOINT(0x0D, "checkpoint");
        /// Fetch recovery metadata (in-doubt transactions + decided set);
        /// a crashed node answers [`Response::Unavailable`].
        Meta = META(0x10, "meta");
        /// Compare primary and backup images over the probe ranges.
        MirrorConsistent {
            /// `(offset, length)` probe ranges.
            probe: Vec<(u64, u32)>,
        } = MIRROR(0x11, "mirror");
        /// Ask the server process to exit cleanly after replying.
        Shutdown = SHUTDOWN(0x12, "shutdown");
        /// Fetch the server's full metrics snapshot (every registered
        /// counter and histogram), answered by [`Response::Obs`].
        ObsSnapshot = OBS_SNAPSHOT(0x14, "obs_snapshot");
        /// Fetch recent traces from the server's buffer, answered by
        /// [`Response::Traces`].
        TraceDump {
            /// At most this many traces, newest last.
            max: u32,
            /// Dump the slow-op buffer instead of the recent-trace buffer.
            slow: bool,
        } = TRACE_DUMP(0x15, "trace_dump");
        /// Advances the memnode's advisory epoch register (forward-only);
        /// answered by [`Response::Epoch`] carrying the previous value.
        EpochMark {
            /// The epoch to advance to.
            epoch: u64,
            /// Whether this marks the close of the epoch (advisory).
            closing: bool,
        } = EPOCH_MARK(0x16, "epoch_mark");
        /// Fetches raw WAL frames starting at logical offset `from`,
        /// answered by [`Response::Frames`]. The replication pull path.
        ReplFetch {
            /// Logical WAL offset to read from.
            from: u64,
            /// At most this many bytes back.
            max: u32,
        } = REPL_FETCH(0x17, "repl_fetch");
        /// Applies a fetched segment of primary WAL frames on a follower;
        /// answered by [`Response::ReplStatus`].
        ReplApply {
            /// Logical source-WAL offset the segment starts at.
            from: u64,
            /// Raw CRC-framed WAL bytes as fetched from the primary.
            frames: Bytes,
        } = REPL_APPLY(0x18, "repl_apply");
        /// Fetches the follower-side replication watermark and counters,
        /// answered by [`Response::ReplStatus`].
        ReplStatus = REPL_STATUS(0x19, "repl_status");
        /// Admin: applies a fault-injection spec (`minuet_faults::apply_spec`
        /// grammar, e.g. `"wal.fsync=err:count=3"` or `"clear"`) inside the
        /// server process; answered by [`Response::Faults`] carrying the
        /// number of failpoints armed afterwards.
        Faults {
            /// The spec string, handed to `apply_spec` verbatim.
            spec: String,
        } = FAULTS(0x1A, "faults");
    }
}

messages! {
    /// A server→client message. `Unavailable` mirrors the in-process
    /// [`crate::memnode::Unavailable`] error; `Error` carries anything else
    /// (bounds violations, I/O failures) as text.
    pub enum Response in response_tags {
        /// Reply to a [`Request::Traced`] envelope: the server-side spans
        /// recorded while serving the inner request, plus the inner reply.
        envelope TracedReply {
            /// Spans recorded on the server (start offsets server-relative).
            spans: Vec<SpanRecord>,
            /// The inner request's reply.
            inner: Box<Response>,
        } = R_TRACED(0x8D, "nested traced reply");
        /// Handshake reply.
        Hello {
            /// Server's protocol version.
            version: u16,
            /// Server's memnode id.
            node: u16,
            /// Server's address-space capacity in bytes.
            capacity: u64,
        } = R_HELLO(0x81, "hello");
        /// One-phase execution result.
        Single(r: SingleResult) = R_SINGLE(0x82, "single");
        /// Per-member batch results (`Err` members hit a crashed node).
        Batch(members: Vec<Result<SingleResult, u16>>) = R_BATCH(0x83, "batch");
        /// Prepare vote.
        Vote(v: Vote) = R_VOTE(0x84, "vote");
        /// Success with no payload.
        Unit = R_UNIT(0x85, "unit");
        /// Raw read payload.
        Data(b: Bytes) = R_DATA(0x86, "data");
        /// Boolean result (checkpoint taken, mirror consistent).
        Bool(v: bool) = R_BOOL(0x87, "bool");
        /// Recovery metadata.
        Meta(m: NodeMeta) = R_META(0x8A, "meta");
        /// The memnode is crashed; carries its id.
        Unavailable(id: u16) = R_UNAVAILABLE(0x8B, "unavailable");
        /// Any other server-side failure, as text.
        Error(msg: String) = R_ERROR(0x8C, "error");
        /// An encoded [`minuet_obs::ObsSnapshot`], shipped opaquely.
        Obs(b: Bytes) = R_OBS(0x8E, "obs");
        /// Encoded traces ([`minuet_obs::Trace::encode_many`]), shipped
        /// opaquely.
        Traces(b: Bytes) = R_TRACES(0x8F, "traces");
        /// Reply to [`Request::EpochMark`]: the register's previous value.
        Epoch(prev: u64) = R_EPOCH(0x90, "epoch");
        /// Reply to [`Request::ReplFetch`]: a raw WAL segment.
        Frames {
            /// Logical offset the segment starts at (echoes the request).
            from: u64,
            /// The server WAL's base offset (start of retained log). When
            /// `base > from` the requested prefix has been checkpointed away.
            base: u64,
            /// The server WAL's logical tail at fetch time.
            tail: u64,
            /// Raw CRC-framed WAL bytes (whole frames; may be empty).
            bytes: Bytes,
        } = R_FRAMES(0x91, "frames");
        /// Reply to [`Request::ReplApply`] / [`Request::ReplStatus`].
        ReplStatus {
            /// Largest source-WAL offset durably incorporated.
            watermark: u64,
            /// Largest txid applied through replication.
            applied_txid: u64,
            /// The follower's own WAL tail.
            tail: u64,
            /// Total frames applied.
            applies: u64,
            /// Frames skipped as already-applied duplicates.
            dup_skips: u64,
        } = R_REPL_STATUS(0x92, "repl_status");
        /// Reply to [`Request::Faults`]: the number of failpoints armed
        /// after the spec was applied (0 after `"clear"`).
        Faults {
            /// Armed failpoint count.
            armed: u32,
        } = R_FAULTS(0x93, "faults");
    }
}

/// Request/response tag bytes. Public so tests and benches can identify
/// RPC kinds in traces (client [`minuet_obs::SpanKind::Rtt`] spans carry
/// the request tag).
pub mod tag {
    pub use super::request_tags::*;
    pub use super::response_tags::*;
}

// ---------------------------------------------------------------------------
// Reply flags and envelopes
// ---------------------------------------------------------------------------

/// Crashed/joining/retiring state of a memnode, piggybacked as a one-byte
/// trailer on every reply frame (see [`NodeFlags::to_byte`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeFlags {
    /// Node is crashed (rejects every data operation).
    pub crashed: bool,
    /// Elastic join in progress (no replicated reads).
    pub joining: bool,
    /// Drain in progress (no new allocations).
    pub retiring: bool,
}

impl NodeFlags {
    /// Packs the flags into the reply-trailer byte: bit 0 crashed, bit 1
    /// joining, bit 2 retiring.
    pub fn to_byte(self) -> u8 {
        self.crashed as u8 | (self.joining as u8) << 1 | (self.retiring as u8) << 2
    }

    /// Unpacks a reply-trailer byte; rejects undefined bits so a version
    /// skew (or corruption the CRC missed) fails loudly.
    pub fn from_byte(b: u8) -> Result<NodeFlags, WireError> {
        if b & !0x07 != 0 {
            return Err(WireError::BadValue("flags trailer"));
        }
        Ok(NodeFlags {
            crashed: b & 1 != 0,
            joining: b & 2 != 0,
            retiring: b & 4 != 0,
        })
    }
}

/// Splits a reply frame payload into the response body and the
/// piggybacked [`NodeFlags`] trailer byte every reply carries.
pub fn split_reply_flags(payload: &Bytes) -> Result<(Bytes, NodeFlags), WireError> {
    let n = payload.len();
    if n == 0 {
        return Err(WireError::Truncated);
    }
    let flags = NodeFlags::from_byte(payload[n - 1])?;
    Ok((payload.slice(0, n - 1), flags))
}

/// Encodes `inner` wrapped in a [`Request::Traced`] envelope as a sealed
/// frame, without boxing the request (the client's hot path wraps every
/// sampled RPC this way).
pub fn encode_traced_request(trace_id: u64, inner: &Request) -> Vec<u8> {
    debug_assert!(
        !matches!(inner, Request::Traced { .. }),
        "traced envelopes do not nest"
    );
    seal(|buf| {
        buf.push(tag::TRACED);
        trace_id.put(buf);
        inner.encode_payload(buf);
    })
}

/// Encodes a response's payload bytes alone (no frame header). The
/// server's traced path uses this so the `srv.encode` span measures
/// message encoding without the envelope bookkeeping around it.
pub fn encode_response_payload(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    resp.encode_payload(&mut buf);
    buf
}

/// Seals a complete [`Response::TracedReply`] frame from server-side spans
/// plus an inner payload already produced by [`encode_response_payload`],
/// ending with the [`NodeFlags`] trailer byte.
pub fn seal_traced_reply(spans: &[SpanRecord], inner_payload: &[u8], flags: NodeFlags) -> Vec<u8> {
    seal(|buf| {
        buf.push(tag::R_TRACED);
        put_seq(buf, spans);
        buf.extend_from_slice(inner_payload);
        buf.push(flags.to_byte());
    })
}

/// Seals a complete reply frame: the encoded response followed by the
/// [`NodeFlags`] trailer byte. This is what the server writes for every
/// untraced request (traced ones go through [`seal_traced_reply`]).
pub fn seal_reply(resp: &Response, flags: NodeFlags) -> Vec<u8> {
    seal(|buf| {
        resp.encode_payload(buf);
        buf.push(flags.to_byte());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::io::Cursor;

    fn roundtrip_req(req: Request) {
        let frame = req.encode();
        let payload = read_frame(&mut Cursor::new(&frame)).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let frame = resp.encode();
        let (payload, used) = decode_frame(&frame).unwrap();
        assert_eq!(used, frame.len());
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Hello { version: 1 });
        roundtrip_req(Request::ExecSingle {
            txid: 42,
            policy: LockPolicy::Block(Duration::from_millis(3)),
            shard: WireShard {
                compares: vec![(0, 8, Bytes::from(vec![1, 2]))],
                reads: vec![(1, 16, 4)],
                writes: vec![(0, 24, Bytes::from(vec![9; 16]))],
            },
        });
        roundtrip_req(Request::Commit { txid: 7 });
        roundtrip_req(Request::MirrorConsistent {
            probe: vec![(0, 64), (128, 32)],
        });
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::EpochMark {
            epoch: 9,
            closing: true,
        });
        roundtrip_req(Request::ReplFetch {
            from: 4096,
            max: 512,
        });
        roundtrip_req(Request::ReplApply {
            from: 128,
            frames: Bytes::from(vec![3u8; 40]),
        });
        roundtrip_req(Request::ReplStatus);
        roundtrip_req(Request::Faults {
            spec: "wal.fsync=err:count=3;wire.server.send=drop".into(),
        });
        roundtrip_req(Request::Faults {
            spec: "clear".into(),
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Hello {
            version: 1,
            node: 3,
            capacity: 1 << 20,
        });
        roundtrip_resp(Response::Single(SingleResult::Committed(vec![(
            2,
            Bytes::from(vec![5; 8]),
        )])));
        roundtrip_resp(Response::Batch(vec![
            Ok(SingleResult::Busy),
            Err(4),
            Ok(SingleResult::BadCompare(vec![0, 3])),
        ]));
        roundtrip_resp(Response::Vote(Vote::Ok(vec![(0, Bytes::from(vec![1]))])));
        roundtrip_resp(Response::Error("nope".into()));
        roundtrip_resp(Response::Epoch(41));
        roundtrip_resp(Response::Frames {
            from: 64,
            base: 0,
            tail: 1024,
            bytes: Bytes::from(vec![5u8; 96]),
        });
        roundtrip_resp(Response::ReplStatus {
            watermark: 7,
            applied_txid: 9,
            tail: 11,
            applies: 13,
            dup_skips: 2,
        });
        roundtrip_resp(Response::Faults { armed: 2 });
        roundtrip_resp(Response::Faults { armed: 0 });
    }

    #[test]
    fn traced_envelope_roundtrips() {
        roundtrip_req(Request::Traced {
            trace_id: 0xDEAD_BEEF,
            inner: Box::new(Request::ExecSingle {
                txid: 42,
                policy: LockPolicy::AbortOnBusy,
                shard: WireShard {
                    compares: vec![],
                    reads: vec![(1, 16, 4)],
                    writes: vec![(0, 24, Bytes::from(vec![9; 16]))],
                },
            }),
        });
        roundtrip_req(Request::ObsSnapshot);
        roundtrip_req(Request::TraceDump {
            max: 32,
            slow: true,
        });
        roundtrip_resp(Response::TracedReply {
            spans: vec![
                SpanRecord {
                    kind: 11,
                    tag: 0,
                    depth: 1,
                    start_ns: 123,
                    dur_ns: 456,
                },
                SpanRecord {
                    kind: 13,
                    tag: 2,
                    depth: 2,
                    start_ns: 999,
                    dur_ns: 1,
                },
            ],
            inner: Box::new(Response::Single(SingleResult::Busy)),
        });
        roundtrip_resp(Response::Obs(Bytes::from(vec![1, 2, 3])));
        roundtrip_resp(Response::Traces(Bytes::from(vec![0; 4])));
    }

    #[test]
    fn nested_trace_envelopes_rejected() {
        // Hand-build a Traced(Traced(Meta)) payload: 0x13 id 0x13 id 0x10.
        let frame = seal(|buf| {
            buf.push(tag::TRACED);
            1u64.put(buf);
            buf.push(tag::TRACED);
            2u64.put(buf);
            buf.push(tag::META);
        });
        let (payload, _) = decode_frame(&frame).unwrap();
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::BadValue("nested traced envelope"))
        );
        let rframe = seal(|buf| {
            buf.push(tag::R_TRACED);
            0u32.put(buf);
            buf.push(tag::R_TRACED);
            0u32.put(buf);
            buf.push(tag::R_UNIT);
        });
        let (rpayload, _) = decode_frame(&rframe).unwrap();
        assert_eq!(
            Response::decode(&rpayload),
            Err(WireError::BadValue("nested traced reply"))
        );
    }

    #[test]
    fn kind_names_pierce_the_envelope() {
        let req = Request::Traced {
            trace_id: 1,
            inner: Box::new(Request::Commit { txid: 9 }),
        };
        assert_eq!(req.kind_name(), "commit");
        assert_eq!(req.tag_byte(), tag::COMMIT);
        assert_eq!(Request::ObsSnapshot.kind_name(), "obs_snapshot");
    }

    #[test]
    fn corrupt_frames_fail_cleanly() {
        let frame = Request::Commit { txid: 1 }.encode();
        // Truncations at every prefix length.
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err());
        }
        // Single bit flips anywhere must be detected.
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x10;
            assert!(decode_frame(&bad).is_err(), "flip at {byte} undetected");
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = vec![0u8; FRAME_HDR];
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::FrameTooLarge(u32::MAX))
        );
    }

    /// Frame-size conformance: the modeled byte accounting in the minitx
    /// module must match what the encoders actually put on the wire, per
    /// RPC type — so in-process byte counters agree with wire mode.
    #[test]
    fn modeled_bytes_match_real_frames() {
        use crate::addr::ItemRange;
        use crate::memnode::SingleResult;
        use crate::minitx::Minitransaction;

        let mem = crate::addr::MemNodeId(0);
        let mut m = Minitransaction::new();
        m.compare(ItemRange::new(mem, 0, 3), vec![1, 2, 3]);
        m.read(ItemRange::new(mem, 8, 16));
        m.read(ItemRange::new(mem, 64, 5));
        m.write(ItemRange::new(mem, 128, 7), vec![9; 7]);
        let (model_out, model_in) = m.wire_bytes();

        // One-phase request: ExecSingle carrying the full shard.
        let shards = m.shard();
        let shard = shards.get(&mem).unwrap();
        let req = Request::ExecSingle {
            txid: 7,
            policy: LockPolicy::AbortOnBusy,
            shard: WireShard::from_shard(shard),
        };
        assert_eq!(req.encode().len() as u64, model_out, "exec_single request");

        // Committed reply carrying both reads (+ the v3 flags trailer).
        let resp = Response::Single(SingleResult::Committed(vec![
            (0, Bytes::from(vec![0u8; 16])),
            (1, Bytes::from(vec![0u8; 5])),
        ]));
        assert_eq!(
            seal_reply(&resp, NodeFlags::default()).len() as u64,
            model_in,
            "exec_single reply"
        );

        // Blocking policy adds the u64 budget.
        let mb = m.clone().blocking(Duration::from_millis(1));
        let req = Request::ExecSingle {
            txid: 7,
            policy: LockPolicy::Block(Duration::from_millis(1)),
            shard: WireShard::from_shard(shard),
        };
        assert_eq!(
            req.encode().len() as u64,
            mb.wire_bytes().0,
            "blocking exec_single request"
        );

        // Two-phase prepare with a 3-node participant list.
        let participants = vec![0u16, 1, 2];
        let (prep_out, prep_in) =
            shard.prepare_wire_bytes(participants.len(), LockPolicy::AbortOnBusy);
        let req = Request::Prepare {
            txid: 7,
            policy: LockPolicy::AbortOnBusy,
            participants,
            shard: WireShard::from_shard(shard),
        };
        assert_eq!(req.encode().len() as u64, prep_out, "prepare request");
        let resp = Response::Vote(Vote::Ok(vec![
            (0, Bytes::from(vec![0u8; 16])),
            (1, Bytes::from(vec![0u8; 5])),
        ]));
        assert_eq!(
            seal_reply(&resp, NodeFlags::default()).len() as u64,
            prep_in,
            "vote reply"
        );

        // Decision round trips: 17 bytes out, 10 back (see exec.rs).
        assert_eq!(Request::Commit { txid: 7 }.encode().len(), 17);
        assert_eq!(Request::Abort { txid: 7 }.encode().len(), 17);
        assert_eq!(seal_reply(&Response::Unit, NodeFlags::default()).len(), 10);

        // Batched execution: 13 bytes of request envelope + exact member
        // shares; the reply envelope is 14 (trailer included).
        let members = [m.clone(), m.clone()];
        let (batch_out, batch_in) = members.iter().fold((13u64, 14u64), |(o, b), mm| {
            let (wo, wb) = mm.batch_member_wire_bytes();
            (o + wo, b + wb)
        });
        let req = Request::ExecBatch {
            items: members
                .iter()
                .map(|mm| {
                    let shards = mm.shard();
                    WireBatchItem {
                        txid: 7,
                        policy: LockPolicy::AbortOnBusy,
                        shard: WireShard::from_shard(shards.get(&mem).unwrap()),
                    }
                })
                .collect(),
        };
        assert_eq!(req.encode().len() as u64, batch_out, "exec_batch request");
        let resp = Response::Batch(vec![
            Ok(SingleResult::Committed(vec![
                (0, Bytes::from(vec![0u8; 16])),
                (1, Bytes::from(vec![0u8; 5])),
            ])),
            Ok(SingleResult::Committed(vec![
                (0, Bytes::from(vec![0u8; 16])),
                (1, Bytes::from(vec![0u8; 5])),
            ])),
        ]);
        assert_eq!(
            seal_reply(&resp, NodeFlags::default()).len() as u64,
            batch_in,
            "exec_batch reply"
        );
    }

    #[test]
    fn flags_trailer_roundtrips_and_rejects_junk() {
        for flags in [
            NodeFlags::default(),
            NodeFlags {
                crashed: true,
                joining: false,
                retiring: true,
            },
            NodeFlags {
                crashed: false,
                joining: true,
                retiring: false,
            },
        ] {
            assert_eq!(NodeFlags::from_byte(flags.to_byte()).unwrap(), flags);
            let frame = seal_reply(&Response::Unit, flags);
            let (payload, _) = decode_frame(&frame).unwrap();
            let (body, got) = split_reply_flags(&payload).unwrap();
            assert_eq!(got, flags);
            assert_eq!(Response::decode(&body).unwrap(), Response::Unit);
        }
        assert!(NodeFlags::from_byte(0x08).is_err());
        assert!(split_reply_flags(&Bytes::from(vec![])).is_err());
    }

    /// One sealed frame per request and response variant, with every
    /// sub-enum arm (lock policy, single result, vote, batch member).
    fn golden_cases() -> Vec<(&'static str, Vec<u8>)> {
        let shard = WireShard {
            compares: vec![(0, 8, Bytes::from(vec![1, 2]))],
            reads: vec![(1, 16, 4)],
            writes: vec![(2, 24, Bytes::from(vec![9; 3]))],
        };
        let pairs = vec![(1, Bytes::from(vec![5, 6]))];
        let mut staged = HashMap::new();
        staged.insert(
            11,
            vec![crate::addr::MemNodeId(0), crate::addr::MemNodeId(1)],
        );
        let meta = NodeMeta {
            staged,
            decided: [12].into_iter().collect(),
        };
        let span = SpanRecord {
            kind: 11,
            tag: 2,
            depth: 1,
            start_ns: 123,
            dur_ns: 456,
        };
        let f = NodeFlags {
            crashed: false,
            joining: true,
            retiring: false,
        };
        let req = |r: Request| r.encode();
        let resp = |r: Response| seal_reply(&r, f);
        vec![
            ("hello", req(Request::Hello { version: 4 })),
            (
                "exec_single",
                req(Request::ExecSingle {
                    txid: 42,
                    policy: LockPolicy::AbortOnBusy,
                    shard: shard.clone(),
                }),
            ),
            (
                "exec_batch",
                req(Request::ExecBatch {
                    items: vec![WireBatchItem {
                        txid: 43,
                        policy: LockPolicy::Block(Duration::from_micros(3)),
                        shard: shard.clone(),
                    }],
                }),
            ),
            (
                "prepare",
                req(Request::Prepare {
                    txid: 44,
                    policy: LockPolicy::AbortOnBusy,
                    participants: vec![0, 3],
                    shard,
                }),
            ),
            ("commit", req(Request::Commit { txid: 45 })),
            ("abort", req(Request::Abort { txid: 46 })),
            ("raw_read", req(Request::RawRead { off: 64, len: 32 })),
            (
                "raw_write",
                req(Request::RawWrite {
                    off: 64,
                    data: Bytes::from(vec![7, 8]),
                }),
            ),
            ("set_joining", req(Request::SetJoining(true))),
            ("set_retiring", req(Request::SetRetiring(false))),
            ("crash", req(Request::Crash)),
            ("recover", req(Request::Recover)),
            ("checkpoint", req(Request::Checkpoint)),
            ("meta", req(Request::Meta)),
            (
                "mirror",
                req(Request::MirrorConsistent {
                    probe: vec![(0, 64), (128, 32)],
                }),
            ),
            ("shutdown", req(Request::Shutdown)),
            (
                "traced",
                req(Request::Traced {
                    trace_id: 0xBEEF,
                    inner: Box::new(Request::Commit { txid: 47 }),
                }),
            ),
            (
                "traced_fn",
                encode_traced_request(0xBEEF, &Request::Commit { txid: 47 }),
            ),
            ("obs_snapshot", req(Request::ObsSnapshot)),
            (
                "trace_dump",
                req(Request::TraceDump {
                    max: 32,
                    slow: true,
                }),
            ),
            (
                "epoch_mark",
                req(Request::EpochMark {
                    epoch: 9,
                    closing: true,
                }),
            ),
            (
                "repl_fetch",
                req(Request::ReplFetch {
                    from: 4096,
                    max: 512,
                }),
            ),
            (
                "repl_apply",
                req(Request::ReplApply {
                    from: 128,
                    frames: Bytes::from(vec![3; 2]),
                }),
            ),
            ("repl_status", req(Request::ReplStatus)),
            (
                "faults",
                req(Request::Faults {
                    spec: "clear".into(),
                }),
            ),
            (
                "r_hello",
                resp(Response::Hello {
                    version: 4,
                    node: 3,
                    capacity: 1 << 20,
                }),
            ),
            (
                "r_single_committed",
                resp(Response::Single(SingleResult::Committed(pairs.clone()))),
            ),
            (
                "r_single_bad_compare",
                resp(Response::Single(SingleResult::BadCompare(vec![0, 2]))),
            ),
            ("r_single_busy", resp(Response::Single(SingleResult::Busy))),
            (
                "r_batch",
                resp(Response::Batch(vec![
                    Ok(SingleResult::Committed(pairs.clone())),
                    Err(4),
                ])),
            ),
            ("r_vote_ok", resp(Response::Vote(Vote::Ok(pairs)))),
            (
                "r_vote_bad_compare",
                resp(Response::Vote(Vote::BadCompare(vec![1]))),
            ),
            ("r_vote_busy", resp(Response::Vote(Vote::Busy))),
            ("r_unit", resp(Response::Unit)),
            ("r_data", resp(Response::Data(Bytes::from(vec![1, 2, 3])))),
            ("r_bool", resp(Response::Bool(true))),
            ("r_meta", resp(Response::Meta(meta))),
            ("r_unavailable", resp(Response::Unavailable(2))),
            ("r_error", resp(Response::Error("nope".into()))),
            (
                "r_traced",
                resp(Response::TracedReply {
                    spans: vec![span],
                    inner: Box::new(Response::Unit),
                }),
            ),
            (
                "r_traced_fn",
                seal_traced_reply(&[span], &encode_response_payload(&Response::Unit), f),
            ),
            ("r_obs", resp(Response::Obs(Bytes::from(vec![4, 5])))),
            ("r_traces", resp(Response::Traces(Bytes::from(vec![6])))),
            ("r_epoch", resp(Response::Epoch(41))),
            (
                "r_frames",
                resp(Response::Frames {
                    from: 64,
                    base: 0,
                    tail: 1024,
                    bytes: Bytes::from(vec![5; 2]),
                }),
            ),
            (
                "r_repl_status",
                resp(Response::ReplStatus {
                    watermark: 7,
                    applied_txid: 9,
                    tail: 11,
                    applies: 13,
                    dup_skips: 2,
                }),
            ),
            ("r_faults", resp(Response::Faults { armed: 2 })),
        ]
    }

    /// Hex-pinned frames (header, CRC, payload and, for replies, the
    /// flags trailer) of every message: a codec change that moves a byte
    /// fails here.
    const GOLDEN: &[(&str, &str)] = &[
        ("hello", "030000002176ef9a010400"),
        ("exec_single", "4b0000002a6eb7a4022a00000000000000000100000000000000080000000000000002000000010201000000010000001000000000000000040000000100000002000000180000000000000003000000090909"),
        ("exec_batch", "57000000f81e860f03010000002b0000000000000001b80b0000000000000100000000000000080000000000000002000000010201000000010000001000000000000000040000000100000002000000180000000000000003000000090909"),
        ("prepare", "530000000310b39f042c000000000000000002000000000003000100000000000000080000000000000002000000010201000000010000001000000000000000040000000100000002000000180000000000000003000000090909"),
        ("commit", "090000006626edce052d00000000000000"),
        ("abort", "09000000401def79062e00000000000000"),
        ("raw_read", "0d000000145856e207400000000000000020000000"),
        ("raw_write", "0f0000006f87b155084000000000000000020000000708"),
        ("set_joining", "0200000020991ce70901"),
        ("set_retiring", "0200000075fa36bb0a00"),
        ("crash", "010000000536d0450b"),
        ("recover", "01000000a6a3b4db0c"),
        ("checkpoint", "010000003093b3ac0d"),
        ("meta", "01000000e9ffb5cf10"),
        ("mirror", "1d000000195d7b031102000000000000000000000040000000800000000000000020000000"),
        ("shutdown", "01000000c59ebb2112"),
        ("traced", "120000000d8a734b13efbe000000000000052f00000000000000"),
        ("traced_fn", "120000000d8a734b13efbe000000000000052f00000000000000"),
        ("obs_snapshot", "01000000f03bd8c814"),
        ("trace_dump", "06000000192d1f54152000000001"),
        ("epoch_mark", "0a000000141f9e1216090000000000000001"),
        ("repl_fetch", "0d000000a5f6726b17001000000000000000020000"),
        ("repl_apply", "0f000000bf1ca720188000000000000000020000000303"),
        ("repl_status", "010000004d4769b619"),
        ("faults", "0a000000033a02ba1a05000000636c656172"),
        ("r_hello", "0e00000026864c1f8104000300000010000000000002"),
        ("r_single_committed", "11000000d2bb2af68200010000000100000002000000050602"),
        ("r_single_bad_compare", "0f000000bc244f58820102000000000000000200000002"),
        ("r_single_busy", "030000005215c8c1820202"),
        ("r_batch", "190000004c08ad5083020000000000010000000100000002000000050601040002"),
        ("r_vote_ok", "11000000da0c1e518400010000000100000002000000050602"),
        ("r_vote_bad_compare", "0b00000010c068878401010000000100000002"),
        ("r_vote_busy", "03000000e06945c5840202"),
        ("r_unit", "02000000dd1f23e98502"),
        ("r_data", "090000006cebd203860300000001020302"),
        ("r_bool", "030000007a842eec870102"),
        ("r_meta", "22000000fb2562b48a010000000b000000000000000200000000000100010000000c0000000000000002"),
        ("r_unavailable", "04000000645b96f68b020002"),
        ("r_error", "0a00000012686da58c040000006e6f706502"),
        ("r_traced", "1a0000009d3694638d010000000b02017b00000000000000c8010000000000008502"),
        ("r_traced_fn", "1a0000009d3694638d010000000b02017b00000000000000c8010000000000008502"),
        ("r_obs", "080000001d647c208e02000000040502"),
        ("r_traces", "070000006a503a908f010000000602"),
        ("r_epoch", "0a0000004bb57de290290000000000000002"),
        ("r_frames", "20000000d4b8db0b9140000000000000000000000000000000000400000000000002000000050502"),
        ("r_repl_status", "2a000000aa22aa9392070000000000000009000000000000000b000000000000000d00000000000000020000000000000002"),
        ("r_faults", "0600000002f7febe930200000002"),
    ];

    #[test]
    fn golden_frames_are_pinned() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let got: Vec<(&str, String)> = golden_cases()
            .into_iter()
            .map(|(n, f)| (n, hex(&f)))
            .collect();
        assert_eq!(got.len(), GOLDEN.len(), "one golden frame per case");
        for ((name, h), (gname, gh)) in got.iter().zip(GOLDEN) {
            assert_eq!(name, gname);
            assert_eq!(h, gh, "frame of {name} moved");
        }
    }

    #[test]
    fn zero_copy_decode_aliases_the_frame() {
        let payload = Bytes::from(vec![7u8; 1024]);
        let req = Request::RawWrite {
            off: 0,
            data: payload,
        };
        let frame = req.encode();
        let buf = read_frame(&mut Cursor::new(&frame)).unwrap();
        match Request::decode(&buf).unwrap() {
            Request::RawWrite { data, .. } => {
                assert!(Bytes::same_buffer(&data, &buf), "decode must not copy");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
