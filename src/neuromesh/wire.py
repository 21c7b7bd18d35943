"""Inter-agent message format and per-neighbor keep-latest buffering.

Wire layout (all multi-byte fields little-endian):

    magic "NMSH" (4 B) | version u8 = 1 | sender_id u16 | seq u32 |
    timestamp_ns u64 | round u8 | ndims u8 | dims u32 x ndims |
    payload f32 x prod(dims)

Protocol constants:

    MAGIC             b"NMSH"
    VERSION           1
    MAX_DIMS          8 dims per payload shape
    DEFAULT_STALENESS_NS   500 ms

Buffer semantics: one slot per registered neighbor holding the
highest-sequence envelope accepted so far. Arrivals with a sequence index
at or below the stored one are rejected (out of order or duplicate).
Eviction removes envelopes whose sender timestamp is older than the
staleness threshold; an envelope aged exactly the threshold is retained.
A slot also keeps the envelope its latest one replaced, read only by a
round-filtered snapshot: in blocking rounds a neighbor can be at most one
round ahead of an agent still waiting, so two deep is enough. A snapshot
evicts and lists in one pass, as if it evicted first: a slot whose latest
envelope is stale goes, even if its replaced one matches the round filter.
It walks the buffer's neighbor ids, kept as an ascending tuple, so it
lists in ascending id without sorting its slots.
Staleness compares the sender timestamp against the local clock, so
deployments over real links must synchronize clocks externally.

Decoded payloads are read-only views over the immutable wire bytes. A team
shares one decode memo (see ``aggregation.build_team``), so every receiver
of one broadcast gets the same envelope object from its own decode call.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    PayloadLengthError,
    ProtocolLimitError,
    TruncatedMessageError,
    UnknownSenderError,
)

MAGIC = b"NMSH"
VERSION = 1
MAX_DIMS = 8
DEFAULT_STALENESS_NS = 500_000_000

_HEADER = struct.Struct("<4sBHIQBB")  # magic, version, sender, seq, timestamp, round, ndims
_F32 = np.dtype("<f4")
_DIMS = [struct.Struct(f"<{n}I") for n in range(MAX_DIMS + 1)]  # indexed by ndims

_U16 = 1 << 16
_U32 = 1 << 32
_U64 = 1 << 64
_MEMO_LOCK = threading.Lock()  # loopback receive threads share their team's memo


@dataclass
class MessageEnvelope:
    """One inter-agent message: routing header plus a float32 tensor payload."""

    sender_id: int
    seq: int
    timestamp_ns: int
    round: int
    payload: np.ndarray

    def __post_init__(self):
        self.payload = np.ascontiguousarray(self.payload, dtype="<f4")

    def __eq__(self, other):
        if not isinstance(other, MessageEnvelope):
            return NotImplemented
        return (
            self.sender_id == other.sender_id
            and self.seq == other.seq
            and self.timestamp_ns == other.timestamp_ns
            and self.round == other.round
            and self.payload.shape == other.payload.shape
            and self.payload.tobytes() == other.payload.tobytes()
        )


def _check_range(name: str, value: int, limit: int) -> None:
    if not 0 <= value < limit:
        raise ProtocolLimitError(name, f"{name} {value} outside [0, {limit})")


def header_size(ndims: int) -> int:
    """Byte length of the wire header for a payload of the given rank."""
    return _HEADER.size + 4 * ndims


def encode_envelope(env: MessageEnvelope) -> bytes:
    """Serialize to the exact byte layout documented in the module header."""
    _check_range("sender_id", env.sender_id, _U16)
    _check_range("seq", env.seq, _U32)
    _check_range("timestamp_ns", env.timestamp_ns, _U64)
    _check_range("round", env.round, 256)
    shape = env.payload.shape
    if len(shape) == 0:
        raise ProtocolLimitError("ndims", "scalar payloads must use shape [1], not []")
    if len(shape) > MAX_DIMS:
        raise ProtocolLimitError("ndims", f"{len(shape)} dims exceed the limit of {MAX_DIMS}")
    for d in shape:
        _check_range("dim", d, _U32)
    parts = [
        _HEADER.pack(
            MAGIC, VERSION, env.sender_id, env.seq, env.timestamp_ns, env.round, len(shape)
        ),
        _DIMS[len(shape)].pack(*shape),
        env.payload.tobytes(),
    ]
    return b"".join(parts)


def decode_envelope(data: bytes, *, memo: dict | None = None) -> MessageEnvelope:
    """Parse wire bytes; raises a distinct error kind per malformed field.

    Fields are checked in wire order, so a buffer with several faults
    reports the first one. The payload is a read-only view over the bytes.
    ``memo`` maps wire bytes to the envelope decoded from them, and each
    sender id to the bytes it last stored there: repeated bytes return the
    stored envelope, and a sender's new bytes evict its previous ones.
    Bytes that fail a check are never stored.
    """
    if type(data) is not bytes:
        data = bytes(data)  # the payload view must not see later writes
    if memo is not None:
        hit = memo.get(data)
        if hit is not None:
            return hit
    size = len(data)
    if size < 4:
        raise TruncatedMessageError("magic", 4, size)
    if data[:4] != MAGIC:
        raise BadMagicError(bytes(data[:4]))
    if size < 5:
        raise TruncatedMessageError("version", 5, size)
    if data[4] != VERSION:
        raise BadVersionError(data[4], VERSION)
    if size < _HEADER.size:
        raise TruncatedMessageError("header", _HEADER.size, size)
    _, _, sender_id, seq, timestamp_ns, round_, ndims = _HEADER.unpack_from(data)
    if ndims == 0 or ndims > MAX_DIMS:
        raise ProtocolLimitError("ndims", f"ndims {ndims} outside [1, {MAX_DIMS}]")
    dims_end = _HEADER.size + 4 * ndims
    if size < dims_end:
        raise TruncatedMessageError("dims", dims_end, size)
    shape = _DIMS[ndims].unpack_from(data, _HEADER.size)
    count = math.prod(shape)
    expected, got = 4 * count, size - dims_end
    if got != expected:
        if got < expected:
            raise TruncatedMessageError("payload", expected, got)
        raise PayloadLengthError(expected, got)
    # Positional arguments: keyword parsing costs frombuffer more than the read.
    payload = np.frombuffer(data, _F32, count, dims_end).reshape(shape)
    env = MessageEnvelope(sender_id, seq, timestamp_ns, round_, payload)
    if memo is not None:
        with _MEMO_LOCK:
            memo.pop(memo.get(sender_id), None)  # the sender's previous bytes, if any
            memo[sender_id] = data
            memo[data] = env
    return env


class NeighborBuffer:
    """Keep-latest store with one slot per registered neighbor.

    Insert and snapshot hold an internal lock, so a transport receive
    thread and the aggregation stage can share a buffer without observing
    partially applied updates.
    """

    def __init__(self, neighbor_ids, staleness_ns: int = DEFAULT_STALENESS_NS):
        self._order = tuple(sorted(set(map(int, neighbor_ids))))  # the order snapshots list in
        self._neighbors = frozenset(self._order)
        self.staleness_ns = int(staleness_ns)
        # sender -> (latest envelope, the envelope it replaced or None)
        self._slots: dict[int, tuple[MessageEnvelope, MessageEnvelope | None]] = {}
        self._lock = threading.Lock()

    @property
    def neighbor_ids(self) -> frozenset[int]:
        return self._neighbors

    def insert(self, env: MessageEnvelope, now_ns: int) -> bool:
        """Accept iff the slot is empty or ``env.seq`` strictly increases."""
        sender = env.sender_id
        with self._lock:
            held = self._slots.get(sender)
            if held is None:  # only a registered neighbor ever holds a slot
                if sender not in self._neighbors:
                    raise UnknownSenderError(sender)
            elif env.seq <= held[0].seq:
                return False
            self._slots[sender] = (env, None if held is None else held[0])
            return True

    def insert_bytes(self, data: bytes, now_ns: int, memo: dict | None = None) -> bool:
        """Decode-and-insert for transport receive callbacks; ``memo`` as in decode."""
        return self.insert(decode_envelope(data, memo=memo), now_ns)

    def evict_stale(self, now_ns: int) -> int:
        """Drop envelopes older than the threshold; age == threshold survives."""
        with self._lock:
            stale = [
                nid
                for nid, (env, _) in self._slots.items()
                if now_ns - env.timestamp_ns > self.staleness_ns
            ]
            for nid in stale:
                del self._slots[nid]
            return len(stale)

    def snapshot(self, now_ns: int, round_index: int | None = None):
        """Evict, then list live (neighbor_id, payload, age_ns) ascending by id, in one pass.

        ``round_index`` restricts the view to envelopes tagged with that
        communication round, falling back to a slot's previous envelope
        when that one carries the round and is not stale.
        """
        staleness = self.staleness_ns
        with self._lock:
            slots = self._slots
            get = slots.get
            out = []
            for nid in self._order:
                slot = get(nid)
                if slot is None:
                    continue
                env, prev = slot
                age = now_ns - env.timestamp_ns
                if age > staleness:
                    del slots[nid]
                    continue
                if round_index is not None and env.round != round_index:
                    if prev is None or prev.round != round_index:
                        continue
                    age = now_ns - prev.timestamp_ns
                    if age > staleness:
                        continue
                    env = prev
                out.append((nid, env.payload, age))
            return out
