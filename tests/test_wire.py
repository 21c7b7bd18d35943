import itertools
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuromesh.errors import (
    BadMagicError,
    BadVersionError,
    PayloadLengthError,
    ProtocolLimitError,
    TruncatedMessageError,
    UnknownSenderError,
    WireError,
)
from neuromesh.wire import (
    MAX_DIMS,
    MessageEnvelope,
    NeighborBuffer,
    decode_envelope,
    encode_envelope,
    header_size,
)

GOLDEN_HEX = "4e4d53480103000700000000000000000000000001020000000000803f00000000"


def make_env(sender=1, seq=1, ts=0, round_=0, payload=None):
    if payload is None:
        payload = np.zeros(1, dtype=np.float32)
    return MessageEnvelope(sender, seq, ts, round_, payload)


class TestEncodeDecode:
    def test_golden_byte_vector(self):
        env = make_env(sender=3, seq=7, payload=np.array([1.0, 0.0], dtype=np.float32))
        blob = encode_envelope(env)
        assert blob.hex() == GOLDEN_HEX
        assert decode_envelope(blob) == env

    def test_header_size_matches_layout(self):
        env = make_env(payload=np.zeros((2, 3), dtype=np.float32))
        assert len(encode_envelope(env)) == header_size(2) + 4 * 6

    def test_scalar_shape_rejected(self):
        env = make_env()
        env.payload = np.float32(1.0).reshape(())
        with pytest.raises(ProtocolLimitError, match=r"shape \[1\]"):
            encode_envelope(env)

    def test_too_many_dims_rejected(self):
        env = make_env(payload=np.zeros((1,) * (MAX_DIMS + 1), dtype=np.float32))
        with pytest.raises(ProtocolLimitError, match="dims"):
            encode_envelope(env)

    def test_field_range_checks(self):
        with pytest.raises(ProtocolLimitError, match="sender_id"):
            encode_envelope(make_env(sender=1 << 16))
        with pytest.raises(ProtocolLimitError, match="seq"):
            encode_envelope(make_env(seq=1 << 32))
        with pytest.raises(ProtocolLimitError, match="round"):
            encode_envelope(make_env(round_=256))

    def test_corrupted_magic(self):
        blob = bytearray(encode_envelope(make_env()))
        blob[0] ^= 0xFF
        with pytest.raises(BadMagicError) as err:
            decode_envelope(bytes(blob))
        assert err.value.field == "magic"

    def test_unsupported_version(self):
        blob = bytearray(encode_envelope(make_env()))
        blob[4] = 9
        with pytest.raises(BadVersionError) as err:
            decode_envelope(bytes(blob))
        assert err.value.field == "version"

    def test_truncated_payload(self):
        blob = encode_envelope(make_env(payload=np.ones(4, dtype=np.float32)))
        with pytest.raises(TruncatedMessageError) as err:
            decode_envelope(blob[:-4])
        assert err.value.field == "payload"

    def test_truncated_header(self):
        blob = encode_envelope(make_env())
        with pytest.raises(TruncatedMessageError):
            decode_envelope(blob[:10])

    def test_trailing_bytes_are_a_length_mismatch(self):
        blob = encode_envelope(make_env())
        with pytest.raises(PayloadLengthError):
            decode_envelope(blob + b"\0\0\0\0")

    def test_encode_is_deterministic(self):
        env = make_env(sender=9, seq=1234, ts=5_000_000, round_=2,
                       payload=np.arange(6, dtype=np.float32).reshape(2, 3))
        assert encode_envelope(env) == encode_envelope(env)

    @given(
        sender=st.integers(0, 2**16 - 1),
        seq=st.integers(0, 2**32 - 1),
        ts=st.integers(0, 2**64 - 1),
        round_=st.integers(0, 255),
        values=st.lists(st.floats(-1e6, 1e6, width=32), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, sender, seq, ts, round_, values):
        env = MessageEnvelope(sender, seq, ts, round_, np.array(values, dtype=np.float32))
        assert decode_envelope(encode_envelope(env)) == env

    def test_round_trip_ten_thousand_seeded_envelopes(self):
        rng = random.Random(99)
        for _ in range(10_000):
            ndims = rng.randint(1, 3)
            shape = tuple(rng.randint(1, 4) for _ in range(ndims))
            count = int(np.prod(shape))
            payload = np.array(
                [rng.uniform(-1e4, 1e4) for _ in range(count)], dtype=np.float32
            ).reshape(shape)
            env = MessageEnvelope(
                rng.randrange(1 << 16), rng.randrange(1 << 32), rng.randrange(1 << 64),
                rng.randrange(256), payload,
            )
            assert decode_envelope(encode_envelope(env)) == env


FIXED_HEADER = 21  # magic 4 + version 1 + sender 2 + seq 4 + timestamp 8 + round 1 + ndims 1
VALID_PAYLOADS = {
    "1-D": np.arange(3, dtype=np.float32),
    "3-D": np.arange(6, dtype=np.float32).reshape(2, 1, 3),
}


def decode_error(blob):
    """(error class, field, message) that decoding ``blob`` raises."""
    with pytest.raises(WireError) as err:
        decode_envelope(blob)
    return type(err.value), err.value.field, str(err.value)


def as_error(exc):
    return type(exc), exc.field, str(exc)


@pytest.mark.parametrize("kind", list(VALID_PAYLOADS))
class TestDecodeErrorTable:
    """Which error each malformed buffer raises, checks in wire-field order."""

    def blob(self, kind):
        payload = VALID_PAYLOADS[kind]
        return encode_envelope(make_env(sender=5, seq=9, ts=123, round_=4, payload=payload))

    def test_every_prefix_names_the_first_missing_field(self, kind):
        blob = self.blob(kind)
        dims_end = FIXED_HEADER + 4 * VALID_PAYLOADS[kind].ndim
        assert dims_end == header_size(VALID_PAYLOADS[kind].ndim)
        for k in range(len(blob)):
            if k < 4:
                want = TruncatedMessageError("magic", 4, k)
            elif k < 5:
                want = TruncatedMessageError("version", 5, k)
            elif k < FIXED_HEADER:
                want = TruncatedMessageError("header", FIXED_HEADER, k)
            elif k < dims_end:
                want = TruncatedMessageError("dims", dims_end, k)
            else:
                want = TruncatedMessageError("payload", len(blob) - dims_end, k - dims_end)
            assert decode_error(blob[:k]) == as_error(want), k

    def test_one_trailing_byte_is_a_length_mismatch(self, kind):
        blob = self.blob(kind)
        expected = 4 * VALID_PAYLOADS[kind].size
        assert decode_error(blob + b"\0") == as_error(PayloadLengthError(expected, expected + 1))

    def test_bad_magic_wins_over_every_later_truncation(self, kind):
        blob = b"NMSX" + self.blob(kind)[4:]
        for k in range(4, len(blob) + 1):
            assert decode_error(blob[:k]) == as_error(BadMagicError(b"NMSX")), k
        assert decode_error(b"NM") == as_error(TruncatedMessageError("magic", 4, 2))

    def test_bad_version_wins_over_every_later_truncation(self, kind):
        blob = bytearray(self.blob(kind))
        blob[4] = 2
        for k in range(5, len(blob) + 1):
            assert decode_error(bytes(blob[:k])) == as_error(BadVersionError(2, 1)), k

    @pytest.mark.parametrize("ndims", [0, MAX_DIMS + 1])
    def test_ndims_out_of_range_wins_over_dims_and_payload(self, kind, ndims):
        blob = bytearray(self.blob(kind))
        blob[FIXED_HEADER - 1] = ndims
        want = ProtocolLimitError("ndims", f"ndims {ndims} outside [1, {MAX_DIMS}]")
        for k in range(FIXED_HEADER, len(blob) + 1):
            assert decode_error(bytes(blob[:k])) == as_error(want), k


class TestNeighborBuffer:
    def test_out_of_order_arrival_discarded(self):
        buf = NeighborBuffer([7])
        for seq in (1, 3):
            assert buf.insert(make_env(sender=7, seq=seq))
        assert not buf.insert(make_env(sender=7, seq=2))
        [(nid, _, _)] = buf.snapshot(0)
        assert nid == 7
        assert buf._slots[7][0].seq == 3

    def test_in_order_arrivals_keep_latest(self):
        buf = NeighborBuffer([1])
        for seq in (1, 2, 3):
            assert buf.insert(make_env(seq=seq))
        assert buf._slots[1][0].seq == 3

    def test_duplicate_seq_rejected(self):
        buf = NeighborBuffer([1])
        assert buf.insert(make_env(seq=5))
        assert not buf.insert(make_env(seq=5))

    def test_unknown_sender_is_an_error_not_a_drop(self):
        buf = NeighborBuffer([1, 2])
        with pytest.raises(UnknownSenderError):
            buf.insert(make_env(sender=3))

    def test_keep_latest_over_all_permutations(self):
        for perm in itertools.permutations([1, 2, 3, 4, 5]):
            buf = NeighborBuffer([1])
            running_max = 0
            for seq in perm:
                accepted = buf.insert(make_env(seq=seq))
                assert accepted == (seq > running_max), perm
                running_max = max(running_max, seq)
                assert buf._slots[1][0].seq == running_max

    def test_eviction_threshold(self):
        ms = 1_000_000
        buf = NeighborBuffer([1], staleness_ns=100 * ms)
        now = 1_000 * ms
        buf.insert(make_env(seq=1, ts=now - 150 * ms))
        assert buf.snapshot(now) == []
        assert 1 not in buf._slots
        buf.insert(make_env(seq=2, ts=now - 50 * ms))
        assert [nid for nid, _, _ in buf.snapshot(now)] == [1]

    def test_eviction_boundary_is_inclusive(self):
        buf = NeighborBuffer([1], staleness_ns=100)
        buf.insert(make_env(seq=1, ts=0))
        assert [age for _, _, age in buf.snapshot(100)] == [100]  # age == threshold is live
        assert buf.snapshot(101) == []  # a nanosecond older: neither listed...
        assert buf.snapshot(100) == []  # ...nor kept

    def test_eviction_is_idempotent(self):
        buf = NeighborBuffer([1, 2], staleness_ns=10)
        buf.insert(make_env(sender=1, seq=1, ts=0))
        buf.insert(make_env(sender=2, seq=1, ts=0))
        assert buf.snapshot(50) == []
        assert buf._slots == {}
        assert buf.snapshot(50) == []

    def test_snapshot_empty_when_nothing_received(self):
        buf = NeighborBuffer([1, 2, 3])
        assert buf.snapshot(0) == []

    def test_snapshot_orders_by_neighbor_id(self):
        buf = NeighborBuffer([5, 2])
        buf.insert(make_env(sender=5, seq=1))
        buf.insert(make_env(sender=2, seq=1))
        assert [nid for nid, _, _ in buf.snapshot(0)] == [2, 5]

    def test_unsorted_repeated_neighbor_ids_still_read_in_ascending_id(self):
        buf = NeighborBuffer([3, 1, 2, 3])
        assert buf.neighbor_ids == {1, 2, 3}
        for sender in (3, 1, 2):  # filled out of id order
            assert buf.insert(make_env(sender=sender, seq=1))
        assert [nid for nid, _, _ in buf.snapshot(0)] == [1, 2, 3]
        with pytest.raises(UnknownSenderError):
            buf.insert(make_env(sender=4))
        assert [nid for nid, _, _ in buf.snapshot(0)] == [1, 2, 3]

    def test_snapshot_runs_eviction_first(self):
        buf = NeighborBuffer([1, 2], staleness_ns=100)
        buf.insert(make_env(sender=1, seq=1, ts=0))
        buf.insert(make_env(sender=2, seq=1, ts=500))
        live = buf.snapshot(500)
        assert [nid for nid, _, _ in live] == [2]

    def test_snapshot_round_filter(self):
        buf = NeighborBuffer([1, 2])
        buf.insert(make_env(sender=1, seq=1, round_=0))
        buf.insert(make_env(sender=2, seq=1, round_=1))
        assert [nid for nid, _, _ in buf.snapshot(0, round_index=1)] == [2]

    def test_round_filter_falls_back_to_the_replaced_envelope(self):
        # a neighbor one round ahead must not hide the round a slower agent awaits
        buf = NeighborBuffer([1], staleness_ns=10**9)
        round0 = np.array([1.0, 2.0], dtype=np.float32)
        round1 = np.array([3.0, 4.0], dtype=np.float32)
        assert buf.insert(make_env(seq=1, round_=0, payload=round0))
        assert buf.insert(make_env(seq=2, round_=1, payload=round1))
        [(nid, payload, _)] = buf.snapshot(0, round_index=0)
        assert nid == 1 and payload.tobytes() == round0.tobytes()
        [(_, payload, _)] = buf.snapshot(0, round_index=1)
        assert payload.tobytes() == round1.tobytes()
        [(_, payload, _)] = buf.snapshot(0)
        assert payload.tobytes() == round1.tobytes()
        assert buf.snapshot(0, round_index=2) == []

    def test_stale_replaced_envelope_is_not_a_fallback(self):
        buf = NeighborBuffer([1], staleness_ns=100)
        buf.insert(make_env(seq=1, ts=0, round_=0))
        buf.insert(make_env(seq=2, ts=200, round_=1))
        assert buf.snapshot(200, round_index=0) == []
        assert len(buf.snapshot(200, round_index=1)) == 1

    def test_snapshot_reports_age(self):
        buf = NeighborBuffer([1], staleness_ns=10**9)
        buf.insert(make_env(seq=1, ts=1000))
        [(_, _, age)] = buf.snapshot(4000)
        assert age == 3000


STALE_NS = 10


def evict_then_list(slots, now_ns, round_index, staleness_ns):
    """The two-step snapshot rule, applied to a copy of a buffer's slots.

    First every slot whose latest envelope is stale is deleted; then the live
    slots are listed ascending by id, a round filter falling back to the
    replaced envelope when that one carries the round and is not stale.
    """
    for nid in [nid for nid, (env, _) in slots.items() if now_ns - env.timestamp_ns > staleness_ns]:
        del slots[nid]
    out = []
    for nid in sorted(slots):
        env, prev = slots[nid]
        if round_index is not None and env.round != round_index:
            env = prev
            if (env is None or env.round != round_index
                    or now_ns - env.timestamp_ns > staleness_ns):
                continue
        out.append((nid, env.payload, now_ns - env.timestamp_ns))
    return out


def by_identity(entries):
    return [(nid, id(payload), age) for nid, payload, age in entries]


# An insert is (sender, seq step, clock step, round); sender 4 is not a
# neighbor. A sender's seq mostly grows, so most inserts are accepted, and
# stamps follow a clock that mostly advances, by up to 1.5 thresholds a step,
# so a slot's replaced envelope can be stale while its latest is live.
INSERT_OPS = st.tuples(st.integers(1, 4), st.integers(-1, 2), st.integers(-3, 15),
                       st.integers(0, 2))
# A snapshot is (offset of its now from the clock, round filter or None):
# offsets near STALE_NS put the latest stamps at and around the threshold.
SNAPSHOT_OPS = st.tuples(st.integers(-3, 13), st.none() | st.integers(0, 2))


class TestOnePassSnapshot:
    @given(st.lists(st.one_of(INSERT_OPS, SNAPSHOT_OPS), max_size=40))
    @settings(max_examples=200, deadline=None)
    # The replaced envelope matches the filter but is stale; the latest is live.
    @example([(1, 1, 0, 1), (1, 1, 20, 0), (0, 1)])
    # The latest envelope is stale, though its replaced one matches and is live.
    @example([(1, 1, 20, 0), (1, 1, -3, 1), (8, 0)])
    # An envelope aged exactly the threshold, and one a nanosecond older.
    @example([(2, 1, 5, 0), (3, 1, 1, 1), (STALE_NS, None), (STALE_NS, 1)])
    def test_snapshot_equals_evict_then_list(self, ops):
        buf = NeighborBuffer([1, 2, 3], staleness_ns=STALE_NS)
        clock, seqs = 0, dict.fromkeys(range(1, 5), 0)
        for k, op in enumerate(ops):
            if len(op) == 2:
                offset, round_index = op
                now = clock + offset
                slots = dict(buf._slots)
                want = evict_then_list(slots, now, round_index, STALE_NS)
                assert by_identity(buf.snapshot(now, round_index)) == by_identity(want)
                assert {nid: tuple(map(id, held)) for nid, held in buf._slots.items()} == \
                    {nid: tuple(map(id, held)) for nid, held in slots.items()}
                continue
            sender, seq_step, step, round_ = op
            seqs[sender] = max(0, seqs[sender] + seq_step)
            ts = max(0, clock + step)
            clock = max(clock, ts)
            env = make_env(sender=sender, seq=seqs[sender], ts=ts, round_=round_,
                           payload=np.array([k], dtype=np.float32))
            if sender == 4:
                with pytest.raises(UnknownSenderError):
                    buf.insert(env)
            else:
                buf.insert(env)


def stored_bytes(memo):
    """The wire bytes a decode memo holds envelopes for."""
    return {key for key in memo if isinstance(key, bytes)}


class TestDecodeMemo:
    def blob(self, sender=2, seq=3):
        return encode_envelope(make_env(sender=sender, seq=seq,
                                        payload=np.arange(4, dtype=np.float32)))

    def test_equal_bytes_return_one_read_only_envelope(self):
        blob, memo = self.blob(), {}
        first = decode_envelope(blob, memo=memo)
        again = b"".join([blob[:7], blob[7:]])  # the same bytes in another object
        assert again is not blob and decode_envelope(again, memo=memo) is first
        assert first == decode_envelope(blob)
        with pytest.raises(ValueError, match="read-only"):
            first.payload[0] = 9.0

    def test_without_a_memo_each_call_builds_its_own_read_only_envelope(self):
        blob = self.blob()
        a, b = decode_envelope(blob), decode_envelope(blob)
        assert a == b and a is not b
        with pytest.raises(ValueError, match="read-only"):
            a.payload[:] = 0.0

    def test_bytes_like_input_is_copied_before_the_payload_view(self):
        data = bytearray(self.blob())
        env = decode_envelope(data)
        data[-4:] = b"\xff\xff\xff\xff"
        assert env.payload.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert decode_envelope(memoryview(bytes(data)), memo={}).payload[-1] != 3.0

    def test_a_senders_new_bytes_evict_its_previous_bytes(self):
        memo = {}
        blobs = {(s, q): self.blob(sender=s, seq=q) for s in (1, 2) for q in (1, 2, 3)}
        for q in (1, 2, 3):
            for s in (1, 2):
                decode_envelope(blobs[s, q], memo=memo)
            assert stored_bytes(memo) == {blobs[1, q], blobs[2, q]}
            assert memo[1] == blobs[1, q] and memo[2] == blobs[2, q]
        # an older message is a miss again, and it evicts the newer one
        old = decode_envelope(blobs[1, 1], memo=memo)
        assert old.seq == 1 and stored_bytes(memo) == {blobs[1, 1], blobs[2, 3]}

    def test_malformed_bytes_raise_the_same_error_each_time_and_are_never_stored(self):
        blob, memo = self.blob(), {}
        bad_version = bytearray(blob)
        bad_version[4] = 2
        for bad in (b"NM", b"NMSX" + blob[4:], bytes(bad_version), blob[:-4], blob + b"\0"):
            errors = []
            for _ in range(2):
                with pytest.raises(WireError) as err:
                    decode_envelope(bad, memo=memo)
                errors.append(as_error(err.value))
            assert errors[0] == errors[1]
        assert memo == {}

    def test_threads_sharing_a_memo_get_only_their_own_bytes_and_keep_it_bounded(self):
        # loopback receive threads share their team's memo
        blobs = [self.blob(sender=s, seq=q) for q in range(1, 1001) for s in range(3)]
        memo, wrong, errors = {}, [], []

        def receiver(offset):
            try:
                for blob in blobs[offset:] + blobs[:offset]:
                    if decode_envelope(blob, memo=memo) != decode_envelope(blob):
                        wrong.append(blob)
            except Exception as exc:  # surfaced to the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=receiver, args=(7 * k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong and not errors
        assert stored_bytes(memo) == {memo[s] for s in range(3)} and len(memo) == 6
