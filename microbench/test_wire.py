"""Microbenchmark of the wire codec: one navigation feature envelope, a team's
decode memo, payloads from 128 B to 64 KB, and a keep-latest buffer's insert
and snapshot.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench/test_wire.py -q --benchmark-columns=median,iqr,rounds

pytest-benchmark prints one median per case. The learned navigation
policy publishes 16-float features, so the first cases use a 16-float
payload. A memo miss parses the bytes and stores the envelope; a hit is
what every receiver of a broadcast but the first pays. The sized cases
show where encode and decode stop being fixed cost: perception feature
maps are the paper's large-payload case. Compare two checkouts on one
host in alternating runs: on a shared 2-core host, medians of the same
code drifted by up to 25 % between runs.

The buffer cases are what one robot of a ten-robot team does per step:
nine inserts, one from each neighbor, each accepted; then one snapshot of
nine live slots, with and without a round filter. The nineteen-neighbor
snapshot is one robot's round-filtered read in an n = 20 assignment test.
"""

import itertools

import numpy as np
import pytest

from neuromesh.wire import MessageEnvelope, NeighborBuffer, decode_envelope, encode_envelope

ENVELOPE = MessageEnvelope(sender_id=3, seq=41, timestamp_ns=2_050_000_000, round=40,
                           payload=np.random.default_rng(0).standard_normal(16).astype(np.float32))
BLOB = encode_envelope(ENVELOPE)
PAYLOAD_BYTES = [128, 1024, 8192, 65536]


def sized(payload_bytes):
    payload = np.random.default_rng(1).standard_normal(payload_bytes // 4).astype(np.float32)
    return MessageEnvelope(sender_id=3, seq=41, timestamp_ns=2_050_000_000, round=40,
                           payload=payload)


def test_encode_sixteen_floats(benchmark):
    out = benchmark(encode_envelope, ENVELOPE)
    assert out == BLOB


def test_decode_sixteen_floats(benchmark):
    out = benchmark(decode_envelope, BLOB)
    assert out == ENVELOPE


def test_decode_memo_miss_sixteen_floats(benchmark):
    out = benchmark(lambda: decode_envelope(BLOB, memo={}))
    assert out == ENVELOPE


def test_decode_memo_hit_sixteen_floats(benchmark):
    memo = {}
    first = decode_envelope(BLOB, memo=memo)
    out = benchmark(decode_envelope, BLOB, memo=memo)
    assert out is first


@pytest.mark.parametrize("payload_bytes", PAYLOAD_BYTES)
def test_encode_payload_size(benchmark, payload_bytes):
    env = sized(payload_bytes)
    out = benchmark(encode_envelope, env)
    assert len(out) - len(BLOB) == payload_bytes - 4 * 16


@pytest.mark.parametrize("payload_bytes", PAYLOAD_BYTES)
def test_decode_payload_size(benchmark, payload_bytes):
    env = sized(payload_bytes)
    out = benchmark(decode_envelope, encode_envelope(env))
    assert out == env


NEIGHBORS = range(1, 10)


def test_insert_nine_neighbors(benchmark):
    buf = NeighborBuffer(NEIGHBORS)
    # Two envelopes per neighbor, used in turn: an envelope's seq is rewritten
    # only while the other one is the slot's latest, so every insert is accepted.
    envs = [[MessageEnvelope(s, 0, 0, 0, ENVELOPE.payload) for s in NEIGHBORS] for _ in range(2)]
    seqs = itertools.count(1)

    def nine_inserts():
        seq = next(seqs)
        accepted = 0
        for env in envs[seq % 2]:
            env.seq = seq
            accepted += buf.insert(env)
        return accepted

    assert benchmark(nine_inserts) == len(NEIGHBORS)


def filled_buffer(neighbors):
    """Two envelopes from each neighbor, the second in round 2, inserted in descending id."""
    buf = NeighborBuffer(neighbors, staleness_ns=10**9)
    for seq in (1, 2):
        for s in reversed(neighbors):
            buf.insert(MessageEnvelope(s, seq, seq, seq, ENVELOPE.payload))
    return buf


@pytest.mark.parametrize("round_index", [None, 1], ids=["all", "round-filter"])
def test_snapshot_nine_neighbors(benchmark, round_index):
    out = benchmark(filled_buffer(NEIGHBORS).snapshot, 100, round_index)
    assert [nid for nid, _, _ in out] == list(NEIGHBORS)


def test_snapshot_nineteen_neighbors(benchmark):
    neighbors = range(1, 20)
    out = benchmark(filled_buffer(neighbors).snapshot, 100, 2)
    assert [nid for nid, _, _ in out] == list(neighbors)
