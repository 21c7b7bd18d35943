"""Microbenchmark of the wire codec on one navigation feature envelope.

Lives outside ``testpaths``, so the tier-1 suite does not collect it. It
needs pytest-benchmark, the ``microbench`` extra (``pip install -e
.[microbench]``). Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest microbench/test_wire.py -q --benchmark-columns=median,iqr,rounds

pytest-benchmark prints one median per case. The learned navigation
policy publishes 16-float features, so both cases use a 16-float payload.
Compare two checkouts on one host in alternating runs: on a shared 2-core
host, medians of the same code drifted by up to 25 % between runs.
"""

import numpy as np

from neuromesh.wire import MessageEnvelope, decode_envelope, encode_envelope

ENVELOPE = MessageEnvelope(sender_id=3, seq=41, timestamp_ns=2_050_000_000, round=40,
                           payload=np.random.default_rng(0).standard_normal(16).astype(np.float32))
BLOB = encode_envelope(ENVELOPE)


def test_encode_sixteen_floats(benchmark):
    out = benchmark(encode_envelope, ENVELOPE)
    assert out == BLOB


def test_decode_sixteen_floats(benchmark):
    out = benchmark(decode_envelope, BLOB)
    assert out == ENVELOPE
