"""Tests for the repro.dist wire format and versioned handshake."""

import io
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parallel import ShardWorker
from repro.core.spec import Action, Spec, TransitionInvariant
from repro.core.state import CODEC_VERSION, Rec, fingerprint
from repro.core.trace import PendingTrace, TraceStep
from repro.core.violation import Violation
from repro.dist.specref import spec_fingerprint, system_ref
from repro.dist.specref import testkit_ref as make_testkit_ref  # noqa: N813 - pytest collects test* names
from repro.dist.wire import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameBuffer,
    WireError,
    check_handshake,
    decode_message,
    encode_frame,
    encode_message,
    make_handshake,
    read_frame,
    write_frame,
)
from repro.testkit.genspec import GenParams, generate_spec


def roundtrip(msg):
    return decode_message(encode_message(msg))


class RecordArgSpec(Spec):
    """Delivering a message record breaks an edge invariant at once, so
    the violating step's args hold a record."""

    name = "record-args"

    def init_states(self):
        yield Rec(term=0)

    def actions(self):
        return [Action("Receive", self._receive)]

    def _receive(self, state):
        msg = Rec(type="Append", term=state["term"] + 1)
        yield ("n1", msg), state.set("term", msg["term"])

    def transition_invariants(self):
        return (
            TransitionInvariant("TermStaysZero", lambda pre, t: t.target["term"] == 0),
        )


class TestMessageRoundtrip:
    def test_simple_ops(self):
        assert roundtrip(("ping",)) == ("ping",)
        assert roundtrip(("stop",)) == ("stop",)
        assert roundtrip(("expand", None)) == ("expand", None)
        assert roundtrip(("expand", 12.5)) == ("expand", 12.5)

    def test_blobs_survive_exactly(self):
        enc = bytes(range(256)) * 3
        msg = ("adopt", [[enc, 1234, 2]])
        op, items = roundtrip(msg)
        assert op == "adopt"
        assert items[0][0] == enc
        assert items[0][1] == 1234
        assert items[0][2] == 2

    def test_int_keyed_dicts_survive(self):
        # Per-owner batch dicts are keyed by worker id — JSON objects
        # cannot carry int keys, the $d escape must.
        batches = {0: [[b"aa", 1, None, "x", 0]], 2: [[b"bb", 2, 1, "y", 1]]}
        op, out = roundtrip(("expanded", batches))
        assert set(out) == {0, 2}
        assert out[0][0][0] == b"aa"
        assert out[2][0][0] == b"bb"

    def test_claim_and_settle_shapes_survive(self):
        # The claim→settle exchange: full 64-bit fingerprints, claimer-
        # ordered batches, and int-keyed accepted-index dicts.
        fp = 2**64 - 1
        batches = [[0, [[fp, 17, "act"], [fp - 1, fp, "other"]]], [2, []]]
        assert roundtrip(("claim", batches)) == ("claim", batches)
        grants = {1: [0, 5, 9], 2: []}
        assert roundtrip(("settle", grants)) == ("settle", grants)
        assert roundtrip(("claimed", 1, 3, grants)) == ("claimed", 1, 3, grants)

    def test_dollar_string_keys_survive(self):
        op, out = roundtrip(("x", {"$b": "not-a-blob", "plain": 1}))
        assert out == {"$b": "not-a-blob", "plain": 1}

    def test_empty_blob(self):
        assert roundtrip(("x", b""))[1] == b""

    def test_violation_record_shape(self):
        step = TraceStep("act", ("n1", frozenset({1, 2})), Rec(x=1))
        record = Violation("inv_0", PendingTrace(3, 2**64 - 1, step), "transition")
        op, wid, out = roundtrip(("expanded", 1, [record.to_dict()]))
        assert out == [record.to_dict()]
        got = Violation.from_dict(out[0])
        assert (got.invariant, got.kind, got.depth) == ("inv_0", "transition", 3)
        assert (got.trace.anchor, got.trace.step) == (2**64 - 1, step)

    def test_unencodable_rejected(self):
        with pytest.raises(WireError):
            encode_message(("x", object()))

    @given(
        st.lists(st.binary(max_size=200), max_size=8),
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_blobs_and_ints(self, blobs, fp):
        msg = ("batch", blobs, fp)
        op, out_blobs, out_fp = roundtrip(msg)
        assert out_blobs == blobs and out_fp == fp


class TestMessageRoundtripOverSpecs:
    @pytest.mark.parametrize("seed", ["wire:0", "wire:1", "wire:2"])
    def test_real_codec_bytes_roundtrip(self, seed):
        # The exact canonical codec bytes the fork transport moves must
        # survive the socket wire untouched, fingerprints included.
        from repro.core.state import encode, fingerprint

        generated = generate_spec(seed, GenParams())
        spec = generated.spec(invariants=False)
        state = next(iter(spec.init_states()))
        enc = encode(state)
        fp = fingerprint(enc)
        op, items = roundtrip(("adopt", [[enc, fp, 0]]))
        assert items[0][0] == enc
        assert fingerprint(items[0][0]) == fp

    def test_violation_with_record_args_roundtrips(self):
        # A worker's violations are Violation.to_dict records, which the
        # fork pipe and the socket wire move alike: a record-valued arg
        # of the violating step survives both.
        worker = ShardWorker(RecordArgSpec(), 0, 1)
        (init,) = RecordArgSpec().init_states()
        assert worker.restore(None) == ("restored", 0, 1, [], 1)
        reply = worker.expand(None)
        assert reply[0] == "expanded"
        out = roundtrip(reply)
        assert out[6] == reply[6]
        (found,) = map(Violation.from_dict, out[6])
        assert (found.kind, found.invariant, found.depth, found.trace.anchor) == (
            "transition", "TermStaysZero", 1, fingerprint(init)
        )
        assert found.trace.step == TraceStep(
            "Receive", ("n1", Rec(type="Append", term=1)), Rec(term=1)
        )


class TestFraming:
    def test_frame_roundtrip(self):
        payload = encode_message(("ping",))
        handle = io.BytesIO(encode_frame(payload))
        assert read_frame(handle) == payload

    def test_write_then_read(self):
        handle = io.BytesIO()
        write_frame(handle, b"abc")
        handle.seek(0)
        assert read_frame(handle) == b"abc"

    def test_clean_eof_is_connection_closed(self):
        with pytest.raises(ConnectionClosed):
            read_frame(io.BytesIO(b""))

    def test_torn_length_prefix(self):
        with pytest.raises(WireError, match="length prefix"):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_torn_payload(self):
        frame = encode_frame(b"abcdef")
        with pytest.raises(WireError, match="mid-payload"):
            read_frame(io.BytesIO(frame[:-2]))

    def test_oversize_length_rejected(self):
        bad = struct.pack(">I", MAX_FRAME + 1)
        with pytest.raises(WireError, match="MAX_FRAME"):
            read_frame(io.BytesIO(bad))

    def test_oversize_payload_refused_on_encode(self):
        class FakeLen(bytes):
            def __len__(self):
                return MAX_FRAME + 1

        with pytest.raises(WireError):
            encode_frame(FakeLen())

    def test_buffer_reassembles_byte_at_a_time(self):
        payload = encode_message(("adopt", [[b"state-bytes", 7, 1]]))
        frame = encode_frame(payload)
        buffer = FrameBuffer()
        popped = []
        for i in range(len(frame)):
            buffer.feed(frame[i : i + 1])
            out = buffer.pop()
            if out is not None:
                popped.append(out)
        assert popped == [payload]
        assert buffer.pending == 0

    def test_buffer_pops_multiple_frames(self):
        a, b = encode_message(("ping",)), encode_message(("stop",))
        buffer = FrameBuffer()
        buffer.feed(encode_frame(a) + encode_frame(b))
        assert buffer.pop() == a
        assert buffer.pop() == b
        assert buffer.pop() is None

    def test_buffer_oversize_raises(self):
        buffer = FrameBuffer()
        buffer.feed(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(WireError):
            buffer.pop()

    @given(st.binary(max_size=500), st.integers(min_value=1, max_value=37))
    @settings(max_examples=40, deadline=None)
    def test_property_chunked_reassembly(self, payload, chunk):
        frame = encode_frame(payload)
        buffer = FrameBuffer()
        popped = []
        for start in range(0, len(frame), chunk):
            buffer.feed(frame[start : start + chunk])
            while True:
                out = buffer.pop()
                if out is None:
                    break
                popped.append(out)
        assert popped == [payload]


class TestTruncatedMessages:
    def test_missing_blob_count(self):
        with pytest.raises(WireError, match="blob count"):
            decode_message(b"\x00")

    def test_truncated_blob_table(self):
        payload = encode_message(("x", b"0123456789"))
        with pytest.raises(WireError, match="truncated"):
            decode_message(payload[:8])

    def test_dangling_blob_index(self):
        import json

        body = json.dumps(["x", {"$b": 5}]).encode()
        payload = struct.pack(">I", 0) + body
        with pytest.raises(WireError, match="dangling blob"):
            decode_message(payload)

    def test_non_list_body_rejected(self):
        payload = struct.pack(">I", 0) + b'{"not": "a list"}'
        with pytest.raises(WireError, match="op"):
            decode_message(payload)

    def test_garbage_body_rejected(self):
        payload = struct.pack(">I", 0) + b"\xff\xfe not json"
        with pytest.raises(WireError):
            decode_message(payload)


class TestHandshake:
    def ref(self):
        return system_ref("pysyncobj", 3)

    def test_good_handshake_accepted(self):
        hello = make_handshake(self.ref(), wid=1, workers=2)
        assert check_handshake(hello) is None
        assert hello["proto"] == PROTOCOL_VERSION
        assert hello["codec_version"] == CODEC_VERSION
        assert hello["spec_fingerprint"] == spec_fingerprint(self.ref())

    def test_handshake_roundtrips_on_wire(self):
        hello = make_handshake(self.ref(), wid=0, workers=2, fast=True)
        op, out = roundtrip(("hello", hello))
        assert check_handshake(out) is None
        assert out["fast"] is True and out["symmetry"] is False

    def test_version_3_header_refused(self):
        """A version-3 master may send a partial-order-reduction option
        this worker does not have; it is refused, never read with the
        option dropped."""
        hello = make_handshake(self.ref(), wid=0, workers=2)
        hello.update(proto=3, por=True)
        assert PROTOCOL_VERSION == 9
        assert "protocol version mismatch" in check_handshake(hello)

    def test_version_4_header_refused(self):
        """A version-4 master reads violation args as values and sends
        pings without a nonce."""
        hello = make_handshake(self.ref(), wid=0, workers=2)
        hello["proto"] = 4
        assert "protocol version mismatch" in check_handshake(hello)

    def test_version_6_header_refused(self):
        """A version-6 master seeds through an ``absorb`` op that this
        worker does not have, and reads a shorter ``restored`` reply."""
        hello = make_handshake(self.ref(), wid=0, workers=2)
        hello["proto"] = 6
        assert "protocol version mismatch" in check_handshake(hello)

    def test_version_7_header_refused(self):
        """A version-7 master reads violations as 8-tuple descriptors,
        not as ``Violation.to_dict`` records."""
        hello = make_handshake(self.ref(), wid=0, workers=2)
        hello["proto"] = 7
        assert "protocol version mismatch" in check_handshake(hello)

    def test_version_5_header_refused(self):
        """A version-5 master sends the retired compiled/interpreted
        option; it is refused, never read with the option dropped."""
        hello = make_handshake(self.ref(), wid=0, workers=2)
        hello.update(proto=5, compiled=False)
        assert "protocol version mismatch" in check_handshake(hello)
        with pytest.raises(TypeError, match="compiled"):
            make_handshake(self.ref(), wid=0, workers=2, compiled=True)

    def test_unknown_option_refused_by_name(self):
        with pytest.raises(TypeError, match="por"):
            make_handshake(self.ref(), wid=0, workers=2, por=True)

    def test_protocol_mismatch_refused(self):
        hello = make_handshake(self.ref(), wid=0, workers=2)
        hello["proto"] = PROTOCOL_VERSION + 1
        assert "protocol version mismatch" in check_handshake(hello)

    def test_codec_mismatch_refused(self):
        hello = make_handshake(self.ref(), wid=0, workers=2)
        hello["codec_version"] = CODEC_VERSION + 1
        assert "codec version mismatch" in check_handshake(hello)

    def test_shard_out_of_range_refused(self):
        hello = make_handshake(self.ref(), wid=2, workers=2)
        assert "out of range" in check_handshake(hello)

    def test_malformed_header_refused(self):
        assert check_handshake("nope") is not None
        assert check_handshake({}) is not None

    def test_testkit_fingerprint_is_stable_and_discriminating(self):
        params = GenParams()
        a = spec_fingerprint(make_testkit_ref("s:0", params))
        b = spec_fingerprint(make_testkit_ref("s:0", params))
        c = spec_fingerprint(make_testkit_ref("s:1", params))
        assert a == b
        assert a != c
