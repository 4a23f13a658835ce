"""Byte-exact model codec and 4-byte-payload framing."""
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedhead.errors import (
    CorruptionError,
    FrameSequenceError,
    IncompleteStreamError,
    ProtocolError,
    TruncationError,
)
from fedhead.federation import ModelBlob
from fedhead.wire import (
    FLAG_LAST,
    FRAME_PAYLOAD,
    MAX_FRAMES,
    Frame,
    decode_model,
    encode_model,
    encoded_size,
    frame_bytes,
    frame_stream,
    framed_size,
    frames_from_bytes,
    frames_to_bytes,
    unframe_bytes,
    unframe_stream,
)


def blob_of(values, e, c):
    return ModelBlob(np.asarray(values, dtype=np.float64), e, c)


# -- encode_model golden bytes -------------------------------------------------


def test_encode_golden_bytes_built_independently():
    # Assemble the expected encoding with struct directly from the layout:
    # "FTL1", u32 E, u32 C, u32 crc32(payload), then little-endian float32s.
    values = [1.5, -2.25, 0.0, 3.0, -0.5, 8.0, 1.0, -1.0]  # E=3, C=2
    payload = struct.pack("<8f", *values)
    expected = struct.pack("<4sIII", b"FTL1", 3, 2, zlib.crc32(payload)) + payload
    assert encode_model(blob_of(values, 3, 2)) == expected
    back = decode_model(expected)
    assert np.array_equal(back.values, np.array(values))  # exact: all are float32-representable


def test_encode_smallest_shape_zero_blob():
    encoded = encode_model(blob_of([0.0, 0.0], 1, 1))
    assert len(encoded) == 16 + 8
    assert encoded[:4] == b"FTL1"
    assert encoded[16:] == b"\x00" * 8
    assert struct.unpack_from("<I", encoded, 12)[0] == zlib.crc32(b"\x00" * 8)


def test_encoded_size_is_pure_shape_arithmetic():
    assert encoded_size(256, 2) == 2072
    assert encoded_size(1280, 2) == 16 + 4 * 2562
    blob = blob_of(np.zeros(514), 256, 2)
    assert len(encode_model(blob)) == 2072


def test_encode_rejects_out_of_range_shape():
    blob = blob_of(np.zeros(8), 3, 2)
    blob.embedding_dim = 2**32  # corrupt after validation to hit the encoder check
    with pytest.raises(ProtocolError):
        encode_model(blob)


# -- decode_model round trips and error taxonomy -----------------------------


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_encode_decode_matches_float32_cast_oracle(e, c, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=10.0, size=c * e + c)
    decoded = decode_model(encode_model(blob_of(values, e, c)))
    assert np.array_equal(decoded.values, values.astype(np.float32).astype(np.float64))
    assert (decoded.embedding_dim, decoded.num_classes) == (e, c)


def test_decode_error_taxonomy_is_distinct():
    good = encode_model(blob_of([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 3, 2))

    with pytest.raises(TruncationError):
        decode_model(b"")
    with pytest.raises(TruncationError):
        decode_model(good[:10])  # shorter than the header
    with pytest.raises(TruncationError):
        decode_model(good[:-1])
    with pytest.raises(TruncationError):
        decode_model(good + b"\x00")
    with pytest.raises(ProtocolError):
        decode_model(b"XXXX" + good[4:])

    crc_flip = bytearray(good)
    crc_flip[12] ^= 0xFF
    with pytest.raises(CorruptionError):
        decode_model(bytes(crc_flip))

    zero_c = bytearray(good)
    struct.pack_into("<I", zero_c, 8, 0)
    with pytest.raises(ProtocolError):
        decode_model(bytes(zero_c))


def test_decode_detects_every_single_byte_payload_flip():
    good = encode_model(blob_of(np.linspace(-4, 4, 8), 3, 2))
    for offset in range(16, len(good)):
        for mask in (0x01, 0x80, 0xFF):
            bad = bytearray(good)
            bad[offset] ^= mask
            with pytest.raises(CorruptionError):
                decode_model(bytes(bad))


def test_decode_rejects_nonfinite_payload():
    payload = struct.pack("<2f", float("inf"), 0.0)
    data = struct.pack("<4sIII", b"FTL1", 1, 1, zlib.crc32(payload)) + payload
    with pytest.raises(ProtocolError):
        decode_model(data)


def test_header_shape_change_is_reported_as_truncation():
    # Growing E makes the declared length disagree with the byte count.
    good = encode_model(blob_of(np.zeros(8), 3, 2))
    bad = bytearray(good)
    struct.pack_into("<I", bad, 4, 5)
    with pytest.raises(TruncationError):
        decode_model(bytes(bad))


# -- framing --------------------------------------------------------------------


def test_frame_count_for_encoded_model():
    frames = frame_stream(b"\x00" * 2072)
    assert len(frames) == 518
    assert all(f.seq == i for i, f in enumerate(frames))
    assert all(len(f.payload) == FRAME_PAYLOAD for f in frames)
    assert frames[-1].last and not frames[-2].last


def test_empty_stream_is_single_empty_last_frame():
    frames = frame_stream(b"")
    assert len(frames) == 1
    assert frames[0].seq == 0 and frames[0].last and frames[0].payload == b""
    assert unframe_stream(frames) == b""


@settings(max_examples=300)
@given(st.binary(max_size=64))
def test_frame_unframe_round_trip(data):
    frames = frame_stream(data)
    assert len(frames) == max(1, (len(data) + 3) // 4)
    assert unframe_stream(frames) == data
    assert frames_from_bytes(frames_to_bytes(frames)) == frames


def test_frame_byte_layout():
    frame = Frame(seq=0x0102, flags=FLAG_LAST, payload=b"ab")
    assert frame.to_bytes() == struct.pack("<HBB", 0x0102, 1, 2) + b"ab"


def test_unframe_rejects_gap_duplicate_and_missing_last():
    frames = frame_stream(b"0123456789ab")
    with pytest.raises(FrameSequenceError):
        unframe_stream([frames[0], frames[2]])
    with pytest.raises(FrameSequenceError):
        unframe_stream([frames[0], frames[0]])
    with pytest.raises(IncompleteStreamError):
        unframe_stream(frames[:-1])
    with pytest.raises(IncompleteStreamError):
        unframe_stream([])


def test_unframe_rejects_short_interior_frame():
    frames = [Frame(seq=0, flags=0, payload=b"ab"), Frame(seq=1, flags=FLAG_LAST, payload=b"cd")]
    with pytest.raises(ProtocolError):
        unframe_stream(frames)


def test_unframe_rejects_early_last_flag():
    a = Frame(seq=0, flags=FLAG_LAST, payload=b"abcd")
    b = Frame(seq=1, flags=FLAG_LAST, payload=b"ef")
    with pytest.raises(FrameSequenceError):
        unframe_stream([a, b])


def test_frames_from_bytes_truncation():
    data = frames_to_bytes(frame_stream(b"12345678"))
    with pytest.raises(TruncationError):
        frames_from_bytes(data[:-1])
    with pytest.raises(TruncationError):
        frames_from_bytes(data[:2])


def test_frame_validation():
    with pytest.raises(ProtocolError):
        Frame(seq=-1, flags=0, payload=b"abcd")
    with pytest.raises(ProtocolError):
        Frame(seq=1 << 16, flags=0, payload=b"abcd")
    with pytest.raises(ProtocolError):
        Frame(seq=0, flags=2, payload=b"abcd")  # reserved flag bit
    with pytest.raises(ProtocolError):
        Frame(seq=0, flags=0, payload=b"abcde")


def test_stream_too_long_for_sequence_numbers():
    with pytest.raises(ProtocolError):
        frame_stream(b"\x00" * (4 * (1 << 16) + 1))


def test_framed_size_accounts_every_wire_byte():
    for n in (0, 1, 4, 5, 2056, 2072):
        data = b"\x01" * n
        assert len(frames_to_bytes(frame_stream(data))) == framed_size(n)


def test_full_model_transfer_round_trip():
    rng = np.random.default_rng(0)
    blob = blob_of(rng.normal(size=514), 256, 2)
    encoded = encode_model(blob)
    wire_bytes = frames_to_bytes(frame_stream(encoded))
    # every frame of a model transfer carries a full 4-byte payload
    assert len(wire_bytes) == (2072 // 4) * 8
    back = decode_model(unframe_stream(frames_from_bytes(wire_bytes)))
    assert np.array_equal(back.values, blob.values.astype(np.float32).astype(np.float64))


# -- array frame codec against the Frame reference --------------------------------


def reference_unframe(body):
    return unframe_stream(frames_from_bytes(body))


def outcome(unframe, body):
    """What unframing returns, or the type and message of what it raises."""
    try:
        return unframe(body)
    except Exception as err:  # the exception itself is compared
        return type(err), str(err)


def mobilenet_model_bytes():
    rng = np.random.default_rng(5)
    return encode_model(blob_of(rng.normal(size=2 * 1280 + 2), 1280, 2))


@settings(max_examples=300)
@given(st.binary(max_size=64))
def test_frame_bytes_matches_reference_and_round_trips(data):
    body = frame_bytes(data)
    assert body == frames_to_bytes(frame_stream(data))
    assert unframe_bytes(body) == data


def test_frame_bytes_matches_reference_for_mobilenet_model():
    encoded = mobilenet_model_bytes()
    body = frame_bytes(encoded)
    assert body == frames_to_bytes(frame_stream(encoded))
    assert len(body) == framed_size(len(encoded)) == 20528
    assert unframe_bytes(body) == encoded


@settings(max_examples=300)
@given(
    st.binary(min_size=1, max_size=48),
    st.data(),
)
def test_unframe_bytes_matches_reference_on_damaged_bodies(data, draw):
    body = bytearray(frame_bytes(data))
    damage = draw.draw(st.sampled_from(["flip", "truncate", "append"]))
    if damage == "flip":
        at = draw.draw(st.integers(0, len(body) - 1))
        body[at] ^= draw.draw(st.integers(1, 255))
    elif damage == "truncate":
        del body[draw.draw(st.integers(0, len(body) - 1)) :]
    else:
        body += draw.draw(st.binary(min_size=1, max_size=16))
    body = bytes(body)
    assert outcome(unframe_bytes, body) == outcome(reference_unframe, body)


def test_unframe_bytes_matches_reference_on_every_byte_flip_of_a_model():
    body = frame_bytes(encode_model(blob_of(np.arange(6) - 2.5, 2, 2)))
    for at in range(len(body)):
        for mask in (0x01, 0x02, 0x80):
            damaged = bytearray(body)
            damaged[at] ^= mask
            damaged = bytes(damaged)
            assert outcome(unframe_bytes, damaged) == outcome(reference_unframe, damaged)


def full_frames(count):
    """count full frames numbered mod 2**16, the last one flagged last."""
    seq = np.arange(count) % MAX_FRAMES
    flags = np.zeros(count, dtype=np.uint8)
    flags[-1] = FLAG_LAST
    return b"".join(
        struct.pack("<HBB", int(s), int(f), FRAME_PAYLOAD) + b"wxyz" for s, f in zip(seq, flags)
    )


def test_unframe_bytes_at_the_sequence_number_limit():
    at_limit = full_frames(MAX_FRAMES)
    assert unframe_bytes(at_limit) == b"wxyz" * MAX_FRAMES
    over = full_frames(MAX_FRAMES + 1)
    expected = (FrameSequenceError, f"expected seq {MAX_FRAMES}, got 0")
    assert outcome(unframe_bytes, over) == outcome(reference_unframe, over) == expected


def test_frame_bytes_rejects_stream_too_long_for_sequence_numbers():
    data = b"\x00" * (FRAME_PAYLOAD * MAX_FRAMES + 1)
    with pytest.raises(ProtocolError) as err:
        frame_bytes(data)
    with pytest.raises(ProtocolError) as ref:
        frame_stream(data)
    assert str(err.value) == str(ref.value)
    # the modelled wire size stays defined past the limit
    assert framed_size(len(data)) == (MAX_FRAMES + 1) * 4 + len(data)
