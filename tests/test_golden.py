"""Bit-exact wire vectors.

golden_vectors.json (regenerated only by tests/data/gen_vectors.py) pins the
full encode path: canonical JSON, zlib, and both cipher layers under a fixed
keypair, OAEP seed, and IVs.  Any unintended change to the wire format shows
up here as a byte diff.
"""

import json
import pathlib

import pytest

from senselink import codec, crypto

from _oaep_oracle import deterministic_asym_encrypt

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def golden():
    doc = json.loads((DATA_DIR / "golden_vectors.json").read_text())
    private = crypto.load_private_key((DATA_DIR / doc["private_key_file"]).read_bytes())
    return doc, private


def check_golden_vectors(doc, private):
    """Decode every vector, compare payloads, re-encode bit-exactly.

    Shared with the acceptance suite; returns the number of vectors checked.
    """
    key = bytes.fromhex(doc["session_key_hex"])
    vectors = doc["vectors"]
    public = private.public_key()

    v = vectors["auth_request"]
    wire = bytes.fromhex(v["wire_hex"])
    req = codec.decode_auth_request(wire, private)
    assert codec.serialize_payload(req) == bytes.fromhex(v["payload_hex"])
    assert req.key == key
    assert req.user_hash == crypto.hash_user(doc["user_email"])
    # encode_auth_request draws a fresh OAEP seed; the oracle pins it
    seed = bytes.fromhex(v["oaep_seed_hex"])
    assert deterministic_asym_encrypt(
        public, codec.compress(codec.serialize_payload(req)), seed) == wire

    v = vectors["auth_response"]
    wire = bytes.fromhex(v["wire_hex"])
    resp = codec.decode_auth_response(wire, key)
    assert codec.serialize_payload(resp) == bytes.fromhex(v["payload_hex"])
    assert resp.session_id == doc["session_id"]
    assert codec.encode_auth_response(resp, key, iv=bytes.fromhex(v["iv_hex"])) == wire

    v = vectors["data_packet"]
    wire = bytes.fromhex(v["wire_hex"])
    pkt = codec.decode_data_packet(wire, {doc["session_id"]: key}.get)
    assert codec.data_payload(pkt.seq, codec.rows_json(pkt.streams)) == \
        bytes.fromhex(v["payload_hex"])
    assert codec.encode_data_packet(pkt, key, iv=bytes.fromhex(v["iv_hex"])) == wire

    v = vectors["feedback"]
    wire = bytes.fromhex(v["wire_hex"])
    fb = codec.decode_feedback(wire, key)
    assert codec.serialize_payload(fb) == bytes.fromhex(v["payload_hex"])
    assert codec.encode_feedback(fb, key, iv=bytes.fromhex(v["iv_hex"])) == wire

    return len(vectors)


def test_golden_vectors_bit_exact(golden):
    doc, private = golden
    assert check_golden_vectors(doc, private) == 4


def test_golden_auth_request_is_one_block(golden):
    doc, _ = golden
    assert len(bytes.fromhex(doc["vectors"]["auth_request"]["wire_hex"])) == 512


def test_golden_data_packet_structure(golden):
    doc, private = golden
    key = bytes.fromhex(doc["session_key_hex"])
    wire = bytes.fromhex(doc["vectors"]["data_packet"]["wire_hex"])
    # plaintext prefix is the session id; everything after is IV + ciphertext
    assert int.from_bytes(wire[:4], "big") == doc["session_id"]
    assert (len(wire) - 4 - 16) % 16 == 0
    pkt = codec.decode_data_packet(wire, {doc["session_id"]: key}.get)
    assert set(pkt.streams) == {"gps", "accel", "wifi", "pressure", "events"}
    assert codec.batch_row_count(pkt.streams) == 6
