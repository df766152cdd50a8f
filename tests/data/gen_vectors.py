"""Regenerate golden wire vectors for the codec tests.

Run from the repository root:

    python3 tests/data/gen_vectors.py

Uses the committed test keypair and fixed IVs, and seals the auth request
with a fixed OAEP seed through tests/_oaep_oracle.py, so that every encoded
blob is reproducible bit for bit.  Only rerun this when the wire
format intentionally changes; the diff of golden_vectors.json then documents
exactly what moved.
"""

import json
import pathlib
import sys

from senselink import codec, crypto

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from _oaep_oracle import deterministic_asym_encrypt  # noqa: E402

SESSION_KEY = bytes(range(16))
OAEP_SEED = bytes(range(32))
IV_AUTH = bytes(range(16, 32))
IV_DATA = bytes(range(32, 48))
IV_FEEDBACK = bytes(range(48, 64))

USER_EMAIL = "golden@example.com"
START_TIME = 1_400_000_000
SESSION_ID = 42


def build_payloads():
    auth_req = codec.AuthRequest(
        seq=1,
        user_hash=crypto.hash_user(USER_EMAIL),
        time=START_TIME,
        key=SESSION_KEY,
        identifiers={"device": "unit-7", "fw": "2.3.1"},
    )
    auth_resp = codec.AuthResponse(seq=1, time=START_TIME, session_id=SESSION_ID)
    data = codec.DataPacket(
        session_id=SESSION_ID,
        seq=2,
        streams={
            "gps": [
                {"ts": START_TIME, "ms": 125, "lat": 48.858844, "lon": 2.294351,
                 "alt": 35.4, "speed": 1.2, "accuracy": 4.0,
                 "device_ts": START_TIME - 1},
            ],
            "accel": [
                {"ts": START_TIME, "rate": 5, "samples": [[100, -200, 4096],
                                                          [101, -199, 4095]]},
            ],
            "wifi": [
                {"ts": START_TIME, "ms": 40, "mac": "aa:bb:cc:dd:ee:01",
                 "essid": "cafe", "rssi": -61},
                {"ts": START_TIME, "ms": 40, "idx": 1,
                 "mac": "aa:bb:cc:dd:ee:02", "essid": "", "rssi": -77},
            ],
            "pressure": [{"ts": START_TIME, "hpa": 1013.25}],
            "events": [{"ts": START_TIME, "kind": "marker", "detail": "golden"}],
        },
    )
    feedback = codec.FeedbackPacket(session_id=SESSION_ID, seq=2, stored=6)
    return auth_req, auth_resp, data, feedback


def main():
    private_key = crypto.load_private_key((HERE / "test_key.pem").read_bytes())
    public_key = private_key.public_key()

    auth_req, auth_resp, data, feedback = build_payloads()

    vectors = {
        "auth_request": {
            "oaep_seed_hex": OAEP_SEED.hex(),
            "payload_hex": codec.serialize_payload(auth_req).hex(),
            "wire_hex": deterministic_asym_encrypt(
                public_key, codec.compress(codec.serialize_payload(auth_req)),
                OAEP_SEED).hex(),
        },
        "auth_response": {
            "iv_hex": IV_AUTH.hex(),
            "payload_hex": codec.serialize_payload(auth_resp).hex(),
            "wire_hex": codec.encode_auth_response(
                auth_resp, SESSION_KEY, iv=IV_AUTH).hex(),
        },
        "data_packet": {
            "iv_hex": IV_DATA.hex(),
            "payload_hex": codec.data_payload(data.seq, codec.rows_json(data.streams)).hex(),
            "wire_hex": codec.encode_data_packet(data, SESSION_KEY, iv=IV_DATA).hex(),
        },
        "feedback": {
            "iv_hex": IV_FEEDBACK.hex(),
            "payload_hex": codec.serialize_payload(feedback).hex(),
            "wire_hex": codec.encode_feedback(feedback, SESSION_KEY, iv=IV_FEEDBACK).hex(),
        },
    }
    doc = {
        "private_key_file": "test_key.pem",
        "session_key_hex": SESSION_KEY.hex(),
        "user_email": USER_EMAIL,
        "start_time": START_TIME,
        "session_id": SESSION_ID,
        "vectors": vectors,
    }
    out = HERE / "golden_vectors.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
