"""RSA-OAEP encryption with an explicit seed, used to re-derive the golden
auth-request vector bit for bit.

Standard OAEP draws its 32-byte seed internally, so its ciphertexts cannot be
reproduced. This is EME-OAEP (RFC 8017, section 7.1.1) with SHA-256 for both
the label hash and MGF1, written out by hand with no shared code with the
package under test: its output decrypts through ``crypto.asym_decrypt``.
Only for tests; a reused seed breaks OAEP.
"""

import hashlib

_HASH_LEN = 32  # SHA-256


def _mgf1(seed: bytes, length: int) -> bytes:
    out = bytearray()
    for counter in range((length + _HASH_LEN - 1) // _HASH_LEN):
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
    return bytes(out[:length])


def deterministic_asym_encrypt(public_key, plaintext: bytes, seed: bytes) -> bytes:
    """One OAEP block of plaintext under public_key, padded with seed."""
    if len(seed) != _HASH_LEN:
        raise ValueError("seed must be 32 bytes")
    k = public_key.key_size // 8
    if len(plaintext) > k - 2 * _HASH_LEN - 2:
        raise ValueError("plaintext does not fit in one OAEP block")
    lhash = hashlib.sha256(b"").digest()
    ps = b"\x00" * (k - len(plaintext) - 2 * _HASH_LEN - 2)
    db = lhash + ps + b"\x01" + plaintext
    masked_db = bytes(a ^ b for a, b in zip(db, _mgf1(seed, k - _HASH_LEN - 1)))
    masked_seed = bytes(a ^ b for a, b in zip(seed, _mgf1(masked_db, _HASH_LEN)))
    em = b"\x00" + masked_seed + masked_db
    numbers = public_key.public_numbers()
    c = pow(int.from_bytes(em, "big"), numbers.e, numbers.n)
    return c.to_bytes(k, "big")
