"""Key generation, hybrid encryption primitives, and user identification.

The handshake is protected with RSA-OAEP (SHA-256); everything sent under a
session key uses AES-128-CBC with a random IV prepended and PKCS#7 padding.
The symmetric path is deliberately *not* authenticated encryption: tampering
is expected to surface as a padding error here or as a checksum/parse failure
in the codec layer, and callers treat all of those as "discard the packet".

User identification is an MD5 digest of the normalized e-mail address. It is
an opaque account identifier only, never a security boundary.
"""

from __future__ import annotations

import hashlib
import re
import secrets
from dataclasses import dataclass

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives import padding as sym_padding
from cryptography.hazmat.primitives.asymmetric import padding as asym_padding
from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

SUPPORTED_KEY_BITS = (2048, 3072, 4096)
DEFAULT_KEY_BITS = 4096
SESSION_KEY_LEN = 16
AES_BLOCK_LEN = 16
_OAEP_HASH_LEN = 32  # SHA-256

USER_HASH_RE = re.compile(r"^[0-9a-f]{32}$")

_OAEP = asym_padding.OAEP(
    mgf=asym_padding.MGF1(algorithm=hashes.SHA256()),
    algorithm=hashes.SHA256(),
    label=None,
)


class CryptoError(Exception):
    pass


class PlaintextTooLong(CryptoError):
    """Plaintext does not fit in one OAEP block for the given key size."""

    def __init__(self, length: int, max_length: int):
        super().__init__(f"plaintext is {length} bytes, limit is {max_length}")
        self.length = length
        self.max_length = max_length


class DecryptFailed(CryptoError):
    """Wrong key, bad padding, or tampered ciphertext. Callers discard."""


@dataclass(frozen=True)
class ServerKeyPair:
    private_part: rsa.RSAPrivateKey
    public_part: rsa.RSAPublicKey

    @property
    def bits(self) -> int:
        return self.public_part.key_size


def generate_server_keypair(bits: int = DEFAULT_KEY_BITS) -> ServerKeyPair:
    """Generate the server's RSA keypair (default 4096 bits)."""
    if bits not in SUPPORTED_KEY_BITS:
        raise ValueError(f"unsupported key length {bits}, expected one of {SUPPORTED_KEY_BITS}")
    private = rsa.generate_private_key(public_exponent=65537, key_size=bits)
    return ServerKeyPair(private_part=private, public_part=private.public_key())


def generate_session_key() -> bytes:
    """Return 16 fresh random bytes for use as a per-session AES-128 key."""
    return secrets.token_bytes(SESSION_KEY_LEN)


def max_plaintext_len(public_key: rsa.RSAPublicKey) -> int:
    """Largest plaintext one OAEP-SHA-256 block can carry for this key."""
    return public_key.key_size // 8 - 2 * _OAEP_HASH_LEN - 2


def asym_encrypt(public_key: rsa.RSAPublicKey, plaintext: bytes) -> bytes:
    """Encrypt up to :func:`max_plaintext_len` bytes into one RSA block."""
    limit = max_plaintext_len(public_key)
    if len(plaintext) > limit:
        raise PlaintextTooLong(len(plaintext), limit)
    return public_key.encrypt(plaintext, _OAEP)


def asym_decrypt(private_key: rsa.RSAPrivateKey, ciphertext: bytes) -> bytes:
    if len(ciphertext) != private_key.key_size // 8:
        raise DecryptFailed("ciphertext length does not match key modulus")
    try:
        return private_key.decrypt(ciphertext, _OAEP)
    except Exception as exc:
        raise DecryptFailed("asymmetric decryption failed") from exc


def sym_encrypt(key: bytes, plaintext: bytes, iv: bytes | None = None) -> bytes:
    """AES-128-CBC encrypt; output is IV || ciphertext (PKCS#7 padded).

    `iv` is drawn fresh unless pinned explicitly (wire-vector reproduction).
    """
    if len(key) != SESSION_KEY_LEN:
        raise ValueError("session key must be 16 bytes")
    if iv is None:
        iv = secrets.token_bytes(AES_BLOCK_LEN)
    elif len(iv) != AES_BLOCK_LEN:
        raise ValueError("IV must be 16 bytes")
    padder = sym_padding.PKCS7(AES_BLOCK_LEN * 8).padder()
    padded = padder.update(plaintext) + padder.finalize()
    enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return iv + enc.update(padded) + enc.finalize()


def sym_decrypt(key: bytes, blob: bytes) -> bytes:
    if len(key) != SESSION_KEY_LEN:
        raise ValueError("session key must be 16 bytes")
    if len(blob) < 2 * AES_BLOCK_LEN or (len(blob) - AES_BLOCK_LEN) % AES_BLOCK_LEN:
        raise DecryptFailed("ciphertext length is not IV plus whole blocks")
    iv, body = blob[:AES_BLOCK_LEN], blob[AES_BLOCK_LEN:]
    dec = Cipher(algorithms.AES(key), modes.CBC(iv)).decryptor()
    padded = dec.update(body) + dec.finalize()
    unpadder = sym_padding.PKCS7(AES_BLOCK_LEN * 8).unpadder()
    try:
        return unpadder.update(padded) + unpadder.finalize()
    except ValueError as exc:
        raise DecryptFailed("bad padding") from exc


def hash_user(email: str) -> str:
    """MD5 hex digest of the normalized e-mail (trimmed, lowercased, UTF-8)."""
    normalized = email.strip().lower()
    if not normalized:
        raise ValueError("e-mail is empty after normalization")
    return hashlib.md5(normalized.encode("utf-8")).hexdigest()


def is_user_hash(value: object) -> bool:
    return isinstance(value, str) and USER_HASH_RE.match(value) is not None


def private_key_pem(private_key: rsa.RSAPrivateKey) -> bytes:
    return private_key.private_bytes(
        encoding=serialization.Encoding.PEM,
        format=serialization.PrivateFormat.PKCS8,
        encryption_algorithm=serialization.NoEncryption(),
    )


def public_key_pem(public_key: rsa.RSAPublicKey) -> bytes:
    return public_key.public_bytes(
        encoding=serialization.Encoding.PEM,
        format=serialization.PublicFormat.SubjectPublicKeyInfo,
    )


def load_private_key(data: bytes) -> rsa.RSAPrivateKey:
    key = serialization.load_pem_private_key(data, password=None)
    if not isinstance(key, rsa.RSAPrivateKey):
        raise ValueError("not an RSA private key")
    return key


def load_public_key(data: bytes) -> rsa.RSAPublicKey:
    key = serialization.load_pem_public_key(data)
    if not isinstance(key, rsa.RSAPublicKey):
        raise ValueError("not an RSA public key")
    return key
