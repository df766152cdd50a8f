import pathlib

import pytest

from senselink import crypto

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"

# every sensor at the ceiling WorkloadConfig admits
MAX_RATE_WORKLOAD = dict(accel_hz=200, gyro_hz=200, mag_hz=200, obd_hz=12,
                         wifi_scan_min_s=2.0, wifi_scan_max_s=2.0)

# Filled in by tests/test_acceptance.py; printed as a summary block so every
# criterion gets exactly one PASS/FAIL line regardless of pytest verbosity.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture(scope="session")
def test_keypair() -> crypto.ServerKeyPair:
    """The committed 4096-bit keypair (loading beats regenerating by ~100x)."""
    private = crypto.load_private_key((DATA_DIR / "test_key.pem").read_bytes())
    public = crypto.load_public_key((DATA_DIR / "test_key.pub.pem").read_bytes())
    return crypto.ServerKeyPair(private_part=private, public_part=public)


@pytest.fixture(scope="session")
def small_keypair() -> crypto.ServerKeyPair:
    # 2048 bits keeps per-test RSA work cheap where key identity is irrelevant
    return crypto.generate_server_keypair(bits=2048)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status}  {name}: {detail}")
