import json
import os
import pathlib
import signal
import stat
import subprocess
import sys

import pytest

from senselink import cli, crypto, journal, storage
from senselink.server import ServerConfig, ServerDaemon

TS = 1_400_000_000


@pytest.fixture
def keyfiles(tmp_path, test_keypair):
    """The committed test keypair written as PEM files (keygen is slow)."""
    priv = tmp_path / "server_key.pem"
    pub = tmp_path / "server_key.pub.pem"
    priv.write_bytes(crypto.private_key_pem(test_keypair.private_part))
    pub.write_bytes(crypto.public_key_pem(test_keypair.public_part))
    return str(priv), str(pub)


@pytest.fixture
def daemon(tmp_path, test_keypair):
    db = str(tmp_path / "server.db")
    config = ServerConfig(auth_port=0, data_port=0, host="127.0.0.1", storage=db)
    d = ServerDaemon(config, private_key=test_keypair.private_part)
    d.start()
    d.db_path = db
    yield d
    d.stop()


# ---------------------------------------------------------------------------
# keygen


def test_keygen_writes_keypair(tmp_path, capsys):
    out = str(tmp_path / "k.pem")
    assert cli.main(["keygen", "--out", out, "--bits", "2048"]) == 0
    pub_path = str(tmp_path / "k.pub.pem")
    assert os.path.exists(pub_path)
    mode = stat.S_IMODE(os.stat(out).st_mode)
    assert mode == 0o600  # private key unreadable to others
    private = crypto.load_private_key(open(out, "rb").read())
    public = crypto.load_public_key(open(pub_path, "rb").read())
    assert private.key_size == 2048
    blob = crypto.asym_encrypt(public, b"self test")
    assert crypto.asym_decrypt(private, blob) == b"self test"


def test_keygen_refuses_overwrite(tmp_path, capsys):
    out = str(tmp_path / "k.pem")
    assert cli.main(["keygen", "--out", out, "--bits", "2048"]) == 0
    original = open(out, "rb").read()
    assert cli.main(["keygen", "--out", out, "--bits", "2048"]) == 2
    assert open(out, "rb").read() == original
    assert cli.main(["keygen", "--out", out, "--bits", "2048", "--force"]) == 0
    assert open(out, "rb").read() != original


def test_keygen_env_override(tmp_path, monkeypatch):
    out = str(tmp_path / "k.pem")
    monkeypatch.setenv("SENSELINK_BITS", "2048")
    assert cli.main(["keygen", "--out", out]) == 0
    assert crypto.load_private_key(open(out, "rb").read()).key_size == 2048


def test_keygen_rejects_bad_bits(tmp_path):
    assert cli.main(["keygen", "--out", str(tmp_path / "k.pem"), "--bits", "1024"]) == 2


# ---------------------------------------------------------------------------
# upload


def upload_args(daemon, keyfiles, email, extra=()):
    return ["upload", "--server", "127.0.0.1",
            "--auth-port", str(daemon.auth_port),
            "--data-port", str(daemon.data_port),
            "--pubkey", keyfiles[1], "--email", email,
            "--time", str(TS), "--duration", "30", "--timeout", "30",
            *extra]


def report_fields(capsys):
    out = capsys.readouterr().out
    fields = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    return fields


def test_upload_udp(daemon, keyfiles, capsys):
    assert cli.main(upload_args(daemon, keyfiles, "udp-user@example.com")) == 0
    fields = report_fields(capsys)
    assert int(fields["delivered_rows"]) > 0
    assert int(fields["failed_rows"]) == 0
    assert int(fields["auth_responses"]) >= 1


def test_upload_tcp_matches_udp(daemon, keyfiles, capsys):
    assert cli.main(upload_args(daemon, keyfiles, "u@example.com")) == 0
    udp_fields = report_fields(capsys)
    assert cli.main(upload_args(daemon, keyfiles, "t@example.com",
                                extra=["--transport", "tcp"])) == 0
    tcp_fields = report_fields(capsys)
    assert udp_fields["delivered_rows"] == tcp_fields["delivered_rows"]

    st = daemon.core.storage
    sids = [st.upsert_session(crypto.hash_user(e), TS, bytes(16))
            for e in ("u@example.com", "t@example.com")]
    assert st.read_session_rows(sids[0]) == st.read_session_rows(sids[1])


def test_upload_realtime_mode(daemon, keyfiles, capsys):
    assert cli.main(upload_args(daemon, keyfiles, "rt@example.com",
                                extra=["--realtime"])) == 0
    fields = report_fields(capsys)
    assert int(fields["delivered_rows"]) > 0


def test_upload_with_journal(daemon, keyfiles, tmp_path, capsys):
    jpath = str(tmp_path / "up.journal")
    assert cli.main(upload_args(daemon, keyfiles, "j@example.com",
                                extra=["--journal", jpath])) == 0
    j = journal.Journal(jpath)
    try:
        assert j.total_rows > 0
        assert j.watermark == j.total_rows  # everything confirmed stored
        assert list(j.pending_rows()) == []
    finally:
        j.close()


def test_upload_journal_resume_without_time_warns(daemon, keyfiles, tmp_path,
                                                  capsys):
    jpath = str(tmp_path / "resume.journal")
    assert cli.main(upload_args(daemon, keyfiles, "w@example.com",
                                extra=["--journal", jpath])) == 0
    capsys.readouterr()

    # rerun with the journal but no --time: nothing left to send, and the
    # new-session footgun is called out on stderr
    args = ["upload", "--server", "127.0.0.1",
            "--auth-port", str(daemon.auth_port),
            "--data-port", str(daemon.data_port),
            "--pubkey", keyfiles[1], "--email", "w@example.com",
            "--timeout", "30", "--journal", jpath]
    assert cli.main(args) == 0
    captured = capsys.readouterr()
    assert "without --time begins a new session" in captured.err
    fields = {}
    for line in captured.out.strip().splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value
    assert fields["delivered_rows"] == "0"


def test_upload_unreachable_server_times_out(keyfiles, capsys):
    code = cli.main(["upload", "--server", "127.0.0.1",
                     "--auth-port", "1", "--data-port", "2",
                     "--pubkey", keyfiles[1], "--email", "x@example.com",
                     "--time", str(TS), "--duration", "5", "--timeout", "1.5"])
    assert code == 3


def test_upload_missing_pubkey(tmp_path):
    code = cli.main(["upload", "--pubkey", str(tmp_path / "nope.pem"),
                     "--duration", "5"])
    assert code == 2


# ---------------------------------------------------------------------------
# serve


def test_serve_equal_ports_is_config_error(keyfiles):
    assert cli.main(["serve", "--key", keyfiles[0],
                     "--auth-port", "7500", "--data-port", "7500"]) == 2


def test_serve_missing_key_is_config_error(tmp_path):
    assert cli.main(["serve", "--key", str(tmp_path / "absent.pem")]) == 2


def test_serve_bad_transport_is_config_error(keyfiles):
    assert cli.main(["serve", "--key", keyfiles[0],
                     "--transport", "smoke-signals"]) == 2


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_serve_stops_cleanly_on_signal(tmp_path, small_keypair, signum):
    """The child starts with SIGINT ignored, as a shell background job
    (`cmd &`) does; either signal still stops it and closes its storage."""
    key = tmp_path / "k.pem"
    key.write_bytes(crypto.private_key_pem(small_keypair.private_part))
    db = tmp_path / "serve.db"
    env = {k: v for k, v in os.environ.items() if not k.startswith("SENSELINK_")}
    env["PYTHONPATH"] = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "senselink.cli", "serve", "--key", str(key),
         "--auth-port", "0", "--data-port", "0", "--storage", f"sqlite:{db}"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
    try:
        for line in proc.stderr:
            if b"serving auth=" in line:
                break
        proc.send_signal(signum)
        assert proc.wait(timeout=5.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert db.exists() and not os.path.exists(f"{db}-wal")  # closed, WAL checkpointed


# ---------------------------------------------------------------------------
# bench


def test_bench_prints_speedup(capsys):
    assert cli.main(["bench", "--rtt-ms", "10", "--packets", "12",
                     "--windows", "1,2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("window=1 ")
    assert lines[1].startswith("window=2 ")
    assert lines[2].startswith("speedup=")
    assert float(lines[2].split("=")[1]) > 1.0


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_json_report(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("duration_s = 20\nlatency_ms = 10\nchannel_seed = 3\n")
    out = tmp_path / "report.json"
    assert cli.main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rows_generated"] == report["rows_stored"]
    assert report["verified"] is True
    err = capsys.readouterr().err
    assert "rows_generated" in err  # human summary on stderr


def test_simulate_stdout_report(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("duration_s = 10\n")
    assert cli.main(["simulate", "--config", str(conf)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delivery_ratio"] == 1.0


def test_simulate_missing_config(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "absent.conf")]) == 2


def test_simulate_bad_config(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("warp_factor = 9\n")
    assert cli.main(["simulate", "--config", str(conf)]) == 2


# ---------------------------------------------------------------------------
# stats


def test_stats_after_upload(daemon, keyfiles, capsys):
    assert cli.main(upload_args(daemon, keyfiles, "s@example.com")) == 0
    capsys.readouterr()
    daemon.core.storage.flush()
    assert cli.main(["stats", "--storage", daemon.db_path]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert int(fields["sessions"]) == 1
    assert int(fields["total_rows"]) > 0


def test_stats_missing_db(tmp_path):
    assert cli.main(["stats", "--storage", str(tmp_path / "absent.db")]) == 2
