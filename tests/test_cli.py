import dataclasses
import errno
import json
import os
import pathlib
import signal
import stat
import subprocess
import sys

import pytest

from conftest import stored_rows

from senselink import cli, client, codec, crypto, journal, sim, storage
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
    private = crypto.load_private_key(pathlib.Path(out).read_bytes())
    public = crypto.load_public_key(pathlib.Path(pub_path).read_bytes())
    assert private.key_size == 2048
    blob = crypto.asym_encrypt(public, b"self test")
    assert crypto.asym_decrypt(private, blob) == b"self test"


def test_keygen_refuses_overwrite(tmp_path, capsys):
    out = str(tmp_path / "k.pem")
    assert cli.main(["keygen", "--out", out, "--bits", "2048"]) == 0
    original = pathlib.Path(out).read_bytes()
    assert cli.main(["keygen", "--out", out, "--bits", "2048"]) == 2
    assert pathlib.Path(out).read_bytes() == original
    assert cli.main(["keygen", "--out", out, "--bits", "2048", "--force"]) == 0
    assert pathlib.Path(out).read_bytes() != original


def test_keygen_env_override(tmp_path, monkeypatch):
    out = str(tmp_path / "k.pem")
    monkeypatch.setenv("SENSELINK_BITS", "2048")
    assert cli.main(["keygen", "--out", out]) == 0
    assert crypto.load_private_key(pathlib.Path(out).read_bytes()).key_size == 2048


@pytest.mark.parametrize("existing", [False, True])
def test_keygen_restricts_the_private_key_before_writing_it(tmp_path, monkeypatch,
                                                             small_keypair, existing):
    """With os.chmod out of the way, the key file's mode is the one it had
    when the key was written into it."""
    out = tmp_path / "k.pem"
    if existing:  # --force over a file others may read
        out.write_bytes(b"old")
        os.chmod(out, 0o644)
    monkeypatch.setattr(cli.crypto, "generate_server_keypair", lambda bits: small_keypair)
    monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
    assert cli.main(["keygen", "--out", str(out), "--bits", "2048", "--force"]) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o600
    assert crypto.load_private_key(out.read_bytes()).key_size == 2048


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
    assert stored_rows(st, sids[0]) == stored_rows(st, sids[1])


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
        assert list(j.pending_runs()) == []
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


@pytest.mark.parametrize("body, message", [
    (b'{"kind":"nope"}', "unknown record kind 'nope'"),
    (b'{"kind":"batch","streams":{"pressure":[5]}}', "row is not an object"),
], ids=["unknown-kind", "bad-row"])
def test_upload_corrupt_journal_is_config_error(keyfiles, tmp_path, capsys, body, message):
    jpath = tmp_path / "bad.journal"
    jpath.write_bytes(len(body).to_bytes(4, "big") + body)
    code = cli.main(["upload", "--pubkey", keyfiles[1], "--time", str(TS),
                     "--journal", str(jpath), "--auth-port", "1", "--data-port", "2"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def _full_disk(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("case", ["journal-is-a-directory", "journal-under-a-file",
                                  "key-is-a-directory", "journal-disk-full"])
def test_local_file_error_is_config_error(keyfiles, tmp_path, capsys, monkeypatch, case):
    # exit code 1 means partial delivery, so a file that cannot be opened or
    # written ends the command as an error, without a traceback
    (tmp_path / "file").write_bytes(b"")
    upload = ["upload", "--pubkey", keyfiles[1], "--time", str(TS),
              "--auth-port", "1", "--data-port", "2"]
    argv = {"journal-is-a-directory": [*upload, "--journal", str(tmp_path)],
            "journal-under-a-file": [*upload, "--journal", str(tmp_path / "file" / "j.bin")],
            "key-is-a-directory": ["serve", "--key", str(tmp_path)],
            "journal-disk-full": [*upload, "--duration", "5",
                                  "--journal", str(tmp_path / "j.bin")]}[case]
    monkeypatch.setattr(journal.Journal, "append", _full_disk)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_upload_generates_an_hour_at_a_time(keyfiles, tmp_path, monkeypatch):
    # a recording over an hour is generated and enqueued one hour at a time,
    # so the client never holds more than an hour of row dicts
    made, real = [], sim.generate_session

    def generate_session(cfg):
        made.append((cfg, real(cfg)))
        return made[-1][1]

    monkeypatch.setattr(cli.sim, "generate_session", generate_session)
    jpath = str(tmp_path / "j.bin")
    code = cli.main(["upload", "--pubkey", keyfiles[1], "--time", str(TS),
                     "--duration", "7300", "--seed", "5", "--journal", jpath,
                     "--transport", "tcp", "--auth-port", "1", "--data-port", "2"])
    assert code == 3  # nothing listens there
    assert [(cfg.start_ts - TS, cfg.duration_s, cfg.seed) for cfg, _ in made] == [
        (0, 3600, 5), (3600, 3600, 5 + 2**32), (7200, 100, 5 + 2 * 2**32)]
    assert made[0][1] == real(sim.WorkloadConfig(seed=5, start_ts=TS))
    j = journal.Journal(jpath)
    try:
        assert j.total_rows == sum(codec.batch_row_count(rows) for _, rows in made)
    finally:
        j.close()


def test_upload_over_the_buffer_limit_is_config_error(keyfiles, tmp_path, capsys,
                                                      monkeypatch):
    # exit code 1 means partial delivery: a batch the client cannot buffer
    # ends the command as an error, without a traceback and unjournaled
    monkeypatch.setattr(client, "BUFFER_LIMIT_BYTES", 1024)
    jpath = str(tmp_path / "j.bin")
    code = cli.main(["upload", "--pubkey", keyfiles[1], "--time", str(TS),
                     "--duration", "30", "--journal", jpath,
                     "--auth-port", "1", "--data-port", "2"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: buffer limit")
    j = journal.Journal(jpath)
    try:
        assert j.total_rows == 0
    finally:
        j.close()


# ---------------------------------------------------------------------------
# serve


@pytest.mark.parametrize("source", ["flag", "env"])
def test_serve_unknown_log_level_is_config_error(keyfiles, capsys, monkeypatch, source):
    argv = ["serve", "--key", keyfiles[0]]
    if source == "flag":
        argv += ["--log-level", "verbose"]
    else:  # argparse checks no default against choices, so serve checks the level
        monkeypatch.setenv("SENSELINK_LOG_LEVEL", "verbose")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: unknown log level 'verbose'"]


def test_serve_equal_ports_is_config_error(keyfiles):
    assert cli.main(["serve", "--key", keyfiles[0],
                     "--auth-port", "7500", "--data-port", "7500"]) == 2


def test_serve_missing_key_is_config_error(tmp_path):
    assert cli.main(["serve", "--key", str(tmp_path / "absent.pem")]) == 2


def test_serve_bad_transport_is_config_error(keyfiles):
    assert cli.main(["serve", "--key", keyfiles[0],
                     "--transport", "smoke-signals"]) == 2


def test_serve_has_no_cache_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["serve", "--cache", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache" in capsys.readouterr().err


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


def test_simulate_report_holds_every_delivery_report_field(tmp_path):
    # the report is the client's DeliveryReport, what upload prints, with the
    # simulator's figures added; on a lossless run no row fails or stays pending
    conf = tmp_path / "exp.conf"
    conf.write_text("duration_s = 20\nlatency_ms = 10\nchannel_seed = 3\n")
    out = tmp_path / "report.json"
    assert cli.main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {f.name for f in dataclasses.fields(client.DeliveryReport)} <= report.keys()
    assert report["delivered_rows"] == report["rows_stored"] == report["rows_generated"] > 0
    assert report["failed_rows"] == report["pending_rows"] == report["packets_failed"] == 0


def test_simulate_stdout_report(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text("duration_s = 10\n")
    assert cli.main(["simulate", "--config", str(conf)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delivery_ratio"] == 1.0


def test_simulate_failed_verification_is_partial(tmp_path, capsys):
    # nothing reaches the server, so the stored stream set is empty
    conf = tmp_path / "exp.conf"
    conf.write_text("duration_s = 20\nloss_prob = 1.0\n")
    assert cli.main(["simulate", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stream sets differ: ") and err.endswith(" vs []\n")
    assert "Traceback" not in err


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


def test_stats_on_a_file_that_is_not_a_database(tmp_path, capsys):
    junk = tmp_path / "junk.db"
    junk.write_bytes(b"not a database, not even close" * 100)
    assert cli.main(["stats", "--storage", str(junk)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "not a database" in err[0]
