"""No module in ``src/senselink`` declares a stream's column by hand.

The stream table (``codec.STREAM_SPECS``) declares each row table's
columns with their SQLite types, and storage builds the tables from it. A
stream's column written out with its declaration, such as
``hpa REAL NOT NULL``, would be a second copy that the stream table no
longer governs. Each column is looked for with the type and the NOT NULL
it has in a fresh database, so the tables that are not per stream may
reuse a name with another declaration (``meta.value TEXT``,
``access_points.ap_id INTEGER PRIMARY KEY``).
"""

import pathlib
import re

from senselink import codec, storage

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "senselink").glob("*.py"))


def _declarations() -> dict[str, re.Pattern]:
    """A pattern for the declaration of each column of every stream's table
    after the session (and the motion table's stream), as a fresh database
    has it."""
    st = storage.SqliteStorage(":memory:")
    try:
        declared = {}
        for spec in codec.STREAM_SPECS.values():
            columns = {"ts", "ms", "idx", *spec.columns}
            for _, name, sql, notnull, _, _ in st._db.execute(
                    f"PRAGMA table_info({spec.table})"):
                if name in columns:
                    words = (name, sql, *(("NOT", "NULL") if notnull else ()))
                    declared[" ".join(words)] = re.compile(r"\b" + r"\s+".join(words) + r"\b")
    finally:
        st.close()
    return declared


def test_no_module_declares_a_stream_column_by_hand():
    declarations = _declarations()
    assert "hpa REAL NOT NULL" in declarations and "detail TEXT" in declarations
    found = [f"{path.name}: {text}" for path in SOURCES
             for text, pattern in declarations.items()
             if pattern.search(path.read_text(encoding="utf-8"))]
    assert found == []
