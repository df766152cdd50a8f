"""No module in ``src/senselink`` but ``journal`` names ``MAX_RECORD_BYTES``.

The journal alone sizes its records: it cuts a batch whose record would
pass the cap into pieces itself, so a caller hands it a batch of any size.
Another module naming the cap would be a second copy of that rule, one the
journal no longer governs.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "senselink").glob("*.py"))


def test_only_the_journal_names_the_record_cap():
    naming = [path.name for path in SOURCES
              if re.search(r"\bMAX_RECORD_BYTES\b", path.read_text(encoding="utf-8"))]
    assert naming == ["journal.py"]
