"""Two-pass journal line encoder: the byte-level reference.

What ``ResultJournal._encode_line`` was before it serialised a body once —
the body is JSON-encoded for the CRC, then again inside the line.  Moved
here unchanged; the production encoder must produce these bytes for every
body (``tests/service/test_journal_commit_path.py``).
"""

from __future__ import annotations

import json
import zlib


def encode_line_reference(chunk_index: int, body: dict) -> bytes:
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(blob.encode("utf-8"))
    line = json.dumps(
        {"chunk": chunk_index, "crc32": crc, "body": body},
        sort_keys=True,
        separators=(",", ":"),
    )
    return line.encode("utf-8") + b"\n"
