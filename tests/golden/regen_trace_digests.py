"""Regenerate ``tests/golden/trace_digests.json``: the tracer's byte oracle.

For every app of the 16-app bundled fleet at default parameters this
records the footer content digest, the file size and the SHA-256 of the
whole file of its binary trace (the content digest leaves out the string
table and block index), plus the SHA-256 of the ``example`` app's text
trace.  The values pin the exact bytes the tracer writes, so a change to
how records are produced or encoded that alters one byte fails
``tests/test_trace_golden.py``.

Regenerate only when the trace *format* changes on purpose (and say so in
the change log): the digests are store keys, so new values also invalidate
every existing artifact-store entry.  Run from the repository root::

    PYTHONPATH=src python tests/golden/regen_trace_digests.py

Tracing the whole fleet takes about a quarter of a minute.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from typing import Any, Dict

from repro.apps.registry import app_names, get_app
from repro.store.digest import compute_trace_digest
from repro.tracer.driver import trace_to_file

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "trace_digests.json")

#: The app whose text-format trace is pinned as well.
TEXT_APP = "example"


def trace_fingerprint(name: str, directory: str,
                      fmt: str = "binary") -> Dict[str, Any]:
    """Trace app ``name`` at default parameters into ``directory``.

    Returns ``{"digest", "size"}``: the content digest (the footer digest
    for a binary trace, the SHA-256 of the file bytes for a text trace) and
    the file size in bytes; a binary trace adds ``"file_sha256"``.
    """
    app = get_app(name)
    path = os.path.join(directory, f"{name}.{fmt}")
    size, _ = trace_to_file(app.source(), path, module_name=name, fmt=fmt)
    with open(path, "rb") as handle:
        file_sha256 = hashlib.sha256(handle.read()).hexdigest()
    fingerprint = {"digest": file_sha256, "size": size}
    if fmt == "binary":
        fingerprint["digest"] = compute_trace_digest(path)
        fingerprint["file_sha256"] = file_sha256
    os.remove(path)
    return fingerprint


def main() -> int:
    golden: Dict[str, Any] = {"binary": {}, "text": {}}
    with tempfile.TemporaryDirectory() as directory:
        for name in app_names(include_example=True, include_extras=True):
            golden["binary"][name] = trace_fingerprint(name, directory)
            print(f"{name}: {golden['binary'][name]}", file=sys.stderr)
        golden["text"][TEXT_APP] = trace_fingerprint(TEXT_APP, directory,
                                                     fmt="text")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
