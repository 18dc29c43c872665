"""Golden trace bytes: the tracer must write exactly the frozen traces.

``tests/golden/trace_digests.json`` holds, for every app of the 16-app
fleet at default parameters, the footer content digest and file size of
its binary trace, plus the SHA-256 of ``example``'s text trace (regenerate
with ``tests/golden/regen_trace_digests.py``, only on a deliberate format
change).  The digests are artifact-store keys, so a tracer change that
moves one byte would also orphan every stored analysis.

Tier-1 checks the small apps; the full fleet is marked ``fleet`` and
deselected by default (``pytest.ini``); run it with
``pytest tests/test_trace_golden.py -m fleet``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.apps.registry import app_names, get_app
from repro.store.digest import compute_trace_digest, digest_trace
from repro.trace.binio import write_trace_file_binary
from repro.tracer.driver import run_and_trace, trace_to_file

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))
from regen_trace_digests import GOLDEN_PATH, TEXT_APP, trace_fingerprint  # noqa: E402

#: Apps cheap enough to re-trace in tier-1.
SMALL_APPS = ("example", "is", "miniamr", "bigarray", "ft")
FLEET = app_names(include_example=True, include_extras=True)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_the_fleet(golden):
    assert sorted(golden["binary"]) == sorted(FLEET)
    assert set(SMALL_APPS) <= set(FLEET)


@pytest.mark.parametrize("name", SMALL_APPS)
def test_binary_trace_matches_golden(name, golden, tmp_path):
    assert trace_fingerprint(name, str(tmp_path)) == golden["binary"][name]


def test_text_trace_matches_golden(golden, tmp_path):
    assert (trace_fingerprint(TEXT_APP, str(tmp_path), fmt="text")
            == golden["text"][TEXT_APP])


@pytest.mark.fleet
@pytest.mark.parametrize("name", FLEET)
def test_fleet_binary_trace_matches_golden(name, golden, tmp_path):
    assert trace_fingerprint(name, str(tmp_path)) == golden["binary"][name]


@pytest.mark.parametrize("name", SMALL_APPS)
def test_streamed_and_reencoded_traces_are_identical(name, tmp_path):
    """The tracer's streaming emission and ``write_record`` of the same
    trace held in memory produce the same file, byte for byte."""
    source = get_app(name).source()
    streamed = str(tmp_path / "streamed.btrace")
    reencoded = str(tmp_path / "reencoded.btrace")
    trace_to_file(source, streamed, module_name=name, fmt="binary")
    trace, _ = run_and_trace(source, module_name=name)
    write_trace_file_binary(trace, reencoded)
    with open(streamed, "rb") as first, open(reencoded, "rb") as second:
        assert first.read() == second.read()
    footer_digest = compute_trace_digest(streamed)
    assert digest_trace(trace) == footer_digest
    assert compute_trace_digest(reencoded) == footer_digest
