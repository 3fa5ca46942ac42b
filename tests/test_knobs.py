"""The knob registry: every ``OMBPY_*`` variable is declared, documented,
read only through :mod:`repro.knobs`, and fails before spawn when bad."""

from __future__ import annotations

import glob
import os
import random
import re
import sys

import pytest

from repro import knobs
from repro.backoff import backoff
from repro.campaign.config import CampaignConfig
from repro.mpi import launcher
from repro.mpi.world import run_on_threads
from repro.service.config import ServiceConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")


def _malformed(knob: knobs.Knob) -> str:
    return "bogus" if knob.choices else "yes" if knob.type is bool else "abc"


def _scoped(*scopes):
    return [k for k in knobs.KNOBS.values() if k.scope in scopes]


#: One malformed value per user (rank) knob, plus the out-of-range values
#: that used to be accepted silently or checked only on the path using them.
BAD_VALUES = [(k.name, _malformed(k)) for k in _scoped(knobs.RANK)] + [
    ("OMBPY_HB_TIMEOUT", "-1"),
    ("OMBPY_FABRIC_MAX_CONNS", "-3"),
    ("OMBPY_SHM_CAPACITY", "0"),
    ("OMBPY_ULFM_TIMEOUT", "0"),
    ("OMBPY_REL_MAX_RETRIES", "0"),
    ("OMBPY_PICKLE_PROTOCOL", "99"),
]


@pytest.mark.parametrize("name,value", BAD_VALUES)
def test_bad_knob_fails_launch_before_spawn(name, value, monkeypatch,
                                            capfd):
    monkeypatch.setenv(name, value)
    rc = launcher.main(["-n", "2", "--transport", "uds", sys.executable,
                        "-c", "print('rank ran')"])
    out, err = capfd.readouterr()
    assert rc == 1
    assert err.startswith(f"ombpy-run: {name} must be "), err
    assert "per-rank exit codes" not in err
    assert "rank ran" not in out + err


def test_bad_knob_fails_threads_before_any_rank(monkeypatch):
    ran = []
    monkeypatch.setenv("OMBPY_COLL_ALLREDUCE", "bogus")
    with pytest.raises(ValueError, match="OMBPY_COLL_ALLREDUCE must be one"):
        run_on_threads(2, ran.append)
    assert ran == []


@pytest.mark.parametrize("knob", _scoped(knobs.SERVICE, knobs.CAMPAIGN),
                         ids=lambda k: k.name)
def test_bad_driver_knob_fails_config(knob, monkeypatch):
    config = ServiceConfig if knob.scope == knobs.SERVICE else CampaignConfig
    monkeypatch.setenv(knob.name, _malformed(knob))
    with pytest.raises(ValueError, match=knob.name):
        config.from_env()


def test_defaults_are_in_range():
    for knob in knobs.KNOBS.values():
        if knob.default is not None and knob.type is not bool:
            knob.check(knob.default)


def test_coll_knob_choices_are_the_dispatchable_algorithms():
    from repro.mpi.collectives import (
        allgather, allreduce, alltoall, bcast, gather, reduce, scan, scatter,
    )

    for module in (allgather, allreduce, alltoall, bcast, gather, reduce,
                   scan, scatter):
        op = module.__name__.rsplit(".", 1)[1]
        assert set(knobs.COLL_ALGORITHMS[op]) == set(module._ALGORITHMS)


def _src_files():
    return glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)


def test_every_ombpy_literal_in_src_is_registered():
    unregistered = set()
    for path in _src_files():
        with open(path, encoding="utf-8") as fh:
            names = re.findall(r"[\"'](OMBPY_[A-Z0-9_]+)[\"']", fh.read())
        unregistered.update(set(names) - set(knobs.KNOBS))
    assert not unregistered


def test_environment_is_read_only_through_the_registry():
    read = re.compile(
        r"os\.environ\.get\(|os\.getenv\(|in os\.environ"
        r"|os\.environ\[[^\]]+\](?!\s*=)"
    )
    offenders = []
    for path in _src_files():
        if path.endswith(os.path.join("repro", "knobs.py")):
            continue
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if read.search(line) and re.search(r"OMBPY_|ENV_", line):
                    offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert not offenders


def _doc_default(knob: knobs.Knob) -> str:
    if knob.default is None:
        return "unset"
    if knob.type is bool:
        return f"`{int(knob.default)}`"
    return f"`{knob.default}`"


def test_every_user_knob_is_tabled_in_docs_with_its_default():
    rows = []
    for path in glob.glob(os.path.join(REPO, "docs", "*.md")):
        with open(path, encoding="utf-8") as fh:
            rows += [line.split("|") for line in fh if line.startswith("|")]
    missing = []
    for knob in _scoped(knobs.RANK, knobs.SERVICE, knobs.CAMPAIGN):
        name = re.sub(r"^OMBPY_COLL_.*", "OMBPY_COLL_<OP>", knob.name)
        if not any(f"`{name}`" in cells[1] and _doc_default(knob) in cells[2]
                   for cells in rows):
            missing.append(f"{name} (default {_doc_default(knob)})")
    assert not missing


def test_backoff_counts_attempts_from_one():
    assert [backoff(a, 0.1, 1.0) for a in (0, 1, 2, 3, 5)] == \
        pytest.approx([0.1, 0.1, 0.2, 0.4, 1.0])
    assert backoff(10**6, 0.1, 1.0) == 1.0
    rng = random.Random(0)
    for attempt in range(1, 20):
        delay = backoff(attempt, 0.1, 1.0, rng, jitter=(0.9, 1.2))
        assert 0.9 * backoff(attempt, 0.1, 1.0) <= delay
        assert delay <= 1.2 * backoff(attempt, 0.1, 1.0)
