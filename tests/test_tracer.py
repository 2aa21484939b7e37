"""The traced benchmark (`perfbench/run.py --trace 1`) wraps names that one
astable module imports from another.  Installing and removing its wrappers
must work on the current package: a renamed or deleted name fails here
instead of breaking the traced run."""

import importlib.util
import logging
from pathlib import Path

import astable.cli
import astable.definitions
import astable.splitting
import astable.stable
import astable.verifier

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (
    astable.cli,
    astable.definitions,
    astable.splitting,
    astable.stable,
    astable.verifier,
    astable.stable.ModelSet,
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_patched_name():
    spans = _load_spans()
    before = [dict(vars(owner)) for owner in OWNERS]
    handlers = list(logging.getLogger("astable.splitting").handlers)
    uninstall = spans.install(spans.Recorder())
    try:
        patched = {
            (owner.__name__, name)
            for owner, saved in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if saved.get(name) is not value
        }
    finally:
        uninstall()
    assert ("astable.splitting", "is_a_stable") in patched
    assert ("astable.stable", "truth_chunks") in patched
    assert ("ModelSet", "lines") in patched
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[name] is value for name, value in saved.items()), owner.__name__
    assert logging.getLogger("astable.splitting").handlers == handlers
