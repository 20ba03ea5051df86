"""The benchmark's layer hooks resolve against the package and restore.

``perfbench/tracing.py`` wraps named methods and module functions of
every layer (engine, server, ready queue, locks, admission, UM, LBC,
trace recorder, runner, fleet) for one traced pass.  A rename in the
package breaks the benchmark, not any other test, so this pins the
name contract: every hook installs, wraps its target, and comes off
again leaving the original object in place.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_MISSING = object()


@pytest.fixture
def tracing(monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing as module

    yield module
    sys.modules.pop("tracing", None)


def test_every_hook_installs_and_restores(tracing):
    tracer = tracing.Tracer()
    tracing.install_layer_hooks(tracer)
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert attr in vars(owner), (owner, attr)
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in patches:
        current = vars(owner).get(attr, _MISSING)
        if original is tracing._INHERITED:
            assert current is _MISSING, (owner, attr)
        else:
            assert current is original, (owner, attr)

