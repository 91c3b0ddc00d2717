import os
import resource
import subprocess
import sys

import pytest

import selfdist


def _run_fresh(argv, cap_bytes=None, timeout=300, input=None):
    """Run `python argv...` in a fresh process that imports this checkout's
    selfdist, optionally under an address-space cap of `cap_bytes`, with
    `input` on its stdin; raises subprocess.TimeoutExpired after `timeout`
    seconds."""
    src = os.path.dirname(os.path.dirname(selfdist.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))
    return subprocess.run([sys.executable] + list(argv), capture_output=True,
                          text=True, env=env, timeout=timeout, input=input,
                          preexec_fn=cap if cap_bytes is not None else None)


@pytest.fixture
def run_fresh():
    """`run_fresh(["-m", "selfdist.cli", ...])` or `run_fresh(["-c", code])`,
    with optional `cap_bytes`, `timeout` and `input`; returns the
    CompletedProcess (text mode)."""
    return _run_fresh
