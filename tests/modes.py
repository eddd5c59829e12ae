"""Execution configurations of the differential matrix.

``fast_path`` has two values: ``"off"`` (the interpreted reference walk,
the oracle) and ``"vector"`` (the default), which runs each bound action
on the ``fused`` tier when its shape allows and on the compiled-closure
``walk`` otherwise.  The matrix labels:

``"off"``       the oracle
``"compiled"``  a vector machine with every pattern action pinned to the
                compiled walk — the production fallback for shapes the
                fused tier rejects, kept bit-identical to the oracle on the
                algorithms whose actions would otherwise all run fused
``"vector"``    ``fast_path="vector"``, passed explicitly
``"native"``    the library default, with no ``fast_path`` argument; the
                same configuration as ``"vector"`` (the fused tier took over
                the retired native tier's fusion)

The ``compiled``/``native`` labels are kept from the retired fast paths of
the same names so the suites' test ids stay stable.  The pin is test-only:
the library has no option that forces the walk.
"""

from __future__ import annotations

import repro.patterns.executor as _executor
from repro.runtime import Machine

MODES = ("off", "compiled", "vector", "native")

_MACHINE_KW = {
    "off": {"fast_path": "off"},
    "compiled": {"fast_path": "vector"},
    "vector": {"fast_path": "vector"},
    "native": {},
}


class WalkMachine(Machine):
    """A vector machine whose pattern actions all run the compiled walk."""


_recognize_vector_shape = _executor.recognize_vector_shape


def _recognize_unless_pinned(ba):
    if isinstance(ba.bound.machine, WalkMachine):
        return "pinned to the compiled walk by the test matrix"
    return _recognize_vector_shape(ba)


# The executor resolves each action's tier through this module global.
_executor.recognize_vector_shape = _recognize_unless_pinned


def mode_machine(mode: str, *args, **kw) -> Machine:
    """A ``Machine`` for one matrix label; other arguments pass through."""
    cls = WalkMachine if mode == "compiled" else Machine
    return cls(*args, **_MACHINE_KW[mode], **kw)
