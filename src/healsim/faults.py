"""Failure taxonomy, seeded fault drawing, and injection into the model.

A draw finds its target by index, from the model's damage alone.
"""

from __future__ import annotations

import itertools
import sys
from enum import Enum

from .model import _UNKNOWN, ArchitectureModel, ConnectorSpec, Frozen

_MASK = (1 << 64) - 1


class FaultKind(Enum):
    CF1 = "CF1"  # component enters the UNKNOWN state
    CF2 = "CF2"  # exception count pushed past the threshold
    CF3 = "CF3"  # component removed from the running architecture
    CF4 = "CF4"  # connector between two components removed


_KIND_ORDER = _CF1, _CF2, _CF3, _CF4 = tuple(FaultKind)  # the members, as module globals


class NoEligibleTarget(Exception):
    """The drawn fault kind has nothing left to hit."""


class FaultInstance(Frozen):
    """One concrete fault: what kind, where, and (for CF2) how hard."""

    __slots__ = _fields = ("kind", "target", "magnitude", "injected_at")

    def __init__(self, kind: FaultKind, target: str | ConnectorSpec,
                 magnitude: int | None = None, injected_at: int | None = None) -> None:
        if kind is _CF4:
            if not isinstance(target, ConnectorSpec):
                raise ValueError("CF4 targets a connector")
        elif not isinstance(target, str):
            raise ValueError(f"{kind.value} targets a component slot")
        if kind is _CF2:
            if type(magnitude) is not int or magnitude <= 0:  # not a bool, a float or a str
                raise ValueError("CF2 requires a positive integer magnitude")
        elif magnitude is not None:
            raise ValueError(f"{kind.value} takes no magnitude")
        set_kind, set_target, set_magnitude, set_injected_at = self._setters
        set_kind(self, kind)
        set_target(self, target)
        set_magnitude(self, magnitude)
        set_injected_at(self, injected_at)


# splitmix64, 64 outputs per step: SIMD within a register, the register one
# Python integer of 64 lanes of 128 bits. A lane holds a 64-bit value in its
# low half, so its product with a 64-bit constant stays in the lane; the mask
# after each xor-shift drops the bits shifted in from the next lane, and the
# mask after each product takes the lane mod 2**64. The constants are built
# from bytes, which is cheaper at import than summing shifted terms.
_LANES = 64
_GAMMA = 0x9E3779B97F4A7C15
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")  # 1 in every lane
_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")  # each lane's low half
_GAMMAS = int.from_bytes(  # (i+1)*gamma mod 2**64 in lane i
    b"".join([((i + 1) * _GAMMA & _MASK).to_bytes(16, "little") for i in range(_LANES)]), "little")
# to_bytes in the host's own byte order makes each native 64-bit word's value
# right on any host; only the order of the words differs. Lane i's low half is
# word 2*i from the little end: the start of little-endian bytes, the end of
# big-endian ones.
_LOW_HALVES = {"little": slice(0, None, 2), "big": slice(-1, None, -2)}
_HOST_LOW_HALVES = _LOW_HALVES[sys.byteorder]


def _splitmix64_batch(state: int) -> memoryview:
    """The next ``_LANES`` outputs after ``state`` (taken mod 2**64)."""
    z = ((state & _MASK) * _ONES + _GAMMAS) & _LOW
    z = ((z ^ (z >> 30)) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
    z = ((z ^ (z >> 27)) & _LOW) * 0x94D049BB133111EB & _LOW
    z ^= z >> 31
    return memoryview(z.to_bytes(16 * _LANES, sys.byteorder)).cast("Q")[_HOST_LOW_HALVES]


class Rng:
    """splitmix64: four lines of 64-bit integer arithmetic, so the exact
    same sequence is reproducible in any language::

        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    ``next()`` returns the next output. The outputs are computed
    ``_LANES`` at a time by ``_splitmix64_batch``, so ``next`` is a C-level
    iterator's ``__next__`` over those batches, one per instance.
    """

    __slots__ = ("next",)

    def __init__(self, seed: int) -> None:
        states = itertools.count(seed & _MASK, _LANES * _GAMMA & _MASK)  # before each batch
        self.next = itertools.chain.from_iterable(map(_splitmix64_batch, states)).__next__


def draw_interval(rng: Rng) -> int:
    """Logical milliseconds until the next injection, uniform in [100, 500]."""
    return 100 + rng.next() % 401


def draw_fault(rng: Rng, model: ArchitectureModel, exception_threshold: int) -> FaultInstance:
    """Draw a random fault: kind first, then a uniform target among the
    eligible ones in blueprint order (present components for CF1..CF3,
    live connectors for CF4). CF2 magnitudes always clear the threshold.
    """
    kind = _KIND_ORDER[rng.next() % 4]
    if kind is _CF4:
        count, nth = model.live_count(), model.live_connector
    else:
        count, nth = model.present_count(), model.present_slot
    if not count:
        raise NoEligibleTarget(f"no eligible target for {kind.value}")
    target = nth(rng.next() % count)
    magnitude = exception_threshold + 1 + rng.next() % 5 if kind is _CF2 else None
    return FaultInstance(kind, target, magnitude, model.clock)


def inject(model: ArchitectureModel, fault: FaultInstance) -> None:
    """Apply the fault to the model. CF3 takes the component's connectors
    with it; everything else touches only the named target."""
    kind = fault.kind
    if kind is _CF1:
        model.set_state(fault.target, _UNKNOWN)
    elif kind is _CF2:
        model.add_exceptions(fault.target, fault.magnitude)
    elif kind is _CF3:
        model.remove_component(fault.target)
    else:
        model.remove_connector(fault.target)
