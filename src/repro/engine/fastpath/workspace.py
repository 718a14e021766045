"""Named scratch arenas for the graph-free inference fast path.

The Tensor reference path allocates a fresh ndarray for every
intermediate of every op; at serving batch sizes that is dozens of
short-lived ``(B, T, D)`` / ``(B, h, T, T)`` arrays per block.  A
:class:`Workspace` keeps ONE flat, grow-only buffer per scratch *name*
and hands out a view of its front in whatever shape is asked for -- the
way the paper's accelerator runs every block and selector out of the
same fixed on-chip buffers however many tokens an image kept.  What a
session holds is therefore a function of the names in the code and the
largest batch it has seen, never of how many distinct
``(batch, padded_length)`` shapes image-adaptive pruning produced on the
way: no cap, no eviction, and nothing allocated once every arena has
reached its largest request.

Views are handed out dirty (no zeroing): every fast-path kernel fully
overwrites its output, which is part of the kernel contract.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named scratch arenas of one dtype.

    **A name is ONE live buffer.**  Every :meth:`take` of a name returns
    a view of the same memory, whatever the shape, so a caller must be
    done with the previous view of a name before taking it again -- two
    arrays that have to be alive together need two names.
    ``allocations`` counts arena (re)allocations; it stops moving once
    traffic repeats.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._arenas = {}           # name -> flat array
        self._fills = {}            # name -> constant its arena holds
        self.allocations = 0

    def take(self, name, shape):
        """Return ``name``'s arena viewed as a C-contiguous ``shape``
        array, growing the arena first if it is too small.  Contents
        are undefined (kernels overwrite fully)."""
        size = math.prod(shape)
        arena = self._arenas.get(name)
        if arena is None or arena.size < size:
            arena = self._arenas[name] = np.empty(size, dtype=self.dtype)
            self._fills.pop(name, None)
            self.allocations += 1
        return arena[:size].reshape(shape)

    def full(self, name, shape, value):
        """Return a view pre-filled with ``value``, which callers must
        treat as read-only: the whole arena is filled when it grows or
        is asked for another value, not on every call.  Used for the
        cached ones / ``1/n`` vectors behind the BLAS-backed row
        reductions."""
        view = self.take(name, shape)
        if self._fills.get(name) != value:
            self._arenas[name].fill(value)
            self._fills[name] = value
        return view

    def ones(self, name, shape):
        """Shorthand for :meth:`full` with value 1."""
        return self.full(name, shape, 1.0)

    def __len__(self):
        return len(self._arenas)

    @property
    def nbytes(self):
        """Total bytes currently held."""
        return sum(arena.nbytes for arena in self._arenas.values())

    def clear(self):
        """Drop every arena (the counter is kept)."""
        self._arenas.clear()
        self._fills.clear()

    # Scratch is process-local by nature (a worker process grows its own
    # arenas on first use), so only the dtype crosses the pickle
    # boundary -- this also keeps compiled sessions cheap to ship to
    # executor workers.
    def __getstate__(self):
        return {"dtype": self.dtype}

    def __setstate__(self, state):
        self.__init__(dtype=state["dtype"])

    def __repr__(self):
        return (f"Workspace(dtype={self.dtype.name}, arenas={len(self)}, "
                f"nbytes={self.nbytes}, allocations={self.allocations})")
