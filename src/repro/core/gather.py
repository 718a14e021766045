"""Shared token-gathering helpers for the physically-pruned path.

The "gather the kept tokens, append the package" step of the deployment
semantics (paper Fig. 9 step 3) is written down once, here:

* :meth:`repro.core.heatvit.HeatViT._forward_pruned_single` (reference
  single-image path) runs :func:`prune_image_sequence` as is;
* :class:`repro.hardware.selector_flow.TokenSelectionFlow` (functional
  model of the on-chip flow) shares its :func:`gather_kept_tokens` /
  :func:`weighted_package`;
* :class:`repro.engine.executor.BucketedExecutor` (batched serving
  path) applies the same packager rule to every image of a boundary at
  once, from one flat ragged token array, pinned bit for bit to
  :func:`prune_image_sequence` by ``tests/engine/test_fastpath.py``.
  :func:`dense_runs` adapts that ragged layout to the selector modules
  that take dense input only
  (:class:`repro.engine.fastpath.compiled.ModuleSelector`).

Everything here operates on plain arrays: the pruned path runs under
``nn.no_grad`` and the hardware flow is numpy-only, so no autodiff
plumbing is needed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["weighted_package", "gather_kept_tokens",
           "prune_image_sequence", "dense_runs", "value_groups"]

_EPS = 1e-8


def weighted_package(tokens, weights, eps=_EPS, dtype=None):
    """Score-weighted average of token rows (Eq. 10, numpy form).

    ``tokens``: ``(P, D)`` pruned-token features; ``weights``: ``(P,)``
    non-negative weights (the pruned tokens' *keep* scores, so the
    tokens the classifier was least sure about dominate the package).
    Returns the ``(D,)`` package token.

    ``dtype=None`` keeps the tokens' float dtype (non-float inputs
    compute in float64 as before) so float32 fast-path sequences are
    not silently upcast on the gather path.
    """
    tokens = np.asarray(tokens)
    if dtype is None:
        dtype = (tokens.dtype if np.issubdtype(tokens.dtype, np.floating)
                 else np.float64)
    tokens = np.asarray(tokens, dtype=dtype)
    weights = np.asarray(weights, dtype=dtype)
    return ((tokens * weights[:, None]).sum(axis=0)
            / max(weights.sum(), eps))


def gather_kept_tokens(tokens, keep_flags, package=None):
    """Concatenate kept token rows, then the optional package row.

    ``tokens``: ``(N, D)``; ``keep_flags``: ``(N,)`` boolean-ish.
    Returns ``(K, D)`` or ``(K + 1, D)`` when a package is appended.
    """
    tokens = np.asarray(tokens)
    kept = tokens[np.asarray(keep_flags, dtype=bool)]
    if package is None:
        return kept
    # Cast the package row to the tokens' dtype so concatenation never
    # silently upcasts a float32 fast-path sequence.
    package = np.asarray(package, dtype=tokens.dtype).reshape(
        1, tokens.shape[-1])
    return np.concatenate([kept, package], axis=0)


def prune_image_sequence(sequence, keep_flags, *, use_packager,
                         has_package, package=None):
    """Re-gather one image's full token sequence after a selector.

    ``sequence`` is ``(T, D)`` laid out ``[cls, patch_0..patch_{N-1}]``
    plus, when ``has_package``, a trailing package slot.  ``keep_flags``
    is ``(N,)`` over the patch tokens only.  ``package`` is the ``(D,)``
    freshly-packaged token for this stage (required when ``use_packager``
    and anything was pruned).

    Packager rule (matching both the masked training path and the FPGA
    flow): when tokens were pruned at this stage the new package replaces
    the slot; when nothing was pruned the old (evolving) package is
    carried; without a packager pruned tokens are simply discarded.

    Returns ``(new_sequence, new_has_package)``.
    """
    sequence = np.asarray(sequence)
    keep_flags = np.asarray(keep_flags, dtype=bool)
    stop = sequence.shape[0] - (1 if has_package else 0)
    patches = sequence[1:stop]
    if keep_flags.shape != (patches.shape[0],):
        raise ValueError(
            f"keep_flags shape {keep_flags.shape} does not match "
            f"{patches.shape[0]} patch tokens")
    pruned_any = bool(keep_flags.sum() < keep_flags.size)
    slot = None
    if use_packager:
        if pruned_any:
            if package is None:
                raise ValueError(
                    "use_packager with pruned tokens requires a package")
            slot = package
        elif has_package:
            slot = sequence[stop]
    body = gather_kept_tokens(patches, keep_flags, package=slot)
    new_sequence = np.concatenate([sequence[:1], body], axis=0)
    return new_sequence, has_package or (use_packager and pruned_any)


def dense_runs(counts):
    """Regroup a ragged token array into dense stacks, one per distinct
    per-image token count -- the adapter for scorers that only take
    ``(g, N, D)`` input.

    ``counts``: ``(n,)`` per-image token counts of a flat ``(M, ...)``
    array, image after image.  Yields ``(rows, tokens)``:
    ``rows`` are the images sharing one count, in order, and ``tokens``
    their ``(g, count)`` flat indices, so ``flat[tokens]`` is the dense
    stack and ``out[tokens] = dense`` scatters a per-token result back.
    """
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    for count, rows in value_groups(counts):
        yield rows, starts[rows][:, None] + np.arange(count)


def value_groups(values):
    """``(value, indices)`` for every distinct entry of the 1-D
    ``values``, ascending by value, ``indices`` ascending -- what
    ``np.unique`` then ``np.flatnonzero(values == value)`` give, from
    one stable sort.  ``np.unique`` imports ``numpy.ma`` on its first
    call (numpy 2), which would land inside a server's first request.
    """
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1),
              len(ordered)]
    return [(ordered[lo], order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            if hi > lo]
