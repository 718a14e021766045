"""Graph-free compiled inference for ViT / HeatViT serving.

:func:`compile_model` walks a :class:`repro.vit.VisionTransformer` or a
:class:`repro.core.HeatViT` once, extracts every weight into contiguous
arrays of the target dtype, and returns a :class:`CompiledModel` whose
methods run pure-ndarray fused kernels (:mod:`.kernels`) on scratch
from the :class:`.Workspace` the caller passes in (one arena per scratch
name, so a name is one live buffer) -- no autograd tape, no per-op
``Tensor`` allocations, no ``(3, B, h, N, d)`` transpose round-trip in
attention.

Compile-time fusions
--------------------
* **Pre-fused, pre-scaled QKV**: the qkv projection is one GEMM whose
  query columns are pre-multiplied by the ``1/sqrt(d)`` attention scale,
  so the score matmul needs no separate scaling pass.
* **Attention layout**: Q/K/V are strided views into the one
  ``(B, T, 3, h, d)`` qkv buffer; the batched matmuls consume the views
  directly instead of materializing the reference path's transposed
  5-D copy, and the only explicit copy is the single head-merge back to
  ``(B, T, D)``.
* **LayerNorm affine**: folded into the GEMM that consumes it (block
  norms into qkv / fc1, the final norm into the head), so each
  :func:`.kernels.fused_layer_norm` stops at the normalized activations.
* **Token selectors** are compiled to the same ndarray kernels (LN ->
  per-head scoring MLPs -> attention branch -> Eq. 8 combine -> Eq. 10
  packager), so keep/prune decisions on the fast path come from the
  exact same arithmetic as the compiled blocks.  Only a selector whose
  own class, classifier and attention branch are exactly the stock
  ones lowers (:func:`_is_stock_selector`); any other -- the Fig. 12
  ablations, a custom classifier -- is served through its own module
  (:class:`ModuleSelector`), slower and exactly what it computes.
  Either kind has one scoring method, ``select_ragged(flat, counts,
  ws)``, over ragged tokens: the lowered pipeline scores every
  distinct length at once, the module one dense stack per distinct
  count.  :meth:`CompiledModel.select`, the dense ``(g, N, D)`` entry
  point, is a reshape onto it.

The Tensor path stays the reference implementation: float64 compiles
match it to well under the engine's 1e-8 bound, float32 to ~1e-6 logits
with (empirically pinned) identical token-keep decisions and argmax.

GELU and sigmoid follow the dtype
---------------------------------
Float64 compiles are the parity grade and run SciPy's ``erf`` and
``expit``; float32 compiles run numpy kernels instead
(:func:`.kernels.gelu_rational`, :func:`.kernels.sigmoid`), which is
also why a process serving only float32 or int8 never imports SciPy.
The float64 kernels import it where they call it, as do the Tensor
modules a :class:`ModuleSelector` or an opaque activation runs.  Each
part that runs them holds a :class:`.kernels.SciPyImport`, so SciPy
loads when the part is compiled, or unpickled in a worker, and never
inside a first request.

Cache-resident blocks
---------------------
:meth:`CompiledBlock.forward` runs its batch in chunks of whole images
whose scratch fits :data:`CHUNK_BYTES`, so the ~60 elementwise passes of
a block read what the GEMM before them just wrote instead of streaming
batch-sized buffers through the cache -- the software analogue of the
paper's accelerator keeping a tile's intermediates in on-chip buffers.
Every chunk, the shorter tail included, is a view of the same ``blk_*``
arenas, which therefore never grow past one chunk.  An int8 block runs
its batch as one chunk (its activation scales are per tensor), but its
fc1 -> activation still runs in cache-sized tiles of whole images
(:meth:`CompiledBlock.mlp_tile`).

One hierarchy, N kernel sets
----------------------------
:class:`CompiledBlock`, :class:`CompiledSelector` and
:class:`CompiledModel` fix the dataflow; their numerics are data (linear
kernels, softmax / activation / LayerNorm callables, LayerNorm affines).
The fusions above are what :func:`compile_model` puts in;
:func:`.quantized.compile_quantized` fills the same classes with integer
GEMM kernels and the paper's polynomial nonlinearities -- fast float32
kernels, or in float64 the simulation's own definitions (its LayerNorm
slot holds :func:`.qkernels.layer_norm_reference` instead of
:func:`.kernels.fused_layer_norm`).  So every lane, float or quantized,
float32 or float64, runs :meth:`CompiledBlock._run`.
"""

from __future__ import annotations

import copy

import numpy as np

from repro import nn
from repro.core.gather import dense_runs
from repro.nn.tensor import Tensor
from repro.engine.fastpath.kernels import (SciPyImport, fused_layer_norm,
                                           gelu_exact, gelu_rational,
                                           mask_to_bias, masked_softmax,
                                           sigmoid)

__all__ = ["compile_model", "CompiledModel", "CompiledBlock",
           "CompiledSelector", "ModuleSelector", "CompileError"]

_EPS = 1e-8          # mirrors repro.core.selector._EPS

#: Scratch budget of one :meth:`CompiledBlock.forward` chunk: what a
#: block may touch between two visits to the same buffer and still find
#: it in a few-MiB L2.  Swept on the suite's pruned shape (CHANGES.md,
#: PR 16); flat from half to twice this value.
CHUNK_BYTES = 3 << 20


def _images_within_chunk(per_image_bytes):
    """How many whole images of ``per_image_bytes`` fit one chunk (at
    least one)."""
    return max(CHUNK_BYTES // per_image_bytes, 1)


class CompileError(TypeError):
    """A module the fast path cannot lower (and cannot fall back on)."""


def _contig(array, dtype):
    return np.ascontiguousarray(array, dtype=dtype)


def _fold_norm_affine(norm, linear, dtype):
    """Fold a LayerNorm's affine into the Linear that consumes it.

    ``(xn * w + b) @ W + c  ==  xn @ (diag(w) W) + (b W + c)`` -- exact
    up to rounding order, one full-tensor multiply and add cheaper per
    invocation.  Returns fresh ``(weight, bias)`` arrays in ``dtype``.
    """
    w = np.asarray(norm.weight.data, dtype=dtype)
    b = np.asarray(norm.bias.data, dtype=dtype)
    weight = np.asarray(linear.weight.data, dtype=dtype)
    bias = (np.zeros(weight.shape[1], dtype=dtype) if linear.bias is None
            else np.asarray(linear.bias.data, dtype=dtype))
    return w[:, None] * weight, bias + b @ weight


class LinearKernel:
    """One float GEMM + bias, in the call shape every linear kernel of
    the hierarchy shares: ``kernel(x, ws, key, out=None, inplace=False)``.

    ``out`` may be a strided view (e.g. an embedding buffer's token
    rows); without it the result lands in workspace scratch under
    ``key``.  ``inplace`` (``x`` is dead scratch the kernel may
    overwrite) only matters to kernels that quantize their input.

    The same call in two steps, for a caller that runs the GEMM over
    slices of one input: ``prepare(x, ws, key, inplace)`` readies the
    whole input and returns ``(rows, state)``; ``gemm(rows[s], state,
    out[s])`` computes one slice.  A float input needs no preparing.
    """

    __slots__ = ("weight", "bias")

    def __init__(self, weight, bias, dtype):
        self.weight = _contig(weight, dtype)
        self.bias = None if bias is None else _contig(bias, dtype)

    @classmethod
    def from_linear(cls, linear, dtype):
        return cls(linear.weight.data,
                   None if linear.bias is None else linear.bias.data, dtype)

    def prepare(self, x, ws, key, inplace=False):
        return x, None

    def gemm(self, x, state, out):
        np.matmul(x, self.weight, out=out)
        if self.bias is not None:
            out += self.bias
        return out

    def __call__(self, x, ws, key, out=None, inplace=False):
        if out is None:
            out = ws.take(key + "o", x.shape[:-1] + self.weight.shape[1:])
        return self.gemm(x, None, out)


def _relu_kernel(x, ws, key):
    return np.maximum(x, 0.0, out=x)


def _expit_kernel(x, ws, key):
    from scipy import special

    return special.expit(x, out=x)


class _SciPyKernel:
    """A float64 parity kernel that calls SciPy (:func:`.kernels.gelu_exact`,
    :func:`_expit_kernel`), with the :class:`SciPyImport` that loads
    SciPy when the kernel is compiled or unpickled."""

    __slots__ = ("kernel", "scipy")

    def __init__(self, kernel):
        self.kernel = kernel
        self.scipy = SciPyImport()

    def __call__(self, x, ws, key):
        return self.kernel(x, ws, key)


def _gelu_kernel(dtype):
    """Exact erf GELU for float64 parity, the rational-erf kernel for
    float32 (~6e-7 activation error, below the float32 noise floor)."""
    if dtype == np.dtype(np.float64):
        return _SciPyKernel(gelu_exact)
    return gelu_rational


def _sigmoid_kernel(dtype):
    """The sigmoid kernel for ``dtype``, picked the way GELU's is:
    SciPy's ``expit`` for float64 parity, the numpy
    :func:`.kernels.sigmoid` (within 4 ulp of it) for float32."""
    if dtype == np.dtype(np.float64):
        return _SciPyKernel(_expit_kernel)
    return sigmoid


def _hardswish_kernel(x, ws, key):
    scratch = ws.take(key + "0", x.shape)
    np.clip(x + 3.0, 0.0, 6.0, out=scratch)
    scratch /= 6.0
    x *= scratch
    return x


def _identity_kernel(x, ws, key):
    return x


class _TensorActivation:
    """Opaque activation executed through its reference Tensor module.

    A class (not a closure) so compiled models stay picklable -- worker
    processes receive compiled sessions by pickle.  The module may call
    SciPy, so it holds a :class:`SciPyImport`.
    """

    __slots__ = ("module", "dtype", "scipy")

    def __init__(self, module, dtype):
        self.module = module
        self.dtype = dtype
        self.scipy = SciPyImport()

    def __call__(self, x, ws, key):
        with nn.no_grad():
            result = self.module(Tensor(np.asarray(x, dtype=np.float64)))
        x[...] = result.data.astype(self.dtype, copy=False)
        return x


def _compile_activation(module, dtype, swaps=None):
    """Map an activation Module to an in-place ``fn(x, ws, key)``.

    ``swaps`` maps Module types to the kernels a compile function puts
    in their place (the quantized lowering's polynomial GELU and PLAN
    sigmoid -- the two :func:`repro.quant.quantize_model` swaps).
    Otherwise GELU and sigmoid follow the dtype (:func:`_gelu_kernel`,
    :func:`_sigmoid_kernel`); every other activation runs exact.  Every
    returned callable is picklable (module-level functions or class
    instances such as :class:`_TensorActivation`)."""
    for kind, kernel in (swaps or {}).items():
        if isinstance(module, kind):
            return kernel
    if isinstance(module, nn.GELU):
        return _gelu_kernel(dtype)
    if isinstance(module, nn.Sigmoid):
        return _sigmoid_kernel(dtype)
    kernels = {nn.ReLU: _relu_kernel, nn.Hardswish: _hardswish_kernel,
               nn.Identity: _identity_kernel}
    for kind, kernel in kernels.items():
        if isinstance(module, kind):
            return kernel
    return _TensorActivation(module, dtype)


def _compile_mlp(sequential, dtype, lower_linear, swaps=None):
    """Lower a ``Sequential`` of Linear / activation modules to a step
    program executed by :func:`_run_mlp`: a list of callables, linear
    kernels and activations alike taking ``(x, ws, key)``.

    ``lower_linear(module, name)`` builds the kernel for one Linear.
    ``name`` is the child's name inside the ``Sequential`` -- its index
    ("0", "1", ...), the same name :func:`repro.quant.quantize_model`
    sees, so a quantizing lowering selects per-channel layers exactly as
    the simulation's surgery does.  ``swaps`` is forwarded to
    :func:`_compile_activation`.
    """
    return [lower_linear(module, name) if isinstance(module, nn.Linear)
            else _compile_activation(module, dtype, swaps)
            for name, module in sequential._modules.items()]


def _run_mlp(steps, x, ws, prefix):
    """Execute a compiled MLP program; returns a workspace buffer."""
    for index, step in enumerate(steps):
        x = step(x, ws, f"{prefix}{index}_")
    return x


class CompiledBlock:
    """One transformer encoder block lowered to fused ndarray kernels.

    The compile function supplies the numerics: four linear kernels
    (``kernel(x, ws, key, out=None, inplace=False)``), the attention
    softmax (``fn(scores, bias, ws=, key=)``), the MLP activation
    (``fn(x, ws, key)``), the LayerNorm kernel (``fn(x, weight, bias,
    eps, out=, ws=, key=)``, :func:`.kernels.fused_layer_norm` unless
    given), both LayerNorm affines and a score scale.

    :func:`compile_model` folds both LayerNorms' affine transforms into
    the GEMM that consumes them (``(xn * w + b) @ W`` becomes
    ``xn @ (diag(w) W) + b W``) and passes ``None`` affines, so at run
    time each LN stops at the normalized activations -- the "pre-scaled
    LayerNorm affine" fusion; with ``1/sqrt(d)`` pre-multiplied onto
    the query columns it passes no ``score_scale`` either.

    ``image_separable`` is the compile function's statement that every
    kernel it supplied computes each image from that image alone (true
    of the float kernels, up to the rounding of a per-call choice such
    as the softmax's shift-free branch).  Only then may
    :meth:`forward` cut the batch into chunks; kernels that read a
    statistic of the whole batch -- the int8 grade's per-tensor
    activation scale -- leave it unset and get their batch whole.
    Either way fc1 and the activation run in tiles of whole images
    (:meth:`mlp_tile`): fc1's input is prepared once for the whole
    chunk, so the int8 grade calibrates that scale over the batch
    before any tile runs.
    """

    __slots__ = ("num_heads", "head_dim", "hidden_dim",
                 "n1_w", "n1_b", "eps1", "n2_w", "n2_b", "eps2",
                 "qkv", "proj", "fc1", "fc2", "softmax", "act",
                 "layer_norm", "score_scale", "image_separable")

    def __init__(self, block, norm1, norm2, qkv, proj, fc1, fc2, softmax,
                 act, score_scale=None, image_separable=False,
                 layer_norm=fused_layer_norm):
        attn = block.attn
        self.num_heads = attn.num_heads
        self.head_dim = attn.head_dim
        self.hidden_dim = block.mlp.fc1.out_features
        self.n1_w, self.n1_b = norm1
        self.eps1 = block.norm1.eps
        self.n2_w, self.n2_b = norm2
        self.eps2 = block.norm2.eps
        self.qkv, self.proj, self.fc1, self.fc2 = qkv, proj, fc1, fc2
        self.softmax = softmax
        self.act = act
        self.layer_norm = layer_norm
        self.score_scale = score_scale
        self.image_separable = image_separable

    def forward(self, x, bias, ws):
        """Pre-norm block, fully in place on ``x`` (``(B, T, D)``).

        ``bias`` is the additive key-padding score bias ``(B, T)`` (or
        ``None``); ``ws`` supplies every scratch buffer.

        The batch runs in chunks of whole images sized so that one
        chunk's scratch fits :data:`CHUNK_BYTES`: every LayerNorm, bias
        add, softmax, activation and residual pass then reads
        cache-resident data, and no scratch buffer is larger than a
        chunk.  A small batch is one chunk; so is any batch of a block
        that is not ``image_separable``, whose attention and fc2 then
        run whole and only fc1 -> activation runs in tiles.
        """
        batch, tokens, dim = x.shape
        step = max(batch, 1)
        if self.image_separable:
            # What one image touches: x and nine (T, D)s of scratch
            # (LayerNorm out and two squares, qkv, context, merge,
            # projection), the hidden layer with up to three
            # activation buffers, and the score matrix.
            step = _images_within_chunk(x.itemsize * tokens * (
                10 * dim + 4 * self.hidden_dim + self.num_heads * tokens))
        for lo in range(0, batch, step):
            self._run(x[lo:lo + step],
                      None if bias is None else bias[lo:lo + step], ws)
        return x

    def mlp_tile(self, tokens, itemsize):
        """Images per fc1 -> activation tile at ``tokens`` tokens: one
        image's fc1 input rows, hidden layer and up to three activation
        buffers, within :data:`CHUNK_BYTES`.  A float chunk's per-image
        budget counts all of these and more, so it is never larger than
        a tile and runs as one."""
        dim = self.num_heads * self.head_dim
        return _images_within_chunk(
            itemsize * tokens * (dim + 4 * self.hidden_dim))

    def _run(self, x, bias, ws):
        """One chunk of :meth:`forward`.  Every linear runs ``inplace``:
        its input is dead scratch by then."""
        batch, tokens, dim = x.shape
        h, d = self.num_heads, self.head_dim
        normed = ws.take("blk_ln", (batch, tokens, dim))
        self.layer_norm(x, self.n1_w, self.n1_b, self.eps1, out=normed,
                        ws=ws, key="blk_ln1")
        qkv = ws.take("blk_qkv", (batch, tokens, 3 * dim))
        self.qkv(normed, ws, "blk_qkv", out=qkv, inplace=True)
        split = qkv.reshape(batch, tokens, 3, h, d)
        q = split[:, :, 0].transpose(0, 2, 1, 3)           # (B, h, T, d)
        k = split[:, :, 1].transpose(0, 2, 3, 1)           # (B, h, d, T)
        v = split[:, :, 2].transpose(0, 2, 1, 3)           # (B, h, T, d)
        scores = ws.take("blk_scores", (batch, h, tokens, tokens))
        np.matmul(q, k, out=scores)
        if self.score_scale is not None:                   # else Q pre-scaled
            scores *= scores.dtype.type(self.score_scale)
        self.softmax(scores, bias, ws=ws, key="blk_sm")
        context = ws.take("blk_ctx", (batch, h, tokens, d))
        np.matmul(scores, v, out=context)
        merged = ws.take("blk_merge", (batch, tokens, dim))
        # The one explicit head-merge copy: (B, h, T, d) -> (B, T, h*d).
        np.copyto(merged.reshape(batch, tokens, h, d),
                  context.transpose(0, 2, 1, 3))
        attn_out = ws.take("blk_attn_out", (batch, tokens, dim))
        self.proj(merged, ws, "blk_proj", out=attn_out, inplace=True)
        x += attn_out                                      # residual 1
        self.layer_norm(x, self.n2_w, self.n2_b, self.eps2, out=normed,
                        ws=ws, key="blk_ln2")
        hidden = ws.take("blk_mlp", (batch, tokens, self.hidden_dim))
        # fc1's input is prepared (int8: calibrated and quantized) over
        # the whole chunk, then GEMM, bias and activation run per tile,
        # so the activation reads what the GEMM just wrote.  fc2 needs
        # the whole hidden layer: the int8 grade calibrates over it.
        rows, state = self.fc1.prepare(normed, ws, "blk_fc1", inplace=True)
        tile = self.mlp_tile(tokens, x.itemsize)
        for lo in range(0, batch, tile):
            part = hidden[lo:lo + tile]
            self.fc1.gemm(rows[lo:lo + tile], state, part)
            self.act(part, ws, "blk_act")
        self.fc2(hidden, ws, "blk_fc2", out=attn_out,      # reuse buffer
                 inplace=True)
        x += attn_out                                      # residual 2


class CompiledSelector:
    """A stock token selector lowered to ndarray kernels (eval semantics).

    Reproduces :meth:`repro.core.TokenSelector.forward` with
    ``hard=False`` and no incoming mask -- exactly what both deployment
    paths execute: deterministic argmax decisions, the >=1-token guard,
    and the Eq. 10 score-weighted packager.  Only what
    :func:`_is_stock_selector` recognises lowers here; every other
    selector is a :class:`ModuleSelector`.

    Scoring runs at BLAS shape: the per-head MLPs take ``(M*h, .)``
    rows, one GEMM per layer (numpy runs ``(M, h, k) @ (k, n)`` as ``M``
    tiny GEMMs), and the per-head reductions -- Eq. 6 channel means and
    both Eq. 8 head sums -- are GEMMs against constant 0/1 matrices
    built here in the compute dtype, several times the speed of a short
    last- or middle-axis ``add.reduce``.
    """

    __slots__ = ("dtype", "num_heads", "head_dim", "norm_w", "norm_b",
                 "norm_eps", "feature_mlp", "classifier_mlp",
                 "attention_mlp", "head_mean", "head_sum", "head_ones",
                 "sigmoid")

    def __init__(self, selector, dtype, attention_mlp, feature_mlp,
                 classifier_mlp):
        """``*_mlp`` are :func:`_compile_mlp` programs lowered in
        ``dtype`` with whichever kernels the compile function chose."""
        self.dtype = dtype
        self.num_heads = selector.num_heads
        self.head_dim = selector.embed_dim // selector.num_heads
        self.norm_w = _contig(selector.norm.weight.data, dtype)
        self.norm_b = _contig(selector.norm.bias.data, dtype)
        self.norm_eps = selector.norm.eps
        # (D, h): token -> per-head channel mean (Eq. 6); (2h, 2) and
        # (h, 1): per-head (keep, prune) scores and weights -> their sum
        # over heads (Eq. 8).
        heads = np.eye(self.num_heads, dtype=dtype)
        self.head_mean = np.repeat(heads, self.head_dim,
                                   axis=0) / self.head_dim
        self.head_sum = np.tile(np.eye(2, dtype=dtype),
                                (self.num_heads, 1))
        self.head_ones = np.ones((self.num_heads, 1), dtype=dtype)
        self.sigmoid = _sigmoid_kernel(dtype)
        self.feature_mlp = feature_mlp
        self.classifier_mlp = classifier_mlp
        self.attention_mlp = attention_mlp

    def _classifier_scores_ragged(self, normed, counts, starts, ws):
        """Per-head probabilities for ragged tokens: ``(M, h, 2)``.

        Per-head token scores (Eqs. 3-5): local features, per-image
        global average, concat, classify, softmax -- on ``(M*h, .)``
        rows, with the global average as a segment reduction.
        """
        m = normed.shape[0]
        h = self.num_heads
        heads = normed.reshape(m * h, self.head_dim)
        local = _run_mlp(self.feature_mlp, heads, ws, "rag_feat")
        feat = local.shape[-1]
        local = local.reshape(m, h, feat)
        gmean = np.add.reduceat(local, starts, axis=0)     # (n, h, f)
        gmean /= counts[:, None, None]
        combined = ws.take("rag_comb", (m, h, 2 * feat))
        combined[..., :feat] = local
        combined[..., feat:] = np.repeat(gmean, counts, axis=0)
        per_head = _run_mlp(self.classifier_mlp,
                            combined.reshape(m * h, 2 * feat), ws, "rag_cls")
        masked_softmax(per_head, None, ws, "rag_sm")
        return per_head.reshape(m, h, 2)

    def select_ragged(self, flat, counts, ws):
        """Score a ragged batch of images in ONE kernel pipeline.

        ``flat``: ``(M, D)`` patch tokens of many images concatenated
        along the token axis; ``counts``: ``(n,)`` per-image token
        counts summing to ``M``.  This is the selector-boundary hot
        path: every per-token op (LN, MLPs, softmax, sigmoid, Eq. 8)
        is the Tensor module's arithmetic, and the per-image reductions
        (Eq. 4 global pooling, the >=1-token guard, the Eq. 10
        packager) run as segment reductions (``np.add.reduceat``) -- so
        one call serves every distinct sequence length at a boundary.
        Segment sums accumulate sequentially instead of numpy's
        pairwise order, a rounding-level (~1e-16 in float64) deviation
        from the module only.

        Returns ``(keep_flat, packages)``: boolean ``(M,)`` and
        ``(n, D)``.
        """
        dt = self.dtype
        m, dim = flat.shape
        h = self.num_heads
        counts = np.asarray(counts)
        starts = np.zeros(counts.size, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        normed = ws.take("rag_norm", (m, dim))
        fused_layer_norm(flat, self.norm_w, self.norm_b, self.norm_eps,
                         out=normed, ws=ws, key="rag_ln")
        per_head = self._classifier_scores_ragged(normed, counts, starts,
                                                  ws)
        # Attention branch (Eqs. 6-7): head channel means -> MLP -> sigmoid.
        head_stat = normed @ self.head_mean                # (M, h)
        importance = _run_mlp(self.attention_mlp, head_stat, ws, "rag_att")
        self.sigmoid(importance, ws, "rag_sig")
        # Eq. 8 combine: head-importance-weighted average of the scores.
        per_head *= importance[..., None]                  # (M, h, 2)
        scores = per_head.reshape(m, 2 * h) @ self.head_sum   # (M, 2)
        total = importance @ self.head_ones                # (M, 1)
        total += dt.type(_EPS)
        scores /= total
        keep_score = scores[..., 0]
        keep = keep_score >= scores[..., 1]
        # Degenerate guard: never prune every token of an image.
        kept_any = np.logical_or.reduceat(keep, starts)
        for image in np.flatnonzero(~kept_any):
            lo = starts[image]
            hi = lo + counts[image]
            keep[lo + np.argmax(keep_score[lo:hi])] = True
        # Eq. 10 packager on the RAW (un-normed) tokens, weighted by the
        # pruned tokens' keep scores.
        pruned_w = np.where(keep, dt.type(0.0), keep_score)
        weighted = ws.take("rag_pkg", (m, dim))
        np.multiply(flat, pruned_w[:, None], out=weighted)
        packages = np.add.reduceat(weighted, starts, axis=0)
        packages /= (np.add.reduceat(pruned_w, starts)[:, None]
                     + dt.type(_EPS))
        return keep, packages


class ModuleSelector:
    """A token selector served through its own module (eval semantics).

    Whatever a selector the compile functions do not recognise
    overrides -- a classifier, the Eq. 8 combine of
    :class:`repro.core.UniformHeadSelector` -- this serves exactly what
    its module computes: ``module(patches, hard=False)``.  A compile
    function hands it the selector's own deep copy (compiling snapshots
    weights), put in ``eval()`` and, on the quantized grades, surgered
    by :func:`repro.quant.quantize_model`; the tensor backend hands it
    the live selector, whose mode it leaves alone.

    The module takes dense input only, so :meth:`select_ragged` scores
    one ``(g, count, D)`` stack per distinct patch count, in the
    module's float64 arithmetic.  Its Tensor modules may call SciPy, so
    it holds a :class:`.kernels.SciPyImport`.
    """

    __slots__ = ("dtype", "module", "scipy")

    def __init__(self, module, dtype):
        self.dtype = dtype
        self.module = module
        self.scipy = SciPyImport()

    def select_ragged(self, flat, counts, ws):
        """Score ragged ``(M, D)`` patch tokens through the module, one
        dense stack per distinct count; returns ``(keep, packages)``
        like :meth:`CompiledSelector.select_ragged`.  ``ws`` is unused:
        the module allocates its own arrays."""
        keep = np.empty(flat.shape[0], dtype=bool)
        packages = np.empty((len(counts), flat.shape[1]), dtype=self.dtype)
        with nn.no_grad():
            for rows, tokens in dense_runs(counts):
                out = self.module(
                    Tensor(np.asarray(flat[tokens], dtype=np.float64)),
                    hard=False)
                # The module's own guard keeps >= 1 token per image.
                keep[tokens] = out.decision.data > 0.5
                packages[rows] = out.package.data[:, 0, :]
        return keep, packages


class CompiledModel:
    """Weights + kernels for the graph-free serving forward pass.

    The model owns no scratch: every method takes the caller's
    :class:`.Workspace`, so a session has one pool.  What :meth:`embed`
    returns is a view of that workspace's ``embed`` arena (mutated in
    place by the block calls, overwritten by the next ``embed``); copy
    it if it must survive the next call.
    """

    def __init__(self, config, dtype, blocks, selectors, embed_weights,
                 head_weights, layer_norm=fused_layer_norm):
        self.config = config
        self.dtype = dtype
        self.blocks = blocks
        self.selectors = selectors
        # ``patch`` / ``head`` are linear kernels; the final LayerNorm
        # affine is ``None`` when folded into the head GEMM, and
        # ``layer_norm`` is its kernel (the blocks' call shape).
        (self.patch, self.cls_token, self.pos_embed) = embed_weights
        (self.final_norm_w, self.final_norm_b, self.final_norm_eps,
         self.head) = head_weights
        self.layer_norm = layer_norm

    # ------------------------------------------------------------------
    def _patch_columns(self, images):
        """``(B, C, H, W)`` images -> ``(B, N, C*p*p)`` patch rows in
        the compute dtype."""
        images = np.asarray(images, dtype=self.dtype)
        batch, channels, height, width = images.shape
        p = self.config.patch_size
        grid_h, grid_w = height // p, width // p
        cols = images.reshape(batch, channels, grid_h, p, grid_w, p)
        cols = cols.transpose(0, 2, 4, 1, 3, 5)
        return cols.reshape(batch, grid_h * grid_w, channels * p * p)

    def embed(self, images, ws):
        """Patch-embed + CLS + position embeddings: ``(B, 1+N, D)``."""
        cols = self._patch_columns(images)
        out = ws.take("embed", (cols.shape[0], 1 + cols.shape[1],
                                self.config.embed_dim))
        self.patch(cols, ws, "embed_p", out=out[:, 1:, :], inplace=True)
        out[:, 0, :] = self.cls_token
        out += self.pos_embed
        return out

    def run_block(self, index, x, bias, ws):
        """Run block ``index`` in place on ``x``; see
        :meth:`CompiledBlock.forward`."""
        return self.blocks[index].forward(x, bias, ws)

    def forward(self, tokens, ws, key_mask=None):
        """Run the whole block stack over a token sequence.

        ``tokens``: ``(B, T, D)`` (copied, the input is not mutated);
        ``key_mask``: optional ``(B, T)`` {0,1} key-padding mask.
        Selectors are NOT applied -- physically-pruned control flow
        lives in :class:`repro.engine.BucketedExecutor`; this is the
        dense stack the parity tests compare against the Tensor blocks.
        """
        x = np.array(tokens, dtype=self.dtype)
        bias = (None if key_mask is None
                else mask_to_bias(key_mask, self.dtype))
        for index in range(len(self.blocks)):
            self.run_block(index, x, bias, ws)
        return x

    def select(self, stage, patches, ws):
        """Apply selector ``stage`` to one uniform-length ``(g, N, D)``
        group; returns ``(keep, packages)``: boolean ``(g, N)`` and
        ``(g, D)``.  A reshape onto :meth:`select_ragged`: ``g`` images
        of ``N`` tokens each, concatenated."""
        g, tokens, dim = patches.shape
        keep, packages = self.selectors[stage].select_ragged(
            patches.reshape(g * tokens, dim), np.full(g, tokens), ws)
        return keep.reshape(g, tokens), packages

    def select_ragged(self, stage, flat, counts, ws):
        """Apply selector ``stage`` to ragged ``(M, D)`` patch tokens
        with per-image ``counts``; see
        :meth:`CompiledSelector.select_ragged`."""
        return self.selectors[stage].select_ragged(flat, counts, ws)

    def classify(self, x, ws):
        """Final LayerNorm + head on the CLS row: ``(B, num_classes)``.

        Only token 0 feeds the head, so the fast path norms just that
        row (LayerNorm is per-token; identical to norming the full
        sequence and slicing) -- which is also what a quantizing head
        kernel must calibrate its activation scale on: the simulation's
        ``classify`` slices before its head Linear.  Returns a fresh
        array.
        """
        batch = x.shape[0]
        cls_row = ws.take("cls_norm", (batch, x.shape[-1]))
        self.layer_norm(x[:, 0, :], self.final_norm_w, self.final_norm_b,
                        self.final_norm_eps, out=cls_row, ws=ws,
                        key="cls_ln")
        logits = np.empty((batch, self.config.num_classes), dtype=self.dtype)
        return self.head(cls_row, ws, "cls_head", out=logits, inplace=True)


def _check_backbone(model):
    """The ViT backbone of ``model`` (itself, or its ``.backbone``)."""
    backbone = getattr(model, "backbone", model)
    for attr in ("patch_embed", "blocks", "norm", "head"):
        if not hasattr(backbone, attr):
            raise CompileError(
                f"cannot compile {type(model).__name__}: expected a "
                f"VisionTransformer(-backed) model with .{attr}")
    return backbone


def _check_dtype(dtype):
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise CompileError(f"unsupported dtype {dtype}; use float32 or "
                           f"float64")
    return dtype


def _lower_block(block, dtype):
    attn = block.attn
    dim = attn.embed_dim
    # Pre-fused QKV: norm1's affine folded in, and the attention scale
    # pre-multiplied onto the query columns (features [0, D) of the qkv
    # output are Q).
    qkv_w, qkv_b = _fold_norm_affine(block.norm1, attn.qkv, dtype)
    qkv_w[:, :dim] *= dtype.type(attn.scale)
    qkv_b[:dim] *= dtype.type(attn.scale)
    fc1_w, fc1_b = _fold_norm_affine(block.norm2, block.mlp.fc1, dtype)
    return CompiledBlock(
        block, norm1=(None, None), norm2=(None, None),
        qkv=LinearKernel(qkv_w, qkv_b, dtype),
        proj=LinearKernel.from_linear(attn.proj, dtype),
        fc1=LinearKernel(fc1_w, fc1_b, dtype),
        fc2=LinearKernel.from_linear(block.mlp.fc2, dtype),
        softmax=masked_softmax,
        act=_compile_activation(block.mlp.act, dtype),
        # Every float kernel works row by row (or image by image), so
        # a chunk of images computes what the whole batch would.
        image_separable=True)


def _is_stock_selector(selector):
    """Whether ``selector`` lowers to a :class:`CompiledSelector`, in
    either compile function: only when it, its classifier and its
    attention branch are exactly :class:`repro.core.TokenSelector`,
    :class:`repro.core.MultiHeadTokenClassifier` and
    :class:`repro.core.AttentionBranch` -- the arithmetic the kernel
    pipeline reproduces.  A subclass may override any part of it (the
    Fig. 12 ablations do), so every other selector is served through its
    module (:class:`ModuleSelector`)."""
    from repro.core.selector import (AttentionBranch,
                                     MultiHeadTokenClassifier,
                                     TokenSelector)

    return (type(selector) is TokenSelector
            and type(selector.classifier) is MultiHeadTokenClassifier
            and type(selector.attention_branch) is AttentionBranch)


def _lower_selector(selector, dtype):
    if not _is_stock_selector(selector):
        return ModuleSelector(copy.deepcopy(selector).eval(), dtype)

    def lower(sequential):
        return _compile_mlp(
            sequential, dtype,
            lambda linear, name: LinearKernel.from_linear(linear, dtype))

    return CompiledSelector(selector, dtype,
                            lower(selector.attention_branch.mlp),
                            lower(selector.classifier.feature_mlp),
                            lower(selector.classifier.classifier_mlp))


def compile_model(model, dtype=None):
    """Compile a ``VisionTransformer`` or ``HeatViT`` for the fast path.

    Parameters
    ----------
    model: the model to lower.  Weights are **copied** at compile time;
        recompile after mutating parameters (e.g. loading a checkpoint).
        Keep-ratio retuning needs no recompile (ratios only steer
        training-time losses; eval decisions come from the weights).
    dtype: ``numpy.float32`` (default: half the memory traffic,
        ~1e-6-level logits vs the reference, GELU through the
        rational-erf kernel) or ``numpy.float64`` (reference-equivalent
        to well under 1e-8, exact-erf GELU).
    """
    dtype = _check_dtype(np.float32 if dtype is None else dtype)
    backbone = _check_backbone(model)
    blocks = [_lower_block(block, dtype) for block in backbone.blocks]
    selectors = [_lower_selector(s, dtype)
                 for s in getattr(model, "selectors", [])]
    embed_weights = (
        LinearKernel.from_linear(backbone.patch_embed.projection, dtype),
        _contig(backbone.cls_token.data[0, 0], dtype),
        _contig(backbone.pos_embed.data, dtype),
    )
    # Final LayerNorm affine folded into the head GEMM.
    head_w, head_b = _fold_norm_affine(backbone.norm, backbone.head, dtype)
    head_weights = (None, None, backbone.norm.eps,
                    LinearKernel(head_w, head_b, dtype))
    return CompiledModel(backbone.config, dtype, blocks, selectors,
                         embed_weights, head_weights)
