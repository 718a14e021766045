/* One float32 transformer block over one chunk of packed images.
 *
 * The native twin of CompiledBlock._run_packed, in its order:
 *
 *   normed = LN1(x); qkv = normed W_qkv + b_qkv
 *   merged = attention core(qkv); x += merged W_proj + b_proj
 *   normed = LN2(x); hidden = GELU(normed W_fc1 + b_fc1)
 *   x += hidden W_fc2 + b_fc2
 *
 * The LayerNorm, attention core and GELU are rows.c's and gelu.c's own
 * loops.  The four GEMMs go to the sgemm numpy itself calls for a 2-D
 * float32 matmul: a pointer to numpy's bundled OpenBLAS's ILP64
 * cblas_sgemm, found at load time (native.find_sgemm), never linked.
 * Each call is numpy's (RowMajor, NoTrans, NoTrans, M, N, K, 1, A, K,
 * W, N, 0, C, N), so the chunk's bits are the numpy glue's.  numpy runs
 * a one-row product as a GEMV instead, so a chunk of one row stays with
 * the numpy glue.
 *
 * Built with -ffp-contract=off and no -ffast-math: every bias and
 * residual add is its own IEEE rounding, as in numpy.  The C side
 * touches no Python object, so the caller releases the GIL around it.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

void layer_norm_rows_f32(const float *x, size_t rows, size_t d,
                         size_t stride, float *out, float eps);
int ragged_attention_f32(const float *qkv, const int64_t *offsets, size_t n,
                         size_t rows, size_t heads, size_t d, float *out);
void gelu_rational_f32(float *x, size_t n, const float *c);

typedef void (*sgemm_fn)(int order, int trans_a, int trans_b, int64_t m,
                         int64_t n, int64_t k, float alpha, const float *a,
                         int64_t lda, const float *b, int64_t ldb,
                         float beta, float *c, int64_t ldc);

#define ROW_MAJOR 101
#define NO_TRANS 111
#define ALIGN 16                    /* floats: each scratch part on 64 B */

/* One block's weights and sizes, filled once by native.NativeBlock.
 * A NULL bias is none. */
struct block_f32 {
    sgemm_fn sgemm;
    const float *qkv_w, *qkv_b, *proj_w, *proj_b;
    const float *fc1_w, *fc1_b, *fc2_w, *fc2_b;
    const float *gelu;              /* gelu_rational_f32's coefficients */
    int64_t dim, hidden, heads;
    float eps1, eps2;
};

static size_t aligned(size_t floats)
{
    return (floats + ALIGN - 1) / ALIGN * ALIGN;
}

/* Floats of scratch block_f32 needs for a chunk of `rows` rows. */
size_t block_f32_scratch(const struct block_f32 *p, size_t rows)
{
    size_t dim = (size_t)p->dim;
    return 3 * aligned(rows * dim) + aligned(rows * 3 * dim)
           + aligned(rows * (size_t)p->hidden);
}

/* c = a w (+ b): a is m x k, w is k x n, c is m x n, all row-major. */
static void linear(const struct block_f32 *p, size_t m, size_t n, size_t k,
                   const float *a, const float *w, const float *b, float *c)
{
    p->sgemm(ROW_MAJOR, NO_TRANS, NO_TRANS, (int64_t)m, (int64_t)n,
             (int64_t)k, 1.0f, a, (int64_t)k, w, (int64_t)n, 0.0f, c,
             (int64_t)n);
    if (b)
        for (size_t r = 0; r < m; ++r) {
            float *row = c + r * n;
            for (size_t j = 0; j < n; ++j)
                row[j] += b[j];
        }
}

static void add(float *x, const float *y, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        x[i] += y[i];
}

/* The block, in place on the rows of images 0 .. n - 1 of a packed
 * array: `x` is the array's first row and image i owns rows offsets[i]
 * .. offsets[i + 1] (offsets into the whole array, so the chunk starts
 * at row offsets[0]).  `scratch` holds block_f32_scratch(p, rows)
 * floats.  Returns 0, -1 when the offsets are out of order (before
 * touching x), or -2 when scratch cannot be allocated. */
int block_f32(const struct block_f32 *p, float *x, const int64_t *offsets,
              size_t n, float *scratch)
{
    size_t dim = (size_t)p->dim, hidden = (size_t)p->hidden;
    for (size_t i = 0; i < n; ++i)
        if (offsets[i + 1] < offsets[i])
            return -1;
    size_t rows = (size_t)(offsets[n] - offsets[0]);
    int64_t *local = malloc((n + 1) * sizeof *local);
    if (!local)
        return -2;
    for (size_t i = 0; i <= n; ++i)
        local[i] = offsets[i] - offsets[0];
    x += (size_t)offsets[0] * dim;
    float *normed = scratch;
    float *qkv = normed + aligned(rows * dim);
    float *merged = qkv + aligned(rows * 3 * dim);
    float *out = merged + aligned(rows * dim);
    float *act = out + aligned(rows * dim);

    layer_norm_rows_f32(x, rows, dim, dim, normed, p->eps1);
    linear(p, rows, 3 * dim, dim, normed, p->qkv_w, p->qkv_b, qkv);
    int status = ragged_attention_f32(qkv, local, n, rows,
                                      (size_t)p->heads,
                                      dim / (size_t)p->heads, merged);
    free(local);
    if (status)
        return status;
    linear(p, rows, dim, dim, merged, p->proj_w, p->proj_b, out);
    add(x, out, rows * dim);                            /* residual 1 */
    layer_norm_rows_f32(x, rows, dim, dim, normed, p->eps2);
    linear(p, rows, hidden, dim, normed, p->fc1_w, p->fc1_b, act);
    gelu_rational_f32(act, rows * hidden, p->gelu);
    linear(p, rows, dim, hidden, act, p->fc2_w, p->fc2_b, out);
    add(x, out, rows * dim);                            /* residual 2 */
    return 0;
}
