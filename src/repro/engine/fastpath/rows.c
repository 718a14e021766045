/* Float32 row kernels: the masked attention softmax and LayerNorm.
 *
 * The native twins of kernels.masked_softmax and kernels.fused_layer_norm
 * (without its affine, which every float32 compile folds into the next
 * GEMM).  numpy makes 6-8 passes over the whole array; these make one
 * sweep per row, over a copy of the row in a stack buffer:
 *
 *   softmax    s = x + bias; m = max(s); e = exp(s - m); x = e / sum(e)
 *   LayerNorm  c = x - mean(x); out = c / sqrt(mean(c^2) + eps)
 *
 * The arithmetic is written out on 16-float GCC vectors (gcc splits them
 * to the host's width), so nothing depends on what the autovectoriser
 * makes of a loop.  A row is copied into whole vectors and padded so the
 * pad cannot change the result (a -1e30 score; a centred value masked to
 * zero); the sums accumulate lane-wise and reduce in a fixed tree.
 * GROUP rows run interleaved -- four independent dependency chains --
 * and a short last group repeats its last row, so every row goes through
 * the same instructions.  A row's bits therefore depend only on that row
 * (and its bias row): not on its address, its neighbours or how many
 * rows share the call.  The engine hands the same image to these kernels
 * in different chunks and batches.
 *
 * Built with -O3 -march=native and without -ffast-math: its
 * reassociation would fold the exp's range reduction and rounding trick
 * away.  gcc's default contraction of a * b + c into one FMA stays.
 *
 * exp is inline, not libm's expf (libmvec's costs ~0.65 ns an element
 * on a 2-vCPU AVX-512 Xeon, as much as np.exp): a Cody-Waite reduction
 * s - m = n ln2 + r with |r| <= ln2/2, then a degree-6 polynomial
 * 1 + r + r^2 P(r) fitted for relative error (3e-9 before float32
 * rounding), scaled by 2^n through the exponent bits.  Below -87, where
 * exp nears float32's smallest normal, the weight is an exact 0 -- so
 * every key at the -1e9 mask bias gets exactly 0.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define LANES 16
#define GROUP 4

typedef float vfloat __attribute__((vector_size(4 * LANES)));
typedef int32_t vint __attribute__((vector_size(4 * LANES)));

#define PAD_SCORE -1e30f
#define EXP_FLOOR -87.0f
#define ROUNDER 0x1.8p23f           /* x + ROUNDER - ROUNDER rounds x */
#define LOG2E 1.44269504f
#define LN2_HI 0.693359375f         /* n * LN2_HI is exact for |n| < 2^15 */
#define LN2_LO -2.12194440e-4f

static inline vfloat vmax(vfloat a, vfloat b)
{
    vint gt = a > b;
    return (vfloat)((gt & (vint)a) | (~gt & (vint)b));
}

#define HALVES(v) \
    __builtin_shuffle(v, (vint){8, 9, 10, 11, 12, 13, 14, 15, \
                                0, 1, 2, 3, 4, 5, 6, 7})
#define QUARTERS(v) \
    __builtin_shuffle(v, (vint){4, 5, 6, 7, 0, 1, 2, 3, \
                                12, 13, 14, 15, 8, 9, 10, 11})
#define PAIRS(v) \
    __builtin_shuffle(v, (vint){2, 3, 0, 1, 6, 7, 4, 5, \
                                10, 11, 8, 9, 14, 15, 12, 13})
#define NEIGHBOURS(v) \
    __builtin_shuffle(v, (vint){1, 0, 3, 2, 5, 4, 7, 6, \
                                9, 8, 11, 10, 13, 12, 15, 14})

static inline float hmax(vfloat v)
{
    v = vmax(v, HALVES(v));
    v = vmax(v, QUARTERS(v));
    v = vmax(v, PAIRS(v));
    v = vmax(v, NEIGHBOURS(v));
    return v[0];
}

static inline float hsum(vfloat v)
{
    v += HALVES(v);
    v += QUARTERS(v);
    v += PAIRS(v);
    v += NEIGHBOURS(v);
    return v[0];
}

/* exp(x) for x <= 0; exactly 0 below EXP_FLOOR. */
static inline vfloat vexp_nonpositive(vfloat x)
{
    vfloat xc = vmax(x, (vfloat){} + EXP_FLOOR);
    vfloat t = xc * LOG2E + ROUNDER;        /* n in the low mantissa bits */
    vfloat n = t - ROUNDER;
    vfloat r = xc - n * LN2_HI;
    r = r - n * LN2_LO;
    vfloat p = r * 1.38146128e-3f + 8.36871006e-3f;
    p = p * r + 4.16683890e-2f;
    p = p * r + 1.66665211e-1f;
    p = p * r + 4.99999940e-1f;
    p = p * (r * r) + r + 1.0f;
    vint scale = ((vint)t + 127) << 23;      /* 2^n: ROUNDER's bits shift out */
    scale &= x >= EXP_FLOOR;
    return p * (vfloat)scale;
}

/* The row at index `take - 1` stands in for the missing rows of a short
 * last group. */
static inline size_t group_row(size_t r0, size_t g, size_t take)
{
    return r0 + (g < take ? g : take - 1);
}

static void softmax_group(size_t nb, vfloat buf[GROUP][nb],
                          float inv[GROUP])
{
    vfloat peak[GROUP], acc[GROUP];
    float m[GROUP];
    for (int g = 0; g < GROUP; ++g)
        peak[g] = buf[g][0];
    for (size_t k = 1; k < nb; ++k)
        for (int g = 0; g < GROUP; ++g)
            peak[g] = vmax(peak[g], buf[g][k]);
    for (int g = 0; g < GROUP; ++g) {
        m[g] = hmax(peak[g]);
        acc[g] = (vfloat){};
    }
    for (size_t k = 0; k < nb; ++k)
        for (int g = 0; g < GROUP; ++g) {
            vfloat e = vexp_nonpositive(buf[g][k] - m[g]);
            buf[g][k] = e;
            acc[g] += e;
        }
    for (int g = 0; g < GROUP; ++g)
        inv[g] = 1.0f / hsum(acc[g]);
}

/* Softmax in place over each of `rows` contiguous rows of `t` floats.
 * `bias` is NULL or one row of `t` floats per `rows_per_bias` rows: the
 * (B, T) key bias broadcast over heads and queries. */
void softmax_rows_f32(float *x, size_t rows, size_t t, const float *bias,
                      size_t rows_per_bias)
{
    if (rows == 0 || t == 0)
        return;
    size_t nb = (t + LANES - 1) / LANES;
    vfloat buf[GROUP][nb];
    float inv[GROUP];
    for (size_t r0 = 0; r0 < rows; r0 += GROUP) {
        size_t take = rows - r0 < GROUP ? rows - r0 : GROUP;
        for (size_t g = 0; g < GROUP; ++g) {
            size_t r = group_row(r0, g, take);
            const float *row = x + r * t;
            float *flat = (float *)buf[g];
            if (bias) {
                const float *b = bias + r / rows_per_bias * t;
                for (size_t j = 0; j < t; ++j)
                    flat[j] = row[j] + b[j];
            } else {
                for (size_t j = 0; j < t; ++j)
                    flat[j] = row[j];
            }
            for (size_t j = t; j < nb * LANES; ++j)
                flat[j] = PAD_SCORE;
        }
        softmax_group(nb, buf, inv);
        for (size_t g = 0; g < take; ++g) {
            float *row = x + (r0 + g) * t;
            const float *flat = (const float *)buf[g];
            for (size_t j = 0; j < t; ++j)
                row[j] = flat[j] * inv[g];
        }
    }
}

static void layer_norm_group(size_t nb, size_t d, vfloat buf[GROUP][nb],
                             vint live, float eps, float inv[GROUP])
{
    vfloat acc[GROUP], sq[GROUP];
    float mean[GROUP];
    for (int g = 0; g < GROUP; ++g)
        acc[g] = sq[g] = (vfloat){};
    for (size_t k = 0; k < nb; ++k)
        for (int g = 0; g < GROUP; ++g)
            acc[g] += buf[g][k];
    for (int g = 0; g < GROUP; ++g)
        mean[g] = hsum(acc[g]) / (float)d;
    for (size_t k = 0; k < nb; ++k)
        for (int g = 0; g < GROUP; ++g) {
            vfloat c = buf[g][k] - mean[g];
            if (k == nb - 1)
                c = (vfloat)((vint)c & live);
            buf[g][k] = c;
            sq[g] += c * c;
        }
    for (int g = 0; g < GROUP; ++g)
        inv[g] = 1.0f / sqrtf(hsum(sq[g]) / (float)d + eps);
}

/* LayerNorm without affine over `rows` rows of `d` floats: row r read
 * from x + r * stride, written to the contiguous out + r * d. */
void layer_norm_rows_f32(const float *x, size_t rows, size_t d,
                         size_t stride, float *out, float eps)
{
    if (rows == 0 || d == 0)
        return;
    size_t nb = (d + LANES - 1) / LANES;
    vfloat buf[GROUP][nb];
    float inv[GROUP];
    vint live;                  /* lanes of the last vector inside the row */
    for (int i = 0; i < LANES; ++i)
        live[i] = (nb - 1) * LANES + i < d ? -1 : 0;
    for (size_t r0 = 0; r0 < rows; r0 += GROUP) {
        size_t take = rows - r0 < GROUP ? rows - r0 : GROUP;
        for (size_t g = 0; g < GROUP; ++g) {
            const float *row = x + group_row(r0, g, take) * stride;
            float *flat = (float *)buf[g];
            for (size_t j = 0; j < d; ++j)
                flat[j] = row[j];
            for (size_t j = d; j < nb * LANES; ++j)
                flat[j] = 0.0f;
        }
        layer_norm_group(nb, d, buf, live, eps, inv);
        for (size_t g = 0; g < take; ++g) {
            float *row = out + (r0 + g) * d;
            const float *flat = (const float *)buf[g];
            for (size_t j = 0; j < d; ++j)
                row[j] = flat[j] * inv[g];
        }
    }
}
