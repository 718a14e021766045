/* The int8 float32 hidden layer's elementwise work, as two passes.
 *
 * The native twin of what QuantizedLinearKernel.gemm (fc1's rescale and
 * bias), qkernels.approx_gelu_fast (Eq. 12) and qkernels.quantize_fast
 * (fc2's input quantisation) do in numpy passes:
 *
 *   qmlp_tile      per element of an fc1 tile, in place:
 *                      y    = x * s            (s per channel or scalar)
 *                      y    = y + b            (if there is a bias)
 *                      mag  = |y|
 *                      p    = min(mag, c[0]) + c[1]
 *                      p    = (p * p) * c[2] + c[3]
 *                      y    = y * 0.5 + p * mag
 *                  and keeps a running abs-max of the results and
 *                  whether any was NaN, in stats[0] / stats[1];
 *   qmlp_quantize  q = rint(x * inv) over the whole hidden layer.
 *
 * with c = the Eq. 12 constants handed over by the caller, so they have
 * one definition (qkernels.py).  Each line above is one IEEE float32
 * rounding in numpy's order, so the results are the numpy passes' bits.
 * That holds only while nothing fuses or reorders them: this file is
 * built with -ffp-contract=off and without -ffast-math (native.py).  A
 * multiply-add contracted into an FMA skips a rounding and moves bits.
 * With every op correctly rounded, a vector body and a scalar tail
 * agree, so an element's bits do not depend on its offset.
 */
#include <math.h>
#include <stddef.h>

/* Per-lane running maxima: independent lanes vectorise where one
 * scalar reduction would not (without -ffast-math). */
#define LANES 16

static inline __attribute__((always_inline)) float
eq12(float y, const float *restrict c)
{
    float mag = fabsf(y);
    float p = mag > c[0] ? c[0] : mag;        /* np.minimum keeps a NaN */
    p = p + c[1];
    p = p * p;
    p = p * c[2];
    p = p + c[3];
    p = p * mag;
    y = y * 0.5f;
    return y + p;
}

static inline __attribute__((always_inline)) void
tile(float *restrict x, size_t rows, size_t cols, const float *restrict s,
     int per_channel, const float *restrict b, const float *restrict c,
     float *restrict stats)
{
    float peak[LANES] = {0};
    int nan[LANES] = {0};
    for (size_t r = 0; r < rows; ++r) {
        float *restrict row = x + r * cols;
        size_t j = 0;
        for (; j + LANES <= cols; j += LANES) {
            for (int k = 0; k < LANES; ++k) {
                float y = row[j + k] * (per_channel ? s[j + k] : s[0]);
                if (b)
                    y = y + b[j + k];
                y = eq12(y, c);
                row[j + k] = y;
                float a = fabsf(y);
                peak[k] = a > peak[k] ? a : peak[k];
                nan[k] |= y != y;
            }
        }
        for (; j < cols; ++j) {
            float y = row[j] * (per_channel ? s[j] : s[0]);
            if (b)
                y = y + b[j];
            y = eq12(y, c);
            row[j] = y;
            float a = fabsf(y);
            peak[0] = a > peak[0] ? a : peak[0];
            nan[0] |= y != y;
        }
    }
    for (int k = 0; k < LANES; ++k) {
        stats[0] = peak[k] > stats[0] ? peak[k] : stats[0];
        if (nan[k])
            stats[1] = 1.0f;
    }
}

/* One specialisation per (per_channel, bias) pair, so the branches
 * fold away and each inner loop vectorises on its own. */
void qmlp_tile(float *x, size_t rows, size_t cols, const float *s,
               int per_channel, const float *b, const float *c,
               float *stats)
{
    if (per_channel && b)
        tile(x, rows, cols, s, 1, b, c, stats);
    else if (per_channel)
        tile(x, rows, cols, s, 1, NULL, c, stats);
    else if (b)
        tile(x, rows, cols, s, 0, b, c, stats);
    else
        tile(x, rows, cols, s, 0, NULL, c, stats);
}

void qmlp_quantize(const float *x, float *q, size_t n, float inv)
{
    for (size_t i = 0; i < n; ++i)
        q[i] = rintf(x[i] * inv);
}
