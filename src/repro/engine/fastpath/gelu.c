/* Float32 GELU via the Abramowitz-Stegun 7.1.26 rational erf, in place.
 *
 * The native twin of kernels.gelu_rational: per element
 *
 *     t    = 1 / (|x| + c[0])
 *     P/2  = ((((c[1] t + c[2]) t + c[3]) t + c[4]) t + c[5]) t
 *     gelu = max(x, 0) - |x| P/2 exp(-x^2 / 2)
 *
 * with c = (_ERF_C, *_ERF_A) handed over by the caller, so the
 * coefficients have one definition (kernels.py).
 *
 * Built with -O3 -ffast-math -march=native: -ffast-math is what lets
 * gcc vectorise expf through libmvec.  It also lets the vector body and
 * a scalar peel or tail round differently, so a plain loop would give
 * an element different bits at a different offset -- and the engine
 * hands the same image to this kernel at different offsets (chunks,
 * tiles, pooled shards).  Every element therefore goes through one
 * out-of-line block function over an aligned 16-float buffer: a fixed
 * trip count that every SSE/AVX/AVX-512 width divides, so there is no
 * peel and no tail, and the last partial block is zero-padded.
 */
#include <math.h>
#include <stddef.h>
#include <string.h>

#define BLOCK 16

typedef float block_t[BLOCK] __attribute__((aligned(64)));

static void __attribute__((noinline))
gelu_block(block_t v, const float *restrict c)
{
    float *restrict b = __builtin_assume_aligned(v, 64);
    for (int i = 0; i < BLOCK; ++i) {
        float x = b[i];
        float mag = fabsf(x);
        float t = 1.0f / (mag + c[0]);
        float poly = t * c[1];
        poly = (poly + c[2]) * t;
        poly = (poly + c[3]) * t;
        poly = (poly + c[4]) * t;
        poly = (poly + c[5]) * t;
        poly *= expf(x * x * -0.5f);
        b[i] = fmaxf(x, 0.0f) - poly * mag;
    }
}

void gelu_rational_f32(float *x, size_t n, const float *c)
{
    block_t buf;
    size_t i = 0;
    for (; i + BLOCK <= n; i += BLOCK) {
        memcpy(buf, x + i, sizeof buf);
        gelu_block(buf, c);
        memcpy(x + i, buf, sizeof buf);
    }
    if (i < n) {
        memset(buf, 0, sizeof buf);
        memcpy(buf, x + i, (n - i) * sizeof *x);
        gelu_block(buf, c);
        memcpy(x + i, buf, (n - i) * sizeof *x);
    }
}
