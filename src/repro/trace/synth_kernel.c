/*
 * Trace-synthesis kernel: TraceBuilder._iter_reference's chunk loop in C,
 * drawing through numpy's own distribution functions (libnpyrandom.a) on
 * the caller's bitgen_t, one call here per Generator call there.  The
 * chunk schedule is drawn by repro/trace/synth.py, whose _Ctx mirrors
 * synth_ctx and whose _rows fills the B_ and F_ columns below.
 */
#include <stdint.h>
#include <string.h>

#include "numpy/random/distributions.h"

enum { PAT_SEQ = 0, PAT_STRIDED = 1, PAT_RAND = 2, PAT_HOTSPOT = 3 };
enum { DEP_NONE = 0, DEP_ALL = 1, DEP_DRAW = 2 };

/* Columns of the per-behaviour tables, in synth.py's row order. */
enum {
    B_PATTERN,    /* PAT_* */
    B_BASE,       /* virtual base of the object */
    B_OBJ,        /* object id */
    B_STEP,       /* access bytes (seq) or stride (strided) */
    B_SPAN,       /* wrap period of the seq/strided scan */
    B_LAST,       /* last offset a full access fits at: the strided
                     clamp, and L - 1 of integers(0, L) (rand, cold) */
    B_HOT_RANGE,  /* hotspot hot region: L - 1 */
    B_DEP,        /* DEP_* */
    B_CURSOR,     /* seq/strided scan position, carried between calls */
    B_INTS
};
enum { F_HOT_WEIGHT, F_WRITE_FRAC, F_DEP_PROB, F_GAP_P, B_FLOATS };

typedef struct {
    int64_t *beh;             /* n_behaviours rows of B_INTS */
    const double *behf;       /* n_behaviours rows of B_FLOATS */
    const int64_t *chunk_obj; /* the chunk schedule */
    const int64_t *chunk_len; /* burst length before the end clip */
    int64_t n_chunks;
    int64_t ci;               /* next chunk, carried */
    int64_t total;            /* accesses emitted so far, carried */
    int64_t n_accesses;
    int64_t access_bytes;
    double *dbuf;             /* one burst of doubles */
    uint64_t *ubuf;           /* one burst of integers */
    uint8_t *hot;             /* one burst of hot/cold flags */
} synth_ctx;

int64_t synth_abi(void) { return (int64_t)sizeof(synth_ctx); }

static void burst_offsets(synth_ctx *c, bitgen_t *bg, int64_t *beh,
                          const double *behf, int64_t n, int64_t *out)
{
    const int64_t ab = c->access_bytes;
    switch (beh[B_PATTERN]) {
    case PAT_SEQ:
    case PAT_STRIDED: {
        /* (start + k*step) % span, one wrap per step since step <= span */
        const int64_t step = beh[B_STEP], span = beh[B_SPAN];
        const int64_t clamp = beh[B_LAST];
        const int strided = beh[B_PATTERN] == PAT_STRIDED;
        int64_t off = beh[B_CURSOR];
        for (int64_t k = 0; k < n; k++) {
            out[k] = strided ? (off < clamp ? off : clamp) / ab * ab : off;
            off += step;
            if (off >= span)
                off -= span;
        }
        beh[B_CURSOR] = off;
        return;
    }
    case PAT_RAND:  /* rng.integers(0, L, n) */
        random_bounded_uint64_fill(bg, 0, (uint64_t)beh[B_LAST], n, false,
                                   c->ubuf);
        for (int64_t k = 0; k < n; k++)
            out[k] = (int64_t)c->ubuf[k] / ab * ab;
        return;
    default: {      /* hotspot */
        /* in_hot = rng.random(n) < hot_weight */
        random_standard_uniform_fill(bg, n, c->dbuf);
        int64_t n_hot = 0;
        for (int64_t k = 0; k < n; k++) {
            c->hot[k] = c->dbuf[k] < behf[F_HOT_WEIGHT];
            n_hot += c->hot[k];
        }
        /* offsets[in_hot] = integers(0, Lh, n_hot), then the cold ones */
        for (int pass = 1; pass >= 0; pass--) {
            int64_t m = pass ? n_hot : n - n_hot;
            if (!m)
                continue;
            random_bounded_uint64_fill(
                bg, 0, (uint64_t)beh[pass ? B_HOT_RANGE : B_LAST], m, false,
                c->ubuf);
            for (int64_t k = 0, j = 0; k < n; k++)
                if (c->hot[k] == pass)
                    out[k] = (int64_t)c->ubuf[j++] / ab * ab;
        }
        return;
    }
    }
}

/*
 * Emit whole bursts into the output columns until at least `window`
 * rows are written, the trace is complete, or the schedule runs out
 * (synth.py then draws the next one).  The columns must hold
 * `window` rows plus one burst.  Returns the rows written.
 */
int64_t synth_fill(synth_ctx *c, bitgen_t *bg, int64_t window,
                   int64_t *vaddr, uint8_t *is_write, uint8_t *dep,
                   int32_t *obj_id, int64_t *gaps)
{
    int64_t rows = 0;
    while (rows < window && c->total < c->n_accesses
           && c->ci < c->n_chunks) {
        int64_t *beh = c->beh + c->chunk_obj[c->ci] * B_INTS;
        const double *behf = c->behf + c->chunk_obj[c->ci] * B_FLOATS;
        int64_t n = c->chunk_len[c->ci];
        if (n > c->n_accesses - c->total)
            n = c->n_accesses - c->total;
        c->ci++;

        int64_t *va = vaddr + rows;
        burst_offsets(c, bg, beh, behf, n, va);
        for (int64_t k = 0; k < n; k++)  /* numpy's wrapping int64 add */
            va[k] = (int64_t)((uint64_t)beh[B_BASE] + (uint64_t)va[k]);

        random_standard_uniform_fill(bg, n, c->dbuf);
        for (int64_t k = 0; k < n; k++)
            is_write[rows + k] = c->dbuf[k] < behf[F_WRITE_FRAC];

        if (beh[B_DEP] == DEP_DRAW) {
            random_standard_uniform_fill(bg, n, c->dbuf);
            for (int64_t k = 0; k < n; k++)
                dep[rows + k] = c->dbuf[k] < behf[F_DEP_PROB];
        } else {
            memset(dep + rows, beh[B_DEP] == DEP_ALL, (size_t)n);
        }

        for (int64_t k = 0; k < n; k++) {
            obj_id[rows + k] = (int32_t)beh[B_OBJ];
            gaps[rows + k] = random_geometric(bg, behf[F_GAP_P]);
        }
        rows += n;
        c->total += n;
    }
    return rows;
}
