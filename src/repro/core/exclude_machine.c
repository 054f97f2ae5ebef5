/* Replay machines for the EJ/VEJ/IJ/HJ replay kernels.
 *
 * Compiled on first use by repro.core._cmachine and driven through
 * ctypes from repro.core.vector_replay; the Python walks there
 * (_stack_walk, _vector_walk, _include_walk) are line-by-line
 * transliterations of these three functions and the fallback when no
 * compiler is available.
 *
 * Exclude structures: each set is a fixed `ways`-wide row of int64
 * plus an int32 fill count, in flat arrays indexed by set.  An EJ row
 * holds the set's valid blocks MRU-first; a VEJ row holds its valid
 * chunks LRU-first, with the chunks' presence vectors in a parallel
 * uint64 row.  That is the whole observable state of a set: way
 * placement is never reported.
 *
 * An exclude walk consumes one span's items in stream order: block
 * `b[i]`, `code[i]` (0 = P0 snoop, 1 = P1 snoop, 2 = alloc) and the IJ
 * verdict `ok[i]` (NULL when every snoop passes).  It returns the index
 * of the first item that violates the JETTY safety guarantee, or -1,
 * and stores in `out` the entry writes and filtered snoops counted
 * strictly before that item.
 *
 * The IJ lanes are `n_arrays` int32 counter rows of `mask + 1` entries,
 * lane j indexed by block bits [j*skip, j*skip + entry_bits).  The
 * include walk consumes a span's packed events themselves.
 */

#include <stdint.h>

int64_t ej_walk(int64_t *rows, int32_t *fill, int64_t ways,
                int64_t set_mask, const int64_t *b, const int64_t *code,
                const uint8_t *ok, int64_t n, int64_t *out)
{
    int64_t entry_writes = 0, filtered = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t blk = b[i];
        int64_t *row = rows + (blk & set_mask) * ways;
        int32_t *len = fill + (blk & set_mask);
        int passed = ok == 0 || ok[i];
        int32_t at = 0;
        while (at < *len && row[at] != blk)
            at++;
        int hit = at < *len;
        if (code[i] == 0) {            /* P0 snoop */
            if (hit) {                 /* EJ hit filters, IJ moot */
                for (; at > 0; at--)
                    row[at] = row[at - 1];
                row[0] = blk;
                filtered++;
            } else if (passed) {       /* both passed: allocate at MRU */
                if (*len < ways)
                    (*len)++;
                for (at = *len - 1; at > 0; at--)
                    row[at] = row[at - 1];
                row[0] = blk;
                entry_writes++;
            } else {                   /* IJ filtered; EJ learns nothing */
                filtered++;
            }
        } else if (code[i] == 2) {     /* alloc: drop the entry */
            if (hit) {
                for ((*len)--; at < *len; at++)
                    row[at] = row[at + 1];
                entry_writes++;
            }
        } else if (hit || !passed) {   /* P1 snoop filtered: violation */
            out[0] = entry_writes;
            out[1] = filtered;
            return i;
        }
    }
    out[0] = entry_writes;
    out[1] = filtered;
    return -1;
}

/* Move entry `at` of a VEJ row to the MRU end, keeping its vector. */
static void vej_touch(int64_t *row, uint64_t *vec, int32_t len, int32_t at)
{
    int64_t chunk = row[at];
    uint64_t vector = vec[at];
    for (; at < len - 1; at++) {
        row[at] = row[at + 1];
        vec[at] = vec[at + 1];
    }
    row[at] = chunk;
    vec[at] = vector;
}

/* Remove entry `at` of a VEJ row, closing the gap. */
static void vej_drop(int64_t *row, uint64_t *vec, int32_t *len, int32_t at)
{
    for ((*len)--; at < *len; at++) {
        row[at] = row[at + 1];
        vec[at] = vec[at + 1];
    }
}

int64_t vej_walk(int64_t *rows, uint64_t *vecs, int32_t *fill,
                 int64_t ways, int64_t set_mask, int64_t vshift,
                 int64_t vmask, const int64_t *b, const int64_t *code,
                 const uint8_t *ok, int64_t n, int64_t *out)
{
    int64_t entry_writes = 0, filtered = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t chunk = b[i] >> vshift;
        uint64_t bit = (uint64_t)1 << (b[i] & vmask);
        int64_t *row = rows + (chunk & set_mask) * ways;
        uint64_t *vec = vecs + (chunk & set_mask) * ways;
        int32_t *len = fill + (chunk & set_mask);
        int passed = ok == 0 || ok[i];
        int32_t at = 0;
        while (at < *len && row[at] != chunk)
            at++;
        int hit = at < *len;
        if (code[i] == 0) {            /* P0 snoop */
            if (hit) {                 /* chunk hit: the probe touches LRU */
                vej_touch(row, vec, *len, at);
                if (vec[*len - 1] & bit) {
                    filtered++;
                } else if (passed) {
                    vec[*len - 1] |= bit;
                    entry_writes++;
                } else {               /* IJ filtered; the touch stays */
                    filtered++;
                }
            } else if (passed) {       /* chunk miss: allocate at MRU */
                if (*len == ways)
                    vej_drop(row, vec, len, 0);
                row[*len] = chunk;
                vec[*len] = bit;
                (*len)++;
                entry_writes++;
            } else {
                filtered++;
            }
        } else if (code[i] == 2) {     /* alloc: clear the PV bit in place */
            if (hit) {
                vec[at] &= ~bit;
                if (vec[at] == 0)
                    vej_drop(row, vec, len, at);
                entry_writes++;
            }
        } else {                       /* P1 snoop */
            if (hit)
                vej_touch(row, vec, *len, at);
            if ((hit && (vec[*len - 1] & bit)) || !passed) {
                out[0] = entry_writes;
                out[1] = filtered;
                return i;
            }
        }
    }
    out[0] = entry_writes;
    out[1] = filtered;
    return -1;
}

/* Walk one span's packed events in stream order over the IJ lanes,
 * updating the counters in place and writing each snoop's verdict to
 * `ok` (1 elsewhere; skipped when NULL).  Returns the index of the
 * first underflowing EVICT or lane-filtered P1 snoop, or -1, with the
 * filtered snoops and presence-bit transitions before it in `out`. */
int64_t ij_walk(int32_t *counters, int64_t n_arrays, int64_t skip,
                int64_t mask, const int64_t *e, int64_t n, uint8_t *ok,
                int64_t *out)
{
    int64_t filtered = 0, pbit_writes = 0, i;
    for (i = 0; i < n; i++) {
        int64_t kind = e[i] & 3, blk = e[i] >> 4;
        int passed = 1, error = 0;
        for (int64_t j = 0; j < n_arrays && passed && !error; j++) {
            /* Index fields past bit 63 read as zero, as in Python. */
            int64_t shift = j * skip;
            int32_t *c = counters + j * (mask + 1)
                         + (shift < 64 ? (blk >> shift) & mask : 0);
            if (kind == 0)             /* snoop: presence bit set? */
                passed = *c != 0;
            else if (kind == 1)        /* alloc: one increment per lane */
                pbit_writes += (*c)++ == 0;
            else if (*c == 0)          /* evict: underflow */
                error = 1;
            else                       /* evict: one decrement per lane */
                pbit_writes += --(*c) == 0;
        }
        if (!passed && (e[i] & 8))     /* P1 snoop filtered: violation */
            error = 1;
        else if (!passed)
            filtered++;
        if (ok)
            ok[i] = passed;
        if (error)
            break;
    }
    out[0] = filtered;
    out[1] = pbit_writes;
    return i < n ? i : -1;
}
