/* The native core: the EJ/VEJ/IJ/HJ replay walk, the delta-v1
 * trace-segment codec, the access generator and the coherence core.
 *
 * Compiled on first use by repro.core._cmachine and driven through
 * ctypes from repro.core.vector_replay (the walk: one call walks a
 * *round* of jobs, each one span of one node's events -- a trace
 * segment, or a live chunk's shard -- through every compiled filter of
 * every bank fed them, stepping each distinct set of IJ lanes once and
 * then each exclude machine, run by family), repro.analysis.store (the
 * codec), repro.traces.synth.mix (the generator) and
 * repro.coherence.smp (the coherence core, smp_run: one call runs a
 * batch of accesses -- L1 hits, misses, the L2, the write buffers,
 * snoops and the bus -- on the machine's own flat buffers).  Without a
 * compiler none of them runs: filters replay on the per-event oracle,
 * segments code in the pure-Python passes, and the Python generator and
 * simulator run, which produce the same bytes.
 *
 * A node's filters read and write only that node's buffers, so the jobs
 * of a round (one per node) share nothing: walk hands them out to up to
 * `threads` threads, the caller's among them, created and joined inside
 * the call.  Each job walks exactly as it would alone, so the thread
 * count never changes a result.
 *
 * Exclude structures: each set is a fixed `ways`-wide row of int64
 * plus an int32 fill count, in flat arrays indexed by set.  An EJ row
 * holds the set's valid blocks MRU-first; a VEJ row holds its valid
 * chunks LRU-first, with the chunks' presence vectors in a parallel
 * uint64 row.  That is the whole observable state of a set: way
 * placement is never reported.
 *
 * The IJ lanes are `n_arrays` int32 counter rows of `lane_mask + 1`
 * entries, lane j indexed by block bits [j*skip, j*skip + entry_bits).
 * An IJ's counters change only on its node's allocs and evicts, so the
 * filters of a walk whose lanes have the same geometry and counters --
 * an IJ and the hybrids built on it -- step one lane set.
 */

#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One exclude structure and the counts it takes during a walk. */
typedef struct {
    int64_t *rows;
    uint64_t *vecs;                    /* NULL for an EJ */
    int32_t *fill;
    int64_t ways, set_mask, vshift, vmask;
    int64_t entry_writes, filtered;
} machine;

/* Rotate row[at, end] left by one: row[at] moves to row[end], the rest
 * one slot forward.  The carried value keeps the compiler from turning
 * the loop into a memmove call, which costs more than a row of a few
 * entries. */
static void rotate_left(int64_t *row, int32_t at, int32_t end)
{
    int64_t carry = row[at];
    for (int32_t j = end; j >= at; j--) {
        int64_t next = row[j];
        row[j] = carry;
        carry = next;
    }
}

/* Rotate row[0, at] right by one: row[at] moves to row[0], the rest one
 * slot back. */
static void rotate_right(int64_t *row, int32_t at)
{
    int64_t carry = row[at];
    for (int32_t j = 0; j <= at; j++) {
        int64_t next = row[j];
        row[j] = carry;
        carry = next;
    }
}

/* One EJ item: `code` 0 = P0 snoop, 1 = P1 snoop, 2 = alloc, `passed`
 * the IJ verdict.  Returns 1 for a P1 snoop the filter would filter. */
static int ej_step(machine *m, int64_t blk, int code, int passed)
{
    int64_t *row = m->rows + (blk & m->set_mask) * m->ways;
    int32_t *len = m->fill + (blk & m->set_mask);
    int32_t at = 0;
    while (at < *len && row[at] != blk)
        at++;
    int hit = at < *len;
    if (code == 0) {                   /* P0 snoop */
        if (hit) {                     /* EJ hit filters, IJ moot */
            rotate_right(row, at);
            m->filtered++;
        } else if (passed) {           /* both passed: allocate at MRU */
            if (*len < m->ways)
                (*len)++;
            rotate_right(row, *len - 1);
            row[0] = blk;
            m->entry_writes++;
        } else {                       /* IJ filtered; EJ learns nothing */
            m->filtered++;
        }
    } else if (code == 2) {            /* alloc: drop the entry */
        if (hit) {
            rotate_left(row, at, --(*len));
            m->entry_writes++;
        }
    } else if (hit || !passed) {       /* P1 snoop filtered: violation */
        return 1;
    }
    return 0;
}

/* Move entry `at` of a VEJ row to the MRU end, keeping its vector: the
 * row and its vectors rotate left together, as in rotate_left. */
static void vej_touch(int64_t *row, uint64_t *vec, int32_t len, int32_t at)
{
    int64_t chunk = row[at];
    uint64_t vector = vec[at];
    for (int32_t j = len - 1; j >= at; j--) {
        int64_t next = row[j];
        uint64_t next_vector = vec[j];
        row[j] = chunk;
        vec[j] = vector;
        chunk = next;
        vector = next_vector;
    }
}

/* Remove entry `at` of a VEJ row, closing the gap. */
static void vej_drop(int64_t *row, uint64_t *vec, int32_t *len, int32_t at)
{
    vej_touch(row, vec, *len, at);     /* to the end, then cut it off */
    (*len)--;
}

/* One VEJ item, as ej_step. */
static int vej_step(machine *m, int64_t blk, int code, int passed)
{
    int64_t chunk = blk >> m->vshift;
    uint64_t bit = (uint64_t)1 << (blk & m->vmask);
    int64_t *row = m->rows + (chunk & m->set_mask) * m->ways;
    uint64_t *vec = m->vecs + (chunk & m->set_mask) * m->ways;
    int32_t *len = m->fill + (chunk & m->set_mask);
    int32_t at = 0;
    while (at < *len && row[at] != chunk)
        at++;
    int hit = at < *len;
    if (code == 0) {                   /* P0 snoop */
        if (hit) {                     /* chunk hit: the probe touches LRU */
            vej_touch(row, vec, *len, at);
            if (vec[*len - 1] & bit) {
                m->filtered++;
            } else if (passed) {
                vec[*len - 1] |= bit;
                m->entry_writes++;
            } else {                   /* IJ filtered; the touch stays */
                m->filtered++;
            }
        } else if (passed) {           /* chunk miss: allocate at MRU */
            if (*len == m->ways)
                vej_drop(row, vec, len, 0);
            row[*len] = chunk;
            vec[*len] = bit;
            (*len)++;
            m->entry_writes++;
        } else {
            m->filtered++;
        }
    } else if (code == 2) {            /* alloc: clear the PV bit in place */
        if (hit) {
            vec[at] &= ~bit;
            if (vec[at] == 0)
                vej_drop(row, vec, len, at);
            m->entry_writes++;
        }
    } else {                           /* P1 snoop */
        if (hit)
            vej_touch(row, vec, *len, at);
        if ((hit && (vec[*len - 1] & bit)) || !passed)
            return 1;
    }
    return 0;
}

/* One filter as the walk sees it (WalkContext in
 * repro.core.vector_replay): the IJ lanes (`lanes` NULL for none), the
 * exclude structure (`rows` NULL for none, `vecs` NULL for an EJ), and
 * where the walk reports. */
typedef struct {
    int64_t *out;                      /* the span's 8 results */
    int32_t *lanes;
    int64_t *lane_totals;              /* per lane, its counters' total */
    int64_t n_arrays, skip, lane_mask;
    int64_t *rows;
    uint64_t *vecs;
    int32_t *fill;
    int64_t ways, set_mask, vshift, vmask;
} walk_ctx;

/* One distinct set of IJ lanes: the members whose lanes have the same
 * geometry and the same counters when the walk begins.  Each event steps
 * it once, on the lanes buffer of `owner`, a member still walking; the
 * counts are those since the span began. */
typedef struct {
    const walk_ctx *owner;
    int32_t *lanes;                    /* owner->lanes */
    int64_t n_arrays, skip, lane_mask;
    int64_t indexed;                   /* lanes whose field starts below
                                        * bit 64; the rest read index 0 */
    int64_t live;                      /* its members still walking */
    int64_t filtered, pbit_writes;     /* lane-filtered P0 snoops; p-bits */
    int passed;                        /* its verdict on this snoop */
} lane_set;

/* Step one lane counter by one event: a snoop reads its presence bit
 * (0 when clear), an alloc increments it and an evict decrements it (-1
 * when it would go below zero). */
static inline int counter_step(int32_t *c, int64_t kind,
                               int64_t *pbit_writes)
{
    if (kind == 0)
        return *c != 0;
    if (kind == 1) {
        *pbit_writes += (*c)++ == 0;
        return 1;
    }
    if (*c == 0)
        return -1;
    *pbit_writes += --(*c) == 0;
    return 1;
}

/* Step a lane set by one event.  A snoop returns its verdict (1 when
 * every presence bit is set); an alloc or evict updates one counter per
 * lane and returns 1, or -1 for an evict that underflows. */
static int lanes_step(lane_set *ls, int64_t kind, int64_t blk)
{
    int32_t *lanes = ls->lanes;
    int64_t mask = ls->lane_mask, skip = ls->skip, shift = 0, j = 0;
    int64_t indexed = ls->indexed, n_arrays = ls->n_arrays;
    int64_t *pbit_writes = &ls->pbit_writes;
    for (; j < indexed; j++, shift += skip) {
        int r = counter_step(lanes + j * (mask + 1) + ((blk >> shift) & mask),
                             kind, pbit_writes);
        if (r <= 0)
            return r;
    }
    for (; j < n_arrays; j++) {        /* index zero, as in Python */
        int r = counter_step(lanes + j * (mask + 1), kind, pbit_writes);
        if (r <= 0)
            return r;
    }
    return 1;
}

/* A filter while it walks: its lane set (NULL for none), where its
 * exclude machine reads the lanes' verdict, and the machine. */
typedef struct {
    const walk_ctx *c;
    lane_set *ls;
    const int *passed;
    machine m;
} member;

/* The members of a group walk in three runs, one per family: IJs (lanes
 * alone), then EJs and VEJs, hybrids included (a hybrid is its lane
 * set's verdict plus its exclude machine).  Each run's live members come
 * first, as do the lane sets still stepped. */
enum { IJ_RUN, EJ_RUN, VEJ_RUN, RUNS };

typedef struct {
    member *run[RUNS];
    int64_t live[RUNS], members;
    lane_set *sets;
    int64_t n_walking;
    int64_t tally[4];                  /* snoops, would-hit, allocs, evicts */
} group_walk;

static const int PASS = 1;             /* the verdict without lanes */

/* Stops are rare: kept out of the event loop's registers. */
#if defined(__GNUC__)
#define COLD __attribute__((noinline, cold))
#else
#define COLD
#endif

static size_t lanes_bytes(const walk_ctx *c)
{
    return (size_t)c->n_arrays * (size_t)(c->lane_mask + 1) * sizeof(int32_t);
}

/* Each lane's total, for the caller's conservation check. */
static void lanes_total(const walk_ctx *c)
{
    for (int64_t j = 0; j < c->n_arrays; j++) {
        const int32_t *lane = c->lanes + j * (c->lane_mask + 1);
        int64_t total = 0;
        for (int64_t x = 0; x <= c->lane_mask; x++)
            total += lane[x];
        c->lane_totals[j] = total;
    }
}

/* Write one member's span results: the group's tallies so far, its own
 * counts, and `stop`. */
static void member_report(const member *w, const int64_t *tally,
                          int64_t stop)
{
    int64_t *out = w->c->out;
    out[0] = tally[0];
    out[1] = tally[1];
    out[2] = tally[2];
    out[3] = tally[3];
    out[4] = w->m.rows ? w->m.filtered : w->ls->filtered;
    out[5] = w->m.entry_writes;
    out[6] = w->ls ? w->ls->pbit_writes : 0;
    out[7] = stop;
}

/* A member still walking on `ls`. */
static const walk_ctx *lanes_heir(const group_walk *g, const lane_set *ls)
{
    for (int r = 0; r < RUNS; r++)
        for (int64_t k = 0; k < g->live[r]; k++)
            if (g->run[r][k].ls == ls)
                return g->run[r][k].c;
    return NULL;                       /* unreachable while ls->live > 1 */
}

/* Drop lane set `ls`, whose last member has stopped: its lanes stay as
 * they were at that stop.  The last walking set takes its place, and
 * that set's members follow it. */
static void lanes_drop(group_walk *g, lane_set *ls)
{
    lane_set *last = g->sets + --g->n_walking;
    *ls = *last;
    for (int r = 0; r < RUNS; r++) {
        for (int64_t k = 0; k < g->live[r]; k++) {
            member *w = g->run[r] + k;
            if (w->ls == last) {
                w->ls = ls;
                w->passed = &ls->passed;
            }
        }
    }
}

/* Stop member `k` of run `r` at event `i`: report, and freeze its lanes
 * as the lane set holds them now -- handing the walked buffer to another
 * sharer when it owned it -- with their totals.  The run's last live
 * member takes its place, and the lane set goes with its last member. */
static COLD void member_stop(group_walk *g, int r, int64_t k, int64_t i)
{
    member *w = g->run[r] + k;
    lane_set *ls = w->ls;
    const walk_ctx *c = w->c;
    member_report(w, g->tally, i);
    *w = g->run[r][--g->live[r]];
    g->members--;
    if (ls == NULL)
        return;
    if (ls->owner != c) {
        memcpy(c->lanes, ls->lanes, lanes_bytes(c));
    } else if (ls->live > 1) {
        const walk_ctx *heir = lanes_heir(g, ls);
        memcpy(heir->lanes, ls->lanes, lanes_bytes(c));
        ls->owner = heir;
        ls->lanes = heir->lanes;
    }
    lanes_total(c);
    if (--ls->live == 0)
        lanes_drop(g, ls);
}

/* Stop every member of the runs [from, to) on `ls` at event `i`. */
static COLD void lanes_stop(group_walk *g, lane_set *ls, int from, int to,
                            int64_t i)
{
    for (int r = from; r < to; r++) {
        for (int64_t k = 0; k < g->live[r]; k++) {
            if (g->run[r][k].ls != ls)
                continue;
            if (ls->live == 1) {       /* the last: `ls` is then dropped */
                member_stop(g, r, k, i);
                return;
            }
            member_stop(g, r, k--, i);
        }
    }
}

/* Step the `n` walking lane sets by one snoop: each set's verdict.
 * Returns 1 when a set filtered a P1 snoop, a violation; a filtered P0
 * snoop counts in the set. */
static inline int lanes_snoop(lane_set *sets, int64_t n, int64_t blk,
                                int p1)
{
    int faults = 0;
    for (int64_t s = 0; s < n; s++) {
        lane_set *ls = sets + s;
        ls->passed = lanes_step(ls, 0, blk);
        if (!ls->passed) {
            faults |= p1;
            ls->filtered += !p1;
        }
    }
    return faults;
}

/* Step the `n` walking lane sets by one alloc. */
static inline void lanes_alloc(lane_set *sets, int64_t n, int64_t blk)
{
    for (int64_t s = 0; s < n; s++) {
        lane_set *ls = sets + s;
        lanes_step(ls, 1, blk);
    }
}

/* Step the `n` walking lane sets by one evict.  Returns 1 when a set
 * underflowed, its `passed` then 0. */
static inline int lanes_evict(lane_set *sets, int64_t n, int64_t blk)
{
    int faults = 0;
    for (int64_t s = 0; s < n; s++) {
        lane_set *ls = sets + s;
        ls->passed = lanes_step(ls, 2, blk) > 0;
        faults |= !ls->passed;
    }
    return faults;
}

/* Stop the members of the runs [from, to) on every walking lane set that
 * failed this event (`passed` 0) at event `i`.  A dropped set's place
 * holds another set of the same event, which is checked in turn. */
static COLD void lanes_fault(group_walk *g, int from, int to, int64_t i)
{
    for (int64_t s = 0; s < g->n_walking;) {
        int64_t walking = g->n_walking;
        if (!g->sets[s].passed) {
            lanes_stop(g, g->sets + s, from, to, i);
            if (g->n_walking < walking)
                continue;
        }
        s++;
    }
}

/* Walk packed events e[lo, hi) in stream order through the `n` filters
 * of `group`.  Returns the index of the first MARKER (the caller's to
 * handle), else `hi`; once every filter has stopped, the walk ends
 * early and the return means nothing.
 *
 * Each event is decoded and tallied once, steps each distinct lane set
 * once -- the snoop verdict, the alloc and evict updates, the
 * presence-bit writes and the underflow check -- and then every exclude
 * machine still walking, run by family.  A filter stops at its first
 * error and the others walk on; an underflow stops every sharer of the
 * lanes at the same event, with the same partial decrement.  A filter's
 * `out` receives its span's results: the tallies -- snoops, would-hit
 * snoops, allocs, evicts -- over every event up to and including its
 * stop (a MARKER counts as none), its filtered snoops, entry writes and
 * presence-bit writes before it, and the stop's index (its error, else
 * the group's stop).  Its lanes end as its stop left them and
 * `lane_totals` holds each lane's total, for the caller's conservation
 * check: every filter ends as a walk of it alone would leave it.
 * Returns -1 when out of memory. */
static int64_t walk_group(const walk_ctx *const *group, int64_t n,
                          const int64_t *e, int64_t lo, int64_t hi)
{
    void *block = malloc((size_t)n * (sizeof(member) + sizeof(lane_set)));
    member *members = block;
    lane_set *sets = (lane_set *)(members + n);
    group_walk g = {{NULL}, {0}, n, sets, 0, {0}};
    int64_t i, k;
    if (block == NULL)
        return -1;
    for (k = 0; k < n; k++) {
        const walk_ctx *c = group[k];
        g.live[c->rows == NULL ? IJ_RUN : c->vecs ? VEJ_RUN : EJ_RUN]++;
    }
    g.run[IJ_RUN] = members;
    g.run[EJ_RUN] = members + g.live[IJ_RUN];
    g.run[VEJ_RUN] = g.run[EJ_RUN] + g.live[EJ_RUN];
    int64_t filled[RUNS] = {0, 0, 0};
    for (k = 0; k < n; k++) {
        const walk_ctx *c = group[k];
        lane_set *ls = NULL;
        for (int64_t s = 0; c->lanes && s < g.n_walking; s++) {
            if (sets[s].n_arrays == c->n_arrays && sets[s].skip == c->skip
                && sets[s].lane_mask == c->lane_mask
                && memcmp(sets[s].lanes, c->lanes, lanes_bytes(c)) == 0) {
                ls = sets + s;
                break;
            }
        }
        if (c->lanes && ls == NULL) {
            ls = sets + g.n_walking++;
            /* Lane j's field starts at bit j * skip (skip >= 1). */
            int64_t indexed = 63 / c->skip + 1;
            *ls = (lane_set){c, c->lanes, c->n_arrays, c->skip, c->lane_mask,
                             indexed < c->n_arrays ? indexed : c->n_arrays,
                             0, 0, 0, 1};
        }
        if (ls != NULL)
            ls->live++;
        int r = c->rows == NULL ? IJ_RUN : c->vecs ? VEJ_RUN : EJ_RUN;
        g.run[r][filled[r]++] = (member){
            c, ls, ls ? &ls->passed : &PASS,
            {c->rows, c->vecs, c->fill, c->ways, c->set_mask, c->vshift,
             c->vmask, 0, 0}};
    }
    /* The event loop keeps the run bounds in locals, re-read after each
     * stop (RESYNC). */
    member *ej = g.run[EJ_RUN], *vej = g.run[VEJ_RUN];
    int64_t n_walking = g.n_walking, n_ej = g.live[EJ_RUN];
    int64_t n_vej = g.live[VEJ_RUN];
#define RESYNC() do {                                                   \
        n_walking = g.n_walking;                                        \
        n_ej = g.live[EJ_RUN];                                          \
        n_vej = g.live[VEJ_RUN];                                        \
        if (g.members == 0)                                             \
            goto stopped;                                               \
    } while (0)
    for (i = lo; i < hi; i++) {
        int64_t ev = e[i], blk = ev >> 4;
        if ((ev & 3) == 0) {
            int code = (int)((ev >> 3) & 1);
            g.tally[0]++;
            g.tally[1] += (ev >> 2) & 1;
            /* A lane-filtered P1 snoop stops the set's IJs here and its
             * hybrids in their exclude runs. */
            if (lanes_snoop(sets, n_walking, blk, code)) {
                lanes_fault(&g, IJ_RUN, IJ_RUN + 1, i);
                RESYNC();
            }
            for (k = 0; k < n_ej; k++) {
                if (ej_step(&ej[k].m, blk, code, *ej[k].passed)) {
                    member_stop(&g, EJ_RUN, k--, i);
                    RESYNC();
                }
            }
            for (k = 0; k < n_vej; k++) {
                if (vej_step(&vej[k].m, blk, code, *vej[k].passed)) {
                    member_stop(&g, VEJ_RUN, k--, i);
                    RESYNC();
                }
            }
        } else if ((ev & 3) == 1) {
            g.tally[2]++;
            lanes_alloc(sets, n_walking, blk);
            for (k = 0; k < n_ej; k++)
                ej_step(&ej[k].m, blk, 2, 1);
            for (k = 0; k < n_vej; k++)
                vej_step(&vej[k].m, blk, 2, 1);
        } else if ((ev & 3) == 2) {
            g.tally[3]++;
            if (lanes_evict(sets, n_walking, blk)) {
                lanes_fault(&g, 0, RUNS, i);
                RESYNC();
            }
        } else {                       /* MARKER: the caller's to handle */
            break;
        }
    }
#undef RESYNC
    for (k = 0; k < g.n_walking; k++)
        lanes_total(sets[k].owner);
    for (int r = 0; r < RUNS; r++) {
        for (k = 0; k < g.live[r]; k++) {
            const member *w = g.run[r] + k;
            member_report(w, g.tally, i);
            if (w->ls != NULL && w->ls->owner != w->c) {
                memcpy(w->c->lanes, w->ls->lanes, lanes_bytes(w->c));
                memcpy(w->c->lane_totals, w->ls->owner->lane_totals,
                       (size_t)w->c->n_arrays * sizeof(int64_t));
            }
        }
    }
    free(block);
    return i;
stopped:                               /* every filter stopped at event i */
    free(block);
    return i + 1;
}

/* One job of a round (WalkJob in repro.core.vector_replay): walk
 * e[lo, hi) through the `n` filters of `group`; `stop` receives
 * walk_group's return. */
typedef struct {
    const walk_ctx *const *group;
    int64_t n;
    const int64_t *e;
    int64_t lo, hi;
    int64_t stop;
} walk_job;

/* A round's jobs, handed out one at a time to whichever thread asks. */
typedef struct {
    walk_job *jobs;
    int64_t n_jobs;
    atomic_llong next;
} job_queue;

static void *walk_jobs(void *arg)
{
    job_queue *q = arg;
    for (;;) {
        int64_t j = atomic_fetch_add(&q->next, 1);
        if (j >= q->n_jobs)
            return NULL;
        walk_job *job = q->jobs + j;
        job->stop = walk_group(job->group, job->n, job->e, job->lo, job->hi);
    }
}

/* The most threads one call starts. */
enum { MAX_THREADS = 64 };

/* Walk the `n_jobs` jobs of a round on up to `threads` threads, the
 * caller's among them.  The jobs must share no filter: each is one
 * node's group.  The threads are created and joined here; a thread that
 * cannot be created leaves its jobs to the others.  Returns 0, or -1
 * when a job ran out of memory. */
int64_t walk(walk_job *jobs, int64_t n_jobs, int64_t threads)
{
    job_queue q = {jobs, n_jobs, 0};
    pthread_t helpers[MAX_THREADS];
    int64_t started = 0;
    if (threads > n_jobs)
        threads = n_jobs;
    if (threads > MAX_THREADS)
        threads = MAX_THREADS;
    while (started < threads - 1
           && pthread_create(helpers + started, NULL, walk_jobs, &q) == 0)
        started++;
    walk_jobs(&q);
    for (int64_t t = 0; t < started; t++)
        pthread_join(helpers[t], NULL);
    for (int64_t j = 0; j < n_jobs; j++)
        if (jobs[j].stop < 0)
            return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* delta-v1 planes (the layout is documented in repro.analysis.store)  */
/* ------------------------------------------------------------------ */

/* The last block of each (kind, region) delta chain: an open-addressed
 * table that doubles at half load. */
typedef struct {
    uint64_t region;
    int64_t block;
    uint8_t used, kind;
} link;

typedef struct {
    link *slots;
    uint64_t mask, count;
} chains;

static int chains_init(chains *c, uint64_t size)
{
    c->slots = calloc(size, sizeof *c->slots);
    c->mask = size - 1;
    c->count = 0;
    return c->slots != NULL;
}

/* The slot of chain (kind, region), claimed with block 0 when new;
 * NULL when the table cannot grow. */
static link *chains_at(chains *c, int kind, uint64_t region)
{
    uint64_t h = (region ^ ((uint64_t)kind << 62)) * 0x9E3779B97F4A7C15ULL;
    link *s;
    for (h ^= h >> 29;; h++) {
        s = c->slots + (h & c->mask);
        if (!s->used || (s->region == region && s->kind == kind))
            break;
    }
    if (s->used)
        return s;
    if (2 * (c->count + 1) > c->mask + 1) {
        chains old = *c;
        if (!chains_init(c, 2 * (old.mask + 1))) {
            *c = old;
            return NULL;
        }
        for (uint64_t j = 0; j <= old.mask; j++)
            if (old.slots[j].used)
                *chains_at(c, old.slots[j].kind, old.slots[j].region) =
                    old.slots[j];
        free(old.slots);
        return chains_at(c, kind, region);
    }
    c->count++;
    s->used = 1;
    s->kind = (uint8_t)kind;
    s->region = region;
    s->block = 0;
    return s;
}

static uint8_t *put_varint(uint8_t *p, uint64_t value)
{
    for (; value > 0x7F; value >>= 7)
        *p++ = (uint8_t)(value | 0x80);
    *p++ = (uint8_t)value;
    return p;
}

/* Encode n native-order packed events (`raw`, any alignment) into
 * `out`, which holds 9 + 22 * n bytes: the header, the kinds and flags
 * planes, then the region ids and each kind's zig-zag deltas as LEB128.
 * Returns the byte count written, or -1 out of memory. */
int64_t delta_encode(const uint8_t *raw, int64_t n, int64_t shift,
                     uint8_t *out)
{
    uint64_t *zigzag = malloc((n ? n : 1) * sizeof *zigzag);
    chains c;
    if (!zigzag || !chains_init(&c, 64)) {
        free(zigzag);
        return -1;
    }
    uint8_t *p = out + 9 + 2 * n;
    for (int i = 0; i < 8; i++)        /* <Q event count, then the shift */
        out[i] = (uint8_t)((uint64_t)n >> (8 * i));
    out[8] = (uint8_t)shift;
    for (int64_t i = 0; i < n; i++) {
        int64_t event, blk;
        memcpy(&event, raw + 8 * i, 8);
        blk = event >> 4;
        out[9 + i] = event & 3;
        out[9 + n + i] = (event >> 2) & 3;
        uint64_t region = (uint64_t)(blk >> shift);
        link *s = chains_at(&c, (int)(event & 3), region);
        if (!s) {
            free(zigzag);
            free(c.slots);
            return -1;
        }
        int64_t delta = blk - s->block;
        s->block = blk;
        zigzag[i] = ((uint64_t)delta << 1) ^ (uint64_t)(delta >> 63);
        p = put_varint(p, region);
    }
    free(c.slots);
    for (int kind = 0; kind < 4; kind++)
        for (int64_t i = 0; i < n; i++)
            if (out[9 + i] == kind)
                p = put_varint(p, zigzag[i]);
    free(zigzag);
    return p - out;
}

/* Decode the planes of `inner` (`len` bytes, whose header, plane sizes
 * and 2-bit plane values the caller has checked) into n packed events.
 * Returns 0, or the first failure: -1 the varint stream is truncated,
 * -2 a varint exceeds 64 bits, -3 the stream has trailing bytes, -4 a
 * block leaves the 60-bit range a packed event holds, -5 out of
 * memory. */
int64_t delta_decode(const uint8_t *inner, int64_t len, int64_t n,
                     int64_t *events)
{
    const uint8_t *kinds = inner + 9, *flags = inner + 9 + n;
    const uint8_t *p = inner + 9 + 2 * n, *end = inner + len;
    const int64_t limit = (int64_t)1 << 59;
    uint64_t *values = malloc((n ? 2 * n : 1) * sizeof *values);
    int64_t cursor[4] = {n, n, n, n}, status = 0;
    chains c;
    if (!values || !chains_init(&c, 64)) {
        free(values);
        return -5;
    }
    for (int64_t k = 0; k < 2 * n && !status; k++) {
        uint64_t value = 0;
        int at = 0;
        uint8_t byte;
        do {
            if (p == end) {
                status = -1;
                break;
            }
            byte = *p++;
            if (at == 63 && byte > 1) {
                status = -2;
                break;
            }
            value |= (uint64_t)(byte & 0x7F) << at;
            at += 7;
        } while (byte & 0x80);
        values[k] = value;
    }
    if (!status && p != end)
        status = -3;
    for (int64_t i = 0; i < n && !status; i++)
        for (int kind = kinds[i] + 1; kind < 4; kind++)
            cursor[kind]++;
    for (int64_t i = 0; i < n && !status; i++) {
        uint64_t zz = values[cursor[kinds[i]]++];
        int64_t delta = (int64_t)(zz >> 1) ^ -(int64_t)(zz & 1);
        link *s = chains_at(&c, kinds[i], values[i]);
        if (!s) {
            status = -5;
        } else if (delta < -2 * limit || delta > 2 * limit
                   || s->block + delta < -limit
                   || s->block + delta >= limit) {
            status = -4;
        } else {
            s->block += delta;
            events[i] = (int64_t)((uint64_t)s->block << 4)
                        | (int64_t)(flags[i] << 2) | kinds[i];
        }
    }
    free(values);
    free(c.slots);
    return status;
}

/* ------------------------------------------------------------------ */
/* Access generation (repro.traces.synth, drawn bit for bit)           */
/* ------------------------------------------------------------------ */

/* A packed access, as repro.traces.access lays it out. */
static int64_t pack_access(int64_t cpu, int64_t address, int is_write)
{
    return address << 8 | cpu << 1 | is_write;
}

/* CPython's MT19937 (random.Random), held for one take.  The stream
 * keeps its state as random.Random.getstate() lists it, 624 words and
 * the index in the int64 array `mt`; mix_take copies it in once
 * (mt_load), draws from this struct and writes the words and the index
 * back before it returns (mt_store).  `out` holds the tempered outputs
 * of `w`, valid from `i` to the end of the block. */
typedef struct {
    uint32_t w[624];
    uint32_t out[624];
    int i;
} mt_state;

static uint32_t mt_temper(uint32_t y)
{
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
}

/* The next word of state k, from words k, k + 1 and k + 397 (mod 624). */
static uint32_t mt_twist(uint32_t upper, uint32_t lower, uint32_t far)
{
    uint32_t y = (upper & 0x80000000u) | (lower & 0x7fffffffu);
    return far ^ (y >> 1) ^ (-(y & 1u) & 0x9908b0dfu);
}

/* Regenerate the whole block, as CPython's genrand_uint32 does (in
 * three segments, so no index wraps), tempering each new word. */
static void mt_regen(mt_state *s)
{
    uint32_t *w = s->w;
    int k = 0;
    for (; k < 624 - 397; k++) {
        w[k] = mt_twist(w[k], w[k + 1], w[k + 397]);
        s->out[k] = mt_temper(w[k]);
    }
    for (; k < 623; k++) {
        w[k] = mt_twist(w[k], w[k + 1], w[k + 397 - 624]);
        s->out[k] = mt_temper(w[k]);
    }
    w[623] = mt_twist(w[623], w[0], w[396]);
    s->out[623] = mt_temper(w[623]);
    s->i = 0;
}

static void mt_load(mt_state *s, const int64_t *mt)
{
    for (int k = 0; k < 624; k++)
        s->w[k] = (uint32_t)mt[k];
    s->i = (int)mt[624];
    for (int k = s->i; k < 624; k++)
        s->out[k] = mt_temper(s->w[k]);
}

static void mt_store(const mt_state *s, int64_t *mt)
{
    for (int k = 0; k < 624; k++)
        mt[k] = s->w[k];
    mt[624] = s->i;
}

static uint32_t mt_next(mt_state *s)
{
    if (s->i >= 624)
        mt_regen(s);
    return s->out[s->i++];
}

/* random.random(): 53 bits from two words. */
static double mt_random(mt_state *mt)
{
    uint32_t a = mt_next(mt) >> 5;
    uint32_t b = mt_next(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random._randbelow(n) for 0 < n < 2**63: getrandbits(n.bit_length())
 * until below n, one word per try up to 32 bits (so n = 1 still
 * consumes one), low word first above. */
static int64_t mt_below(mt_state *mt, int64_t n)
{
    int k = 64 - __builtin_clzll((uint64_t)n);
    uint64_t r;
    do {
        if (k <= 32) {
            r = mt_next(mt) >> (32 - k);
        } else {
            r = mt_next(mt);
            r |= (uint64_t)(mt_next(mt) >> (64 - k)) << 32;
        }
    } while (r >= (uint64_t)n);
    return (int64_t)r;
}

/* base.skewed_offset: min(int(span * random() ** alpha), span - 1). */
static int64_t skewed_offset(mt_state *mt, int64_t span, double alpha)
{
    int64_t offset = (int64_t)((double)span * pow(mt_random(mt), alpha));
    return offset < span - 1 ? offset : span - 1;
}

/* base.geometric_run: a run length of the given mean, tail-bounded. */
static int64_t geometric_run(mt_state *mt, int64_t mean)
{
    if (mean <= 1)
        return 1;
    double probability = 1.0 / (double)mean;
    int64_t length = 1;
    while (mt_random(mt) > probability)
        if (++length >= mean * 8)
            break;
    return length;
}

enum { WALK, SWEEP, PAIRS, MIGRATE };
#define WORD_BYTES 8

/* One pattern (NativePattern in repro.traces.synth.base).  `state` is
 * the pattern's own array, laid out as its Python draw lays it out;
 * `words`, `bytes` and `count` mean what its native() says. */
typedef struct {
    int64_t kind, n, n_cpus;
    const int64_t *cpus, *bases;
    int64_t *state;
    int64_t words, bytes, count;
    double write_frac, alpha, remote_frac;
} pattern;

/* PrivateWorkingSet (and SharedReadOnly): per slot, the next address
 * and the accesses left in its run. */
static int64_t walk_draw(const pattern *p, mt_state *mt)
{
    int64_t slot = mt_below(mt, p->n);
    int64_t *cursor = p->state + 2 * slot;
    int64_t address = cursor[0];
    if (cursor[1] <= 0 || address >= p->bases[slot] + p->bytes) {
        address = p->bases[slot]
                  + skewed_offset(mt, p->words, p->alpha) * WORD_BYTES;
        cursor[1] = geometric_run(mt, p->count);
    }
    cursor[0] = address + WORD_BYTES;
    cursor[1]--;
    return pack_access(p->cpus[slot], address,
                       mt_random(mt) < p->write_frac);
}

/* StreamingSweep: per slot, the sweep cursor's partition offset. */
static int64_t sweep_draw(const pattern *p, mt_state *mt)
{
    int64_t slot = mt_below(mt, p->n);
    if (p->remote_frac > 0.0 && mt_random(mt) < p->remote_frac) {
        int64_t next = slot + 1 == p->n ? 0 : slot + 1;
        int64_t delta = (1 + mt_below(mt, p->words)) * WORD_BYTES;
        int64_t offset = (p->state[next] - delta) % p->bytes;
        if (offset < 0)                /* Python's % is non-negative */
            offset += p->bytes;
        return pack_access(p->cpus[slot], p->bases[next] + offset, 0);
    }
    int64_t offset = p->state[slot];
    p->state[slot] = (offset + WORD_BYTES) % p->bytes;
    return pack_access(p->cpus[slot], p->bases[slot] + offset,
                       mt_random(mt) < p->write_frac);
}

/* ProducerConsumer: per pair, producing, word position, repeat. */
static int64_t pairs_draw(const pattern *p, mt_state *mt)
{
    int64_t pair = mt_below(mt, p->n);
    int64_t *s = p->state + 3 * pair;
    int64_t address = p->bases[pair] + s[1] * WORD_BYTES;
    int producing = s[0] != 0;
    if (producing) {
        if (++s[1] >= p->words)
            s[0] = s[1] = 0;
    } else if (++s[2] >= p->count) {
        s[2] = 0;
        if (++s[1] >= p->words) {
            s[0] = 1;
            s[1] = 0;
        }
    }
    return pack_access(p->cpus[2 * pair + !producing], address, producing);
}

/* MigratoryPattern: per object, holder index and accesses done. */
static int64_t migrate_draw(const pattern *p, mt_state *mt)
{
    int64_t obj = mt_below(mt, p->n);
    int64_t *s = p->state + 2 * obj;
    int64_t done = s[1], cpu = p->cpus[s[0]];
    int64_t address = p->bases[0] + obj * p->bytes
                      + (done % p->words) * WORD_BYTES;
    int is_write = done > 0 && (done % 2 == 1 || done == p->count - 1);
    if (++done >= p->count) {
        s[0] = (s[0] + 1) % p->n_cpus;
        done = 0;
    }
    s[1] = done;
    return pack_access(cpu, address, is_write);
}

/* One phase of a MixStream (NativeMix in repro.traces.synth.mix). */
typedef struct {
    int64_t *mt;                       /* 624 words and the index */
    int64_t *last;                     /* repeat memory, -1 for none */
    const pattern *patterns;
    const double *bounds;              /* cumulative pick weights */
    int64_t n_patterns;
    double repeat_frac;
} mix;

/* MixStream._draw: n packed accesses into out, advancing the RNG, the
 * repeat memory and the patterns' states in place.  The RNG is drawn
 * from a local copy (mt_state) and written back at the end.  Returns
 * n. */
int64_t mix_take(const mix *m, int64_t *out, int64_t n)
{
    mt_state mt;
    mt_load(&mt, m->mt);
    int64_t last = *m->last;
    for (int64_t j = 0; j < n; j++) {
        if (last >= 0 && mt_random(&mt) < m->repeat_frac) {
            out[j] = last & ~(int64_t)1;   /* the same access, a load */
            continue;
        }
        double draw = mt_random(&mt);
        int64_t k = 0;
        while (k < m->n_patterns - 1 && !(draw <= m->bounds[k]))
            k++;
        const pattern *p = m->patterns + k;
        switch (p->kind) {
        case WALK:
            last = walk_draw(p, &mt);
            break;
        case SWEEP:
            last = sweep_draw(p, &mt);
            break;
        case PAIRS:
            last = pairs_draw(p, &mt);
            break;
        default:
            last = migrate_draw(p, &mt);
        }
        out[j] = last;
    }
    *m->last = last;
    mt_store(&mt, m->mt);
    return n;
}

/* ------------------------------------------------------------------ */
/* The coherence core (repro.coherence.node and .bus, step for step)   */
/* ------------------------------------------------------------------ */

/* MOESI codes as the flat L2 and write buffer store them: a dirty
 * (owner) state is >= O_, a writable one E_ or M_. */
enum { I_, S_, E_, O_, M_ };

/* NodeStats counters, in the dataclass's field order. */
enum {
    LOCAL_READS, LOCAL_WRITES, L1_HITS, L1_MISSES, L1_WRITEBACKS,
    L2_LOCAL_ACCESSES, L2_LOCAL_HITS, L2_LOCAL_MISSES, L2_LOCAL_TAG_PROBES,
    L2_LOCAL_TAG_UPDATES, L2_LOCAL_DATA_READS, L2_LOCAL_DATA_WRITES,
    L2_BLOCK_ALLOCS, L2_BLOCK_EVICTIONS, L2_DIRTY_EVICTIONS,
    UPGRADES_ISSUED, WB_RECLAIMS, SNOOPS_OBSERVED, SNOOP_TAG_PROBES,
    SNOOP_HITS, SNOOP_MISSES, SNOOP_BLOCK_PRESENT, SNOOP_STATE_UPDATES,
    SNOOP_DATA_SUPPLIES, L1_SNOOP_PROBES, WB_PROBES, WB_HITS, WB_PUSHES,
    WB_DRAINS
};

/* The bus row: one counter per op, the writebacks, then the remote-hit
 * histogram. */
enum { READ, READ_X, UPGRADE, WRITEBACKS, HISTOGRAM };

/* Why smp_run stopped before `hi`: codes 2-4 are the protocol
 * violations of repro.coherence.node.VIOLATIONS. */
enum { SMP_OK, REJECTED, NO_FRAME, DIRTY_NOT_M, UNBACKED_WRITE };

/* The most subblocks an L2 block has (the in-L1 mask is 64 bits). */
#define MAX_SUB 64

/* One node: the buffers its Python twin (repro.coherence.node.CacheNode)
 * works on, shared in place, and its rows of the machine's counter
 * deltas and event scratch. */
typedef struct {
    int64_t *lines;                    /* L1 line words, -1 empty */
    int64_t *tags;                     /* L2: block per set, -1 empty */
    uint8_t *states;                   /* L2: n_sub MOESI codes per set */
    uint64_t *in_l1;                   /* L2: per set, subblocks in the L1 */
    int64_t *wb_tags;                  /* write buffer, oldest first, -1 */
    uint8_t *wb_states;                /* n_sub codes per entry, 0 clean */
    int64_t *stats;                    /* NodeStats counter deltas */
    int64_t *events;                   /* packed event scratch */
    int64_t *n_events;                 /* events in the scratch */
} cnode;

/* A machine (NativeMachine in repro.coherence.smp). */
typedef struct {
    const int64_t *accesses;           /* the packed batch */
    cnode *nodes;
    int64_t *bus;                      /* bus counter deltas */
    int64_t n_cpus, n_sub, wb_entries, scratch;
    int64_t l1_mask, l1_shift, l2_mask, l2_shift;
    /* out: why the run stopped, and where a violation happened */
    int64_t status, err_node, err_block, err_state;
} smp;

static void emit(cnode *n, int64_t event)
{
    n->events[(*n->n_events)++] = event;
}

/* Record a violation; returns -1 for the caller to pass up. */
static int fail(smp *m, int64_t status, const cnode *n, int64_t block,
                int64_t state)
{
    m->status = status;
    m->err_node = n - m->nodes;
    m->err_block = block;
    m->err_state = state;
    return -1;
}

/* CacheNode._l1_block_of */
static int64_t l1_block_of(const smp *m, int64_t l2_block, int64_t sub)
{
    return l2_block << (m->l2_shift - m->l1_shift) | sub;
}

/* L1Cache.invalidate: the dropped line word, or -1. */
static int64_t l1_invalidate(const smp *m, cnode *n, int64_t block)
{
    int64_t *line = n->lines + (block & m->l1_mask), dropped = *line;
    if (dropped >> 2 != block)
        return -1;
    *line = -1;
    return dropped;
}

/* WriteBuffer.find */
static int64_t wb_find(const smp *m, const cnode *n, int64_t block)
{
    for (int64_t k = 0; k < m->wb_entries && n->wb_tags[k] >= 0; k++)
        if (n->wb_tags[k] == block)
            return k;
    return -1;
}

static int64_t wb_len(const smp *m, const cnode *n)
{
    int64_t k = 0;
    while (k < m->wb_entries && n->wb_tags[k] >= 0)
        k++;
    return k;
}

/* WriteBuffer._take: remove entry k, closing the gap; its codes go to
 * `out`. */
static void wb_take(const smp *m, cnode *n, int64_t k, uint8_t *out)
{
    int64_t last = wb_len(m, n) - 1, ns = m->n_sub;
    memcpy(out, n->wb_states + k * ns, ns);
    memmove(n->wb_tags + k, n->wb_tags + k + 1, (last - k) * sizeof *n->wb_tags);
    memmove(n->wb_states + k * ns, n->wb_states + (k + 1) * ns,
            (last - k) * ns);
    n->wb_tags[last] = -1;
    memset(n->wb_states + last * ns, 0, ns);
}

/* WriteBuffer.push into a buffer that is not full: queue `block` with
 * the dirty ones of `codes`; a block already buffered merges, its newer
 * codes winning. */
static void wb_push(const smp *m, cnode *n, int64_t block,
                    const uint8_t *codes)
{
    uint8_t previous[MAX_SUB] = {0};
    int64_t ns = m->n_sub, k = wb_find(m, n, block);
    if (k >= 0)
        wb_take(m, n, k, previous);
    k = wb_len(m, n);
    n->wb_tags[k] = block;
    for (int64_t s = 0; s < ns; s++)
        n->wb_states[k * ns + s] = codes[s] >= O_ ? codes[s] : previous[s];
}

/* CacheNode._drain_one */
static void drain_one(smp *m, cnode *n)
{
    uint8_t gone[MAX_SUB];
    wb_take(m, n, 0, gone);
    n->stats[WB_DRAINS]++;
    m->bus[WRITEBACKS]++;
}

/* CacheNode.snoop (with _snoop_read, _snoop_invalidate and
 * _cancel_wb_subblock): 1 when the node holds a valid copy. */
static int snoop(smp *m, cnode *n, int op, int64_t address)
{
    int64_t *st = n->stats, ns = m->n_sub;
    int64_t l2_block = address >> m->l2_shift;
    int64_t sub = (address >> m->l1_shift) & (ns - 1);
    int64_t k, slot = l2_block & m->l2_mask;
    uint64_t bit = (uint64_t)1 << sub;
    int hit = 0;

    st[WB_PROBES]++;
    k = wb_find(m, n, l2_block);
    if (k >= 0 && n->wb_states[k * ns + sub]) {
        st[WB_HITS]++;
        hit = 1;
        if (op != READ) {              /* the rest moves to the back */
            uint8_t rest[MAX_SUB];
            int64_t left = 0;
            wb_take(m, n, k, rest);
            rest[sub] = I_;
            for (int64_t s = 0; s < ns; s++)
                left |= rest[s];
            if (left)
                wb_push(m, n, l2_block, rest);
        }
    }

    st[SNOOPS_OBSERVED]++;
    st[SNOOP_TAG_PROBES]++;
    if (n->tags[slot] != l2_block) {   /* subblock invalid, tag absent */
        emit(n, l2_block << 4);
        st[SNOOP_MISSES]++;
        return hit;
    }
    uint8_t *state = n->states + slot * ns + sub;
    emit(n, l2_block << 4 | (*state ? 3 : 2) << 2);
    st[SNOOP_BLOCK_PRESENT]++;
    if (!*state) {
        st[SNOOP_MISSES]++;
        return hit;
    }
    st[SNOOP_HITS]++;

    if (op == READ) {                  /* supply if owner, downgrade */
        uint8_t down = *state == M_ ? O_ : *state == E_ ? S_ : *state;
        if (*state >= O_)
            st[SNOOP_DATA_SUPPLIES]++;
        if (n->in_l1[slot] & bit) {
            int64_t block = l1_block_of(m, l2_block, sub);
            int64_t *line = n->lines + (block & m->l1_mask);
            st[L1_SNOOP_PROBES]++;
            if (*line >> 2 == block) {
                if (*line & 1)
                    st[L1_WRITEBACKS]++;
                *line &= ~(int64_t)3;
            }
        }
        if (down != *state) {
            *state = down;
            st[SNOOP_STATE_UPDATES]++;
        }
    } else {                           /* invalidate, supply for RdX */
        if (op == READ_X && *state >= O_)
            st[SNOOP_DATA_SUPPLIES]++;
        if (n->in_l1[slot] & bit) {
            st[L1_SNOOP_PROBES]++;
            l1_invalidate(m, n, l1_block_of(m, l2_block, sub));
            n->in_l1[slot] &= ~bit;
        }
        *state = I_;
        st[SNOOP_STATE_UPDATES]++;
    }
    return 1;
}

/* SMPSystem's broadcast plus Bus.record_transaction: every other node
 * snoops, in node order; returns the remote hits. */
static int64_t broadcast(smp *m, const cnode *requester, int op,
                         int64_t address)
{
    int64_t remote_hits = 0;
    for (cnode *n = m->nodes; n < m->nodes + m->n_cpus; n++)
        if (n != requester)
            remote_hits += snoop(m, n, op, address);
    m->bus[op]++;
    m->bus[HISTOGRAM + remote_hits]++;
    return remote_hits;
}

/* CacheNode._retire_victim: push the frame in `slot` towards memory
 * and keep L1 inclusion. */
static void retire_victim(smp *m, cnode *n, int64_t slot)
{
    int64_t *st = n->stats, ns = m->n_sub, victim = n->tags[slot];
    const uint8_t *codes = n->states + slot * ns;
    int dirty = 0;
    st[L2_BLOCK_EVICTIONS]++;
    emit(n, victim << 4 | 2);          /* EVICT */
    for (int64_t sub = 0; sub < ns; sub++) {
        if (n->in_l1[slot] >> sub & 1) {
            int64_t dropped = l1_invalidate(m, n, l1_block_of(m, victim, sub));
            if (dropped >= 0 && dropped & 1)
                st[L1_WRITEBACKS]++;
        }
        dirty |= codes[sub] >= O_;
    }
    if (dirty) {
        st[L2_DIRTY_EVICTIONS]++;
        if (n->wb_tags[m->wb_entries - 1] >= 0)
            drain_one(m, n);
        wb_push(m, n, victim, codes);
        st[WB_PUSHES]++;
    }
}

/* CacheNode._handle_tag_miss: allocate `slot` to `l2_block`,
 * reclaiming it from the write buffer when it waits there. */
static void allocate(smp *m, cnode *n, int64_t l2_block, int64_t slot)
{
    uint8_t reclaimed[MAX_SUB] = {0};
    int64_t ns = m->n_sub, k = wb_find(m, n, l2_block);
    if (k >= 0)
        wb_take(m, n, k, reclaimed);
    n->stats[L2_BLOCK_ALLOCS]++;
    if (n->tags[slot] >= 0)
        retire_victim(m, n, slot);
    n->tags[slot] = l2_block;
    memcpy(n->states + slot * ns, reclaimed, ns);
    n->in_l1[slot] = 0;
    emit(n, l2_block << 4 | 1);        /* ALLOC */
    if (k >= 0)
        n->stats[WB_RECLAIMS]++;
}

/* CacheNode._fill_l1 with L1Cache.fill and
 * _handle_l1_displacement; -1 at a violation. */
static int fill_l1(smp *m, cnode *n, int64_t slot, int64_t address,
                   int64_t sub, int is_write)
{
    uint8_t state = n->states[slot * m->n_sub + sub];
    int64_t block = address >> m->l1_shift;
    int64_t bits = (state == M_ || state == E_ ? 2 : 0) | is_write;
    int64_t *line = n->lines + (block & m->l1_mask), victim = *line;
    if (victim >> 2 == block) {        /* refresh the permission */
        *line = (victim & ~(int64_t)2) | bits;
        victim = -1;
    } else {
        *line = block << 2 | bits;
    }
    n->in_l1[slot] |= (uint64_t)1 << sub;
    if (victim == -1)
        return 0;

    int64_t gone = victim >> 2;
    int64_t l2_block = gone >> (m->l2_shift - m->l1_shift);
    int64_t gone_slot = l2_block & m->l2_mask;
    int64_t gone_sub = gone & (m->n_sub - 1);
    if (n->tags[gone_slot] != l2_block)
        return fail(m, NO_FRAME, n, gone, I_);
    n->in_l1[gone_slot] &= ~((uint64_t)1 << gone_sub);
    if (victim & 1) {                  /* the mirror holds M already */
        uint8_t backing = n->states[gone_slot * m->n_sub + gone_sub];
        n->stats[L1_WRITEBACKS]++;
        n->stats[L2_LOCAL_DATA_WRITES]++;
        if (backing != M_)
            return fail(m, DIRTY_NOT_M, n, gone, backing);
    }
    return 0;
}

/* CacheNode._access_l2 with _service_subblock. */
static int access_l2(smp *m, cnode *n, int64_t address, int is_write)
{
    int64_t *st = n->stats, ns = m->n_sub;
    int64_t l2_block = address >> m->l2_shift;
    int64_t sub = (address >> m->l1_shift) & (ns - 1);
    int64_t slot = l2_block & m->l2_mask;
    st[L2_LOCAL_ACCESSES]++;
    st[L2_LOCAL_TAG_PROBES]++;
    if (n->tags[slot] != l2_block)
        allocate(m, n, l2_block, slot);

    uint8_t *state = n->states + slot * ns + sub;
    if (*state && (!is_write || *state == M_ || *state == E_)) {
        st[L2_LOCAL_HITS]++;
        st[L2_LOCAL_DATA_READS]++;
        if (is_write)
            *state = M_;
    } else if (*state) {               /* a store to S or O: upgrade */
        st[L2_LOCAL_HITS]++;
        st[UPGRADES_ISSUED]++;
        broadcast(m, n, UPGRADE, address);
        *state = M_;
        st[L2_LOCAL_TAG_UPDATES]++;
        st[L2_LOCAL_DATA_READS]++;
    } else {                           /* subblock miss */
        st[L2_LOCAL_MISSES]++;
        int64_t remote = broadcast(m, n, is_write ? READ_X : READ, address);
        *state = is_write ? M_ : remote > 0 ? S_ : E_;
        st[L2_LOCAL_TAG_UPDATES]++;
        st[L2_LOCAL_DATA_WRITES]++;
    }
    return fill_l1(m, n, slot, address, sub, is_write);
}

/* CacheNode.local_access for an access that is not a clean L1 hit: a
 * miss, a store to a read-only line, or the first store to a clean
 * writable one (the silent E->M mirror). */
static int local_access(smp *m, cnode *n, int64_t address, int is_write)
{
    int64_t *st = n->stats, block = address >> m->l1_shift;
    int64_t *line = n->lines + (block & m->l1_mask);
    if (*line >> 2 == block && (!is_write || *line & 2)) {
        int64_t l2_block = address >> m->l2_shift;
        int64_t slot = l2_block & m->l2_mask;
        uint8_t *state = n->states + slot * m->n_sub
                         + (block & (m->n_sub - 1));
        st[L1_HITS]++;
        st[is_write ? LOCAL_WRITES : LOCAL_READS]++;
        if (is_write && !(*line & 1)) {
            *line |= 1;
            if (n->tags[slot] != l2_block || !*state)
                return fail(m, UNBACKED_WRITE, n, address, I_);
            *state = M_;
        }
        return 0;
    }
    st[is_write ? LOCAL_WRITES : LOCAL_READS]++;
    st[L1_MISSES]++;
    return access_l2(m, n, address, is_write);
}

/* Run accesses lo.. of the batch to completion, each on its node: a
 * clean L1 hit -- a load of a resident block, or a store to a resident
 * dirty writable one -- only counts; anything else takes the whole
 * protocol path.  Returns `hi`, or the index of the access it stopped
 * at, with `status` saying why: the access names no CPU of the machine
 * or is negative (nothing of it ran), it hit a protocol violation
 * (partly run, as its Python twin leaves it), or some node's event
 * scratch has fewer than 2 free slots -- an access emits at most 2
 * events on any one node -- so the caller must empty the scratch
 * before it runs. */
int64_t smp_run(smp *m, int64_t lo, int64_t hi)
{
    int64_t i;
    for (i = lo; i < hi; i++) {
        int64_t a = m->accesses[i], cpu = a >> 1 & 0x7F;
        int64_t address = a >> 8, block = address >> m->l1_shift;
        int is_write = (int)(a & 1);
        if (a < 0 || cpu >= m->n_cpus) {
            m->status = REJECTED;
            return i;
        }
        cnode *n = m->nodes + cpu;
        int64_t line = n->lines[block & m->l1_mask];
        if (line >> 2 == block && (!is_write || (line & 3) == 3)) {
            n->stats[L1_HITS]++;
            n->stats[is_write ? LOCAL_WRITES : LOCAL_READS]++;
            continue;
        }
        for (cnode *o = m->nodes; o < m->nodes + m->n_cpus; o++)
            if (*o->n_events > m->scratch - 2) {
                m->status = SMP_OK;
                return i;
            }
        if (local_access(m, n, address, is_write) < 0)
            return i;
    }
    m->status = SMP_OK;
    return i;
}
