/* Compiled kernel backend: the algorithms of pybits.py on multi-word bitsets.
 *
 * A hand-written CPython extension module (multi-phase init, METH_FASTCALL
 * functions, no Cython); _ckern.py builds it with _build.py, loads it and
 * re-exports it.  The kernel proper (every rlk_* entry point and what it
 * calls) knows nothing of Python; the binding at the end converts arguments,
 * checks them and raises the exceptions of pybits.py.
 *
 * The decision order of the branch and bound
 * (propagation, pruning, bound, branch choice, IN branch first) is transcribed
 * from pybits.py, so optima, witnesses and node counts are identical, and so
 * is the walk of the grid candidate search, whose candidate lists and
 * budget-limited prefixes therefore come out in the same order.
 *
 * The pair conditions (ii)/(iii) are written once, in pair_fails and
 * pairs_fail; the predicates, pairs_ok_core and dfs all call them.  One
 * difference in the work, not in the result: where pybits tests every vertex
 * pair, pairs_fail tests only pairs within distance 2 of each other, in the
 * predicates as in dfs, because once the domination test has passed a pair at
 * distance 3 or more cannot fail (the argument is above pairs_fail).
 *
 * The other difference in the work is in the branch and bound.  pybits.bnb
 * recomputes every count at every node and stays the check; dfs re-checks
 * only what the branch into a node changed, on three invariants (argued above
 * dfs): the IN child keeps its parent's pool, so its domination test can
 * change nothing; the OUT child of b changes the counts on N[b] only; and the
 * settled vertices of a node, kept in its `done` row, only grow along a path.
 * The pairs a node tests are likewise those with an end that the branch or
 * its propagation touched.
 *
 * Vertex sets are arrays of W = ceil(n / 64) 64-bit words, vertex v at bit
 * v & 63 of word v >> 6.  In Python they are ints, bit v for vertex v; the
 * binding converts them in mask_words and words_int.
 *
 * A context is written once by ctx_fill, in make_ctx, and is only read
 * afterwards.  Every other entry point allocates its scratch per call, so
 * concurrent calls on one context are safe: the searches release the GIL,
 * and the predicates, whose calls are short, keep it.  Kernel entry points
 * that allocate return RLK_NOMEM when malloc fails.  rlk_dom_candidates
 * needs no context and hands back a buffer of its own, which the caller
 * frees.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h> /* first: it sets the feature macros of the C library */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef uint64_t u64;

#define RLK_NOMEM (-3)

#define MODE_LD 0
#define MODE_REDLD 1
#define MODE_REDLD_DEF 2

typedef struct {
    int n, W, maxdeg;
    /* open neighbourhood rows, then closed neighbourhood rows, then the rows
     * of the vertices within distance 2, N[N[v]] (n * W words each), then n
     * degrees as ints */
    u64 rows[];
} rlk_ctx;

#define OPEN(c, v) ((c)->rows + (size_t)(v) * (c)->W)
#define CLOSED(c, v) ((c)->rows + ((size_t)(c)->n + (v)) * (c)->W)
#define NEAR(c, v) ((c)->rows + (2 * (size_t)(c)->n + (v)) * (c)->W)
#define DEG(c) ((int *)((c)->rows + 3 * (size_t)(c)->n * (c)->W))

static inline int popc(u64 x) { return __builtin_popcountll(x); }
/* the bits set in x, capped at 2: enough for a test against 1 or 2, and
 * cheaper than popc, a library call on builds without a popcount instruction */
static inline int popc2(u64 x) { return (x != 0) + ((x & (x - 1)) != 0); }
static inline int get(const u64 *m, int v) { return (int)(m[v >> 6] >> (v & 63)) & 1; }
static inline void set(u64 *m, int v) { m[v >> 6] |= (u64)1 << (v & 63); }

static int words(int n) { return (n + 63) >> 6; }

static int popcount(const u64 *m, int W)
{
    int c = 0;
    for (int w = 0; w < W; w++)
        c += popc(m[w]);
    return c;
}

static double monotime(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

/* ---- context ------------------------------------------------------------ */

static size_t ctx_size(int n)
{
    return sizeof(rlk_ctx) + 3 * (size_t)n * words(n) * sizeof(u64) + (size_t)n * sizeof(int);
}

/* The rows of c from its open rows and degrees, which ctx_fill has set. */
static void ctx_finish(rlk_ctx *c)
{
    int n = c->n, W = c->W;
    memcpy(CLOSED(c, 0), OPEN(c, 0), (size_t)n * W * sizeof(u64));
    for (int v = 0; v < n; v++)
        set(CLOSED(c, v), v);
    /* NEAR(v) is the union of N[w] over w in N[v] */
    memcpy(NEAR(c, 0), CLOSED(c, 0), (size_t)n * W * sizeof(u64));
    for (int v = 0; v < n; v++)
        for (int wv = 0; wv < W; wv++)
            for (u64 m = OPEN(c, v)[wv]; m; m &= m - 1) {
                int u = wv << 6 | __builtin_ctzll(m);
                for (int w = 0; w < W; w++)
                    NEAR(c, v)[w] |= CLOSED(c, u)[w];
            }
}

/* ---- pair conditions ---------------------------------------------------- */

/* dst = the vertices not in src */
static void complement(const rlk_ctx *c, u64 *dst, const u64 *src)
{
    for (int w = 0; w < c->W; w++)
        dst[w] = ~src[w];
    if (c->n & 63)
        dst[c->W - 1] &= ((u64)1 << (c->n & 63)) - 1;
}

/* every vertex has at least `need` members of s in its closed neighbourhood */
static int dominated(const rlk_ctx *c, const u64 *s, int need)
{
    for (int v = 0; v < c->n; v++) {
        int pc = 0;
        for (int w = 0; w < c->W && pc < need; w++)
            pc += popc2(CLOSED(c, v)[w] & s[w]);
        if (pc < need)
            return 0;
    }
    return 1;
}

/* Does the pair (u, v), u out, fail on pool?  Its condition needs `need`
 * vertices of (N(u) ^ N(v)) & pool other than v.  With v out, that is
 * condition (ii) with need 1 for LD and 2 for RED:LD; out vertices are not
 * in the pool, so dropping v changes nothing.  With v in, it is condition
 * (iii) with need 1. */
static inline int pair_fails(const rlk_ctx *c, const u64 *pool, int need, int u, int v)
{
    const u64 *ou = OPEN(c, u), *ov = OPEN(c, v);
    int pc = 0;
    for (int w = 0; w < c->W && pc < need; w++) {
        u64 x = (ou[w] ^ ov[w]) & pool[w];
        pc += popc2(w == v >> 6 ? x & ~((u64)1 << (v & 63)) : x);
    }
    return pc < need;
}

/* Does some pair of `mode` fail on pool: two out vertices, or in RED:LD mode
 * an in and an out vertex?  The caller has passed the domination test: every
 * out vertex u has |N(u) & pool| >= 1 in LD mode, and |N[u] & pool| =
 * |N(u) & pool| >= 2 in RED:LD mode, since u is not in the pool.
 *
 * Only pairs within distance 2 are tested.  Two vertices u, v at distance 3
 * or more have disjoint open neighbourhoods, and neither is adjacent to the
 * other, so (N(u) ^ N(v)) & pool is the disjoint union of N(u) & pool and
 * N(v) & pool.  An out/out pair at distance >= 3 thus sees at least 2 pool
 * vertices, enough in both modes, and an in/out pair (v in, u out) keeps
 * N(u) & pool, which does not contain v, after v is dropped.  Skipping such
 * pairs changes no verdict; pybits, which tests all pairs, is the check.
 *
 * With `touched` NULL every such pair is tested.  Otherwise only the pairs
 * with an end in `touched` are, for a caller that knows every other pair
 * passes (see dfs).  Inlined, so that the predicates get a copy without the
 * tests on `touched`. */
static inline __attribute__((always_inline)) int
pairs_fail(const rlk_ctx *c, int mode, const u64 *in, const u64 *out, const u64 *pool,
           const u64 *touched)
{
    int W = c->W, need = mode == MODE_REDLD ? 2 : 1;
    /* from each out end: its out/out pairs, each tested once, and in RED:LD
     * mode its in/out pairs, found from the out side because near the optima
     * of reduction graphs most vertices are in and few are out */
    for (int wu = 0; wu < W; wu++)
        for (u64 mu = touched ? out[wu] & touched[wu] : out[wu]; mu; mu &= mu - 1) {
            int u = wu << 6 | __builtin_ctzll(mu);
            for (int wv = touched ? 0 : wu; wv < W; wv++) {
                /* v at most u, and itself an end tested here: seen from v */
                u64 seen = wv < wu ? ~(u64)0 : wv == wu ? ((u64)2 << (u & 63)) - 1 : 0;
                if (touched)
                    seen &= touched[wv];
                for (u64 mv = NEAR(c, u)[wv] & out[wv] & ~seen; mv; mv &= mv - 1)
                    if (pair_fails(c, pool, need, u, wv << 6 | __builtin_ctzll(mv)))
                        return 1;
            }
            if (mode != MODE_REDLD)
                continue;
            for (int wv = 0; wv < W; wv++)
                for (u64 mv = NEAR(c, u)[wv] & in[wv]; mv; mv &= mv - 1)
                    if (pair_fails(c, pool, 1, u, wv << 6 | __builtin_ctzll(mv)))
                        return 1;
        }
    if (mode != MODE_REDLD || !touched)
        return 0;
    /* the in/out pairs whose in end alone is touched */
    for (int wv = 0; wv < W; wv++)
        for (u64 mv = in[wv] & touched[wv]; mv; mv &= mv - 1) {
            int v = wv << 6 | __builtin_ctzll(mv);
            for (int wu = 0; wu < W; wu++)
                for (u64 mu = NEAR(c, v)[wu] & out[wu] & ~touched[wu]; mu; mu &= mu - 1)
                    if (pair_fails(c, pool, 1, wu << 6 | __builtin_ctzll(mu), v))
                        return 1;
        }
    return 0;
}

/* ---- predicates --------------------------------------------------------- */

/* Predicates take scratch of 2 rows of W words: the complement of the set,
 * and the set less one detector in is_redld_def_core. */
static u64 *scratch_new(const rlk_ctx *c)
{
    return malloc(2 * (size_t)c->W * sizeof(u64));
}

/* LD or RED:LD (by conditions (i)-(iii)): domination, then the pairs with
 * the members of s in and the rest out */
static int characterized(const rlk_ctx *c, int mode, const u64 *s, u64 *scratch)
{
    if (!dominated(c, s, mode == MODE_REDLD ? 2 : 1))
        return 0;
    complement(c, scratch, s);
    return !pairs_fail(c, mode, s, scratch, s, NULL);
}

/* LD, and still LD after removing any one detector */
static int is_redld_def_core(const rlk_ctx *c, const u64 *s, u64 *scratch)
{
    if (!characterized(c, MODE_LD, s, scratch))
        return 0;
    u64 *sm = scratch + c->W; /* characterized uses the first row only */
    for (int v = 0; v < c->n; v++) {
        if (!get(s, v))
            continue;
        memcpy(sm, s, c->W * sizeof(u64));
        sm[v >> 6] ^= (u64)1 << (v & 63);
        if (!characterized(c, MODE_LD, sm, scratch))
            return 0;
    }
    return 1;
}

static int valid(const rlk_ctx *c, int mode, const u64 *s, u64 *scratch)
{
    return mode == MODE_REDLD_DEF ? is_redld_def_core(c, s, scratch)
                                  : characterized(c, mode, s, scratch);
}

/* ---- brute force -------------------------------------------------------- */

/* Minimum valid set by cardinality then lexicographic order: returns its
 * size and writes it to out (W words), or returns -1 when no subset is
 * valid. */
static int rlk_brute_force_min(const rlk_ctx *c, int mode, u64 *out)
{
    int n = c->n, W = c->W, found = -1;
    u64 *s = malloc(W * sizeof(u64)), *scratch = scratch_new(c);
    int *idx = malloc((size_t)n * sizeof(int));
    if (!s || !scratch || !idx) {
        free(s);
        free(scratch);
        free(idx);
        return RLK_NOMEM;
    }
    for (int k = 0; k <= n && found < 0; k++) {
        for (int i = 0; i < k; i++)
            idx[i] = i;
        for (;;) {
            memset(s, 0, W * sizeof(u64));
            for (int i = 0; i < k; i++)
                set(s, idx[i]);
            if (valid(c, mode, s, scratch)) {
                memcpy(out, s, W * sizeof(u64));
                found = k;
                break;
            }
            /* next combination in lexicographic order */
            int i = k - 1;
            while (i >= 0 && idx[i] == i + n - k)
                i--;
            if (i < 0)
                break;
            idx[i]++;
            for (int j = i + 1; j < k; j++)
                idx[j] = idx[j - 1] + 1;
        }
    }
    free(scratch);
    free(idx);
    free(s);
    return found;
}

/* ---- localized pair checks ---------------------------------------------- */

static int pairs_ok_core(const rlk_ctx *c, const u64 *s, int npairs, const int *us,
                         const int *vs)
{
    if (!dominated(c, s, 2))
        return 0;
    for (int i = 0; i < npairs; i++) {
        int u = us[i], v = vs[i];
        if (get(s, u)) { /* put the out vertex first; two detectors need nothing */
            u = vs[i];
            v = us[i];
        }
        if (!get(s, u) && pair_fails(c, s, get(s, v) ? 1 : 2, u, v))
            return 0;
    }
    return 1;
}

/* Index of the first of `count` masks (W words each, back to back) that
 * 2-dominates every vertex and passes the pair conditions on (us[i], vs[i]),
 * every one a vertex; -1 when none does. */
static Py_ssize_t rlk_pairs_scan(const rlk_ctx *c, int npairs, const int *us, const int *vs,
                                 Py_ssize_t count, const u64 *masks)
{
    for (Py_ssize_t i = 0; i < count; i++)
        if (pairs_ok_core(c, masks + i * c->W, npairs, us, vs))
            return i;
    return -1;
}

/* ---- folded domination candidates --------------------------------------- */

typedef struct {
    int n, W, count, nomem;
    int exhausted; /* cleared when the node budget runs out */
    const int *off, *cons, *mult;
    int *cnt, *open; /* per constraint: chosen and undecided multiplicity */
    long long node_budget, nodes;
    u64 *chosen;
    u64 *out; /* n_out masks of W words, room for cap_out */
    size_t n_out, cap_out;
} dom_state;

static void dom_emit(dom_state *st)
{
    size_t size = (size_t)st->W * sizeof(u64);
    if (st->n_out == st->cap_out) {
        size_t cap = st->cap_out ? 2 * st->cap_out : 64;
        u64 *grown = realloc(st->out, cap * size);
        if (!grown) {
            st->nomem = 1;
            return;
        }
        st->out = grown;
        st->cap_out = cap;
    }
    memcpy(st->out + st->n_out++ * st->W, st->chosen, size);
}

/* The walk of pybits.dom_candidates, decision for decision: cell i is
 * decided at depth i, cell 0 only IN, otherwise IN before OUT; every entry
 * counts as a node, and the budget check precedes the cardinality prune. */
static void dom_dfs(dom_state *st, int i, int picked)
{
    if (!st->exhausted || st->nomem)
        return;
    st->nodes++;
    if (st->nodes > st->node_budget) {
        st->exhausted = 0;
        return;
    }
    if (picked > st->count || picked + (st->n - i) < st->count)
        return;
    if (i == st->n) {
        dom_emit(st);
        return;
    }
    for (int val = 1; val >= (i == 0 ? 1 : 0); val--) {
        int ok = 1;
        for (int k = st->off[i]; k < st->off[i + 1]; k++) {
            int v = st->cons[k], m = st->mult[k];
            st->open[v] -= m;
            if (val)
                st->cnt[v] += m;
            if (st->cnt[v] + st->open[v] < 2)
                ok = 0;
        }
        if (ok) {
            if (val)
                set(st->chosen, i);
            dom_dfs(st, i + 1, picked + val);
            if (val)
                st->chosen[i >> 6] &= ~((u64)1 << (i & 63));
        }
        for (int k = st->off[i]; k < st->off[i + 1]; k++) {
            st->open[st->cons[k]] += st->mult[k];
            if (val)
                st->cnt[st->cons[k]] -= st->mult[k];
        }
    }
}

/* Every subset of exactly `count` of the n_cells cells, cell 0 among them,
 * that leaves each of the n_cons constraints able to reach 2.  Cell c adds
 * mult[k] to constraint cons[k], which is below n_cons, for k in off[c] ..
 * off[c + 1].  On success returns 0, writes the masks (ceil(n_cells / 64)
 * words each, in walk order) to a buffer that *out points to and the caller
 * frees, their number to *n_out, and to *exhausted 1 when the walk ended
 * within node_budget nodes, 0 when it stopped early with the masks found so
 * far.  Returns RLK_NOMEM when an allocation fails, with *out NULL. */
static int rlk_dom_candidates(int n_cells, int n_cons, const int *off, const int *cons,
                              const int *mult, int count, long long node_budget, u64 **out,
                              size_t *n_out, int *exhausted)
{
    *out = NULL;
    *n_out = 0;
    *exhausted = 1;
    dom_state st = {.n = n_cells, .W = words(n_cells), .count = count, .exhausted = 1,
                    .off = off, .cons = cons, .mult = mult, .node_budget = node_budget};
    st.cnt = calloc((size_t)n_cons + 1, sizeof(int));
    st.open = calloc((size_t)n_cons + 1, sizeof(int));
    st.chosen = calloc((size_t)st.W + 1, sizeof(u64));
    if (st.cnt && st.open && st.chosen) {
        for (int k = 0; k < off[n_cells]; k++)
            st.open[cons[k]] += mult[k];
        dom_dfs(&st, 0, 0);
    } else {
        st.nomem = 1;
    }
    free(st.cnt);
    free(st.open);
    free(st.chosen);
    if (st.nomem) {
        free(st.out);
        return RLK_NOMEM;
    }
    *out = st.out;
    *n_out = st.n_out;
    *exhausted = st.exhausted;
    return 0;
}

/* ---- branch and bound --------------------------------------------------- */

/* The branch that made a node: none at the root, else the IN or the OUT
 * child of a branch vertex b. */
enum { BRANCH_ROOT, BRANCH_IN, BRANCH_OUT };

typedef struct {
    const rlk_ctx *c;
    int mode, cap, stop_at, best, cover;
    int stop; /* 1 = early stop (best <= stop_at), 2 = budget exhausted */
    long long node_budget, nodes;
    double deadline;
    u64 *best_mask;
    u64 *frames; /* per depth FRAME_ROWS rows of W words: in_m, pool, child, done */
    u64 *scratch; /* predicate scratch */
} bnb_state;

#define FRAME_ROWS 4

/* On x86-64 under glibc, dfs is compiled twice, with and without the popcnt
 * instruction, and the loader picks the version the CPU can run.  The module
 * may run on another CPU than the one that built it, so a bare -mpopcnt would
 * not be safe.  Elsewhere dfs is built once, for the compiler's default
 * target. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define POPCNT_DISPATCH __attribute__((target_clones("popcnt", "default")))
#endif
#endif
#ifndef POPCNT_DISPATCH
#define POPCNT_DISPATCH
#endif

/* One node, reached by `branch` on vertex b.  pybits.bnb recomputes every
 * count at every node and stays the check; dfs makes the same decisions but
 * re-checks only what the branch changed, by three invariants:
 *
 *  - The IN child keeps its parent's pool (the vertices not out).  Its parent
 *    passed the domination test on that pool and put in every vertex the test
 *    forces, so the IN child skips the test.
 *  - The OUT child of b drops b from the pool, which changes the counts of
 *    the vertices of N[b] only.  It tests those, in LD mode those of them that
 *    are out.  The root tests every vertex, so isolated vertices and leaves
 *    are caught there.
 *  - `done` only grows along a path, because in_m and out_m only grow.  It
 *    holds the settled vertices: in RED:LD mode those 2-dominated by in_m, in
 *    LD mode the out vertices with a neighbour in in_m.  They add nothing to
 *    the deficit.  Nor can they fail or force anything in the domination
 *    test, since in_m lies in the pool, so the test skips them too.
 *
 * A child is made only by a node that passed the pair test, on in_m after its
 * propagation, so a pair keeps that verdict unless the branch changed what
 * the verdict depends on.  The IN child of b adds the in/out pairs of b and
 * nothing else.  The OUT child drops b from the pool, which matters only to
 * the pairs with an end in N(b), adds the pairs of b, and adds the pairs of
 * the vertices its propagation put in.  The pair test is run on the pairs
 * with an end in that touched set only; in LD mode, where no in/out pair is
 * tested, the IN child tests none.
 */
POPCNT_DISPATCH
static void dfs(bnb_state *st, int depth, const u64 *in_m0, const u64 *out_m, int branch, int b)
{
    const rlk_ctx *c = st->c;
    int W = c->W, redld = st->mode == MODE_REDLD, need = redld ? 2 : 1;
    u64 *in_m = st->frames + (size_t)depth * FRAME_ROWS * W, *pool = in_m + W,
        *child = pool + W, *done = child + W;

    st->nodes++;
    if (st->node_budget && st->nodes > st->node_budget) {
        st->stop = 2;
        return;
    }
    if (st->deadline != 0 && monotime() >= st->deadline) {
        st->stop = 2;
        return;
    }
    memcpy(in_m, in_m0, W * sizeof(u64));
    complement(c, pool, out_m);
    if (branch == BRANCH_ROOT)
        memset(done, 0, W * sizeof(u64));
    else
        memcpy(done, done - FRAME_ROWS * W, W * sizeof(u64));

    /* domination feasibility and unit propagation, on the vertices whose
     * counts the branch changed, gathered in child */
    if (branch != BRANCH_IN) {
        if (branch == BRANCH_ROOT)
            complement(c, child, done); /* every vertex: nothing is done yet */
        else
            for (int w = 0; w < W; w++)
                child[w] = CLOSED(c, b)[w] & ~done[w];
        for (int w = 0; w < W; w++)
            for (u64 m = redld ? child[w] : child[w] & out_m[w]; m; m &= m - 1) {
                int v = w << 6 | __builtin_ctzll(m);
                const u64 *nb = redld ? CLOSED(c, v) : OPEN(c, v);
                int pc = 0;
                for (int x = 0; x < W; x++)
                    pc += popc(nb[x] & pool[x]);
                if (pc < need)
                    return;
                if (pc == need)
                    for (int x = 0; x < W; x++)
                        in_m[x] |= nb[x] & pool[x];
            }
    }
    int in_ct = popcount(in_m, W);
    if (in_ct > st->cap || in_ct >= st->best)
        return;

    /* pair feasibility: prune once no undecided vertex can fix a pair */
    if (branch == BRANCH_ROOT) {
        if (pairs_fail(c, st->mode, in_m, out_m, pool, NULL))
            return;
    } else if (redld || branch == BRANCH_OUT) {
        if (branch == BRANCH_IN) {
            memset(child, 0, W * sizeof(u64));
            set(child, b);
        } else {
            for (int w = 0; w < W; w++)
                child[w] = CLOSED(c, b)[w] | (in_m[w] & ~in_m0[w]);
        }
        if (pairs_fail(c, st->mode, in_m, out_m, pool, child))
            return;
    }

    /* admissible bound: each detector covers at most `cover` units of deficit.
     * Only the vertices not yet done can add to it; those that are settled
     * now join done. */
    int deficit = 0;
    if (redld)
        complement(c, child, done);
    else
        for (int w = 0; w < W; w++)
            child[w] = out_m[w] & ~done[w];
    for (int w = 0; w < W; w++)
        for (u64 m = child[w]; m; m &= m - 1) {
            int v = w << 6 | __builtin_ctzll(m);
            if (redld) {
                int have = 0;
                for (int x = 0; x < W && have < 2; x++)
                    have += popc(CLOSED(c, v)[x] & in_m[x]);
                if (have < 2)
                    deficit += 2 - have;
                else
                    set(done, v);
            } else {
                u64 acc = 0;
                for (int x = 0; x < W; x++)
                    acc |= OPEN(c, v)[x] & in_m[x];
                if (acc)
                    set(done, v);
                else
                    deficit++;
            }
        }
    int limit = st->best < st->cap + 1 ? st->best : st->cap + 1;
    if (in_ct + (deficit + st->cover - 1) / st->cover >= limit)
        return;
    if (deficit == 0 && characterized(c, st->mode, in_m, st->scratch)) {
        st->best = in_ct;
        memcpy(st->best_mask, in_m, W * sizeof(u64));
        if (st->best <= st->stop_at)
            st->stop = 1;
        return; /* any superset is larger */
    }

    /* branch: highest degree among undecided, smallest index on ties */
    int next = -1, bd = -1;
    for (int w = 0; w < W; w++)
        for (u64 m = pool[w] & ~in_m[w]; m; m &= m - 1) {
            int v = w << 6 | __builtin_ctzll(m);
            if (DEG(c)[v] > bd) {
                bd = DEG(c)[v];
                next = v;
            }
        }
    if (next < 0)
        return;
    memcpy(child, in_m, W * sizeof(u64));
    set(child, next);
    dfs(st, depth + 1, child, out_m, BRANCH_IN, next);
    if (st->stop)
        return;
    memcpy(child, out_m, W * sizeof(u64));
    set(child, next);
    dfs(st, depth + 1, in_m, child, BRANCH_OUT, next);
}

/* Branch and bound over sets S with forced_in <= S <= ~forced_out, with the
 * contract of pybits.bnb.  Returns the status (0 complete, 1 no valid set of
 * size <= cap, 2 budget exhausted) and writes the value, the witness (W
 * words) and the node count.  `timeout` is the number of seconds from now
 * after which the search stops, checked at every node; a negative timeout
 * sets no time limit. */
static int rlk_bnb(const rlk_ctx *c, int mode, const u64 *forced_in, const u64 *forced_out,
                   int cap, int stop_at, long long node_budget, double timeout, int *value,
                   u64 *witness, long long *nodes)
{
    int W = c->W;
    *value = -1;
    *nodes = 0;
    memset(witness, 0, W * sizeof(u64));
    for (int w = 0; w < W; w++)
        if (forced_in[w] & forced_out[w])
            return 1;
    bnb_state st = {.c = c, .mode = mode, .cap = cap, .stop_at = stop_at, .best = cap + 1,
                    .node_budget = node_budget};
    st.cover = mode == MODE_REDLD ? c->maxdeg + 1 : (c->maxdeg > 1 ? c->maxdeg : 1);
    if (timeout >= 0)
        st.deadline = monotime() + timeout;
    /* depth <= n: every level decides one more vertex */
    st.frames = malloc(((size_t)c->n + 1) * FRAME_ROWS * W * sizeof(u64));
    st.scratch = scratch_new(c);
    if (!st.frames || !st.scratch) {
        free(st.frames);
        free(st.scratch);
        return RLK_NOMEM;
    }
    st.best_mask = witness; /* written at each improvement, so only when best <= cap */
    dfs(&st, 0, forced_in, forced_out, BRANCH_ROOT, -1);
    if (st.best <= cap)
        *value = st.best;
    *nodes = st.nodes;
    free(st.scratch);
    free(st.frames);
    return st.stop == 2 ? 2 : st.best <= cap ? 0 : 1;
}

/* ---- CPython binding ---------------------------------------------------- *
 *
 * Every function takes positional arguments only (METH_FASTCALL) and checks
 * each one before the kernel reads it, so that no input crashes the process:
 * a context that is not a Ctx or a mask that is not an int raises TypeError,
 * and a mask that is negative or names a vertex at n or above raises
 * IndexError, as in pybits.py.  The searches (brute_force_min, pairs_scan,
 * dom_candidates, bnb) release the GIL while the kernel runs, on buffers that
 * were filled before and belong to the call. */

typedef struct {
    PyObject_HEAD
    rlk_ctx *c;
} CtxObject;

static void ctx_dealloc(PyObject *self)
{
    PyMem_Free(((CtxObject *)self)->c);
    Py_TYPE(self)->tp_free(self);
}

static PyObject *ctx_n(PyObject *self, void *closure)
{
    (void)closure;
    return PyLong_FromLong(((CtxObject *)self)->c->n);
}

static PyGetSetDef ctx_getset[] = {
    {"n", ctx_n, NULL, "number of vertices", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject CtxType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "redld._kernels._ckern.Ctx",
    .tp_basicsize = sizeof(CtxObject),
    .tp_dealloc = ctx_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .tp_doc = "A graph's neighbourhood bitsets, made by make_ctx; read-only.",
    .tp_getset = ctx_getset,
};

static int nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
    return 0;
}

static const rlk_ctx *ctx_arg(PyObject *obj)
{
    if (Py_IS_TYPE(obj, &CtxType))
        return ((CtxObject *)obj)->c;
    PyErr_Format(PyExc_TypeError, "expected a context made by this kernel's make_ctx, not %.100s",
                 Py_TYPE(obj)->tp_name);
    return NULL;
}

/* an int in lo .. hi, or -1 with OverflowError (TypeError for a non-int) */
static int int_arg(PyObject *obj, long lo, long hi, long *out)
{
    *out = PyLong_AsLong(obj);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (*out < lo || *out > hi) {
        PyErr_Format(PyExc_OverflowError, "%ld is out of the kernel's range", *out);
        return -1;
    }
    return 0;
}

static int mode_arg(PyObject *obj, int max_mode)
{
    long mode = PyLong_Check(obj) ? PyLong_AsLong(obj) : -1;
    if (mode == -1 && PyErr_Occurred())
        PyErr_Clear(); /* an int too wide for a long is no mode either */
    if (mode < 0 || mode > max_mode) {
        PyErr_Format(PyExc_ValueError, "unknown mode %R", obj);
        return -1;
    }
    return (int)mode;
}

/* Little-endian bytes to native words in place, or back: the identity on a
 * little-endian machine. */
static void le_words(u64 *m, int W)
{
#if PY_LITTLE_ENDIAN
    (void)m;
    (void)W;
#else
    for (int w = 0; w < W; w++) {
        const unsigned char *b = (const unsigned char *)(m + w);
        u64 x = 0;
        for (int k = 7; k >= 0; k--)
            x = x << 8 | b[k];
        m[w] = x;
    }
#endif
}

/* The int obj as words(n) words in m, or -1 with TypeError unless obj is an
 * int and IndexError unless 0 <= obj < 2**n.  A mask that fits a long long,
 * every mask of a graph of at most 63 vertices, takes the first branch. */
static int mask_words(PyObject *obj, int n, u64 *m)
{
    int W = words(n), overflow;
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "a mask must be an int, not %.100s", Py_TYPE(obj)->tp_name);
        return -1;
    }
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (!overflow) {
        if (v < 0 || (n < 63 && v >> n))
            goto out_of_range;
        memset(m, 0, W * sizeof(u64));
        m[0] = (u64)v;
        return 0;
    }
    if (overflow < 0 || n < 64)
        goto out_of_range;
    /* The private _PyLong_AsByteArray gained an argument in 3.13 and left the
     * public headers; 3.13 has a public replacement. */
#if PY_VERSION_HEX >= 0x030D0000
    Py_ssize_t need = PyLong_AsNativeBytes(obj, m, (Py_ssize_t)W * 8,
                                           Py_ASNATIVEBYTES_LITTLE_ENDIAN |
                                               Py_ASNATIVEBYTES_UNSIGNED_BUFFER);
    if (need < 0)
        return -1;
    if (need > (Py_ssize_t)W * 8)
        goto out_of_range;
#else
    if (_PyLong_AsByteArray((PyLongObject *)obj, (unsigned char *)m, (size_t)W * 8, 1, 0) < 0) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
        goto out_of_range;
    }
#endif
    le_words(m, W);
    if ((n & 63) && m[W - 1] >> (n & 63))
        goto out_of_range;
    return 0;
out_of_range:
    PyErr_SetString(PyExc_IndexError, "mask names a vertex out of range");
    return -1;
}

/* The W words of m as an int; m is left in little-endian byte order. */
static PyObject *words_int(u64 *m, int W)
{
    if (W == 1)
        return PyLong_FromUnsignedLongLong(m[0]);
    le_words(m, W);
#if PY_VERSION_HEX >= 0x030D0000
    return PyLong_FromUnsignedNativeBytes(m, (size_t)W * 8, Py_ASNATIVEBYTES_LITTLE_ENDIAN);
#else
    return _PyLong_FromByteArray((const unsigned char *)m, (size_t)W * 8, 1, 0);
#endif
}

/* Sequence arguments are copied into tuples (a tuple is taken as it is):
 * converting an item may run Python code (__index__), which must not resize
 * what the binding is reading. */

/* The n sequences of neighbours in the tuple rows into c: -1 with an
 * exception set when a neighbour is not an int naming a vertex. */
static int ctx_fill(rlk_ctx *c, int n, PyObject *rows)
{
    c->n = n;
    c->W = words(n);
    c->maxdeg = 0;
    memset(c->rows, 0, (size_t)n * c->W * sizeof(u64));
    for (int v = 0; v < n; v++) {
        PyObject *row = PySequence_Tuple(PyTuple_GET_ITEM(rows, v));
        if (!row)
            return -1;
        Py_ssize_t deg = PyTuple_GET_SIZE(row);
        for (Py_ssize_t i = 0; i < deg; i++) {
            long w = PyLong_AsLong(PyTuple_GET_ITEM(row, i));
            if (w == -1 && PyErr_Occurred()) {
                Py_DECREF(row);
                return -1;
            }
            if (w < 0 || w >= n) {
                Py_DECREF(row);
                PyErr_SetString(PyExc_IndexError, "vertex out of range");
                return -1;
            }
            set(OPEN(c, v), (int)w);
        }
        Py_DECREF(row);
        /* the length, duplicates included, as pybits counts it */
        DEG(c)[v] = (int)(deg < INT_MAX ? deg : INT_MAX);
        if (DEG(c)[v] > c->maxdeg)
            c->maxdeg = DEG(c)[v];
    }
    ctx_finish(c);
    return 0;
}

PyDoc_STRVAR(make_ctx_doc, "make_ctx(adj) -> Ctx\n\n"
             "The kernel's context of the graph whose vertex v has the neighbours adj[v].");

static PyObject *py_make_ctx(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (!nargs_ok("make_ctx", nargs, 1))
        return NULL;
    PyObject *rows = PySequence_Tuple(args[0]);
    if (!rows)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(rows);
    rlk_ctx *c = NULL;
    CtxObject *self = NULL;
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "the kernel needs at least one vertex");
    } else if (n > INT_MAX - 63) {
        PyErr_SetString(PyExc_OverflowError, "too many vertices for the kernel");
    } else if (!(c = PyMem_Malloc(ctx_size((int)n)))) {
        PyErr_NoMemory();
    } else if (ctx_fill(c, (int)n, rows) == 0 && (self = PyObject_New(CtxObject, &CtxType))) {
        self->c = c;
        c = NULL;
    }
    PyMem_Free(c);
    Py_DECREF(rows);
    return (PyObject *)self;
}

/* Room for a predicate's mask and scratch (3 rows) on the stack up to this
 * many words per row, 1024 vertices. */
#define STACK_WORDS 16

static PyObject *predicate(const char *name, int mode, PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok(name, nargs, 2))
        return NULL;
    const rlk_ctx *c = ctx_arg(args[0]);
    if (!c)
        return NULL;
    u64 stack[3 * STACK_WORDS], *s = stack;
    if (c->W > STACK_WORDS && !(s = PyMem_Malloc(3 * (size_t)c->W * sizeof(u64))))
        return PyErr_NoMemory();
    PyObject *result = NULL;
    if (mask_words(args[1], c->n, s) == 0)
        result = PyBool_FromLong(valid(c, mode, s, s + c->W));
    if (s != stack)
        PyMem_Free(s);
    return result;
}

PyDoc_STRVAR(is_ld_doc, "is_ld(ctx, s) -> bool\n\nWhether the mask s is an LD set.");
PyDoc_STRVAR(is_redld_doc, "is_redld(ctx, s) -> bool\n\n"
             "Whether the mask s is a RED:LD set, by conditions (i)-(iii).");
PyDoc_STRVAR(is_redld_def_doc, "is_redld_def(ctx, s) -> bool\n\n"
             "Whether the mask s is a RED:LD set, by the removal definition.");

static PyObject *py_is_ld(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    return predicate("is_ld", MODE_LD, args, nargs);
}

static PyObject *py_is_redld(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    return predicate("is_redld", MODE_REDLD, args, nargs);
}

static PyObject *py_is_redld_def(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    return predicate("is_redld_def", MODE_REDLD_DEF, args, nargs);
}

PyDoc_STRVAR(brute_force_min_doc, "brute_force_min(ctx, mode) -> (size, mask)\n\n"
             "Minimum valid set by cardinality then lexicographic order, or (-1, 0).");

static PyObject *py_brute_force_min(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (!nargs_ok("brute_force_min", nargs, 2))
        return NULL;
    const rlk_ctx *c = ctx_arg(args[0]);
    if (!c)
        return NULL;
    int mode = mode_arg(args[1], MODE_REDLD_DEF), size;
    if (mode < 0)
        return NULL;
    u64 *out = PyMem_Malloc((size_t)c->W * sizeof(u64));
    if (!out)
        return PyErr_NoMemory();
    Py_BEGIN_ALLOW_THREADS
    size = rlk_brute_force_min(c, mode, out);
    Py_END_ALLOW_THREADS
    PyObject *result = NULL;
    if (size == RLK_NOMEM)
        PyErr_NoMemory();
    else if (size < 0)
        result = Py_BuildValue("(ii)", -1, 0);
    else {
        PyObject *mask = words_int(out, c->W);
        if (mask)
            result = Py_BuildValue("(iN)", size, mask);
    }
    PyMem_Free(out);
    return result;
}

/* The ints of the tuple seq as vertices of c in out. */
static int vertex_list(const rlk_ctx *c, PyObject *seq, int *out)
{
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(seq); i++) {
        long v = PyLong_AsLong(PyTuple_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < 0 || v >= c->n) {
            PyErr_SetString(PyExc_IndexError, "vertex out of range");
            return -1;
        }
        out[i] = (int)v;
    }
    return 0;
}

PyDoc_STRVAR(pairs_scan_doc, "pairs_scan(ctx, us, vs, candidates) -> int\n\n"
             "Index of the first candidate mask that 2-dominates every vertex and passes\n"
             "the pair conditions on every (us[i], vs[i]), or -1.  Every candidate is\n"
             "range-checked before the scan.");

static PyObject *py_pairs_scan(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (!nargs_ok("pairs_scan", nargs, 4))
        return NULL;
    const rlk_ctx *c = ctx_arg(args[0]);
    if (!c)
        return NULL;
    PyObject *us = PySequence_Tuple(args[1]);
    PyObject *vs = us ? PySequence_Tuple(args[2]) : NULL;
    PyObject *cands = vs ? PySequence_Tuple(args[3]) : NULL;
    PyObject *result = NULL;
    u64 *masks = NULL;
    int *ends = NULL;
    if (!cands)
        goto done;
    Py_ssize_t npairs = PyTuple_GET_SIZE(us), count = PyTuple_GET_SIZE(cands);
    if (npairs != PyTuple_GET_SIZE(vs)) {
        PyErr_SetString(PyExc_ValueError, "us and vs differ in length");
        goto done;
    }
    if (npairs > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "too many pairs for the kernel");
        goto done;
    }
    masks = PyMem_Malloc((size_t)(count ? count : 1) * c->W * sizeof(u64));
    ends = PyMem_Malloc((size_t)(npairs ? npairs : 1) * 2 * sizeof(int));
    if (!masks || !ends) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < count; i++)
        if (mask_words(PyTuple_GET_ITEM(cands, i), c->n, masks + i * c->W) < 0)
            goto done;
    if (vertex_list(c, us, ends) < 0 || vertex_list(c, vs, ends + npairs) < 0)
        goto done;
    Py_ssize_t hit;
    Py_BEGIN_ALLOW_THREADS
    hit = rlk_pairs_scan(c, (int)npairs, ends, ends + npairs, count, masks);
    Py_END_ALLOW_THREADS
    result = PyLong_FromSsize_t(hit);
done:
    PyMem_Free(masks);
    PyMem_Free(ends);
    Py_XDECREF(us);
    Py_XDECREF(vs);
    Py_XDECREF(cands);
    return result;
}

/* One cell's (constraint, multiplicity) pairs appended to cons and mult,
 * which grow by doubling cap; n_cons rises past every constraint seen. */
static int touch_cell(PyObject *cell, int **cons, int **mult, int *len, int *cap, int *n_cons)
{
    PyObject *items = PySequence_Tuple(cell);
    if (!items)
        return -1;
    int rc = -1;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(items); i++) {
        PyObject *pair = PySequence_Tuple(PyTuple_GET_ITEM(items, i));
        if (!pair)
            goto done;
        long v = 0, m = 0;
        int bad = PyTuple_GET_SIZE(pair) != 2;
        if (bad)
            PyErr_SetString(PyExc_ValueError, "each entry of a cell needs to be a pair");
        else
            bad = int_arg(PyTuple_GET_ITEM(pair, 0), LONG_MIN, INT_MAX - 1, &v) < 0 ||
                  int_arg(PyTuple_GET_ITEM(pair, 1), INT_MIN, INT_MAX, &m) < 0;
        Py_DECREF(pair);
        if (bad)
            goto done;
        if (v < 0) {
            PyErr_SetString(PyExc_IndexError, "vertex out of range");
            goto done;
        }
        if (*len == *cap) {
            if (*cap > INT_MAX / 2) {
                PyErr_NoMemory();
                goto done;
            }
            *cap *= 2;
            int *grown_cons = PyMem_Realloc(*cons, (size_t)*cap * sizeof(int));
            if (grown_cons)
                *cons = grown_cons;
            int *grown_mult = PyMem_Realloc(*mult, (size_t)*cap * sizeof(int));
            if (grown_mult)
                *mult = grown_mult;
            if (!grown_cons || !grown_mult) {
                PyErr_NoMemory();
                goto done;
            }
        }
        (*cons)[*len] = (int)v;
        (*mult)[(*len)++] = (int)m;
        if (v >= *n_cons)
            *n_cons = (int)v + 1;
    }
    rc = 0;
done:
    Py_DECREF(items);
    return rc;
}

PyDoc_STRVAR(dom_candidates_doc, "dom_candidates(touch, count, node_budget) -> (masks, exhausted)\n\n"
             "The walk of pybits.dom_candidates over the len(touch) cells.");

static PyObject *py_dom_candidates(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (!nargs_ok("dom_candidates", nargs, 3))
        return NULL;
    long count;
    long long node_budget = PyLong_AsLongLong(args[2]);
    if ((node_budget == -1 && PyErr_Occurred()) || int_arg(args[1], 0, INT_MAX, &count) < 0)
        return NULL;
    PyObject *cells = PySequence_Tuple(args[0]);
    if (!cells)
        return NULL;
    Py_ssize_t n_cells = PyTuple_GET_SIZE(cells);
    PyObject *result = NULL, *list = NULL;
    int len = 0, cap = 64, n_cons = 0, *off = NULL;
    int *cons = PyMem_Malloc(cap * sizeof(int)), *mult = PyMem_Malloc(cap * sizeof(int));
    u64 *out = NULL;
    if (n_cells < 1 || n_cells > INT_MAX - 63) {
        PyErr_SetString(PyExc_ValueError, "touch needs one list per cell and at least one cell");
        goto done;
    }
    if (!cons || !mult || !(off = PyMem_Malloc((size_t)(n_cells + 1) * sizeof(int)))) {
        PyErr_NoMemory();
        goto done;
    }
    off[0] = 0;
    for (Py_ssize_t i = 0; i < n_cells; i++) {
        if (touch_cell(PyTuple_GET_ITEM(cells, i), &cons, &mult, &len, &cap, &n_cons) < 0)
            goto done;
        off[i + 1] = len;
    }
    int code, exhausted;
    size_t n_out;
    Py_BEGIN_ALLOW_THREADS
    code = rlk_dom_candidates((int)n_cells, n_cons, off, cons, mult, (int)count, node_budget,
                              &out, &n_out, &exhausted);
    Py_END_ALLOW_THREADS
    if (code == RLK_NOMEM) {
        PyErr_NoMemory();
        goto done;
    }
    int W = words((int)n_cells);
    if (!(list = PyList_New((Py_ssize_t)n_out)))
        goto done;
    for (size_t i = 0; i < n_out; i++) {
        PyObject *mask = words_int(out + i * W, W);
        if (!mask)
            goto done;
        PyList_SET_ITEM(list, (Py_ssize_t)i, mask);
    }
    result = Py_BuildValue("(OO)", list, exhausted ? Py_True : Py_False);
done:
    Py_XDECREF(list);
    free(out);
    PyMem_Free(off);
    PyMem_Free(cons);
    PyMem_Free(mult);
    Py_DECREF(cells);
    return result;
}

PyDoc_STRVAR(bnb_doc, "bnb(ctx, mode, forced_in, forced_out, cap, stop_at, node_budget, timeout)\n"
             "-> (status, value, witness, nodes)\n\n"
             "pybits.bnb, with the time limit given as the seconds left (negative: none)\n"
             "in place of a deadline.");

static PyObject *py_bnb(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (!nargs_ok("bnb", nargs, 8))
        return NULL;
    const rlk_ctx *c = ctx_arg(args[0]);
    if (!c)
        return NULL;
    int mode = mode_arg(args[1], MODE_REDLD);
    long cap, stop_at;
    if (mode < 0 || int_arg(args[4], INT_MIN, INT_MAX - 1, &cap) < 0 ||
        int_arg(args[5], INT_MIN, INT_MAX, &stop_at) < 0)
        return NULL;
    long long node_budget = PyLong_AsLongLong(args[6]);
    if (node_budget == -1 && PyErr_Occurred())
        return NULL;
    double timeout = PyFloat_AsDouble(args[7]);
    if (timeout == -1.0 && PyErr_Occurred())
        return NULL;
    u64 *buf = PyMem_Malloc(3 * (size_t)c->W * sizeof(u64));
    if (!buf)
        return PyErr_NoMemory();
    u64 *forced_in = buf, *forced_out = buf + c->W, *witness = buf + 2 * c->W;
    PyObject *result = NULL;
    if (mask_words(args[2], c->n, forced_in) < 0 || mask_words(args[3], c->n, forced_out) < 0)
        goto done;
    int status, value;
    long long nodes;
    Py_BEGIN_ALLOW_THREADS
    status = rlk_bnb(c, mode, forced_in, forced_out, (int)cap, (int)stop_at, node_budget,
                     timeout, &value, witness, &nodes);
    Py_END_ALLOW_THREADS
    if (status == RLK_NOMEM) {
        PyErr_NoMemory();
        goto done;
    }
    PyObject *mask = words_int(witness, c->W);
    if (mask)
        result = Py_BuildValue("(iiNL)", status, value, mask, nodes);
done:
    PyMem_Free(buf);
    return result;
}

#define FASTCALL(fn) (PyCFunction)(void (*)(void))(fn), METH_FASTCALL

static PyMethodDef methods[] = {
    {"make_ctx", FASTCALL(py_make_ctx), make_ctx_doc},
    {"is_ld", FASTCALL(py_is_ld), is_ld_doc},
    {"is_redld", FASTCALL(py_is_redld), is_redld_doc},
    {"is_redld_def", FASTCALL(py_is_redld_def), is_redld_def_doc},
    {"brute_force_min", FASTCALL(py_brute_force_min), brute_force_min_doc},
    {"pairs_scan", FASTCALL(py_pairs_scan), pairs_scan_doc},
    {"dom_candidates", FASTCALL(py_dom_candidates), dom_candidates_doc},
    {"bnb", FASTCALL(py_bnb), bnb_doc},
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *mod)
{
    if (PyType_Ready(&CtxType) < 0)
        return -1;
    return PyModule_AddObjectRef(mod, "Ctx", (PyObject *)&CtxType);
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, (void *)exec_module},
    {0, NULL},
};

static struct PyModuleDef moddef = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckern",
    .m_doc = "The C kernel of redld; see _ckern.py.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__ckern(void)
{
    return PyModuleDef_Init(&moddef);
}
