/* Compiled kernel backend: the algorithms of pybits.py on multi-word bitsets.
 *
 * Plain C with no Python headers; _ckern.py builds it into a shared library
 * and calls it through ctypes.  The decision order of the branch and bound
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
 * Vertex sets are arrays of W = ceil(n / 64) little-endian 64-bit words.  At
 * the interface they are byte strings of 8 * W bytes, least significant byte
 * first (Python's int.to_bytes(8 * W, "little")).
 *
 * A context is written once by rlk_ctx_init into memory the caller owns and
 * is only read afterwards.  Every other entry point allocates its scratch per
 * call, so concurrent calls on one context are safe.  Entry points that
 * allocate return RLK_NOMEM when malloc fails.  rlk_dom_candidates needs no
 * context and hands back a buffer of its own, which rlk_free releases.
 */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef uint64_t u64;

#define RLK_NOMEM (-3)
#define RLK_RANGE (-4)

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

static void load(u64 *dst, const unsigned char *src, int W)
{
    for (int w = 0; w < W; w++) {
        u64 x = 0;
        for (int k = 7; k >= 0; k--)
            x = x << 8 | src[8 * w + k];
        dst[w] = x;
    }
}

static void store(unsigned char *dst, const u64 *src, int W)
{
    for (int w = 0; w < W; w++)
        for (int k = 0; k < 8; k++)
            dst[8 * w + k] = (unsigned char)(src[w] >> (8 * k));
}

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

size_t rlk_ctx_size(int n)
{
    return sizeof(rlk_ctx) + 3 * (size_t)n * words(n) * sizeof(u64) + (size_t)n * sizeof(int);
}

/* Vertex v's neighbours are nbrs[off .. off + deg[v]), offsets running in
 * vertex order.  Returns RLK_RANGE when a neighbour is not a vertex. */
int rlk_ctx_init(rlk_ctx *c, int n, const int *deg, const int *nbrs)
{
    c->n = n;
    c->W = words(n);
    c->maxdeg = 0;
    memset(c->rows, 0, 2 * (size_t)n * c->W * sizeof(u64));
    size_t off = 0;
    for (int v = 0; v < n; v++) {
        DEG(c)[v] = deg[v];
        if (deg[v] > c->maxdeg)
            c->maxdeg = deg[v];
        for (int i = 0; i < deg[v]; i++, off++) {
            if (nbrs[off] < 0 || nbrs[off] >= n)
                return RLK_RANGE;
            set(OPEN(c, v), nbrs[off]);
        }
    }
    memcpy(CLOSED(c, 0), OPEN(c, 0), (size_t)n * c->W * sizeof(u64));
    for (int v = 0; v < n; v++)
        set(CLOSED(c, v), v);
    /* NEAR(v) is the union of N[w] over w in N[v] */
    memcpy(NEAR(c, 0), CLOSED(c, 0), (size_t)n * c->W * sizeof(u64));
    off = 0;
    for (int v = 0; v < n; v++)
        for (int i = 0; i < deg[v]; i++, off++)
            for (int w = 0; w < c->W; w++)
                NEAR(c, v)[w] |= CLOSED(c, nbrs[off])[w];
    return 0;
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

/* 1 or 0 for the predicate of `mode` on `mask`, or RLK_NOMEM */
int rlk_check(const rlk_ctx *c, int mode, const unsigned char *mask)
{
    u64 *s = malloc(c->W * sizeof(u64)), *scratch = scratch_new(c);
    if (!s || !scratch) {
        free(s);
        free(scratch);
        return RLK_NOMEM;
    }
    load(s, mask, c->W);
    int ok = valid(c, mode, s, scratch);
    free(scratch);
    free(s);
    return ok;
}

/* ---- brute force -------------------------------------------------------- */

/* Minimum valid set by cardinality then lexicographic order: returns its
 * size and writes it to out, or returns -1 when no subset is valid. */
int rlk_brute_force_min(const rlk_ctx *c, int mode, unsigned char *out)
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
                store(out, s, W);
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

static int pairs_in_range(const rlk_ctx *c, int npairs, const int *us, const int *vs)
{
    for (int i = 0; i < npairs; i++)
        if (us[i] < 0 || us[i] >= c->n || vs[i] < 0 || vs[i] >= c->n)
            return 0;
    return 1;
}

/* Index of the first of `count` masks (8 * W bytes each, back to back) that
 * 2-dominates every vertex and passes the pair conditions on (us[i], vs[i]);
 * -1 when none does, RLK_RANGE when a pair names no vertex. */
long rlk_pairs_scan(const rlk_ctx *c, int npairs, const int *us, const int *vs, long count,
                    const unsigned char *masks)
{
    if (!pairs_in_range(c, npairs, us, vs))
        return RLK_RANGE;
    u64 *s = malloc(c->W * sizeof(u64));
    if (!s)
        return RLK_NOMEM;
    long hit = -1;
    for (long i = 0; i < count && hit < 0; i++) {
        load(s, masks + (size_t)i * 8 * c->W, c->W);
        if (pairs_ok_core(c, s, npairs, us, vs))
            hit = i;
    }
    free(s);
    return hit;
}

/* ---- folded domination candidates --------------------------------------- */

typedef struct {
    int n, W, count, nomem;
    int exhausted; /* cleared when the node budget runs out */
    const int *off, *cons, *mult;
    int *cnt, *open; /* per constraint: chosen and undecided multiplicity */
    long long node_budget, nodes;
    u64 *chosen;
    unsigned char *out; /* n_out masks of 8 * W bytes, room for cap_out */
    size_t n_out, cap_out;
} dom_state;

static void dom_emit(dom_state *st)
{
    size_t size = 8 * (size_t)st->W;
    if (st->n_out == st->cap_out) {
        size_t cap = st->cap_out ? 2 * st->cap_out : 64;
        unsigned char *grown = realloc(st->out, cap * size);
        if (!grown) {
            st->nomem = 1;
            return;
        }
        st->out = grown;
        st->cap_out = cap;
    }
    store(st->out + st->n_out++ * size, st->chosen, st->W);
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
 * mult[k] to constraint cons[k] for k in off[c] .. off[c + 1].  On success
 * returns 0, writes the masks (8 * ceil(n_cells / 64) bytes each, in walk
 * order) to a buffer that *out points to and the caller releases with
 * rlk_free, their number to *n_out, and to *exhausted 1 when the walk ended
 * within node_budget nodes, 0 when it stopped early with the masks found so
 * far.  Returns RLK_RANGE when a constraint index is out of range and
 * RLK_NOMEM when an allocation fails, with *out NULL in both cases. */
int rlk_dom_candidates(int n_cells, int n_cons, const int *off, const int *cons,
                       const int *mult, int count, long long node_budget, unsigned char **out,
                       long *n_out, int *exhausted)
{
    *out = NULL;
    *n_out = 0;
    *exhausted = 1;
    for (int k = 0; k < off[n_cells]; k++)
        if (cons[k] < 0 || cons[k] >= n_cons)
            return RLK_RANGE;
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
    *n_out = (long)st.n_out;
    *exhausted = st.exhausted;
    return 0;
}

void rlk_free(void *p)
{
    free(p);
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
 * instruction, and the loader picks the version the CPU can run.  The library
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
    if (st->deadline != 0 && st->nodes % 1024 == 0 && monotime() > st->deadline) {
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
 * size <= cap, 2 budget exhausted) and writes the value, the witness and the
 * node count.  `timeout` is the number of seconds from now after which the
 * search stops; a negative timeout sets no time limit. */
int rlk_bnb(const rlk_ctx *c, int mode, const unsigned char *forced_in,
            const unsigned char *forced_out, int cap, int stop_at, long long node_budget,
            double timeout, int *value, unsigned char *witness, long long *nodes)
{
    int W = c->W;
    *value = -1;
    *nodes = 0;
    memset(witness, 0, 8 * (size_t)W);
    for (size_t i = 0; i < 8 * (size_t)W; i++)
        if (forced_in[i] & forced_out[i])
            return 1;
    bnb_state st = {.c = c, .mode = mode, .cap = cap, .stop_at = stop_at, .best = cap + 1,
                    .node_budget = node_budget};
    st.cover = mode == MODE_REDLD ? c->maxdeg + 1 : (c->maxdeg > 1 ? c->maxdeg : 1);
    if (timeout >= 0)
        st.deadline = monotime() + timeout;
    u64 *masks = malloc((size_t)W * 3 * sizeof(u64));
    /* depth <= n: every level decides one more vertex */
    st.frames = malloc(((size_t)c->n + 1) * FRAME_ROWS * W * sizeof(u64));
    st.scratch = scratch_new(c);
    if (!masks || !st.frames || !st.scratch) {
        free(masks);
        free(st.frames);
        free(st.scratch);
        return RLK_NOMEM;
    }
    u64 *in_m = masks, *out_m = masks + W;
    st.best_mask = masks + 2 * W;
    load(in_m, forced_in, W);
    load(out_m, forced_out, W);
    dfs(&st, 0, in_m, out_m, BRANCH_ROOT, -1);
    if (st.best <= cap) {
        *value = st.best;
        store(witness, st.best_mask, W);
    }
    *nodes = st.nodes;
    free(st.scratch);
    free(st.frames);
    free(masks);
    return st.stop == 2 ? 2 : st.best <= cap ? 0 : 1;
}
