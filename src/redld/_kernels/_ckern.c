/* Compiled kernel backend: the algorithms of pybits.py on multi-word bitsets.
 *
 * Plain C with no Python headers; _ckern.py builds it into a shared library
 * and calls it through ctypes.  The decision order of the branch and bound
 * (propagation, pruning, bound, branch choice, IN branch first) is transcribed
 * from pybits.py, so optima, witnesses and node counts are identical, and so
 * is the walk of the grid candidate search, whose candidate lists and
 * budget-limited prefixes therefore come out in the same order.  One
 * difference in the work, not in the result: where pybits tests every vertex
 * pair for the pair conditions, dfs tests only pairs within distance 2 of each
 * other, because at a node that passed the domination test a pair at distance
 * 3 or more cannot fail them (the argument is above the pair loops in dfs).
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

#define MODE_REDLD 1

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

/* ---- predicates --------------------------------------------------------- */

/* Predicates take scratch of n + 1 trace rows (W words each). */
static u64 *scratch_new(const rlk_ctx *c)
{
    return malloc(((size_t)c->n + 1) * c->W * sizeof(u64));
}

/* traces of non-detectors are nonempty and pairwise distinct */
static int is_ld_core(const rlk_ctx *c, const u64 *s, u64 *tr)
{
    int n = c->n, W = c->W, cnt = 0;
    for (int v = 0; v < n; v++) {
        if (get(s, v))
            continue;
        u64 acc = 0;
        for (int w = 0; w < W; w++)
            acc |= tr[cnt * W + w] = OPEN(c, v)[w] & s[w];
        if (!acc)
            return 0;
        cnt++;
    }
    for (int i = 0; i < cnt; i++)
        for (int j = i + 1; j < cnt; j++)
            if (!memcmp(tr + (size_t)i * W, tr + (size_t)j * W, W * sizeof(u64)))
                return 0;
    return 1;
}

static int is_redld_core(const rlk_ctx *c, const u64 *s, u64 *tr)
{
    int n = c->n, W = c->W, cnt = 0;
    u64 *tv = tr + (size_t)n * W;
    for (int v = 0; v < n; v++) {
        int pc = 0;
        for (int w = 0; w < W; w++)
            pc += popc(CLOSED(c, v)[w] & s[w]);
        if (pc < 2)
            return 0;
    }
    for (int v = 0; v < n; v++) {
        if (get(s, v))
            continue;
        for (int w = 0; w < W; w++)
            tr[cnt * W + w] = OPEN(c, v)[w] & s[w];
        cnt++;
    }
    for (int i = 0; i < cnt; i++)
        for (int j = i + 1; j < cnt; j++) {
            int pc = 0;
            for (int w = 0; w < W && pc < 2; w++)
                pc += popc(tr[i * W + w] ^ tr[j * W + w]);
            if (pc < 2)
                return 0;
        }
    for (int v = 0; v < n; v++) {
        if (!get(s, v))
            continue;
        for (int w = 0; w < W; w++)
            tv[w] = OPEN(c, v)[w] & s[w];
        for (int j = 0; j < cnt; j++) {
            u64 d = 0;
            for (int w = 0; w < W; w++) {
                u64 x = tv[w] ^ tr[j * W + w];
                d |= w == v >> 6 ? x & ~((u64)1 << (v & 63)) : x;
            }
            if (!d)
                return 0;
        }
    }
    return 1;
}

/* LD, and still LD after removing any one detector */
static int is_redld_def_core(const rlk_ctx *c, const u64 *s, u64 *tr)
{
    if (!is_ld_core(c, s, tr))
        return 0;
    u64 *sm = tr + (size_t)c->n * c->W; /* is_ld_core uses rows < n only */
    for (int v = 0; v < c->n; v++) {
        if (!get(s, v))
            continue;
        memcpy(sm, s, c->W * sizeof(u64));
        sm[v >> 6] ^= (u64)1 << (v & 63);
        if (!is_ld_core(c, sm, tr))
            return 0;
    }
    return 1;
}

typedef int (*predicate)(const rlk_ctx *, const u64 *, u64 *);

static const predicate predicates[3] = {is_ld_core, is_redld_core, is_redld_def_core};

/* 1 or 0 for the predicate of `mode` on `mask`, or RLK_NOMEM */
int rlk_check(const rlk_ctx *c, int mode, const unsigned char *mask)
{
    u64 *s = malloc(c->W * sizeof(u64)), *tr = scratch_new(c);
    if (!s || !tr) {
        free(s);
        free(tr);
        return RLK_NOMEM;
    }
    load(s, mask, c->W);
    int ok = predicates[mode](c, s, tr);
    free(tr);
    free(s);
    return ok;
}

/* ---- brute force -------------------------------------------------------- */

/* Minimum valid set by cardinality then lexicographic order: returns its
 * size and writes it to out, or returns -1 when no subset is valid. */
int rlk_brute_force_min(const rlk_ctx *c, int mode, unsigned char *out)
{
    int n = c->n, W = c->W, found = -1;
    u64 *s = malloc(W * sizeof(u64)), *tr = scratch_new(c);
    int *idx = malloc((size_t)n * sizeof(int));
    if (!s || !tr || !idx) {
        free(s);
        free(tr);
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
            if (predicates[mode](c, s, tr)) {
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
    free(tr);
    free(idx);
    free(s);
    return found;
}

/* ---- localized pair checks ---------------------------------------------- */

static int pairs_ok_core(const rlk_ctx *c, const u64 *s, int npairs, const int *us,
                         const int *vs)
{
    int n = c->n, W = c->W;
    for (int v = 0; v < n; v++) {
        int pc = 0;
        for (int w = 0; w < W; w++)
            pc += popc(CLOSED(c, v)[w] & s[w]);
        if (pc < 2)
            return 0;
    }
    for (int i = 0; i < npairs; i++) {
        int u = us[i], v = vs[i];
        int du = get(s, u), dv = get(s, v);
        if (du && dv)
            continue;
        const u64 *ou = OPEN(c, u), *ov = OPEN(c, v);
        if (du || dv) {
            int det = du ? u : v;
            u64 d = 0;
            for (int w = 0; w < W; w++) {
                u64 x = (ou[w] ^ ov[w]) & s[w];
                d |= w == det >> 6 ? x & ~((u64)1 << (det & 63)) : x;
            }
            if (!d)
                return 0;
        } else {
            int pc = 0;
            for (int w = 0; w < W && pc < 2; w++)
                pc += popc((ou[w] ^ ov[w]) & s[w]);
            if (pc < 2)
                return 0;
        }
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

typedef struct {
    const rlk_ctx *c;
    int mode, cap, stop_at, best, cover;
    int stop; /* 1 = early stop (best <= stop_at), 2 = budget exhausted */
    long long node_budget, nodes;
    double deadline;
    u64 *best_mask;
    u64 *frames; /* per depth: in_m, pool, child (W words each) */
    u64 *tr;    /* predicate scratch */
} bnb_state;

static void dfs(bnb_state *st, int depth, const u64 *in_m0, const u64 *out_m)
{
    const rlk_ctx *c = st->c;
    int n = c->n, W = c->W;
    u64 *in_m = st->frames + (size_t)depth * 3 * W, *pool = in_m + W, *child = pool + W;

    st->nodes++;
    if (st->node_budget && st->nodes > st->node_budget) {
        st->stop = 2;
        return;
    }
    if (st->deadline != 0 && st->nodes % 1024 == 0 && monotime() > st->deadline) {
        st->stop = 2;
        return;
    }
    for (int w = 0; w < W; w++) {
        in_m[w] = in_m0[w];
        pool[w] = ~out_m[w];
    }
    if (n & 63)
        pool[W - 1] &= ((u64)1 << (n & 63)) - 1;

    /* domination feasibility and unit propagation */
    if (st->mode == MODE_REDLD) {
        for (int v = 0; v < n; v++) {
            int pc = 0;
            for (int w = 0; w < W; w++)
                pc += popc(CLOSED(c, v)[w] & pool[w]);
            if (pc < 2)
                return;
            if (pc == 2)
                for (int w = 0; w < W; w++)
                    in_m[w] |= CLOSED(c, v)[w] & pool[w];
        }
    } else {
        for (int v = 0; v < n; v++) {
            if (!get(out_m, v))
                continue;
            int pc = 0;
            for (int w = 0; w < W; w++)
                pc += popc(OPEN(c, v)[w] & pool[w]);
            if (pc == 0)
                return;
            if (pc == 1)
                for (int w = 0; w < W; w++)
                    in_m[w] |= OPEN(c, v)[w] & pool[w];
        }
    }
    int in_ct = popcount(in_m, W);
    if (in_ct > st->cap || in_ct >= st->best)
        return;

    /* pair feasibility: prune once no undecided vertex can fix a pair.
     *
     * Only pairs within distance 2 are tested.  Two vertices u, v at distance
     * 3 or more have disjoint open neighbourhoods, and neither is adjacent to
     * the other, so (N(u) ^ N(v)) & pool is the disjoint union of N(u) & pool
     * and N(v) & pool.  The domination test above has already guaranteed, for
     * every out vertex u, |N(u) & pool| >= 1 in LD mode and, since u is not in
     * the pool, |N[u] & pool| = |N(u) & pool| >= 2 in RED:LD mode.  So an
     * out/out pair at distance >= 3 sees at least 2 pool vertices, enough in
     * both modes, and an in/out pair (v in, u out) keeps N(u) & pool, which
     * does not contain v, after v is dropped.  Skipping such pairs changes no
     * verdict, and pybits, which tests all pairs, still counts the same
     * nodes. */
    for (int wu = 0; wu < W; wu++)
        for (u64 mu = out_m[wu]; mu; mu &= mu - 1) {
            int u = wu << 6 | __builtin_ctzll(mu);
            const u64 *ou = OPEN(c, u), *nu = NEAR(c, u);
            for (int wv = wu; wv < W; wv++) {
                u64 mv = nu[wv] & out_m[wv];
                if (wv == wu)
                    mv &= (~(u64)1) << (u & 63); /* only v above u */
                for (; mv; mv &= mv - 1) {
                    const u64 *ov = OPEN(c, wv << 6 | __builtin_ctzll(mv));
                    int pc = 0;
                    for (int w = 0; w < W && pc < 2; w++)
                        pc += popc((ou[w] ^ ov[w]) & pool[w]);
                    if (pc < (st->mode == MODE_REDLD ? 2 : 1))
                        return;
                }
            }
        }
    if (st->mode == MODE_REDLD) {
        for (int wv = 0; wv < W; wv++)
            for (u64 mv = in_m[wv]; mv; mv &= mv - 1) {
                int v = wv << 6 | __builtin_ctzll(mv);
                const u64 *ov = OPEN(c, v), *nv = NEAR(c, v);
                for (int wu = 0; wu < W; wu++)
                    for (u64 mu = nv[wu] & out_m[wu]; mu; mu &= mu - 1) {
                        const u64 *ou = OPEN(c, wu << 6 | __builtin_ctzll(mu));
                        u64 d = 0;
                        for (int w = 0; w < W && !d; w++) {
                            u64 x = (ov[w] ^ ou[w]) & pool[w];
                            d = w == v >> 6 ? x & ~((u64)1 << (v & 63)) : x;
                        }
                        if (!d)
                            return;
                    }
            }
    }

    /* admissible bound: each detector covers at most `cover` units of deficit */
    int deficit = 0;
    if (st->mode == MODE_REDLD) {
        for (int v = 0; v < n; v++) {
            int have = 0;
            for (int w = 0; w < W && have < 2; w++)
                have += popc(CLOSED(c, v)[w] & in_m[w]);
            if (have < 2)
                deficit += 2 - have;
        }
    } else {
        for (int u = 0; u < n; u++) {
            if (!get(out_m, u))
                continue;
            u64 acc = 0;
            for (int w = 0; w < W; w++)
                acc |= OPEN(c, u)[w] & in_m[w];
            if (!acc)
                deficit++;
        }
    }
    int limit = st->best < st->cap + 1 ? st->best : st->cap + 1;
    if (in_ct + (deficit + st->cover - 1) / st->cover >= limit)
        return;
    if (deficit == 0 && (st->mode == MODE_REDLD ? is_redld_core(c, in_m, st->tr)
                                                : is_ld_core(c, in_m, st->tr))) {
        st->best = in_ct;
        memcpy(st->best_mask, in_m, W * sizeof(u64));
        if (st->best <= st->stop_at)
            st->stop = 1;
        return; /* any superset is larger */
    }

    /* branch: highest degree among undecided, smallest index on ties */
    int b = -1, bd = -1;
    for (int v = 0; v < n; v++)
        if (get(pool, v) && !get(in_m, v) && DEG(c)[v] > bd) {
            bd = DEG(c)[v];
            b = v;
        }
    if (b < 0)
        return;
    memcpy(child, in_m, W * sizeof(u64));
    set(child, b);
    dfs(st, depth + 1, child, out_m);
    if (st->stop)
        return;
    memcpy(child, out_m, W * sizeof(u64));
    set(child, b);
    dfs(st, depth + 1, in_m, child);
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
    st.frames = malloc(((size_t)c->n + 1) * 3 * W * sizeof(u64));
    st.tr = scratch_new(c);
    if (!masks || !st.frames || !st.tr) {
        free(masks);
        free(st.frames);
        free(st.tr);
        return RLK_NOMEM;
    }
    u64 *in_m = masks, *out_m = masks + W;
    st.best_mask = masks + 2 * W;
    load(in_m, forced_in, W);
    load(out_m, forced_out, W);
    dfs(&st, 0, in_m, out_m);
    if (st.best <= cap) {
        *value = st.best;
        store(witness, st.best_mask, W);
    }
    *nodes = st.nodes;
    free(st.tr);
    free(st.frames);
    free(masks);
    return st.stop == 2 ? 2 : st.best <= cap ? 0 : 1;
}
