/* Compiled kernel backend: the algorithms of pybits.py on multi-word bitsets.
 *
 * A hand-written CPython extension module (multi-phase init, METH_FASTCALL
 * functions, no Cython); _ckern.py builds it with _build.py, loads it and
 * re-exports its functions, which callers reach with no Python frame between.
 * The kernel proper (every rlk_* entry point and what it calls) knows nothing
 * of Python; the binding at the end converts the arguments, makes every check
 * that pybits.py makes and raises the same exceptions.
 *
 * The decision order of the branch and bound
 * (propagation, pruning, bound, branch choice, IN branch first) is transcribed
 * from pybits.py, so optima, witnesses and node counts are identical, and so
 * is the walk of the grid candidate search, whose candidate lists and
 * budget-limited prefixes therefore come out in the same order.
 *
 * That walk takes a lattice kind, whose neighbour steps it reads from
 * LATTICES, a static twin of pybits.LATTICES, and the w x h domain, and
 * folds everything else itself: the closed-neighbourhood constraints, which
 * prune it, and conditions (ii)/(iii) of every vertex pair within distance 2,
 * which it tests at each leaf.  So every candidate it returns is a valid
 * periodic pattern, and grid search builds a verification torus only to
 * certify the pattern it returns.  The pair conditions are folded at the
 * first leaf and checked at the leaves only: most domains reach no leaf, the
 * walk's nodes, and so where a budget cuts it, stay those of the domination
 * walk, and a prototype that checked each condition at its last decided
 * cell walked fewer nodes but ran slower on the searched domains.
 *
 * On a graph's context the pair conditions (ii)/(iii) are written once, in
 * pair_fails and pairs_fail, which the predicates, pairs_ok_core and dfs call.
 * The grid walk states them again, folded onto its domain, in pairs_hold (as
 * pybits does in _pairs_hold): a cell there stands for all its translates, so
 * N(u) ^ N(v) is a list of cells with multiplicities, which no context's rows
 * express, and a leaf is judged on the infinite lattice without a torus.  One
 * difference in the work, not in the result: where pybits tests every vertex
 * pair, pairs_fail tests only pairs within distance 2 of each other, in the
 * predicates as in dfs, because once the domination test has passed a pair at
 * distance 3 or more cannot fail (the argument is above pairs_fail).
 *
 * The other difference in the work is in the branch and bound.  pybits.bnb
 * recomputes every count at every node and stays the check; dfs re-checks
 * only what the branch into a node changed, on three invariants (argued above
 * dfs_node): the IN child keeps its parent's pool, so its domination test can
 * change nothing; the OUT child of b changes the counts on N[b] only; and the
 * settled vertices of a node, kept in its `done` row, only grow along a path.
 * The pairs a node tests are likewise those with an end that the branch or
 * its propagation touched.
 *
 * The tree functions, tree_code and tree_orbits, peel a tree down to its
 * centres as pybits._peel does and build the same rooted codes, as byte
 * strings; the orbits then follow from the sorted children's codes alone.
 *
 * Vertex sets are arrays of W = ceil(n / 64) 64-bit words, vertex v at bit
 * v & 63 of word v >> 6.  In Python they are ints, bit v for vertex v; the
 * binding converts them in mask_words and words_int, and builds them from
 * vertex lists in mask_of, which reads a list or tuple of ints below 64 in
 * place.  The helpers of the predicates and of the branch and bound take W
 * as an argument, and each is built twice from one body: valid_1 and dfs_1,
 * where W is the literal 1 (n <= 64) and every word loop folds down to one
 * word, and valid_w and dfs_w for any W.  Brute force takes at most 64
 * vertices and steps its subsets inside one word, judged by valid_1.
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
/* Python.h names the member types Py_T_* from 3.12 on, where the old names
 * of structmember.h are deprecated */
#if PY_VERSION_HEX < 0x030C0000
#include <structmember.h>
#define Py_T_OBJECT_EX T_OBJECT_EX
#define Py_T_BOOL T_BOOL
#define Py_READONLY READONLY
#endif

#include <limits.h>
#include <stddef.h> /* offsetof, for the report's members */
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

/* The rows of v for a word count W that the caller passes: c->W, or a
 * literal 1 in the single-word branch and bound, where it folds every word
 * loop down to one word (see dfs_1). */
#define OPEN_W(c, v, W) ((c)->rows + (size_t)(v) * (W))
#define CLOSED_W(c, v, W) ((c)->rows + ((size_t)(c)->n + (v)) * (W))
#define NEAR_W(c, v, W) ((c)->rows + (2 * (size_t)(c)->n + (v)) * (W))
#define DEG_W(c, W) ((int *)((c)->rows + 3 * (size_t)(c)->n * (W)))
#define OPEN(c, v) OPEN_W(c, v, (c)->W)
#define CLOSED(c, v) CLOSED_W(c, v, (c)->W)
#define NEAR(c, v) NEAR_W(c, v, (c)->W)
#define DEG(c) DEG_W(c, (c)->W)

/* for the helpers that take W: inlined into each caller, so that a literal
 * W reaches their word loops */
#define ALWAYS_INLINE static inline __attribute__((always_inline))

static inline int popc(u64 x) { return __builtin_popcountll(x); }
/* the bits set in x, capped at 2: enough for a test against 1 or 2, and
 * cheaper than popc, a library call on builds without a popcount instruction */
static inline int popc2(u64 x) { return (x != 0) + ((x & (x - 1)) != 0); }
static inline int get(const u64 *m, int v) { return (int)(m[v >> 6] >> (v & 63)) & 1; }
static inline void set(u64 *m, int v) { m[v >> 6] |= (u64)1 << (v & 63); }

static int words(int n) { return (n + 63) >> 6; }

ALWAYS_INLINE int popcount(const u64 *m, int W)
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

/* The rows and degrees of c from its open rows, which ctx_fill has set: a
 * degree counts the distinct neighbours, as pybits counts them. */
static void ctx_finish(rlk_ctx *c)
{
    int n = c->n, W = c->W;
    c->maxdeg = 0;
    for (int v = 0; v < n; v++) {
        DEG(c)[v] = popcount(OPEN(c, v), W);
        if (DEG(c)[v] > c->maxdeg)
            c->maxdeg = DEG(c)[v];
    }
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
ALWAYS_INLINE void complement(const rlk_ctx *c, int W, u64 *dst, const u64 *src)
{
    for (int w = 0; w < W; w++)
        dst[w] = ~src[w];
    if (c->n & 63)
        dst[W - 1] &= ((u64)1 << (c->n & 63)) - 1;
}

/* every vertex has at least `need` members of s in its closed neighbourhood */
ALWAYS_INLINE int dominated(const rlk_ctx *c, int W, const u64 *s, int need)
{
    for (int v = 0; v < c->n; v++) {
        int pc = 0;
        for (int w = 0; w < W && pc < need; w++)
            pc += popc2(CLOSED_W(c, v, W)[w] & s[w]);
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
ALWAYS_INLINE int pair_fails(const rlk_ctx *c, int W, const u64 *pool, int need, int u, int v)
{
    const u64 *ou = OPEN_W(c, u, W), *ov = OPEN_W(c, v, W);
    int pc = 0;
    for (int w = 0; w < W && pc < need; w++) {
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
 * passes (see dfs_node).  Inlined, so that the predicates get a copy without
 * the tests on `touched`. */
ALWAYS_INLINE int pairs_fail(const rlk_ctx *c, int W, int mode, const u64 *in, const u64 *out,
                             const u64 *pool, const u64 *touched)
{
    int need = mode == MODE_REDLD ? 2 : 1;
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
                for (u64 mv = NEAR_W(c, u, W)[wv] & out[wv] & ~seen; mv; mv &= mv - 1)
                    if (pair_fails(c, W, pool, need, u, wv << 6 | __builtin_ctzll(mv)))
                        return 1;
            }
            if (mode != MODE_REDLD)
                continue;
            for (int wv = 0; wv < W; wv++)
                for (u64 mv = NEAR_W(c, u, W)[wv] & in[wv]; mv; mv &= mv - 1)
                    if (pair_fails(c, W, pool, 1, u, wv << 6 | __builtin_ctzll(mv)))
                        return 1;
        }
    if (mode != MODE_REDLD || !touched)
        return 0;
    /* the in/out pairs whose in end alone is touched */
    for (int wv = 0; wv < W; wv++)
        for (u64 mv = in[wv] & touched[wv]; mv; mv &= mv - 1) {
            int v = wv << 6 | __builtin_ctzll(mv);
            for (int wu = 0; wu < W; wu++)
                for (u64 mu = NEAR_W(c, v, W)[wu] & out[wu] & ~touched[wu]; mu; mu &= mu - 1)
                    if (pair_fails(c, W, pool, 1, wu << 6 | __builtin_ctzll(mu), v))
                        return 1;
        }
    return 0;
}

/* ---- predicates --------------------------------------------------------- */

/* Predicates take scratch of 2 rows of W words: the complement of the set,
 * and the set less one detector in redld_def. */
static u64 *scratch_new(const rlk_ctx *c)
{
    return malloc(2 * (size_t)c->W * sizeof(u64));
}

/* LD or RED:LD (by conditions (i)-(iii)): domination, then the pairs with
 * the members of s in and the rest out */
ALWAYS_INLINE int characterized(const rlk_ctx *c, int W, int mode, const u64 *s, u64 *scratch)
{
    if (!dominated(c, W, s, mode == MODE_REDLD ? 2 : 1))
        return 0;
    complement(c, W, scratch, s);
    return !pairs_fail(c, W, mode, s, scratch, s, NULL);
}

/* LD, and still LD after removing any one detector */
ALWAYS_INLINE int redld_def(const rlk_ctx *c, int W, const u64 *s, u64 *scratch)
{
    if (!characterized(c, W, MODE_LD, s, scratch))
        return 0;
    u64 *sm = scratch + W; /* characterized uses the first row only */
    for (int w = 0; w < W; w++)
        for (u64 m = s[w]; m; m &= m - 1) {
            memcpy(sm, s, W * sizeof(u64));
            sm[w] ^= m & -m;
            if (!characterized(c, W, MODE_LD, sm, scratch))
                return 0;
        }
    return 1;
}

/* The verdict of `mode` on s, built twice from one body, as dfs is: valid_1
 * for a single word (n <= 64), where W is the literal 1, and valid_w for any
 * W.  valid picks one by the context's width. */
ALWAYS_INLINE int valid_body(const rlk_ctx *c, int W, int mode, const u64 *s, u64 *scratch)
{
    return mode == MODE_REDLD_DEF ? redld_def(c, W, s, scratch)
                                  : characterized(c, W, mode, s, scratch);
}

static int valid_1(const rlk_ctx *c, int mode, const u64 *s, u64 *scratch)
{
    return valid_body(c, 1, mode, s, scratch);
}

static int valid_w(const rlk_ctx *c, int mode, const u64 *s, u64 *scratch)
{
    return valid_body(c, c->W, mode, s, scratch);
}

static int valid(const rlk_ctx *c, int mode, const u64 *s, u64 *scratch)
{
    return c->W == 1 ? valid_1(c, mode, s, scratch) : valid_w(c, mode, s, scratch);
}

/* ---- brute force -------------------------------------------------------- */

/* The k-subset after m (0 <= k < n) of the n <= 64 vertices in `full`, in
 * lexicographic order, the order in which itertools.combinations(range(n),
 * k) lists them, or 0 when m is the last.  The vertices above h, the highest
 * vertex not in m, all lie in m, as a block of some t; the next subset moves
 * p, the highest member below h, up by one and puts the block right after
 * it.  Every shift is below 64: h <= 63, p < h, and the block's t + 1 bits
 * end at p + t + 1 <= n - 1. */
static u64 next_subset(u64 m, u64 full)
{
    int h = 63 - __builtin_clzll(full & ~m);
    u64 below = m & (((u64)1 << h) - 1), block = m >> h >> 1; /* block = 2^t - 1 */
    if (!below)
        return 0;
    int p = 63 - __builtin_clzll(below);
    return (m & (((u64)1 << p) - 1)) | (block << 1 | 1) << (p + 1);
}

/* Minimum valid set of a context of n <= 64 vertices by cardinality then
 * lexicographic order: returns its size and writes it to *out, or returns
 * -1 when no subset is valid.  Each subset is one word, stepped in place. */
static int rlk_brute_force_min(const rlk_ctx *c, int mode, u64 *out)
{
    int n = c->n;
    u64 full = n == 64 ? ~(u64)0 : ((u64)1 << n) - 1, scratch[2];
    for (int k = 0; k <= n; k++) {
        u64 s = k == 64 ? ~(u64)0 : ((u64)1 << k) - 1;
        do {
            if (valid_1(c, mode, &s, scratch)) {
                *out = s;
                return k;
            }
        } while (k < n && (s = next_subset(s, full)));
    }
    return -1;
}

/* ---- localized pair checks ---------------------------------------------- */

static int pairs_ok_core(const rlk_ctx *c, const u64 *s, int npairs, const int *us,
                         const int *vs)
{
    if (!dominated(c, c->W, s, 2))
        return 0;
    for (int i = 0; i < npairs; i++) {
        int u = us[i], v = vs[i];
        if (get(s, u)) { /* put the out vertex first; two detectors need nothing */
            u = vs[i];
            v = us[i];
        }
        if (!get(s, u) && pair_fails(c, c->W, s, get(s, v) ? 1 : 2, u, v))
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

/* ---- grid candidate walk ----------------------------------------------- */

/* The most steps of a cell (KING's 8) and the most cells of a domain.  A
 * constraint's multiplicities sum to 1 + its vertex's steps, at most 9, so
 * the int totals of dom_state cannot overflow.  dom_dfs recurses once per
 * cell, in 128 bytes of stack a level (gcc 12 -O2, x86-64): 2^9 levels take
 * 64 KB, where a walk down 10^5 cells overflowed an 8 MB stack; pybits, which
 * recurses in Python, reaches 2^9 cells too. */
#define MAX_STEPS 8
#define MAX_CELLS (1L << 9)

/* A lattice: its LatticeKind name and the n neighbour steps of its cells
 * with x + y even (p = 0) and odd (p = 1). */
typedef struct {
    int dx, dy;
} rlk_step;

typedef struct {
    const char *name;
    int n;
    rlk_step step[2][MAX_STEPS];
} rlk_lattice;

/* pybits.LATTICES, step for step */
#define SQ4 {1, 0}, {-1, 0}, {0, 1}, {0, -1}
#define TRI6 SQ4, {1, 1}, {-1, -1}
#define KING8 SQ4, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}
static const rlk_lattice LATTICES[] = {
    {"HEX", 3, {{{1, 0}, {-1, 0}, {0, 1}}, {{1, 0}, {-1, 0}, {0, -1}}}},
    {"TRI", 6, {{TRI6}, {TRI6}}},
    {"SQ", 4, {{SQ4}, {SQ4}}},
    {"KING", 8, {{KING8}, {KING8}}},
};

/* One pair condition, folded: the cells of u and v, whether u and v are
 * adjacent, and the len cells of N(u) ^ N(v) with their multiplicities. */
typedef struct {
    int u, v, adj, len;
    int cell[2 * MAX_STEPS], mult[2 * MAX_STEPS];
} dom_pair;

typedef struct {
    const rlk_lattice *lattice;
    int w, h, bw, bh; /* the domain, and the block that the constraints cover */
    int n, W, count, nomem;
    int exhausted; /* cleared when the node budget runs out */
    int *off, *cons, *mult; /* cell c adds mult[k] to cons[k], off[c] <= k < off[c + 1] */
    int *cnt, *open;  /* per constraint: chosen and undecided multiplicity */
    long long *cov;   /* cov[i]: the largest cover of a cell i or later; cov[n] = 0 */
    long long node_budget, nodes;
    u64 *chosen;
    u64 *out; /* n_out masks of W words, room for cap_out */
    size_t n_out, cap_out;
    int folded; /* set once the pair conditions are in pairs */
    dom_pair *pairs;
    size_t n_pairs, cap_pairs;
} dom_state;

static int has_step(const rlk_lattice *s, int p, int dx, int dy)
{
    for (int j = 0; j < s->n; j++)
        if (s->step[p][j].dx == dx && s->step[p][j].dy == dy)
            return 1;
    return 0;
}

/* the cell of the domain that grid vertex (x, y) folds onto */
static int fold_cell(const dom_state *st, int x, int y)
{
    int fx = x % st->w, fy = y % st->h;
    return (fy < 0 ? fy + st->h : fy) * st->w + (fx < 0 ? fx + st->w : fx);
}

/* one more of cell c among the *k cells listed with their multiplicities */
static void tally(int *cell, int *mult, int *k, int c)
{
    int e = 0;
    while (e < *k && cell[e] != c)
        e++;
    if (e == *k) {
        cell[e] = c;
        mult[(*k)++] = 0;
    }
    mult[e]++;
}

/* The closed neighbourhood of block vertex (x, y) folded onto the domain, as
 * pybits._fold_domination folds it: its k distinct cells and their
 * multiplicities; returns k. */
static int fold_closed(const dom_state *st, int x, int y, int *cell, int *mult)
{
    const rlk_lattice *s = st->lattice;
    int p = (x + y) & 1, k = 0;
    tally(cell, mult, &k, fold_cell(st, x, y));
    for (int j = 0; j < s->n; j++)
        tally(cell, mult, &k, fold_cell(st, x + s->step[p][j].dx, y + s->step[p][j].dy));
    return k;
}

/* Conditions (ii) and (iii) of every block vertex u and every v within
 * distance 2 of it, at the end with the smaller (y, x), folded as
 * pybits._fold_pairs folds them into st->pairs; 0, or RLK_NOMEM. */
static int fold_pairs(dom_state *st)
{
    const rlk_lattice *s = st->lattice;
    for (int y = 0; y < st->bh; y++)
        for (int x = 0; x < st->bw; x++) {
            /* the offsets from u of its neighbours, then of the vertices two
             * steps away */
            int ox[MAX_STEPS * (MAX_STEPS + 1)], oy[MAX_STEPS * (MAX_STEPS + 1)];
            int p = (x + y) & 1, k = 0, n_adj = s->n;
            for (int a = 0; a < n_adj; a++) {
                ox[k] = s->step[p][a].dx;
                oy[k++] = s->step[p][a].dy;
            }
            for (int a = 0; a < n_adj; a++) {
                int q = (p + s->step[p][a].dx + s->step[p][a].dy) & 1;
                for (int b = 0; b < s->n; b++) {
                    int tx = s->step[p][a].dx + s->step[q][b].dx;
                    int ty = s->step[p][a].dy + s->step[q][b].dy;
                    int e = 0;
                    while (e < k && (ox[e] != tx || oy[e] != ty))
                        e++;
                    if (e == k) {
                        ox[k] = tx;
                        oy[k++] = ty;
                    }
                }
            }
            for (int e = 0; e < k; e++) {
                if (oy[e] < 0 || (oy[e] == 0 && ox[e] <= 0))
                    continue;
                if (st->n_pairs == st->cap_pairs) {
                    size_t cap = st->cap_pairs ? 2 * st->cap_pairs : 64;
                    dom_pair *grown = realloc(st->pairs, cap * sizeof(dom_pair));
                    if (!grown)
                        return RLK_NOMEM;
                    st->pairs = grown;
                    st->cap_pairs = cap;
                }
                dom_pair *pc = st->pairs + st->n_pairs++;
                int q = (p + ox[e] + oy[e]) & 1;
                pc->u = fold_cell(st, x, y);
                pc->v = fold_cell(st, x + ox[e], y + oy[e]);
                pc->adj = e < n_adj;
                pc->len = 0;
                for (int a = 0; a < s->n; a++)
                    if (!has_step(s, q, s->step[p][a].dx - ox[e], s->step[p][a].dy - oy[e]))
                        tally(pc->cell, pc->mult, &pc->len,
                              fold_cell(st, x + s->step[p][a].dx, y + s->step[p][a].dy));
                for (int b = 0; b < s->n; b++)
                    if (!has_step(s, p, ox[e] + s->step[q][b].dx, oy[e] + s->step[q][b].dy))
                        tally(pc->cell, pc->mult, &pc->len,
                              fold_cell(st, x + ox[e] + s->step[q][b].dx,
                                        y + oy[e] + s->step[q][b].dy));
            }
        }
    return 0;
}

/* Does the mask st->chosen pass every folded pair condition?  The detectors
 * of N(u) ^ N(v), with multiplicities, must reach 2 when u and v are both
 * out or when one is in and they are adjacent, and 1 when one is in and they
 * are not adjacent, as in pybits._pairs_hold. */
static int pairs_hold(const dom_state *st)
{
    for (size_t k = 0; k < st->n_pairs; k++) {
        const dom_pair *pc = st->pairs + k;
        int in_u = get(st->chosen, pc->u), in_v = get(st->chosen, pc->v);
        if (in_u && in_v)
            continue;
        int need = in_u != in_v && !pc->adj ? 1 : 2, have = 0;
        for (int e = 0; e < pc->len && have < need; e++)
            have += get(st->chosen, pc->cell[e]) * pc->mult[e];
        if (have < need)
            return 0;
    }
    return 1;
}

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
 * counts as a node, and the budget check precedes the cardinality prune,
 * which precedes the count prune.  `deficit` is the sum of max(0, 2 - cnt)
 * over the constraints; the cells still to pick lower it by at most cov[i]
 * each, and a leaf has none left, so the count prune cuts only subtrees
 * without a leaf.  A leaf is emitted when it passes the pair conditions,
 * folded at the first leaf. */
static void dom_dfs(dom_state *st, int i, int picked, long long deficit)
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
    if ((long long)(st->count - picked) * st->cov[i] < deficit)
        return;
    if (i == st->n) {
        if (!st->folded) {
            st->folded = 1;
            if (fold_pairs(st) < 0) {
                st->nomem = 1;
                return;
            }
        }
        if (pairs_hold(st))
            dom_emit(st);
        return;
    }
    for (int val = 1; val >= (i == 0 ? 1 : 0); val--) {
        int ok = 1;
        long long left = deficit;
        for (int k = st->off[i]; k < st->off[i + 1]; k++) {
            int v = st->cons[k], m = st->mult[k];
            st->open[v] -= m;
            if (val) {
                int c = st->cnt[v];
                st->cnt[v] = c + m;
                if (c < 2)
                    left -= m < 2 - c ? m : 2 - c;
            }
            if (st->cnt[v] + st->open[v] < 2)
                ok = 0;
        }
        if (ok) {
            if (val)
                set(st->chosen, i);
            dom_dfs(st, i + 1, picked + val, left);
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

/* The constraints of the block folded onto the cells, in off, cons and mult
 * (see dom_state), and each constraint's undecided total in open; 0, or
 * RLK_NOMEM. */
static int fold_domination(dom_state *st)
{
    int n_cons = st->bw * st->bh, cell[MAX_STEPS + 1], mult[MAX_STEPS + 1];
    if (!(st->off = calloc((size_t)st->n + 1, sizeof(int))))
        return RLK_NOMEM;
    /* count each cell's entries in off[c + 1], sum them up, place every
     * entry at off[c], which moves it to the next cell's start, then shift
     * off back by one cell */
    for (int v = 0; v < n_cons; v++) {
        int k = fold_closed(st, v % st->bw, v / st->bw, cell, mult);
        for (int e = 0; e < k; e++)
            st->off[cell[e] + 1]++;
    }
    for (int c = 0; c < st->n; c++)
        st->off[c + 1] += st->off[c];
    st->cons = malloc((size_t)st->off[st->n] * sizeof(int));
    st->mult = malloc((size_t)st->off[st->n] * sizeof(int));
    if (!st->cons || !st->mult)
        return RLK_NOMEM;
    for (int v = 0; v < n_cons; v++) {
        int k = fold_closed(st, v % st->bw, v / st->bw, cell, mult);
        for (int e = 0; e < k; e++) {
            int at = st->off[cell[e]]++;
            st->cons[at] = v;
            st->mult[at] = mult[e];
            st->open[v] += mult[e];
        }
    }
    for (int c = st->n; c > 0; c--)
        st->off[c] = st->off[c - 1];
    st->off[0] = 0;
    return 0;
}

/* Every valid pattern of exactly `count` cells, cell 0 among them, on the
 * w x h domain of the lattice (w * h <= MAX_CELLS).  On success returns 0,
 * writes the masks (ceil(w h / 64) words each, in walk order) to a buffer
 * that *out points to and the caller frees, their number to *n_out, and to
 * *exhausted 1 when the walk ended within node_budget nodes, 0 when it
 * stopped early with the masks found so far.  Returns RLK_NOMEM when an
 * allocation fails, with *out NULL. */
static int rlk_dom_candidates(const rlk_lattice *lattice, int w, int h, int count,
                              long long node_budget, u64 **out, size_t *n_out, int *exhausted)
{
    *out = NULL;
    *n_out = 0;
    *exhausted = 1;
    int same = !memcmp(lattice->step[0], lattice->step[1], sizeof lattice->step[0]);
    dom_state st = {.lattice = lattice, .w = w, .h = h, .n = w * h, .W = words(w * h),
                    .count = count, .exhausted = 1, .node_budget = node_budget};
    /* pybits._block: an odd extent doubles when the two parities' steps differ */
    st.bw = same || w % 2 == 0 ? w : 2 * w;
    st.bh = same || h % 2 == 0 ? h : 2 * h;
    int n_cons = st.bw * st.bh;
    st.cnt = calloc((size_t)n_cons, sizeof(int));
    st.open = calloc((size_t)n_cons, sizeof(int));
    st.cov = calloc((size_t)st.n + 1, sizeof(long long));
    st.chosen = calloc((size_t)st.W, sizeof(u64));
    if (st.cnt && st.open && st.cov && st.chosen && fold_domination(&st) == 0) {
        for (int i = st.n - 1; i >= 0; i--) {
            long long cover = 0;
            for (int k = st.off[i]; k < st.off[i + 1]; k++)
                cover += st.mult[k] < 2 ? st.mult[k] : 2;
            st.cov[i] = cover > st.cov[i + 1] ? cover : st.cov[i + 1];
        }
        dom_dfs(&st, 0, 0, 2 * (long long)n_cons); /* every constraint starts 2 short */
    } else {
        st.nomem = 1;
    }
    free(st.cnt);
    free(st.open);
    free(st.cov);
    free(st.chosen);
    free(st.off);
    free(st.cons);
    free(st.mult);
    free(st.pairs);
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
    int mode, cap, stop_at, best;
    int stop; /* 1 = early stop (best <= stop_at), 2 = budget exhausted */
    long long node_budget, nodes;
    double deadline;
    u64 *best_mask;
    u64 *frames; /* per depth FRAME_ROWS rows of W words: in_m, pool, child, done */
    u64 *scratch; /* predicate scratch */
    /* the bounds' vertex row (W words), X for LD and D for RED:LD, and their
     * cap histogram (maxdeg + 2 counts): used only before a node recurses, so
     * one of each serves every depth */
    u64 *undom;
    int *hist;
} bnb_state;

#define FRAME_ROWS 4

/* On x86-64 under glibc, each dfs instance is compiled twice, with and
 * without the popcnt instruction, and the loader picks the version the CPU
 * can run.  The module may run on another CPU than the one that built it, so
 * a bare -mpopcnt would not be safe.  Elsewhere each is built once, for the
 * compiler's default target. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define POPCNT_DISPATCH __attribute__((target_clones("popcnt", "default")))
#endif
#endif
#ifndef POPCNT_DISPATCH
#define POPCNT_DISPATCH
#endif

/* The sum of the t largest caps |rows(d) & st->undom| over the candidates d
 * in pool - in_m, each cap at most top, read off a histogram of the caps;
 * rows is the first of the context's open or closed rows. */
ALWAYS_INLINE long long top_caps(bnb_state *st, int W, const u64 *rows, const u64 *in_m,
                                 const u64 *pool, int top, int t)
{
    memset(st->hist, 0, ((size_t)top + 1) * sizeof(int));
    for (int w = 0; w < W; w++)
        for (u64 m = pool[w] & ~in_m[w]; m; m &= m - 1) {
            const u64 *nb = rows + (size_t)(w << 6 | __builtin_ctzll(m)) * W;
            int cap = 0;
            for (int y = 0; y < W; y++)
                cap += popc(nb[y] & st->undom[y]);
            st->hist[cap]++;
        }
    long long sum = 0;
    for (int k = top; k > 0 && t > 0; k--) {
        int take = st->hist[k] < t ? st->hist[k] : t;
        sum += (long long)take * k;
        t -= take;
    }
    return sum;
}

/* The LD bound of dfs, the bound of pybits._ld_prunes: does no LD set S
 * with in_m <= S <= pool have fewer than `room` vertices outside in_m?
 * st->undom holds X, the nx vertices neither in in_m nor adjacent to it.
 * Each x in X - S has a nonempty trace inside S - in_m, and traces are
 * distinct, so with t = |S - in_m| <= |C| (C = pool - in_m), S needs
 * 2(|X| - min(t, |U|)) - t <= top(t), where U = X & pool and top(t) sums the
 * t largest caps |N(d) & X|, d in C.  The right side less the left only grows
 * with t, so the largest t allowed decides.  Each cap is at most maxdeg,
 * which settles most nodes before the caps are counted. */
ALWAYS_INLINE int ld_prunes(bnb_state *st, int W, const u64 *in_m, const u64 *pool, int nx,
                            int room)
{
    const rlk_ctx *c = st->c;
    const u64 *x = st->undom;
    int nc = 0, nu = 0;
    for (int w = 0; w < W; w++) {
        nc += popc(pool[w] & ~in_m[w]);
        nu += popc(x[w] & pool[w]);
    }
    int t = room - 1 < nc ? room - 1 : nc;
    int short_by = 2 * (nx - (t < nu ? t : nu)) - t; /* what top(t) must reach */
    if (short_by <= 0)
        return 0;
    if (short_by > t * c->maxdeg)
        return 1;
    return short_by > top_caps(st, W, OPEN_W(c, 0, W), in_m, pool, c->maxdeg, t);
}

/* The RED:LD bound of dfs, the bound of pybits._redld_prunes, where it is
 * argued: can the `room` largest caps |N[d] & D|, d in pool - in_m, cover the
 * deficit?  st->undom holds D.  Every cap is at most maxdeg + 1, which
 * settles most nodes before the caps are counted. */
ALWAYS_INLINE int redld_prunes(bnb_state *st, int W, const u64 *in_m, const u64 *pool,
                               int deficit, int room)
{
    const rlk_ctx *c = st->c;
    int top = c->maxdeg + 1;
    if (deficit > (long long)room * top)
        return 1;
    return deficit > 0 && deficit > top_caps(st, W, CLOSED_W(c, 0, W), in_m, pool, top, room);
}

/* The search has two instances of one body, dfs_node, so the two make the
 * same decisions: dfs_1 for a single word (n <= 64), where W is the literal 1
 * and every word loop folds down to one word, and dfs_w for any W. */
POPCNT_DISPATCH static void dfs_1(bnb_state *st, int depth, const u64 *in_m0, const u64 *out_m,
                                  int branch, int b);
POPCNT_DISPATCH static void dfs_w(bnb_state *st, int depth, const u64 *in_m0, const u64 *out_m,
                                  int branch, int b);

/* A call of the instance for W words.  In dfs_1 the test folds away, and
 * dfs_w runs only for W > 1, so each instance recurses into itself. */
ALWAYS_INLINE void dfs_child(bnb_state *st, int W, int depth, const u64 *in_m0, const u64 *out_m,
                             int branch, int b)
{
    if (W == 1)
        dfs_1(st, depth, in_m0, out_m, branch, b);
    else
        dfs_w(st, depth, in_m0, out_m, branch, b);
}

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
 *    holds the settled vertices: in RED:LD mode those 2-dominated by in_m,
 *    in LD mode those with a neighbour in in_m, N(in_m), kept by adding the
 *    neighbourhoods of the vertices new in in_m since the parent.  In RED:LD
 *    mode they add nothing to the deficit; in LD mode they are not in X, the
 *    undominated vertices that the LD bound (ld_prunes) counts.  Nor can they
 *    fail or force anything in the domination test, since in_m lies in the
 *    pool, so the test skips them too.
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
ALWAYS_INLINE void dfs_node(bnb_state *st, int W, int depth, const u64 *in_m0, const u64 *out_m,
                            int branch, int b)
{
    const rlk_ctx *c = st->c;
    int redld = st->mode == MODE_REDLD, need = redld ? 2 : 1;
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
    complement(c, W, pool, out_m);
    if (branch == BRANCH_ROOT)
        memset(done, 0, W * sizeof(u64));
    else
        memcpy(done, done - FRAME_ROWS * W, W * sizeof(u64));

    /* domination feasibility and unit propagation, on the vertices whose
     * counts the branch changed, gathered in child */
    if (branch != BRANCH_IN) {
        if (branch == BRANCH_ROOT)
            complement(c, W, child, done); /* every vertex: nothing is done yet */
        else
            for (int w = 0; w < W; w++)
                child[w] = CLOSED_W(c, b, W)[w] & ~done[w];
        for (int w = 0; w < W; w++)
            for (u64 m = redld ? child[w] : child[w] & out_m[w]; m; m &= m - 1) {
                int v = w << 6 | __builtin_ctzll(m);
                const u64 *nb = redld ? CLOSED_W(c, v, W) : OPEN_W(c, v, W);
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
        if (pairs_fail(c, W, st->mode, in_m, out_m, pool, NULL))
            return;
    } else if (redld || branch == BRANCH_OUT) {
        if (branch == BRANCH_IN) {
            memset(child, 0, W * sizeof(u64));
            set(child, b);
        } else {
            for (int w = 0; w < W; w++)
                child[w] = CLOSED_W(c, b, W)[w] | (in_m[w] & ~in_m0[w]);
        }
        if (pairs_fail(c, W, st->mode, in_m, out_m, pool, child))
            return;
    }

    /* admissible bound */
    int limit = st->best < st->cap + 1 ? st->best : st->cap + 1, leaf;
    if (redld) {
        /* Only the vertices not yet done can add to the deficit; those that
         * are settled now join done, and the rest are D. */
        int deficit = 0;
        complement(c, W, child, done);
        memset(st->undom, 0, W * sizeof(u64));
        for (int w = 0; w < W; w++)
            for (u64 m = child[w]; m; m &= m - 1) {
                int v = w << 6 | __builtin_ctzll(m);
                int have = 0;
                for (int x = 0; x < W && have < 2; x++)
                    have += popc(CLOSED_W(c, v, W)[x] & in_m[x]);
                if (have < 2) {
                    deficit += 2 - have;
                    set(st->undom, v);
                } else {
                    set(done, v);
                }
            }
        if (redld_prunes(st, W, in_m, pool, deficit, limit - in_ct - 1))
            return;
        leaf = deficit == 0;
    } else {
        /* done gains the neighbours of the vertices new in in_m; X is the rest
         * outside in_m */
        const u64 *prev = branch == BRANCH_ROOT ? NULL : in_m - FRAME_ROWS * W;
        for (int w = 0; w < W; w++)
            for (u64 m = prev ? in_m[w] & ~prev[w] : in_m[w]; m; m &= m - 1) {
                const u64 *nb = OPEN_W(c, w << 6 | __builtin_ctzll(m), W);
                for (int x = 0; x < W; x++)
                    done[x] |= nb[x];
            }
        for (int w = 0; w < W; w++)
            child[w] = in_m[w] | done[w];
        complement(c, W, st->undom, child);
        int nx = popcount(st->undom, W);
        if (ld_prunes(st, W, in_m, pool, nx, limit - in_ct))
            return;
        leaf = nx == 0;
    }
    if (leaf && characterized(c, W, st->mode, in_m, st->scratch)) {
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
            if (DEG_W(c, W)[v] > bd) {
                bd = DEG_W(c, W)[v];
                next = v;
            }
        }
    if (next < 0)
        return;
    memcpy(child, in_m, W * sizeof(u64));
    set(child, next);
    dfs_child(st, W, depth + 1, child, out_m, BRANCH_IN, next);
    if (st->stop)
        return;
    memcpy(child, out_m, W * sizeof(u64));
    set(child, next);
    dfs_child(st, W, depth + 1, in_m, child, BRANCH_OUT, next);
}

POPCNT_DISPATCH static void dfs_1(bnb_state *st, int depth, const u64 *in_m0, const u64 *out_m,
                                  int branch, int b)
{
    dfs_node(st, 1, depth, in_m0, out_m, branch, b);
}

POPCNT_DISPATCH static void dfs_w(bnb_state *st, int depth, const u64 *in_m0, const u64 *out_m,
                                  int branch, int b)
{
    dfs_node(st, st->c->W, depth, in_m0, out_m, branch, b);
}

/* Branch and bound over sets S with forced_in <= S <= ~forced_out, with the
 * contract of pybits.bnb.  Returns the status (0 complete, 1 no valid set of
 * size <= cap, 2 budget exhausted) and writes the value, the witness (W
 * words) and the node count.  `time_budget` is the number of seconds from
 * now after which the search stops, checked at every node: 0 sets no time
 * limit, and a negative budget stops the search at its first node. */
static int rlk_bnb(const rlk_ctx *c, int mode, const u64 *forced_in, const u64 *forced_out,
                   int cap, int stop_at, long long node_budget, double time_budget, int *value,
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
    if (time_budget != 0)
        st.deadline = monotime() + time_budget;
    /* depth <= n: every level decides one more vertex */
    st.frames = malloc(((size_t)c->n + 1) * FRAME_ROWS * W * sizeof(u64));
    st.scratch = scratch_new(c);
    st.undom = malloc(W * sizeof(u64));
    st.hist = malloc(((size_t)c->maxdeg + 2) * sizeof(int));
    if (!st.frames || !st.scratch || !st.undom || !st.hist) {
        free(st.frames);
        free(st.scratch);
        free(st.undom);
        free(st.hist);
        return RLK_NOMEM;
    }
    st.best_mask = witness; /* written at each improvement, so only when best <= cap */
    dfs_child(&st, W, 0, forced_in, forced_out, BRANCH_ROOT, -1);
    if (st.best <= cap)
        *value = st.best;
    *nodes = st.nodes;
    free(st.scratch);
    free(st.frames);
    free(st.undom);
    free(st.hist);
    return st.stop == 2 ? 2 : st.best <= cap ? 0 : 1;
}

/* ---- trees: canonical codes and orbits ---------------------------------- *
 *
 * A tree's rows come in CSR form: the neighbours of v are nbr[off[v]] ..
 * nbr[off[v + 1] - 1].  rlk_tree_shape decides whether they are a tree's,
 * and rlk_tree_peel then does what pybits._peel does: it peels the leaves
 * layer by layer down to the one or two centres, and builds the rooted code
 * of each vertex once its children, the neighbours peeled before it, have
 * theirs: "*" when the vertex is coloured, "(", the children's codes in
 * increasing order, ")".  The codes are ASCII, so memcmp orders them as
 * Python orders str.  No code is a proper prefix of another, as a code's
 * parentheses balance at its end and nowhere before, so a memcmp over the
 * shorter length tells any two codes apart.  As in pybits, the codes of a
 * path take room quadratic in its length. */

#define RLK_ASYMMETRIC 1
#define RLK_NOT_TREE 2

/* Does vertex 0 reach all n vertices?  seen and stack have room for n. */
static int connected(int n, const size_t *off, const int *nbr, int *seen, int *stack)
{
    memset(seen, 0, (size_t)n * sizeof(int));
    seen[0] = 1;
    stack[0] = 0;
    int top = 1, reached = 1;
    while (top) {
        int v = stack[--top];
        for (size_t i = off[v]; i < off[v + 1]; i++)
            if (!seen[nbr[i]]) {
                seen[nbr[i]] = 1;
                stack[top++] = nbr[i];
                reached++;
            }
    }
    return reached == n;
}

/* 0 when the rows of the n >= 1 vertices are a tree's.  RLK_ASYMMETRIC when
 * some row of v holds a w whose own row lacks v; otherwise RLK_NOT_TREE
 * unless the rows have 2(n - 1) entries in all and vertex 0 reaches every
 * vertex.  Symmetric rows with these two properties hold each of n - 1
 * edges once in each direction, with no loop and no repeat. */
static int rlk_tree_shape(int n, const size_t *off, const int *nbr)
{
    size_t m = off[n], room = (m > (size_t)n ? m : (size_t)n) + 1;
    size_t *roff = malloc(((size_t)n + 1) * sizeof(size_t) + (room + n) * sizeof(int));
    if (!roff)
        return RLK_NOMEM;
    /* rev holds, for each w in turn, the v whose rows hold w; roff[w] is
     * first where rev(w) starts, then where it ends */
    int *rev = (int *)(roff + n + 1), *mark = rev + room, rc = 0;
    memset(roff, 0, ((size_t)n + 1) * sizeof(size_t));
    for (size_t i = 0; i < m; i++)
        roff[nbr[i] + 1]++;
    for (int w = 0; w < n; w++)
        roff[w + 1] += roff[w];
    for (int v = 0; v < n; v++)
        for (size_t i = off[v]; i < off[v + 1]; i++)
            rev[roff[nbr[i]]++] = v;
    for (int w = 0; w < n; w++)
        mark[w] = -1;
    for (int w = 0; w < n && !rc; w++) {
        for (size_t i = off[w]; i < off[w + 1]; i++)
            mark[nbr[i]] = w;
        for (size_t i = w ? roff[w - 1] : 0; i < roff[w]; i++)
            if (mark[rev[i]] != w)
                rc = RLK_ASYMMETRIC;
    }
    if (!rc && (m + 2 != 2 * (size_t)n || !connected(n, off, nbr, mark, rev)))
        rc = RLK_NOT_TREE;
    free(roff);
    return rc;
}

typedef struct {
    int n, centres; /* one or two centres */
    const size_t *off;
    const int *nbr;
    const u64 *colored;
    /* made by rlk_tree_peel, all but buf in the block at start */
    size_t *start, *len; /* v's code: len[v] bytes of buf from start[v] */
    int *order;   /* the peeled vertices in peel order, then the centres */
    int *parent;  /* v's neighbour peeled after it; for a centre the other, or -1 */
    int *kids;    /* at kids + off[v]: v's neighbours but its parent, by code */
    int *scratch; /* two rows of n */
    char *buf;
} rlk_tree;

static void tree_free(rlk_tree *t)
{
    free(t->start);
    free(t->buf);
    t->start = NULL;
    t->buf = NULL;
}

static int code_cmp(const rlk_tree *t, int a, int b)
{
    size_t la = t->len[a], lb = t->len[b];
    int c = memcmp(t->buf + t->start[a], t->buf + t->start[b], la < lb ? la : lb);
    return c ? c : (la > lb) - (la < lb);
}

/* The k vertices at a in increasing order of their codes; tmp has room for
 * k / 2 of them. */
static void sort_by_code(const rlk_tree *t, int *a, int k, int *tmp)
{
    if (k <= 8) {
        for (int i = 1; i < k; i++) {
            int x = a[i], j = i;
            for (; j > 0 && code_cmp(t, a[j - 1], x) > 0; j--)
                a[j] = a[j - 1];
            a[j] = x;
        }
        return;
    }
    int h = k / 2, i = 0, j = h, o = 0;
    sort_by_code(t, a, h, tmp);
    sort_by_code(t, a + h, k - h, tmp);
    memcpy(tmp, a, (size_t)h * sizeof(int));
    while (i < h && j < k)
        a[o++] = code_cmp(t, a[j], tmp[i]) < 0 ? a[j++] : tmp[i++];
    while (i < h)
        a[o++] = tmp[i++];
}

/* Peel the tree t->n, t->off, t->nbr, which rlk_tree_shape has passed, and
 * code its vertices, coloured by the mask t->colored: 0, or RLK_NOMEM with
 * nothing left allocated.  The caller frees the rest with tree_free. */
static int rlk_tree_peel(rlk_tree *t)
{
    int n = t->n, head = 0, tail, end = 0, alive = n;
    size_t m = t->off[n];
    if (!(t->start = malloc(2 * (size_t)n * sizeof(size_t) + (4 * (size_t)n + m) * sizeof(int))))
        return RLK_NOMEM;
    t->len = t->start + n;
    t->order = (int *)(t->len + n);
    t->parent = t->order + n;
    t->scratch = t->parent + n;
    t->kids = t->scratch + 2 * (size_t)n;
    int *deg = t->scratch, *peeled = t->scratch + n, *order = t->order;
    for (int v = 0; v < n; v++) {
        deg[v] = (int)(t->off[v + 1] - t->off[v]);
        peeled[v] = 0;
        t->parent[v] = -1;
        if (deg[v] == 1)
            order[end++] = v;
    }
    /* order[head .. tail - 1] is the layer being peeled, and the next layer
     * grows after it */
    for (tail = end; alive > 2; head = tail, tail = end) {
        for (int i = head; i < tail; i++) {
            int v = order[i];
            peeled[v] = 1;
            for (size_t k = t->off[v]; k < t->off[v + 1]; k++) {
                int w = t->nbr[k];
                if (!peeled[w]) {
                    t->parent[v] = w;
                    if (--deg[w] == 1)
                        order[end++] = w;
                }
            }
        }
        alive -= tail - head;
    }
    t->centres = 0;
    for (int v = 0; v < n; v++)
        if (!peeled[v])
            order[head + t->centres++] = v;
    if (t->centres == 2) {
        t->parent[order[head]] = order[head + 1];
        t->parent[order[head + 1]] = order[head];
    }
    /* each code's length and place, children first */
    size_t total = 0;
    for (int i = 0; i < n; i++) {
        int v = order[i];
        size_t len = 2 + get(t->colored, v);
        for (size_t k = t->off[v]; k < t->off[v + 1]; k++)
            if (t->nbr[k] != t->parent[v])
                len += t->len[t->nbr[k]];
        t->len[v] = len;
        t->start[v] = total;
        if (len > SIZE_MAX - total) {
            tree_free(t);
            return RLK_NOMEM;
        }
        total += len;
    }
    if (!(t->buf = malloc(total))) {
        tree_free(t);
        return RLK_NOMEM;
    }
    for (int i = 0; i < n; i++) {
        int v = order[i], k = 0, *kids = t->kids + t->off[v];
        for (size_t j = t->off[v]; j < t->off[v + 1]; j++)
            if (t->nbr[j] != t->parent[v])
                kids[k++] = t->nbr[j];
        sort_by_code(t, kids, k, t->scratch);
        char *p = t->buf + t->start[v];
        if (get(t->colored, v))
            *p++ = '*';
        *p++ = '(';
        for (int j = 0; j < k; j++) {
            memcpy(p, t->buf + t->start[kids[j]], t->len[kids[j]]);
            p += t->len[kids[j]];
        }
        *p = ')';
    }
    return 0;
}

static int code_eq(const rlk_tree *t, int a, int b)
{
    return t->len[a] == t->len[b] && !memcmp(t->buf + t->start[a], t->buf + t->start[b], t->len[a]);
}

/* The least vertex of each vertex's orbit, as pybits._orbits gives it, in
 * t->scratch[0 .. n - 1], which the call returns.  Two vertices share an
 * orbit when their paths to a centre have equal codes, so each vertex gets
 * a path number, centres first: two centres share one when their codes are
 * equal.  Vertices of one path number have equal codes, so their sorted
 * children give the same runs of equal codes, and the j-th run of each gets
 * one new number: the first vertex of a path number to be reached fixes
 * where its children's numbers start. */
static const int *rlk_tree_orbits(rlk_tree *t)
{
    int n = t->n, next = 1, *path = t->scratch, *first = t->scratch + n;
    const int *centre = t->order + n - t->centres;
    for (int v = 0; v < n; v++)
        first[v] = -1;
    path[centre[0]] = 0;
    if (t->centres == 2)
        path[centre[1]] = code_eq(t, centre[0], centre[1]) ? 0 : next++;
    /* parents come after their children in order */
    for (int i = n - 1; i >= 0; i--) {
        int v = t->order[i], p = path[v], b = first[p] < 0 ? next : first[p], r = 0;
        const int *kids = t->kids + t->off[v];
        int k = (int)(t->off[v + 1] - t->off[v]) - (t->parent[v] >= 0);
        for (int j = 0; j < k; j++) {
            r += j && !code_eq(t, kids[j - 1], kids[j]);
            path[kids[j]] = b + r;
        }
        if (first[p] < 0 && k) {
            first[p] = b;
            next = b + r + 1;
        }
    }
    /* first, read no more, now takes the least vertex of each path number,
     * and each path number gives way to it */
    for (int v = 0; v < n; v++)
        first[v] = -1;
    for (int v = 0; v < n; v++) {
        if (first[path[v]] < 0)
            first[path[v]] = v;
        path[v] = first[path[v]];
    }
    return path;
}

/* ---- CPython binding ---------------------------------------------------- *
 *
 * Every function takes positional arguments only (METH_FASTCALL) and checks
 * each one before the kernel reads it, so that no input crashes the process
 * and bad input raises what pybits.py raises: a context that is not a Ctx, a
 * mask that is not an int, or a class for report that is not Report or a
 * subclass of it raises TypeError; a mask that is negative or
 * names a vertex at n or above (a predicate's, a scan candidate, a forced
 * set of bnb) raises IndexError; an unknown mode, pair lists of two lengths,
 * a negative count, a domain below 1 x 1 or a lattice kind that is not in
 * LATTICES for dom_candidates, a detector of mask_of outside 0 .. n - 1, and
 * a context of more than 64 vertices for brute_force_min raise ValueError; a
 * kind that is not a str raises TypeError, and a domain of more than
 * MAX_CELLS cells OverflowError.  A tree's rows for tree_code and
 * tree_orbits that are not a tuple of tuples of ints raise TypeError, a
 * neighbour out of range IndexError, and rows that are not symmetric or not
 * a tree's ValueError.  The
 * searches (brute_force_min, pairs_scan, dom_candidates, bnb) release the GIL
 * while the kernel runs, on buffers that were filled before and belong to the
 * call. */

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

/* a node budget: an int in the signed 64-bit range, or -1 with TypeError or
 * the OverflowError of pybits._check_node_budget */
static int budget_arg(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    if (*out != -1 || !PyErr_Occurred())
        return 0;
    if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
        PyErr_Clear();
        PyErr_SetString(PyExc_OverflowError, "node_budget does not fit in a signed 64-bit int");
    }
    return -1;
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
        PyErr_SetString(PyExc_TypeError, "a mask must be an int");
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

/* The int obj as a vertex of an n-vertex graph in *v: -1 with an exception
 * set when it is not an int naming a vertex.  An int past a C long is out of
 * range, as in pybits, not an OverflowError. */
static int vertex_arg(PyObject *obj, int n, int *v)
{
    int overflow;
    long w = PyLong_AsLongAndOverflow(obj, &overflow);
    if (w == -1 && PyErr_Occurred())
        return -1;
    if (overflow || w < 0 || w >= n) {
        PyErr_SetString(PyExc_IndexError, "vertex out of range");
        return -1;
    }
    *v = (int)w;
    return 0;
}

/* The n sequences of neighbours in the tuple rows into c: -1 with an
 * exception set when a neighbour is not an int naming a vertex. */
static int ctx_fill(rlk_ctx *c, int n, PyObject *rows)
{
    c->n = n;
    c->W = words(n);
    memset(c->rows, 0, (size_t)n * c->W * sizeof(u64));
    for (int v = 0; v < n; v++) {
        PyObject *row = PySequence_Tuple(PyTuple_GET_ITEM(rows, v));
        if (!row)
            return -1;
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(row); i++) {
            int w;
            if (vertex_arg(PyTuple_GET_ITEM(row, i), n, &w) < 0) {
                Py_DECREF(row);
                return -1;
            }
            set(OPEN(c, v), w);
        }
        Py_DECREF(row);
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

/* Whether the int mask is a valid set of the mode on c: 1 or 0, or -1 with
 * the exception of mask_words (or MemoryError) set. */
static int verdict(const rlk_ctx *c, int mode, PyObject *mask)
{
    u64 stack[3 * STACK_WORDS], *s = stack;
    if (c->W > STACK_WORDS && !(s = PyMem_Malloc(3 * (size_t)c->W * sizeof(u64)))) {
        PyErr_NoMemory();
        return -1;
    }
    int ok = mask_words(mask, c->n, s) == 0 ? valid(c, mode, s, s + c->W) : -1;
    if (s != stack)
        PyMem_Free(s);
    return ok;
}

static PyObject *predicate(const char *name, int mode, PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok(name, nargs, 2))
        return NULL;
    const rlk_ctx *c = ctx_arg(args[0]);
    if (!c)
        return NULL;
    int ok = verdict(c, mode, args[1]);
    return ok < 0 ? NULL : PyBool_FromLong(ok);
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

/* A verification report: the name of the mode checked, the verdict, and the
 * graph and mask that were checked, all read-only, with a writable cache
 * _violations, None when made, for a subclass that lists the violations on
 * demand (redld.verify.VerificationReport).  Report(mode, ok, g, mask) and
 * report() fill it in C, so making one runs no Python code.  A report holds
 * its graph, which the collector must then see: the type is a GC type. */
typedef struct {
    PyObject_HEAD
    PyObject *mode, *g, *mask, *violations;
    char ok;
} ReportObject;

/* "ld", "redld" and "redld-def", by mode: interned in exec_module */
static PyObject *mode_names[MODE_REDLD_DEF + 1];

static PyObject *report_make(PyTypeObject *cls, PyObject *mode, int ok, PyObject *g,
                             PyObject *mask)
{
    ReportObject *self = (ReportObject *)cls->tp_alloc(cls, 0);
    if (!self)
        return NULL;
    self->mode = Py_NewRef(mode);
    self->g = Py_NewRef(g);
    self->mask = Py_NewRef(mask);
    self->violations = Py_NewRef(Py_None);
    self->ok = (char)ok;
    return (PyObject *)self;
}

static PyObject *report_new(PyTypeObject *cls, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"mode", "ok", "g", "mask", NULL};
    PyObject *mode, *g, *mask;
    int ok;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OpOO:Report", kwlist, &mode, &ok, &g, &mask))
        return NULL;
    return report_make(cls, mode, ok, g, mask);
}

static int report_traverse(PyObject *self, visitproc visit, void *arg)
{
    ReportObject *r = (ReportObject *)self;
    Py_VISIT(r->mode);
    Py_VISIT(r->g);
    Py_VISIT(r->mask);
    Py_VISIT(r->violations);
    return 0;
}

static int report_clear(PyObject *self)
{
    ReportObject *r = (ReportObject *)self;
    Py_CLEAR(r->mode);
    Py_CLEAR(r->g);
    Py_CLEAR(r->mask);
    Py_CLEAR(r->violations);
    return 0;
}

static void report_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    report_clear(self);
    Py_TYPE(self)->tp_free(self);
}

/* copy and pickle make a report again from its four fields, as the
 * constructor takes them; the cache is not carried */
static PyObject *report_reduce(PyObject *self, PyObject *unused)
{
    (void)unused;
    ReportObject *r = (ReportObject *)self;
    return Py_BuildValue("O(OOOO)", Py_TYPE(self), r->mode, r->ok ? Py_True : Py_False, r->g,
                         r->mask);
}

static PyMethodDef report_methods[] = {
    {"__reduce__", report_reduce, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef report_members[] = {
    {"mode", Py_T_OBJECT_EX, offsetof(ReportObject, mode), Py_READONLY, "the mode's name"},
    {"ok", Py_T_BOOL, offsetof(ReportObject, ok), Py_READONLY, "the verdict"},
    {"_g", Py_T_OBJECT_EX, offsetof(ReportObject, g), Py_READONLY, "the graph checked"},
    {"_mask", Py_T_OBJECT_EX, offsetof(ReportObject, mask), Py_READONLY, "the mask checked"},
    {"_violations", Py_T_OBJECT_EX, offsetof(ReportObject, violations), 0,
     "the violations once listed, else None"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject ReportType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "redld._kernels._ckern.Report",
    .tp_basicsize = sizeof(ReportObject),
    .tp_dealloc = report_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Report(mode, ok, g, mask): a verification's mode name, verdict, graph and\n"
              "mask, read-only, and a writable _violations cache, None when made.",
    .tp_traverse = report_traverse,
    .tp_clear = report_clear,
    .tp_methods = report_methods,
    .tp_members = report_members,
    .tp_new = report_new,
};

PyDoc_STRVAR(report_doc, "report(cls, ctx, mode, g, mask) -> cls\n\n"
             "The report of the mask on the graph g, whose context is ctx, in the mode:\n"
             "an instance of cls, Report or a subclass of it, made without calling cls.");

/* The checks of predicate(), in its order, with the class first and the mode
 * before the mask, as pybits.report makes them. */
static PyObject *py_report(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (!nargs_ok("report", nargs, 5))
        return NULL;
    PyObject *cls = args[0];
    if (!PyType_Check(cls) || !PyType_IsSubtype((PyTypeObject *)cls, &ReportType)) {
        PyErr_Format(PyExc_TypeError, "cls must be a subclass of Report, not %R", cls);
        return NULL;
    }
    const rlk_ctx *c = ctx_arg(args[1]);
    if (!c)
        return NULL;
    int mode = mode_arg(args[2], MODE_REDLD_DEF);
    if (mode < 0)
        return NULL;
    int ok = verdict(c, mode, args[4]);
    return ok < 0 ? NULL : report_make((PyTypeObject *)cls, mode_names[mode], ok, args[3], args[4]);
}

PyDoc_STRVAR(mask_of_doc, "mask_of(n, vertices) -> int\n\n"
             "The mask of the vertices, read once, each an int in 0 .. n - 1.");

/* The mask of an exact list or tuple whose items are all exact ints naming
 * vertices below 64, read in place into *m: 1, or 0 for any other input, at
 * its first item that is not such an int.  Reading such items runs no
 * Python code, so nothing can resize the list while it is read. */
static int small_mask(PyObject *seq, long n, u64 *m)
{
    if (!PyList_CheckExact(seq) && !PyTuple_CheckExact(seq))
        return 0;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    long below = n < 64 ? n : 64;
    *m = 0;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        int overflow;
        long v = PyLong_CheckExact(items[i]) ? PyLong_AsLongAndOverflow(items[i], &overflow) : -1;
        if (v < 0 || v >= below) /* an exact int never raises here; overflow gives -1 */
            return 0;
        *m |= (u64)1 << v;
    }
    return 1;
}

/* A list or tuple of small vertices is read in place by small_mask.  Any
 * other input, or one that small_mask turns down, is read from its first
 * item with the iterator protocol, one item at a time, so the first bad
 * item raises before a later one is read, as in pybits.mask_of: small_mask
 * turns down every item that could raise.  Each is range-checked as an int
 * before its bit is set: the words grow to the highest vertex seen, never
 * to one out of range. */
static PyObject *py_mask_of(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    long n;
    if (!nargs_ok("mask_of", nargs, 2) || int_arg(args[0], 0, INT_MAX - 63, &n) < 0)
        return NULL;
    u64 small;
    if (small_mask(args[1], n, &small))
        return PyLong_FromUnsignedLongLong(small);
    PyObject *it = PyObject_GetIter(args[1]), *item, *result = NULL;
    if (!it)
        return NULL;
    u64 stack[STACK_WORDS], *m = stack;
    int W = 0, cap = STACK_WORDS;
    while ((item = PyIter_Next(it))) {
        PyObject *index = PyNumber_Index(item);
        Py_DECREF(item);
        if (!index)
            goto done;
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(index, &overflow);
        if (overflow || v < 0 || v >= n) {
            PyErr_Format(PyExc_ValueError, "detector %S out of range for n=%ld", index, n);
            Py_DECREF(index);
            goto done;
        }
        Py_DECREF(index);
        int w = (int)(v >> 6);
        if (w >= cap) {
            int grown = w + 1 > 2 * cap ? w + 1 : 2 * cap;
            u64 *bigger = m == stack ? PyMem_Malloc((size_t)grown * sizeof(u64))
                                     : PyMem_Realloc(m, (size_t)grown * sizeof(u64));
            if (!bigger) {
                PyErr_NoMemory();
                goto done;
            }
            if (m == stack)
                memcpy(bigger, stack, (size_t)W * sizeof(u64));
            m = bigger;
            cap = grown;
        }
        for (; W <= w; W++)
            m[W] = 0;
        m[w] |= (u64)1 << (v & 63);
    }
    if (!PyErr_Occurred())
        result = W ? words_int(m, W) : PyLong_FromLong(0);
done:
    Py_DECREF(it);
    if (m != stack)
        PyMem_Free(m);
    return result;
}

PyDoc_STRVAR(brute_force_min_doc, "brute_force_min(ctx, mode) -> (size, mask)\n\n"
             "Minimum valid set by cardinality then lexicographic order, or (-1, 0);\n"
             "at most 64 vertices.");

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
    if (c->n > 64) {
        PyErr_SetString(PyExc_ValueError, "brute force takes at most 64 vertices");
        return NULL;
    }
    u64 out = 0;
    Py_BEGIN_ALLOW_THREADS
    size = rlk_brute_force_min(c, mode, &out);
    Py_END_ALLOW_THREADS
    return Py_BuildValue("(iK)", size, (unsigned long long)out);
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
    for (Py_ssize_t i = 0; i < 2 * npairs; i++)  /* us, then vs */
        if (vertex_arg(PyTuple_GET_ITEM(i < npairs ? us : vs, i % npairs), c->n, &ends[i]) < 0)
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

/* The lattice named kind, as pybits._lattice_arg finds it: NULL with
 * TypeError for a kind that is not a str, or ValueError for a name that is
 * not in LATTICES. */
static const rlk_lattice *lattice_arg(PyObject *kind)
{
    if (!PyUnicode_Check(kind)) {
        PyErr_SetString(PyExc_TypeError, "kind must be a str");
        return NULL;
    }
    for (size_t k = 0; k < sizeof LATTICES / sizeof LATTICES[0]; k++)
        if (PyUnicode_CompareWithASCIIString(kind, LATTICES[k].name) == 0)
            return &LATTICES[k];
    PyErr_Format(PyExc_ValueError, "unknown lattice kind %R", kind);
    return NULL;
}

PyDoc_STRVAR(dom_candidates_doc,
             "dom_candidates(kind, w, h, count, node_budget) -> (masks, exhausted)\n\n"
             "The walk of pybits.dom_candidates: the valid patterns of count cells\n"
             "on the w x h domain.");

static PyObject *py_dom_candidates(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    if (!nargs_ok("dom_candidates", nargs, 5))
        return NULL;
    long count, w, h;
    long long node_budget;
    if (budget_arg(args[4], &node_budget) < 0 || int_arg(args[3], LONG_MIN, INT_MAX, &count) < 0)
        return NULL;
    if (count < 0) {
        PyErr_SetString(PyExc_ValueError, "count must be non-negative");
        return NULL;
    }
    if (int_arg(args[1], LONG_MIN, INT_MAX, &w) < 0 || int_arg(args[2], LONG_MIN, INT_MAX, &h) < 0)
        return NULL;
    if (w < 1 || h < 1) {
        PyErr_SetString(PyExc_ValueError, "the domain needs w >= 1 and h >= 1");
        return NULL;
    }
    if ((long long)w * h > MAX_CELLS) {
        PyErr_Format(PyExc_OverflowError, "a %ldx%ld domain is out of the kernel's range", w, h);
        return NULL;
    }
    const rlk_lattice *lattice = lattice_arg(args[0]);
    if (!lattice)
        return NULL;
    int code, exhausted;
    size_t n_out;
    u64 *out;
    Py_BEGIN_ALLOW_THREADS
    code = rlk_dom_candidates(lattice, (int)w, (int)h, (int)count, node_budget, &out, &n_out,
                              &exhausted);
    Py_END_ALLOW_THREADS
    if (code == RLK_NOMEM)
        return PyErr_NoMemory();
    int W = words((int)(w * h));
    PyObject *result = NULL, *list = PyList_New((Py_ssize_t)n_out);
    for (size_t i = 0; list && i < n_out; i++) {
        PyObject *mask = words_int(out + i * W, W);
        if (!mask) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, (Py_ssize_t)i, mask);
    }
    if (list)
        result = Py_BuildValue("(OO)", list, exhausted ? Py_True : Py_False);
    Py_XDECREF(list);
    free(out);
    return result;
}

PyDoc_STRVAR(bnb_doc, "bnb(ctx, mode, forced_in, forced_out, cap, stop_at, node_budget,\n"
             "    time_budget) -> (status, value, witness, nodes)\n\n"
             "Branch and bound with the contract of pybits.bnb.");

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
    long long node_budget;
    if (budget_arg(args[6], &node_budget) < 0)
        return NULL;
    if (!PyFloat_Check(args[7]) && !PyLong_Check(args[7])) {
        PyErr_SetString(PyExc_TypeError, "time_budget must be an int or a float");
        return NULL;
    }
    double time_budget = PyFloat_AsDouble(args[7]);
    if (time_budget == -1.0 && PyErr_Occurred())
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
                     time_budget, &value, witness, &nodes);
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

static const char tree_rows_msg[] = "a tree's adjacency must be a tuple of tuples of ints";

/* The tuple adj as CSR rows into t->n, t->off and t->nbr, in one block
 * after room for the colour mask at t->colored, which tree_release frees:
 * -1 with an exception set at the first row, in row order, that is not a
 * tuple of ints naming vertices.  Tuples and ints run no Python code as
 * they are read, so adj is read as it was at the call. */
static int tree_rows(PyObject *adj, rlk_tree *t)
{
    if (!PyTuple_Check(adj)) {
        PyErr_SetString(PyExc_TypeError, tree_rows_msg);
        return -1;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(adj), m = 0;
    if (n > INT_MAX - 63) {
        PyErr_SetString(PyExc_OverflowError, "too many vertices for the kernel");
        return -1;
    }
    for (Py_ssize_t v = 0; v < n; v++)
        if (PyTuple_Check(PyTuple_GET_ITEM(adj, v)))
            m += PyTuple_GET_SIZE(PyTuple_GET_ITEM(adj, v));
    int W = words((int)n);
    u64 *mask = PyMem_Malloc((size_t)W * sizeof(u64) + ((size_t)n + 1) * sizeof(size_t) +
                             ((size_t)m + 1) * sizeof(int));
    if (!mask) {
        PyErr_NoMemory();
        return -1;
    }
    size_t *off = (size_t *)(mask + W);
    int *nbr = (int *)(off + n + 1);
    t->n = (int)n;
    t->colored = mask;
    t->off = off;
    t->nbr = nbr;
    off[0] = 0;
    for (Py_ssize_t v = 0; v < n; v++) {
        PyObject *row = PyTuple_GET_ITEM(adj, v);
        if (!PyTuple_Check(row)) {
            PyErr_SetString(PyExc_TypeError, tree_rows_msg);
            return -1;
        }
        off[v + 1] = off[v];
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(row); i++) {
            PyObject *item = PyTuple_GET_ITEM(row, i);
            if (!PyLong_Check(item)) {
                PyErr_SetString(PyExc_TypeError, tree_rows_msg);
                return -1;
            }
            int overflow;
            long w = PyLong_AsLongAndOverflow(item, &overflow);
            if (w == -1 && PyErr_Occurred())
                return -1;
            if (overflow || w < 0 || w >= n) {
                PyErr_SetString(PyExc_IndexError, "vertex out of range");
                return -1;
            }
            nbr[off[v + 1]++] = (int)w;
        }
    }
    return 0;
}

static void tree_release(rlk_tree *t)
{
    tree_free(t);
    PyMem_Free((void *)t->colored);
}

/* The arguments (adj, colored) of tree_code and tree_orbits into t, which
 * is then peeled: 0, or -1 with an exception set.  The checks are those of
 * pybits._check_tree, in its order.  tree_release frees t either way. */
static int tree_arg(const char *name, PyObject *const *args, Py_ssize_t nargs, rlk_tree *t)
{
    memset(t, 0, sizeof *t);
    if (!nargs_ok(name, nargs, 2) || tree_rows(args[0], t) < 0)
        return -1;
    int rc = rlk_tree_shape(t->n, t->off, t->nbr);
    if (rc == RLK_ASYMMETRIC)
        PyErr_SetString(PyExc_ValueError, "the adjacency is not symmetric");
    else if (rc == RLK_NOT_TREE)
        PyErr_SetString(PyExc_ValueError, "the adjacency is not a tree's");
    else if (rc == RLK_NOMEM)
        PyErr_NoMemory();
    if (rc)
        return -1;
    if (!PyLong_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "the colour mask must be an int");
        return -1;
    }
    if (mask_words(args[1], t->n, (u64 *)t->colored) < 0)
        return -1;
    if (rlk_tree_peel(t) == RLK_NOMEM) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(tree_code_doc, "tree_code(adj, colored) -> str\n\n"
             "The canonical code of the tree with rows adj, its vertices in the mask\n"
             "colored marked: the codes of its centres, two joined by '|' in order.");

static PyObject *py_tree_code(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    rlk_tree t;
    PyObject *result = NULL;
    if (tree_arg("tree_code", args, nargs, &t) == 0) {
        const int *centre = t.order + t.n - t.centres;
        int a = centre[0], b = t.centres == 2 ? centre[1] : -1;
        if (b >= 0 && code_cmp(&t, a, b) > 0) {
            a = centre[1];
            b = centre[0];
        }
        size_t len = t.len[a] + (b >= 0 ? 1 + t.len[b] : 0);
        if ((result = PyUnicode_New((Py_ssize_t)len, 127))) {
            char *p = (char *)PyUnicode_1BYTE_DATA(result);
            memcpy(p, t.buf + t.start[a], t.len[a]);
            if (b >= 0) {
                p[t.len[a]] = '|';
                memcpy(p + t.len[a] + 1, t.buf + t.start[b], t.len[b]);
            }
        }
    }
    tree_release(&t);
    return result;
}

PyDoc_STRVAR(tree_orbits_doc, "tree_orbits(adj, colored) -> list\n\n"
             "The least vertex of each vertex's orbit under the automorphisms of the\n"
             "tree with rows adj that keep the mask colored.");

static PyObject *py_tree_orbits(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    (void)mod;
    rlk_tree t;
    PyObject *result = NULL;
    if (tree_arg("tree_orbits", args, nargs, &t) == 0) {
        const int *least = rlk_tree_orbits(&t);
        if ((result = PyList_New(t.n)))
            for (int v = 0; v < t.n; v++) {
                PyObject *x = PyLong_FromLong(least[v]);
                if (!x) {
                    Py_CLEAR(result);
                    break;
                }
                PyList_SET_ITEM(result, v, x);
            }
    }
    tree_release(&t);
    return result;
}

#define FASTCALL(fn) (PyCFunction)(void (*)(void))(fn), METH_FASTCALL

static PyMethodDef methods[] = {
    {"make_ctx", FASTCALL(py_make_ctx), make_ctx_doc},
    {"mask_of", FASTCALL(py_mask_of), mask_of_doc},
    {"is_ld", FASTCALL(py_is_ld), is_ld_doc},
    {"is_redld", FASTCALL(py_is_redld), is_redld_doc},
    {"is_redld_def", FASTCALL(py_is_redld_def), is_redld_def_doc},
    {"report", FASTCALL(py_report), report_doc},
    {"brute_force_min", FASTCALL(py_brute_force_min), brute_force_min_doc},
    {"pairs_scan", FASTCALL(py_pairs_scan), pairs_scan_doc},
    {"dom_candidates", FASTCALL(py_dom_candidates), dom_candidates_doc},
    {"bnb", FASTCALL(py_bnb), bnb_doc},
    {"tree_code", FASTCALL(py_tree_code), tree_code_doc},
    {"tree_orbits", FASTCALL(py_tree_orbits), tree_orbits_doc},
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *mod)
{
    static const char *const names[] = {"ld", "redld", "redld-def"};
    for (int m = 0; m <= MODE_REDLD_DEF; m++)
        if (!mode_names[m] && !(mode_names[m] = PyUnicode_InternFromString(names[m])))
            return -1;
    if (PyType_Ready(&CtxType) < 0 || PyType_Ready(&ReportType) < 0)
        return -1;
    if (PyModule_AddObjectRef(mod, "Ctx", (PyObject *)&CtxType) < 0)
        return -1;
    return PyModule_AddObjectRef(mod, "Report", (PyObject *)&ReportType);
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
