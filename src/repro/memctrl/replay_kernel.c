/* DRAM replay kernel: MLP episodes of cores against shared devices.
 *
 * The compiled engine behind InOrderWindowCore's fast path
 * (repro/memctrl/batch.py builds and loads it through ctypes):
 * replay_run replays a range of one core's episodes, replay_interleave
 * runs several cores' episodes in global issue order.  It is
 * bit-identical to the reference interpreter -- InOrderWindowCore's
 * per-record loop driving MemorySystem.service_batch, the schedulers in
 * scheduler.py, MemoryModule.access and BankState.service -- and
 * tests/test_parity.py pins that equivalence.  Any change to the device
 * arithmetic in those Python methods, or to the heap interleave in
 * repro.cpu.core.replay_interleaved, must be mirrored here.
 *
 * All state is int64.  Device state is packed by batch.DeviceState into
 * three row-major tables shared by every core replaying on one memory
 * system; per-record inputs are the decoded columns of
 * batch.ReplayTables; per-record outputs are the pure counters that
 * ReplayTables.flush_stats folds into the module/controller statistics.
 */

#include <stdint.h>

/* Per-controller row: scheduler mode, timing constants, refresh state. */
enum {
    C_MODE,          /* 0 = FR-FCFS, 1 = FCFS */
    C_TCL, C_TCCD, C_TRP, C_TRAS, C_TRC, C_TRCD, C_TFAW, C_TURN, C_XFER,
    C_TREFI, C_TRFC,
    C_BANK0,         /* first global bank index of this channel */
    C_NBANK,         /* banks in this channel (all subchannels) */
    C_NEXT_REF,      /* MemoryModule._next_refresh */
    C_FIELDS
};

/* Per-bank row (BankState); C_ROW < 0 means precharged (open_row None). */
enum { B_ROW, B_READY, B_LAST_ACT, B_FIELDS };

/* Per-subchannel row: bus_free_at, _last_was_write (-1 = None), and the
 * last four activate times (_recent_acts, oldest first). */
enum { S_BUS, S_LASTW, S_NACTS, S_ACT0, S_FIELDS = S_ACT0 + 4 };

#define NEG (-((int64_t)1 << 62))

typedef struct {
    /* shared device state */
    int64_t *ctrl, *bank, *sub;
    /* per-record inputs: flat controller, global bank and subchannel,
     * row, FR-FCFS class (0 load, 1 store, 2 background), write bit,
     * group-local address (FCFS/FR-FCFS tie break), issue offset from
     * the episode head */
    const int64_t *r_ctrl, *r_bank, *r_sub, *r_row, *r_klass, *r_write,
        *r_gaddr, *r_off;
    /* per-episode inputs (ep_start has one extra, final entry) */
    const int64_t *ep_start, *headgap;
    /* outputs; every episode takes a global step from the counter
     * *clock shared by all cores on the system, and ch_step[c] is the
     * step of this core's last episode with a record on controller c */
    int64_t *ep_issue0, *ch_step, *clock;
    int64_t *done, *queue, *service, *hit, *bb;
    /* 3 x the longest episode: order, row-hit snapshot, merge buffer */
    int64_t *scratch;
    /* core state */
    int64_t cycle, backlog;
} replay_ctx;

int64_t replay_abi(void) { return (int64_t)sizeof(replay_ctx); }

static inline int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }

/* MemoryModule._do_refresh: apply every elapsed refresh interval. */
static void refresh(const replay_ctx *x, int64_t *c, int64_t now)
{
    int64_t *b0 = x->bank + c[C_BANK0] * B_FIELDS;
    int64_t nb = c[C_NBANK];
    while (now >= c[C_NEXT_REF] && c[C_TREFI] > 0) {
        int64_t at = c[C_NEXT_REF];
        for (int64_t i = 0; i < nb; i++) {
            int64_t *b = b0 + i * B_FIELDS;
            b[B_ROW] = -1;
            b[B_READY] = max64(at, b[B_READY]) + c[C_TRFC];
            b[B_LAST_ACT] = b[B_READY];
        }
        c[C_NEXT_REF] += c[C_TREFI];
    }
}

/* One access: MemoryModule.access + BankState.service.  Returns done. */
static int64_t serve(const replay_ctx *x, int64_t j, int64_t issue)
{
    int64_t *c = x->ctrl + x->r_ctrl[j] * C_FIELDS;
    if (issue >= c[C_NEXT_REF])
        refresh(x, c, issue);
    int64_t *b = x->bank + x->r_bank[j] * B_FIELDS;
    int64_t *s = x->sub + x->r_sub[j] * S_FIELDS;
    int64_t row = x->r_row[j];
    int64_t start = max64(issue, b[B_READY]);
    int64_t data_ready, service;
    if (b[B_ROW] == row) {
        x->hit[j] = 1;
        data_ready = start + c[C_TCL];
        b[B_READY] = start + c[C_TCCD];
        x->bb[j] = c[C_TCCD];
        service = c[C_TCL] + c[C_XFER];
    } else {
        x->hit[j] = 0;
        /* tFAW: a fifth activate waits for the oldest of the last four */
        if (c[C_TFAW] > 0 && s[S_NACTS] >= 4)
            start = max64(start, s[S_ACT0] + c[C_TFAW]);
        int64_t la = b[B_LAST_ACT], act;
        if (b[B_ROW] >= 0) {
            int64_t pre = max64(start, la + c[C_TRAS]);
            act = max64(pre + c[C_TRP], la + c[C_TRC]);
            service = c[C_TRP] + c[C_TRCD] + c[C_TCL] + c[C_XFER];
        } else {
            act = max64(start, la + c[C_TRC]);
            service = c[C_TRCD] + c[C_TCL] + c[C_XFER];
        }
        b[B_LAST_ACT] = act;
        b[B_ROW] = row;
        data_ready = act + c[C_TRCD] + c[C_TCL];
        b[B_READY] = data_ready;
        x->bb[j] = data_ready - start;
        int64_t *acts = s + S_ACT0;
        if (s[S_NACTS] < 4) {
            acts[s[S_NACTS]++] = act;
        } else {
            acts[0] = acts[1];
            acts[1] = acts[2];
            acts[2] = acts[3];
            acts[3] = act;
        }
    }
    int64_t bus = max64(data_ready, s[S_BUS]);
    int64_t w = x->r_write[j];
    if (s[S_LASTW] >= 0 && s[S_LASTW] != w)
        bus += c[C_TURN];
    s[S_LASTW] = w;
    int64_t done = bus + c[C_XFER];
    s[S_BUS] = done;
    int64_t queue = done - issue - service;
    x->done[j] = done;
    x->queue[j] = queue > 0 ? queue : 0;
    x->service[j] = service;
    return done;
}

/* Scheduler order of records a, b (positions a - s, b - s in hit[]):
 * channel, then FR-FCFS (class, row hit first, issue, address) or FCFS
 * (issue, address), then record index -- the stable-sort tie break. */
static int before(const replay_ctx *x, const int64_t *hit, int64_t s,
                  int64_t a, int64_t b)
{
    int64_t ca = x->r_ctrl[a], cb = x->r_ctrl[b];
    if (ca != cb)
        return ca < cb;
    if (x->ctrl[ca * C_FIELDS + C_MODE] == 0) {
        if (x->r_klass[a] != x->r_klass[b])
            return x->r_klass[a] < x->r_klass[b];
        if (hit[a - s] != hit[b - s])
            return hit[a - s] > hit[b - s];
    }
    if (x->r_off[a] != x->r_off[b])
        return x->r_off[a] < x->r_off[b];
    if (x->r_gaddr[a] != x->r_gaddr[b])
        return x->r_gaddr[a] < x->r_gaddr[b];
    return a < b;
}

/* Merge sort of idx[0, n) by before(); tmp holds n entries. */
static void order(const replay_ctx *x, const int64_t *hit, int64_t s,
                  int64_t *idx, int64_t *tmp, int64_t n)
{
    if (n <= 8) {
        for (int64_t i = 1; i < n; i++) {
            int64_t v = idx[i], k = i;
            while (k > 0 && before(x, hit, s, v, idx[k - 1])) {
                idx[k] = idx[k - 1];
                k--;
            }
            idx[k] = v;
        }
        return;
    }
    int64_t h = n / 2;
    order(x, hit, s, idx, tmp, h);
    order(x, hit, s, idx + h, tmp, n - h);
    int64_t i = 0, k = h, o = 0;
    while (i < h && k < n)
        tmp[o++] = before(x, hit, s, idx[k], idx[i]) ? idx[k++] : idx[i++];
    while (i < h)
        tmp[o++] = idx[i++];
    while (k < n)
        tmp[o++] = idx[k++];
    for (o = 0; o < n; o++)
        idx[o] = tmp[o];
}

/* Replay episodes [k0, k1); returns the core cycle after the last one. */
int64_t replay_run(replay_ctx *x, int64_t k0, int64_t k1)
{
    int64_t cycle = x->cycle;
    for (int64_t k = k0; k < k1; k++) {
        int64_t s = x->ep_start[k], e = x->ep_start[k + 1], n = e - s;
        int64_t issue0 = cycle + x->headgap[k];
        int64_t lmax = NEG, dmax = NEG;
        int64_t step = (*x->clock)++;
        x->ep_issue0[k] = issue0;
        if (n == 1) {
            x->ch_step[x->r_ctrl[s]] = step;
            dmax = serve(x, s, issue0 + x->r_off[s]);
            if (x->r_klass[s] == 0)
                lmax = dmax;
        } else {
            int64_t *idx = x->scratch, *hit = idx + n, *tmp = hit + n;
            /* Row-hit bits are snapshotted before anything drains. */
            for (int64_t i = 0; i < n; i++) {
                int64_t j = s + i;
                idx[i] = j;
                hit[i] = x->bank[x->r_bank[j] * B_FIELDS + B_ROW]
                         == x->r_row[j];
            }
            order(x, hit, s, idx, tmp, n);
            for (int64_t i = 0; i < n; i++) {
                int64_t j = idx[i];
                x->ch_step[x->r_ctrl[j]] = step;
                int64_t done = serve(x, j, issue0 + x->r_off[j]);
                dmax = max64(dmax, done);
                if (x->r_klass[j] == 0)
                    lmax = max64(lmax, done);
            }
        }
        /* ROB head waits for the episode's loads and its last issue; a
         * non-demand backlog beyond x->backlog cycles throttles it. */
        int64_t t = max64(lmax, issue0);
        t = max64(t, issue0 + x->r_off[e - 1]);
        cycle = max64(t, dmax - x->backlog);
    }
    x->cycle = cycle;
    return cycle;
}

/* Global-time interleave of n cores sharing one memory system.
 *
 * Core i is at episode ep[i] of nep[i].  Each step runs one episode of
 * the unfinished core whose next episode issues earliest, ties going to
 * the lowest index -- the (issue, index) order of the reference heap.
 * Writes the core of every step to order[] and the cores in the order
 * they finish to finished[]; advances ep[] and returns the step count.
 * A linear scan per step: n is the handful of cores of one mix.
 */
int64_t replay_interleave(replay_ctx *const *x, int64_t n, int64_t *ep,
                          const int64_t *nep, int64_t *order,
                          int64_t *finished)
{
    int64_t steps = 0, nfin = 0;
    for (;;) {
        int64_t best = -1, best_issue = 0;
        for (int64_t i = 0; i < n; i++) {
            if (ep[i] >= nep[i])
                continue;
            int64_t issue = x[i]->cycle + x[i]->headgap[ep[i]];
            if (best < 0 || issue < best_issue) {
                best = i;
                best_issue = issue;
            }
        }
        if (best < 0)
            return steps;
        replay_run(x[best], ep[best], ep[best] + 1);
        order[steps++] = best;
        if (++ep[best] == nep[best])
            finished[nfin++] = best;
    }
}
