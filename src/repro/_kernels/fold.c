/* Compiled inner kernel for phase folding (rotation merging).
 *
 * ``repro.circopt.phase_poly`` folds rotations by grouping phase gates
 * whose wires carry the same *parity* — an XOR of symbolic variables
 * minted per wire and per barrier.  The grouping and arithmetic are
 * whole-array numpy; the only sequential part is the wire state machine
 * that answers, for each phase gate, "which parity (and affine constant)
 * does its wire carry here?".  This kernel runs that state machine.
 *
 * It reads the circuit as stored: the row column, and per row of the
 * gate table its kind code, phase eighths, control and target counts and
 * the offset of its qubits (controls, then targets) in the table's
 * flattened qubit column, all gathered from each gate's cached record.
 *
 * Parities are represented exactly: each distinct parity is an interned
 * sorted array of int32 variable ids in a grow-only pool, deduplicated
 * through an FNV-hashed open-addressing table with full content
 * comparison on collision (no probabilistic hashing — bit-identity with
 * the reference sweep must hold with certainty, and the property tests
 * in ``tests/test_kernels.py`` check it).  A CNOT two-pointer-merges the
 * control parity into the target parity; any other gate that is not an
 * X, an uncontrolled SWAP or an uncontrolled phase gate is a barrier,
 * which mints a fresh singleton for each of its qubits.  Equal parities
 * get equal intern ids, which is all the numpy grouping stage needs.
 *
 * Output: for the j-th uncontrolled phase gate in stream order,
 * ``out_keys[j] = intern_id * 2 + affine_const``, or ``-1`` when the
 * parity is empty (a pure global phase, dropped by the reference too).
 *
 * Kind codes mirror ``repro.circuit.gates.KIND_CODES``:
 *   MCX=0, H=1, SWAP=2, T=3, TDG=4, S=5, SDG=6, Z=7.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MCX_CODE 0
#define SWAP_CODE 2

typedef struct {
    int64_t off;
    int32_t len;
    uint64_t hash;
} SetRec;

typedef struct {
    int32_t *pool;
    int64_t pool_len, pool_cap;
    SetRec *sets;
    int64_t nsets, sets_cap;
    int64_t *table; /* slot holds id+1; 0 means empty */
    int64_t table_mask;
} Interner;

static uint64_t set_hash(const int32_t *elems, int32_t len) {
    uint64_t h = 1469598103934665603ULL;
    for (int32_t i = 0; i < len; i++) {
        h ^= (uint64_t)(uint32_t)elems[i];
        h *= 1099511628211ULL;
    }
    return h;
}

static int intern_reserve_pool(Interner *in, int64_t extra) {
    if (in->pool_len + extra <= in->pool_cap) return 0;
    int64_t cap = in->pool_cap;
    while (cap < in->pool_len + extra) cap *= 2;
    int32_t *grown = (int32_t *)realloc(in->pool, (size_t)cap * sizeof(int32_t));
    if (grown == NULL) return -1;
    in->pool = grown;
    in->pool_cap = cap;
    return 0;
}

/* Intern the sorted element array; returns the set id or -1 on OOM.
 * ``elems`` may alias the end of the pool (see intern_xor). */
static int64_t intern_lookup(Interner *in, const int32_t *elems, int32_t len) {
    uint64_t h = set_hash(elems, len);
    int64_t slot = (int64_t)(h & (uint64_t)in->table_mask);
    for (;;) {
        int64_t entry = in->table[slot];
        if (entry == 0) break;
        SetRec *rec = &in->sets[entry - 1];
        if (rec->hash == h && rec->len == len &&
            memcmp(in->pool + rec->off, elems, (size_t)len * sizeof(int32_t)) == 0) {
            return entry - 1;
        }
        slot = (slot + 1) & in->table_mask;
    }
    if (in->nsets == in->sets_cap) {
        int64_t cap = in->sets_cap * 2;
        SetRec *grown = (SetRec *)realloc(in->sets, (size_t)cap * sizeof(SetRec));
        if (grown == NULL) return -1;
        in->sets = grown;
        in->sets_cap = cap;
    }
    if (intern_reserve_pool(in, len) != 0) return -1;
    int64_t id = in->nsets++;
    SetRec *rec = &in->sets[id];
    rec->off = in->pool_len;
    rec->len = len;
    rec->hash = h;
    memmove(in->pool + in->pool_len, elems, (size_t)len * sizeof(int32_t));
    in->pool_len += len;
    in->table[slot] = id + 1;
    return id;
}

/* XOR-merge two interned sets and intern the result. */
static int64_t intern_xor(Interner *in, int64_t a, int64_t b,
                          int32_t **scratch, int64_t *scratch_cap) {
    SetRec ra = in->sets[a];
    SetRec rb = in->sets[b];
    int64_t need = (int64_t)ra.len + (int64_t)rb.len;
    if (need > *scratch_cap) {
        int64_t cap = *scratch_cap;
        while (cap < need) cap *= 2;
        int32_t *grown = (int32_t *)realloc(*scratch, (size_t)cap * sizeof(int32_t));
        if (grown == NULL) return -1;
        *scratch = grown;
        *scratch_cap = cap;
    }
    const int32_t *pa = in->pool + ra.off;
    const int32_t *pb = in->pool + rb.off;
    int32_t ia = 0, ib = 0, k = 0;
    int32_t *dst = *scratch;
    while (ia < ra.len && ib < rb.len) {
        int32_t va = pa[ia], vb = pb[ib];
        if (va == vb) {
            ia++;
            ib++; /* cancels over GF(2) */
        } else if (va < vb) {
            dst[k++] = va;
            ia++;
        } else {
            dst[k++] = vb;
            ib++;
        }
    }
    while (ia < ra.len) dst[k++] = pa[ia++];
    while (ib < rb.len) dst[k++] = pb[ib++];
    return intern_lookup(in, dst, k);
}

static int64_t next_pow2(int64_t v) {
    int64_t p = 64;
    while (p < v) p *= 2;
    return p;
}

/* Classify every uncontrolled phase gate by (parity id, affine const).
 *
 * ``gate_rows``: per-gate row ids into the table (length n).  Per table
 * row: kind code, phase eighths (-1 unless an uncontrolled phase gate),
 * control and target counts, and the offset of its qubits in
 * ``qubits``.  Every qubit is below ``num_qubits``.  Returns the number
 * of keys written, or -1 on allocation failure.
 */
int64_t repro_fold_classify(
    int64_t n, const int32_t *gate_rows,
    const uint8_t *kinds, const int8_t *ph,
    const int32_t *ncs, const int32_t *nts,
    const int64_t *offsets, const int32_t *qubits,
    int64_t num_qubits,
    int64_t *out_keys)
{
    Interner in;
    int64_t status = -1;
    int64_t *wire_key = NULL;
    uint8_t *wire_const = NULL;
    int32_t *scratch = NULL;
    int64_t scratch_cap = 64;

    /* new sets arise only from the initial wires, one per CNOT and one
     * per qubit of a barrier, so the stream's qubit references bound
     * them; the hash table never grows, and must keep empty slots */
    int64_t refs = 0;
    for (int64_t i = 0; i < n; i++) {
        refs += ncs[gate_rows[i]] + nts[gate_rows[i]];
    }
    int64_t max_sets = num_qubits + refs + 2;
    in.table_mask = next_pow2(2 * max_sets) - 1;
    in.pool_cap = 4 * (num_qubits + n) + 64;
    in.pool_len = 0;
    in.sets_cap = num_qubits + n + 64;
    in.nsets = 0;
    in.pool = (int32_t *)malloc((size_t)in.pool_cap * sizeof(int32_t));
    in.sets = (SetRec *)malloc((size_t)in.sets_cap * sizeof(SetRec));
    in.table = (int64_t *)calloc((size_t)(in.table_mask + 1), sizeof(int64_t));
    wire_key = (int64_t *)malloc((size_t)num_qubits * sizeof(int64_t));
    wire_const = (uint8_t *)calloc((size_t)num_qubits, 1);
    scratch = (int32_t *)malloc((size_t)scratch_cap * sizeof(int32_t));
    if (in.pool == NULL || in.sets == NULL || in.table == NULL ||
        wire_key == NULL || wire_const == NULL || scratch == NULL) {
        goto done;
    }

    for (int32_t q = 0; q < num_qubits; q++) {
        int64_t id = intern_lookup(&in, &q, 1);
        if (id < 0) goto done;
        wire_key[q] = id;
    }
    int32_t next_var = (int32_t)num_qubits;
    int64_t written = 0;

    for (int64_t i = 0; i < n; i++) {
        const int32_t r = gate_rows[i];
        const int32_t *qs = qubits + offsets[r];
        const int32_t nc = ncs[r];
        if (ph[r] >= 0) { /* uncontrolled phase gate */
            int32_t t = qs[0];
            int64_t id = wire_key[t];
            out_keys[written++] =
                in.sets[id].len == 0 ? -1 : id * 2 + wire_const[t];
            continue;
        }
        const uint8_t kind = kinds[r];
        if (kind == MCX_CODE && nc == 1) {
            int32_t c = qs[0];
            int32_t t = qs[1];
            int64_t id = intern_xor(&in, wire_key[t], wire_key[c],
                                    &scratch, &scratch_cap);
            if (id < 0) goto done;
            wire_key[t] = id;
            wire_const[t] ^= wire_const[c];
            continue;
        }
        if (kind == MCX_CODE && nc == 0) {
            wire_const[qs[0]] ^= 1;
            continue;
        }
        if (kind == SWAP_CODE && nc == 0) {
            int32_t a = qs[0], b = qs[1];
            int64_t tmpk = wire_key[a];
            wire_key[a] = wire_key[b];
            wire_key[b] = tmpk;
            uint8_t tmpc = wire_const[a];
            wire_const[a] = wire_const[b];
            wire_const[b] = tmpc;
            continue;
        }
        /* barrier over the gate's qubits: controls first, then targets
         * (fresh-variable order matches the reference sweep; only set
         * equality matters downstream) */
        const int32_t nq = nc + nts[r];
        for (int32_t j = 0; j < nq; j++) {
            int32_t q = qs[j];
            int32_t var = next_var++;
            int64_t id = intern_lookup(&in, &var, 1);
            if (id < 0) goto done;
            wire_key[q] = id;
            wire_const[q] = 0;
        }
    }
    status = written;

done:
    free(in.pool);
    free(in.sets);
    free(in.table);
    free(wire_key);
    free(wire_const);
    free(scratch);
    return status;
}
