/* Compiled inner kernel for the adjacent-gate cancellation sweep.
 *
 * This is the innermost loop of ``repro.circopt.cancel`` — the stack sweep
 * that, for each incoming gate, scans backwards over already-emitted gates
 * (through ones it commutes with, up to a window) looking for an inverse
 * partner to annihilate or an uncontrolled phase gate to merge with — run
 * to fixpoint, in C.
 *
 * The Python side describes the circuit's *distinct-row table*: every
 * table row carries its kind code, inverse-kind code, phase eighths, an
 * interned ``(controls, targets)`` ordinal (tuple *order* matters for the
 * inverse-pair check, exactly as in the reference sweep), and its
 * control/target/qubit bitmasks split into little-endian 64-bit words
 * (benchmark circuits exceed 64 wires, so masks are multi-word), all
 * gathered from each gate's cached record.  The memoized phase block of
 * the table's width (one row per phase kind and qubit, described once per
 * width) follows the table and is addressed through ``merge_rows``, so
 * the C sweep only ever manipulates int64 row ids.
 *
 * The sweep must stay bit-for-bit identical to the frozen seed sweep in
 * ``repro/reference.py``; the property tests in ``tests/test_kernels.py``
 * enforce this on random circuits.
 *
 * Kind codes mirror ``repro.circuit.gates.KIND_CODES``:
 *   MCX=0, H=1, SWAP=2, T=3, TDG=4, S=5, SDG=6, Z=7
 * and codes >= 3 are diagonal phase kinds (FIRST_PHASE_CODE).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MCX_CODE 0
#define FIRST_PHASE_CODE 3

/* Bumped whenever the exported signatures change; the Python loader
 * refuses to use a stale shared object with a different ABI. */
#define REPRO_KERNELS_ABI 2

int64_t repro_kernels_abi(void) { return REPRO_KERNELS_ABI; }

static inline int mask_eq(const uint64_t *a, const uint64_t *b, int64_t words) {
    for (int64_t w = 0; w < words; w++) {
        if (a[w] != b[w]) return 0;
    }
    return 1;
}

static inline int mask_and_any(const uint64_t *a, const uint64_t *b, int64_t words) {
    for (int64_t w = 0; w < words; w++) {
        if (a[w] & b[w]) return 1;
    }
    return 0;
}

/* One stack sweep over ``src`` (row ids) into ``dst``; returns the output
 * length.  Mirrors ``cancel_pass_seed`` exactly: inverse-pair check first,
 * then uncontrolled-phase merge, then the inlined commutation rules of
 * ``gates_commute_seed``. */
static int64_t one_pass(
    const int64_t *src, int64_t n_src, int64_t *dst,
    int64_t words,
    const uint8_t *kinds, const uint8_t *invk, const int8_t *ph,
    const int64_t *ords, const int32_t *tgt,
    const uint64_t *cm, const uint64_t *tm, const uint64_t *qm,
    int64_t num_qubits, const int64_t *merge_rows,
    int64_t window)
{
    int64_t out_len = 0;
    for (int64_t i = 0; i < n_src; i++) {
        const int64_t e = src[i];
        const uint8_t ek = kinds[e];
        const int8_t eph = ph[e];
        const int64_t eord = ords[e];
        const uint64_t *e_cm = cm + e * words;
        const uint64_t *e_tm = tm + e * words;
        const uint64_t *e_qm = qm + e * words;
        int64_t k = out_len - 1;
        int64_t steps = 0;
        int placed = 0;
        while (k >= 0 && steps < window) {
            const int64_t p = dst[k];
            const uint8_t pk = kinds[p];
            const int8_t pph = ph[p];
            const uint64_t *p_tm = tm + p * words;
            /* inverse pair: same (controls, targets) tuple order and
             * inverse kind -> annihilate */
            if (invk[p] == ek && ords[p] == eord) {
                memmove(dst + k, dst + k + 1,
                        (size_t)(out_len - k - 1) * sizeof(int64_t));
                out_len--;
                placed = 1;
                break;
            }
            /* uncontrolled phase merge on the same wire */
            if (eph >= 0 && pph >= 0 && mask_eq(p_tm, e_tm, words)) {
                const int e8 = (pph + eph) % 8;
                const int64_t *mr =
                    merge_rows + ((int64_t)e8 * num_qubits + tgt[e]) * 2;
                if (mr[0] < 0) {
                    /* merged to identity: drop the stack entry too */
                    memmove(dst + k, dst + k + 1,
                            (size_t)(out_len - k - 1) * sizeof(int64_t));
                    out_len--;
                } else if (mr[1] < 0) {
                    dst[k] = mr[0];
                } else {
                    memmove(dst + k + 2, dst + k + 1,
                            (size_t)(out_len - k - 1) * sizeof(int64_t));
                    dst[k] = mr[0];
                    dst[k + 1] = mr[1];
                    out_len++;
                }
                placed = 1;
                break;
            }
            /* inlined gates_commute_seed(prev, gate) */
            if (!mask_and_any(qm + p * words, e_qm, words)) {
                k--; steps++; continue;
            }
            if (pk == MCX_CODE && ek == MCX_CODE) {
                if (!mask_and_any(p_tm, e_cm, words) &&
                    !mask_and_any(e_tm, cm + p * words, words)) {
                    k--; steps++; continue;
                }
                break;
            }
            if (pk >= FIRST_PHASE_CODE && ek >= FIRST_PHASE_CODE) {
                k--; steps++; continue;
            }
            if (pph >= 0 && ek == MCX_CODE) {
                if (!mask_eq(p_tm, e_tm, words)) { k--; steps++; continue; }
                break;
            }
            if (eph >= 0 && pk == MCX_CODE) {
                if (!mask_eq(e_tm, p_tm, words)) { k--; steps++; continue; }
                break;
            }
            break;
        }
        if (!placed) {
            dst[out_len++] = e;
        }
    }
    return out_len;
}

/* Run the cancellation sweep to fixpoint (or ``max_passes``).
 *
 * ``gate_rows``: per-gate row ids into the distinct tables (length n).
 * ``out_rows``: caller-allocated, capacity n; receives the surviving row
 * ids.  Returns the output length, or -1 on allocation failure.
 *
 * Mirrors ``cancel_to_fixpoint_seed``: if a pass leaves the length unchanged
 * the pass *output* (which may still differ from its input when a merge
 * produced exactly two gates) is the result. */
int64_t repro_cancel_fixpoint(
    int64_t n, const int64_t *gate_rows,
    int64_t words,
    const uint8_t *kinds, const uint8_t *invk, const int8_t *ph,
    const int64_t *ords, const int32_t *tgt,
    const uint64_t *cm, const uint64_t *tm, const uint64_t *qm,
    int64_t num_qubits, const int64_t *merge_rows,
    int64_t window, int64_t max_passes,
    int64_t *out_rows)
{
    if (n == 0 || max_passes <= 0) {
        memcpy(out_rows, gate_rows, (size_t)n * sizeof(int64_t));
        return n;
    }
    int64_t *buf_a = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *buf_b = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    if (buf_a == NULL || buf_b == NULL) {
        free(buf_a);
        free(buf_b);
        return -1;
    }
    memcpy(buf_a, gate_rows, (size_t)n * sizeof(int64_t));
    int64_t *cur = buf_a;
    int64_t *next = buf_b;
    int64_t cur_len = n;
    for (int64_t pass = 0; pass < max_passes; pass++) {
        int64_t next_len = one_pass(
            cur, cur_len, next, words, kinds, invk, ph, ords, tgt,
            cm, tm, qm, num_qubits, merge_rows, window);
        if (next_len == cur_len) {
            cur = next;
            cur_len = next_len;
            break;
        }
        int64_t *swap = cur;
        cur = next;
        next = swap;
        cur_len = next_len;
    }
    memcpy(out_rows, cur, (size_t)cur_len * sizeof(int64_t));
    free(buf_a);
    free(buf_b);
    return cur_len;
}
