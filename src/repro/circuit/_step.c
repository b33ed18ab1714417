/*
 * The compiled transient sub-step loop (repro.circuit.stepper.CStepper).
 *
 * repro_advance runs sub-steps [first, stop) of CompiledTransientBatch in
 * one call: per sub-step it writes the stimulus rows when a source
 * changed, runs step_pre, calls NumPy's own float64 `power` inner loop
 * on (ratio, alpha) -> ratio, then runs step_post.  The two static
 * functions mirror NumpyStepper (and so the scalar reference integrator
 * in tests/reference.py) operation for operation, so the
 * waveforms and supply charge they produce are byte-identical to it.
 * Every operation in them is an IEEE basic operation: add, subtract,
 * multiply, divide, compare, select and copy.  Those round the same in
 * C as in NumPy only under these conditions:
 *
 * - Build with -ffp-contract=off.  Under GCC's default
 *   (-ffp-contract=fast) on an FMA-capable target, a multiply feeding an
 *   add, such as `supply + acc * dt` once the `x dt` and the supply loop
 *   share an expression, fuses into one rounding and the bits move.
 * - Never build with -ffast-math (it reassociates sums, drops NaN and
 *   signed-zero semantics, and links a start-up file that flushes
 *   subnormals to zero for the whole process) or -march=native (the
 *   library is cached and shared, and native targets enable FMA).
 * - Keep the accumulate in rank order, starting from +0.0: each net's
 *   sum is `rank0 + 0.0 + rank1 + ...`, the reference's sequential `+=`
 *   from 0.0.  Padding ranks read the +0.0 drive row.  An accumulator
 *   that starts from +0.0 is never -0.0, so the padding leaves every sum
 *   bit for bit unchanged.
 * - `power` is NumPy's own loop, called by pointer, never libm's pow.
 *   NumPy picks a SIMD power loop for the CPU at import (X86_V4 on an
 *   AVX-512 host, a baseline loop elsewhere), and that loop does not
 *   round like pow, nor like NumPy's other float64 loop.  Python reads
 *   the pointer from np.power's loop table (the entry type resolution
 *   picks for float64) and checks it against np.power on probe lanes
 *   before handing it over; called on the same contiguous lanes in
 *   place, it returns what np.power(ratio, alpha, out=ratio) returns.
 *   A C pow would compute different saturation currents and would be a
 *   different engine with its own name in fingerprints and provenance.
 *
 * max and min use NumPy's NaN-propagating form.  Where the two operands
 * are equal, the pick can only differ in the sign of a zero: in `high`
 * and `low` such a lane has vds == +-0.0, so it is inactive and its
 * current is +0.0 either way, and the clamp bounds are never zero
 * because a netlist's supply is positive.
 *
 * Arrays are row-major and batch-minor: (rows, B), one row per device or
 * net across the batch.  Python validates every shape, dtype, index and
 * contiguity before it hands pointers to this file.
 */

#include <math.h>
#include <stddef.h>
#include <string.h>

#define MAXIMUM(a, b) ((isnan(a) || (a) >= (b)) ? (a) : (b))
#define MINIMUM(a, b) ((isnan(a) || (a) <= (b)) ? (a) : (b))

/* NumPy's PyUFuncGenericFunction; npy_intp is ptrdiff_t here. */
typedef void (*repro_loop)(char **args, const ptrdiff_t *dimensions,
                           const ptrdiff_t *strides, void *data);

typedef struct {
    ptrdiff_t devices;            /* T; n-type devices first */
    ptrdiff_t n_type;
    ptrdiff_t batch;              /* B */
    ptrdiff_t nodes;              /* I integrated nets */
    ptrdiff_t ranks;              /* R */
    ptrdiff_t steps;              /* K sub-steps */
    ptrdiff_t groups;             /* G time-base groups */
    ptrdiff_t sources;            /* S driven nets, state rows I .. I+S */
    double *voltages;             /* (N, B) state; integrated nets first */
    const ptrdiff_t *terminal_idx;    /* (3T,) gate | drain | source rows */
    double *terminals;            /* (3T, B) */
    const double *vth;            /* (T, B) */
    const double *nominal_ov;     /* (T, B) */
    const double *prefactor;      /* (T, B) */
    const double *alpha;          /* (T, B) */
    double *vds;                  /* (T, B) */
    double *overdrive;            /* (T, B) */
    double *ratio;                /* (T, B); power() works in place */
    double *drive;                /* (2T + 1, B): [i | -i | +0.0] */
    const ptrdiff_t *rank_table;  /* (R, I + 1); last column: the supply */
    const double *capacitance;    /* (I, B) */
    const double *clamp_low;      /* (B,) */
    const double *clamp_high;     /* (B,) */
    double *supply_charge;        /* (B,) */
    double *acc;                  /* (B,) */
    const double *step_sizes;     /* (K, G); 0.0 past a group's end */
    const ptrdiff_t *column_group;    /* (B,) group of each column */
    const ptrdiff_t *source_row;  /* (K,) row of source_rows, or -1 */
    const double *source_rows;    /* (rows, S, B) stimulus values */
    repro_loop power;             /* NumPy's float64 power loop */
    void *power_data;             /* and its loop data */
} repro_step;

/* The terminal gather, then vds, vgs, overdrive, active, safe and
 * ratio = safe / nominal_ov, the operand of power(). */
static void step_pre(const repro_step *s)
{
    const ptrdiff_t T = s->devices, B = s->batch;
    for (ptrdiff_t k = 0; k < 3 * T; k++)
        memcpy(s->terminals + k * B, s->voltages + s->terminal_idx[k] * B,
               (size_t)B * sizeof(double));
    for (ptrdiff_t t = 0; t < T; t++) {
        const double *gate = s->terminals + t * B;
        const double *drain = s->terminals + (T + t) * B;
        const double *source = s->terminals + (2 * T + t) * B;
        const int n_type = t < s->n_type;
        for (ptrdiff_t b = 0; b < B; b++) {
            const ptrdiff_t i = t * B + b;
            const double high = MAXIMUM(drain[b], source[b]);
            const double low = MINIMUM(drain[b], source[b]);
            const double vds = high - low;
            const double vgs = n_type ? gate[b] - low : high - gate[b];
            const double overdrive = vgs - s->vth[i];
            /* min(overdrive, vds) > 0, NaN lanes included. */
            const int active = MINIMUM(overdrive, vds) > 0.0;
            const double safe = active ? overdrive : 1.0;
            s->vds[i] = vds;
            s->overdrive[i] = overdrive;
            s->ratio[i] = safe / s->nominal_ov[i];
        }
    }
}

/* Sub-step i: saturation, triode, magnitude and sign into the drive
 * rows, then per net the rank-ordered accumulate, x dt (column b's
 * `step_sizes[i * G + column_group[b]]`), the supply charge, / C, the
 * update and the rail clamp. */
static void step_post(const repro_step *s, ptrdiff_t i)
{
    const ptrdiff_t T = s->devices, B = s->batch;
    const ptrdiff_t columns = s->nodes + 1;
    const double *dt = s->step_sizes + i * s->groups;
    double *negated = s->drive + T * B;
    for (ptrdiff_t t = 0; t < T; t++) {
        const double *drain = s->terminals + (T + t) * B;
        const double *source = s->terminals + (2 * T + t) * B;
        for (ptrdiff_t b = 0; b < B; b++) {
            const ptrdiff_t i = t * B + b;
            const double vds = s->vds[i], overdrive = s->overdrive[i];
            double magnitude = 0.0;
            if (MINIMUM(overdrive, vds) > 0.0) {
                const double saturation = s->prefactor[i] * s->ratio[i];
                const double triode = vds / overdrive;
                const double linear = saturation * triode * (2.0 - triode);
                magnitude = vds >= overdrive ? saturation : linear;
            }
            s->drive[i] = drain[b] >= source[b] ? magnitude : -magnitude;
            negated[i] = -s->drive[i];
        }
    }
    for (ptrdiff_t j = 0; j < columns; j++) {
        const double *first = s->drive + s->rank_table[j] * B;
        for (ptrdiff_t b = 0; b < B; b++)
            s->acc[b] = first[b] + 0.0;
        for (ptrdiff_t r = 1; r < s->ranks; r++) {
            const double *rank = s->drive + s->rank_table[r * columns + j] * B;
            for (ptrdiff_t b = 0; b < B; b++)
                s->acc[b] += rank[b];
        }
        for (ptrdiff_t b = 0; b < B; b++)
            s->acc[b] *= dt[s->column_group[b]];
        if (j == s->nodes) {
            for (ptrdiff_t b = 0; b < B; b++)
                s->supply_charge[b] += s->acc[b];
            continue;
        }
        double *node = s->voltages + j * B;
        const double *capacitance = s->capacitance + j * B;
        for (ptrdiff_t b = 0; b < B; b++) {
            double v = node[b] + s->acc[b] / capacitance[b];
            v = MAXIMUM(v, s->clamp_low[b]);
            node[b] = MINIMUM(v, s->clamp_high[b]);
        }
    }
}

/* Sub-steps first .. stop - 1, in order.  Returns -1, having written
 * nothing, unless 0 <= first <= stop <= K; else 0. */
int repro_advance(const repro_step *s, ptrdiff_t first, ptrdiff_t stop)
{
    const ptrdiff_t B = s->batch, lanes = s->devices * B;
    const size_t stimulus = (size_t)(s->sources * B) * sizeof(double);
    const ptrdiff_t strides[3] = {sizeof(double), sizeof(double),
                                  sizeof(double)};
    char *operands[3] = {(char *)s->ratio, (char *)s->alpha,
                         (char *)s->ratio};
    if (first < 0 || stop > s->steps || first > stop)
        return -1;
    for (ptrdiff_t i = first; i < stop; i++) {
        const ptrdiff_t row = s->source_row[i];
        if (row >= 0)
            memcpy(s->voltages + s->nodes * B,
                   s->source_rows + row * s->sources * B, stimulus);
        step_pre(s);
        if (lanes)
            s->power(operands, &lanes, strides, s->power_data);
        step_post(s, i);
    }
    return 0;
}
