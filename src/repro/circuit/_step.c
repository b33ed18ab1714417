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
 * multiply, divide, compare, select and copy.
 *
 * Every loop walks the batch lanes of one row, and is written so the
 * compiler can vectorize it (stepper.CFLAGS builds with -O3): the
 * terminal rows are read in place through terminal_idx, conditions are
 * selects between values already computed, never branches, and work on
 * the same lanes shares one loop.  A select between a value and an
 * expression is not enough: the compiler sinks the expression into a
 * branch and then leaves the loop scalar, so the two currents are
 * computed on every lane into memory (`currents`) and selected in the
 * next loop.  Vectorizing does not move a bit: each IEEE basic operation
 * rounds per lane, the same in a vector register as in a scalar one.
 * The library's cache key hashes the flags, so a change to them builds
 * the library once more under a new name.
 *
 * The operations round the same in C as in NumPy only under these
 * conditions:
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

/* NumPy's NaN-propagating maximum and minimum. */
static inline double maximum(double a, double b)
{
    return (isnan(a) || a >= b) ? a : b;
}

static inline double minimum(double a, double b)
{
    return (isnan(a) || a <= b) ? a : b;
}

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
    const double *vth;            /* (T, B) */
    const double *nominal_ov;     /* (T, B) */
    const double *prefactor;      /* (T, B) */
    const double *alpha;          /* (T, B) */
    double *vds;                  /* (T, B); 0.0 on inactive lanes */
    double *overdrive;            /* (T, B); 1.0 on inactive lanes */
    double *ratio;                /* (T, B); power() works in place */
    double *drive;                /* (2T + 1, B): [i | -i | +0.0] */
    const ptrdiff_t *rank_table;  /* (R, I + 1); last column: the supply */
    const double *capacitance;    /* (I, B) */
    const double *clamp_low;      /* (B,) */
    const double *clamp_high;     /* (B,) */
    double *supply_charge;        /* (B,) */
    double *acc;                  /* (B,) */
    double *dt;                   /* (B,) this sub-step's size per column */
    const double *step_sizes;     /* (K, G); 0.0 past a group's end */
    const ptrdiff_t *column_group;    /* (B,) group of each column */
    const ptrdiff_t *source_row;  /* (K,) row of source_rows, or -1 */
    const double *source_rows;    /* (rows, S, B) stimulus values */
    repro_loop power;             /* NumPy's float64 power loop */
    void *power_data;             /* and its loop data */
} repro_step;

/* One device's lanes before power().  vds and vgs (gate - low for
 * n-type, high - gate for p-type) give the overdrive; a lane is active
 * when min(overdrive, vds) > 0 (NaN lanes are not).  An active lane
 * keeps its vds and overdrive; an inactive one stores vds = 0.0 and a
 * safe overdrive of 1.0, so step_post needs no other flag and its
 * division and power() operand stay finite.  ratio = safe overdrive /
 * nominal_ov.  Inlined with a constant n_type: one loop per polarity,
 * selects and no branch. */
static inline void pre_lanes(ptrdiff_t B, int n_type,
                             const double *restrict gate,
                             const double *restrict drain,
                             const double *restrict source,
                             const double *restrict vth,
                             const double *restrict nominal_ov,
                             double *restrict vds,
                             double *restrict overdrive,
                             double *restrict ratio)
{
    for (ptrdiff_t b = 0; b < B; b++) {
        const double high = maximum(drain[b], source[b]);
        const double low = minimum(drain[b], source[b]);
        const double v = high - low;
        const double vgs = n_type ? gate[b] - low : high - gate[b];
        const double od = vgs - vth[b];
        const int active = minimum(od, v) > 0.0;
        const double safe = active ? od : 1.0;
        vds[b] = active ? v : 0.0;
        overdrive[b] = safe;
        ratio[b] = safe / nominal_ov[b];
    }
}

/* Every device's lanes before power(); the terminal rows are read in
 * place through terminal_idx. */
static void step_pre(const repro_step *s)
{
    const ptrdiff_t T = s->devices, B = s->batch;
    const ptrdiff_t *idx = s->terminal_idx;
    for (ptrdiff_t t = 0; t < T; t++) {
        const double *gate = s->voltages + idx[t] * B;
        const double *drain = s->voltages + idx[T + t] * B;
        const double *source = s->voltages + idx[2 * T + t] * B;
        const ptrdiff_t row = t * B;
        if (t < s->n_type)
            pre_lanes(B, 1, gate, drain, source, s->vth + row,
                      s->nominal_ov + row, s->vds + row,
                      s->overdrive + row, s->ratio + row);
        else
            pre_lanes(B, 0, gate, drain, source, s->vth + row,
                      s->nominal_ov + row, s->vds + row,
                      s->overdrive + row, s->ratio + row);
    }
}

/* Every lane after power(): saturation = prefactor * ratio, back into
 * ratio, and the triode current saturation * triode * (2.0 - triode),
 * triode = vds / overdrive, into the drive row.  Both currents are
 * computed on every lane, and step_post's selects read them from
 * memory: a select between a value and an expression lets the compiler
 * sink the expression into a branch, which it then cannot vectorize. */
static void currents(ptrdiff_t lanes, const double *restrict vds,
                     const double *restrict overdrive,
                     const double *restrict prefactor,
                     double *restrict ratio, double *restrict drive)
{
    for (ptrdiff_t i = 0; i < lanes; i++) {
        const double saturation = prefactor[i] * ratio[i];
        const double triode = vds[i] / overdrive[i];
        ratio[i] = saturation;
        drive[i] = saturation * triode * (2.0 - triode);
    }
}

/* One device's drive rows: the saturation or triode current, 0.0 on an
 * inactive lane (vds == 0.0), signed by terminal order, and its
 * negation. */
static inline void drive_lanes(ptrdiff_t B, const double *restrict drain,
                               const double *restrict source,
                               const double *restrict vds,
                               const double *restrict overdrive,
                               const double *restrict saturation,
                               double *restrict drive,
                               double *restrict negated)
{
    for (ptrdiff_t b = 0; b < B; b++) {
        const double v = vds[b], sat = saturation[b], linear = drive[b];
        const double conducting = v >= overdrive[b] ? sat : linear;
        const double magnitude = v > 0.0 ? conducting : 0.0;
        const double current = drain[b] >= source[b] ? magnitude : -magnitude;
        drive[b] = current;
        negated[b] = -current;
    }
}

/* One net's update: x dt, / C, add, and the rail clamp. */
static inline void update_lanes(ptrdiff_t B, const double *restrict acc,
                                const double *restrict dt,
                                const double *restrict capacitance,
                                const double *restrict low,
                                const double *restrict high,
                                double *restrict node)
{
    for (ptrdiff_t b = 0; b < B; b++) {
        const double v = node[b] + (acc[b] * dt[b]) / capacitance[b];
        node[b] = minimum(maximum(v, low[b]), high[b]);
    }
}

/* Sub-step i after power(): the currents, the drive rows, column b's
 * step size `step_sizes[i * G + column_group[b]]`, then per net the
 * rank-ordered accumulate and its update, and the supply charge. */
static void step_post(const repro_step *s, ptrdiff_t i)
{
    const ptrdiff_t T = s->devices, B = s->batch;
    const ptrdiff_t columns = s->nodes + 1;
    const ptrdiff_t *idx = s->terminal_idx;
    const double *sizes = s->step_sizes + i * s->groups;
    double *restrict dt = s->dt;
    double *restrict acc = s->acc;
    currents(T * B, s->vds, s->overdrive, s->prefactor, s->ratio, s->drive);
    for (ptrdiff_t t = 0; t < T; t++) {
        const ptrdiff_t row = t * B;
        drive_lanes(B, s->voltages + idx[T + t] * B,
                    s->voltages + idx[2 * T + t] * B, s->vds + row,
                    s->overdrive + row, s->ratio + row, s->drive + row,
                    s->drive + T * B + row);
    }
    for (ptrdiff_t b = 0; b < B; b++)
        dt[b] = sizes[s->column_group[b]];
    for (ptrdiff_t j = 0; j < columns; j++) {
        const double *restrict first = s->drive + s->rank_table[j] * B;
        for (ptrdiff_t b = 0; b < B; b++)
            acc[b] = first[b] + 0.0;
        for (ptrdiff_t r = 1; r < s->ranks; r++) {
            const double *restrict rank =
                s->drive + s->rank_table[r * columns + j] * B;
            for (ptrdiff_t b = 0; b < B; b++)
                acc[b] += rank[b];
        }
        if (j == s->nodes) {
            double *restrict supply = s->supply_charge;
            for (ptrdiff_t b = 0; b < B; b++)
                supply[b] += acc[b] * dt[b];
        } else {
            update_lanes(B, acc, dt, s->capacitance + j * B, s->clamp_low,
                         s->clamp_high, s->voltages + j * B);
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
