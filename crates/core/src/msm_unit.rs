//! The MSM unit model: Pippenger's algorithm on a pipelined point adder,
//! with the Sparse-MSM tree mode, the two bucket-aggregation schedules
//! compared in Figure 5 of the paper, and two datapath variants: the
//! paper's, and the one the functional layer runs (signed digits with
//! batch-affine or projective buckets).
//!
//! Drift between model and software: the unit, like the paper's chip, runs
//! Pippenger over 255-bit scalars, while the software MSM splits every
//! scalar by the GLV endomorphism into two 128-bit halves over the points
//! and their images (`2n` terms, half the windows). The parity tests compare
//! the two at the software's shape; no model constant changes for it.

use crate::params::{BEEA_LATENCY_CYCLES, MODMUL_381_MM2, PADD_FQ_MULS, PADD_LATENCY_CYCLES};

/// Scalar bit width of BLS12-381 Fr (the MSM scalars).
const SCALAR_BITS: usize = 255;

/// Fq multiplications of a mixed (projective + affine) point addition on the
/// modelled datapath (see [`PADD_FQ_MULS`] for why these are the chip's own
/// numbers and not the functional layer's).
const PADD_MIXED_FQ_MULS: usize = 13;
/// Amortized Fq multiplications of a batch-affine bucket addition.
const BATCH_AFFINE_ADD_FQ_MULS: usize = 6;
/// Fq multiplications of a point doubling.
const PDBL_FQ_MULS: usize = 8;

/// Bucket-aggregation schedule (Section 4.2.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AggregationSchedule {
    /// SZKP's serial running-sum aggregation.
    SzkpSerial,
    /// zkSpeed's grouped aggregation with the given group size (16 in the
    /// paper).
    Grouped {
        /// Buckets per group.
        group_size: usize,
    },
}

/// The bucket-accumulation datapath, over the chip's whole 255-bit scalars.
/// `Signed` prices the two bucket paths the functional engine
/// (`zkspeed_curve::msm`) chooses between window by window — batch-affine
/// buckets, or projective ones for a window piled onto a few buckets — at
/// the `MsmStats` pricing. `Unsigned` is the paper's datapath, which the
/// software does not run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MsmDatapath {
    /// Classic unsigned Pippenger with full projective bucket additions —
    /// the paper's Table 2 datapath and the calibration baseline.
    Unsigned,
    /// Signed-digit recoding: one extra window absorbs the carry, the
    /// bucket count halves to `2^{w−1}` (ROADMAP item 5b), and bucket fills
    /// are mixed additions — optionally batch-affine additions whose
    /// shared BEEA inversion is amortized over a PE's buffered points.
    Signed {
        /// Accumulate buckets with amortized batch-affine additions.
        batch_affine: bool,
    },
}

impl MsmDatapath {
    /// Whether bucket fills use amortized batch-affine additions.
    pub fn batch_affine(&self) -> bool {
        match self {
            MsmDatapath::Unsigned => false,
            MsmDatapath::Signed { batch_affine } => *batch_affine,
        }
    }

    /// Fq multiplications of one bucket-fill addition on this datapath.
    fn fill_fq_muls(&self) -> f64 {
        match self {
            MsmDatapath::Unsigned => PADD_FQ_MULS as f64,
            _ if self.batch_affine() => BATCH_AFFINE_ADD_FQ_MULS as f64,
            _ => PADD_MIXED_FQ_MULS as f64,
        }
    }
}

/// Configuration of the MSM unit (the Table 2 design knobs).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MsmUnitConfig {
    /// Number of MSM cores (1 or 2 in the DSE).
    pub cores: usize,
    /// Point-adder PEs per core.
    pub pes_per_core: usize,
    /// Pippenger window size in bits (7–10 in the DSE).
    pub window_bits: usize,
    /// Elliptic-curve points buffered per PE in local SRAM.
    pub points_per_pe: usize,
    /// Bucket aggregation schedule.
    pub aggregation: AggregationSchedule,
    /// Bucket-accumulation datapath.
    pub datapath: MsmDatapath,
}

impl Default for MsmUnitConfig {
    fn default() -> Self {
        // The highlighted Table 5 design: one core, 16 PEs, 9-bit windows,
        // 2048 points per PE, grouped aggregation with groups of 16.
        Self {
            cores: 1,
            pes_per_core: 16,
            window_bits: 9,
            points_per_pe: 2048,
            aggregation: AggregationSchedule::Grouped { group_size: 16 },
            datapath: MsmDatapath::Unsigned,
        }
    }
}

impl MsmUnitConfig {
    /// Total point-adder PEs across cores.
    pub fn total_pes(&self) -> usize {
        self.cores * self.pes_per_core
    }

    /// Number of Pippenger windows. Signed-digit datapaths carry one extra
    /// window that absorbs the recoding carry.
    pub fn num_windows(&self) -> usize {
        match self.datapath {
            MsmDatapath::Unsigned => SCALAR_BITS.div_ceil(self.window_bits),
            _ => SCALAR_BITS.div_ceil(self.window_bits) + 1,
        }
    }

    /// Number of buckets per window. Signed digits halve the count to
    /// `2^{w−1}`.
    pub fn num_buckets(&self) -> usize {
        match self.datapath {
            MsmDatapath::Unsigned => (1 << self.window_bits) - 1,
            _ => 1 << (self.window_bits - 1),
        }
    }

    /// Datapath area in mm²: each PE is a fully-pipelined PADD
    /// (≈ `PADD_FQ_MULS` 381-bit multipliers) plus control.
    pub fn datapath_area_mm2(&self) -> f64 {
        let padd_area = PADD_FQ_MULS as f64 * MODMUL_381_MM2;
        self.total_pes() as f64 * padd_area * 1.05 // 5% control overhead
    }

    /// Local SRAM bytes: three coordinate banks of `points_per_pe` points per
    /// PE plus bucket registers (Section 4.2.1 — the scalar bank is folded
    /// into the Z bank).
    pub fn local_sram_bytes(&self) -> f64 {
        let point_bytes = 3.0 * 48.0; // X, Y, Z banks at 381 bits each
        let buckets_bytes = self.num_buckets() as f64 * 3.0 * 48.0;
        self.total_pes() as f64 * (self.points_per_pe as f64 * point_bytes + buckets_bytes)
    }

    /// Latency (cycles) of the bucket-aggregation step for one window on one
    /// PE (Figure 5).
    pub fn aggregation_cycles(&self) -> f64 {
        aggregation_cycles(self.num_buckets(), self.aggregation)
    }

    /// Latency (cycles) of a dense `n`-point MSM on this unit.
    ///
    /// Bucket accumulation is throughput-bound on the pipelined PADDs
    /// (windows × points additions spread over all PEs); aggregation and the
    /// window-combination doublings are latency-bound dependency chains.
    pub fn dense_msm_cycles(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let windows = self.num_windows() as f64;
        let pes = self.total_pes() as f64;
        // Each PE handles a slice of the points for all windows; window/PE
        // pairs proceed in parallel across PEs. A PE's multiplier array is
        // sized for a full projective PADD, so cheaper addition kinds issue
        // proportionally faster (a 6-mul batch-affine add sustains ~2.3 adds
        // per PADD slot).
        let bucket_ops = windows * n as f64;
        let throughput_scale = self.datapath.fill_fq_muls() / PADD_FQ_MULS as f64;
        let bucket_cycles = bucket_ops * throughput_scale / pes + PADD_LATENCY_CYCLES as f64;
        // Batch-affine accumulation shares one BEEA inversion per buffer of
        // `points_per_pe` additions; the inversions serialize on each PE's
        // inverter (the amortized-inversion term of ROADMAP 5b).
        let inversion_cycles = if self.datapath.batch_affine() {
            (bucket_ops / (pes * self.points_per_pe as f64)).ceil() * BEEA_LATENCY_CYCLES as f64
        } else {
            0.0
        };
        // Each PE aggregates its own windows; windows are distributed over
        // PEs, and each aggregation is a (partially) serial chain.
        let aggregations_per_pe = (windows / pes).ceil();
        let aggregation_cycles = aggregations_per_pe * self.aggregation_cycles();
        // Final cross-window combination: w doublings + 1 addition per
        // window, strictly serial (small).
        let combine_cycles =
            windows * (self.window_bits as f64 + 1.0) * PADD_LATENCY_CYCLES as f64 / 8.0;
        bucket_cycles + inversion_cycles + aggregation_cycles + combine_cycles
    }

    /// Latency (cycles) of a sparse MSM with the paper's witness statistics:
    /// `ones` points summed by the pipelined tree adder, `dense` points
    /// through Pippenger, zeros skipped.
    pub fn sparse_msm_cycles(&self, zeros: usize, ones: usize, dense: usize) -> f64 {
        let _ = zeros;
        let pes = self.total_pes() as f64;
        // Tree summation is one PADD per pair per level, fully pipelined.
        let tree_cycles = ones as f64 / pes
            + (usize::BITS - ones.max(1).leading_zeros()) as f64 * PADD_LATENCY_CYCLES as f64;
        tree_cycles + self.dense_msm_cycles(dense)
    }

    /// Total Fq modular multiplications of a dense `n`-point MSM (for power
    /// and cross-checking against the functional layer's
    /// `MsmStats::fq_muls`, which prices each addition kind separately).
    pub fn dense_msm_fq_muls(&self, n: usize) -> f64 {
        let windows = self.num_windows() as f64;
        let buckets = self.num_buckets() as f64;
        let fill = windows * n as f64 * self.datapath.fill_fq_muls();
        match self.datapath {
            MsmDatapath::Unsigned => {
                // Calibration baseline (unchanged): every addition priced as
                // a full projective PADD.
                let aggregation = windows * 2.0 * buckets;
                let combine = windows * (self.window_bits as f64 + 1.0);
                fill + (aggregation + combine) * PADD_FQ_MULS as f64
            }
            MsmDatapath::Signed { .. } => {
                // Halved bucket sets, but still one aggregation and one
                // doubling chain per window.
                let aggregation = windows * 2.0 * buckets * PADD_FQ_MULS as f64;
                let combine =
                    windows * (self.window_bits as f64 * PDBL_FQ_MULS as f64 + PADD_FQ_MULS as f64);
                fill + aggregation + combine
            }
        }
    }
}

/// Latency (cycles) of aggregating `buckets` bucket sums with the given
/// schedule on one pipelined PADD (Figure 5).
pub fn aggregation_cycles(buckets: usize, schedule: AggregationSchedule) -> f64 {
    let lat = PADD_LATENCY_CYCLES as f64;
    match schedule {
        // Two dependent additions per bucket, each paying the full pipeline
        // latency because the chain cannot be overlapped.
        AggregationSchedule::SzkpSerial => 2.0 * buckets as f64 * lat,
        // Groups are independent, so their inner chains interleave in the
        // pipeline (≈ one addition issued per cycle); only the per-group
        // chain tail and the cross-group combination pay full latency.
        AggregationSchedule::Grouped { group_size } => {
            let group_size = group_size.max(1);
            let groups = buckets.div_ceil(group_size) as f64;
            let issue = 2.0 * buckets as f64 / groups.min(lat);
            let tail = 2.0 * group_size as f64 + 2.0 * groups;
            issue + tail * lat / group_size as f64 + lat
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table5_design() {
        let cfg = MsmUnitConfig::default();
        assert_eq!(cfg.total_pes(), 16);
        assert_eq!(cfg.num_windows(), 29); // ceil(255 / 9)
        assert_eq!(cfg.num_buckets(), 511);
        // Table 5 reports 105.64 mm² for the 16-PE MSM unit (datapath +
        // local SRAM is added by the chip model); the datapath alone should
        // be within ~70–80 mm².
        let area = cfg.datapath_area_mm2();
        assert!(area > 60.0 && area < 90.0, "datapath area {area}");
    }

    #[test]
    fn grouped_aggregation_is_much_faster_than_serial() {
        for w in [7usize, 8, 9, 10] {
            let buckets = (1 << w) - 1;
            let serial = aggregation_cycles(buckets, AggregationSchedule::SzkpSerial);
            let grouped =
                aggregation_cycles(buckets, AggregationSchedule::Grouped { group_size: 16 });
            let reduction = 1.0 - grouped / serial;
            assert!(
                reduction > 0.80,
                "w={w}: expected ≥80% reduction, got {:.1}%",
                reduction * 100.0
            );
            // Figure 5: SZKP latency is in the 10^4–10^5 cycle range.
            assert!(serial > 1.0e4 && serial < 2.0e5);
        }
    }

    #[test]
    fn msm_latency_scales_with_problem_size_and_pes() {
        let cfg = MsmUnitConfig::default();
        let small = cfg.dense_msm_cycles(1 << 16);
        let large = cfg.dense_msm_cycles(1 << 20);
        assert!(large > 10.0 * small);
        let mut wide = cfg;
        wide.pes_per_core = 1;
        assert!(wide.dense_msm_cycles(1 << 20) > 8.0 * large);
        assert_eq!(cfg.dense_msm_cycles(0), 0.0);
    }

    #[test]
    fn sparse_msm_is_cheaper_than_dense() {
        let cfg = MsmUnitConfig::default();
        let n = 1 << 20;
        let dense = cfg.dense_msm_cycles(n);
        let sparse = cfg.sparse_msm_cycles(n * 45 / 100, n * 45 / 100, n / 10);
        assert!(sparse < dense * 0.5, "sparse {sparse} vs dense {dense}");
    }

    #[test]
    fn sparse_msm_handles_measured_extreme_splits() {
        // The measured workload suite feeds splits far from the paper's
        // 45/45/10 assumption: bit-only Keccak circuits (~zero dense tail)
        // and dense balance circuits. The model must stay finite and
        // monotone across the whole range.
        let cfg = MsmUnitConfig::default();
        let n = 1usize << 20;
        let bits = cfg.sparse_msm_cycles(n / 2, n / 2, 0);
        let paper = cfg.sparse_msm_cycles(n * 45 / 100, n * 45 / 100, n / 10);
        let dense = cfg.sparse_msm_cycles(0, 0, n);
        assert!(bits.is_finite() && bits > 0.0);
        assert!(bits < paper && paper < dense, "{bits} {paper} {dense}");
        // Zeros are skipped outright: an all-zero column costs less than an
        // all-one column.
        assert!(cfg.sparse_msm_cycles(n, 0, 0) < cfg.sparse_msm_cycles(0, n, 0));
    }

    #[test]
    fn signed_datapath_halves_buckets_and_adds_a_window() {
        let unsigned = MsmUnitConfig::default();
        let signed = MsmUnitConfig {
            datapath: MsmDatapath::Signed { batch_affine: true },
            ..unsigned
        };
        assert_eq!(unsigned.num_windows(), 29);
        assert_eq!(signed.num_windows(), 30);
        assert_eq!(unsigned.num_buckets(), 511);
        assert_eq!(signed.num_buckets(), 256);
        // Fewer buckets mean less local SRAM per PE.
        assert!(signed.local_sram_bytes() < unsigned.local_sram_bytes());
        // Cheaper fills and halved aggregation beat the extra window.
        let n = 1 << 16;
        assert!(signed.dense_msm_fq_muls(n) < unsigned.dense_msm_fq_muls(n));
    }

    /// The model's count at the functional engine's shape. The software MSM
    /// runs Pippenger over the GLV endomorphism: `2n` terms (the points and
    /// their images) over the windows of a 128-bit scalar half. The model,
    /// like the chip, keeps 255-bit scalars; its per-window cost is taken at
    /// `2n` points and charged for the half's windows instead.
    fn at_glv_shape(cfg: &MsmUnitConfig, n: usize) -> f64 {
        let carry_window = cfg.num_windows() - SCALAR_BITS.div_ceil(cfg.window_bits);
        let half_windows = 128usize.div_ceil(cfg.window_bits) + carry_window;
        cfg.dense_msm_fq_muls(2 * n) * half_windows as f64 / cfg.num_windows() as f64
    }

    /// The functional engine's counts at `w`-bit windows on `n` random
    /// points, for uniform scalars and for all-equal ones, each with the
    /// bucket path the engine took for it: uniform scalars fill batch-affine
    /// buckets (`true`), all-equal ones pile each window onto one or two
    /// buckets and fill projective ones (`false`).
    fn engine_counts(n: usize, w: usize, seed: u64) -> [(bool, zkspeed_curve::MsmStats); 2] {
        use zkspeed_curve::{msm_with_config_on, G1Projective, MsmConfig};
        use zkspeed_field::Fr;
        use zkspeed_rt::pool::Serial;
        use zkspeed_rt::rngs::StdRng;
        use zkspeed_rt::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<_> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let uniform: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let equal = vec![uniform[0]; n];
        let config = MsmConfig::default().with_window_bits(w);
        let run = |scalars: &[Fr]| msm_with_config_on(&Serial, &points, scalars, config).1;
        let (uniform, equal) = (run(&uniform), run(&equal));
        assert!(uniform.bucket_adds == 0, "uniform: {uniform:?}");
        assert!(
            equal.bucket_adds > equal.affine_adds,
            "all-equal: {equal:?}"
        );
        [(true, uniform), (false, equal)]
    }

    #[test]
    fn signed_fq_muls_track_functional_stats() {
        // The signed-digit model term (ROADMAP 5b) must land within a small
        // band of the functional engine's counted operations, on each
        // bucket path.
        let n = 256;
        for (batch_affine, stats) in engine_counts(n, 8, 21) {
            let cfg = MsmUnitConfig {
                window_bits: 8,
                datapath: MsmDatapath::Signed { batch_affine },
                ..MsmUnitConfig::default()
            };
            let model = at_glv_shape(&cfg, n);
            let measured = stats.fq_muls() as f64;
            assert!(
                model > measured * 0.5 && model < measured * 2.5,
                "batch_affine={batch_affine}: model {model} vs measured {measured}"
            );
        }
    }

    #[test]
    fn fq_mul_count_is_consistent_with_functional_stats() {
        // At the highlighted design's window width, the analytic count
        // should be within the band of the functional layer's counted
        // operations on each bucket path (the functional layer skips
        // zero-valued windows, the model does not).
        let (n, w) = (512, MsmUnitConfig::default().window_bits);
        for (batch_affine, stats) in engine_counts(n, w, 7) {
            let cfg = MsmUnitConfig {
                datapath: MsmDatapath::Signed { batch_affine },
                ..MsmUnitConfig::default()
            };
            let model = at_glv_shape(&cfg, n);
            let measured = stats.fq_muls() as f64;
            assert!(
                model > measured * 0.5 && model < measured * 2.5,
                "batch_affine={batch_affine}: model {model} vs measured {measured}"
            );
        }
    }
}
