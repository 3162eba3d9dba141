//! The MSM unit model: Pippenger's algorithm on a pipelined point adder,
//! with the Sparse-MSM tree mode, the two bucket-aggregation schedules
//! compared in Figure 5 of the paper, and the datapath variants the
//! functional layer measures (signed digits, batch-affine buckets,
//! precomputed multi-base tables).
//!
//! Drift between model and software: the unit, like the paper's chip, runs
//! Pippenger over 255-bit scalars, while the software MSM splits every
//! scalar by the GLV endomorphism into two 128-bit halves over the points
//! and their images (`2n` terms, half the windows). The parity tests compare
//! the two at the software's shape; no model constant changes for it.

use crate::params::{
    BEEA_LATENCY_CYCLES, BYTES_PER_POINT, MODMUL_381_MM2, PADD_FQ_MULS, PADD_LATENCY_CYCLES,
};

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

/// The bucket-accumulation datapath, mirroring the engines the functional
/// MSM layer measures (`zkspeed_curve::msm_with_config_on`,
/// `zkspeed_curve::msm_precomputed` and their `MsmStats` pricing).
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
    /// Precomputed multi-base tables: the shifted multiples `2^{w·j}·Bᵢ`
    /// are read from memory, turning the MSM into a single flat
    /// signed-digit bucket problem — zero doublings, one aggregation pass,
    /// at the cost of reading `⌈255/w⌉ + 1` points per scalar
    /// ([`MsmUnitConfig::table_bytes`] prices the table footprint).
    Precomputed {
        /// Accumulate buckets with amortized batch-affine additions.
        batch_affine: bool,
    },
}

impl MsmDatapath {
    /// Whether bucket fills use amortized batch-affine additions.
    pub fn batch_affine(&self) -> bool {
        match self {
            MsmDatapath::Unsigned => false,
            MsmDatapath::Signed { batch_affine } | MsmDatapath::Precomputed { batch_affine } => {
                *batch_affine
            }
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

    /// Number of buckets per window (per bucket set for the flat
    /// precomputed datapath). Signed digits halve the count to `2^{w−1}`.
    pub fn num_buckets(&self) -> usize {
        match self.datapath {
            MsmDatapath::Unsigned => (1 << self.window_bits) - 1,
            _ => 1 << (self.window_bits - 1),
        }
    }

    /// Bytes of precomputed multi-base tables an `n`-base MSM needs on this
    /// datapath: `(⌈255/w⌉ + 1) · n` shifted points of
    /// [`BYTES_PER_POINT`] each, 0 for the table-free datapaths. The DSE
    /// weighs this HBM footprint against the eliminated doublings.
    pub fn table_bytes(&self, n: usize) -> f64 {
        match self.datapath {
            MsmDatapath::Precomputed { .. } => {
                self.num_windows() as f64 * n as f64 * BYTES_PER_POINT
            }
            _ => 0.0,
        }
    }

    /// Points read from memory per dense scalar: the table-free datapaths
    /// stream one base point, the precomputed datapath reads one shifted
    /// table entry per window.
    pub fn points_read_per_scalar(&self) -> f64 {
        match self.datapath {
            MsmDatapath::Precomputed { .. } => self.num_windows() as f64,
            _ => 1.0,
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
        match self.datapath {
            MsmDatapath::Unsigned | MsmDatapath::Signed { .. } => {
                // Each PE aggregates its own windows; windows are
                // distributed over PEs, and each aggregation is a
                // (partially) serial chain.
                let aggregations_per_pe = (windows / pes).ceil();
                let aggregation_cycles = aggregations_per_pe * self.aggregation_cycles();
                // Final cross-window combination: w doublings + 1 addition
                // per window, strictly serial (small).
                let combine_cycles =
                    windows * (self.window_bits as f64 + 1.0) * PADD_LATENCY_CYCLES as f64 / 8.0;
                bucket_cycles + inversion_cycles + aggregation_cycles + combine_cycles
            }
            // The precomputed datapath has one flat bucket set: a single
            // aggregation pass and no window-combination doublings at all.
            MsmDatapath::Precomputed { .. } => {
                bucket_cycles + inversion_cycles + self.aggregation_cycles()
            }
        }
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
            MsmDatapath::Precomputed { .. } => {
                // One flat bucket set: a single aggregation, zero doublings.
                fill + 2.0 * buckets * PADD_FQ_MULS as f64
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
        assert_eq!(unsigned.table_bytes(n), 0.0);
        assert_eq!(signed.table_bytes(n), 0.0);
    }

    #[test]
    fn precomputed_datapath_trades_memory_for_doublings() {
        let unsigned = MsmUnitConfig::default();
        let pre = MsmUnitConfig {
            datapath: MsmDatapath::Precomputed { batch_affine: true },
            ..unsigned
        };
        let n = 1 << 16;
        // Zero doublings and a single aggregation: far fewer multiplications
        // and cycles than the classic datapath.
        assert!(pre.dense_msm_fq_muls(n) < 0.75 * unsigned.dense_msm_fq_muls(n));
        assert!(pre.dense_msm_cycles(n) < unsigned.dense_msm_cycles(n));
        // …paid for in table memory and per-scalar point reads.
        assert_eq!(pre.points_read_per_scalar(), pre.num_windows() as f64);
        assert_eq!(unsigned.points_read_per_scalar(), 1.0);
        assert!(pre.table_bytes(n) > 0.0);
        // The table footprint prices exactly the points the functional
        // layer plans to build (at the HBM point layout of 96 bytes; the
        // in-memory `planned_bytes` additionally carries the infinity flag).
        let w = 12;
        let pre12 = MsmUnitConfig {
            window_bits: w,
            ..pre
        };
        assert_eq!(
            pre12.table_bytes(4096),
            zkspeed_curve::MultiBaseTable::planned_points(4096, w) as f64 * BYTES_PER_POINT
        );
    }

    /// The model's count at the functional engine's shape. The software MSM
    /// runs Pippenger over the GLV endomorphism: `2n` terms (the points and
    /// their images) over the windows of a 128-bit scalar half. The model,
    /// like the chip, keeps 255-bit scalars; its per-window cost is taken at
    /// `2n` points and charged for the half's windows instead. (Only the
    /// table-free datapaths, whose every term is per window.)
    fn at_glv_shape(cfg: &MsmUnitConfig, n: usize) -> f64 {
        let carry_window = cfg.num_windows() - SCALAR_BITS.div_ceil(cfg.window_bits);
        let half_windows = 128usize.div_ceil(cfg.window_bits) + carry_window;
        cfg.dense_msm_fq_muls(2 * n) * half_windows as f64 / cfg.num_windows() as f64
    }

    #[test]
    fn signed_fq_muls_track_functional_stats() {
        // The signed-digit model term (ROADMAP 5b) must land within a small
        // band of the functional engine's counted operations.
        use zkspeed_curve::{msm_with_config_on, G1Projective, MsmConfig};
        use zkspeed_field::Fr;
        use zkspeed_rt::pool::Serial;
        use zkspeed_rt::rngs::StdRng;
        use zkspeed_rt::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        let n = 256;
        let points: Vec<_> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        for (min_points, batch_affine) in [(usize::MAX, false), (0, true)] {
            let mut config = MsmConfig::optimized().with_window_bits(8);
            config.batch_affine_min_points = min_points;
            let (_, stats) = msm_with_config_on(&Serial, &points, &scalars, config);
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
    fn precomputed_fq_muls_track_functional_stats() {
        // The precomputed-table model must track `msm_precomputed`'s
        // measured operations, including the measured speedup over the
        // classic datapath.
        use std::sync::Arc;
        use zkspeed_curve::{
            msm_precomputed, msm_with_config_on, G1Projective, MsmConfig, MultiBaseTable,
        };
        use zkspeed_field::Fr;
        use zkspeed_rt::pool::Serial;
        use zkspeed_rt::rngs::StdRng;
        use zkspeed_rt::SeedableRng;
        let mut rng = StdRng::seed_from_u64(22);
        let n = 256;
        let w = 8;
        let points: Vec<_> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        let table = Arc::new(MultiBaseTable::build(&Arc::new(points.clone()), w, &Serial));
        let (_, pre_stats) = msm_precomputed(&Serial, &table, &scalars);
        let classic = MsmConfig::classic().with_window_bits(w);
        let (_, classic_stats) = msm_with_config_on(&Serial, &points, &scalars, classic);

        let base = MsmUnitConfig {
            window_bits: w,
            ..MsmUnitConfig::default()
        };
        let pre_cfg = MsmUnitConfig {
            datapath: MsmDatapath::Precomputed { batch_affine: true },
            ..base
        };
        let model = pre_cfg.dense_msm_fq_muls(n);
        let measured = pre_stats.fq_muls() as f64;
        assert!(
            model > measured * 0.5 && model < measured * 2.5,
            "model {model} vs measured {measured}"
        );
        // Analytical speedup over the classic datapath tracks the measured
        // speedup within 2×, the classic one at the software's GLV shape.
        let model_ratio = at_glv_shape(&base, n) / model;
        let measured_ratio = classic_stats.fq_muls() as f64 / measured;
        assert!(model_ratio > 1.0 && measured_ratio > 1.0);
        assert!(
            model_ratio > measured_ratio * 0.5 && model_ratio < measured_ratio * 2.0,
            "model ratio {model_ratio} vs measured ratio {measured_ratio}"
        );
    }

    #[test]
    fn fq_mul_count_is_consistent_with_functional_stats() {
        // The analytic count should be within 2× of the functional layer's
        // counted operations for the same window size (the functional layer
        // skips zero-valued windows, the model does not).
        use zkspeed_curve::{msm_with_config_on, G1Projective, MsmConfig};
        use zkspeed_field::Fr;
        use zkspeed_rt::pool::Serial;
        use zkspeed_rt::rngs::StdRng;
        use zkspeed_rt::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let n = 64;
        let points: Vec<_> = (0..n)
            .map(|_| G1Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        // The classic schedule (unsigned windows, mixed additions) is the
        // functional counterpart of the modeled Pippenger unit.
        let classic = MsmConfig::classic().with_window_bits(8);
        let (_, stats) = msm_with_config_on(&Serial, &points, &scalars, classic);
        let cfg = MsmUnitConfig {
            window_bits: 8,
            ..MsmUnitConfig::default()
        };
        let model = at_glv_shape(&cfg, n);
        let measured = stats.fq_muls() as f64;
        assert!(
            model > measured * 0.5 && model < measured * 2.5,
            "model {model} vs measured {measured}"
        );
    }
}

impl zkspeed_rt::ToJson for AggregationSchedule {
    fn to_json(&self) -> zkspeed_rt::JsonValue {
        use zkspeed_rt::JsonValue;
        match self {
            AggregationSchedule::SzkpSerial => JsonValue::Str("SzkpSerial".to_string()),
            AggregationSchedule::Grouped { group_size } => JsonValue::Object(vec![(
                "Grouped".to_string(),
                JsonValue::Object(vec![(
                    "group_size".to_string(),
                    JsonValue::UInt(*group_size as u64),
                )]),
            )]),
        }
    }
}

impl zkspeed_rt::ToJson for MsmDatapath {
    fn to_json(&self) -> zkspeed_rt::JsonValue {
        use zkspeed_rt::JsonValue;
        let with_batch_affine = |name: &str, batch_affine: bool| {
            JsonValue::Object(vec![(
                name.to_string(),
                JsonValue::Object(vec![(
                    "batch_affine".to_string(),
                    JsonValue::Bool(batch_affine),
                )]),
            )])
        };
        match self {
            MsmDatapath::Unsigned => JsonValue::Str("Unsigned".to_string()),
            MsmDatapath::Signed { batch_affine } => with_batch_affine("Signed", *batch_affine),
            MsmDatapath::Precomputed { batch_affine } => {
                with_batch_affine("Precomputed", *batch_affine)
            }
        }
    }
}

zkspeed_rt::impl_to_json_struct!(MsmUnitConfig {
    cores,
    pes_per_core,
    window_bits,
    points_per_pe,
    aggregation,
    datapath,
});
