//! What a proof measures of itself: seconds per [`ProtocolStep`], modmuls
//! and traffic per Table 1 [`Kernel`], both named once in their `TABLE`,
//! and the one [`Meter`] the prover takes them with.

use std::time::Instant;

use zkspeed_curve::{MsmStats, SparseMsmStats};
use zkspeed_field::modmul_count;
use zkspeed_rt::trace::{Span, TraceSink};
use zkspeed_sumcheck::ProverOutput;

zkspeed_rt::table_enum! {
    /// The protocol steps, in execution order. Each row of
    /// [`ProtocolStep::TABLE`] names its step for all three of its readers:
    /// the figures print its display name, `prove` opens its trace span and
    /// the service's metrics document keys its histogram.
    pub enum ProtocolStep: [&'static str; 3] {
        /// Step 1: Sparse-MSM commitments to the witness columns.
        WitnessCommit = ["Witness Commits", "witness-commit", "witness_commit"],
        /// Step 2: Gate Identity ZeroCheck.
        GateIdentity = ["Gate Identity", "gate-identity", "gate_identity"],
        /// Step 3: Wiring Identity (N & D, φ, π, their MSMs, the PermCheck).
        WireIdentity = ["Wire Identity", "wire-identity", "wire_identity"],
        /// Step 4: Batch evaluations of the queried MLEs.
        BatchEvaluation = ["Batch Evals", "batch-evaluation", "batch_evaluation"],
        /// Step 5: Polynomial opening (MLE Combine, OpenCheck, halving MSMs).
        PolynomialOpening = ["Poly Open", "polynomial-opening", "polynomial_opening"],
    }
}

impl ProtocolStep {
    /// Short display name.
    pub fn name(self) -> &'static str {
        Self::TABLE[self as usize][0]
    }

    /// The name of the span [`prove`](crate::prove) opens around the step.
    pub fn span(self) -> &'static str {
        Self::TABLE[self as usize][1]
    }

    /// The step's key in the service's metrics document.
    pub fn key(self) -> &'static str {
        Self::TABLE[self as usize][2]
    }
}

zkspeed_rt::table_enum! {
    /// The twelve kernels of the paper's Table 1, in its row order, each with
    /// its label and the name of the spans its work runs under: one per MSM
    /// job, one per SumCheck round, one around each other region. The MLE
    /// Updates run inside the rounds' spans and have none of their own.
    pub enum Kernel: (&'static str, Option<&'static str>) {
        /// The Sparse MSMs committing the witness columns (step 1).
        WitnessMsm = ("Witness MSMs", Some("msm-witness")),
        /// The dense MSMs committing φ and π (step 3).
        WiringMsm = ("Wire Identity MSMs", Some("msm-wiring")),
        /// The halving MSMs of the polynomial opening (step 5).
        OpeningMsm = ("Poly Open MSMs", Some("msm-opening")),
        /// The Gate Identity ZeroCheck's rounds.
        ZeroCheck = ("ZeroCheck Rounds", Some("gate-round")),
        /// The Wiring Identity ZeroCheck's rounds.
        PermCheck = ("PermCheck Rounds", Some("perm-round")),
        /// The OpenCheck's rounds.
        OpenCheck = ("OpenCheck Rounds", Some("open-round")),
        /// φ from the products of the N and of the D tables.
        FractionMle = ("Fraction MLE", Some("frac-mle")),
        /// π from φ.
        ProductMle = ("Product MLE", Some("prod-mle")),
        /// The products of the N and of the D tables, then the tables.
        ConstructNd = ("Construct N & D", Some("construct-nd")),
        /// The evaluations no ZeroCheck returned (step 4).
        BatchEval = ("Batch Evaluations", Some("mle-evaluate")),
        /// MLE Combine: each query group's tables into its `yᵢ`, then g′.
        LinearCombine = ("Linear Combine", Some("mle-combine")),
        /// The MLE Updates between the rounds of all three SumChecks.
        MleUpdate = ("All MLE Updates", None),
    }
}

impl Kernel {
    /// The MSM kernels, whose rows count Fq multiplications only.
    pub const MSMS: [Kernel; 3] = [Kernel::WitnessMsm, Kernel::WiringMsm, Kernel::OpeningMsm];

    /// The paper's row label.
    pub const fn label(self) -> &'static str {
        Self::TABLE[self as usize].0
    }

    /// The name of the spans the kernel's work runs under, if it has its own.
    pub fn span(self) -> Option<&'static str> {
        Self::TABLE[self as usize].1
    }

    pub(crate) fn span_name(self) -> &'static str {
        self.span().expect("a kernel with spans of its own")
    }
}

/// Wall-clock and operation-count measurements from one proving run.
#[derive(Clone, Debug, Default)]
pub struct ProverReport {
    /// Problem size `μ`.
    pub num_vars: usize,
    /// Seconds spent in each protocol step, in [`ProtocolStep::ALL`] order
    /// (`step_seconds[step]` reads one).
    pub step_seconds: [f64; 5],
    /// Sparse-MSM statistics of the Witness Commit step (all three columns).
    pub witness_msm: SparseMsmStats,
    /// Dense-MSM statistics of the Wiring Identity step (`φ` and `π`).
    pub wiring_msm: MsmStats,
    /// MSM statistics of the Polynomial Opening step (halving MSMs).
    pub opening_msm: MsmStats,
    /// Number of SHA3 transcript invocations over the whole proof.
    pub transcript_hashes: u64,
    /// The proof's modmuls and traffic by Table 1 kernel
    /// (`kernels[Kernel::ConstructNd]` reads one). What no row holds is the
    /// opening's folds, the transcript's reductions and the normalisation
    /// of the commitments it absorbs.
    pub kernels: [KernelRow; 12],
}

/// One Table 1 kernel as a proof ran it: its modular multiplications and
/// the tables of `2^μ` entries it moved. A SumCheck reads each of its
/// tables at `2^μ + 2^{μ−1} + …` entries, so it counts two reads a table.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelRow {
    /// Modular multiplications (Fq alone for the [`Kernel::MSMS`]).
    pub modmuls: u64,
    /// Tables of `2^μ` Fr read.
    pub reads: u32,
    /// Tables of `2^μ` Fr written.
    pub writes: u32,
    /// Tables of `2^μ` G1 bases read: one for each MSM row.
    pub bases: u32,
}

impl ProverReport {
    /// Total proving time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.step_seconds.iter().sum()
    }

    /// Seconds spent in a given step.
    pub fn seconds(&self, step: ProtocolStep) -> f64 {
        self.step_seconds[step]
    }
}

/// Times the protocol steps of one proof and counts its kernels. Each step
/// runs under its span from [`ProtocolStep::TABLE`], and starting a step
/// ends the one running. Each kernel region adds its modmuls and the tables
/// it moves to its row, so a kernel run in two places (Construct N & D,
/// Linear Combine) adds up.
pub(crate) struct Meter<'a> {
    trace: &'a TraceSink,
    job: u64,
    seconds: [f64; 5],
    running: Option<(ProtocolStep, Instant, Span<'a>)>,
    kernels: [KernelRow; 12],
}

impl<'a> Meter<'a> {
    pub(crate) fn new(trace: &'a TraceSink, job: u64) -> Self {
        let (seconds, running, kernels) = Default::default();
        Self {
            trace,
            job,
            seconds,
            running,
            kernels,
        }
    }

    pub(crate) fn start(&mut self, step: ProtocolStep) {
        self.stop();
        let span = (self.trace).span_with(step.span(), "prove", &[("job", self.job)]);
        self.running = Some((step, Instant::now(), span));
    }

    fn stop(&mut self) {
        if let Some((step, clock, span)) = self.running.take() {
            drop(span);
            self.seconds[step] = clock.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` as a region of `kernel` under the kernel's span, adding its
    /// modmuls and `[reads, writes, bases]` to the kernel's row.
    pub(crate) fn kernel<T>(&mut self, kernel: Kernel, io: [u32; 3], f: impl FnOnce() -> T) -> T {
        let _span = (self.trace).span_with(kernel.span_name(), "prove", &[("job", self.job)]);
        self.count(kernel, io, f)
    }

    /// Runs `f`, an MSM kernel over `scalars` tables whose jobs open their
    /// own spans, adding its Fq modmuls: the opening's Fr folds are in no row.
    pub(crate) fn msm<T>(&mut self, kernel: Kernel, scalars: u32, f: impl FnOnce() -> T) -> T {
        self.count(kernel, [scalars, 0, 1], f)
    }

    /// Runs the SumCheck `f`, whose rounds open their own spans, as a rounds
    /// kernel: its MLE Updates go to [`Kernel::MleUpdate`], the rest to
    /// `kernel`. Both read each table twice; the updates write it once.
    pub(crate) fn sumcheck(
        &mut self,
        kernel: Kernel,
        f: impl FnOnce() -> ProverOutput,
    ) -> ProverOutput {
        let out = self.count(kernel, [0; 3], f);
        let (updates, tables) = (out.update_modmuls, out.mle_evaluations.len() as u32);
        self.kernels[kernel].modmuls -= updates;
        self.add(kernel, 0, [2 * tables, 0, 0]);
        self.add(Kernel::MleUpdate, updates, [2 * tables, tables, 0]);
        out
    }

    fn count<T>(&mut self, kernel: Kernel, io: [u32; 3], f: impl FnOnce() -> T) -> T {
        let before = modmul_count();
        let out = f();
        let spent = modmul_count().since(&before);
        let msm = Kernel::MSMS.contains(&kernel);
        self.add(kernel, if msm { spent.fq } else { spent.total() }, io);
        out
    }

    fn add(&mut self, kernel: Kernel, modmuls: u64, [reads, writes, bases]: [u32; 3]) {
        let row = &mut self.kernels[kernel];
        row.modmuls += modmuls;
        row.reads += reads;
        row.writes += writes;
        row.bases += bases;
    }

    /// Ends the running step and returns every step's seconds and every
    /// kernel's row.
    pub(crate) fn finish(mut self) -> ([f64; 5], [KernelRow; 12]) {
        self.stop();
        (self.seconds, self.kernels)
    }
}
