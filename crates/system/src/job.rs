//! Job descriptors: which kernel to run on which operands.
//!
//! A [`Job`] is plain data — a [`Kernel`], a CSR matrix, a dense or sparse
//! operand and an optional [`FaultPlan`] — run only by the
//! [`runner`](crate::runner) entry points. What differs between kernels
//! lives in one table (`Kernel::spec`): the matrix encoding the SRAM image
//! stores (SMASH, dense and CSC are derived from the CSR operand), the
//! operand kind, the emitter, the software fallback, and the fabric form.
//! A malformed job is a [`JobError`] before any image is built.

use crate::config::SystemConfig;
use crate::fabric::FabricError;
use crate::kernels;
use crate::layout::{self, ProblemLayout};
use hht_fault::FaultPlan;
use hht_isa::Program;
use hht_mem::Sram;
use hht_sim::RunError;
use hht_sparse::{
    kernels as golden, CscMatrix, CsrMatrix, DenseVector, SmashMatrix, SparseFormat, SparseVector,
};
use std::fmt;

/// Every kernel the machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// CPU-only SpMV (Algorithm 1).
    SpmvBaseline,
    /// HHT-assisted SpMV (CSR gather engine).
    SpmvHht,
    /// HHT-assisted SpMV on the *programmable* back-end (§7 future work):
    /// the same CPU-side kernel, with the gather run by a helper core.
    SpmvHhtProgrammable,
    /// HHT-assisted SpMV over a SMASH encoding of the matrix (§6 ablation).
    SmashSpmvHht,
    /// Dense (expanded) matrix-vector product: the §6 comparator that
    /// stores every zero and pays no metadata cost.
    DenseMatvec,
    /// CPU-only SpMSpV: scalar row merge.
    SpmspvBaseline,
    /// CPU-only work-efficient CSC column-scatter SpMSpV (related work
    /// \[43\]).
    SpmspvCscBaseline,
    /// HHT SpMSpV variant 1 (aligned pairs).
    SpmspvHhtV1,
    /// HHT SpMSpV variant 2 (value-or-zero).
    SpmspvHhtV2,
}

/// How a kernel's SRAM image stores the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Csr,
    Csc,
    Dense,
    Smash,
}

/// Emit a kernel program for one layout (the flag selects vector code).
type Emit = fn(&ProblemLayout, bool) -> Program;

/// One row of the per-kernel table; the accessors below document each
/// column.
struct Spec {
    name: &'static str,
    format: Format,
    sparse_operand: bool,
    emit: Emit,
    fallback: Option<Kernel>,
    fabric: Option<&'static str>,
}

impl Kernel {
    fn spec(self) -> Spec {
        use Format::*;
        use Kernel::*;
        // name, image format, sparse operand, emitter, fallback, fabric label
        #[rustfmt::skip]
        let (name, format, sparse_operand, emit, fallback, fabric): (_, _, _, Emit, _, _) =
            match self {
                SpmvBaseline        => ("spmv_baseline",         Csr,   false, kernels::spmv_baseline,                 None,                 None),
                SpmvHht             => ("spmv_hht",              Csr,   false, kernels::spmv_hht,                      Some(SpmvBaseline),   Some("spmv_fabric")),
                SpmvHhtProgrammable => ("spmv_hht_programmable", Csr,   false, kernels::spmv_hht_programmable,         Some(SpmvBaseline),   None),
                SmashSpmvHht        => ("smash_spmv_hht",        Smash, false, |l, _| kernels::smash_spmv_hht(l),      Some(SpmvBaseline),   None),
                DenseMatvec         => ("dense_matvec",          Dense, false, |l, _| kernels::dense_matvec(l),        None,                 None),
                SpmspvBaseline      => ("spmspv_baseline",       Csr,   true,  |l, _| kernels::spmspv_baseline(l),     None,                 None),
                SpmspvCscBaseline   => ("spmspv_csc_baseline",   Csc,   true,  |l, _| kernels::spmspv_csc_baseline(l), None,                 None),
                SpmspvHhtV1         => ("spmspv_hht_v1",         Csr,   true,  |l, _| kernels::spmspv_hht_v1(l),       Some(SpmspvBaseline), Some("spmspv_fabric_v1")),
                SpmspvHhtV2         => ("spmspv_hht_v2",         Csr,   true,  |l, _| kernels::spmspv_hht_v2(l),       Some(SpmspvBaseline), Some("spmspv_fabric_v2")),
            };
        Spec { name, format, sparse_operand, emit, fallback, fabric }
    }

    /// The kernel's label in verification and fault messages.
    pub(crate) fn name(self) -> &'static str {
        self.spec().name
    }

    /// True for the SpMSpV kernels, which take a sparse operand; the rest
    /// take a dense one.
    pub fn takes_sparse_operand(self) -> bool {
        self.spec().sparse_operand
    }

    /// The software kernel a failed accelerated run falls back to (`None`
    /// for the software kernels themselves).
    pub(crate) fn fallback(self) -> Option<Kernel> {
        self.spec().fallback
    }

    /// Label of the row-sharded fabric form; `None` when
    /// [`runner::run_fabric`](crate::runner::run_fabric) cannot shard the
    /// kernel.
    pub(crate) fn fabric_name(self) -> Option<&'static str> {
        self.spec().fabric
    }
}

/// The vector operand of a job.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// Dense vector (SpMV, dense matvec).
    Dense(&'a DenseVector),
    /// Sparse vector (SpMSpV).
    Sparse(&'a SparseVector),
}

impl<'a> From<&'a DenseVector> for Operand<'a> {
    fn from(v: &'a DenseVector) -> Self {
        Operand::Dense(v)
    }
}

impl<'a> From<&'a SparseVector> for Operand<'a> {
    fn from(x: &'a SparseVector) -> Self {
        Operand::Sparse(x)
    }
}

/// One kernel run: `kernel(matrix, operand)`, optionally under an explicit
/// fault schedule that replaces any seed-derived plan from
/// [`SystemConfig::fault`] (on the fabric it applies to the original
/// attempt only — failover retries always run clean).
#[derive(Debug, Clone)]
pub struct Job<'a> {
    /// Which kernel to run.
    pub kernel: Kernel,
    /// The matrix, in CSR; other encodings are derived from it.
    pub matrix: &'a CsrMatrix,
    /// The vector operand (dense or sparse, as the kernel requires).
    pub operand: Operand<'a>,
    /// Explicit fault schedule.
    pub plan: Option<FaultPlan>,
}

impl<'a> Job<'a> {
    /// A job without an explicit fault plan.
    pub fn new(kernel: Kernel, matrix: &'a CsrMatrix, operand: impl Into<Operand<'a>>) -> Self {
        Job { kernel, matrix, operand: operand.into(), plan: None }
    }

    /// The same job under an explicit fault schedule.
    pub fn with_plan(self, plan: FaultPlan) -> Self {
        Job { plan: Some(plan), ..self }
    }

    /// Check the operand against the kernel: its kind, then its length.
    pub(crate) fn check(&self) -> Result<(), JobError> {
        let (got_sparse, len) = match self.operand {
            Operand::Dense(v) => (false, v.len()),
            Operand::Sparse(x) => (true, x.len()),
        };
        let sparse = self.kernel.takes_sparse_operand();
        if sparse != got_sparse {
            return Err(JobError::OperandKind { kernel: self.kernel, sparse });
        }
        let cols = self.matrix.cols();
        if cols != len {
            return Err(JobError::OperandLength { kernel: self.kernel, cols, len });
        }
        Ok(())
    }

    /// The golden result the simulated `y` is verified against.
    pub(crate) fn golden(&self) -> Result<DenseVector, JobError> {
        self.check()?;
        let m = self.matrix;
        let y = match (self.kernel.spec().format, self.operand) {
            (Format::Dense, Operand::Dense(v)) => m.to_dense().matvec(v),
            (_, Operand::Dense(v)) => golden::spmv(m, v),
            (_, Operand::Sparse(x)) => golden::spmspv(m, x),
        };
        Ok(y.expect("operand length checked"))
    }

    /// Image words: the encoded matrix, the operand and the output,
    /// computed from the CSR shape before anything is encoded.
    fn words(&self) -> usize {
        let m = self.matrix;
        let matrix = match self.kernel.spec().format {
            Format::Csr => (m.rows() + 1) + 2 * m.nnz(),
            Format::Csc => (m.cols() + 1) + 2 * m.nnz(),
            Format::Dense => m.rows().saturating_mul(m.cols()),
            Format::Smash => {
                // One presence bit per entry, plus one summary level when
                // the bitmap spans more than one word (`SmashMatrix`).
                let l0 = m.rows().saturating_mul(m.cols()).max(1).div_ceil(32);
                let l1 = if l0 > 1 { l0.div_ceil(32) } else { 0 };
                l0 + l1 + m.nnz()
            }
        };
        let operand = match self.operand {
            Operand::Dense(v) => v.len(),
            Operand::Sparse(x) => 2 * x.nnz(),
        };
        matrix.saturating_add(operand + m.rows())
    }

    /// Check the operand and the memory timing, then size the SRAM for the
    /// image plus `extra` words (the fabric's per-shard row-pointer copies).
    pub(crate) fn sram_size(&self, cfg: &SystemConfig, extra: usize) -> Result<u32, JobError> {
        self.check()?;
        if cfg.ram_word_cycles == 0 {
            return Err(JobError::ZeroWordCycles);
        }
        if cfg.dram.row_words == 0 {
            return Err(JobError::ZeroRowWords);
        }
        sram_bytes(cfg.ram_size, self.words().saturating_add(extra))
    }

    /// Build the SRAM holding the full problem image, with room for `extra`
    /// more words.
    pub(crate) fn layout(
        &self,
        cfg: &SystemConfig,
        extra: usize,
    ) -> Result<(Sram, ProblemLayout), JobError> {
        let mut sram = Sram::new(self.sram_size(cfg, extra)?, cfg.ram_word_cycles);
        let m = self.matrix;
        let triplets = || m.triplets();
        let l = match (self.kernel.spec().format, self.operand) {
            (Format::Csr, Operand::Dense(v)) => layout::layout_spmv(&mut sram, m, v),
            (Format::Csr, Operand::Sparse(x)) => layout::layout_spmspv(&mut sram, m, x),
            (Format::Csc, Operand::Sparse(x)) => {
                let csc = CscMatrix::from_triplets(m.rows(), m.cols(), &triplets())
                    .expect("valid triplets from CSR");
                kernels::layout_spmspv_csc(&mut sram, &csc, x)
            }
            (Format::Dense, Operand::Dense(v)) => layout::layout_dense(&mut sram, &m.to_dense(), v),
            (Format::Smash, Operand::Dense(v)) => {
                let smash = SmashMatrix::from_triplets(m.rows(), m.cols(), &triplets())
                    .expect("valid triplets from CSR");
                layout::layout_smash_spmv(&mut sram, &smash, v)
            }
            _ => unreachable!("operand kind checked"),
        };
        Ok((sram, l))
    }

    /// The kernel program over one (full or shard) layout.
    pub(crate) fn emit(&self, cfg: &SystemConfig, l: &ProblemLayout) -> Program {
        (self.kernel.spec().emit)(l, cfg.core.vlen > 1)
    }

    /// The single-tile image: SRAM, program and the output vector's base
    /// address — exactly what [`runner::run`](crate::runner::run) runs.
    pub fn image(&self, cfg: &SystemConfig) -> Result<(Sram, Program, u32), JobError> {
        let (sram, l) = self.layout(cfg, 0)?;
        Ok((sram, self.emit(cfg, &l), l.y_base))
    }
}

/// SRAM size for an image of `words` words: the configured (Table-1) size,
/// grown when the image does not fit. The paper runs 512x512 matrices at
/// 10 % sparsity, whose CSR image alone is ~1.9 MB — their spike memory
/// model must have been sized up the same way (documented in
/// EXPERIMENTS.md). Errors when the image would not fit the 32-bit address
/// space.
pub(crate) fn sram_bytes(ram_size: u32, words: usize) -> Result<u32, JobError> {
    // base offset + arrays + per-array alignment padding slack
    let needed = (words as u64).saturating_mul(4).saturating_add(0x100 + 32 * 8);
    let bytes = (ram_size as u64).max(needed.checked_next_multiple_of(4096).unwrap_or(u64::MAX));
    u32::try_from(bytes).map_err(|_| JobError::ImageTooLarge { bytes })
}

/// Why a job could not run (or, with the recovery policy off, failed).
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The operand kind does not match the kernel, which takes a sparse
    /// operand when `sparse` is set and a dense one otherwise.
    OperandKind { kernel: Kernel, sparse: bool },
    /// The operand has `len` elements but the matrix has `cols` columns.
    OperandLength { kernel: Kernel, cols: usize, len: usize },
    /// The kernel has no row-sharded fabric form.
    NotShardable(Kernel),
    /// The fabric configuration has no tiles.
    NoTiles,
    /// The fabric configuration has no memory banks.
    NoBanks,
    /// The image needs `bytes` of SRAM, past the 32-bit address space.
    ImageTooLarge { bytes: u64 },
    /// `ram_word_cycles` is 0: a memory access takes at least one cycle.
    ZeroWordCycles,
    /// The DRAM timing's `row_words` is 0: a row holds at least one word.
    ZeroRowWords,
    /// A single-tile run of kernel `what` faulted and no fallback applied.
    KernelFault { what: &'static str, error: RunError },
    /// A fabric run of kernel `what` faulted with the recovery policy off.
    FabricFault { what: &'static str, error: FabricError },
    /// The result of kernel `what` diverges from golden (`detail` names the
    /// first failing element) and no fallback applied.
    Diverged { what: &'static str, detail: String },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::OperandKind { kernel, sparse } => {
                let (want, got) = if *sparse { ("sparse", "dense") } else { ("dense", "sparse") };
                write!(f, "{} takes a {want} operand, got a {got} one", kernel.name())
            }
            JobError::OperandLength { kernel, cols, len } => {
                write!(
                    f,
                    "{}: operand has {len} elements, matrix has {cols} columns",
                    kernel.name()
                )
            }
            JobError::NotShardable(kernel) => {
                write!(f, "{} has no row-sharded fabric form", kernel.name())
            }
            JobError::NoTiles => write!(f, "fabric has no tiles"),
            JobError::NoBanks => write!(f, "fabric has no memory banks"),
            JobError::ImageTooLarge { bytes } => {
                write!(f, "problem image needs {bytes} bytes, past the 32-bit address space")
            }
            JobError::ZeroWordCycles => write!(f, "memory words take 0 cycles (ram_word_cycles)"),
            JobError::ZeroRowWords => write!(f, "DRAM rows hold 0 words (row_words)"),
            JobError::KernelFault { what, error } => write!(f, "{what} kernel fault: {error}"),
            JobError::FabricFault { what, error } => {
                write!(f, "{what}: fabric run failed: {error:?}")
            }
            JobError::Diverged { what, detail } => {
                write!(f, "{what}: simulated result diverges from golden: {detail}")
            }
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;
    use hht_sparse::generate;

    #[test]
    fn sram_size_grows_and_rejects_images_past_4_gib() {
        assert_eq!(sram_bytes(1 << 20, 16), Ok(1 << 20));
        assert_eq!(sram_bytes(1 << 20, 1 << 20), Ok(0x40_1000));
        // The largest image that fits, and the first that does not.
        assert_eq!(sram_bytes(0, 0x3fff_fb00), Ok(0xffff_f000));
        let words = 1usize << 30;
        assert_eq!(
            sram_bytes(1 << 20, words),
            Err(JobError::ImageTooLarge { bytes: (4u64 << 30) + 4096 })
        );
        assert!(sram_bytes(1 << 20, usize::MAX).is_err());
    }

    #[test]
    fn word_counts_match_the_placed_encodings() {
        let m = generate::random_csr(40, 40, 0.7, 3);
        let v = generate::random_dense_vector(40, 4);
        let smash = SmashMatrix::from_triplets(40, 40, &m.triplets()).unwrap();
        let levels = smash.level(0).len() + smash.level(1).len();
        let job = Job::new(Kernel::SmashSpmvHht, &m, &v);
        assert_eq!(job.words(), levels + smash.nnz() + 40 + 40);
        let csc = CscMatrix::from_triplets(40, 40, &m.triplets()).unwrap();
        let x = generate::random_sparse_vector(40, 0.5, 5);
        let job = Job::new(Kernel::SpmspvCscBaseline, &m, &x);
        assert_eq!(job.words(), csc.col_ptr().len() + 2 * m.nnz() + 2 * x.nnz() + 40);
    }
}
