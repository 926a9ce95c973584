//! Request/response types of the serving layer.

use hht_sparse::{CsrMatrix, DenseVector, SparseFormat, SparseVector};
use hht_system::job::{self, Job, Kernel};
use hht_system::runner::FabricRunOutput;
use std::sync::Arc;
use std::time::Duration;

/// The kernel's vector operand. Requests hold `Arc`s so a client replaying
/// the same operand shares storage (and the service can memoize its
/// content hash by allocation identity).
#[derive(Debug, Clone)]
pub enum Operand {
    /// Dense operand (SpMV).
    Dense(Arc<DenseVector>),
    /// Sparse operand (SpMSpV).
    Sparse(Arc<SparseVector>),
}

/// One job: a tenant asks for `kernel(matrix, operand)`.
#[derive(Debug, Clone)]
pub struct Request {
    /// Admission-fairness domain; each wave serves at most one request per
    /// tenant.
    pub tenant: usize,
    /// Which kernel to run: one of the three row-shardable HHT kernels.
    pub kernel: Kernel,
    /// The CSR matrix operand.
    pub matrix: Arc<CsrMatrix>,
    /// The vector operand (dense for SpMV, sparse for SpMSpV).
    pub operand: Operand,
}

impl Request {
    /// An SpMV request. Panics if shapes disagree — a malformed request is
    /// a client bug, not a runtime condition.
    pub fn spmv(tenant: usize, matrix: Arc<CsrMatrix>, v: Arc<DenseVector>) -> Self {
        assert_eq!(v.len(), matrix.cols(), "spmv operand length must equal matrix cols");
        Request { tenant, kernel: Kernel::SpmvHht, matrix, operand: Operand::Dense(v) }
    }

    /// An SpMSpV variant-1 request.
    pub fn spmspv_v1(tenant: usize, matrix: Arc<CsrMatrix>, x: Arc<SparseVector>) -> Self {
        assert_eq!(x.len(), matrix.cols(), "spmspv operand length must equal matrix cols");
        Request { tenant, kernel: Kernel::SpmspvHhtV1, matrix, operand: Operand::Sparse(x) }
    }

    /// An SpMSpV variant-2 request.
    pub fn spmspv_v2(tenant: usize, matrix: Arc<CsrMatrix>, x: Arc<SparseVector>) -> Self {
        assert_eq!(x.len(), matrix.cols(), "spmspv operand length must equal matrix cols");
        Request { tenant, kernel: Kernel::SpmspvHhtV2, matrix, operand: Operand::Sparse(x) }
    }

    /// Rows of this request's output vector.
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }

    /// The job this request asks the fabric to run.
    pub fn job(&self) -> Job<'_> {
        let operand = match &self.operand {
            Operand::Dense(v) => job::Operand::Dense(v),
            Operand::Sparse(x) => job::Operand::Sparse(x),
        };
        Job::new(self.kernel, &self.matrix, operand)
    }
}

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Fabric pass simulated: image built and the job run cold.
    Cold,
    /// Replay-cache hit: no simulation, the memoized output was returned
    /// (bit-identical to re-running, by the pinned determinism).
    ReplayHit,
}

/// One served request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Tenant the request belonged to.
    pub tenant: usize,
    /// This job's output vector (demultiplexed from the pass when the job
    /// was batched).
    pub y: DenseVector,
    /// The fabric pass (or replayed pass) that produced `y`. Shared by
    /// every job of a batch: its stats and recovery report describe the
    /// whole pass, with this job's share delimited by `rows`.
    pub run: Arc<FabricRunOutput>,
    /// This job's row range within `run.y`.
    pub rows: (usize, usize),
    /// Which serving tier satisfied the request.
    pub served: Served,
    /// Jobs co-batched into the producing pass (1 = singleton).
    pub batch_size: usize,
    /// Host latency from wave dispatch to completion of the producing
    /// unit (informational; replays are near-zero).
    pub latency: Duration,
}
