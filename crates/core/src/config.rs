//! Core configuration.

use std::fmt;

use sc_fpu::FpuTiming;
use sc_mem::TcdmConfig;

/// Configuration of the Snitch-like core and its surroundings.
///
/// The defaults model the system of the paper: a single compute core with a
/// 3-stage ADDMUL FPU, three stream semantic registers, FREP, and a
/// 32-bank TCDM, with the chaining extension available.
///
/// # Examples
///
/// ```
/// use sc_core::CoreConfig;
/// let cfg = CoreConfig::new().with_chaining(false); // ablation: no extension
/// assert!(!cfg.chaining_enabled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// FPU per-class latencies.
    pub fpu: FpuTiming,
    /// TCDM geometry.
    pub tcdm: TcdmConfig,
    /// Number of stream semantic registers (data movers), `ft0`-up.
    pub num_ssrs: u8,
    /// Per-stream FIFO capacity.
    pub ssr_fifo_capacity: usize,
    /// Depth of the integer→FP offload queue (pseudo dual-issue buffer).
    pub offload_queue_depth: usize,
    /// Maximum FREP body size the sequencer can buffer.
    pub sequence_buffer_depth: usize,
    /// Whether the chaining extension hardware is present. When false,
    /// writes to the chaining CSR (0x7C3) are errors in strict mode and
    /// ignored otherwise — the ablation baseline core.
    pub chaining_enabled: bool,
    /// Strict mode: software errors (re-arming active streams, disabling a
    /// chained register with in-flight producers, pops of never-written
    /// chained registers) abort the simulation with a descriptive error
    /// instead of proceeding with undefined data.
    pub strict: bool,
    /// Extra cycles charged for a taken branch (pipeline refill).
    pub branch_taken_penalty: u32,
    /// Capture a full per-cycle issue trace (costs memory; used by the
    /// Fig. 1 experiment and debugging).
    pub trace: bool,
    /// Whether the chained-FIFO writeback drain shifts entries in the
    /// same cycle a chained consumer pops (the hardware behaviour).
    /// Disabling it re-introduces a writeback deadlock — a held FPU
    /// result waiting on FIFO space that only its own consumer can
    /// free — and exists solely so watchdog tests can exercise hang
    /// diagnosis on a real historical bug.
    pub chained_fifo_shift: bool,
}

impl CoreConfig {
    /// The paper's system defaults.
    #[must_use]
    pub fn new() -> Self {
        CoreConfig {
            fpu: FpuTiming::new(),
            tcdm: TcdmConfig::new(),
            num_ssrs: 3,
            ssr_fifo_capacity: 4,
            offload_queue_depth: 8,
            sequence_buffer_depth: 16,
            chaining_enabled: true,
            strict: true,
            branch_taken_penalty: 1,
            trace: false,
            chained_fifo_shift: true,
        }
    }

    /// Enables/disables the same-cycle chained-FIFO drain shift (see
    /// [`CoreConfig::chained_fifo_shift`]). Only watchdog tests should
    /// turn this off.
    #[must_use]
    pub fn with_chained_fifo_shift(mut self, enabled: bool) -> Self {
        self.chained_fifo_shift = enabled;
        self
    }

    /// Enables/disables the chaining extension hardware.
    #[must_use]
    pub fn with_chaining(mut self, enabled: bool) -> Self {
        self.chaining_enabled = enabled;
        self
    }

    /// Overrides the FPU timing.
    #[must_use]
    pub fn with_fpu(mut self, fpu: FpuTiming) -> Self {
        self.fpu = fpu;
        self
    }

    /// Overrides the TCDM geometry.
    #[must_use]
    pub fn with_tcdm(mut self, tcdm: TcdmConfig) -> Self {
        self.tcdm = tcdm;
        self
    }

    /// Enables per-cycle issue tracing.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Checks the sizes that construction divides by or builds
    /// fixed-capacity queues from: a zero there would panic deep inside
    /// the model instead of failing where the configuration enters.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first zero among `ssr_fifo_capacity`,
    /// `offload_queue_depth`, `fpu.addmul_latency`, `tcdm.banks` and
    /// `tcdm.bank_width`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let sizes = [
            ("ssr_fifo_capacity", self.ssr_fifo_capacity as u64),
            ("offload_queue_depth", self.offload_queue_depth as u64),
            ("fpu.addmul_latency", u64::from(self.fpu.addmul_latency)),
            ("tcdm.banks", u64::from(self.tcdm.banks)),
            ("tcdm.bank_width", u64::from(self.tcdm.bank_width)),
        ];
        match sizes.into_iter().find(|&(_, value)| value == 0) {
            Some((field, _)) => Err(ConfigError { field }),
            None => Ok(()),
        }
    }

    /// Sets strictness (see [`CoreConfig::strict`]).
    #[must_use]
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }
}

/// A [`CoreConfig`] field holding a value the model cannot build, found
/// by [`CoreConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, as its path from [`CoreConfig`] (e.g.
    /// `tcdm.banks`).
    pub field: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` must be at least 1", self.field)
    }
}

impl std::error::Error for ConfigError {}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_system() {
        let c = CoreConfig::new();
        assert_eq!(c.fpu.addmul_latency, 3, "Snitch FPU depth");
        assert_eq!(c.num_ssrs, 3, "Snitch has three SSRs");
        assert!(c.chaining_enabled);
        assert!(c.strict);
    }

    #[test]
    fn builders_compose() {
        let c = CoreConfig::new()
            .with_chaining(false)
            .with_trace(true)
            .with_strict(false);
        assert!(!c.chaining_enabled);
        assert!(c.trace);
        assert!(!c.strict);
    }
}
