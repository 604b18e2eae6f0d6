//! Which FD miner the mine-rules stage runs.

/// An FD miner and its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinerSpec {
    /// TANE, optionally approximate (g3 error ≤ `max_g3_error`).
    Tane { max_g3_error: f64 },
    /// HyFD with its sampling seed.
    HyFd { seed: u64 },
}
