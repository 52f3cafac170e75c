//! Bounded retry-with-backoff — the one policy shared by every
//! transient-failure site in the workspace.
//!
//! The artifact serve layer ([`crate::serve`]) and rock-data's
//! resilient ingest share this one policy and its one loop,
//! [`RetryPolicy::run`]: attempt, sleep [`RetryPolicy::backoff`], retry
//! while the error is transient and the budget lasts. The delay
//! schedule is a pure function of the policy and the attempt number,
//! so every fault-matrix test sees the exact same schedule.
//!
//! **Corruption is never retried**: [`RetryPolicy::run`] retries only
//! I/O errors of a transient kind ([`RetryPolicy::is_transient`]), and
//! parse and validation failures surface at the call sites after the
//! read, because a deterministic re-read of bad bytes cannot succeed.

use std::io;
use std::time::Duration;

/// Bounded capped-exponential backoff for transient failures.
///
/// Delay before retry `n` (0-based) is `base_delay · 2ⁿ`, capped at
/// `max_delay`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = try once, never retry).
    pub max_retries: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy retrying up to `max_retries` times with no sleeping —
    /// what tests and in-memory sources want.
    pub fn no_backoff(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The delay before retry number `attempt` (0-based): `base · 2ᵃ`
    /// capped at `max_delay`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        // Shift capped well past any real max_delay; saturating_mul
        // absorbs the rest.
        let factor = 1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }

    /// Runs `op` under the policy: a transient error
    /// ([`RetryPolicy::is_transient`]) is retried after sleeping
    /// [`RetryPolicy::backoff`]`(n)` before retry `n`, up to
    /// `max_retries` times; any other error, and a transient one past
    /// the budget, is returned at once. Each retry taken is added to
    /// `retries`, on success and failure alike.
    ///
    /// # Errors
    /// The error of the last attempt.
    pub fn run<T>(
        &self,
        retries: &mut u64,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e) if Self::is_transient(&e) && attempt < self.max_retries => {
                    let delay = self.backoff(attempt);
                    attempt += 1;
                    *retries += 1;
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
                outcome => return outcome,
            }
        }
    }

    /// Whether an I/O error is worth retrying. Interrupted reads,
    /// would-block and timeouts are transient; everything else —
    /// including corruption, which a deterministic re-read cannot fix —
    /// should fail fast.
    pub fn is_transient(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(25),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(25));
        // A huge attempt index must not overflow the shift.
        assert_eq!(p.backoff(63), Duration::from_millis(25));
    }

    #[test]
    fn no_backoff_never_sleeps() {
        let p = RetryPolicy::no_backoff(3);
        assert_eq!(p.max_retries, 3);
        for attempt in 0..8 {
            assert_eq!(p.backoff(attempt), Duration::ZERO);
        }
    }

    #[test]
    fn run_retries_transients_within_the_budget_only() {
        let policy = RetryPolicy::no_backoff(2);
        let failing = |kinds: Vec<io::ErrorKind>| {
            let mut kinds = kinds.into_iter();
            move || match kinds.next() {
                Some(kind) => Err(io::Error::new(kind, "x")),
                None => Ok(7),
            }
        };
        let mut retries = 0;
        let op = failing(vec![io::ErrorKind::TimedOut, io::ErrorKind::WouldBlock]);
        assert_eq!(policy.run(&mut retries, op).unwrap(), 7);
        assert_eq!(retries, 2);
        // A third transient error exhausts the budget; the count carries on.
        let op = failing(vec![io::ErrorKind::TimedOut; 3]);
        let err = policy.run(&mut retries, op).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(retries, 4);
        // A non-transient error is returned at once.
        let op = failing(vec![io::ErrorKind::NotFound]);
        let err = policy.run(&mut retries, op).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(retries, 4);
    }

    #[test]
    fn transient_kinds_are_the_retryable_trio() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            assert!(RetryPolicy::is_transient(&io::Error::new(kind, "x")));
        }
        for kind in [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::InvalidData,
            io::ErrorKind::UnexpectedEof,
        ] {
            assert!(!RetryPolicy::is_transient(&io::Error::new(kind, "x")));
        }
    }
}
