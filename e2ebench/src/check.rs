//! Output verification: every operation's result is compared with what
//! it must be, and every mismatch is counted as a failed operation.

/// Counts operations and failures; a failure is never dropped.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations counted.
    pub attempted: u64,
    /// Operations that failed or did not verify.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns whether it succeeded.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        outcome.map_err(|e| self.fail(e)).is_ok()
    }

    /// Marks an already counted operation as failed (its output failed a
    /// check made after the loop).
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

/// `Ok` when `got` equals `want`, else where they first differ.
pub fn same(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let at =
            got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
        Err(format!(
            "{what}: {} bytes differ from the expected {} at byte {at}",
            got.len(),
            want.len()
        ))
    }
}
