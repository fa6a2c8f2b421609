// Fixture: the determinism rule on a single file outside the
// determinism crates. Scanned by lint_rules.rs with the synthetic path
// crates/net/src/heartbeat.rs — never compiled.
use std::collections::HashMap; // violation 1
use std::time::{Duration, Instant};

// Taking instants as arguments is the sanctioned pattern.
pub fn deadline(last_heard: Instant, timeout: Duration) -> Instant {
    last_heard + timeout
}

pub fn sweep(table: &HashMap<u32, Instant>) -> usize { // violation 2
    let now = Instant::now(); // violation 3
    table.values().filter(|&&t| t <= now).count()
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    #[test]
    fn tests_may_read_the_clock() {
        let t0 = Instant::now(); // exempt: test module
        assert!(t0 <= Instant::now());
    }
}
