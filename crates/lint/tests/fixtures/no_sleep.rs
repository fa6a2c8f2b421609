//! Fixture for the `no_sleep` rule (raw source, never compiled).

use std::thread::sleep; // hit: imports the bare call
use std::time::Duration;

fn wait_for_peer(rx: &Receiver<u64>) {
    std::thread::sleep(Duration::from_millis(1)); // hit: full path
    thread::sleep(Duration::from_millis(1)); // hit: module path
    let _ = rx.recv_timeout(Duration::from_millis(1)); // clean: wakes on arrival
    std::thread::park_timeout(Duration::from_millis(1)); // clean: unparkable
    // lint:allow(no_sleep): a fixed pause is the behaviour under test here
    std::thread::sleep(Duration::from_millis(1));
}

#[cfg(test)]
mod tests {
    #[test]
    fn sleeping_is_fine_in_tests() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
