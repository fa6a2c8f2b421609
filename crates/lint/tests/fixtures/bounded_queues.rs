//! Fixture for the `bounded_queues` rule (raw source, never compiled).

use crossbeam::channel::{bounded, unbounded};
use std::sync::mpsc::{self, channel, Receiver}; // hit: std's unbounded constructor imported in a group

fn build_channels() {
    let (_tx1, _rx1) = unbounded::<u64>(); // hit: turbofish form
    let (_tx2, _rx2) = unbounded(); // hit: plain call
    let (_tx3, _rx3) = mpsc::channel::<u64>(); // hit: std's unbounded constructor
    let (_tx4, _rx4) = bounded::<u64>(128); // clean: has a capacity
    let (_tx5, _rx5) = mpsc::sync_channel::<u64>(8); // clean: has a capacity
    // lint:allow(bounded_queues): depth provably bounded by the round window upstream
    let (_tx6, _rx6) = unbounded::<u64>();
    let (_tx7, _rx7): (_, Receiver<u64>) = channel(); // clean on its own: its import fires
}

fn import_by_path() {
    use std::sync::mpsc::channel; // hit: std's unbounded constructor imported by path
    let (_tx, _rx) = channel::<u64>();
}

#[cfg(test)]
mod tests {
    #[test]
    fn unbounded_is_fine_in_tests() {
        let (_tx, _rx) = crossbeam::channel::unbounded::<u64>();
    }
}
