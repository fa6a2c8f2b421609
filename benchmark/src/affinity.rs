//! Keeps the driver thread on one processor.
//!
//! Where the scheduler happens to leave the driver thread decides which
//! of two paces `durable_open_n8` runs at. The driver does the eight
//! fsyncs of every round; on the processor that also services the
//! disk's interrupts each of them returns sooner, rounds are shorter and
//! carry fewer commands (2.6 against 3.2), and the run reads 410 µs CPU
//! per command with a 3.8 ms median latency where the other processor
//! gives 296 µs and 4.7 ms. The placement sticks for a deployment or a
//! whole process and differs from run to run, so unpinned runs of one
//! build scatter over both. Pinned to processor 1 of the box this was
//! written on, eight runs in a row read the first pair; pinned to
//! processor 0, the second; the other three workloads read the same
//! either way.
//!
//! Only the driver — the benchmark's own thread — is pinned, to the
//! highest-numbered processor the process may use. The system's reactor
//! threads inherit their creator's affinity, so every call that spawns a
//! deployment goes through [`unpinned`], which gives the thread back
//! the process's whole set for the duration of the call. So does every
//! call that stops one: stopping races the reactors' wake-up (about one
//! shutdown in four loses and waits out the event loop's 250 ms idle
//! poll), and a pinned stopper loses nearly every time, which added 6 s
//! of waiting to a run.

use std::sync::OnceLock;

/// glibc's `cpu_set_t`: 1024 processors.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn current() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.as_mut_ptr()) };
    (status == 0).then_some(set)
}

fn apply(set: &CpuSet) {
    // SAFETY: `set` is a live buffer of exactly the size passed, only
    // read by the call; pid 0 names the calling thread. A refusal (a
    // sandbox that filters the call) leaves the thread where it was,
    // which is the unpinned behaviour.
    let _ = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr()) };
}

/// The set the process started with, and its highest processor alone.
fn sets() -> Option<&'static (CpuSet, CpuSet)> {
    static SETS: OnceLock<Option<(CpuSet, CpuSet)>> = OnceLock::new();
    SETS.get_or_init(|| {
        let all = current()?;
        let word = all.iter().rposition(|w| *w != 0)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (u64::BITS - 1 - all[word].leading_zeros());
        Some((all, one))
    })
    .as_ref()
}

/// Run `call` — one that starts or stops a deployment's threads — with
/// the process's whole processor set, then pin the calling thread.
pub fn unpinned<T>(call: impl FnOnce() -> T) -> T {
    let Some((all, one)) = sets() else { return call() };
    apply(all);
    let result = call();
    apply(one);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_spawned_unpinned_get_the_whole_set_and_the_caller_one_processor() {
        let Some((all, one)) = sets() else { return };
        assert_eq!(one.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert!(one.iter().zip(all).all(|(o, a)| o & a == *o), "the pin is inside the set");
        let child = unpinned(|| std::thread::spawn(current).join().unwrap());
        assert_eq!(child.as_ref(), Some(all), "a deployment's threads may run anywhere");
        assert_eq!(current().as_ref(), Some(one), "the caller is pinned afterwards");
    }
}
