//! A rank that panics on a coroutine stack, with backtraces on.
//!
//! The panic hook walks the panicking rank's stack to print the backtrace.
//! On a coroutine that walk must end at the coroutine's entry frame, and
//! the panic must reach `World::run`'s caller with its message. This is a
//! test binary of its own: the backtrace setting is read at the first
//! panic of the process, so it must be set before any other test panics.

use std::panic::catch_unwind;
use tsgemm_net::World;

#[test]
fn a_rank_panic_on_a_coroutine_stack_is_reraised_with_its_message() {
    std::env::set_var("RUST_BACKTRACE", "1");
    // More ranks than host cores, so ranks run as coroutines.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let p = 2 * nproc + 1;
    let out = catch_unwind(|| {
        World::run(p, |comm| {
            comm.barrier("before");
            if comm.rank() == p - 1 {
                panic!("rank {} gives up", comm.rank());
            }
            comm.barrier("after");
        })
    });
    let payload = out.err().expect("the rank's panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert_eq!(msg, format!("rank {} gives up", p - 1));
}
