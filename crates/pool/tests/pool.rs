//! Pool contract tests: panic propagation, nesting, ordering and edge
//! cases — the guarantees the parallel Monte-Carlo rewiring leans on.

use accordion_pool::{jobs, par_map, par_map_indexed, set_jobs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The jobs override is process-global; integration tests in this
/// binary run on multiple threads, so serialize every test through
/// one lock.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_jobs(Some(n));
    let r = f();
    set_jobs(None);
    r
}

#[test]
fn panic_in_par_map_propagates_and_pool_survives() {
    for workers in [1usize, 4] {
        with_jobs(workers, || {
            let err = catch_unwind(AssertUnwindSafe(|| {
                par_map_indexed(16, |i| {
                    if i == 7 {
                        panic!("task 7 exploded");
                    }
                    i
                })
            }))
            .expect_err("panic must reach the caller");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("task 7 exploded"), "payload: {msg:?}");

            // The pool is not poisoned: the very next call works.
            let v = par_map_indexed(8, |i| i * 3);
            assert_eq!(v, vec![0, 3, 6, 9, 12, 15, 18, 21], "workers={workers}");
        });
    }
}

#[test]
fn nested_par_map_inside_par_map_task() {
    // A task opening its own par_map must not deadlock with the outer
    // workers, and both levels keep their input order.
    let rows = with_jobs(3, || {
        par_map_indexed(3, |k| par_map_indexed(5, move |i| i + 10 * k))
    });
    assert_eq!(
        rows,
        vec![
            vec![0, 1, 2, 3, 4],
            vec![10, 11, 12, 13, 14],
            vec![20, 21, 22, 23, 24],
        ]
    );
}

#[test]
fn par_map_preserves_input_order() {
    let items: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
    let expect: Vec<String> = items.iter().map(|s| s.to_uppercase()).collect();
    for workers in [1usize, 2, 8] {
        let got = with_jobs(workers, || par_map(items.clone(), |s| s.to_uppercase()));
        assert_eq!(got, expect, "workers={workers}");
    }
}

#[test]
fn zero_and_single_item_edge_cases() {
    for workers in [1usize, 4] {
        with_jobs(workers, || {
            let empty: Vec<u32> = par_map(Vec::<u32>::new(), |x| x);
            assert!(empty.is_empty());
            assert!(par_map_indexed(0, |i| i).is_empty());
            assert_eq!(par_map(vec![41], |x: i32| x + 1), vec![42]);
            assert_eq!(par_map_indexed(1, |i| i + 9), vec![9]);
        });
    }
}

#[test]
fn tasks_may_borrow_the_environment() {
    let data: Vec<u64> = (0..64).collect();
    let sum: u64 = with_jobs(4, || {
        let partials = par_map_indexed(8, |w| data[w * 8..(w + 1) * 8].iter().sum::<u64>());
        partials.iter().sum()
    });
    assert_eq!(sum, 64 * 63 / 2);
}

#[test]
fn jobs_env_var_is_honored() {
    // `jobs()` reads ACCORDION_JOBS only when no override is set; this
    // test must not race with the with_jobs tests, so take the lock.
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_jobs(None);
    std::env::set_var("ACCORDION_JOBS", "5");
    assert_eq!(jobs(), 5);
    std::env::set_var("ACCORDION_JOBS", "not-a-number");
    assert!(jobs() >= 1); // falls back to auto-detect
    std::env::remove_var("ACCORDION_JOBS");
}
