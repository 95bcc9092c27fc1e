//! Updating a series that already exists must not allocate: the
//! control plane records every served request through the registry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use telemetry::metrics::Registry;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn updating_an_existing_series_does_not_allocate() {
    let reg = Registry::new();
    let counter = "requests_total{route=\"safe_point\",status=\"2xx\"}";
    let histogram = "request_seconds{route=\"safe_point\"}";
    reg.register_histogram(histogram, &[1e-6, 1e-3, 1.0]);
    // First touch creates the series; that is where allocation belongs.
    assert!(
        allocations_during(|| {
            reg.counter_add(counter, 1);
            reg.gauge_add("in_flight", 1.0);
        }) > 0
    );

    let hits = allocations_during(|| {
        for i in 0..1000 {
            reg.counter_add(counter, 1);
            reg.gauge_set("in_flight", 0.0);
            reg.gauge_add("in_flight", 1.0);
            reg.observe(histogram, f64::from(i) * 1e-4);
            reg.register_histogram(histogram, &[1e-6, 1e-3, 1.0]);
            assert_eq!(reg.counter("never_touched"), 0);
        }
    });
    assert_eq!(hits, 0, "hit path allocated {hits} times");
    assert_eq!(reg.counter(counter), 1001);
    assert_eq!(reg.histogram(histogram).unwrap().count, 1000);
}
