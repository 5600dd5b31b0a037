//! The traced benchmark binary: per-layer metrics. Only this process
//! counts allocations, so the untraced run's timings never pay for it.

#[global_allocator]
static ALLOC: rb_prof::CountingAlloc = rb_prof::CountingAlloc;

fn main() {
    std::process::exit(rb_perfbench::main_with(true));
}
