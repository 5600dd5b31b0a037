//! The untraced benchmark binary: end-to-end metrics, system allocator.

fn main() {
    std::process::exit(rb_perfbench::main_with(false));
}
