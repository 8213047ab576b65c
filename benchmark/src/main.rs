use attn_benchmark::cli::{self, Args};

/// Harness errors exit 2 and print no result line; oracle violations are
/// counted in the result line and exit 0.
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = Args::parse(&argv).and_then(|args| cli::run(&args)) {
        eprintln!("attn-benchmark: {e}");
        std::process::exit(2);
    }
}
