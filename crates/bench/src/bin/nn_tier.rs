//! Print the `puffer-nn` matmul kernel tier this CPU dispatches to
//! (`scalar`, `avx` or `avx2fma`).  `scripts/bench_hotpath.sh` records it in
//! `BENCH_hotpath.json`'s machine fingerprint: medians measured under
//! different tiers are not comparable.

fn main() {
    println!("{}", puffer_nn::Tier::detect().name());
}
