// cci_bench — one multi-tool binary for every paper figure, ablation and
// extension:
//   cci_bench --list
//   cci_bench fig04 --jobs 8 --csv out.csv --cache ~/.cache/cci
#include "bench/registry.hpp"

int main(int argc, char** argv) { return cci::bench::main_cli(argc, argv); }
