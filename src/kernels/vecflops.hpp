// Wide-vector FMA burn kernel (§3.3): cache-resident AVX512-class work.
//
// Each computing core runs the same amount of FMA work on a tiny buffer
// (weak scaling, as in the paper), forcing the AVX512 turbo licence
// without generating DRAM traffic.
#pragma once

#include <array>
#include <cstddef>

#include "hw/workload.hpp"

namespace cci::kernels {

class VecFlops {
 public:
  VecFlops();

  /// Execute `fma_ops` fused multiply-adds over the resident buffer;
  /// returns the accumulated checksum (prevents dead-code elimination).
  double run(std::size_t fma_ops);

  /// Simulator traits: iteration = one 8-wide FMA; 16 flops, no memory.
  static hw::KernelTraits traits();

 private:
  static constexpr std::size_t kLanes = 8;  // one ZMM register of doubles
  std::array<double, kLanes> x_;
  std::array<double, kLanes> y_;
};

}  // namespace cci::kernels
