// Command-line scenario runner: compose your own interference experiment.
//
//   ./custom_scenario [--machine henri|bora|billy|pyxis]
//                     [--kernel triad|copy|primes|avx|ai=<flop/B>]
//                     [--cores N] [--bytes N]
//                     [--data near|far] [--comm-thread near|far]
//
// Runs the three-phase protocol and prints the full result record.
#include <cstring>
#include <iostream>
#include <string>

#include "core/interference_lab.hpp"
#include "kernels/primes.hpp"
#include "kernels/stream.hpp"
#include "kernels/tunable_triad.hpp"
#include "kernels/vecflops.hpp"
#include "trace/table.hpp"

namespace {

void print_phase(const char* name, const cci::core::CommPhase& comm) {
  std::cout << "  " << name << ": latency " << cci::trace::format_time(comm.latency.median)
            << " [" << cci::trace::format_time(comm.latency.decile1) << ", "
            << cci::trace::format_time(comm.latency.decile9) << "]  bandwidth "
            << cci::trace::format_bw(comm.bandwidth.median) << "\n";
}

int usage() {
  std::cerr << "usage: custom_scenario [--machine M] [--kernel K] [--cores N]\n"
               "                       [--bytes N] [--data near|far] [--comm-thread near|far]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cci;
  core::Scenario s;
  s.kernel = kernels::triad_traits();
  s.computing_cores = 16;
  s.message_bytes = 64 << 20;
  s.pingpong_iterations = 6;
  s.pingpong_warmup = 2;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--machine") {
      std::string m = next();
      if (m == "henri") s.machine = hw::MachineConfig::henri();
      else if (m == "bora") s.machine = hw::MachineConfig::bora();
      else if (m == "billy") s.machine = hw::MachineConfig::billy();
      else if (m == "pyxis") s.machine = hw::MachineConfig::pyxis();
      else return usage();
      s.network = net::NetworkParams::for_machine(m);
    } else if (arg == "--kernel") {
      std::string k = next();
      if (k == "triad") s.kernel = kernels::triad_traits();
      else if (k == "copy") s.kernel = kernels::copy_traits();
      else if (k == "primes") s.kernel = kernels::prime_traits();
      else if (k == "avx") s.kernel = kernels::VecFlops::traits();
      else if (k.rfind("ai=", 0) == 0) {
        int cursor = kernels::TunableTriad::cursor_for_intensity(std::stod(k.substr(3)));
        s.kernel = kernels::TunableTriad(16, cursor).traits();
      } else return usage();
    } else if (arg == "--cores") {
      s.computing_cores = std::stoi(next());
    } else if (arg == "--bytes") {
      s.message_bytes = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--data") {
      s.data = next() == "far" ? core::Placement::kFarFromNic : core::Placement::kNearNic;
    } else if (arg == "--comm-thread") {
      s.comm_thread = next() == "far" ? core::Placement::kFarFromNic : core::Placement::kNearNic;
    } else {
      return usage();
    }
  }

  std::cout << "scenario: " << s.machine.name << ", kernel " << s.kernel.name << " (AI "
            << s.kernel.arithmetic_intensity() << " flop/B), " << s.computing_cores
            << " computing cores, " << trace::format_bytes(static_cast<double>(s.message_bytes))
            << " messages, data " << to_string(s.data) << " NIC, comm thread "
            << to_string(s.comm_thread) << " NIC\n\n";

  core::InterferenceLab lab(s);
  auto r = lab.run();
  std::cout << "communication:\n";
  print_phase("alone   ", r.comm_alone);
  print_phase("together", r.comm_together);
  std::cout << "computation:\n";
  std::cout << "  alone   : pass " << trace::format_time(r.compute_alone.pass_duration.median)
            << ", per-core bw " << trace::format_bw(r.compute_alone.per_core_bandwidth.median)
            << ", mem-stall " << static_cast<int>(100 * r.compute_alone.mem_stall_fraction)
            << "%\n";
  std::cout << "  together: pass " << trace::format_time(r.compute_together.pass_duration.median)
            << ", per-core bw " << trace::format_bw(r.compute_together.per_core_bandwidth.median)
            << ", mem-stall " << static_cast<int>(100 * r.compute_together.mem_stall_fraction)
            << "%\n";
  return 0;
}
